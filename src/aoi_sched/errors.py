"""Exception types shared across the package."""


class AoiSchedError(Exception):
    """Common base; each subclass also keeps its builtin ValueError/RuntimeError base."""


class PlantInvariantError(AoiSchedError, ValueError):
    """A plant violates a structural assumption (dimensions, ranks, spectra)."""


class ConvergenceError(AoiSchedError, RuntimeError):
    """An iterative solver failed to converge within its iteration budget."""


class GenerationError(AoiSchedError, RuntimeError):
    """Random plant generation exhausted its retry budget."""


class StabilityError(AoiSchedError, ValueError):
    """Parameters violate the stability condition alpha * (1 - p) < 1."""


class FeasibilityError(AoiSchedError, ValueError):
    """No feasible solution exists (e.g. no stabilizing randomized policy)."""


class OracleError(AoiSchedError, RuntimeError):
    """A numerical oracle (Newton search, root certification, policy iteration) failed."""


class UnsupportedPlantError(AoiSchedError, ValueError):
    """The requested computation is not supported for this plant (e.g. defective A)."""


class ResourceBudgetError(AoiSchedError, RuntimeError):
    """The requested computation exceeds the configured state-space budget."""
