import numpy as np
import pytest
from hypothesis import settings

from aoi_sched import PlantModel, steady_state_filter

# every property test is derandomized and carries no example database
# between runs, so its examples are set by the test, the Hypothesis version
# and one more input: Hypothesis sometimes draws a literal constant from the
# source of a local, non-test module in sys.modules (aoi_sched, perfbench).
# So a test draws the same examples on every run of one pytest invocation on
# one tree, but collecting other test files (which import other modules) or
# editing a literal in such a module can change them. No deadline, since
# solver times vary with the host; a test's own @settings sets only
# max_examples
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def scalar_plant():
    return PlantModel(A=[[1.2]], C=[[1.0]], Q=[[1.0]], R=[[1.0]], p=0.9)


@pytest.fixture(scope="session")
def scalar_filter(scalar_plant):
    return steady_state_filter(scalar_plant)


@pytest.fixture
def riccati_solves(monkeypatch):
    """Plants the stacked Riccati iteration runs on during the test, in
    call order and, within one call, in stack order."""
    import aoi_sched.plants as plants_mod

    solved = []
    real = plants_mod._riccati_fixed_points
    monkeypatch.setattr(plants_mod, "_riccati_fixed_points",
                        lambda pls: solved.extend(pls) or real(pls))
    return solved


@pytest.fixture(scope="session")
def scalar_pbar():
    # independent oracle: the scalar Riccati fixed point solves
    # a^2 P^2 + (q + r - a^2 r) P - q r = 0
    a, q, r = 1.2, 1.0, 1.0
    b = q + r - a * a * r
    return (-b + np.sqrt(b * b + 4 * a * a * q * r)) / (2 * a * a)
