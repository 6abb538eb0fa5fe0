"""Lightweight Whittle-index scheduling for remote state estimation."""

from .aoi import (
    AoiFunction,
    ThresholdPolicy,
    f_value,
    numeric_whittle_index,
    stationary_aoi_distribution,
    threshold_average_cost,
    threshold_transmission_rate,
    threshold_value_function,
    whittle_index,
    whittle_index_numeric,
    whittle_index_table,
)
from .bounds import (
    BoundsReport,
    compute_bounds_report,
    lower_bound_J,
    lower_bound_J_origin,
    necessary_stability,
    optimize_randomized_q,
    sufficient_stability,
    upper_bound_J,
)
from .errors import (
    AoiSchedError,
    ConvergenceError,
    FeasibilityError,
    GenerationError,
    OracleError,
    PlantInvariantError,
    ResourceBudgetError,
    StabilityError,
    UnsupportedPlantError,
)
from .plants import (
    CharParams,
    PlantModel,
    SteadyStateFilter,
    characteristic_params,
    error_trace_table,
    generate_ensemble,
    generate_plant,
    load_ensemble,
    prediction_trace_table,
    save_ensemble,
    scalar_error_bound,
    spectral_radius,
    steady_state_filter,
)
from .policies import (
    AoiGreedyPolicy,
    AoiWhittlePolicy,
    Decision,
    DpTablePolicy,
    LightweightPolicy,
    PolicySpec,
    RandomizedStationaryPolicy,
    RoundRobinPolicy,
    VoiGreedyPolicy,
    VoiWhittlePolicy,
    dp_optimal_policy,
    evaluate_policy_average_cost,
    parse_policy,
)
from .sim import (
    SimConfig,
    SimReport,
    SweepRow,
    measure_decision_time,
    run_covariance_sim,
    run_sweep,
    run_trajectory_sim,
    write_sweep_csv,
    write_sweep_json,
)

__version__ = "0.1.0"
