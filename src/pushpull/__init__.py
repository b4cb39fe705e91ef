"""Numerical toolkit for a content-diffusion access game.

Contents spread through a push channel (provider seeding) and a pull
channel (strategic viewers). Pull users adopt threshold policies on an
observable metric of the viewcount trajectory; this package evaluates
the resulting dynamics, player utilities, closed-form best responses,
and the symmetric Wardrop equilibria, and validates every closed form
against a brute-force grid oracle and an event-level simulator.

Units are fixed package-wide: time in days, rates in views/day,
viewcount in views.
"""

from .dynamics import (
    Belief,
    DynamicsError,
    InfiniteHorizonError,
    MetricKind,
    ModelParams,
    PushKind,
    Quality,
    Trajectory,
    activation_time,
    beta_tau,
    crossing_time_raw,
    horizon_window,
    sample_trajectory,
    viewcount,
)
from .equilibrium import (
    EquilibriumError,
    EquilibriumKind,
    EquilibriumSet,
    SideInfoDiagnostics,
    classify,
    classify_exponential,
    classify_linear,
    classify_side_info,
    classify_variable_horizon,
    make_report,
)
from .numerics import NumericsError
from .oracle import (
    GridSpec,
    check_equilibrium_set,
    decide_rows,
    deviation_sweep,
    find_symmetric_equilibria,
    grid_best_response,
)
from .sim import (
    DynamicsResult,
    SimConfig,
    best_response_dynamics,
    simulate_views,
)
from .utility import (
    BestResponse,
    BestResponseKind,
    Scenario,
    UtilityError,
    best_response_exponential,
    best_response_linear,
    best_response_side_info,
    closed_form_best_response,
    side_info_lambda_pu_s,
    side_info_peaks,
    strategy_cap,
    symmetric_cap,
    utility,
    utility_surface,
    utility_terms,
)

__version__ = "0.1.0"

__all__ = [
    "Belief",
    "BestResponse",
    "BestResponseKind",
    "DynamicsError",
    "DynamicsResult",
    "EquilibriumError",
    "EquilibriumKind",
    "EquilibriumSet",
    "GridSpec",
    "InfiniteHorizonError",
    "MetricKind",
    "ModelParams",
    "NumericsError",
    "PushKind",
    "Quality",
    "Scenario",
    "SideInfoDiagnostics",
    "SimConfig",
    "Trajectory",
    "UtilityError",
    "activation_time",
    "best_response_dynamics",
    "best_response_exponential",
    "best_response_linear",
    "best_response_side_info",
    "beta_tau",
    "check_equilibrium_set",
    "classify",
    "classify_exponential",
    "classify_linear",
    "classify_side_info",
    "classify_variable_horizon",
    "closed_form_best_response",
    "crossing_time_raw",
    "decide_rows",
    "deviation_sweep",
    "find_symmetric_equilibria",
    "grid_best_response",
    "horizon_window",
    "make_report",
    "sample_trajectory",
    "side_info_lambda_pu_s",
    "side_info_peaks",
    "simulate_views",
    "strategy_cap",
    "symmetric_cap",
    "utility",
    "utility_surface",
    "utility_terms",
    "viewcount",
    "__version__",
]
