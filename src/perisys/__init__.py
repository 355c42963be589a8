"""Exact simulation and symbolic periodicity analysis for the coupled
rational recurrence x_n = a/y_{n-p}, y_n = b y_{n-p} / (x_{n-q} y_{n-q}).

Two independent routes answer the same questions: brute-force exact
trajectory analysis (simulator, cycle, closedform) and characteristic-root
analysis (spectral).  The CLI ties them together and cross-checks them.
"""

from .closedform import (
    DriftReport,
    block_ratio_check,
    drift,
    growth_slope,
)
from .cycle import (
    CycleResult,
    NoCycleWithinHorizon,
    Periodic,
    default_horizon,
    detect_cycle,
)
from .errors import (
    ArgumentRangeError,
    BitCapSettingError,
    BitLengthExceededError,
    PerisysError,
    ShapeError,
    SpecSyntaxError,
    TooFewPointsError,
    TrajectoryIndexError,
    WrongBackendError,
    ZeroValueError,
)
from .model import (
    SystemSpec,
    ValidationReport,
    load_spec,
    parse_spec,
    random_positive_spec,
    spec_to_obj,
    validate,
)
from .numerics import (
    DEFAULT_MAX_BITS,
    ENV_MAX_BITS,
    Rational,
    SignedLog,
    component_bits,
    format_rational,
    parse_rational,
    resolve_max_bits,
    to_signed_log,
)
from .simulator import (
    BACKEND_EXACT,
    BACKEND_SIGNEDLOG,
    Trajectory,
    block_multipliers,
    iter_pairs,
    product_invariant_check,
    simulate,
    step_coefficients,
    trajectory_rows,
    trajectory_to_obj,
    write_trajectory_csv,
    write_trajectory_json,
    x_relation_check,
)
from .spectral import (
    Classification,
    Reason,
    Regime,
    classify,
)

__version__ = "0.1.0"
