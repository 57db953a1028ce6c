"""Windowed ternary representations N = p1 + p2 + floor(n^c) and their analysis.

Exact counting of solutions with each summand confined to a window of
half-width H around mu_k*N, direct evaluation of the associated short
exponential sums, and numeric major/minor-arc decomposition of the counting
integral with its closed-form main terms.
"""

from .arith import (
    RationalExponent,
    floor_pow,
    floor_pow_values,
    integer_root,
    invert_floor_range,
    pow_range,
)
from .circle import (
    ArcReport,
    exact_convolution_count,
    integrate_arcs,
    main_term_value,
    model_major_value,
    sine_power_integral,
    singular_integral_J,
)
from .counting import CountBreakdown, brute_force_count, fast_count
from .errors import (
    ConvolutionCheckFailed,
    EstermannError,
    ExponentTooSmall,
    FloorInversionFailed,
    IntegerExponent,
    MemoryBudgetExceeded,
    MuSumNotOne,
    OracleLimitExceeded,
    ToleranceNotMet,
    WindowTooWide,
)
from .expsums import (
    PhaseReducer,
    approx_prime_sum,
    approx_S1,
    approx_S_c,
    char_sum,
    eval_S1,
    oscillatory_integral,
)
from .instance import (
    DerivedParams,
    HypothesisReport,
    ProblemInstance,
    build_instance,
    derive_params,
    hypothesis_report,
)
from .sieve import lambda_segment, pi_interval, primes_in, psi

__version__ = "0.1.0"

__all__ = [
    "ArcReport",
    "ConvolutionCheckFailed",
    "CountBreakdown",
    "DerivedParams",
    "EstermannError",
    "ExponentTooSmall",
    "FloorInversionFailed",
    "HypothesisReport",
    "IntegerExponent",
    "MemoryBudgetExceeded",
    "MuSumNotOne",
    "OracleLimitExceeded",
    "PhaseReducer",
    "ProblemInstance",
    "RationalExponent",
    "ToleranceNotMet",
    "WindowTooWide",
    "approx_S1",
    "approx_S_c",
    "approx_prime_sum",
    "brute_force_count",
    "build_instance",
    "char_sum",
    "derive_params",
    "eval_S1",
    "exact_convolution_count",
    "fast_count",
    "floor_pow",
    "floor_pow_values",
    "hypothesis_report",
    "integer_root",
    "integrate_arcs",
    "invert_floor_range",
    "lambda_segment",
    "main_term_value",
    "model_major_value",
    "oscillatory_integral",
    "pi_interval",
    "pow_range",
    "primes_in",
    "psi",
    "sine_power_integral",
    "singular_integral_J",
]
