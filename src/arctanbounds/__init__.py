"""Certified closed-form bounds for the arc tangent.

A catalog of classical and parameterized bounds with validity predicates, an
exact regime proof and interior-minimum solver for the underlying ratio, a
high-precision arctan oracle with a grid-sweep verification harness, and a
fast approximation kernel whose error is certified by enclosure width.
"""

from .catalog import (
    TWO_OVER_PI,
    BoundId,
    Enclosure,
    Regime,
    RegimeProof,
    best_enclosure,
    classify_regime,
    enclosure,
    eval_bound,
    eval_bound_hp,
    prove_regime,
)
from .errors import (
    ArctanBoundsError,
    DomainError,
    ParamError,
    PrecisionError,
    SingularityError,
)
from .family import (
    MinimumResult,
    family_ratio,
    find_interior_minimum,
    minimum_value_closed_form,
    stationarity_gap,
)
from .fixedpoint import FixedReal
from .kernel import (
    DEFAULT_KERNEL,
    CertifiedValue,
    ErrorProfile,
    KernelSpec,
    approx,
    error_profile,
)
from .oracle import (
    DEFAULT_DIGITS,
    DEFAULT_GRID,
    DEFAULT_SWEEP_DIGITS,
    DominanceReport,
    GridSpec,
    SweepReport,
    dominance_report,
    oracle_arctan,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "ArctanBoundsError",
    "BoundId",
    "CertifiedValue",
    "DEFAULT_DIGITS",
    "DEFAULT_GRID",
    "DEFAULT_KERNEL",
    "DEFAULT_SWEEP_DIGITS",
    "DomainError",
    "DominanceReport",
    "Enclosure",
    "ErrorProfile",
    "FixedReal",
    "GridSpec",
    "KernelSpec",
    "MinimumResult",
    "ParamError",
    "PrecisionError",
    "Regime",
    "RegimeProof",
    "SingularityError",
    "SweepReport",
    "TWO_OVER_PI",
    "approx",
    "best_enclosure",
    "classify_regime",
    "dominance_report",
    "enclosure",
    "error_profile",
    "eval_bound",
    "eval_bound_hp",
    "family_ratio",
    "find_interior_minimum",
    "minimum_value_closed_form",
    "oracle_arctan",
    "prove_regime",
    "stationarity_gap",
    "sweep",
    "__version__",
]
