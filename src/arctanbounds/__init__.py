"""Certified closed-form bounds for the arc tangent.

A catalog of classical and parameterized bounds with validity predicates, an
exact regime proof and interior-minimum solver for the underlying ratio, a
high-precision arctan oracle with a grid-sweep verification harness, and a
fast approximation kernel whose error is certified by enclosure width.

Importing the package loads only ``catalog``, ``errors`` and ``fixedpoint``.
The public names of ``family``, ``kernel`` and ``oracle`` are bound on first
use (PEP 562 module ``__getattr__``): ``arctanbounds.sweep`` or
``from arctanbounds import sweep`` imports ``oracle`` then, and binds the name
in the package, the same object as ``arctanbounds.oracle.sweep``.
``from arctanbounds import *`` binds every name in ``__all__``.
"""

import importlib

from .catalog import (
    DEFAULT_DIGITS,
    DEFAULT_SWEEP_DIGITS,
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
from .fixedpoint import FixedReal

#: The public names bound on first use, by the module that defines them.
_LAZY = {
    "family": ("MinimumResult", "family_ratio", "find_interior_minimum",
               "minimum_value_closed_form", "stationarity_gap"),
    "kernel": ("DEFAULT_KERNEL", "CertifiedValue", "ErrorProfile", "KernelSpec",
               "approx", "error_profile"),
    "oracle": ("DEFAULT_GRID", "DominanceReport", "GridSpec", "SweepReport",
               "dominance_report", "oracle_arctan", "sweep"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    # PEP 562: called only for names not yet bound.  A submodule name is not
    # in _HOME, so "from . import oracle" falls back to importing it.
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))


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
