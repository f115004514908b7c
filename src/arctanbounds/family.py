"""Analysis of the parameterized ratio behind the bound family.

The central object is ``family_ratio(a, x) = (a + sqrt(1+x^2)) * arctan(x) / x``
whose monotonicity in x decides which closed-form bounds hold.  The helpers
here expose the derivative factorization used to prove the regime split:

* ``stationarity_gap`` is the bracketed factor g of the derivative; the sign
  of d/dx family_ratio equals sign(g) * sign(1 + a*sqrt(1+x^2)).
* ``gap_quadratic`` h(a, x) = 2a^2 u + a - u (u = sqrt(1+x^2)) is the factor
  controlling the sign of dg/dx: h = 2u (a - r-)(a - r+).
* ``quadratic_root_neg`` / ``quadratic_root_pos`` are those two roots in a;
  both increase in x, with ranges (-1, -sqrt2/2) and (1/2, sqrt2/2).

For 1/2 < a < 2/pi the gap has a single zero, which is the unique interior
minimum of the ratio; ``find_interior_minimum`` locates it by bracketing plus
bisection on the gap, and ``minimum_value_closed_form`` gives the minimum as
(a+u)^2 / (u (1+a u)) with u = sqrt(1 + x0^2).

All evaluations accept floats or :class:`~arctanbounds.fixedpoint.FixedReal`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import fixedpoint as fp
from .catalog import TWO_OVER_PI
from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    ParamError,
    SingularityError,
)


def _check_positive(x) -> None:
    if not x > 0:
        raise DomainError(f"defined for x > 0, got {x!r}")


def family_ratio(a, x):
    """(a + sqrt(1+x^2)) * arctan(x) / x for x > 0.

    Tends to 1 + a as x -> 0+ and to pi/2 as x -> inf; those two limits are
    the unimprovable constants of the two-sided bounds.
    """
    _check_positive(x)
    u = fp.sqrt_of(1 + x * x)
    return (a + u) * fp.atan_of(x) / x


def family_ratio_at_zero(a) -> float:
    """Continuous extension of the ratio at x = 0."""
    return 1 + a


def stationarity_gap(a, x):
    """The sign-carrying factor of the ratio's derivative.

    g(a, x) = (x + x^3 + a x u) / ((1+x^2)(1 + a u)) - arctan x, u = sqrt(1+x^2).
    g vanishes exactly at critical points of the ratio; it tends to 0 at 0+
    and to 1/a - pi/2 at infinity.
    """
    _check_positive(x)
    u = fp.sqrt_of(1 + x * x)
    pivot = 1 + a * u
    if pivot == 0:
        raise SingularityError(f"1 + a*sqrt(1+x^2) vanishes at a={a!r}, x={x!r}")
    return (x + x * x * x + a * x * u) / ((1 + x * x) * pivot) - fp.atan_of(x)


def gap_quadratic(a, x):
    """h(a, x) = 2 a^2 u + a - u with u = sqrt(1+x^2).

    Quadratic in a; its two roots are the threshold curves below.  The gap's
    derivative satisfies sign(dg/dx) = -sign(h).
    """
    _check_positive(x)
    u = fp.sqrt_of(1 + x * x)
    return 2 * a * a * u + a - u


def quadratic_root_neg(x):
    """Negative root of the gap quadratic: -(1 + sqrt(9+8x^2)) / (4 sqrt(1+x^2)).

    Increasing, from -1 at 0+ to -sqrt2/2 at infinity.
    """
    _check_positive(x)
    s = fp.sqrt_of(9 + 8 * x * x)
    u = fp.sqrt_of(1 + x * x)
    return -(1 + s) / (4 * u)


def quadratic_root_pos(x):
    """Positive root of the gap quadratic: (sqrt(9+8x^2) - 1) / (4 sqrt(1+x^2)).

    Increasing, from 1/2 at 0+ to sqrt2/2 at infinity; the interior-minimum
    regime (1/2, 2/pi) sits inside its range.
    """
    _check_positive(x)
    s = fp.sqrt_of(9 + 8 * x * x)
    u = fp.sqrt_of(1 + x * x)
    return (s - 1) / (4 * u)


def shafer_defect(x: float) -> float:
    """arctan x - 3x/(1 + 2 sqrt(1+x^2)), the defect of the classical lower bound."""
    if x < 0:
        raise DomainError("defect is stated for x >= 0")
    return math.atan(x) - 3.0 * x / (1.0 + 2.0 * math.sqrt(1.0 + x * x))


def shafer_defect_derivative(x: float) -> float:
    """Closed-form derivative of the defect:
    (sqrt(1+x^2) - 1)^2 / ((1+x^2)(1 + 2 sqrt(1+x^2))^2).

    Vanishes only at x = 0, which is the one-line proof that the classical
    lower bound is strict for x > 0.
    """
    if x < 0:
        raise DomainError("defect derivative is stated for x >= 0")
    u = math.sqrt(1.0 + x * x)
    return (u - 1.0) ** 2 / ((1.0 + x * x) * (1.0 + 2.0 * u) ** 2)


@dataclass(frozen=True)
class SolverConfig:
    """Settings for the interior-minimum search.

    tolerance is a residual bound on the stationarity gap, not on x; the
    bisection is therefore insensitive to the gap's local slope.
    """

    tolerance: float = 1e-12
    max_iterations: int = 200

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ParamError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ParamError("max_iterations must be >= 1")


@dataclass(frozen=True)
class MinimumResult:
    """Located interior minimum of the family ratio."""

    x0: float
    value: float
    u: float
    residual: float


def find_interior_minimum(a: float, config: SolverConfig = SolverConfig()) -> MinimumResult:
    """Locate the unique interior minimum of the ratio for 1/2 < a < 2/pi.

    Brackets the single sign change of the stationarity gap starting from
    x = 1 (doubling upward while the gap is negative, halving downward while
    it is positive; for a near 1/2 the minimum sits below 1), then bisects until
    |gap| <= config.tolerance.
    """
    if not 0.5 < a < TWO_OVER_PI:
        raise ParamError(
            f"interior minimum exists only for 1/2 < a < 2/pi, got a={a!r}")

    gap = lambda x: stationarity_gap(a, x)
    x = 1.0
    g = gap(x)
    if g < 0:
        lo, hi = x, x
        for _ in range(config.max_iterations):
            lo, hi = hi, hi * 2.0
            if gap(hi) > 0:
                break
        else:
            raise BracketError(f"no sign change of the gap above x=1 for a={a!r}")
    elif g > 0:
        lo, hi = x, x
        for _ in range(config.max_iterations):
            lo, hi = lo / 2.0, lo
            if gap(lo) < 0:
                break
        else:
            raise BracketError(f"no sign change of the gap below x=1 for a={a!r}")
    else:
        return _finish(a, x, 0.0)

    for _ in range(config.max_iterations):
        mid = 0.5 * (lo + hi)
        g_mid = gap(mid)
        if abs(g_mid) <= config.tolerance:
            return _finish(a, mid, abs(g_mid))
        if g_mid < 0:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError(
        f"residual above {config.tolerance!r} after {config.max_iterations} bisections")


def _finish(a: float, x0: float, residual: float) -> MinimumResult:
    return MinimumResult(
        x0=x0,
        value=family_ratio(a, x0),
        u=math.sqrt(1.0 + x0 * x0),
        residual=residual,
    )


def minimum_value_closed_form(a: float, u: float) -> float:
    """(a+u)^2 / (u (1 + a u)), the ratio's minimum expressed through
    u = sqrt(1 + x0^2) > 1.  Exceeds 4a(1-a^2) for every u > 1, which is how
    the mid-regime lower bound constant arises."""
    if not u > 1:
        raise DomainError(f"u = sqrt(1+x0^2) must exceed 1, got {u!r}")
    if not 0.5 < a < TWO_OVER_PI:
        raise ParamError(
            f"closed-form minimum applies for 1/2 < a < 2/pi, got a={a!r}")
    return (a + u) ** 2 / (u * (1 + a * u))
