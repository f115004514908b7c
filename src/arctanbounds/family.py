"""Analysis of the parameterized ratio behind the bound family.

The central object is ``family_ratio(a, x) = (a + sqrt(1+x^2)) * arctan(x) / x``
whose monotonicity in x decides which closed-form bounds hold.  The sign of
d/dx family_ratio equals sign(g) * sign(1 + a*sqrt(1+x^2)), where g is
``stationarity_gap``; :func:`~arctanbounds.catalog.prove_regime` decides the
regime from g's limits and the linear factor of its derivative.

For 1/2 < a < 2/pi the gap has a single zero, which is the unique interior
minimum of the ratio; ``find_interior_minimum`` locates it by bisecting
the gap's sign, each sign decided in fixed point past the value's radius
(see fixedpoint.refine), and ``minimum_value_closed_form`` gives the
minimum as (a+u)^2 / (u (1+a u)) with u = sqrt(1 + x0^2).

All evaluations accept floats or :class:`~arctanbounds.fixedpoint.FixedReal`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import fixedpoint as fp
from .catalog import MID_REGIME_RANGE
from .errors import DomainError, ParamError, SingularityError


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


def stationarity_gap(a, x):
    """The sign-carrying factor of the ratio's derivative.

    g(a, x) = (x + x^3 + a x u) / ((1+x^2)(1 + a u)) - arctan x, u = sqrt(1+x^2).
    g vanishes exactly at critical points of the ratio; it tends to 0 at 0+
    and to 1/a - pi/2 at infinity, and its derivative is
    -x^2 h(u) / (u^3 (1 + a u)^2) with h(u) = (2a^2 - 1)u + a.
    """
    _check_positive(x)
    u = fp.sqrt_of(1 + x * x)
    pivot = 1 + a * u
    if pivot == 0:
        raise SingularityError(f"1 + a*sqrt(1+x^2) vanishes at a={a!r}, x={x!r}")
    return (x + x * x * x + a * x * u) / ((1 + x * x) * pivot) - fp.atan_of(x)


@dataclass(frozen=True)
class MinimumResult:
    """Located interior minimum of the family ratio."""

    x0: float
    value: float
    u: float
    residual: float


#: Digits of the minimum's fixed-point value.  Its relative error, under
#: 10**-32 for every x0 >= 4.7e-8, cannot move the rounding to a double
#: unless the ratio lies that close to the midpoint of two doubles.
_VALUE_DIGITS = 40


def _certified_gap(a: float, x: float) -> fp.FixedReal:
    """stationarity_gap(a, x) in fixed point from 30 digits, refined
    (fixedpoint.refine) until its size exceeds its radius, so that its sign
    is the true gap's.  At a double the gap is never 0: arctan x is
    transcendental (Lindemann) and the rest of the gap algebraic."""
    return fp.refine(
        lambda d: stationarity_gap(fp.FixedReal(a, d), fp.FixedReal(x, d)),
        30, lambda g: abs(g.units) > g.err,
        lambda: f"the sign of the gap at a={a!r}, x={x!r}")


def find_interior_minimum(a: float) -> MinimumResult:
    """Locate the unique interior minimum of the ratio for 1/2 < a < 2/pi.

    The gap is negative below the minimum and positive above it, and each of
    its signs is certified by _certified_gap.  From x = 1 the search doubles
    x while the gap is negative and halves it while it is positive until the
    sign changes (x0 runs from 4.7e-8 at the double next above 1/2 to 2.6e15
    at the one next below 2/pi), then bisects that bracket on the bit
    patterns of its doubles (fixedpoint._bisect_crossover), to relative
    width 1e-13.  value is the ratio at x0 in fixed point, rounded once to a
    double (the double-precision ratio reads one ulp above pi/2 at the double
    next below 2/pi).  residual is |gap(x0)|.
    """
    if not MID_REGIME_RANGE.ok(a):
        raise ParamError(
            f"interior minimum exists only for {MID_REGIME_RANGE.text}, got a={a!r}")

    sign_at = lambda x: 1 if _certified_gap(a, x).units > 0 else -1
    x, s = 1.0, sign_at(1.0)
    step = 2.0 if s < 0 else 0.5
    while sign_at(x * step) == s:
        x *= step
    lo, hi = sorted((x, x * step))
    x0 = fp._bisect_crossover(sign_at, lo, hi, -1)
    return MinimumResult(
        x0=x0,
        value=float(family_ratio(fp.FixedReal(a, _VALUE_DIGITS),
                                 fp.FixedReal(x0, _VALUE_DIGITS))),
        u=math.sqrt(1.0 + x0 * x0),
        residual=abs(float(_certified_gap(a, x0))),
    )


def minimum_value_closed_form(a: float, u: float) -> float:
    """(a+u)^2 / (u (1 + a u)), the ratio's minimum expressed through
    u = sqrt(1 + x0^2) > 1.  Exceeds 4a(1-a^2) for every u > 1, which is how
    the mid-regime lower bound constant arises."""
    if not u > 1:
        raise DomainError(f"u = sqrt(1+x0^2) must exceed 1, got {u!r}")
    if not MID_REGIME_RANGE.ok(a):
        raise ParamError(
            f"closed-form minimum applies for {MID_REGIME_RANGE.text}, got a={a!r}")
    return (a + u) ** 2 / (u * (1 + a * u))
