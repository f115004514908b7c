"""Analysis of the parameterized ratio behind the bound family.

The central object is ``family_ratio(a, x) = (a + sqrt(1+x^2)) * arctan(x) / x``
whose monotonicity in x decides which closed-form bounds hold.  The sign of
d/dx family_ratio equals sign(g) * sign(1 + a*sqrt(1+x^2)), where g is
``stationarity_gap``; :func:`~arctanbounds.catalog.prove_regime` decides the
regime from g's limits and the linear factor of its derivative.

For 1/2 < a < 2/pi the gap has a single zero, which is the unique interior
minimum of the ratio; ``find_interior_minimum`` locates it by bisecting
the gap's sign, each sign decided in fixed point past a derived error bound,
and ``minimum_value_closed_form`` gives the minimum as (a+u)^2 / (u (1+a u))
with u = sqrt(1 + x0^2).

All evaluations accept floats or :class:`~arctanbounds.fixedpoint.FixedReal`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import fixedpoint as fp
from . import oracle as orc
from .catalog import MID_REGIME_RANGE
from .errors import DomainError, ParamError, PrecisionError, SingularityError


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


#: Digits of the first fixed-point evaluation of the gap, and the most that
#: _certified_gap doubles them to.
_GAP_DIGITS = 30
_GAP_MAX_DIGITS = 480

#: Digits of the minimum's fixed-point value.  Its relative error, under
#: 10**-32 for every x0 >= 4.7e-8, cannot move the rounding to a double
#: unless the ratio lies that close to the midpoint of two doubles.
_VALUE_DIGITS = 40

#: Error bound, in units of 10**-d, of stationarity_gap(FixedReal(a, d),
#: FixedReal(x, d)) for 1/2 < a < 2/pi, x > 0, d >= 20.  With e = 10**-d,
#: A and X the unit-rounded a and x, u = sqrt(1+X^2), every operand positive,
#: so each floor lowers a value by less than e:
#:   S = 1 + X*X          in (u^2 - e, u^2]
#:   U = sqrt(S)          in (u - 1.5e, u]        (sqrt's slope is 1/2 at 1)
#:   P = 1 + A*U          in (1 + Au - 2e, 1 + Au]  (A < 0.64)
#:   N = X + X*X*X + A*X*U  n = Xu(u+A) minus [0, (2X + u + 2)e)
#:   M = S*P              m = u^2(1+Au) minus [0, 5u^2 e)
#: and the quotient floor(N/M) differs from f = n/m by N/M - n/m - [0, e),
#: where n/m - N/M <= (n-N)/M < (2X + u + 2)e/u^2 <= 5e (X < u, u >= 1) and
#: N/M - n/m <= f(m-M)/M < 5fe/(1+Au) < 6.7e, since f < 1/A and
#: 1/(A(1+A)) <= 4/3.  So |floor(N/M) - f| < 7e (to first order; e <= 1e-20
#: keeps the rest below the slack), atan_units is within 0.6e, and the
#: difference is exact: under 7.6e from g(A, X).  Rounding a and x to units
#: moves g by at most 4e/2 + 3e/2, as |dg/da| = x^3/(u(1+au)^2) < 1/a^2 <= 4
#: and |dg/dx| <= 3 (f' is a positive term at most 1 less one at most
#: 1/(au) <= 2, and arctan' <= 1).  In all under 11.1e.
_GAP_ERROR_UNITS = 12


def _certified_gap(a: float, x: float) -> fp.FixedReal:
    """stationarity_gap(a, x) in fixed point at the first precision, from
    _GAP_DIGITS doubling up to _GAP_MAX_DIGITS, where its size exceeds
    _GAP_ERROR_UNITS, so that its sign is the true gap's.  PrecisionError
    past the cap."""
    digits = _GAP_DIGITS
    while digits <= _GAP_MAX_DIGITS:
        g = stationarity_gap(fp.FixedReal(a, digits), fp.FixedReal(x, digits))
        if abs(g.units) > _GAP_ERROR_UNITS:
            return g
        digits *= 2
    raise PrecisionError(
        f"sign of the gap at a={a!r}, x={x!r} unresolved at {_GAP_MAX_DIGITS} digits")


def find_interior_minimum(a: float) -> MinimumResult:
    """Locate the unique interior minimum of the ratio for 1/2 < a < 2/pi.

    The gap is negative below the minimum and positive above it, and each of
    its signs is certified by _certified_gap.  From x = 1 the search doubles
    x while the gap is negative and halves it while it is positive until the
    sign changes (x0 runs from 4.7e-8 at the double next above 1/2 to 2.6e15
    at the one next below 2/pi), then bisects that bracket with the oracle's
    crossover bisection, to relative width 1e-13.  value is the ratio at x0
    in fixed point, rounded once to a double (the double-precision ratio
    reads one ulp above pi/2 at the double next below 2/pi).  residual is
    |gap(x0)|.
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
    x0 = orc._bisect_crossover(sign_at, lo, hi, -1)
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
