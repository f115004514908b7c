"""Fast arctan approximation with a certified absolute error bound.

Each call brackets arctan |x| by two members of the sharpened Shafer family
c*x/(a + sqrt(1+x^2)): one with 0 <= a <= 1/2, whose lower and upper bounds
are (1+a)x/(a+u) and (pi/2)x/(a+u), and one with a >= 2/pi, where the same
two forms swap sides.  Both members share u = hypot(1, x).  Of their four
ends, approx computes only the two that are the tighter in exact arithmetic
at x: the bracket is cut into three pieces, and each call takes its piece's
lower and upper end, at one square root and one or two divisions.  Each end
is rounded outward so that the bracket holds in the floating-point
arithmetic that computes it.  The value is the midpoint of the bracket and
the certificate is its larger distance to an end, so
|value - arctan x| <= error_bound holds exactly, with no ulp allowance.

The pair is fixed at (1/2, 2/pi), the best one at every x (see KernelSpec).
The a = 1/2 lower bound is the tighter for |x| below ~2.1758 and the a = 2/pi
one above; the a = 2/pi upper bound is the tighter for |x| below ~2.5728 and
the a = 1/2 one above, where (1 + 2/pi)(1/2 + u) = (pi/2)(2/pi + u).  These
two crossovers are the pieces' switches (_LOWER_SWITCH, _UPPER_SWITCH).  The
worst certified error on [1e-8, 1e8] is ~0.0249, at the upper crossover,
and it falls to ~1e-14 at x = 1e-4 and ~1e-5 at x = 1e4.

The error profile, the measured check of that certificate, lives in runs:
error_profile is bound from there on its first read (__getattr__).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .catalog import _DBL_MAX, _DOWN, _HALF_PI, _TINY, _UP, TWO_OVER_PI, _hypot, _new_pair
from .errors import DomainError


@dataclass(frozen=True, slots=True)
class KernelSpec:
    """The kernel's two family parameters, one from each certified regime.

    The pair is fixed because no other pair is tighter at any x.  With
    u = sqrt(1+x^2) > 1, d/da[(1+a)/(a+u)] = (u-1)/(a+u)^2 > 0 and
    (pi/2)/(a+u) falls as a grows.  So on 0 <= a <= 1/2 the lower bound
    (1+a)x/(a+u) is largest and the upper bound (pi/2)x/(a+u) smallest at
    a = 1/2, and on a >= 2/pi the lower bound (pi/2)x/(a+u) is largest and
    the upper bound (1+a)x/(a+u) smallest at a = 2/pi.
    """

    # init=False fields: no arguments.  approx does not read them: its pieces
    # are written at these two constants; profile reports them
    a_low: float = field(default=0.5, init=False)
    a_high: float = field(default=TWO_OVER_PI, init=False)


DEFAULT_KERNEL = KernelSpec()


class CertifiedValue(NamedTuple):
    """Approximation plus its certified absolute error bound, a named pair."""

    value: float
    error_bound: float


#: The switches of approx's pieces: each the two adjacent doubles (lo, hi)
#: around the exact |x| at which an end changes, the lower ends' crossover
#: and then the upper ends'.  lo still lies in the piece below, hi in the one
#: above.  tests/test_kernel.py rebuilds both from the catalog's rows.
_LOWER_SWITCH = (2.1758413981537936, 2.175841398153794)
_UPPER_SWITCH = (2.572753308123286, 2.5727533081232865)
#: From here a + u rounds to u = |x| for both a, so both quotients are 1 and
#: every |x| up to DBL_MAX has one bracket, _FAR_PAIRS.
_FAR = 2.0 ** 53
_LOWER_TOP, _UPPER_TOP = _LOWER_SWITCH[0], _UPPER_SWITCH[0]
_C_HIGH = 1.0 + TWO_OVER_PI


def approx(spec: KernelSpec, x: float) -> CertifiedValue:
    """Approximate arctan x with a certified error bound, for any finite x.

    Odd symmetry is applied exactly (computed on |x| and negated), and
    x = +-0.0 returns (x, 0).  From |x| = 2**53 the quotients are 1, and
    every x returns one pair computed at import, with the sign of x.
    Raises DomainError for an infinite or NaN x, and for an x that is not a
    double (a Fraction, say) whose double, the one the bracket is computed
    at, is 0.0 while x is not.
    """
    ax = abs(x)
    if _TINY <= ax < _FAR:
        # Each end is c * (ax / (a + u)), scaled outward as derived beside
        # _DOWN and _UP in catalog.py (gamma_7 < 16 u0); u and the quotients
        # are finite normal doubles here, so the model holds.  Each piece's
        # ends are the tighter pair in exact arithmetic at every double in it
        # (each crossover lies strictly inside its switch).
        u = _hypot(1.0, ax)
        if ax <= _LOWER_TOP:        # family-lower, reversed-upper
            lower = 1.5 * (ax / (0.5 + u)) * _DOWN
            upper = _C_HIGH * (ax / (TWO_OVER_PI + u)) * _UP
        elif ax <= _UPPER_TOP:      # reversed-lower, reversed-upper
            q = ax / (TWO_OVER_PI + u)
            lower, upper = _HALF_PI * q * _DOWN, _C_HIGH * q * _UP
        else:                       # reversed-lower, family-upper
            lower = _HALF_PI * (ax / (TWO_OVER_PI + u)) * _DOWN
            upper = _HALF_PI * (ax / (0.5 + u)) * _UP
        # value lies in [lower, upper], and upper <= 2 * lower (their ratio
        # is at most (pi/2) / 1.5), so both differences are exact by
        # Sterbenz's lemma
        value = 0.5 * (lower + upper)
        below, above = value - lower, upper - value
        return _new_pair(CertifiedValue, (-value if x < 0 else value,
                                          below if below > above else above))
    return _off_main_path(x, ax)


def _off_main_path(x: float, ax: float) -> CertifiedValue:
    """approx where |x| is below 2**-1000, from 2**53, or not finite."""
    if ax < _TINY:
        if type(x) is not float:
            # taken as its double, as catalog.enclosure takes it
            value = float(x)
            if value == 0.0 and x:
                raise DomainError(f"x={x!r} has no nonzero double: it rounds to {value!r}")
            x, ax = value, abs(value)
        # arctan x lies in [nextafter(x, 0), x]; x keeps the sign of a zero
        return _new_pair(CertifiedValue, (x, ax - math.nextafter(ax, 0.0)))
    if ax <= _DBL_MAX:
        return _FAR_PAIRS[x < 0]
    raise DomainError(f"approx needs a finite argument, got {x!r}")


def _far_pairs() -> tuple[CertifiedValue, CertifiedValue]:
    """approx from _FAR, for x > 0 and for x < 0: the last piece's bracket at
    quotients of 1, in the main path's arithmetic."""
    lower, upper = _HALF_PI * 1.0 * _DOWN, _HALF_PI * 1.0 * _UP
    value = 0.5 * (lower + upper)
    below, above = value - lower, upper - value
    bound = below if below > above else above
    return CertifiedValue(value, bound), CertifiedValue(-value, bound)


_FAR_PAIRS = _far_pairs()


def __getattr__(name: str):
    # PEP 562, as the package binds its lazy names, so that approx alone
    # compiles neither runs nor oracle; kept in globals, error_profile skips
    # this hook from then on, and can be replaced by attribute
    if name != "error_profile":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import runs
    globals()[name] = value = runs.error_profile
    return value
