"""arctan in plain doubles, with a proven relative error bound.

``fast_atan(x)`` serves the filter of an error profile, which needs a
double near arctan x with a known error at every row, not a correctly
rounded one.  It reduces the argument by
a table (Muller et al., *Handbook of Floating-Point Arithmetic*, 2018):

1. for x > 1, arctan x = pi/2 - arctan(1/x), with pi/2 the pair of doubles
   _HALF_PI_HI + _HALF_PI_LO;
2. t = x or 1/x lies in (0, 1].  Below 1/64 the knot is j = 0; otherwise j
   is the knot j/64 nearest to t, and arctan t = arctan(j/64) + arctan(t')
   with t' = (64t - j)/(64 + jt), |t'| <= 1/128;
3. arctan(t') by its odd Taylor polynomial to degree 9, by Horner's rule in
   t'^2.

The 65 knot values arctan(j/64) are fixedpoint._atan_table at _WORK digits,
each rounded once to the nearest double, and pi/2 = 2*arctan(1) is split
from the same table, so the module brings no constant of its own beyond the
polynomial's 1/k.  They are computed when the module is first imported,
which the first profile does, so importing the package does not pay for
them.

For every double x > 0, subnormals and DBL_MAX included, |fast_atan(x) -
arctan x| <= K u fast_atan(x), with u = 2**-53 and K = FAST_ATAN_K, derived
below (and fast_atan(0) = 0).
"""

from __future__ import annotations

from fractions import Fraction

from . import fixedpoint as fp

# The error bound, in the style of catalog.py's gamma_n table.  Each correctly
# rounded operation on normal doubles returns (exact)(1 + d), |d| <= u, and
# 64t is exact.  The derivation first takes 2**-500 <= x <= 2**500: there
# t >= 2**-500 and t*t >= 2**-1000 are normal; only r*s and its product with
# h can be subnormal, for t below 2**-340, and there their absolute error
# 2**-1075 is below 2**-500 u |r|, too small to move any figure below.  d, e
# and theta are each a new rounding error below.
#
#   the constants     _KNOTS[j] = A_j(1 + d) with A_j = arctan(j/64): the
#                     table is within 26*_WORK + 192 units of 10**-_WORK
#                     (fixedpoint._atan_table), far below u A_1 = 1.7e-18.
#                     |_HALF_PI_HI + _HALF_PI_LO - pi/2| <= u |_HALF_PI_LO|
#                     < 1e-32.  _C3.._C9 are -1/3, 1/5, -1/7, 1/9 each (1 + d).
#   the knot          64t + 1/2 is exact but where it reaches a power of two,
#                     which it then rounds to: j = int(64t + 1/2) is nearest
#                     to 64t, and 64t - j is exact (Sterbenz: j/2 <= 64t <= 2j).
#   t' (j >= 1)       j*t, then 64 + j*t: jt <= 64, so the product's rounding
#                     moves the sum by at most u/2 of it; then the sum and the
#                     quotient round: the computed r is t'(1 + e),
#                     |e| <= 2.501u.  At j = 0, r = t exactly and |r| < 1/64.
#   the polynomial    s = r*r <= 2**-12.  The inner Horner sum h is H(1 + e),
#                     |e| <= 2.1u, H = -1/3 + s/5 - s^2/7 + s^3/9 (its
#                     coefficient rounding, its own last sum and the s-terms,
#                     2**-12 smaller); (r*s)*h, three roundings and h's, is
#                     within 5.2u * 2**-12/3 |r| < 0.0005u |r| of r^3 H; the tail
#                     of the series past r^9/9 is below r^11/11 < 0.0008u |r|;
#                     the last sum rounds once: p is within 1.002u |arctan r|
#                     of arctan r (|r| <= (1 + r^2/3)|arctan r|).
#   x <= 1, j = 0     fast_atan = p: K_t = 1.002.
#   x <= 1, j >= 1    P = arctan t' and v = fl(_KNOTS[j] + p).  Then
#                     |p - P| <= (1.002 + 2.501)u |P| (arctan is 1-Lipschitz),
#                     and |v - arctan t| <= u(A_j + 3.504|P| + arctan t)(1 + u).
#                     With rho = |P| / arctan t: for P >= 0, A_j <= arctan t
#                     and, as arctan is concave (arctan t >= t/(1 + t^2)),
#                     rho <= (t - j/64)/t * (1 + t^2)/(1 + (j/64)^2) <=
#                     1.016/(2j + 1); for P < 0, A_j = arctan t + |P| and
#                     rho <= (j/64 - t)/t <= 1/(2j - 1).
#                     So K_t <= 2 + 2.504 rho <= 2.85 (P >= 0), and
#                     K_t <= 2 + 4.504 rho <= 3.502 (P < 0, j >= 2).
#   x > 1             t = fl(1/x) moves arctan by at most u y/(1 + y^2)(1 + 2u)
#                     <= u V (1 + 2u), y = 1/x and V = arctan y (y/(1 + y^2) <=
#                     arctan y), so v is within (K_t + 1)u V (1 + 5u) of V.
#                     Then fl(fl(_HALF_PI_HI - v) + _HALF_PI_LO)
#                     rounds twice more, each by at most u R (1 + 6u), R =
#                     arctan x = pi/2 - V >= V: K <= 2 + (K_t + 1) V/R + 10u.
#                     V/R <= arctan(tmax)/(pi/2 - arctan(tmax)) over knot j's
#                     t <= tmax = min(1, (j + 1/2)/64) grows with j faster than
#                     K_t falls: the largest bound is at j = 64, where P <= 0,
#                     K_t <= 2 + 4.504/127 and K <= 5.036 (at j = 2, 2.115).
#   x < 2**-500       subnormals included: t = r = x, s = fl(r*r) <= 2**-1000
#                     and r*s < 2**-1500 rounds to 0, so p = r + -0 = r and
#                     fast_atan(x) = 0.0 + p = x exactly, within x^3/3 <
#                     2**-1000 x of arctan x: K < 2**-1000.
#   x > 2**500        t = fl(1/x) < 2**-500 (1/x is subnormal from x = 2**1022,
#                     and fl(1/DBL_MAX) = 2**-1024 is finite), so v = t as
#                     above, and v lies within 2**-1075 + u/x + 1/(3x^3) <
#                     2**-550 of V = arctan(1/x).  _HALF_PI_HI - v rounds to
#                     _HALF_PI_HI (v is far below half its ulp, 2**-53), and
#                     so does its sum with _HALF_PI_LO (|_HALF_PI_LO| < 6.2e-17):
#                     fast_atan(x) = _HALF_PI_HI, within |pi/2 - _HALF_PI_HI|
#                     + V < 0.36u R of R = arctan x.
# So the error is at most 5.036u of arctan x, and 5.036u/(1 - 5.036u) of
# fast_atan(x); FAST_ATAN_K rounds that up with room.

#: |fast_atan(x) - arctan x| <= FAST_ATAN_K * 2**-53 * fast_atan(x) for
#: every double x > 0.
FAST_ATAN_K = 5.25

#: Digits of the fixed-point table the constants are rounded from.
_WORK = 40


def _constants() -> tuple[tuple[float, ...], float, float]:
    table = fp._atan_table(_WORK)
    scale = fp.pow10(_WORK)
    knots = tuple(units / scale for units in table)    # big-int division rounds once
    half_pi = Fraction(2 * table[-1], scale)
    hi = float(half_pi)
    return knots, hi, float(half_pi - Fraction(hi))


_KNOTS, _HALF_PI_HI, _HALF_PI_LO = _constants()
_C3, _C5, _C7, _C9 = -1 / 3, 1 / 5, -1 / 7, 1 / 9


def fast_atan(x: float) -> float:
    """arctan x for every double x > 0, within FAST_ATAN_K * 2**-53 of the
    result, relatively."""
    t = 1.0 / x if x > 1.0 else x
    if t < 0.015625:
        r, knot = t, 0.0
    else:
        j = int(t * 64.0 + 0.5)
        r, knot = (t * 64.0 - j) / (64.0 + j * t), _KNOTS[j]
    s = r * r
    v = knot + (r + r * s * (_C3 + s * (_C5 + s * (_C7 + s * _C9))))
    return (_HALF_PI_HI - v) + _HALF_PI_LO if x > 1.0 else v
