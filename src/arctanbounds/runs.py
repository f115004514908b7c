"""The kernel's error over a grid, read from its monotone runs at a few rows.

kernel.error_profile loads this module on its first call, so that importing
kernel, which every approx needs, does not compile it.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Optional

from . import fixedpoint as fp
from . import kernel as ker
from . import oracle as orc
from .catalog import _TINY


# Why summary's figures are those of every row (u0 = 2**-53).  Row x has
# v and c from approx, T = arctan x, A = |v - T|, and measures M = fl(D) at d
# digits (_row_digits), D = |FixedReal(v, d) - oracle_arctan(x, d)|.  All are
# exactly odd in x: take x >= 0.
#   x = 0           v = c = 0, and the oracle returns 0: M = 0.
#   x < 2**-1000    v = x and c = x - nextafter(x, 0), which never falls as x
#                   grows; M = 0, as for d < 592 the oracle's series stops at
#                   its first term, x's own units, and for d >= 324 D < x^3/3
#                   + 1.51 * 10**-d < 2**-1075.
#   rows            the four catalog rows approx takes, family-lower and
#                   family-upper at a = 1/2, reversed-lower and reversed-upper
#                   at the double TWO_OVER_PI, hold on all of (0, inf) by proof
#                   (tests/test_kernel.py, test_each_end_holds_on_all_x): the
#                   two marked rises by their marks, the two with c = pi/2 as
#                   their slope polynomials change sign once between margins
#                   of 0 at 0+ and at inf.  A stored end is its row's bound
#                   times (1 + theta)(1 -+ 16 u0), |theta| <= gamma_7 (beside
#                   catalog._DOWN, _HALF_PI's rounding among the seven): past
#                   the row by 8.99 u0 of it.  So A <= c - g, g = min(T -
#                   lower, upper - T) >= 8.99 u0 L, L the lower.
#   exact model     elsewhere v and c lie within gamma_7 mid* < 2**-50 v of
#                   mid* and w*, the midpoint and half-width of approx's
#                   bracket in exact arithmetic at its double constants (five
#                   roundings before the max and min, which move no more than
#                   their arguments, the scaling, and the midpoint: c = (upper
#                   - lower)/2 + |v - (lower + upper)/2|, by Sterbenz).
#   runs            on each piece the slopes of e* = mid* - T and w* have the
#                   signs of polynomials in u = sqrt(1 + x^2); cut at the
#                   pieces' ends and those polynomials' roots in them
#                   (_CUTS), both are monotone on each run, and
#                   |e*| and w* peak at an end of each stretch of a run.
#   fixed point     v and x round to the nearest unit of 10**-d, the oracle to
#                   the nearest after ten guard digits: |D - A| <= 1.51 *
#                   10**-d, and M <= D (1 + u0), or D + 2**-1075.
# With meas = 2 * 10**-digits + 2**-1074 >= 1.51 * 10**-d, and a run's slack
# 2**-47 v at its largest v, above 2**-50 v and every sum's rounding:
#   (1) M <= fl(c + meas); |e*| <= c + slack, or M (1 + 2**-52) + meas + slack.
#   (2) M <= c (D <= c, a double) where 1.51 * 10**-d <= g: at extra digits,
#       where that is at most 1.51e-18 c and c < 0.05 L, and for x >= meas *
#       2**50 (<= 2.3e-5), where both lower rows rise and exceed 0.95 x.  Rows
#       below it at the report's digits (x from 9e-6 at 20 digits) are measured.
#   (3) for x > 10**(d+10) the oracle's reciprocal floors to 0: it returns
#       pi/2's units, and rows there of one v and d tie.
# A measured row its certificate does not cover breaks a premise: the profile
# is then read from every row.


#: The runs derived above, for the kernel's one spec.  Its bracket is
#: (family-lower, reversed-upper) up to the crossover of its lower ends, then
#: (reversed-lower, reversed-upper) up to that of its upper ends, then
#: (reversed-lower, family-upper).  _CUTS brackets in x those crossovers and
#: the one root of a slope of e* or w* inside a piece, e*'s peak.
#: tests/test_kernel.py rebuilds it from the pieces with algebra.Comparison.
_CUTS = ((2.1758413981537936, 2.175841398153794), (2.572753308123286, 2.5727533081232865),
         (2.784292734339491, 2.7842927343394916))


def _run_max(lo: int, hi: int, best: float, read, slack: float) -> float:
    """The largest of best and the values of rows lo..hi-1 of a run where f
    is monotone: read(k, best) gives row k's value (0.0 if it cannot exceed
    best) and a bound of f there; a value is at most f plus slack.  Reads
    the ends, then inward while a row between could exceed best."""
    i, j = lo, hi - 1
    value, top_j = read(j, best)
    best = max(best, value)
    value, top_i = read(i, best) if i < j else (value, top_j)
    best = max(best, value)
    while j - i > 1 and max(top_i, top_j) + slack > best:
        if top_i >= top_j:
            i += 1
            value, top_i = read(i, best)
        else:
            j -= 1
            value, top_j = read(j, best)
        best = max(best, value)
    return best


def summary(spec: ker.KernelSpec, grid: orc.GridSpec, digits: int) -> Optional[tuple]:
    """(max_certified, max_actual, certified_everywhere, exact_rows,
    extra_digit_rows) of the kernel over a grid, those of every row, or None
    where a measured row's certificate does not cover it.  The rows of each
    sign, as |x|, are cut into the kernel's monotone runs (_CUTS), each read
    from its ends inward while a row between could exceed the largest value:
    certificates with approx, actual errors in fixed point."""
    xs = grid.values()
    zeros, positive = orc._cut(xs, 0.0), orc._cut(xs, 0.0, right=True)
    # each sign's rows as |x| in increasing order; a grid of positive rows as it is
    sides = [xs] if not positive else [side for side in (
        tuple(-x for x in reversed(xs[:zeros])), xs[positive:]) if side]
    estimate = lru_cache(maxsize=None)(partial(ker.approx, spec))
    meas = 2 * 10.0 ** -digits + 2.0 ** -1074
    actuals, measured = {}, {}
    max_cert = max_actual = 0.0     # rows at 0 have c = M = 0, and below 2**-1000 M = 0
    runs = []           # (side, lo, hi, slack) of each run from 2**-1000
    for side in sides:
        main = orc._cut(side, _TINY)
        if main:
            max_cert = max(max_cert, estimate(side[main - 1]).error_bound)
        bounds = [main, *(max(main, orc._cut(side, hi)) for _, hi in _CUTS), len(side)]
        runs += [(side, lo, hi, 2.0 ** -47 * estimate(side[hi - 1]).value)
                 for lo, hi in zip(bounds, bounds[1:]) if lo < hi]

    def measure(x: float) -> float:
        # once per key: by (3), far rows of one value and digits share one
        value, c = estimate(x)
        d = ker._row_digits(c, digits)
        key = (value, d, None if x > fp.pow10(d + 10) else x)
        if key not in actuals:
            actuals[key] = measured[x] = ker._actual(x, value, d)
        return actuals[key]

    def actual(side, slack, k: int, best: float) -> tuple[float, float]:    # by (1)
        c = estimate(side[k]).error_bound
        if c + meas <= best:
            return 0.0, c + slack
        m = measure(side[k])
        return m, min(c, m * (1.0 + 2.0 ** -52) + meas) + slack

    for side, lo, hi, slack in runs:
        max_cert = _run_max(lo, hi, max_cert, lambda k, best: (
            c := estimate(side[k]).error_bound, c + slack), slack)
        max_actual = _run_max(lo, hi, max_actual, partial(actual, side, slack), slack + meas)
    # (2): the rows below meas * 2**50 at the report's digits
    threshold, open_below = 10.0 ** (3 - digits), meas * 2.0 ** 50
    for side, lo, hi, slack in runs:
        stop = min(hi, orc._cut(side, open_below))
        if lo < stop and max(estimate(side[lo]).error_bound,
                             estimate(side[stop - 1]).error_bound) + 2 * slack >= threshold:
            for x in side[lo:stop]:
                if estimate(x).error_bound >= threshold:
                    max_actual = max(max_actual, measure(x))
    if any(m > estimate(x).error_bound for x, m in measured.items()):
        return None
    return (max_cert, max_actual, True, len(measured),
            sum(ker._row_digits(estimate(x).error_bound, digits) != digits for x in measured))
