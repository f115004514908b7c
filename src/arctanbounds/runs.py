"""The kernel's error over a grid, read from its monotone runs at a few rows.

kernel.error_profile loads this module on its first call, so that importing
kernel, which every approx needs, does not compile it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache, partial
from typing import NamedTuple, Optional

from . import catalog as cat
from . import fixedpoint as fp
from . import kernel as ker
from . import oracle as orc
from .catalog import _DOWN, _HALF_PI, _TINY, _UP, TWO_OVER_PI


# Why summary's figures are those of every row (u0 = 2**-53).  Row x has
# v and c from approx, T = arctan x, A = |v - T|, and measures M = fl(D) at d
# digits (_row_digits), D = |FixedReal(v, d) - oracle_arctan(x, d)|.  All are
# exactly odd in x: take x >= 0.
#   x = 0           v = c = 0, and the oracle returns 0: M = 0.
#   x < 2**-1000    v = x and c = x - nextafter(x, 0), which never falls as x
#                   grows; M = 0, as for d < 592 the oracle's series stops at
#                   its first term, x's own units, and for d >= 324 D < x^3/3
#                   + 1.51 * 10**-d < 2**-1075.
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
#   bracket         a stored end is its catalog row's bound times (1 + theta)
#                   (1 -+ 16 u0), |theta| <= gamma_7 (beside catalog._DOWN,
#                   _HALF_PI's rounding among the seven): past the row by 8.99
#                   u0 of it.  Where the rows approx takes hold at x, A <= c -
#                   g, g = min(T - lower, upper - T) >= 8.99 u0 L, L the lower.
#   selection       approx compares its two lower (upper) ends, each within
#                   gamma_5 of the model's, whose ratio is monotone in u with
#                   slope 0.0157 (0.0123) at the crossover: beyond 1e-13 of it
#                   approx takes the model's end.  So each end is read over
#                   its pieces widened by a relative 2**-30, at the end of each
#                   monotone piece of its margin where the margin is smallest.
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
# A catalog row that fails, or a measured row its certificate does not cover,
# breaks a premise: the profile is then read from every row.


class _End(NamedTuple):
    """approx's c * (x / (a + u)) * scale: `bound` at `a` rounded outward."""

    bound: cat.BoundId
    a: float
    c: float
    scale: float


#: The runs derived above, for the kernel's one spec.  Its bracket is
#: (family-lower, reversed-upper) up to the crossover of its lower ends, then
#: (reversed-lower, reversed-upper) up to that of its upper ends, then
#: (reversed-lower, family-upper).  _CUTS brackets in x those crossovers and
#: the one root of a slope of e* or w* inside a piece, e*'s peak; _REACH
#: spans each end's pieces, widened by a relative 2**-30 (selection).
#: tests/test_kernel.py rebuilds both from the pieces with algebra.Comparison.
_CUTS = ((2.1758413981537936, 2.175841398153794), (2.572753308123286, 2.5727533081232865),
         (2.784292734339491, 2.7842927343394916))
_REACH = ((_End(cat.BoundId.FAMILY_LOWER, 0.5, 1.5, _DOWN), 0.0, 2.175841400180204),
          (_End(cat.BoundId.REVERSED_UPPER, TWO_OVER_PI, 1.0 + TWO_OVER_PI, _UP),
           0.0, 2.57275331051935),
          (_End(cat.BoundId.REVERSED_LOWER, TWO_OVER_PI, _HALF_PI, _DOWN),
           2.1758413961273835, math.inf),
          (_End(cat.BoundId.FAMILY_UPPER, 0.5, _HALF_PI, _UP), 2.5727533057272227, math.inf))


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


def _ends_hold(xs: Sequence[float], main: int, digits: int, checked: dict) -> bool:
    """Whether each catalog row approx takes lies strictly on its side of
    arctan at the rows main.. of xs (|x|, increasing) in its reach, read where
    each monotone piece of its margin is smallest; checked keeps them.  A
    row the catalog marks rises (family-lower and reversed-upper, c = 1 + a
    = d + e) needs no reading: its margin rises from M(0+) = 0, as c / (d +
    e) = 1, so it is positive on all of (0, inf)."""
    for end, lo, hi in _REACH:
        if cat._CATALOG[end.bound].rises:
            continue
        first, stop = max(main, orc._cut(xs, lo)), orc._cut(xs, hi, right=True)
        for i, j, slope in orc._monotone_pieces(end.bound, end.a, xs, digits) if first < stop else ():
            i, j = max(i, first), min(j, stop)
            x = xs[i if slope >= 0 else j - 1] if i < j else None
            if x is not None and (end, x) not in checked:
                bound, oracle = fp.refine(
                    lambda d: (cat.eval_bound_hp(end.bound, x, end.a, digits=d),
                               orc._oracle_at(x, d)),
                    digits, fp.separated, lambda: f"{end.bound.value} at x={x!r}")
                checked[end, x] = (oracle.units > bound.units) == (end.scale < 1.0)
                if not checked[end, x]:
                    return False
    return True


def summary(spec: ker.KernelSpec, grid: orc.GridSpec, digits: int) -> Optional[tuple]:
    """(max_certified, max_actual, certified_everywhere, exact_rows,
    extra_digit_rows) of the kernel over a grid, those of every row, or None
    where a premise of the argument above fails.  The rows of each sign, as
    |x|, are cut into the kernel's monotone runs (_CUTS), each read from its
    ends inward while a row between could exceed the largest value:
    certificates with approx, actual errors in fixed point."""
    xs = grid.values()
    zeros, positive = orc._cut(xs, 0.0), orc._cut(xs, 0.0, right=True)
    # each sign's rows as |x| in increasing order; a grid of positive rows as it is
    sides = [xs] if not positive else [side for side in (
        tuple(-x for x in reversed(xs[:zeros])), xs[positive:]) if side]
    estimate = lru_cache(maxsize=None)(partial(ker.approx, spec))
    meas = 2 * 10.0 ** -digits + 2.0 ** -1074
    checked, actuals, measured = {}, {}, {}
    max_cert = max_actual = 0.0     # rows at 0 have c = M = 0, and below 2**-1000 M = 0
    runs = []           # (side, lo, hi, slack) of each run from 2**-1000
    for side in sides:
        main = orc._cut(side, _TINY)
        if main:
            max_cert = max(max_cert, estimate(side[main - 1]).error_bound)
        if not _ends_hold(side, main, digits, checked):
            return None
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
