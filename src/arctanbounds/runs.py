"""The kernel's error over a grid, read from its monotone runs at a few rows.

kernel.error_profile loads this module on its first call, so that importing
kernel, which every approx needs, does not compile it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache, partial
from typing import Optional

from . import kernel as ker
from . import oracle as orc
from .catalog import _TINY


# Why summary's figures are those of every row (u0 = 2**-53).  Row x has
# v and c from approx, T = arctan x, A = |v - T|, and measures M = fl(A),
# the exact A rounded once (kernel._actual, by fixedpoint.settle).  All are
# exactly odd in x: take x >= 0.
#   x = 0           v = c = T = 0: M = 0.
#   x < 2**-1000    v = x and c = x - nextafter(x, 0), which never falls as x
#                   grows; A < x^3/3 < 2**-1075: M = 0.
#   rows            the four catalog rows approx takes, family-lower and
#                   family-upper at a = 1/2, reversed-lower and reversed-upper
#                   at the double TWO_OVER_PI, hold on all of (0, inf) by proof
#                   (tests/test_kernel.py, test_each_end_holds_on_all_x): the
#                   two marked rises by their marks, the two with c = pi/2 as
#                   their slope polynomials change sign once between margins
#                   of 0 at 0+ and at inf.  Rounded outward, approx's ends
#                   bracket T, and c = max(v - lower, upper - v) exactly (by
#                   Sterbenz): A <= c, and as c is a double, M <= c.
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
# With a run's slack 2**-47 v at its largest v, above 2**-50 v, the 2**-1075
# a subnormal M may lie from A, and every sum's rounding:
#   (1) M <= c; |e*| <= c + slack, or M (1 + 2**-52) + slack.
#   (2) from 2**53 (_FAR) a + u rounds to u = x, so approx's quotients are 1
#       and every row has one v and c; A = |v - T|, T rising, falls then
#       rises, so the largest M of the rows of one v is at the first or the
#       last.  Those two are read there, the runs below.
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
#: Where the rows of one value start, (2).
_FAR = 2.0 ** 53


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
    from its ends inward while a row between could exceed the largest value,
    and from _FAR into the one stretch of one value, read at its ends:
    certificates with approx, actual errors in fixed point."""
    xs = grid.values()
    zeros, positive = bisect_left(xs, 0.0), bisect_right(xs, 0.0)
    # each sign's rows as |x| in increasing order; a grid of positive rows as it is
    sides = [xs] if not positive else [side for side in (
        tuple(-x for x in reversed(xs[:zeros])), xs[positive:]) if side]
    estimate = lru_cache(maxsize=None)(partial(ker.approx, spec))
    measured = {}       # |x|: (M, the digits that settled it)
    max_cert = max_actual = 0.0     # rows at 0 have c = M = 0, and below 2**-1000 M = 0
    runs = []           # (side, lo, hi, slack) of each run from 2**-1000 to _FAR
    far = []            # the ends of each side's rows from _FAR
    for side in sides:
        main, top = bisect_left(side, _TINY), bisect_left(side, _FAR)
        if main:
            max_cert = max(max_cert, estimate(side[main - 1]).error_bound)
        if top < len(side):
            far += [side[top], side[-1]]
        bounds = [main, *(bisect_left(side, hi) for _, hi in _CUTS), top]
        runs += [(side, lo, hi, 2.0 ** -47 * estimate(side[hi - 1]).value)
                 for lo, hi in zip(bounds, bounds[1:]) if lo < hi]

    def measure(x: float) -> float:
        if x not in measured:
            measured[x] = ker._actual(x, estimate(x).value, digits)
        return measured[x][0]

    def actual(side, slack, k: int, best: float) -> tuple[float, float]:    # by (1)
        c = estimate(side[k]).error_bound
        if c <= best:
            return 0.0, c + slack
        m = measure(side[k])
        return m, min(c, m * (1.0 + 2.0 ** -52)) + slack

    for side, lo, hi, slack in runs:
        max_cert = _run_max(lo, hi, max_cert, lambda k, best: (
            c := estimate(side[k]).error_bound, c + slack), slack)
        max_actual = _run_max(lo, hi, max_actual, partial(actual, side, slack), slack)
    for x in far:       # by (2)
        c = estimate(x).error_bound
        max_cert = max(max_cert, c)
        if c > max_actual:
            max_actual = max(max_actual, measure(x))
    if any(m > estimate(x).error_bound for x, (m, _) in measured.items()):
        return None
    return (max_cert, max_actual, True, len(measured),
            sum(d > digits for _, d in measured.values()))
