"""The kernel's error over a grid, read from its monotone runs at a few rows.

kernel.error_profile is this module's, bound there on its first read, so
that importing kernel, which every approx needs, compiles neither this
module nor oracle.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Optional

from . import fixedpoint as fp
from . import kernel as ker
from . import oracle as orc
from .catalog import _TINY
from .kernel import _FAR, _LOWER_SWITCH, _UPPER_SWITCH


# Why summary's figures are those of every row (u0 = 2**-53).  Row x has
# v and c from approx, T = arctan x, A = |v - T|, and measures M = fl(A),
# the exact A rounded once (_actual, by fixedpoint.settle).  All are
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
#                   roundings in each end, the scaling, and the midpoint: c =
#                   (upper - lower)/2 + |v - (lower + upper)/2|, by Sterbenz).
#                   approx takes its ends from the piece x lies in, cut at the
#                   switches (kernel._LOWER_SWITCH, _UPPER_SWITCH), and each
#                   crossover lies strictly inside its switch: at every double
#                   approx's bracket is the exact model's piece.
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
#: (reversed-lower, family-upper).  _CUTS brackets in x those crossovers,
#: approx's own switches, and the one root of a slope of e* or w* inside a
#: piece, e*'s peak.  tests/test_kernel.py rebuilds it from the pieces with
#: algebra.Comparison.
_CUTS = (_LOWER_SWITCH, _UPPER_SWITCH, (2.784292734339491, 2.7842927343394916))


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
    estimate = lru_cache(maxsize=None)(partial(ker.approx, spec))
    measured = {}       # |x|: (M, the digits that settled it)
    max_cert = max_actual = 0.0     # rows at 0 have c = M = 0, and below 2**-1000 M = 0
    runs = []           # (at, lo, hi, slack) of each run from 2**-1000 to _FAR
    far = []            # the ends of each side's rows from _FAR
    # each sign's n rows as |x| in increasing order, at(k) the k-th, read
    # from the grid when needed: a profile reads a few rows of either sign
    for at, n in ((lambda k: -xs[zeros - 1 - k], zeros),
                  (lambda k: xs[positive + k], len(xs) - positive)):
        bounds = [bisect_left(range(n), v, key=at)
                  for v in (_TINY, *(hi for _, hi in _CUTS), _FAR)]
        main, top = bounds[0], bounds[-1]
        if main:
            max_cert = max(max_cert, estimate(at(main - 1)).error_bound)
        if top < n:
            far += [at(top), at(n - 1)]
        runs += [(at, lo, hi, 2.0 ** -47 * estimate(at(hi - 1)).value)
                 for lo, hi in zip(bounds, bounds[1:]) if lo < hi]

    def measure(x: float) -> float:
        if x not in measured:
            measured[x] = _actual(x, estimate(x).value, digits)
        return measured[x][0]

    def actual(at, slack, k: int, best: float) -> tuple[float, float]:    # by (1)
        c = estimate(at(k)).error_bound
        if c <= best:
            return 0.0, c + slack
        m = measure(at(k))
        return m, min(c, m * (1.0 + 2.0 ** -52)) + slack

    for at, lo, hi, slack in runs:
        max_cert = _run_max(lo, hi, max_cert, lambda k, best: (
            c := estimate(at(k)).error_bound, c + slack), slack)
        max_actual = _run_max(lo, hi, max_actual, partial(actual, at, slack), slack)
    for x in far:       # by (2)
        c = estimate(x).error_bound
        max_cert = max(max_cert, c)
        if c > max_actual:
            max_actual = max(max_actual, measure(x))
    if any(m > estimate(x).error_bound for x, (m, _) in measured.items()):
        return None
    return (max_cert, max_actual, True, len(measured),
            sum(d > digits for _, d in measured.values()))


@dataclass(frozen=True)
class ProfileRow:
    x: float
    value: float
    certified: float
    actual: float
    ratio: float


def _actual(x: float, value: float, digits: int) -> tuple[float, int]:
    """|value - arctan x| rounded once to a double, and the digits that
    settled it (fixedpoint.settle, from `digits` at least)."""
    if not x:
        return 0.0, digits      # value = arctan 0 = 0
    (actual,), d = fp.settle(
        lambda d: (abs(fp.FixedReal(value, d) - orc.oracle_arctan(x, d)),), abs(x),
        lambda: f"the kernel's error at x={x!r}", digits)
    return actual, d


def _measure_rows(spec: ker.KernelSpec, grid: orc.GridSpec,
                  digits: int) -> tuple[list[ProfileRow], int]:
    """Every row of the grid, measured in fixed point, and how many of them
    settled above `digits`."""
    rows, extra = [], 0
    for x in grid.values():
        est = ker.approx(spec, x)
        actual, d = _actual(x, est.value, digits)
        extra += d > digits
        ratio = math.inf if actual == 0.0 else est.error_bound / actual
        rows.append(ProfileRow(x, est.value, est.error_bound, actual, ratio))
    return rows, extra


@dataclass(frozen=True)
class ErrorProfile:
    """Certified versus measured error of a kernel over a grid.

    A row's `actual` is the exact |value - arctan x| rounded once to a
    double (_actual), settled in fixed point from `digits`, or 30 + 2
    ceil|log10 x| if more.  `ratio` is certified / actual, so ratio >= 1
    everywhere is the certification property.  `rows` measures every row
    when first read.  The summary is what every row gives (summary), read at
    exact_rows |x| in fixed point, extra_digit_rows of them settled above
    `digits`.
    """

    spec: ker.KernelSpec
    grid: orc.GridSpec
    digits: int
    max_certified: float
    max_actual: float
    certified_everywhere: bool
    exact_rows: int
    extra_digit_rows: int

    @cached_property
    def rows(self) -> list[ProfileRow]:
        """Every row, measured in fixed point when first read."""
        return _measure_rows(self.spec, self.grid, self.digits)[0]

    def write_csv(self, stream: io.TextIOBase) -> None:
        writer = csv.writer(stream)
        writer.writerow(["x", "value", "certified", "actual", "ratio"])
        for r in self.rows:
            writer.writerow([r.x, r.value, r.certified, r.actual, r.ratio])

    def to_json_dict(self) -> dict:
        return {
            "a_low": self.spec.a_low,
            "a_high": self.spec.a_high,
            "digits": self.digits,
            "grid": self.grid.to_json_dict(),
            "max_certified": self.max_certified,
            "max_actual": self.max_actual,
            "certified_everywhere": self.certified_everywhere,
        }


def error_profile(spec: ker.KernelSpec, grid: orc.GridSpec = orc.DEFAULT_GRID,
                  digits: int = orc.DEFAULT_DIGITS) -> ErrorProfile:
    """Certified and actual error of the kernel over a grid.

    `digits`, at least 20 as for the oracle, are the digits each row's
    measurement starts at; the value it settles to does not depend on them.
    The summary is read from the kernel's monotone runs (summary), and where
    a measured row's certificate does not cover it, from every row.
    """
    orc.check_digits(digits, "error profile")
    found = summary(spec, grid, digits)
    if found is None:
        return _from_rows(spec, grid, digits)
    return ErrorProfile(spec, grid, digits, *found)


def _from_rows(spec: ker.KernelSpec, grid: orc.GridSpec, digits: int) -> ErrorProfile:
    """The profile read from every row, which it keeps as its rows."""
    rows, extra = _measure_rows(spec, grid, digits)
    profile = ErrorProfile(spec, grid, digits, max(r.certified for r in rows),
                           max(r.actual for r in rows), all(r.ratio >= 1.0 for r in rows),
                           len(rows), extra)
    vars(profile)["rows"] = rows        # where the cached property keeps them
    return profile
