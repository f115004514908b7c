"""High-precision arctan reference and the grid-sweep verification engine.

The oracle evaluates arctan in integer fixed point (argument reduction plus
an alternating Taylor series, see :mod:`arctanbounds.fixedpoint`), as a
ball within two units of ``10**-digits`` of arctan at the exact double.

A sweep checks a catalog bound against arctan at every grid point, after
checking that the grid's first point, its smallest, is positive.  Every
verdict is the true one at the exact double x, and it comes from the
monotone pieces of the margin M (arctan minus the bound for a lower bound,
the bound minus arctan for an upper one; positive where the bound holds).
The five one-offs' M rises on all of (0, inf): M' is 2x^2/(1+x^2)^2
(ratio), x^2/(1+x^2) (identity), x^4/(1+x^2) (cubic), ln(1+x^2)/(2x^2)
(log-lower) and ln(1+x) + x^2/(1+x^2) (log-upper).  For a shape row
c x/(d + e u), u = sqrt(1 + x^2), M' has the sign of +-Q(u),
Q(u) = (d + e u)^2 - c u (d u + e), built from the row's own consts(a, pi)
in Q[pi] and cut at its roots by :mod:`arctanbounds.algebra`'s isolator.
The grid is cut at the brackets of those roots and at x = 1, where the
reported margin changes (below).

On each piece the fixed-point path (``eval_bound_hp``, the catalog entry's
closed form on FixedReal balls, against the oracle's ball) evaluates M at
the two ends.  There a point is decided where the two centres lie further
apart than the two radii, at the sweep's digits or at twice them and so
on (see fixedpoint.refine).  M being monotone, its violations are one run
at one end of the piece, found from the ends' signs and between them by
bisection on exact signs; a violation's fixed-point bound is computed again
only when the report's listing is read.  The smallest reported margin of a
piece lies at an end for x <= 1, and above it where M > 0 falls or M <= 0
rises, since arctan rises; on a falling piece the run of points that share
the end's double is bisected to its first point.  On the other pieces above
x = 1, M(p)/arctan(q) (or M(q)/arctan(p)) from the balls at the ends p and
q bounds every ratio below, and the piece is skipped where that bound
clears the smallest margin found.  Otherwise its points are read in the
double filter: the bound's float form is subtracted from arctan in plain
doubles (:mod:`arctanbounds.fastatan`, within a proven relative
5.25 * 2**-53 of arctan at every positive double, shared by the pieces
that span the same points), and the margin m is settled when it exceeds a
proven error bound E, or lies below -E (the adaptive filter of Shewchuk,
1997): the float form's own rounding error (from the catalog), the error
of the double arctan and the rounding of the subtraction.  The filter
evaluates in fixed point the
points it cannot settle (where a float form or its error bound is not
finite, x*x overflowing from x = 2**512) and those whose interval
m -+ 2E could still reach the minimum.  A tangency (M -> 0 at 0 or at
infinity) falls in a piece whose minimum is an end, so no point near one
reaches the filter.  The fixed-point oracle is computed at the points
evaluated and at the violations listed, one point at a time and cached by
point and digits.  So verdicts are the exact ones, and min_margin lies
within its point's two radii of the smallest exact margin.  On the default
grid and suite 147 of the 300,000 point checks reach fixed point, 4 to 7
per entry, and the filter reads 99 points, all of the errata's.

A dominance report gives every grid point the exact sign of the difference
of two bounds.  For two rows without a log it is the sign of a polynomial
in u = sqrt(1 + x^2) with coefficients in Q[pi] (see
:mod:`arctanbounds.algebra`): its roots, each bracketed by two doubles, cut
the grid, which is read by bisection, with no pass over its points and no
fixed-point evaluation; a crossover is the double nearest a root where the
sign changes.  A pair with a log row decides the sign with the sweep's
double filter, the second bound taking the oracle's place, and elsewhere on
the two rows' fixed-point balls decided past both radii as a sweep decides
a point (see fixedpoint.refine); it bisects each crossover on the bit
patterns of the two doubles, to a relative width of 1e-13 at any magnitude.

Margins are reported absolutely for x <= 1 and relative to the oracle for
x > 1 (both arctan and every bound vanish linearly at 0 and level off at
pi/2, so one convention cannot serve both ends of the grid).  A positive
margin that rounds to 0.0 raises DomainError, as a bound or margin that
overflows does, so a report is clean exactly when min_margin > 0; the
error names the first grid point that raises one.
"""

from __future__ import annotations

import math
import operator
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

from . import catalog as cat
from . import fixedpoint as fp
from .catalog import DEFAULT_DIGITS, DEFAULT_SWEEP_DIGITS
from .errors import ArctanBoundsError, DomainError, ParamError


def check_digits(digits: int, what: str) -> None:
    """Raise ParamError, naming `what`, unless 20 <= digits <= MAX_DIGITS:
    the fewest the oracle takes, and the most that fixedpoint.refine does."""
    if not 20 <= digits <= fp.MAX_DIGITS:
        raise ParamError(f"{what} needs at least 20 digits and at most {fp.MAX_DIGITS}")


def oracle_arctan(x: float, digits: int = DEFAULT_DIGITS) -> fp.FixedReal:
    """arctan of the exact value of the double x, to `digits` decimal digits.

    Returns a FixedReal ball of radius 2 units of 10**-digits: one for x
    rounded to a unit (none where that is exact), one for arctan (the
    internal computation carries ten guard digits).  ``float()`` it for a
    correctly rounded double of the centre.
    """
    check_digits(digits, "oracle mode")
    if not math.isfinite(x):
        raise DomainError("oracle_arctan needs a finite argument")
    return fp.FixedReal(float(x), digits).atan()


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid. Log spacing requires x_min > 0."""

    x_min: float
    x_max: float
    points: int
    spacing: str = "log"

    def __post_init__(self):
        if self.spacing not in ("log", "linear"):
            raise ParamError(f"spacing must be 'log' or 'linear', got {self.spacing!r}")
        if self.points < 2:
            raise ParamError("a grid needs at least 2 points")
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ParamError("grid endpoints must be finite")
        if not self.x_min < self.x_max:
            raise ParamError("x_min must be below x_max")
        if self.spacing == "log" and self.x_min <= 0:
            raise ParamError("log spacing needs x_min > 0")

    def values(self) -> tuple[float, ...]:
        return _grid_values(self)

    def to_json_dict(self) -> dict:
        return {"x_min": self.x_min, "x_max": self.x_max,
                "points": self.points, "spacing": self.spacing}


@lru_cache(maxsize=32)
def _grid_values(grid: GridSpec) -> tuple[float, ...]:
    n = grid.points
    if grid.spacing == "log":
        lo, hi = math.log(grid.x_min), math.log(grid.x_max)
        span, last, exp = hi - lo, n - 1, math.exp
        inner = [exp(lo + span * i / last) for i in range(1, last)]
    else:
        # halves keep hi/2 - lo/2 finite for any finite ends, every step is
        # monotone in i, and the clamp holds each point in [x_min, x_max]
        lo, hi = grid.x_min, grid.x_max
        half = hi / 2 - lo / 2
        inner = (min(max(2 * (lo / 2 + half * (i / (n - 1))), lo), hi)
                 for i in range(1, n - 1))
    values = (grid.x_min, *inner, grid.x_max)
    # the points are rounded, and on a range of a few ulps a log grid's inner
    # point can fall below x_min or out of order; dominance reads the grid by
    # bisection, so it is sorted
    if any(map(operator.gt, values, values[1:])):
        values = tuple(sorted(values))
    return values


#: Default verification grid: both limiting regimes (x -> 0 and x -> inf) are
#: where the bound constants are attained, so the grid spans them widely.
DEFAULT_GRID = GridSpec(1e-8, 1e8, 10_000, "log")


@lru_cache(maxsize=1 << 14)
def _oracle_at(x: float, digits: int) -> fp.FixedReal:
    """The fixed-point oracle at one point, for the points a sweep evaluates
    in fixed point and the violations it lists; its misses count them.  A
    suite's sweeps share the values at the ends of their pieces, and where a
    grid's points all reach fixed point, one value per point."""
    return oracle_arctan(x, digits)


@lru_cache(maxsize=8)
def _fast_atan_on_grid(grid: GridSpec, start: int, stop: int) -> array:
    """fast_atan at the grid points start..stop-1, packed 8 bytes a point (a
    float object in a tuple takes 32): built when a piece of a sweep first
    reaches the double filter, and shared by the suite's sweeps whose
    pieces span the same points."""
    # imported on first use: only the double filter reads it
    from .fastatan import fast_atan
    return array("d", map(fast_atan, grid.values()[start:stop]))


def _reported_margin(x: float, margin: float, oracle_value: float) -> float:
    return margin if x <= 1.0 else margin / oracle_value


class _Point(NamedTuple):
    """The fixed-point path at one point: the doubles of the bound's and the
    oracle's centres, the reported margin, whether the inequality holds, and
    the two balls, which share their digits."""

    bound: float
    oracle: float
    margin: float
    holds: bool
    bound_hp: fp.FixedReal
    oracle_hp: fp.FixedReal


def _exact_point(bound: cat.BoundId, a: Optional[float], side: str, x: float,
                 digits: int) -> _Point:
    """The fixed-point path at x, separated by fixedpoint.refine from
    `digits`.  DomainError where the bound or the margin does not fit a double."""
    bound_hp, oracle_hp = fp.refine(
        lambda d: (cat.eval_bound_hp(bound, x, a, digits=d), _oracle_at(x, d)),
        digits, fp.separated, lambda: f"{bound.value} at x={x!r}: the margin")
    diff = oracle_hp.units - bound_hp.units
    if side == "upper":
        diff = -diff
    # float(FixedReal) divides the units by the scale, correctly rounded
    try:
        oracle_f = float(oracle_hp)
        margin = _reported_margin(x, diff / bound_hp.scale, oracle_f)
        if diff > 0 and margin == 0.0:      # a certified margin that underflows
            raise OverflowError
        return _Point(float(bound_hp), oracle_f, margin, diff > 0, bound_hp, oracle_hp)
    except OverflowError:
        raise DomainError(f"{bound.value} at x={x!r}: the bound or its margin "
                          f"does not fit a double") from None


@dataclass(frozen=True)
class SweepReport:
    """Outcome of checking one bound against the oracle over a grid.

    violation_at holds, in grid order, the index of every grid point with a
    non-positive exact margin; the report is clean iff it is empty iff
    min_margin > 0.  violations lists (x, bound, oracle) for them, the
    doubles of the fixed-point centres, and violations_listed(n) the first n
    of them; the fixed-point bound is computed when the listing is read, and
    only for the violations listed.
    pieces counts the grid's runs on which the margin is monotone (see
    sweep), escalated the grid points the sweep evaluated in fixed point,
    and filtered the grid points its double filter read.  min_margin is
    signed so that positive means the inequality holds.
    """

    bound: cat.BoundId
    a: Optional[float]
    side: str
    grid: GridSpec
    digits: int
    violation_at: tuple[int, ...]
    min_margin: float
    min_margin_x: float
    escalated: int
    pieces: int
    filtered: int

    @property
    def ok(self) -> bool:
        return not self.violation_at

    @property
    def violation_count(self) -> int:
        return len(self.violation_at)

    def violations_listed(self, limit: Optional[int] = None
                          ) -> list[tuple[float, float, float]]:
        """(x, bound, oracle) for the first `limit` violations, all if None."""
        xs = self.grid.values()
        listed = []
        for i in self.violation_at[:limit]:
            listed.append((xs[i], *_exact_point(self.bound, self.a, self.side, xs[i],
                                                self.digits)[:2]))
        return listed

    @cached_property
    def violations(self) -> list[tuple[float, float, float]]:
        return self.violations_listed()

    def to_json_dict(self, limit: Optional[int] = None) -> dict:
        """The report as JSON, listing the first `limit` violations (all if
        None); violation_count counts every one."""
        return {
            "bound": self.bound.value,
            "a": self.a,
            "side": self.side,
            "digits": self.digits,
            "grid": self.grid.to_json_dict(),
            "trusted": cat.bound_is_trusted(self.bound),
            "violations": [
                {"x": x, "bound": b, "oracle": o}
                for x, b, o in self.violations_listed(limit)
            ],
            "violation_count": self.violation_count,
            "min_margin": self.min_margin,
            "min_margin_x": self.min_margin_x,
            "ok": self.ok,
        }


@lru_cache(maxsize=64)
def _monotone_pieces(bound: cat.BoundId, a: Optional[float]
                     ) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """(edges, slopes) of a bound at a checked parameter: its exact margin M
    rises (slope 1) or falls (-1) on the doubles x <= edges[0], on
    edges[k - 1] < x <= edges[k] and on x > edges[-1], slopes[k] on the k-th
    of these.  A one-off's M rises on all of (0, inf).  A shape row's M' has
    the sign of its slope polynomial Q (algebra.slope_polynomial), negated
    for an upper bound; an edge is the lower end of the bracket of a root of
    Q where Q changes sign, so M is monotone on the grid points on each
    side of it."""
    info = cat._CATALOG[bound]
    # imported on first use: importing the package does not load it
    from . import algebra as alg
    q = alg.slope_polynomial(info, a)
    if q is None:
        return (), (1,)
    comparison = alg.Comparison(q)
    side = 1 if info.side == "lower" else -1
    # Q's sign before its first root and after each (a 0 is the sign at a
    # root that is a double, which either side may take); Q == 0 would make
    # M constant
    signs = [s for s in comparison.signs if s] or [1]
    edges, slopes = [], [side * signs[0]]
    for (lo, _), before, after in zip(comparison.brackets, signs, signs[1:]):
        if after != before:
            edges.append(lo)
            slopes.append(side * after)
    return tuple(edges), tuple(slopes)


def _first_index(lo: int, hi: int, pred) -> int:
    """The first index in (lo, hi] where pred holds, pred being false at lo
    and true from that index to hi."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


class _ExactPoints(dict):
    """The fixed-point path at the grid points a sweep reads, by index, each
    evaluated on first use."""

    def __init__(self, bound: cat.BoundId, a: Optional[float], side: str,
                 grid: GridSpec, digits: int):
        super().__init__()
        self.bound, self.a, self.side, self.grid, self.digits = bound, a, side, grid, digits
        self.xs = grid.values()

    def _evaluate(self, i: int) -> _Point:
        point = self[i] = _exact_point(self.bound, self.a, self.side, self.xs[i],
                                       self.digits)
        return point

    def __missing__(self, i: int) -> _Point:
        try:
            return self._evaluate(i)
        except ArctanBoundsError as error:
            raise self._first_failure(i, error) from None

    def _first_failure(self, i: int, error: ArctanBoundsError) -> ArctanBoundsError:
        """The error of the first grid point that raises one, `error` being
        that of i.  The points whose margin underflows or is unresolved, or
        whose bound outgrows a double, lie at the grid's ends (the margin
        vanishes at 0 and at infinity, and |bound| is monotone at large x),
        and a sweep evaluates the grid's first point first: so between the
        nearest evaluated point below i and i they are a run that ends at
        i, found by bisection."""
        lo = max((k for k in self if k < i), default=-1)
        while i - lo > 1:
            mid = (lo + i) // 2
            try:
                self._evaluate(mid)
                lo = mid
            except ArctanBoundsError as exc:
                i, error = mid, exc
        return error

    def run_start(self, start: int, last: int) -> int:
        """The first of the points start..last whose reported margin is the
        double at last, on a run where the margins do not rise."""
        value = self[last].margin
        if last == start or self[last - 1].margin != value:
            return last
        if self[start].margin == value:
            return start
        return _first_index(start, last - 1, lambda i: self[i].margin == value)

    def filtered_minimum(self, start: int, stop: int, min_high: float) -> float:
        """The double filter on the points start..stop-1, all x > 1, of one
        sign: the points it cannot settle, and then those whose reported
        margin could be the smallest, at most min_high, are evaluated in
        fixed point.  Returns the smallest of min_high and their margins."""
        from .fastatan import FAST_ATAN_K
        fn, float_error = cat.float_form(self.bound, self.a)
        lower = self.side == "lower"
        # E = float_error + (K + 4)u(o + |b|), K = FAST_ATAN_K: o, the double
        # of fast_atan, is within Ku o of arctan x, and o - b rounds once, by
        # at most u(o + |b|), so m is within E of the exact margin at the
        # double x.  A settled point's exact margin as reported, divided by
        # arctan x, lies within rad = 2E/o of m/o: 2E exceeds E by
        # (K + 4)u(o + |b|) >= (K + 4)u|m|, which covers the division by o in
        # place of arctan x (a relative Ku, so Ku|m|) and the three roundings
        # of m/o -+ 2E/o, with u|m| to spare.  Only a point whose low end is
        # at most the running min_high can hold the minimum, and min_high
        # only falls.
        k4_u = (FAST_ATAN_K + 4) * 2.0 ** -53
        unsettled, candidates = [], []
        for i, x, o in zip(range(start, stop), self.xs[start:stop],
                           _fast_atan_on_grid(self.grid, start, stop)):
            b = fn(x)
            m = o - b if lower else b - o
            e = float_error(x, b) + k4_u * (o + abs(b))
            if not abs(m) > e:      # unsettled, or NaN: x*x overflows from 2**512
                unsettled.append(i)
                continue
            m, rad = m / o, 2 * e / o
            if m + rad < min_high:
                min_high = m + rad
            if m - rad <= min_high:
                candidates.append((i, m - rad))
        for i in unsettled:
            min_high = min(min_high, self[i].margin)
        for i, low in candidates:
            if low <= min_high:
                min_high = min(min_high, self[i].margin)
        return min_high


def _lowest_ratio(first: _Point, last: _Point, positive: bool, lower: bool) -> Fraction:
    """A lower bound of the reported margins M(x)/arctan x on the grid
    points x > 1 from first to last, where M is monotone and of one sign.
    From the ends' balls, M(x)/arctan x is at least M(first)/arctan(last)
    where M > 0 rises, and M(last)/arctan(first) where M <= 0 falls; less
    2**-50 of it, which covers the three roundings of a reported margin (of
    the margin, of arctan and of their quotient), so that no point past the
    bound can share the double of a point below it."""
    at_m, at_atan = (first, last) if positive else (last, first)
    b, o = at_m.bound_hp, at_m.oracle_hp
    diff = o.units - b.units if lower else b.units - o.units
    atan = at_atan.oracle_hp
    atan_end = atan.units + atan.err if positive else atan.units - atan.err
    ratio = Fraction(diff - b.err - o.err, o.scale) / Fraction(atan_end, atan.scale)
    return ratio - abs(ratio) / 2 ** 50


def sweep(bound: cat.BoundId, a: Optional[float] = None,
          grid: GridSpec = DEFAULT_GRID,
          digits: int = DEFAULT_SWEEP_DIGITS) -> SweepReport:
    """Check one bound's containment claim at every grid point.

    For a lower bound, a violation is bound >= arctan; for an upper bound,
    bound <= arctan; the side is the catalog's.  The grid is cut into the
    pieces on which the margin is monotone, which decide the verdicts (see
    the module docstring).
    """
    side = cat.bound_side(bound)
    check_digits(digits, "sweep")
    cat._check_param(bound, a)
    xs = grid.values()
    cat._check_x(xs[0])     # the smallest point
    edges, slopes = _monotone_pieces(bound, a)
    cuts = [bisect_right(xs, edge) for edge in edges]
    ends = sorted({0, bisect_right(xs, 1.0), *cuts, len(xs)})
    exact = _ExactPoints(bound, a, side, grid, digits)
    violated = []
    end_parts, loose_parts = [], []
    pieces = 0
    for start, stop in zip(ends, ends[1:]):
        if start == stop:
            continue
        pieces += 1
        rising = slopes[bisect_right(cuts, start)] > 0
        # M is monotone on the piece, so it holds on one run of it and is
        # violated on the other: found from the exact signs at the two ends,
        # and between them by bisection
        first_holds, last_holds = exact[start].holds, exact[stop - 1].holds
        split = stop if first_holds == last_holds else _first_index(
            start, stop - 1, lambda i: exact[i].holds == last_holds)
        for lo, hi, holds in ((start, split, first_holds), (split, stop, last_holds)):
            if not holds:
                violated.extend(range(lo, hi))
        # the run of the smallest margins: the violated one, if any
        lo, hi, positive = ((start, split, False) if not first_holds else
                            (split, stop, False) if not last_holds else
                            (start, stop, True))
        # the reported margin is M for x <= 1 and M/arctan x above, where it
        # keeps M's direction where M > 0 falls or M <= 0 rises
        if xs[start] <= 1.0 or rising != positive:
            end_parts.append((lo, hi, rising))
        else:
            loose_parts.append((lo, hi, positive))

    # a loose part is read in the double filter unless its lowest ratio clears
    # the smallest reported margin found
    best = min(point.margin for point in exact.values())
    filtered = 0
    for lo, hi, positive in loose_parts:
        if _lowest_ratio(exact[lo], exact[hi - 1], positive, side == "lower") > best:
            continue
        filtered += hi - lo
        best = exact.filtered_minimum(lo, hi, best)

    # every grid point whose reported margin can be the smallest is now
    # evaluated, but on a falling part the run of points that share its
    # last point's double
    min_margin = min(point.margin for point in exact.values())
    first = min(i for i, point in exact.items() if point.margin == min_margin)
    for lo, hi, rising in end_parts:
        if not rising and lo < first and exact[hi - 1].margin == min_margin:
            first = min(first, exact.run_start(lo, hi - 1))
    return SweepReport(bound=bound, a=a, side=side, grid=grid, digits=digits,
                       violation_at=tuple(violated),
                       min_margin=exact[first].margin, min_margin_x=xs[first],
                       escalated=len(exact), pieces=pieces, filtered=filtered)


@dataclass(frozen=True)
class DominanceRegion:
    x_lo: float
    x_hi: float
    verdict: str  # "a" | "b" | "equal"


@dataclass(frozen=True)
class DominanceReport:
    """Pointwise tightness comparison of two same-side bounds.

    Each grid point has one verdict, the exact sign of the difference of the
    two bounds at the double x: "a" or "b" where that bound is strictly
    tighter, "equal" where the two are equal, which between two rows
    without a log happens at every point when P == 0 (identical rows) and
    otherwise only at a root of P that is a grid point.  Regions, crossovers
    and counts all come from it.

    method is "algebra" for two rows without a log and "filter" for a pair
    with a log row.  An algebra report gives degree, the degree of P (-1
    where P == 0), brackets, one (lo, hi) pair of doubles per root of P
    (see algebra.Comparison), bracket_points, the grid points that are a
    bracket's end and so decided by an exact sign there, and pi_digits, the
    most digits of pi a sign took.  A filter report gives escalated, the
    grid points, and escalated_steps, of its bisection_steps, whose sign the
    fixed-point path decided.
    """

    bound_a: cat.BoundId
    bound_b: cat.BoundId
    a_a: Optional[float]
    a_b: Optional[float]
    side: str
    grid: GridSpec
    digits: int
    regions: list[DominanceRegion]
    crossovers: list[float]
    a_tighter: int
    b_tighter: int
    equal: int
    method: str
    degree: Optional[int] = None
    brackets: tuple[tuple[float, float], ...] = ()
    bracket_points: int = 0
    pi_digits: int = 0
    escalated: int = 0
    bisection_steps: int = 0
    escalated_steps: int = 0

    @property
    def a_strictly_tighter_everywhere(self) -> bool:
        return self.a_tighter == self.grid.points

    @property
    def b_strictly_tighter_everywhere(self) -> bool:
        return self.b_tighter == self.grid.points

    def to_json_dict(self) -> dict:
        return {
            "bound_a": self.bound_a.value,
            "bound_b": self.bound_b.value,
            "a_a": self.a_a,
            "a_b": self.a_b,
            "side": self.side,
            "digits": self.digits,
            "grid": self.grid.to_json_dict(),
            "regions": [
                {"x_lo": r.x_lo, "x_hi": r.x_hi, "verdict": r.verdict}
                for r in self.regions
            ],
            "crossovers": list(self.crossovers),
            "counts": {
                "a_tighter": self.a_tighter,
                "b_tighter": self.b_tighter,
                "equal": self.equal,
            },
        }


_VERDICT = {1: "a", -1: "b", 0: "equal"}


def dominance_report(bound_a: cat.BoundId, bound_b: cat.BoundId,
                     a_a: Optional[float] = None, a_b: Optional[float] = None,
                     grid: GridSpec = DEFAULT_GRID,
                     digits: int = DEFAULT_SWEEP_DIGITS) -> DominanceReport:
    """Partition the grid by which of two same-side bounds is tighter.

    The grid's first point, its smallest, must be positive.  For two rows
    without a log the signs come from the roots of the comparison
    polynomial P (see algebra): the grid is read by bisection at the edges
    of its sign, and a crossover is the double nearest a root of P where
    the sign changes, strictly inside the grid's range.  A pair with a log
    row takes the float filter of a sweep, the second bound in the oracle's
    place, and the fixed-point path where that cannot settle a point
    (decided past both radii, see fixedpoint.refine), and bisects each
    crossover between adjacent non-tied grid points that flip.
    """
    side_a = cat.bound_side(bound_a)
    side_b = cat.bound_side(bound_b)
    if side_a != side_b:
        raise ParamError(
            f"dominance needs same-side bounds; {bound_a.value} is {side_a}, "
            f"{bound_b.value} is {side_b}")
    check_digits(digits, "dominance")
    cat._check_param(bound_a, a_a)
    cat._check_param(bound_b, a_b)
    xs = grid.values()
    cat._check_x(xs[0])
    tighter = 1 if side_a == "lower" else -1     # a bigger lower bound is tighter
    # imported on first use, as sweep imports it
    from . import algebra as alg
    p = alg.comparison_polynomial(cat._CATALOG[bound_a], a_a, cat._CATALOG[bound_b], a_b)
    if p is None:
        fields = _filtered_signs(bound_a, bound_b, a_a, a_b, xs, digits, tighter)
    else:
        fields = _algebraic_signs(alg.Comparison(p), xs, tighter)
    return DominanceReport(bound_a=bound_a, bound_b=bound_b, a_a=a_a, a_b=a_b,
                           side=side_a, grid=grid, digits=digits, **fields)


def _algebraic_signs(comparison, xs: tuple[float, ...], tighter: int) -> dict:
    """The report's fields from the sign of P: each run of grid points
    between two edges has one sign, found by bisect, with no pass over the
    grid."""
    cuts = [0, *(bisect_right(xs, edge) for edge in comparison.edges), len(xs)]
    counts = {1: 0, -1: 0, 0: 0}
    regions = []
    for start, stop, sign in zip(cuts, cuts[1:], comparison.signs):
        if start >= stop:
            continue
        verdict = _VERDICT[tighter * sign]
        counts[tighter * sign] += stop - start
        if regions and regions[-1].verdict == verdict:
            regions[-1] = DominanceRegion(regions[-1].x_lo, xs[stop - 1], verdict)
        else:
            regions.append(DominanceRegion(xs[start], xs[stop - 1], verdict))
    x_min, x_max = xs[0], xs[-1]
    ends = {end for bracket in comparison.brackets for end in bracket}
    return dict(
        regions=regions,
        crossovers=[c for lo, hi, c in comparison.crossovers
                    if x_min <= lo and hi <= x_max and x_min < c < x_max],
        a_tighter=counts[1], b_tighter=counts[-1], equal=counts[0],
        method="algebra", degree=comparison.degree,
        brackets=tuple(comparison.brackets),
        bracket_points=sum(bisect_right(xs, e) - bisect_left(xs, e) for e in ends),
        pi_digits=comparison.pi_digits)


def _filtered_signs(bound_a: cat.BoundId, bound_b: cat.BoundId,
                    a_a: Optional[float], a_b: Optional[float],
                    xs: tuple[float, ...], digits: int, tighter: int) -> dict:
    """The report's fields from sign_at(x), for a pair with a log row: +1
    if A is strictly tighter, -1 if B is, 0 only for a row against itself.
    It settles the sign in double past sweep's threshold; unsettled margins
    and non-finite values or error bounds (whose comparison is false) go to
    the fixed-point path."""
    fn_a, error_a = cat.float_form(bound_a, a_a)
    fn_b, error_b = cat.float_form(bound_b, a_b)
    identical = bound_a is bound_b      # no log row takes a parameter
    four_u = 2.0 ** -51
    calls = escalated = 0

    def sign_at(x: float) -> int:
        nonlocal calls, escalated
        calls += 1
        if identical:
            return 0
        fa, fb = fn_a(x), fn_b(x)
        diff = fa - fb
        # fa and fb are float forms at the same double x, each within its
        # proven error bound of the exact bound, and 4u(|fa| + |fb|) covers
        # the rounding of diff (exact where it is subnormal): past this, diff
        # has the exact sign of A(x) - B(x).
        if abs(diff) > error_a(x, fa) + error_b(x, fb) + four_u * (abs(fa) + abs(fb)):
            return tighter if diff > 0 else -tighter
        escalated += 1
        ball_a, ball_b = fp.refine(
            lambda d: (cat.eval_bound_hp(bound_a, x, a_a, digits=d),
                       cat.eval_bound_hp(bound_b, x, a_b, digits=d)),
            digits, fp.separated,
            lambda: f"{bound_a.value} against {bound_b.value} at x={x!r}: the sign")
        return tighter if ball_a.units > ball_b.units else -tighter

    signs = [sign_at(x) for x in xs]
    grid_escalated = escalated
    regions = []
    start = 0
    for i in range(1, len(xs) + 1):
        if i == len(xs) or signs[i] != signs[start]:
            regions.append(DominanceRegion(xs[start], xs[i - 1], _VERDICT[signs[start]]))
            start = i

    crossovers = []
    prev = None
    for i, sign in enumerate(signs):
        if sign == 0:
            continue
        if prev is not None and signs[prev] != sign:
            crossovers.append(fp._bisect_crossover(sign_at, xs[prev], xs[i], signs[prev]))
        prev = i

    return dict(
        regions=regions, crossovers=crossovers, a_tighter=signs.count(1),
        b_tighter=signs.count(-1), equal=signs.count(0), method="filter",
        escalated=grid_escalated, bisection_steps=calls - len(xs),
        escalated_steps=escalated - grid_escalated)
