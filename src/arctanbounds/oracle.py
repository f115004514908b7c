"""High-precision arctan reference and the grid-sweep verification engine.

The oracle evaluates arctan in integer fixed point (argument reduction plus
an alternating Taylor series, see :mod:`arctanbounds.fixedpoint`), as a
ball within two units of ``10**-digits`` of arctan at the exact double.

A sweep checks a catalog bound against arctan at every grid point, after
checking that the grid's first point, its smallest, is positive.  Every
verdict is the true one at the exact double x, and it comes from the
monotone pieces of the margin M (arctan minus the bound for a lower bound,
the bound minus arctan for an upper one; positive where the bound holds).
M rises on all of (0, inf) for a row the catalog marks rises: a one-off,
or a shape row whose slope polynomial Q (below), negated for an upper
bound, is a square or, at v = u - 1, has coefficients of one sign and so
no root v > 0 (Descartes' rule of signs).  Another shape row's M' has
the sign of +-Q(u), u = sqrt(1 + x^2),
Q(u) = (d + e u)^2 - c u (d u + e), and for v = u - 1 >= 0 Q(1 + v) lies
between two integer quadratics built from the balls of c, d and e at the
sweep's digits (interval arithmetic; Moore, Kearfott and Cloud, 2009):
Q > 0 where the lower one is positive, Q < 0 where the upper one is
negative.  The brackets of their roots, from math.isqrt and mapped exactly
to doubles of x, cut the grid into runs of one sign of Q, and runs where
the balls leave it open; the digits double until each of those holds one
double (see _monotone_pieces).  A cut, the first grid point at or above a
double (or above it), is found by bisecting the grid's points, each
computed as it is read.  No root of Q is isolated, and a cut where Q keeps
its sign only splits a monotone run in two.  The grid is cut again at
x = 1, where the reported margin changes (below).  M is evaluated in
fixed point (``eval_bound_hp`` against the oracle's ball), decided where
the centres lie further apart than the two radii, at the sweep's digits or
at twice them and so on (see fixedpoint.refine): first at the grid's two
ends, where the points that raise an error lie, then on each piece at its
near end, where M is smallest (its first point where M rises, its last
where M falls).  Where M holds there, it holds on the whole piece, whose
other end is not evaluated.  Otherwise its violations are one run at one
end, found from the ends' signs and by bisection between them, and kept
as that run; a violation's bound is computed again only when listed.

The smallest reported margin of a piece lies at an end for x <= 1, and
above it where M > 0 falls or M <= 0 rises, since arctan rises; on a
falling piece the run of points that share the end's double is bisected
to its first point.  On the other pieces R = M/arctan x has the slope of
S = (1 + x^2) M' arctan x - M, where S(0+) = 0 and
S' = ((1 + x^2) M')' arctan x: of one sign for a one-off, whose R rises on
(0, inf), and for a shape row that of -+((2d^2 - e^2) u + d e), which
changes at most once.  So the smallest R lies at an end unless S goes from
- to + inside the piece, where bisection on S's exact sign finds its zero.
A piece is skipped where M(p)/arctan(q) (or M(q)/arctan(p)), a lower bound
of every ratio on it, exceeds the smallest margin found; a piece where M
holds reads arctan alone at q.  Otherwise R is evaluated only where it
can be smallest: at the grid points either side of S's zero, and where
there is none, at the piece's ends (a one-off's first).  Every reported
double is the exact value rounded once (fixedpoint.settle), and rounding
is monotone, so the margins keep the exact order, and the first point of
the smallest is reported: on a falling run, the first point that shares
its last point's double, found by bisection.  The oracle is computed,
and cached, only at the points evaluated, those arctan-only ends and the
violations listed, and a grid's points only where read (GridSpec.values).
So verdicts are the exact ones, and no field but digits depends on the
digits a sweep starts from.

A dominance report gives every grid point the exact sign of the difference
of two bounds.  For two rows without a log it is the sign of a polynomial
P in u with coefficients in Q[pi] (see :mod:`arctanbounds.algebra`): the
brackets of its roots cut the grid, with no fixed-point evaluation, and
a crossover is the double nearest a root where the sign changes.  A pair
with a log row has the sign of an h with h(0+) = 0, monotone between the
roots of algebra.log_pair_polynomial: the first piece takes h's sign at
its last grid point, every other the signs at its ends and by bisection
between them, decided on the two rows' fixed-point balls, as are the
crossovers: each is the first double past a run at which its sign no
longer holds, bisected on the bit patterns down to adjacent doubles, so
that every grid that straddles it reports the same double.

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
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, islice
from typing import NamedTuple, Optional

from . import catalog as cat
from . import fixedpoint as fp
from .catalog import DEFAULT_DIGITS, DEFAULT_SWEEP_DIGITS
from .errors import ArctanBoundsError, DomainError, ParamError


def check_digits(digits: int, what: str) -> None:
    """Raise ParamError, naming `what`, unless digits is an int and 20 <=
    digits <= MAX_DIGITS: the fewest the oracle takes, and the most that
    fixedpoint.refine does."""
    if not isinstance(digits, int):
        raise ParamError(f"{what} needs a whole number of digits, got {digits!r}")
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
    # compared exactly: nan fails, and so does an int past DBL_MAX
    if not -cat._DBL_MAX <= x <= cat._DBL_MAX:
        raise DomainError(f"oracle_arctan needs a finite double, got {x!r}")
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
        if not isinstance(self.points, int):
            raise ParamError(f"a grid's points must be a whole number, got {self.points!r}")
        if self.points < 2:
            raise ParamError("a grid needs at least 2 points")
        if self.points > sys.maxsize:
            raise ParamError(f"a grid holds at most {sys.maxsize} points")
        # compared exactly: nan fails, and so does an int past DBL_MAX
        if not (-cat._DBL_MAX <= self.x_min <= cat._DBL_MAX
                and -cat._DBL_MAX <= self.x_max <= cat._DBL_MAX):
            raise ParamError("grid endpoints must be finite")
        if not self.x_min < self.x_max:
            raise ParamError("x_min must be below x_max")
        if self.spacing == "log" and self.x_min <= 0:
            raise ParamError("log spacing needs x_min > 0")

    def values(self) -> Sequence[float]:
        """The grid's points in increasing order, as a read-only sequence
        (len, indices, slices, iteration).  Point i is computed when it is
        read, from its closed form: exp(log x_min + span i / (n - 1)), span
        = log x_max - log x_min, for a log grid, and for a linear one the
        steps x_min/2 + (x_max/2 - x_min/2) (i / (n - 1)), doubled and
        clamped to [x_min, x_max]; x_min and x_max are its ends.  A linear
        grid is sorted by construction, each step being a monotone
        rounding, and so is a log grid whose x_min is normal and whose
        log-step exceeds 2**-47 (span + |log| + 1), |log| the larger of
        |log x_min| and |log x_max|: the points' logs then lie within a
        sixteenth of a step of their exact values (see _grid_values).  Any
        other log grid is built whole, as a tuple, sorted where its rounded
        points come out of order.  A sweep, a dominance report or a profile
        cuts a grid where its points pass a value by bisection (bisect_left,
        bisect_right)."""
        return _grid_values(self)

    def to_json_dict(self) -> dict:
        return {"x_min": self.x_min, "x_max": self.x_max,
                "points": self.points, "spacing": self.spacing}


class _GridPoints(Sequence):
    """A grid's points, sorted by construction, each computed by point(i)
    when read; the ends are x_min and x_max."""

    __slots__ = ("_n", "_last", "_ends", "_point")

    def __init__(self, grid: GridSpec, point):
        self._n, self._last = grid.points, grid.points - 1
        self._ends, self._point = (grid.x_min, grid.x_max), point

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if type(i) is int and 0 < i < self._last:     # an inner point, as read most
            return self._point(i)
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(self._n))))
        k = operator.index(i)
        k += self._n if k < 0 else 0
        if 0 < k < self._last:
            return self._point(k)
        if k == 0 or k == self._last:
            return self._ends[k > 0]
        raise IndexError(f"grid index {i} out of range")

    def __iter__(self):
        yield self._ends[0]
        yield from map(self._point, range(1, self._n - 1))
        yield self._ends[1]


@lru_cache(maxsize=32)
def _grid_values(grid: GridSpec) -> Sequence[float]:
    lo, hi, last = grid.x_min, grid.x_max, grid.points - 1
    if grid.spacing == "linear":
        # halves keep hi/2 - lo/2 finite for any finite ends, every step is
        # monotone in i, and the clamp holds each point in [x_min, x_max]
        half = hi / 2 - lo / 2
        return _GridPoints(grid, lambda i: min(max(2 * (lo / 2 + half * (i / last)), lo), hi))
    log, exp = math.log, math.exp
    log_lo, log_hi = log(lo), log(hi)
    span = log_hi - log_lo
    points = _GridPoints(grid, lambda i: exp(log_lo + span * i / last))
    # Each rounding errs by at most 2**-53 relatively, and log and exp by an
    # ulp.  So log_lo + span i / last, whose exact line is log_lo + S i / n
    # (S = span, n = last), errs by at most 2**-52 S (the product and the
    # quotient) + 2**-53 L (the sum, L = max(|log_lo|, |log_hi|)); exp of it
    # by a relative 2**-52 where x_min is normal, 2**-51 in log; and the ends
    # lie within 2**-52 (L + S) of theirs.  Each point's log is within
    # r = 2**-51 (S + L + 1) of the line, so points a step S/n > 16 r
    # apart keep their order.
    if lo >= sys.float_info.min and span / last > 2.0 ** -47 * (
            span + max(abs(log_lo), abs(log_hi)) + 1):
        return points
    # on a range of a few ulps a rounded inner point can fall below x_min or
    # out of order
    values = tuple(points)
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


def _balls(bound: cat.BoundId, a: Optional[float], x: float):
    """digits -> the balls (bound, oracle) at x."""
    return lambda d: (cat.eval_bound_hp(bound, x, a, digits=d), _oracle_at(x, d))


class _Point(NamedTuple):
    """The fixed-point path at one point: the reported margin (the exact one
    rounded once), whether the inequality holds, and the two balls that
    separated it, which share their digits."""

    margin: float
    holds: bool
    bound_hp: fp.FixedReal
    oracle_hp: fp.FixedReal


def _exact_point(bound: cat.BoundId, a: Optional[float], side: str, x: float,
                 digits: int) -> _Point:
    """The fixed-point path at x, separated by fixedpoint.refine from
    `digits`, and its reported margin, M or M/arctan x for x > 1, rounded
    once: from its ends' integer quotients there, or where they round to
    two doubles, by fixedpoint.settle from twice the digits.  DomainError
    where the bound or the margin does not fit a double."""
    what, balls, lower = (lambda: f"{bound.value} at x={x!r}: the margin",
                          _balls(bound, a, x), side == "lower")
    bound_hp, oracle_hp = fp.refine(balls, digits, fp.separated, what)
    diff = oracle_hp.units - bound_hp.units if lower else bound_hp.units - oracle_hp.units
    radius, o, e = bound_hp.err + oracle_hp.err, oracle_hp.units, oracle_hp.err
    # M's ends, of diff's sign, over the scale, or for x > 1 over the ends
    # of arctan x (positive) that make the ends of M/arctan x
    low, high = ((oracle_hp.scale,) * 2 if x <= 1.0 else
                 (o + e, o - e) if diff > 0 else (o - e, o + e))
    margin = fp._double(diff - radius, low)
    if margin != fp._double(diff + radius, high):

        def ball(bound_d: fp.FixedReal, oracle_d: fp.FixedReal) -> tuple[fp.FixedReal]:
            m = oracle_d - bound_d if lower else bound_d - oracle_d
            return (m if x <= 1.0 else m / oracle_d,)
        (margin,), _ = fp.settle(lambda d: ball(*balls(d)), x, what, 2 * bound_hp.digits)
    # a bound or margin past DBL_MAX, or a certified margin that underflows
    if (abs(fp._double(bound_hp.units, bound_hp.scale)) == math.inf
            or abs(margin) == math.inf or diff > 0 and margin == 0.0):
        raise DomainError(f"{bound.value} at x={x!r}: the bound or its margin "
                          f"does not fit a double")
    return _Point(margin, diff > 0, bound_hp, oracle_hp)


@dataclass(frozen=True)
class SweepReport:
    """Outcome of checking one bound against the oracle over a grid.

    violation_runs holds, in grid order, the runs of indices (ranges) of
    the grid points with a non-positive exact margin, at most one a piece;
    the report is clean iff it is empty iff min_margin > 0.
    violation_count counts their points, violations lists (x, bound,
    oracle) for them, the exact bound and arctan each rounded once, and
    violations_listed(n) the first n of them; the fixed-point bound is
    computed when the listing is read, and only for the violations listed.
    pieces counts the grid's runs on which the margin is monotone (see
    sweep) and escalated the grid points at which the sweep evaluated the
    bound in fixed point: the grid's ends, the near end of each piece, the
    points that decide its violations, and above x = 1 those that decide
    the slope and the smallest end of its ratio's runs and their first
    point, but not the far end of a piece where the bound holds.
    min_margin, positive where the inequality holds, is the smallest exact
    margin rounded once, min_margin_x its first point; digits, where the
    checks start, moves no other field.
    """

    bound: cat.BoundId
    a: Optional[float]
    side: str
    grid: GridSpec
    digits: int
    violation_runs: tuple[range, ...]
    min_margin: float
    min_margin_x: float
    escalated: int
    pieces: int

    @property
    def ok(self) -> bool:
        return not self.violation_runs

    @property
    def violation_count(self) -> int:
        return sum(map(len, self.violation_runs))

    def violations_listed(self, limit: Optional[int] = None
                          ) -> list[tuple[float, float, float]]:
        """(x, bound, oracle) for the first `limit` violations, all if None."""
        xs = self.grid.values()
        listed = []
        for i in islice(chain.from_iterable(self.violation_runs), limit):
            x = xs[i]
            doubles, _ = fp.settle(_balls(self.bound, self.a, x), x,
                                   lambda: f"{self.bound.value} at x={x!r}: the bound",
                                   self.digits)
            listed.append((x, *doubles))
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


def _monotone_pieces(bound: cat.BoundId, a: Optional[float], xs: Sequence[float],
                     digits: int) -> list[tuple[int, int, int]]:
    """(start, stop, slope) in order, covering the grid xs of a bound at a
    checked parameter: its exact margin M rises (slope 1) or falls (-1) on
    the points start..stop-1, or they share one double (slope 0).  A row
    the catalog marks rises (the one-offs, and the shape rows whose Q,
    negated for an upper bound, is a square or has coefficients >= 0 at
    u = 1 + v; see catalog._BoundInfo) is one rising run.  Another shape
    row's M' has the sign of Q (algebra.slope_polynomial),
    negated for an upper bound, read by fixedpoint.sign_runs from
    catalog._slope_bounds at `digits`, twice them and so on
    (fixedpoint.refine) until the points where the balls leave Q's sign
    open share one double in each run: the stretches around Q's zeros
    that no ball resolves (A = 0 for two-over-pi-lower, Q(1) = 0 for
    mid-regime-upper where c = 1 + a = d + e) shrink to x = 0 or to
    infinity.  sign_runs cuts the grid by bisection."""
    info = cat._CATALOG[bound]
    if info.rises:
        return [(0, len(xs), 1)]
    side = 1 if info.side == "lower" else -1
    runs = fp.refine(
        lambda d: fp.sign_runs(*cat._slope_bounds(info.consts, a, d), xs), digits,
        lambda runs: all(xs[i] == xs[j - 1] for i, j, sign in runs if not sign),
        lambda: f"{bound.value}: the sign of its margin's slope")
    return [(i, j, side * sign) for i, j, sign in runs]


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


def _split(start: int, stop: int, sign) -> tuple[int, object, object]:
    """(split, first, last): a monotone function's signs sign(i) are first
    on start..split-1 and last on split..stop-1, bisected between the ends."""
    first, last = sign(start), sign(stop - 1)
    split = stop if first == last else _first_index(start, stop - 1,
                                                    lambda i: sign(i) == last)
    return split, first, last


class _ExactPoints(dict):
    """The fixed-point path at the grid points a sweep reads, by index, each
    evaluated on first use."""

    def __init__(self, bound: cat.BoundId, a: Optional[float], side: str,
                 grid: GridSpec, digits: int):
        super().__init__()
        self.bound, self.a, self.side, self.digits = bound, a, side, digits
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
        and a sweep evaluates the grid's first point, then its last, before
        any other: so between the nearest evaluated point below i and i
        they are a run that ends at i, found by bisection."""
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
        """The first of the points start..last whose reported margin is that
        at last, their smallest, where they fall, or rise and then fall: the
        points that share it are start, or a run that ends at last."""
        value = self[last].margin
        if last == start or self[last - 1].margin != value:
            return last
        if self[start].margin == value:
            return start
        return _first_index(start, last - 1, lambda i: self[i].margin == value)

    def slope_sign(self, i: int) -> int:
        """The sign at grid point i of a shape row's S, which M/arctan x has
        in its slope: +-(B - F arctan x), + for a lower bound, with
        F = (1 + x^2) B' = c u (d u + e) / (d + e u)^2, past the radius."""
        point, x, consts = self[i], self.xs[i], cat._CATALOG[self.bound].consts

        def ball(digits: int) -> fp.FixedReal:
            bound_hp, oracle_hp = ((point.bound_hp, point.oracle_hp)
                                   if digits == point.bound_hp.digits else
                                   _balls(self.bound, self.a, x)(digits))
            c, d, e = cat._fixed_consts(consts, self.a, digits)
            u = cat._point_balls(x, digits)[1]
            return bound_hp - c * u * (d * u + e) / ((d + e * u) * (d + e * u)) * oracle_hp

        s = fp.refine(ball, point.bound_hp.digits, lambda v: abs(v.units) > v.err,
                      lambda: f"{self.bound.value} at x={x!r}: the slope of the margin")
        return 1 if (s.units > 0) == (self.side == "lower") else -1


def _lowest_ratio(at_m: _Point, atan: fp.FixedReal, positive: bool, lower: bool) -> float:
    """A lower bound of the reported margins M(x)/arctan x on the grid
    points x > 1 from first to last, where M is monotone and of one sign,
    from the balls of M at one end and of arctan at the other: M(x)/arctan x
    is at least M(first)/arctan(last) where M > 0 rises, and
    M(last)/arctan(first) where M <= 0 falls; rounded once, so that, as
    rounding is monotone, no reported margin there lies below it."""
    b, o = at_m.bound_hp, at_m.oracle_hp
    low = (o.units - b.units if lower else b.units - o.units) - b.err - o.err
    atan_end = atan.units + atan.err if positive else atan.units - atan.err
    # low/o.scale over atan_end/atan.scale; the integer quotient is
    # correctly rounded
    return fp._double(low * atan.scale, o.scale * atan_end)


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
    # the monotone pieces, cut again at x = 1, where the reported margin changes
    one = bisect_right(xs, 1.0)
    pieces = [(lo, hi, slope)
              for start, stop, slope in _monotone_pieces(bound, a, xs, digits)
              for lo, hi in ((start, min(stop, one)), (max(start, one), stop)) if lo < hi]
    exact = _ExactPoints(bound, a, side, grid, digits)
    # the grid's ends first: the points that raise an error are a run at one
    # of them (see _ExactPoints._first_failure)
    exact[0], exact[len(xs) - 1]
    violated = []
    end_parts, loose_parts = [], []
    for start, stop, slope in pieces:
        rising = slope >= 0
        # M is monotone on the piece, so it holds on one run of it and is
        # violated on the other; where it holds at the end where it is
        # smallest, it holds on the whole piece, whose other end is not read
        if exact[start if rising else stop - 1].holds:
            split, first_holds, last_holds = stop, True, True
        else:
            split, first_holds, last_holds = _split(start, stop, lambda i: exact[i].holds)
        for lo, hi, holds in ((start, split, first_holds), (split, stop, last_holds)):
            if not holds and lo < hi:
                violated.append(range(lo, hi))
        # the run of the smallest margins: the violated one, if any
        lo, hi, positive = ((start, split, False) if not first_holds else
                            (split, stop, False) if not last_holds else
                            (start, stop, True))
        # the reported margin is M for x <= 1 and M/arctan x above, where it
        # keeps M's direction where M > 0 falls or M <= 0 rises; a piece of one
        # double has one margin
        if xs[start] <= 1.0 or not slope or rising != positive:
            end_parts.append((lo, hi, rising))
        else:
            loose_parts.append((lo, hi, positive))

    # a loose part is read from R's runs unless its lowest ratio clears the
    # smallest reported margin found: M at the end where it is smallest,
    # evaluated, and arctan at the other, where a held part's bound is not
    # evaluated.  A one-off's R rises.  A shape row's falls, then rises, where
    # S goes from - to + inside the part; otherwise its smallest lies at an
    # end, lo (evaluated for its slope) or hi - 1, and the part is kept as a
    # falling run, as run_start allows
    best = min(point.margin for point in exact.values())
    shape = cat._CATALOG[bound].consts is not None
    for lo, hi, positive in loose_parts:
        at_m, atan = ((exact[lo], _oracle_at(xs[hi - 1], digits)) if positive else
                      (exact[hi - 1], exact[lo].oracle_hp))
        if _lowest_ratio(at_m, atan, positive, side == "lower") > best:
            continue
        if shape and exact.slope_sign(lo) < 0 < exact.slope_sign(hi - 1):
            k = _first_index(lo, hi - 1, lambda i: exact.slope_sign(i) > 0)
            end_parts += [(lo, k, False), (k, hi, True)]
        else:
            end_parts.append((lo, hi, not shape))

    # each run's smallest reported margin is at its first point where it
    # rises and its last (or its evaluated first) where it falls; the first
    # of the points that share the smallest is reported, on a falling run by
    # bisection of the points that share its last point's double
    for lo, hi, rising in end_parts:
        exact[lo if rising else hi - 1]
    min_margin = min(point.margin for point in exact.values())
    first = min(i for i, point in exact.items() if point.margin == min_margin)
    for lo, hi, rising in end_parts:
        if not rising and exact[hi - 1].margin == min_margin:
            first = min(first, exact.run_start(lo, hi - 1))
    return SweepReport(bound=bound, a=a, side=side, grid=grid, digits=digits,
                       violation_runs=tuple(violated),
                       min_margin=min_margin, min_margin_x=xs[first],
                       escalated=len(exact), pieces=len(pieces))


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
    otherwise only at a root of P that is a grid point.  Regions and counts
    come from it, and so do crossovers, each between two grid points of
    opposite verdicts: the double nearest a root of P for two rows without
    a log, and for a pair with a log row the first double at which the
    earlier verdict no longer holds, which no grid that straddles it moves.

    method is "algebra" for two rows without a log and "monotone" for a
    pair with a log row.  degree is that of the polynomial whose roots cut
    the grid, P or algebra.log_pair_polynomial (-1 where P == 0), brackets
    one (lo, hi) pair of doubles per root (see algebra.Comparison), and
    pi_digits the most digits of pi a sign took.  bracket_points counts the
    grid points at a bracket's end; escalated the grid points, and
    bisection_steps the crossovers' signs, decided in fixed point.
    """

    bound_a: cat.BoundId
    bound_b: cat.BoundId
    a_a: Optional[float]
    a_b: Optional[float]
    side: str
    grid: GridSpec
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
                     grid: GridSpec = DEFAULT_GRID) -> DominanceReport:
    """Partition the grid by which of two same-side bounds is tighter.

    The grid's first point, its smallest, must be positive.  For two rows
    without a log the signs come from the roots of the comparison
    polynomial P (see algebra): the grid is read by bisection at the edges
    of its sign, and a crossover is the double nearest a root of P where
    the sign changes, strictly inside the grid's range.  A pair with a log
    row reads the grid on the pieces where the difference is monotone, with
    fixed-point signs decided past both radii from DEFAULT_SWEEP_DIGITS
    (see fixedpoint.refine), and bisects each crossover between grid points
    of opposite signs on the bit patterns, down to adjacent doubles.
    """
    side_a = cat.bound_side(bound_a)
    side_b = cat.bound_side(bound_b)
    if side_a != side_b:
        raise ParamError(
            f"dominance needs same-side bounds; {bound_a.value} is {side_a}, "
            f"{bound_b.value} is {side_b}")
    cat._check_param(bound_a, a_a)
    cat._check_param(bound_b, a_b)
    xs = grid.values()
    cat._check_x(xs[0])
    tighter = 1 if side_a == "lower" else -1     # a bigger lower bound is tighter
    # imported here, not at the top: verify must not load algebra
    from . import algebra as alg
    rows = cat._CATALOG[bound_a], cat._CATALOG[bound_b]
    p = alg.comparison_polynomial(rows[0], a_a, rows[1], a_b)
    if p is not None:
        fields = _algebraic_signs(alg.Comparison(p), xs, tighter)
    elif bound_a is bound_b:    # a log row against itself; none takes a parameter
        fields = dict(**_regions([(0, len(xs), 0)], xs, tighter), crossovers=[],
                      method="monotone")
    else:
        row, a = (rows[1], a_b) if bound_a in _LOG_ROWS else (rows[0], a_a)
        fields = _log_pair_signs(alg.Comparison(alg.log_pair_polynomial(row, a)),
                                 bound_a, bound_b, a_a, a_b, xs, tighter)
    return DominanceReport(bound_a=bound_a, bound_b=bound_b, a_a=a_a, a_b=a_b,
                           side=side_a, grid=grid, **fields)


def _regions(runs, xs: Sequence[float], tighter: int) -> dict:
    """The report's regions and counts from runs (start, stop, sign) of the
    grid's indices in order, sign that of A - B."""
    counts = {1: 0, -1: 0, 0: 0}
    regions = []
    for start, stop, sign in runs:
        if start >= stop:
            continue
        verdict = _VERDICT[tighter * sign]
        counts[tighter * sign] += stop - start
        if regions and regions[-1].verdict == verdict:
            regions[-1] = DominanceRegion(regions[-1].x_lo, xs[stop - 1], verdict)
        else:
            regions.append(DominanceRegion(xs[start], xs[stop - 1], verdict))
    return dict(regions=regions, a_tighter=counts[1], b_tighter=counts[-1],
                equal=counts[0])


def _algebraic_signs(comparison, xs: Sequence[float], tighter: int) -> dict:
    """The report's fields from the sign of P: each run of grid points
    between two edges has one sign, found by bisection, with no pass over the
    grid."""
    cuts = [0, *(bisect_right(xs, edge) for edge in comparison.edges), len(xs)]
    x_min, x_max = xs[0], xs[-1]
    ends = {end for bracket in comparison.brackets for end in bracket}
    return dict(
        **_regions(zip(cuts, cuts[1:], comparison.signs), xs, tighter),
        crossovers=[c for lo, hi, c in comparison.crossovers
                    if x_min <= lo and hi <= x_max and x_min < c < x_max],
        method="algebra", degree=comparison.degree,
        brackets=tuple(comparison.brackets),
        bracket_points=sum(bisect_right(xs, e) - bisect_left(xs, e) for e in ends),
        pi_digits=comparison.pi_digits)


_LOG_ROWS = (cat.BoundId.LOG_LOWER, cat.BoundId.LOG_UPPER)


def _log_pair_signs(comparison, bound_a: cat.BoundId, bound_b: cat.BoundId,
                    a_a: Optional[float], a_b: Optional[float],
                    xs: Sequence[float], tighter: int) -> dict:
    """The report's fields for a pair with a log row: the brackets of the
    comparison of its algebra.log_pair_polynomial cut the grid into pieces
    where A - B has the sign of a monotone h, with h(0+) = 0 (see the module
    docstring)."""

    def sign_at(x: float) -> int:
        """The exact sign of A(x) - B(x), from both rows' fixed-point balls."""
        ball_a, ball_b = fp.refine(
            lambda d: (cat.eval_bound_hp(bound_a, x, a_a, digits=d),
                       cat.eval_bound_hp(bound_b, x, a_b, digits=d)),
            DEFAULT_SWEEP_DIGITS, fp.separated,
            lambda: f"{bound_a.value} against {bound_b.value} at x={x!r}: the sign")
        return 1 if ball_a.units > ball_b.units else -1

    sign, steps = lru_cache(maxsize=None)(lambda i: sign_at(xs[i])), []
    cuts = [0, *(bisect_right(xs, lo) for lo, _ in comparison.brackets), len(xs)]
    runs = []
    for k, (start, stop) in enumerate(zip(cuts, cuts[1:])):
        if start < stop:
            split, first, last = (stop, sign(stop - 1), 0) if k == 0 else _split(
                start, stop, sign)
            runs += [run for run in ((start, split, first), (split, stop, last))
                     if run[0] < run[1]]
    # each crossover is the first double past a run's last point at which its
    # sign no longer holds: bisected on the bit patterns, whose order is that
    # of positive doubles, down to adjacent doubles
    crossovers = [fp._from_bits(_first_index(
                      fp._bits(xs[stop - 1]), fp._bits(xs[start]),
                      lambda bits: steps.append(bits)
                      or sign_at(fp._from_bits(bits)) != before))
                  for (_, stop, before), (start, _, after) in zip(runs, runs[1:])
                  if before != after]
    return dict(**_regions(runs, xs, tighter), crossovers=crossovers,
                method="monotone", degree=comparison.degree,
                brackets=tuple(comparison.brackets), pi_digits=comparison.pi_digits,
                escalated=sign.cache_info().currsize, bisection_steps=len(steps))
