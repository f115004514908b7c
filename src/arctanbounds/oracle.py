"""High-precision arctan reference and the grid-sweep verification engine.

The oracle evaluates arctan in integer fixed point (argument reduction plus
an alternating Taylor series, see :mod:`arctanbounds.fixedpoint`) with an
absolute error far below ``10**-digits``.

A sweep checks a catalog bound against the oracle at every grid point in
stages.  Stage 1 evaluates the bound's float form and subtracts it from
arctan in plain doubles (:mod:`arctanbounds.fastatan`, within a proven
relative 5.25 * 2**-53 of arctan), cached once per grid.  The point is
settled, the inequality holding, when that margin m exceeds a proven error
bound E: the float form's own rounding error (from the catalog), the error
of the double arctan and the rounding of the subtraction, and the
fixed-point path's own error, for which ``10**(5-digits)`` is a floor.  The
point is a proven violation when m < -E, the symmetric use of the same
bound (the adaptive filter of Shewchuk, 1997).  A settled point gets the
verdict the fixed-point path would give.  A violation settled so is counted
at once, and its fixed-point bound is computed only when the report's
listing is read.  Stage 1 keeps as minimum candidates the settled points
whose margin interval m -+ 2E has its low end at most the lowest high end
seen so far.

Where the bound touches arctan (at 0 for Shafer's 3x/(1 + 2u) and every row
with c = d + e, the margin ~ x^5/180 at a = 1/2; at infinity for the
a = 2/pi lower rows) o and b nearly cancel and stage 1 cannot settle the
point, or settles it with an interval wide enough to make it a candidate.
There stage 2 evaluates the margin directly as the row's defect series,
exact rational coefficients rounded to doubles with a proven error bound
(see :mod:`arctanbounds.series`), plus the same floor: ``floor / x`` for
log-lower, whose fixed-point error grows like 1/x.  The series settles the
point, with its interval in place of stage 1's where it is the narrower.
Stage 3 sends every other point to the fixed-point path (``eval_bound_hp``
at the sweep's digits, the catalog entry's closed form on FixedReal): points
neither stage settled, points outside [2**-500, 2**500] and non-finite float
values, then the candidates whose interval could still reach the minimum.
The fixed-point oracle is computed at those points and at the violations
listed, one point at a time and cached by point and digits.  So verdicts,
violations and the minimum margin are those of a sweep that evaluates every
point in fixed point: the minimum is taken over exact margins at every point
whose margin interval could reach it.  On the default grid and suite 30 of the
300,000 point checks reach fixed point, one per entry at its minimum margin.
The default 50 sweep digits resolve every certified margin on the default
grid with several orders to spare.  A dominance report decides the sign of
the difference of two bounds with the stage 1 filter less its floor, the
second bound taking the oracle's place, and gives every grid point that one
exact verdict.  It bisects each crossover on the bit patterns of the two
doubles, to a relative width of 1e-13 at any magnitude.

Margins are reported absolutely for x <= 1 and relative to the oracle for
x > 1 (both arctan and every bound vanish linearly at 0 and level off at
pi/2, so one convention cannot serve both ends of the grid).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

from . import catalog as cat
from . import fixedpoint as fp
from .catalog import DEFAULT_DIGITS, DEFAULT_SWEEP_DIGITS
from .errors import DomainError, ParamError


def check_digits(digits: int, what: str) -> None:
    """Raise ParamError, naming `what`, unless digits >= 20, the fewest the
    oracle and every report checked against it take."""
    if digits < 20:
        raise ParamError(f"{what} needs at least 20 digits")


def oracle_arctan(x: float, digits: int = DEFAULT_DIGITS) -> fp.FixedReal:
    """arctan of the exact value of the double x, to `digits` decimal digits.

    The absolute error is below 10**-digits (the internal computation carries
    ten guard digits).  Returns a FixedReal; ``float()`` it for a correctly
    rounded double.
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
        inner = (math.exp(lo + (hi - lo) * i / (n - 1)) for i in range(1, n - 1))
    else:
        # halves keep hi/2 - lo/2 finite for any finite ends, every step is
        # monotone in i, and the clamp holds each point in [x_min, x_max]
        lo, hi = grid.x_min, grid.x_max
        half = hi / 2 - lo / 2
        inner = (min(max(2 * (lo / 2 + half * (i / (n - 1))), lo), hi)
                 for i in range(1, n - 1))
    return (grid.x_min, *inner, grid.x_max)


#: Default verification grid: both limiting regimes (x -> 0 and x -> inf) are
#: where the bound constants are attained, so the grid spans them widely.
DEFAULT_GRID = GridSpec(1e-8, 1e8, 10_000, "log")


@lru_cache(maxsize=1 << 14)
def _oracle_at(x: float, digits: int) -> fp.FixedReal:
    """The fixed-point oracle at one point, for the points a sweep evaluates
    in fixed point and the violations it lists; its misses count them.  It
    holds a 10k-point grid, so where a grid's points all escalate a suite's
    sweeps share one value per point, as they shared the grid's tuple."""
    return oracle_arctan(x, digits)


@lru_cache(maxsize=8)
def _fast_atan_on_grid(grid: GridSpec) -> memoryview:
    """fast_atan at every grid point in [FLOAT_FORM_MIN, FLOAT_FORM_MAX], NaN
    outside, packed 8 bytes a point (a float object in a tuple takes 32)."""
    # imported on first use, as sweep imports the series
    from .fastatan import fast_atan
    lo, hi = cat.FLOAT_FORM_MIN, cat.FLOAT_FORM_MAX
    doubles = [fast_atan(x) if lo <= x <= hi else math.nan for x in grid.values()]
    return memoryview(struct.pack(f"{len(doubles)}d", *doubles)).cast("d")


def _reported_margin(x: float, margin: float, oracle_value: float) -> float:
    return margin if x <= 1.0 else margin / oracle_value


def _exact_point(bound: cat.BoundId, a: Optional[float], side: str, x: float,
                 oracle_hp: fp.FixedReal, digits: int) -> tuple[float, float, bool]:
    """(bound, reported margin, holds) at x from the fixed-point path: the
    bound's double, the margin as reported, and whether it is positive.
    Raises DomainError where the bound or the margin does not fit a double."""
    bound_hp = cat.eval_bound_hp(bound, x, a, digits=digits)
    diff = oracle_hp.units - bound_hp.units
    if side == "upper":
        diff = -diff
    # float(FixedReal) divides the units by the scale, correctly rounded
    try:
        margin = _reported_margin(x, diff / bound_hp.scale, float(oracle_hp))
        return float(bound_hp), margin, diff > 0
    except OverflowError:
        raise DomainError(f"{bound.value} at x={x!r}: the bound or its margin "
                          f"does not fit a double") from None


@dataclass(frozen=True)
class SweepReport:
    """Outcome of checking one bound against the oracle over a grid.

    violation_at holds, in grid order, the index of every grid point with a
    non-positive margin; the report is clean iff it is empty iff min_margin >
    0.  violations lists (x, bound, oracle) for them, bound from the
    fixed-point path, and violations_listed(n) the first n of them; the
    fixed-point bound is computed when the listing is read, and only for the
    violations listed.
    escalated counts the grid points the sweep evaluated in fixed point, the
    candidates for the minimum margin included, and series the grid points
    the row's defect series settled.  min_margin is signed so that positive
    means the inequality holds.
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
    series: int

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
            x = xs[i]
            oracle_hp = _oracle_at(x, self.digits)
            bound_f = _exact_point(self.bound, self.a, self.side, x, oracle_hp,
                                   self.digits)[0]
            listed.append((x, bound_f, float(oracle_hp)))
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


def sweep(bound: cat.BoundId, a: Optional[float] = None,
          grid: GridSpec = DEFAULT_GRID,
          digits: int = DEFAULT_SWEEP_DIGITS) -> SweepReport:
    """Check one bound's containment claim at every grid point.

    For a lower bound, a violation is bound >= arctan; for an upper bound,
    bound <= arctan; the side is the catalog's.  The three stages are
    described in the module docstring.
    """
    side = cat.bound_side(bound)
    check_digits(digits, "sweep")
    fn, float_error = cat.float_form(bound, a)

    xs = grid.values()
    oracle_f = _fast_atan_on_grid(grid)
    lower = side == "lower"
    float_lo, float_hi = cat.FLOAT_FORM_MIN, cat.FLOAT_FORM_MAX
    # E = float_error + (K + 4)u(o + |b|) + floor, K = FAST_ATAN_K: o, the
    # double of fast_atan, is within Ku o of arctan x, and o - b rounds once,
    # by at most u(o + |b|); floor covers the fixed-point path's own error, a
    # few units of 10**-digits (10**-digits <= 10**-20 is far below u, so
    # where that error grows with x or 1/x, for the cubic and log entries,
    # their float bounds grow faster)
    from .fastatan import FAST_ATAN_K
    k4_u = (FAST_ATAN_K + 4) * 2.0 ** -53
    floor = 10.0 ** (5 - digits)

    # stage 1: settle m > E (holds) and m < -E (violated) in double.  A
    # settled point's reported margin lies within rad = 2E of its estimate
    # (for x > 1 both are divided by o).  The estimate m is within
    # float_error + Ku o + u(o + |b|) + floor of the fixed-point margin, and
    # 2E exceeds that by (K + 7)u(o + |b|) >= (K + 6)u|m|.  That covers the
    # reported margin's three roundings (the fixed-point margin's double, the
    # oracle's and their quotient), the division by o in place of arctan x (a
    # relative Ku, so Ku|m|) and the two roundings of m/o - 2E/o, with u|m|
    # to spare.  Only a point whose low end is at most the running min_high
    # can hold the minimum, and min_high only falls.  Every bound and arctan
    # lie below 2x near 0, so |m| > floor puts x far above the half unit
    # below which eval_bound_hp raises, and b is finite: listing a settled
    # violation later never raises.  Stage 2, the defect series, runs on the
    # points stage 1 leaves unsettled or as candidates, in the series' domain;
    # its E carries the floor and at least 18u|m| > (K + 5)u|m| as well, so
    # the same 2E holds.
    escalate = []
    violated = []
    candidates = []     # (index, lowest possible reported margin)
    min_high = math.inf
    # imported on first use: only sweeps need the series, so importing the
    # package (every CLI command, the kernel) does not load it
    from . import series as ser
    series = ser.margin_evaluator(bound, a)
    series_lo, series_hi = (series.x_min, series.x_max) if series else (math.inf, 0.0)
    settled_by_series = 0
    for i, x in enumerate(xs):
        o = oracle_f[i]
        m = e = math.nan
        if float_lo <= x <= float_hi:
            b = fn(x)
            m = o - b if lower else b - o
            e = float_error(x, b) + k4_u * (o + abs(b)) + floor
        scale = o if x > 1.0 else 1.0
        if m > e or m < -e:
            if m / scale - 2 * e / scale > min_high:    # settled, not a candidate
                if m < -e:
                    violated.append(i)
                continue
        if series_lo <= x <= series_hi:
            m_s, e_s = series.margin(x, floor)
            if (m_s > e_s or m_s < -e_s) and not e_s >= e:
                m, e = m_s, e_s
                settled_by_series += 1
        if not m > e:
            if not m < -e:      # unsettled, or NaN
                escalate.append(i)
                continue
            violated.append(i)
        m, rad = m / scale, 2 * e / scale
        if m + rad < min_high:
            min_high = m + rad
        if m - rad <= min_high:
            candidates.append((i, m - rad))

    # stage 3: the fixed-point path for the escalated points, then for the
    # candidates whose reported margin could still be the smallest
    exact = {}
    for i in escalate:
        _, margin, holds = _exact_point(bound, a, side, xs[i], _oracle_at(xs[i], digits),
                                        digits)
        exact[i] = margin
        if not holds:
            violated.append(i)
        if margin < min_high:
            min_high = margin
    for i, low in candidates:
        if low <= min_high:
            exact[i] = _exact_point(bound, a, side, xs[i], _oracle_at(xs[i], digits),
                                    digits)[1]

    min_margin = math.inf
    min_x = xs[0]
    for i in sorted(exact):
        if exact[i] < min_margin:
            min_margin = exact[i]
            min_x = xs[i]
    return SweepReport(bound=bound, a=a, side=side, grid=grid, digits=digits,
                       violation_at=tuple(sorted(violated)),
                       min_margin=min_margin, min_margin_x=min_x,
                       escalated=len(exact), series=settled_by_series)


@dataclass(frozen=True)
class DominanceRegion:
    x_lo: float
    x_hi: float
    verdict: str  # "a" | "b" | "equal"


@dataclass(frozen=True)
class DominanceReport:
    """Pointwise tightness comparison of two same-side bounds.

    Each grid point has one verdict, the exact sign of the difference of the
    two bounds: "a" or "b" where that bound is strictly tighter, "equal" only
    where both fixed-point values agree to the unit.  Regions, crossovers and
    counts all come from it.  escalated counts the grid points, and
    escalated_steps the bisection_steps, whose sign the fixed-point path
    decided.
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
    escalated: int
    bisection_steps: int
    escalated_steps: int

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

    sign_at(x) gives every verdict and every bisection step: +1 if A is
    strictly tighter, -1 if B is, 0 on an exact fixed-point tie.  It settles
    the sign in double past sweep's threshold without its floor, the second
    bound taking the oracle's place; unsettled margins, x outside the float
    forms' range and non-finite values (whose comparison is false) go to
    eval_bound_hp.
    Crossovers are bisected between adjacent non-tied points that flip.
    """
    side_a = cat.bound_side(bound_a)
    side_b = cat.bound_side(bound_b)
    if side_a != side_b:
        raise ParamError(
            f"dominance needs same-side bounds; {bound_a.value} is {side_a}, "
            f"{bound_b.value} is {side_b}")
    side = side_a
    check_digits(digits, "dominance")
    fn_a, error_a = cat.float_form(bound_a, a_a)
    fn_b, error_b = cat.float_form(bound_b, a_b)
    tighter = 1 if side == "lower" else -1     # a bigger lower bound is tighter
    four_u = 2.0 ** -51
    calls = escalated = 0

    def sign_at(x: float) -> int:
        nonlocal calls, escalated
        calls += 1
        if cat.FLOAT_FORM_MIN <= x <= cat.FLOAT_FORM_MAX:
            fa, fb = fn_a(x), fn_b(x)
            d = fa - fb
            # fa and fb are float forms at the same double x, each within its
            # proven error bound of the exact bound, and 4u(|fa| + |fb|) covers
            # the rounding of d: past this, d has the exact sign of A(x) - B(x),
            # and as no fixed-point value enters (unlike sweep) no floor is due.
            if abs(d) > (error_a(x, fa) + error_b(x, fb)
                         + four_u * (abs(fa) + abs(fb))):
                return tighter if d > 0 else -tighter
        escalated += 1
        d = (cat.eval_bound_hp(bound_a, x, a_a, digits=digits).units
             - cat.eval_bound_hp(bound_b, x, a_b, digits=digits).units)
        return 0 if d == 0 else (tighter if d > 0 else -tighter)

    xs = grid.values()
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
            crossovers.append(_bisect_crossover(sign_at, xs[prev], xs[i], signs[prev]))
        prev = i

    return DominanceReport(
        bound_a=bound_a, bound_b=bound_b, a_a=a_a, a_b=a_b, side=side,
        grid=grid, digits=digits, regions=regions, crossovers=crossovers,
        a_tighter=signs.count(1), b_tighter=signs.count(-1), equal=signs.count(0),
        escalated=grid_escalated, bisection_steps=calls - len(xs),
        escalated_steps=escalated - grid_escalated)


_DOUBLE = struct.Struct("<d")
_BITS = struct.Struct("<q")


def _bits(x: float) -> int:
    return _BITS.unpack(_DOUBLE.pack(x))[0]


def _from_bits(bits: int) -> float:
    return _DOUBLE.unpack(_BITS.pack(bits))[0]


def _bisect_crossover(sign_at, lo: float, hi: float, s_lo: int) -> float:
    """A point within relative width 1e-13 of where sign_at leaves s_lo, for
    0 < lo < hi.  Bisects the IEEE bit patterns, whose order is the numeric
    order of positive doubles, so every step halves the doubles in between
    and at most 64 steps reach adjacent doubles, at any magnitude."""
    lo_bits, hi_bits = _bits(lo), _bits(hi)
    while hi_bits - lo_bits > 1 and hi - lo > 1e-13 * hi:
        mid_bits = (lo_bits + hi_bits) // 2
        mid = _from_bits(mid_bits)
        s_mid = sign_at(mid)
        if s_mid == 0:
            return mid
        if s_mid == s_lo:
            lo, lo_bits = mid, mid_bits
        else:
            hi, hi_bits = mid, mid_bits
    return _from_bits((lo_bits + hi_bits) // 2)
