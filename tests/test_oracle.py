import bisect
import json
import math
import os
import random
import re
import struct
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import arctanbounds.catalog
from arctanbounds import (
    DEFAULT_GRID,
    DEFAULT_KERNEL,
    TWO_OVER_PI,
    ArctanBoundsError,
    BoundId,
    DomainError,
    GridSpec,
    ParamError,
    PrecisionError,
    dominance_report,
    error_profile,
    eval_bound_hp,
    oracle_arctan,
    sweep,
)
from arctanbounds.catalog import bound_side
from arctanbounds import cli
from arctanbounds import oracle as orc
from arctanbounds.cli import _suite_entries
from arctanbounds.fixedpoint import FixedReal, double_of

GRID = GridSpec(1e-8, 1e8, 400, "log")
DBL_MAX = 1.7976931348623157e308


@pytest.fixture
def fixed_point_calls(monkeypatch) -> list:
    """The x of every eval_bound_hp call the package makes through the
    catalog module, as sweeps and dominance reports do (the references here
    call the function they imported, and are not counted)."""
    calls = []
    original = arctanbounds.catalog.eval_bound_hp

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(arctanbounds.catalog, "eval_bound_hp", counting)
    return calls


class TestOracle:
    def test_known_points(self):
        PI = Fraction("3.14159265358979323846264338327950288419716939937511")
        assert abs(oracle_arctan(1.0, 30).as_fraction() - PI / 4) < Fraction(1, 10**30)
        assert oracle_arctan(0.0, 30).units == 0

    def test_odd(self):
        assert oracle_arctan(-3.7, 25).units == -oracle_arctan(3.7, 25).units

    def test_digit_floor(self):
        with pytest.raises(ParamError):
            oracle_arctan(1.0, 19)

    def test_finite_only(self):
        with pytest.raises(DomainError):
            oracle_arctan(math.inf, 30)

    def test_ints_past_the_doubles_raise(self):
        # math.isfinite(10**400) raised a bare OverflowError; the argument
        # is compared exactly with DBL_MAX
        for x in (10 ** 400, -10 ** 400, math.nan, -math.inf):
            with pytest.raises(DomainError):
                oracle_arctan(x, 30)
        assert oracle_arctan(-DBL_MAX, 30).units == -oracle_arctan(DBL_MAX, 30).units
        assert oracle_arctan(10 ** 300, 30) == oracle_arctan(1e300, 30)
        assert oracle_arctan(0, 30).units == oracle_arctan(-0.0, 30).units == 0

    @given(st.one_of(st.floats(1.0, 5000.0).filter(lambda d: not d.is_integer()),
                     st.fractions(1, 5000).filter(lambda d: d.denominator > 1)),
           st.integers(2 ** 1024, 2 ** 1100))
    @settings(max_examples=60, deadline=None)
    def test_non_integer_digits_and_points_raise(self, size, huge):
        # digits and grid sizes are whole numbers, and grid ends finite
        # doubles: each other value is a package error, never a bare
        # TypeError, ValueError or OverflowError, nor a grid built anyway
        grid = GridSpec(1.0, 10.0, 5)
        for call in (lambda: oracle_arctan(1.0, size),
                     lambda: sweep(BoundId.SHAFER_LOWER, grid=grid, digits=size),
                     lambda: error_profile(DEFAULT_KERNEL, grid, size),
                     lambda: FixedReal(1.0, size),
                     lambda: GridSpec(1e-8, 1e8, size),
                     lambda: GridSpec(1, huge, 10),
                     lambda: GridSpec(-huge, 1.0, 10, "linear")):
            with pytest.raises(ArctanBoundsError):
                call()

    def test_thirty_forty_agreement(self):
        for x in [-12345.678, -1.0, 1e-5, 0.5, 99.0]:
            a30 = oracle_arctan(x, 30).as_fraction()
            a40 = oracle_arctan(x, 40).as_fraction()
            assert abs(a30 - a40) < Fraction(1, 10**28)


class TestGridSpec:
    def test_values_hit_endpoints(self):
        xs = GridSpec(1e-8, 1e8, 100, "log").values()
        assert xs[0] == 1e-8 and xs[-1] == 1e8 and len(xs) == 100

    def test_linear(self):
        xs = GridSpec(0.0, 1.0, 5, "linear").values()
        assert tuple(xs) == (0.0, 0.25, 0.5, 0.75, 1.0)

    @pytest.mark.parametrize("grid", [
        GridSpec(-1e308, 1e308, 5, "linear"),
        GridSpec(1.0, 1e308, 5, "linear"),
        GridSpec(-DBL_MAX, DBL_MAX, 1001, "linear"),
        GridSpec(5e-324, 2e-323, 7, "linear"),
        GridSpec(0.5, 0.5 * (1 + 1e-14), 40, "linear"),
        GridSpec(-3.0, 7.0, 101, "linear"),
    ], ids=repr)
    def test_linear_points_finite_ordered_inside(self, grid):
        # (hi - lo) * i used to overflow first: (-1e308, inf, inf, inf, 1e308)
        xs = grid.values()
        assert len(xs) == grid.points and xs[0] == grid.x_min and xs[-1] == grid.x_max
        assert all(math.isfinite(x) and grid.x_min <= x <= grid.x_max for x in xs)
        assert all(a <= b for a, b in zip(xs, xs[1:]))

    @staticmethod
    def closed_form(grid):
        """The grid's points from their formulas, sorted only where they come
        out of order."""
        lo, hi, n = grid.x_min, grid.x_max, grid.points
        if grid.spacing == "log":
            lo, hi = math.log(lo), math.log(hi)
            inner = [math.exp(lo + (hi - lo) * i / (n - 1)) for i in range(1, n - 1)]
        else:
            inner = [min(max(2 * (lo / 2 + (hi / 2 - lo / 2) * (i / (n - 1))), lo), hi)
                     for i in range(1, n - 1)]
        values = (grid.x_min, *inner, grid.x_max)
        return values if list(values) == sorted(values) else tuple(sorted(values))

    def test_values_match_the_closed_form(self):
        def few_ulps(x, ulps):      # [x - ulps ulps, x + ulps ulps]
            lo = hi = x
            for _ in range(ulps):
                lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
            return lo, hi

        rng = random.Random(26)
        # the grids around 1e88 and 1e-200 come out of order before the sort
        grids = [GridSpec(*few_ulps(x, ulps), n, "log") for x in (1.0, 1e88, 1e-200)
                 for ulps in (2, 8) for n in (5, 29, 2000)]
        grids += [GridSpec(5e-324, DBL_MAX, 2000, "log"), GridSpec(1e-300, DBL_MAX, 3001, "log"),
                  GridSpec(-1e308, 1e308, 5, "linear"), GridSpec(-1e308, 1e308, 2000, "linear"),
                  GridSpec(-3.0, 7.0, 1001, "linear")]
        for _ in range(40):
            x_min = 10 ** rng.uniform(-300, 300)
            x_max = x_min * 10 ** rng.uniform(1e-14, 20)
            grids.append(GridSpec(x_min, min(x_max, DBL_MAX), rng.randint(2, 3000), "log"))
        for grid in grids:
            xs, expected = grid.values(), list(map(repr, self.closed_form(grid)))
            n = len(expected)
            # repr tells every double apart, -0.0 from 0.0 among them; point
            # i is read alone, from either end, in slices and in a pass
            assert len(xs) == n and list(map(repr, xs)) == expected, grid
            assert [repr(xs[i]) for i in range(n)] == expected, grid
            assert [repr(xs[i]) for i in range(-n, 0)] == expected, grid
            for cut in (slice(None), slice(1, -1), slice(None, None, 7), slice(-3, None),
                        slice(n // 2, 2, -3), slice(5, 2)):
                assert list(map(repr, xs[cut])) == expected[cut], (grid, cut)
            for i in (n, -n - 1):
                with pytest.raises(IndexError):
                    xs[i]

    @pytest.mark.parametrize("grid", [
        GridSpec(1e-8, 1e8, 10 ** 6, "log"),
        # a log-step of 1e-10, below 2**-30, on a range of 1e-4
        GridSpec(1.0, 1.0001, 10 ** 6, "log"),
    ], ids=["wide", "dense"])
    def test_a_million_point_sweep_builds_no_grid(self, grid):
        # a sweep reads a few dozen points of the grid, each computed when
        # read; the 10**6 points would take about 32 MB as a tuple
        tracemalloc.start()
        try:
            reports = [sweep(bound, a, grid) for bound, a in _suite_entries("family")]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(report.ok for report in reports)
        assert peak < 1 << 20

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-300.0, 300.0), st.floats(-1.0, 6.0), st.integers(2, 10 ** 5))
    def test_dense_log_grids_are_sorted(self, exponent, above, points):
        # log-steps from half to 64 times 2**-47 (|log x_min| + 1), around the
        # least that keeps a grid indexed, points computed when read
        x_min = 10.0 ** exponent
        step = 2.0 ** (above - 47) * (abs(math.log(x_min)) + 1)
        x_max = x_min * math.exp(step * (points - 1))
        if not x_min < x_max:
            x_max = math.nextafter(x_min, math.inf)
        grid = GridSpec(x_min, x_max, points, "log")
        xs = grid.values()
        values = list(xs)
        assert values == sorted(values) and values[0] == x_min and values[-1] == x_max
        assert values == list(self.closed_form(grid))
        if above >= 0.1:
            assert type(xs) is orc._GridPoints, grid

    @staticmethod
    @st.composite
    def grids_and_cuts(draw):
        """A grid, log or linear, with subnormal or DBL_MAX ends, linear
        through 0, or built whole as a tuple, and a value to cut it at: a
        point, its neighbours, 0, inf, or one below or above its ends."""
        n = draw(st.one_of(st.integers(2, 40), st.integers(2, 5000)))
        ends = st.one_of(st.floats(5e-324, 1e-300), st.floats(1e-300, 1e300),
                         st.sampled_from([5e-324, 2.2250738585072014e-308, 1.0, DBL_MAX]))
        kind = draw(st.sampled_from(["log", "linear", "through-0", "narrow"]))
        if kind == "through-0":
            lo, hi = -draw(ends), draw(ends)
        else:
            lo = draw(ends)
            hi = draw(st.one_of(ends, st.floats(0.0, 64.0).map(
                lambda e: lo * (1 + 2.0 ** -e) ** (1 if kind != "narrow" else 1e-9))))
            hi = min(max(hi, math.nextafter(lo, math.inf)), DBL_MAX)
            lo = min(lo, math.nextafter(hi, 0.0))
        grid = GridSpec(lo, hi, n, "log" if kind in ("log", "narrow") else "linear")
        points = tuple(grid.values())
        x = points[draw(st.integers(0, n - 1))]
        t = draw(st.sampled_from([
            x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf), 0.0, math.inf,
            math.nextafter(lo, -math.inf), lo / 2 if lo > 0 else 2 * lo,
            math.nextafter(hi, math.inf), min(2 * hi, DBL_MAX)]))
        return grid, points, t

    @settings(max_examples=400, deadline=None)
    @given(grids_and_cuts())
    # x_max/2 - x_min/2 rounds to 0: every inner point is x_max
    @example((GridSpec(1.5e-323, 2e-323, 50, "linear"), (1.5e-323,) + (2e-323,) * 49,
              2e-323))
    def test_cuts_match_bisect_on_the_materialised_grid(self, drawn):
        # a grid is cut by bisection on its points, each computed as it is
        # read: the cuts are those of the whole grid built as a tuple
        grid, points, t = drawn
        xs = grid.values()
        for find in (bisect.bisect_left, bisect.bisect_right):
            assert find(xs, t) == find(points, t), (grid, t, find)

    def test_validation(self):
        with pytest.raises(ParamError):
            GridSpec(1.0, 2.0, 1)
        with pytest.raises(ParamError):
            GridSpec(2.0, 1.0, 10)
        with pytest.raises(ParamError):
            GridSpec(0.0, 1.0, 10, "log")
        with pytest.raises(ParamError):
            GridSpec(1.0, 2.0, 10, "cubic")

    def test_narrow_log_grid_is_sorted(self):
        # its inner points, rounded, came out of order; dominance reads a grid
        # by bisection
        grid = GridSpec(2.7596842767200224e+88, 2.75968427672005e+88, 29, "log")
        xs = grid.values()
        assert list(xs) == sorted(xs) and len(xs) == 29
        report = dominance_report(BoundId.TWO_OVER_PI_LOWER, BoundId.SHAFER_LOWER, grid=grid)
        assert report.a_tighter == 29


class TestSweep:
    def test_shafer_clean(self):
        report = sweep(BoundId.SHAFER_LOWER, grid=GRID)
        assert report.ok
        assert report.violations == []
        assert report.min_margin > 0
        assert report.side == bound_side(BoundId.SHAFER_LOWER) == "lower"

    def test_identity_upper_clean(self):
        report = sweep(BoundId.IDENTITY_UPPER, grid=GRID)
        assert report.ok and report.min_margin > 0
        assert report.side == bound_side(BoundId.IDENTITY_UPPER) == "upper"

    def test_errata_violations(self):
        report = sweep(BoundId.TWO_OVER_PI_LOWER_ERRATA, grid=GRID)
        assert not report.ok
        assert len(report.violations) > 0
        assert report.min_margin <= 0

    def test_violations_iff_nonpositive_margin(self):
        clean = sweep(BoundId.CUBIC_LOWER, grid=GRID)
        dirty = sweep(BoundId.TWO_OVER_PI_LOWER_ERRATA, grid=GRID)
        assert (not clean.violations) == (clean.min_margin > 0)
        assert (not dirty.violations) == (dirty.min_margin > 0)

    def test_param_validation_propagates(self):
        with pytest.raises(ParamError):
            sweep(BoundId.FAMILY_LOWER, a=0.7, grid=GRID)
        with pytest.raises(ParamError):
            sweep(BoundId.FAMILY_LOWER, grid=GRID)  # missing a
        with pytest.raises(ParamError, match="past the largest double"):
            dominance_report(BoundId.REVERSED_LOWER, BoundId.FAMILY_LOWER,
                             a_a=10 ** 400, a_b=0.5, grid=GRID)

    @pytest.mark.parametrize("x_min", [-1.0, 0.0])
    def test_grids_from_a_non_positive_point_raise(self, x_min):
        # the bounds are stated for x > 0 only: a grid that
        # starts there is refused, naming that point, by every suite entry and
        # every dominance pair
        grid = GridSpec(x_min, 2.0, 41, "linear")
        message = re.escape(f"bounds are stated for x > 0, got {x_min!r}")
        for bound, a in _suite_entries("all"):
            with pytest.raises(DomainError, match=message):
                sweep(bound, a=a, grid=grid)
        for pair in DOMINANCE_PAIRS:
            with pytest.raises(DomainError, match=message):
                dominance_report(*pair, grid=grid)

    @pytest.mark.parametrize("digits,message", [(10, "at least 20 digits"),
                                                (4097, "at most 4096")])
    def test_starting_digits_are_checked_before_the_oracle(self, monkeypatch, digits,
                                                           message):
        # they once ran for seconds to minutes at 20,000 digits and more
        def no_oracle(x, digits):
            raise AssertionError("oracle_arctan called before the digits check")
        monkeypatch.setattr(orc, "oracle_arctan", no_oracle)
        with pytest.raises(ParamError, match=message):
            sweep(BoundId.SHAFER_LOWER, grid=GridSpec(1e-8, 1e8, 50), digits=digits)

    def test_starting_digits_at_the_cap_run(self):
        report = sweep(BoundId.SHAFER_LOWER, grid=GridSpec(1e-8, 1e8, 2), digits=4096)
        assert report.ok and report.digits == 4096

    def test_json_round_trip(self):
        report = sweep(BoundId.LOG_LOWER, grid=GridSpec(0.1, 10, 16, "log"))
        payload = report.to_json_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["ok"] is True
        assert payload["trusted"] is True


def rounded_once(evaluate, digits):
    """The doubles that the exact values of the balls evaluate(d) returns
    round to: at `digits`, twice them and so on, until double_of gives one
    for each ball."""
    while True:
        try:
            doubles = [double_of(ball) for ball in evaluate(digits)]
            if None not in doubles:
                return doubles
        except PrecisionError:
            pass
        digits *= 2


def exact_margin(bound, a, x, digits):
    """The reported margin at x, the exact M (or M/arctan x for x > 1)
    rounded once, from balls at `digits`, twice them and so on."""
    lower = bound_side(bound) == "lower"

    def margin(d):
        b, o = eval_bound_hp(bound, x, a, digits=d), oracle_arctan(x, d)
        m = o - b if lower else b - o
        return (m if x <= 1.0 else m / o,)
    return rounded_once(margin, digits)[0]


def reference_sweep(bound, a, grid, digits, oracle):
    """Every grid point through the fixed-point path: the per-point loop that
    the filtered sweep replaced, with its verdicts at `digits`.  Returns
    (violations, min_margin, min_margin_x), each reported number the exact
    value rounded once."""
    side = bound_side(bound)
    xs = grid.values()
    violations = []
    min_margin, min_x = math.inf, xs[0]
    for x, oracle_hp in zip(xs, oracle):
        bound_hp = eval_bound_hp(bound, x, a, digits=digits)
        diff = (oracle_hp - bound_hp) if side == "lower" else (bound_hp - oracle_hp)
        if diff.units <= 0:
            violations.append((x, *rounded_once(
                lambda d: (eval_bound_hp(bound, x, a, digits=d), oracle_arctan(x, d)),
                digits)))
        margin = exact_margin(bound, a, x, digits)
        if margin < min_margin:
            min_margin, min_x = margin, x
    return violations, min_margin, min_x


def resolving_digits(x: float) -> int:
    """Digits at which every suite entry's margin at x is many radii wide:
    the thinnest margins are ~x**5/180 near 0 and ~1/x**2 near infinity.  A
    power of two, so that few arctan tables are built."""
    e = math.floor(math.log10(x))
    return 1 << (39 + (-6 * e if e < 0 else 2 * e)).bit_length()


def resolved_sweep(bound, a, grid, oracle):
    """Every grid point through the fixed-point path at resolving_digits(x),
    with `oracle` its oracle values there, each margin more than 10**6 times
    the two radii: (violation indices, min margin, min_margin_x) of the
    exact margins.  OverflowError where the sweep raises DomainError: a bound
    that does not fit a double, or a smallest margin that is positive and
    rounds to 0.0."""
    side = bound_side(bound)
    violations, margins = [], []
    for i, x in enumerate(grid.values()):
        oracle_hp = oracle[x]
        bound_hp = eval_bound_hp(bound, x, a, digits=oracle_hp.digits)
        diff = oracle_hp.units - bound_hp.units
        if side == "upper":
            diff = -diff
        assert abs(diff) > 10 ** 6 * (oracle_hp.err + bound_hp.err), (bound, a, x)
        float(bound_hp)
        margin = diff / bound_hp.scale
        margins.append(margin if x <= 1.0 else margin / float(oracle_hp))
        if diff < 0:
            violations.append(i)
    min_margin = min(margins)
    if min_margin == 0.0 and not violations:
        raise OverflowError("the smallest margin rounds to 0.0")
    return violations, min_margin, grid.values()[margins.index(min_margin)]


def certified_radius(bound, a, x, digits):
    """The two radii, as a reported margin, where the sweep decides x: at
    `digits` or at twice them and so on, past the radii."""
    while True:
        try:
            bound_hp = eval_bound_hp(bound, x, a, digits=digits)
            oracle_hp = oracle_arctan(x, digits)
            if abs(oracle_hp.units - bound_hp.units) > oracle_hp.err + bound_hp.err:
                radius = (oracle_hp.err + bound_hp.err) / 10 ** digits
                return radius if x <= 1.0 else radius / float(oracle_hp)
        except PrecisionError:
            pass
        digits *= 2


WIDE_GRID = GridSpec(1e-8, 1e8, 2000, "log")
#: (grid, digits, most escalated share allowed, against resolved_sweep).
#: Where a margin lies within a unit of 10**-digits, reference_sweep at the
#: sweep's digits reads it as a violation; those cases are checked against
#: resolved_sweep instead: the same verdicts and min_margin_x, and
#: min_margin within the radii where the sweep decided it.
FILTER_CASES = [
    (WIDE_GRID, 20, 0.3, True),
    (WIDE_GRID, 30, 0.3, True),
    (WIDE_GRID, 50, 0.3, False),
    # x = 1e-300 is zero units at 50 digits; where a certified margin rounds
    # to 0.0 in a double, the sweep raises DomainError
    (GridSpec(1e-300, 1e300, 200, "log"), 50, 1.0, True),
    # past the float forms' range guard, and x*x overflow above ~1.3e154;
    # cubic-lower's bound overflows a double
    (GridSpec(1e-40, 1e300, 200, "log"), 50, 1.0, True),
    # margins a few ulps apart, so only exact values can order them
    (GridSpec(0.5, 0.5 * (1 + 1e-14), 40, "linear"), 50, 1.0, False),
    (GridSpec(1e3, 1e3 * (1 + 1e-14), 40, "linear"), 50, 1.0, False),
    # above x ~ 1e17 the reported ratios of a loose piece share a few doubles
    # across the grid, read at their runs' ends: at most 200 points in all;
    # margins below 10**-50 there
    (GridSpec(1.7360934399722822e+20, 1.1550183439139088e+56, 1000), 50, 200 / 30_000,
     True),
]


class TestFilteredSweepMatchesReference:
    @pytest.mark.parametrize("grid,digits,max_share,resolved", FILTER_CASES,
                             ids=["wide-20", "wide-30", "wide-50", "extreme-50",
                                  "huge-50", "near-ties-0.5", "near-ties-1e3", "far-50"])
    def test_every_suite_entry(self, grid, digits, max_share, resolved):
        if resolved:
            oracle = {x: oracle_arctan(x, resolving_digits(x)) for x in grid.values()}
        else:
            oracle = [oracle_arctan(x, digits) for x in grid.values()]
        escalated = 0
        for bound, a in _suite_entries("all"):
            try:
                if resolved:
                    expected = resolved_sweep(bound, a, grid, oracle)
                else:
                    expected = reference_sweep(bound, a, grid, digits, oracle)
            except (ArithmeticError, ArctanBoundsError) as exc:
                # the fixed-point path fails where x rounds to zero units
                # (PrecisionError) or a bound or margin does not fit a double
                # (OverflowError here); the sweep raises a package error
                if isinstance(exc, ArctanBoundsError):
                    with pytest.raises(type(exc), match=re.escape(str(exc))):
                        sweep(bound, a=a, grid=grid, digits=digits)
                else:
                    with pytest.raises(DomainError, match="does not fit a double"):
                        sweep(bound, a=a, grid=grid, digits=digits)
                continue
            violations, min_margin, min_x = expected
            report = sweep(bound, a=a, grid=grid, digits=digits)
            escalated += report.escalated
            if resolved:
                assert [i for run in report.violation_runs for i in run] == violations, (
                    bound, a)
                assert report.min_margin_x == min_x, (bound, a)
                assert abs(report.min_margin - min_margin) <= (
                    certified_radius(bound, a, min_x, digits) + 4 * math.ulp(min_margin))
                continue
            reference = report.to_json_dict()
            reference.update(
                violations=[{"x": x, "bound": b, "oracle": o} for x, b, o in violations],
                violation_count=len(violations), min_margin=min_margin,
                min_margin_x=min_x, ok=not violations)
            assert report.to_json_dict() == reference, (bound, a)
            assert report.violations == violations, (bound, a)
        assert escalated <= max_share * grid.points * len(_suite_entries("all"))


class TestSettledViolations:
    """A margin below -E is a proven violation: counted in double, its
    fixed-point bound computed only when the listing is read."""

    def test_errata_violations_stay_in_double(self, fixed_point_calls):
        calls = fixed_point_calls
        report = sweep(BoundId.TWO_OVER_PI_LOWER_ERRATA, grid=DEFAULT_GRID)
        assert report.violation_count == DEFAULT_GRID.points
        assert len(calls) < 0.05 * DEFAULT_GRID.points
        assert len(calls) == report.escalated
        calls.clear()
        listed = report.violations_listed(25)
        assert [x for x, _, _ in listed] == list(DEFAULT_GRID.values()[:25])
        assert len(calls) <= 25

    def test_cli_lists_first_25(self, capsys, monkeypatch):
        grid = GridSpec(1e-8, 1e8, 300, "log")
        oracle = [oracle_arctan(x, 50) for x in grid.values()]
        reference, _, _ = reference_sweep(BoundId.TWO_OVER_PI_LOWER_ERRATA, None,
                                          grid, 50, oracle)
        digits = []     # of every eval_bound_hp call through the catalog module
        original = arctanbounds.catalog.eval_bound_hp
        monkeypatch.setattr(arctanbounds.catalog, "eval_bound_hp",
                            lambda *args, **kwargs: digits.append(kwargs["digits"])
                            or original(*args, **kwargs))
        assert cli.main(["verify", "--suite", "fixed", "--grid-points", "300",
                         "--format", "json", "--stats"]) == 0
        payload = json.loads(capsys.readouterr().out)
        entry = next(e for e in payload["results"]
                     if e["bound"] == "two-over-pi-lower-errata")
        assert entry["violation_count"] == 300 and entry["violations_truncated"] is True
        assert entry["violations"] == [{"x": x, "bound": b, "oracle": o}
                                       for x, b, o in reference[:25]]
        # at the sweeps' starting digits, their own fixed-point points and at
        # most the 25 listed; a margin that the balls there leave between two
        # doubles is settled at more digits
        assert digits.count(50) <= payload["stats"]["escalated"] + 25

    def test_tiny_x_resolves_inside_sweep(self):
        # x = 1e-60 is zero units at 50 digits: the sweep evaluates such a
        # point again at more digits, and the listing reads those values
        grid = GridSpec(1e-60, 1.0, 200, "log")
        report = sweep(BoundId.TWO_OVER_PI_LOWER_ERRATA, grid=grid, digits=50)
        assert report.violation_count == grid.points
        x, bound, oracle = report.violations_listed(1)[0]
        assert x == 1e-60 and oracle == float(oracle_arctan(x, 200))
        assert bound == float(eval_bound_hp(BoundId.TWO_OVER_PI_LOWER_ERRATA, x, digits=200))


def _ball(bound, a, x, digits):
    """The row's fixed-point ball at a double x, or at a Fraction x from the
    catalog's closed form on FixedReal, as eval_bound_hp builds it."""
    if isinstance(x, float):
        return eval_bound_hp(bound, x, a, digits=digits)
    info = arctanbounds.catalog._CATALOG[bound]
    x_hp = FixedReal(Fraction(x), digits)
    if x_hp.units == 0:
        raise PrecisionError("zero units")
    balls = (x_hp,) if info.consts is None else (x_hp, (1 + x_hp * x_hp).sqrt())
    return arctanbounds.catalog._fixed_fn(info.form, info.consts, a, digits)(*balls)


def exact_sign(bound_a, a_a, bound_b, a_b, x, digits):
    """The exact sign of A(x) - B(x) at a double or Fraction x > 0: the two
    rows' fixed-point balls at `digits`, twice them and so on until they
    separate, and 0 for a row against itself.  Independent of the
    comparison polynomial and its roots."""
    if (bound_a, a_a) == (bound_b, a_b):
        return 0
    while True:
        try:
            p, q = _ball(bound_a, a_a, x, digits), _ball(bound_b, a_b, x, digits)
            if abs(p.units - q.units) > p.err + q.err:
                return 1 if p.units > q.units else -1
        except PrecisionError:
            pass
        digits *= 2
        assert digits <= 2 * arctanbounds.fixedpoint.MAX_DIGITS, (bound_a, bound_b, x)


def reference_dominance(bound_a, bound_b, a_a, a_b, grid, digits):
    """Every verdict from exact_sign at each grid point.  A crossover is
    found between flipping grid points by bisection on the bit patterns
    down to adjacent doubles: for a pair with a log row it is the upper of
    the two, the first double at which the earlier sign no longer holds;
    for two rows without a log it is the double nearest the root, the end
    chosen by the exact sign at their midpoint.  Returns the report's
    regions, crossovers and counts as JSON."""
    tighter = 1 if bound_side(bound_a) == "lower" else -1

    def sign_at(x):
        return tighter * exact_sign(bound_a, a_a, bound_b, a_b, x, digits)

    xs = grid.values()
    signs = [sign_at(x) for x in xs]
    names = {1: "a", -1: "b", 0: "equal"}
    regions = []
    for x, sign in zip(xs, signs):
        if regions and regions[-1]["verdict"] == names[sign]:
            regions[-1]["x_hi"] = x
        else:
            regions.append({"x_lo": x, "x_hi": x, "verdict": names[sign]})
    logs = {BoundId.LOG_LOWER, BoundId.LOG_UPPER}
    crossovers = []
    prev = None
    for i, sign in enumerate(signs):
        if sign == 0:
            continue
        if prev is not None and signs[prev] != sign:
            lo, hi = reference_bracket(sign_at, xs[prev], xs[i], signs[prev])
            if logs & {bound_a, bound_b}:
                crossovers.append(hi)
            else:
                mid = sign_at((Fraction(lo) + Fraction(hi)) / 2)
                crossovers.append(hi if mid == signs[prev] else lo)
        prev = i
    counts = {"a_tighter": signs.count(1), "b_tighter": signs.count(-1),
              "equal": signs.count(0)}
    return regions, crossovers, counts


def reference_bracket(sign_at, lo, hi, s_lo):
    """The adjacent doubles between lo and hi where sign_at leaves s_lo, or
    (x, x) where it is 0 at x."""
    to_bits = lambda v: struct.unpack("<q", struct.pack("<d", v))[0]
    to_float = lambda n: struct.unpack("<d", struct.pack("<q", n))[0]
    while to_bits(hi) - to_bits(lo) > 1:
        mid = to_float((to_bits(lo) + to_bits(hi)) // 2)
        s_mid = sign_at(mid)
        if s_mid == 0:
            return mid, mid
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _family_pairs():
    """Family against reversed members, as the benchmark draws them."""
    rng = random.Random("dominance-pairs")
    pairs = []
    for lower in (True, False):
        for _ in range(5):
            a_small, a_large = rng.uniform(0.0, 0.5), rng.uniform(TWO_OVER_PI, 2.0)
            if lower:
                pairs.append((BoundId.FAMILY_LOWER, BoundId.REVERSED_LOWER, a_small, a_large))
            else:
                pairs.append((BoundId.FAMILY_UPPER, BoundId.REVERSED_UPPER, a_small, a_large))
    return pairs


DOMINANCE_PAIRS = [
    (BoundId.SHAFER_LOWER, BoundId.SHAFER_LOWER, None, None),
    (BoundId.SHAFER_LOWER, BoundId.RATIO_LOWER, None, None),
    (BoundId.TWO_OVER_PI_LOWER, BoundId.SHAFER_LOWER, None, None),
    (BoundId.SHAFER_LOWER, BoundId.TWO_OVER_PI_LOWER, None, None),
    (BoundId.FAMILY_LOWER, BoundId.SHAFER_LOWER, 0.25, None),
    (BoundId.TWO_OVER_PI_UPPER, BoundId.HALF_ANGLE_UPPER, None, None),
    (BoundId.TWO_OVER_PI_UPPER, BoundId.IDENTITY_UPPER, None, None),
    (BoundId.TWO_OVER_PI_UPPER, BoundId.LOG_UPPER, None, None),
    (BoundId.CUBIC_LOWER, BoundId.LOG_LOWER, None, None),
    *_family_pairs(),
]
#: (grid, the reference's starting digits); at 320 digits x = 1e-300 still
#: has 10**20 units
DOMINANCE_GRIDS = [
    (GridSpec(1e-8, 1e8, 400, "log"), 50),
    (GridSpec(1.0049e-08, 9.9627e+07, 300, "log"), 50),
    (GridSpec(1e-300, 1e300, 60, "log"), 320),
    (GridSpec(0.5, 0.5 * (1 + 1e-14), 40, "linear"), 50),
    (GridSpec(2.17, 2.18, 40, "linear"), 50),
]


class TestDominanceMatchesReference:
    @pytest.mark.parametrize("grid,digits", DOMINANCE_GRIDS,
                             ids=["log", "jittered", "extreme", "few-ulps", "crossover"])
    def test_pairs(self, grid, digits):
        for bound_a, bound_b, a_a, a_b in DOMINANCE_PAIRS:
            regions, crossovers, counts = reference_dominance(
                bound_a, bound_b, a_a, a_b, grid, digits)
            payload = dominance_report(bound_a, bound_b, a_a, a_b,
                                       grid=grid).to_json_dict()
            assert payload["counts"] == counts, (bound_a, bound_b, a_a, a_b)
            assert payload["regions"] == regions, (bound_a, bound_b, a_a, a_b)
            # bit-identical, not approximately equal
            assert payload["crossovers"] == crossovers, (bound_a, bound_b, a_a, a_b)

    def test_no_fixed_point_without_a_log_row(self, fixed_point_calls):
        # two rows without a log take their signs from the roots of P alone;
        # a log pair decides the sign at the ends of its monotone pieces
        calls = fixed_point_calls
        for bound_a, bound_b, a_a, a_b in [
                (BoundId.SHAFER_LOWER, BoundId.TWO_OVER_PI_LOWER, None, None),
                *_family_pairs()[::5]]:
            calls.clear()
            dominance_report(bound_a, bound_b, a_a, a_b, grid=DEFAULT_GRID)
            assert calls == [], (bound_a, bound_b)
        calls.clear()
        report = dominance_report(BoundId.TWO_OVER_PI_UPPER, BoundId.LOG_UPPER,
                                  grid=DEFAULT_GRID)
        # two calls per point that reaches the fixed-point path: the last,
        # whose sign the one piece from 0 takes
        assert report.escalated == 1 and len(calls) == 2


class TestDominance:
    @pytest.mark.parametrize("bound", [BoundId.SHAFER_LOWER, BoundId.LOG_UPPER],
                             ids=lambda bound: bound.value)
    def test_reflexive_is_all_equal(self, bound):
        # a log row against itself is never refined: its balls never separate
        report = dominance_report(bound, bound, grid=GRID)
        assert report.equal == GRID.points
        assert report.a_tighter == report.b_tighter == 0
        assert report.crossovers == []
        assert [r.verdict for r in report.regions] == ["equal"]

    def test_two_over_pi_upper_beats_half_angle_everywhere(self):
        report = dominance_report(
            BoundId.TWO_OVER_PI_UPPER, BoundId.HALF_ANGLE_UPPER, grid=GRID)
        assert report.side == "upper"
        assert report.a_strictly_tighter_everywhere
        # near zero the gap is only ~x^3 * 0.055, a relative ~5e-18 at
        # x = 1e-8, and still a strict verdict
        assert report.a_tighter == GRID.points
        assert [r.verdict for r in report.regions] == ["a"]

    def test_two_over_pi_upper_beats_other_uppers_everywhere(self):
        for rival in (BoundId.IDENTITY_UPPER, BoundId.LOG_UPPER):
            report = dominance_report(BoundId.TWO_OVER_PI_UPPER, rival, grid=GRID)
            assert report.a_strictly_tighter_everywhere, rival
            reverse = dominance_report(rival, BoundId.TWO_OVER_PI_UPPER, grid=GRID)
            assert reverse.b_strictly_tighter_everywhere, rival

    def test_corrected_vs_shafer_single_crossover(self):
        # (A, B, B's parameter, the crossover's u in closed form, verdicts)
        cases = [
            # both lowers meet where 1.5 (2/pi + u) = (pi/2)(1/2 + u); Shafer
            # is tighter near 0, the corrected bound after
            (BoundId.TWO_OVER_PI_LOWER, BoundId.SHAFER_LOWER, None,
             (math.pi / 4 - 3 / math.pi) / (1.5 - math.pi / 2), ["b", "a"]),
            # both uppers meet where (1 + 2/pi)(1/2 + u) = (pi/2)(2/pi + u),
            # at x ~ 2.5728; the a = 2/pi upper is tighter near 0, the
            # a = 1/2 one after
            (BoundId.TWO_OVER_PI_UPPER, BoundId.FAMILY_UPPER, 0.5,
             (1 - 2 / math.pi) / (2 * (1 + 2 / math.pi - math.pi / 2)), ["a", "b"]),
        ]
        for bound_a, bound_b, a_b, u, verdicts in cases:
            report = dominance_report(bound_a, bound_b, a_b=a_b, grid=GRID)
            assert len(report.crossovers) == 1, bound_a
            assert report.crossovers[0] == pytest.approx(math.sqrt(u * u - 1), abs=1e-9)
            assert [r.verdict for r in report.regions] == verdicts, bound_a

    def test_sides_must_agree(self):
        with pytest.raises(ParamError):
            dominance_report(BoundId.SHAFER_LOWER, BoundId.IDENTITY_UPPER, grid=GRID)

    def test_zero_units_are_decided(self):
        # x = 1e-300 is zero units at 50 digits; the pair takes its signs from
        # the roots of P, and a log pair decides its fixed-point signs past
        # both radii at more digits
        grid = GridSpec(1e-300, 1e300, 300, "log")
        report = dominance_report(BoundId.TWO_OVER_PI_UPPER, BoundId.IDENTITY_UPPER,
                                  grid=grid)
        assert report.a_tighter == 300 and report.a_strictly_tighter_everywhere
        for log_row, rival in [(BoundId.LOG_LOWER, BoundId.SHAFER_LOWER),
                               (BoundId.LOG_UPPER, BoundId.IDENTITY_UPPER)]:
            report = dominance_report(log_row, rival, grid=grid)
            assert report.method == "monotone" and report.escalated == 1
            assert report.b_strictly_tighter_everywhere, log_row

    def test_ties_of_centres_are_refined(self):
        # shafer-lower > ratio-lower at every x > 0 by about 2x^3/3, below
        # 10**-320 here: the old sign loop read 7 a, 70 b and 123 equal
        report = dominance_report(BoundId.SHAFER_LOWER, BoundId.RATIO_LOWER,
                                  grid=GridSpec(1e-300, 1e-100, 200, "log"))
        assert report.a_tighter == 200

    def test_extreme_grid_matches_fixed_point_at_400_digits(self, capsys):
        # every verdict and the crossover of the command are those of the
        # exact sign, the fixed-point balls from 400 digits (where x = 1e-300
        # has 10**100 units) until they separate
        assert cli.main(["dominance", "--bound-a", "shafer-lower", "--bound-b",
                         "two-over-pi-lower", "--grid-min", "1e-300", "--grid-max",
                         "1e300", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        regions, crossovers, counts = reference_dominance(
            BoundId.SHAFER_LOWER, BoundId.TWO_OVER_PI_LOWER, None, None,
            GridSpec(1e-300, 1e300, 2000, "log"), 400)
        assert payload["counts"] == counts
        assert payload["regions"] == regions
        assert payload["crossovers"] == crossovers

    def test_json_round_trip(self):
        report = dominance_report(
            BoundId.FAMILY_LOWER, BoundId.SHAFER_LOWER, a_a=0.25,
            grid=GridSpec(0.01, 100, 64, "log"))
        payload = report.to_json_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert set(payload["counts"]) == {"a_tighter", "b_tighter", "equal"}
        assert "strict_sign_counts" not in payload


#: The 14 rows without a log, by side.
ALGEBRAIC_ROWS = {side: [b for b in BoundId if bound_side(b) == side
                         and b not in (BoundId.LOG_LOWER, BoundId.LOG_UPPER)]
                  for side in ("lower", "upper")}


def _param(bound):
    """Parameters drawn from the row's certified range."""
    param = arctanbounds.catalog._CATALOG[bound].param
    if param is None:
        return st.none()
    if param is arctanbounds.catalog.FAMILY_RANGE:
        return st.floats(0.0, 0.5)
    if param is arctanbounds.catalog.MID_REGIME_RANGE:
        return st.floats(0.5, TWO_OVER_PI, exclude_min=True, exclude_max=True)
    return st.one_of(st.floats(TWO_OVER_PI, 4.0), st.floats(4.0, 1e6))


@st.composite
def algebraic_pairs(draw):
    rows = ALGEBRAIC_ROWS[draw(st.sampled_from(["lower", "upper"]))]
    bound_a, bound_b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
    return bound_a, draw(_param(bound_a)), bound_b, draw(_param(bound_b))


def identical_rows(bound_a, a_a, bound_b, a_b) -> bool:
    """The pairs of rows without a log that are one bound: a row against
    itself, and the two members that Shafer's and the half-angle bound are."""
    members = {(BoundId.SHAFER_LOWER, None): (BoundId.FAMILY_LOWER, 0.5),
               (BoundId.HALF_ANGLE_UPPER, None): (BoundId.REVERSED_UPPER, 1.0)}
    row_a, row_b = members.get((bound_a, a_a), (bound_a, a_a)), members.get(
        (bound_b, a_b), (bound_b, a_b))
    return row_a == row_b


class TestExactDominance:
    """dominance_report for rows without a log against exact_sign, the rows'
    fixed-point balls from 120 digits until they separate: independent of
    the comparison polynomial's roots."""

    @settings(max_examples=40, deadline=None)
    @given(algebraic_pairs(), st.floats(-300.0, 3.0), st.floats(0.0, 40.0),
           st.integers(2, 40))
    def test_verdicts_match_fixed_point_at_120_digits(self, pair, low, decades, points):
        x_min = 10.0 ** low
        x_max = min(x_min * 10.0 ** decades, 1e300)
        if not x_min < x_max:
            x_max = 2 * x_min
        grid = GridSpec(x_min, x_max, points, "log")
        bound_a, a_a, bound_b, a_b = pair
        report = dominance_report(bound_a, bound_b, a_a, a_b, grid=grid)
        assert report.method == "algebra"
        payload = report.to_json_dict()
        if identical_rows(*pair):
            assert report.equal == points and not report.crossovers
            return
        tighter = 1 if report.side == "lower" else -1
        names = {1: "a", -1: "b"}
        verdicts = [region["verdict"] for region in payload["regions"]
                    for x in grid.values() if region["x_lo"] <= x <= region["x_hi"]]
        assert len(verdicts) == points
        for x, verdict in zip(grid.values(), verdicts):
            assert verdict == names[tighter * exact_sign(*pair, x, 120)], (pair, x)
        for c in report.crossovers:
            # the sign changes across each reported crossover
            assert x_min < c < x_max
            below = exact_sign(*pair, math.nextafter(c, 0.0), 120)
            above = exact_sign(*pair, math.nextafter(c, math.inf), 120)
            assert below == -above != 0, (pair, c)

    def test_crossovers_change_sign_on_bench_pairs(self):
        rng = random.Random("crossover-signs")
        for _ in range(8):
            pair = (BoundId.FAMILY_LOWER, rng.uniform(0.0, 0.5),
                    BoundId.REVERSED_LOWER, rng.uniform(TWO_OVER_PI, 2.0))
            for bound_a, a_a, bound_b, a_b in [pair, (BoundId.FAMILY_UPPER, pair[1],
                                                      BoundId.REVERSED_UPPER, pair[3])]:
                report = dominance_report(bound_a, bound_b, a_a, a_b, grid=GRID)
                for c in report.crossovers:
                    below = exact_sign(bound_a, a_a, bound_b, a_b, math.nextafter(c, 0.0), 120)
                    above = exact_sign(bound_a, a_a, bound_b, a_b,
                                       math.nextafter(c, math.inf), 120)
                    assert below == -above != 0

    def test_zero_polynomial_only_for_identical_rows(self):
        from arctanbounds import algebra
        # the suite's parameters, and the doubles next to the identical ones
        params = {None: [None], arctanbounds.catalog.FAMILY_RANGE: [
                      0.0, 0.25, math.nextafter(0.5, 0.0), 0.5],
                  arctanbounds.catalog.MID_REGIME_RANGE: [0.55, 0.6],
                  arctanbounds.catalog.REVERSED_RANGE: [
                      TWO_OVER_PI, math.nextafter(1.0, 0.0), 1.0, 2.0]}
        zero = []
        for side, rows in ALGEBRAIC_ROWS.items():
            members = [(b, a) for b in rows
                       for a in params[arctanbounds.catalog._CATALOG[b].param]]
            for bound_a, a_a in members:
                for bound_b, a_b in members:
                    p = algebra.comparison_polynomial(
                        arctanbounds.catalog._CATALOG[bound_a], a_a,
                        arctanbounds.catalog._CATALOG[bound_b], a_b)
                    if p == ():
                        zero.append((bound_a, a_a, bound_b, a_b))
                    assert (p == ()) == identical_rows(bound_a, a_a, bound_b, a_b)
        assert (BoundId.SHAFER_LOWER, None, BoundId.FAMILY_LOWER, 0.5) in zero
        report = dominance_report(BoundId.SHAFER_LOWER, BoundId.FAMILY_LOWER, a_b=0.5,
                                  grid=GRID)
        assert report.equal == GRID.points and report.degree == -1


@st.composite
def log_pairs(draw):
    """A log row against a row on its side, itself included, in either order,
    with a parameter from the other row's range."""
    side = draw(st.sampled_from(["lower", "upper"]))
    log_row = BoundId.LOG_LOWER if side == "lower" else BoundId.LOG_UPPER
    row = draw(st.sampled_from([b for b in BoundId if bound_side(b) == side]))
    a = draw(_param(row))
    return (log_row, None, row, a) if draw(st.booleans()) else (row, a, log_row, None)


@st.composite
def crossing_log_pairs(draw):
    """A log row against a row whose difference from it changes sign once
    in (0, inf), with a parameter at which it does, in either order."""
    row, a = draw(st.one_of(
        st.tuples(st.sampled_from([BoundId.RATIO_LOWER, BoundId.CUBIC_LOWER]), st.none()),
        st.tuples(st.just(BoundId.REVERSED_LOWER), st.floats(2.5, 1e6)),
        st.tuples(st.just(BoundId.FAMILY_UPPER), st.floats(0.0, 0.5))))
    log_row = BoundId.LOG_LOWER if bound_side(row) == "lower" else BoundId.LOG_UPPER
    return (log_row, None, row, a) if draw(st.booleans()) else (row, a, log_row, None)


class TestLogPairDominance:
    """dominance_report for pairs with a log row against reference_dominance:
    the exact sign at every grid point from the rows' fixed-point balls, and
    each crossover bisected on those signs, independent of the pieces."""

    @settings(max_examples=30, deadline=None)
    @given(log_pairs(), st.floats(-300.0, 300.0), st.floats(0.0, 600.0),
           st.integers(2, 30))
    def test_log_pairs_match_fixed_point_signs(self, pair, low, decades, points):
        x_min = 10.0 ** low
        x_max = 10.0 ** min(low + decades, 300.0)
        if not x_min < x_max:
            x_max = 2 * x_min
        grid = GridSpec(x_min, x_max, points, "log")
        bound_a, a_a, bound_b, a_b = pair
        report = dominance_report(bound_a, bound_b, a_a, a_b, grid=grid)
        assert report.method == "monotone"
        regions, crossovers, counts = reference_dominance(bound_a, bound_b, a_a, a_b,
                                                          grid, 50)
        payload = report.to_json_dict()
        assert payload["counts"] == counts, pair
        assert payload["regions"] == regions, pair
        assert payload["crossovers"] == crossovers, pair

    @settings(max_examples=20, deadline=None)
    @given(crossing_log_pairs(), st.lists(st.tuples(
        st.floats(1e-9, 6.0), st.floats(1e-9, 6.0), st.integers(2, 40)), min_size=2, max_size=2))
    # the 300-point whole-range grid of the CLI's tests and the log and
    # jittered grids of DOMINANCE_GRIDS, whose crossovers stopped at a
    # relative width of 1e-13 in three places 66 to 173 ulps from the change
    @example((BoundId.CUBIC_LOWER, None, BoundId.LOG_LOWER, None),
             [GridSpec(1e-300, 1e300, 300, "log"), DOMINANCE_GRIDS[0][0],
              DOMINANCE_GRIDS[1][0]])
    def test_crossovers_are_the_same_double_on_every_grid(self, pair, grids):
        # each grid straddles the pair's one crossover, found on the whole
        # range: every grid reports the same double, the first at which the
        # exact sign at 120 digits differs from that at the double below
        bound_a, a_a, bound_b, a_b = pair
        (crossover,) = dominance_report(bound_a, bound_b, a_a, a_b, grid=GridSpec(
            1e-300, 1e300, 60, "log")).crossovers
        for grid in grids:
            if not isinstance(grid, GridSpec):
                below, above, points = grid
                grid = GridSpec(crossover * 10.0 ** -below, crossover * 10.0 ** above,
                                points, "log")
            assert grid.x_min < crossover < grid.x_max
            report = dominance_report(bound_a, bound_b, a_a, a_b, grid=grid)
            assert report.crossovers == [crossover], (pair, grid)
        before = math.nextafter(crossover, 0.0)
        assert (exact_sign(bound_a, a_a, bound_b, a_b, crossover, 120)
                != exact_sign(bound_a, a_a, bound_b, a_b, before, 120)), pair


def margin_change(bound, a, x1, x2, digits=120) -> int:
    """The sign of M(x2) - M(x1), M the exact margin (positive where the
    bound holds), from the rows' and the oracle's balls at `digits` and
    twice them until the difference's ball excludes 0."""
    upper = bound_side(bound) == "upper"
    while True:
        b1, b2 = (eval_bound_hp(bound, x, a, digits=digits) for x in (x1, x2))
        o1, o2 = oracle_arctan(x1, digits), oracle_arctan(x2, digits)
        diff = (o2.units - b2.units) - (o1.units - b1.units)
        if abs(diff) > b1.err + b2.err + o1.err + o2.err:
            return (-1 if upper else 1) * (1 if diff > 0 else -1)
        assert digits < 2000, (bound, a, x1, x2)
        digits *= 2


@st.composite
def rows_and_params(draw):
    """A catalog row with the suite's parameter or one drawn from its range."""
    bound = draw(st.sampled_from(list(BoundId)))
    suite = [a for b, a in _suite_entries("all") if b is bound]
    return bound, draw(st.one_of(st.sampled_from(suite), _param(bound)))


def check_runs(pieces, xs) -> None:
    """The runs cover the grid in order; a run of slope 0 holds one double."""
    assert [p[0] for p in pieces] == [0] + [p[1] for p in pieces[:-1]]
    assert pieces[-1][1] == len(xs)
    for start, stop, slope in pieces:
        assert start < stop and slope in (-1, 0, 1)
        assert slope or xs[start] == xs[stop - 1], (start, stop)


def monotone_runs(pieces, xs):
    """The runs of two doubles or more."""
    return [(start, stop, slope) for start, stop, slope in pieces
            if xs[start] != xs[stop - 1]]


class TestMonotonePieces:
    """The pieces a sweep cuts the grid into, against the exact margins at
    120 digits and more: independent of the slope polynomial's roots."""

    @settings(max_examples=60, deadline=None)
    @given(rows_and_params(), st.floats(-6.0, 6.0), st.integers(10, 40),
           st.floats(0.0, 4.0), st.integers(2, 12))
    def test_margins_order_as_their_piece_says(self, row, exponent, bits, decades, points):
        from arctanbounds.oracle import _monotone_pieces
        bound, a = row
        x_min = 10.0 ** exponent
        grid = GridSpec(x_min, max(x_min * 10.0 ** decades, 2 * x_min), points, "log")
        xs = grid.values()
        pieces = _monotone_pieces(bound, a, xs, 50)
        check_runs(pieces, xs)
        for start, stop, slope in monotone_runs(pieces, xs):
            assert slope in (-1, 1)
            # the run's ends, its first two points and its last two, where a
            # cut between runs of opposite slopes has the margin turn, and two
            # nearby doubles inside its hull
            x1 = xs[start]
            x2 = x1 * (1 + 2.0 ** -bits)
            pairs = [(x1, xs[stop - 1]), (x1, xs[start + 1]), (xs[stop - 2], xs[stop - 1])]
            if x2 <= xs[stop - 1]:
                pairs.append((x1, x2))
            for p, q in pairs:
                if p != q:
                    assert margin_change(bound, a, p, q) == slope, (bound, a, p, q)

    def test_pieces_of_the_paper_rows(self):
        from arctanbounds.oracle import _monotone_pieces
        # the one-offs' margins rise on all of (0, inf), and so do
        # family-lower's for a <= 1/2 (the paper's threshold) and
        # mid-regime-lower's (its slope polynomial is a perfect square);
        # family-upper's rise, then fall to 0, and the errata's fall first
        for grid in (DEFAULT_GRID, GridSpec(1e-64, 1e102, 2000, "log")):
            xs = grid.values()
            n = len(xs)

            def pieces(bound, a=None):
                found = _monotone_pieces(bound, a, xs, 50)
                check_runs(found, xs)
                return found

            for bound in (BoundId.RATIO_LOWER, BoundId.IDENTITY_UPPER, BoundId.CUBIC_LOWER,
                          BoundId.LOG_LOWER, BoundId.LOG_UPPER, BoundId.SHAFER_LOWER):
                assert pieces(bound) == [(0, n, 1)], bound
            for a in (0.0, 0.1, 0.25, 0.5):
                assert pieces(BoundId.FAMILY_LOWER, a) == [(0, n, 1)]
                assert [s for *_, s in pieces(BoundId.FAMILY_UPPER, a)] == [1, -1]
            for a in (0.55, 0.6):
                assert pieces(BoundId.MID_REGIME_LOWER, a) == [(0, n, 1)]
            assert [s for *_, s in pieces(BoundId.TWO_OVER_PI_LOWER_ERRATA)] == [-1, 1]

    def test_rises_marks_the_one_offs_and_the_rows_of_one_slope_sign(self):
        catalog = arctanbounds.catalog._CATALOG
        one_offs = {bound for bound, info in catalog.items() if info.consts is None}
        rises = {bound for bound, info in catalog.items() if info.rises}
        assert rises == one_offs | {
            BoundId.SHAFER_LOWER, BoundId.MID_REGIME_LOWER, BoundId.FAMILY_LOWER,
            BoundId.REVERSED_UPPER, BoundId.HALF_ANGLE_UPPER, BoundId.TWO_OVER_PI_UPPER}

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([bound for bound, info in arctanbounds.catalog._CATALOG.items()
                            if info.rises and info.consts]).flatmap(
        lambda bound: st.tuples(st.just(bound), _param(bound))))
    def test_rises_rows_have_a_slope_polynomial_of_one_sign(self, row):
        # Q(1 + v) = A v^2 + (2A + B) v + (A + B + C), A = e^2 - c d,
        # B = e (2d - c), C = d^2, at the exact constants of the double a.
        # Coefficients of one sign, not all 0, leave Q(1 + v) no root v > 0
        # (Descartes' rule of signs); else a zero discriminant and a leading
        # coefficient of that sign make Q a square.  Either way the margin,
        # M' of the sign of +-Q (+ for a lower bound), rises on all of
        # (0, inf).  pi enters at both ends of a rational bracket, 333/106 <
        # pi < 355/113: each coefficient of two-over-pi-upper's Q(1 + v), 0,
        # pi^2 - 2 pi - 8 and pi^2 - 2 pi - 4, is 0 or rises with pi
        bound, a = row
        info = arctanbounds.catalog._CATALOG[bound]
        side = 1 if info.side == "lower" else -1
        for pi in (Fraction(333, 106), Fraction(355, 113)):
            c, d, e = map(Fraction, info.consts(None if a is None else Fraction(a), pi))
            big_a, big_b, big_c = e * e - c * d, e * (2 * d - c), d * d
            coeffs = [side * k for k in (big_a + big_b + big_c, 2 * big_a + big_b, big_a)]
            assert any(coeffs), (bound, a)
            one_sign = min(coeffs) >= 0
            square = coeffs[1] ** 2 == 4 * coeffs[0] * coeffs[2] and coeffs[2] >= 0
            assert one_sign or square, (bound, a, pi)

    def test_structural_zeros_refine_off_the_grid(self, monkeypatch):
        # the balls never settle A = 0 (two-over-pi-lower), and settle
        # Q(1) = 0 (mid-regime-upper at a = 0.6, where c = 1 + a = d + e)
        # only once a's double is exact, at 100 digits; the stretches they
        # leave open shrink off the grid's points as the digits double.  The
        # rows marked rises read no slope bounds: the double root of
        # mid-regime-lower's square Q, and two-over-pi-upper's Q(1) = 0
        seen = []
        bounds = arctanbounds.catalog._slope_bounds
        monkeypatch.setattr(arctanbounds.catalog, "_slope_bounds",
                            lambda consts, a, digits: (seen.append(digits)
                                                       or bounds(consts, a, digits)))
        wide = GridSpec(5e-324, DBL_MAX, 3000, "log").values()
        for bound, a, xs, digits in [
                (BoundId.TWO_OVER_PI_LOWER, None, DEFAULT_GRID.values(), [50]),
                # the open stretch past x ~ 10**digits, from DBL_MAX up at 400
                (BoundId.TWO_OVER_PI_LOWER, None, wide, [50, 100, 200, 400]),
                # that below x ~ 10**(-digits/2), under 1e-8 at 50
                (BoundId.MID_REGIME_UPPER, 0.6, DEFAULT_GRID.values(), [50]),
                (BoundId.MID_REGIME_UPPER, 0.6, wide, [50, 100]),
                (BoundId.TWO_OVER_PI_UPPER, None, wide, []),
                (BoundId.MID_REGIME_LOWER, 0.6, wide, [])]:
            seen.clear()
            pieces = orc._monotone_pieces(bound, a, xs, 50)
            check_runs(pieces, xs)
            assert seen == digits, bound
            assert all(slope for *_, slope in pieces), bound
        assert pieces == [(0, len(wide), 1)]


def exact_slope_sign(c: Fraction, d: Fraction, e: Fraction, x: float) -> int:
    """The sign of Q(u) = (d + e u)^2 - c u (d u + e) at u = sqrt(1 + x^2):
    Q = E + F u with E = (e^2 - c d) u^2 + d^2 and F = e (2d - c) rational."""
    q = 1 + Fraction(x) ** 2
    big_e, big_f = (e * e - c * d) * q + d * d, e * (2 * d - c)
    sign_e, sign_f = (big_e > 0) - (big_e < 0), (big_f > 0) - (big_f < 0)
    if sign_e * sign_f >= 0:
        return sign_e or sign_f
    norm = big_e * big_e - big_f * big_f * q
    return sign_e if norm > 0 else sign_f if norm < 0 else 0


def slope_bounds(balls):
    """catalog._slope_bounds of the balls (c, d, e) given."""
    return arctanbounds.catalog._slope_bounds(lambda a, pi: balls, None, 4)


class TestSlopeRuns:
    """fixedpoint's _positive_roots and sign_runs on catalog._slope_bounds of
    wide balls and on grids that hold the doubles at the brackets' ends,
    where the sweep's grids rarely go."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.tuples(*[st.integers(-10**6, 10**6)] * 3),
        # k (q v - p)(s v - r): rational roots, a double one where they meet
        st.builds(lambda k, p, q, r, t: (k * p * r, -k * (p * t + q * r), k * q * t),
                  st.integers(-30, 30), st.integers(-300, 300), st.integers(1, 300),
                  st.integers(-300, 300), st.integers(1, 300)),
        st.builds(lambda k, p, q: (k * p * p, -2 * k * p * q, k * q * q),
                  st.integers(-30, 30), st.integers(-300, 300), st.integers(1, 300))))
    def test_root_brackets_hold_each_root(self, coeffs):
        from arctanbounds.fixedpoint import _positive_roots
        c0, c1, c2 = coeffs

        def sign_at(v: Fraction) -> int:
            value = c2 * v * v + c1 * v + c0
            return (value > 0) - (value < 0)

        brackets = _positive_roots(c0, c1, c2)
        roots = None
        if c2 and c1 * c1 - 4 * c2 * c0 >= 0:
            # the distinct real roots, at 60 digits: their count above 0
            disc = Fraction(c1 * c1 - 4 * c2 * c0)
            r = Fraction(math.isqrt(int(disc * 10 ** 120)), 10 ** 60)
            roots = len({v for v in ((-c1 - r) / (2 * c2), (-c1 + r) / (2 * c2))
                         if v > Fraction(1, 10 ** 50)})
        elif not c2:
            roots = int(c0 * c1 < 0)
        ends = []
        for (p, q), (r, t), changes in brackets:
            lo, hi = Fraction(p, q), Fraction(r, t)
            assert 0 < lo <= hi and q > 0 and t > 0
            if lo == hi:
                # the sign changes there unless the root is double
                assert sign_at(lo) == 0
                step = lo / 10 ** 15
                assert changes == (sign_at(lo - step) != sign_at(lo + step)), coeffs
            else:
                assert sign_at(lo) * sign_at(hi) < 0 and changes
            ends.append((lo, hi))
        # one bracket per distinct root, disjoint
        assert len(set(ends)) == len(ends)
        assert all(a[1] < b[0] or b[1] < a[0] for a, b in zip(ends, ends[1:]))
        if roots is not None:
            assert len(brackets) == roots, (coeffs, brackets)

    @pytest.mark.parametrize("consts,signs", [
        # mid-regime-lower at a = 0.55: Q = ((1 - 2a^2) u - a)^2, its double
        # root at u = 110/79, where Q keeps its sign and the run is cut
        (("1.5345", "0.55", "1"), {1}),
        # c d = e^2, so A = 0 and Q(1 + v) = 0.040625 - 0.35 v
        (("1.6", "0.625", "1"), {1, -1}),
    ], ids=["double-root", "linear"])
    def test_exact_balls(self, consts, signs):
        from arctanbounds.fixedpoint import sign_runs
        balls = tuple(FixedReal(v, 4) for v in consts)
        assert not any(k.err for k in balls)
        xs = GridSpec(1e-3, 1e3, 400, "log").values()
        runs = sign_runs(*slope_bounds(balls), xs)
        # cut in two at the root, which lies between two grid points
        assert {sign for *_, sign in runs} == signs and len(runs) == 2
        exact = [Fraction(v) for v in consts]
        for start, stop, sign in runs:
            assert all(exact_slope_sign(*exact, x) == sign for x in xs[start:stop])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 4 * 10**4), st.integers(0, 3000)),
                    min_size=3, max_size=3),
           st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=40), st.randoms())
    def test_slope_runs_hold_for_every_constant_in_the_balls(self, balls, points, rnd):
        # balls c, d, e at 4 digits, up to 3000 units wide, so that the
        # brackets hold grid points; the grid holds every bracket end's
        # double and its neighbours
        from arctanbounds.fixedpoint import _positive_roots, sign_runs
        c, d, e = (FixedReal._raw(units, 4, err) for units, err in balls)
        xs = set(points)
        bounds = slope_bounds((c, d, e))
        for poly in bounds:
            for lo, hi, _ in _positive_roots(*poly):
                for end, up in ((lo, True), (hi, False)):
                    x = arctanbounds.fixedpoint.x_of(*end, up)
                    if 0 < x < math.inf:
                        xs |= {x, math.nextafter(x, 0), math.nextafter(x, math.inf)}
        xs = tuple(sorted(xs))
        runs = sign_runs(*bounds, xs)
        assert [r[0] for r in runs] == [0] + [r[1] for r in runs[:-1]]
        assert runs[-1][1] == len(xs)
        corners = [[Fraction(k.units + s * k.err, 10 ** 4) for s in (-1, 1)]
                   for k in (c, d, e)]
        for _ in range(6):
            # a corner of the box of constants, or a point inside it
            consts = [rnd.choice(ends) if rnd.random() < 0.5
                      else ends[0] + (ends[1] - ends[0]) * Fraction(rnd.randrange(101), 100)
                      for ends in corners]
            for start, stop, sign in runs:
                if sign:
                    for x in xs[start:stop]:
                        assert exact_slope_sign(*consts, x) == sign, (consts, x)


@st.composite
def sweep_grids(draw):
    """Log grids from tiny to huge doubles, a few points to a few hundred."""
    low = draw(st.floats(-300.0, 300.0))
    decades = draw(st.floats(0.0, 600.0))
    x_min = 10.0 ** low
    x_max = 10.0 ** min(low + decades, 300.0)
    if not x_min < x_max:
        x_max = 2 * x_min
    return GridSpec(x_min, x_max, draw(st.integers(2, 300)), "log")


class TestPiecesAgainstTheExactSlope:
    """The sweep's runs, from balls, against the exact signs of the slope
    polynomial Q in Q[pi] (algebra.Comparison) and the margins at 120
    digits: no run of two doubles or more straddles a root where Q changes
    sign, Q has the run's slope there, and the margins order as it says."""

    @staticmethod
    def check(bound, a, grid):
        from arctanbounds import algebra
        from arctanbounds.catalog import _CATALOG
        from arctanbounds.oracle import _monotone_pieces
        xs = grid.values()
        pieces = _monotone_pieces(bound, a, xs, 50)
        check_runs(pieces, xs)
        poly = algebra.slope_polynomial(_CATALOG[bound], a)
        comparison = None if poly is None else algebra.Comparison(poly)
        side = 1 if bound_side(bound) == "lower" else -1
        for start, stop, slope in monotone_runs(pieces, xs):
            first, last = xs[start], xs[stop - 1]
            if comparison is None:
                assert slope == 1, bound
            else:
                for lo, hi, _ in comparison.crossovers:
                    below = first <= lo if lo < hi else first < lo
                    above = last >= hi if lo < hi else last > hi
                    assert not (below and above), (bound, a, first, last, lo, hi)
                edges = comparison.edges
                signs = set(comparison.signs[bisect.bisect_left(edges, first):
                                             bisect.bisect_left(edges, last) + 1])
                assert signs - {0} == {side * slope}, (bound, a, first, last)
            # from 120 digits past the first point's leading zeros
            digits = 120 + max(0, -math.floor(math.log10(first)))
            for p, q in ((first, last), (first, xs[start + 1]), (xs[stop - 2], last)):
                if p != q:
                    assert margin_change(bound, a, p, q, digits) == slope, (bound, a, p, q)

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, GridSpec(1e-64, 1e102, 10_000, "log"),
                                      GridSpec(1.5, 1e8, 60, "log")],
                             ids=["default", "1e-64-1e102", "1.5-1e8"])
    def test_runs_match_the_exact_slope_polynomial(self, grid):
        for bound, a in _suite_entries("all"):
            self.check(bound, a, grid)

    @settings(max_examples=40, deadline=None)
    @given(rows_and_params(), sweep_grids())
    def test_drawn_runs_match_the_exact_slope_polynomial(self, row, grid):
        self.check(*row, grid)


class TestPieceMinimum:
    def test_ties_inside_a_loose_piece(self):
        # past x = 1 two-over-pi-upper's margin rises, but its ratio to
        # arctan falls by about an ulp over this grid: all 40 exact ratios
        # round to one double, and the grid's first point is reported, as by
        # the reference
        grid = GridSpec(21157275.09932036, 21157275.127642065, 40, "log")
        oracle = [oracle_arctan(x, 50) for x in grid.values()]
        for bound, a in _suite_entries("all"):
            violations, min_margin, min_x = reference_sweep(bound, a, grid, 50, oracle)
            report = sweep(bound, a=a, grid=grid)
            assert report.violations == violations, (bound, a)
            assert (report.min_margin, report.min_margin_x) == (min_margin, min_x), (bound, a)
        assert {exact_margin(BoundId.TWO_OVER_PI_UPPER, None, x, 120)
                for x in grid.values()} == {0.041904506936932207}
        report = sweep(BoundId.TWO_OVER_PI_UPPER, grid=grid)
        assert (report.min_margin, report.min_margin_x) == (0.041904506936932207,
                                                            grid.values()[0])

    def test_skipped_pieces_bound_every_ratio(self):
        # a loose piece above x = 1 (M > 0 rising or M <= 0 falling) is skipped
        # when _lowest_ratio, from the balls at its two ends, clears the
        # smallest margin found: it must lie below every reported margin of it
        from arctanbounds.oracle import _exact_point, _lowest_ratio, _monotone_pieces
        grid = GridSpec(1.5, 1e8, 60, "log")
        xs = grid.values()
        checked = 0
        for bound, a in _suite_entries("all"):
            side = bound_side(bound)
            pieces = _monotone_pieces(bound, a, xs, 50)
            points = [_exact_point(bound, a, side, x, 50) for x in xs]
            # runs of one slope and one sign
            runs = {}
            for piece, (start, stop, _) in enumerate(pieces):
                for i in range(start, stop):
                    runs.setdefault((piece, points[i].holds), []).append(i)
            for (piece, holds), run in runs.items():
                slope = pieces[piece][2]
                if not slope or (slope > 0) != holds:
                    continue
                at_m, at_atan = (run[0], run[-1]) if holds else (run[-1], run[0])
                lowest = _lowest_ratio(points[at_m], points[at_atan].oracle_hp, holds,
                                       side == "lower")
                assert all(lowest <= points[i].margin for i in run), (bound, a, piece)
                checked += 1
        # the eight entries whose margin falls to 0 at infinity have no loose
        # piece here; each of the other 22 has one (mid-regime-lower's square
        # Q leaves its run whole)
        assert checked == 22


class TestPieceSweep:
    """sweep against the fixed-point path at every grid point: the verdicts,
    the smallest reported margin and its first point, and the first point
    that raises an error."""

    @settings(max_examples=100, deadline=None)
    @given(rows_and_params(), st.floats(-6.0, 6.0),
           st.one_of(st.floats(0.0, 6.0), st.floats(0.0, 100.0)), st.integers(2, 200))
    # a loose piece whose last 81 reported margins share one double, the
    # smallest: its first is found by bisection
    @example(row=(BoundId.MID_REGIME_UPPER, 0.620219046063943), low=3.7526036445845,
             decades=63.80844771687863, points=101)
    def test_random_grids_match_the_per_point_path(self, row, low, decades, points):
        # grids above 1 as wide as [1, 1e100], where the reported margins of
        # the loose pieces flatten to a few ulps, with runs of ties long
        # enough to bisect for their first point
        from arctanbounds.oracle import _exact_point
        bound, a = row
        x_min = 10.0 ** low
        x_max = min(x_min * 10.0 ** decades, 1e100)
        if not x_min < x_max:
            x_max = 2 * x_min
        grid = GridSpec(x_min, x_max, points, "log")
        side = bound_side(bound)
        exact = [_exact_point(bound, a, side, x, 50) for x in grid.values()]
        margins = [p.margin for p in exact]
        report = sweep(bound, a=a, grid=grid)
        assert [i for run in report.violation_runs for i in run] == [
            i for i, p in enumerate(exact) if not p.holds]
        assert report.min_margin == min(margins), (bound, a)
        assert report.min_margin_x == grid.values()[margins.index(min(margins))], (bound, a)

    @settings(max_examples=40, deadline=None)
    @given(rows_and_params(), st.floats(-6.0, 6.0),
           st.one_of(st.floats(0.0, 6.0), st.floats(0.0, 100.0)), st.integers(2, 30))
    def test_random_grids_report_the_exact_margin_rounded_once(self, row, low, decades,
                                                               points):
        # drawn as above: the report is one at every starting digits, and its
        # min_margin is the exact margin at min_margin_x rounded once
        bound, a = row
        x_min = 10.0 ** low
        x_max = min(x_min * 10.0 ** decades, 1e100)
        if not x_min < x_max:
            x_max = 2 * x_min
        grid = GridSpec(x_min, x_max, points, "log")
        reports = [sweep(bound, a, grid, digits=digits).to_json_dict()
                   for digits in (20, 30, 50)]
        assert [dict(report, digits=50) for report in reports] == [reports[2]] * 3
        x = reports[2]["min_margin_x"]
        assert reports[2]["min_margin"] == exact_margin(bound, a, x, resolving_digits(x))

    @pytest.mark.parametrize("a,grid", [(0.6, GridSpec(1.5, 10.0, 30)),
                                        (0.63, GridSpec(1.0, 100.0, 200))])
    def test_interior_minimum_of_a_loose_piece(self, monkeypatch, a, grid):
        # on x > 1 mid-regime-lower's reported margin is 1 - c / rho(a, x),
        # smallest at the ratio's interior minimum x0, where its slope S goes
        # from - to +: the sweep bisects S for it and evaluates the grid points
        # on either side, the ends of R's falling and rising runs
        from arctanbounds.family import find_interior_minimum
        from arctanbounds.oracle import _exact_point
        asked = []
        slope_sign = orc._ExactPoints.slope_sign
        monkeypatch.setattr(orc._ExactPoints, "slope_sign",
                            lambda self, i: asked.append(i) or slope_sign(self, i))
        bound, xs = BoundId.MID_REGIME_LOWER, grid.values()
        exact = [_exact_point(bound, a, "lower", x, 50) for x in xs]
        margins = [p.margin for p in exact]
        report = sweep(bound, a=a, grid=grid)
        assert len(asked) > 2       # the two ends' signs, then the bisection
        assert [i for run in report.violation_runs for i in run] == [
            i for i, p in enumerate(exact) if not p.holds]
        assert report.min_margin == min(margins)
        assert report.min_margin_x == xs[margins.index(min(margins))]
        k = bisect.bisect(xs, find_interior_minimum(a).x0)
        assert report.min_margin_x in (xs[k - 1], xs[k])

    @pytest.mark.parametrize("bound,a,grid,max_digits,error", [
        # x^3/3 outgrows a double from x = 8.1e102
        (BoundId.CUBIC_LOWER, None, GridSpec(1e102, 1e103, 40, "linear"), None,
         DomainError),
        # family-upper's margin falls like 1/x: below 10**-100 from x = 1e100
        (BoundId.FAMILY_UPPER, 0.25, GridSpec(1e10, 1e200, 40, "log"), 100,
         PrecisionError),
    ], ids=["overflow", "unresolved"])
    def test_first_failing_point_is_named(self, monkeypatch, bound, a, grid, max_digits,
                                          error):
        from arctanbounds.oracle import _exact_point
        if max_digits is not None:
            monkeypatch.setattr(arctanbounds.fixedpoint, "MAX_DIGITS", max_digits)
        side = bound_side(bound)
        for i, x in enumerate(grid.values()):
            try:
                _exact_point(bound, a, side, x, 50)
            except error as exc:
                message = str(exc)
                break
        # strictly inside the grid, so the sweep finds it by bisection
        assert 0 < i < grid.points - 1 and f"x={x!r}:" in message
        with pytest.raises(error, match=re.escape(message)):
            sweep(bound, a=a, grid=grid)

    def test_verify_never_imports_algebra(self):
        # every piece is read from the balls of the slope polynomial: no sweep
        # of the default suite, nor a profile's constituent reads, need the
        # exact algebra
        probe = """
import sys
from arctanbounds import cli, kernel, oracle
for bound, a in cli._suite_entries("all"):
    oracle.sweep(bound, a=a)
for bound, a in ((oracle.cat.BoundId.FAMILY_UPPER, 0.5), (oracle.cat.BoundId.REVERSED_LOWER,
                                                           oracle.cat.TWO_OVER_PI)):
    oracle._monotone_pieces(bound, a, oracle.DEFAULT_GRID.values(), 30)
print("arctanbounds.algebra" in sys.modules)
"""
        env = dict(os.environ, PYTHONPATH=str(Path(arctanbounds.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                text=True, check=True, env=env)
        assert result.stdout == "False\n"

    def test_pieces_cut_at_slope_roots_and_at_one(self):
        # shafer-lower's margin rises everywhere; the errata's falls up to
        # x = 1.4394762380858963 and rises after
        below_one = GridSpec(1e-8, 0.5, 50, "log")
        assert sweep(BoundId.SHAFER_LOWER, grid=below_one).pieces == 1
        assert sweep(BoundId.SHAFER_LOWER, grid=GRID).pieces == 2
        assert sweep(BoundId.TWO_OVER_PI_LOWER_ERRATA, grid=below_one).pieces == 1
        assert sweep(BoundId.TWO_OVER_PI_LOWER_ERRATA, grid=GRID).pieces == 3
        above_root = GridSpec(1.5, 1e8, 50, "log")
        assert sweep(BoundId.TWO_OVER_PI_LOWER_ERRATA, grid=above_root).pieces == 1


class TestExactPoint:
    """The fixed-point path decides a point only where the centres of the
    bound and the oracle lie further apart than their two radii."""

    @pytest.mark.parametrize("gap,digits_seen", [(0, [50, 100]), (1, [50, 100])])
    def test_decides_only_past_both_radii(self, monkeypatch, gap, digits_seen):
        # a bound 3 units wide whose centre lies the two radii (plus `gap`
        # units) below the oracle's at 50 digits, and far below it at 100:
        # with a gap the point is decided at 50 digits, and its margin, a few
        # units there, is rounded once at 100
        from arctanbounds import oracle as orc
        from arctanbounds.fixedpoint import FixedReal
        seen = []

        def ball(bound, x, a=None, digits=50):
            seen.append(digits)
            o = oracle_arctan(x, digits)
            below = o.err + 3 + gap if digits == 50 else 10 ** (digits - 10)
            return FixedReal._raw(o.units - below, digits, 3)

        monkeypatch.setattr(arctanbounds.catalog, "eval_bound_hp", ball)
        point = orc._exact_point(BoundId.SHAFER_LOWER, None, "lower", 0.5, 50)
        assert point.holds and seen == digits_seen
        assert point.bound_hp.digits == (50 if gap else 100)

    def test_unresolved_past_the_cap_raises(self, monkeypatch):
        from arctanbounds import oracle as orc
        from arctanbounds.fixedpoint import FixedReal
        seen = []

        def ball(bound, x, a=None, digits=50):
            seen.append(digits)
            return FixedReal._raw(oracle_arctan(x, digits).units, digits, 1)

        monkeypatch.setattr(arctanbounds.catalog, "eval_bound_hp", ball)
        with pytest.raises(PrecisionError, match="unresolved at 3200 digits"):
            orc._exact_point(BoundId.SHAFER_LOWER, None, "lower", 0.5, 50)
        assert seen == [50, 100, 200, 400, 800, 1600, 3200]

    def test_family_upper_to_1e300(self):
        # the true margins out there are ~1e-53 and below; at 50 digits their
        # fixed-point values once read as 147 violations
        report = sweep(BoundId.FAMILY_UPPER, 0.1, GridSpec(1e-40, 1e300, 200, "log"))
        assert report.ok and report.min_margin > 0


class TestFamilySweepMatrix:
    @pytest.mark.parametrize("a", [0.0, 0.25, 0.5])
    def test_family_regime(self, a):
        for bound in (BoundId.FAMILY_LOWER, BoundId.FAMILY_UPPER):
            report = sweep(bound, a=a, grid=GRID)
            assert report.ok, (bound, a, report.min_margin)

    @pytest.mark.parametrize("a", [2 / math.pi, 1.0, 2.0])
    def test_reversed_regime(self, a):
        for bound in (BoundId.REVERSED_LOWER, BoundId.REVERSED_UPPER):
            report = sweep(bound, a=a, grid=GRID)
            assert report.ok, (bound, a, report.min_margin)

    @pytest.mark.parametrize("a", [0.55, 0.6])
    def test_mid_regime(self, a):
        for bound in (BoundId.MID_REGIME_LOWER, BoundId.MID_REGIME_UPPER):
            report = sweep(bound, a=a, grid=GRID)
            assert report.ok, (bound, a, report.min_margin)
