import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arctanbounds import (
    DEFAULT_KERNEL,
    TWO_OVER_PI,
    BoundId,
    DomainError,
    GridSpec,
    KernelSpec,
    ParamError,
    approx,
    enclosure,
    error_profile,
    eval_bound_hp,
    oracle_arctan,
)
from arctanbounds import kernel as ker
from arctanbounds.fastatan import FAST_ATAN_K, fast_atan
from arctanbounds.fixedpoint import _bits, _from_bits

SMALL_GRID = GridSpec(1e-8, 1e8, 300, "log")
DBL_MAX = sys.float_info.max


def scaled_digits(ax: float) -> int:
    """Oracle digits whose unit lies far below x**3, the smallest gap a float
    bound can leave to arctan x at tiny x."""
    return 40 + 3 * max(0, -math.floor(math.log10(ax)))


def to_units(value: float, digits: int) -> int:
    """floor(value * 10**digits), exactly."""
    num, den = value.as_integer_ratio()
    return num * 10 ** digits // den


def assert_certified(x: float) -> None:
    """|approx(x).value - arctan x| <= error_bound, in exact units, no slack."""
    cv = approx(DEFAULT_KERNEL, x)
    if x == 0.0:
        assert cv.value == 0.0 and cv.error_bound == 0.0
        return
    digits = scaled_digits(abs(x))
    truth = oracle_arctan(x, digits).units
    actual = abs(to_units(cv.value, digits) - truth)
    assert actual <= to_units(cv.error_bound, digits), (x, cv)


def full_range_grid() -> list[float]:
    """±[5e-324, DBL_MAX]: a log grid plus the edges where the kernel's
    arithmetic changes (subnormals, the tiny-x branch, x*x overflow)."""
    lo, hi = math.log10(5e-324), math.log10(DBL_MAX)
    xs = [10.0 ** (lo + (hi - lo) * i / 4000) for i in range(4000)]
    tiny, square_max = 2.0 ** -1000, math.sqrt(DBL_MAX)
    xs += [5e-324, 1e-323, 2.0 ** -1022, math.nextafter(tiny, 0.0), tiny,
           math.nextafter(tiny, 1.0), 1.0, 2.1758413981537927,
           math.nextafter(square_max, 0.0), square_max,
           math.nextafter(square_max, math.inf), DBL_MAX]
    return [s * x for x in xs if 0.0 < x <= DBL_MAX for s in (1.0, -1.0)]


class TestKernelSpec:
    def test_defaults(self):
        assert DEFAULT_KERNEL.a_low == 0.5
        assert DEFAULT_KERNEL.a_high == 2 / math.pi
        # the pair is fixed
        assert KernelSpec() == DEFAULT_KERNEL
        with pytest.raises(TypeError):
            KernelSpec(a_low=0.3)
        with pytest.raises(TypeError):
            KernelSpec(0.5, TWO_OVER_PI)

    def test_pair_is_tightest(self):
        # no parameter of either certified regime gives a tighter bound at
        # any x, so no other pair could tighten the kernel: 4800 exact
        # comparisons in units of 10**-40
        rng = random.Random(20090217)
        xs = [10.0 ** (-8 + 16 * i / 199) for i in range(200)]

        def units(bound, a):
            return [eval_bound_hp(bound, x, a, digits=40).units for x in xs]

        regimes = [
            (BoundId.FAMILY_LOWER, BoundId.FAMILY_UPPER, 0.5,
             [rng.uniform(0.0, 0.5) for _ in range(6)]),
            (BoundId.REVERSED_LOWER, BoundId.REVERSED_UPPER, TWO_OVER_PI,
             [rng.uniform(math.nextafter(TWO_OVER_PI, 3.0), 2.0) for _ in range(6)]),
        ]
        for lower, upper, edge, params in regimes:
            best_lower, best_upper = units(lower, edge), units(upper, edge)
            for a in params:
                assert a != edge
                assert all(lo <= best for lo, best in zip(units(lower, a), best_lower)), a
                assert all(up >= best for up, best in zip(units(upper, a), best_upper)), a


class TestApprox:
    def test_zero_is_exact(self):
        cv = approx(DEFAULT_KERNEL, 0.0)
        assert cv.value == 0.0 and cv.error_bound == 0.0

    def test_an_immutable_named_pair(self):
        cv = approx(DEFAULT_KERNEL, 1.0)
        value, bound = cv
        assert cv == (value, bound) == (cv.value, cv.error_bound)
        assert hash(cv) == hash((value, bound)) and {cv: 1}[(value, bound)] == 1
        assert repr(cv) == f"CertifiedValue(value={value!r}, error_bound={bound!r})"
        assert type(cv) is type(approx(DEFAULT_KERNEL, -1e-310)) is ker.CertifiedValue
        for name in ("value", "error_bound", "other"):
            with pytest.raises(AttributeError):
                setattr(cv, name, 0.0)

    def test_value_and_bound_at_one(self):
        cv = approx(DEFAULT_KERNEL, 1.0)
        assert cv.value == pytest.approx(0.790819165857514, rel=1e-12)
        assert cv.error_bound == pytest.approx(0.0072075409662911705, rel=1e-12)
        # the best of both members beats either member on its own
        assert cv.error_bound < enclosure(2 / math.pi, 1.0).half_width
        assert cv.error_bound < enclosure(0.5, 1.0).half_width

    def test_bound_is_small_at_both_ends(self):
        assert approx(DEFAULT_KERNEL, 1e-4).error_bound < 2e-14
        assert approx(DEFAULT_KERNEL, 1e4).error_bound < 2e-5

    def test_odd_symmetry_exact(self):
        for x in [1e-300, 1e-7, 0.3, 1.0, 4.7, 1e5, 1e300]:
            assert approx(DEFAULT_KERNEL, -x).value == -approx(DEFAULT_KERNEL, x).value
            assert approx(DEFAULT_KERNEL, -x).error_bound == approx(DEFAULT_KERNEL, x).error_bound
        # arctan(-0.0) is -0.0, which == cannot tell from 0.0
        for zero in [0.0, -0.0]:
            cv = approx(DEFAULT_KERNEL, zero)
            assert math.copysign(1.0, cv.value) == math.copysign(1.0, zero)
            assert cv.value == 0.0 and cv.error_bound == 0.0

    def test_extreme_arguments_stay_finite_and_certified(self):
        for x in [1e-300, 1e300, 1e8, 5e-324]:
            cv = approx(DEFAULT_KERNEL, x)
            assert math.isfinite(cv.value) and math.isfinite(cv.error_bound)
            assert_certified(x)

    def test_non_finite_argument_raises(self):
        for x in [math.inf, -math.inf, math.nan]:
            with pytest.raises(DomainError):
                approx(DEFAULT_KERNEL, x)

    def test_error_bound_vanishes_at_zero(self):
        previous = math.inf
        for x in [1.0, 1e-2, 1e-4, 1e-6, 1e-8]:
            cv = approx(DEFAULT_KERNEL, x)
            assert 0 < cv.error_bound < previous
            assert cv.error_bound / x < 0.05  # bounded slope at the origin
            previous = cv.error_bound

    def test_error_bound_limit_at_infinity(self):
        # both members tend to pi/2, so only the outward rounding is left
        previous = math.inf
        for x in [1e4, 1e8, 1e12]:
            cv = approx(DEFAULT_KERNEL, x)
            assert cv.error_bound < previous
            previous = cv.error_bound
        assert approx(DEFAULT_KERNEL, 1e300).error_bound < 2.0 ** -48

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=120, deadline=None)
    def test_certification_random(self, x):
        assert_certified(x)

    def test_certification_full_range_grid(self):
        for x in full_range_grid():
            assert_certified(x)


class TestErrorProfile:
    def test_certified_everywhere_on_grid(self):
        prof = error_profile(DEFAULT_KERNEL, SMALL_GRID)
        assert all(r.ratio >= 1.0 for r in prof.rows)
        for r in prof.rows:
            assert r.actual <= r.certified

    def test_max_certified_beats_either_member(self):
        prof = error_profile(DEFAULT_KERNEL, SMALL_GRID)
        assert prof.max_certified <= 0.0250
        assert prof.max_certified < enclosure(2 / math.pi, 1e8).half_width
        assert prof.max_actual <= prof.max_certified

    def test_deterministic(self):
        p1 = error_profile(DEFAULT_KERNEL, SMALL_GRID)
        p2 = error_profile(DEFAULT_KERNEL, SMALL_GRID)
        assert p1.max_certified == p2.max_certified
        assert p1.max_actual == p2.max_actual

    def test_csv(self, tmp_path):
        prof = error_profile(DEFAULT_KERNEL, GridSpec(0.1, 10, 24, "log"))
        out = tmp_path / "profile.csv"
        with open(out, "w", newline="") as handle:
            prof.write_csv(handle)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,value,certified,actual,ratio"
        assert len(lines) == 25

    def test_needs_twenty_digits(self):
        with pytest.raises(ParamError):
            error_profile(DEFAULT_KERNEL, SMALL_GRID, digits=19)


def _seeded_log_grid(seed: int) -> GridSpec:
    rng = random.Random(seed)
    return GridSpec(10 ** rng.uniform(-12, -1), 10 ** rng.uniform(1, 12),
                    rng.randint(200, 500), "log")


#: Seeded log grids, [1e-300, 1e300], a log grid over every positive double
#: (subnormal rows, rows below 2**-1000 where approx returns x, and rows from
#: 2**512, where x*x overflows) and a linear grid through 0 and negative x.
FILTER_GRIDS = ([_seeded_log_grid(seed) for seed in range(4)]
                + [GridSpec(1e-300, 1e300, 400), GridSpec(5e-324, sys.float_info.max, 300),
                   GridSpec(-5.0, 5.0, 201, "linear")])


def _session_grid(seed: int) -> GridSpec:
    """2000 log points from 1e-8 to 1e8, each end moved by up to half a decade,
    as the benchmark's analysis sessions profile them."""
    rng = random.Random(seed)
    return GridSpec(1e-8 * 10 ** rng.uniform(-0.5, 0.5), 1e8 * 10 ** rng.uniform(-0.5, 0.5),
                    2000, "log")


SESSION_GRIDS = [_session_grid(seed) for seed in range(3)]


def filter_misses(prof, fast_atan_k: float) -> list[float]:
    """The rows where the double filter's E, with fast_atan's error taken as
    fast_atan_k * u * f, fails to cover |a - actual|, an exact comparison on
    Fractions."""
    misses = []
    for row in prof.rows:
        f = fast_atan(abs(row.x))
        a = abs(abs(row.value) - f)
        d = ker._row_digits(row.certified, prof.digits)
        e = ker._row_error(fast_atan_k, d)(f, a)
        if abs(Fraction(a) - Fraction(row.actual)) > Fraction(e):
            misses.append(row.x)
    return misses


class TestProfileFilter:
    """error_profile settles rows in double; its summary must be the one
    every row, measured in fixed point, gives."""

    @staticmethod
    def assert_summary_of_rows(prof):
        assert prof.max_certified == max(r.certified for r in prof.rows)
        assert prof.max_actual == max(r.actual for r in prof.rows)
        assert prof.certified_everywhere == all(r.ratio >= 1.0 for r in prof.rows)
        assert 1 <= prof.exact_rows <= prof.grid.points

    @pytest.mark.parametrize("digits", [20, 30, 100, 320, 330])
    @pytest.mark.parametrize("grid", FILTER_GRIDS, ids=str)
    def test_summary_equals_every_exact_row(self, grid, digits):
        prof = error_profile(DEFAULT_KERNEL, grid, digits)
        self.assert_summary_of_rows(prof)
        assert prof.certified_everywhere

    @pytest.mark.parametrize("digits", [30, 100])
    @pytest.mark.parametrize("grid", SESSION_GRIDS, ids=str)
    def test_session_shaped_grids(self, grid, digits):
        prof = error_profile(DEFAULT_KERNEL, grid, digits)
        self.assert_summary_of_rows(prof)
        assert prof.certified_everywhere
        assert filter_misses(prof, FAST_ATAN_K) == []

    @pytest.mark.parametrize("scale", [0.5, 0.998])
    def test_summary_with_refuted_rows(self, monkeypatch, scale):
        # shrunken certificates fail at every row whose error is within that
        # factor of the kernel's (over half of SMALL_GRID's rows): the filter
        # refutes those rows, and leaves unsettled the few whose error lies
        # within E of the shrunken certificate
        def shrunk(spec, x):
            est = approx(spec, x)
            return ker.CertifiedValue(est.value, est.error_bound * scale)
        monkeypatch.setattr(ker, "approx", shrunk)
        for grid in (SMALL_GRID, FILTER_GRIDS[-1]):
            prof = error_profile(DEFAULT_KERNEL, grid, 30)
            self.assert_summary_of_rows(prof)
        assert not error_profile(DEFAULT_KERNEL, SMALL_GRID, 30).certified_everywhere

    def test_package_import_leaves_fastatan_unloaded(self):
        # error_profile imports it on first use, as sweep does, so commands
        # that never filter do not build its table at start-up
        probe = "import sys, arctanbounds.cli; print('arctanbounds.fastatan' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                text=True, check=True)
        assert result.stdout == "False\n"

    def test_commands_load_only_what_they_use(self):
        # classify, enclose and eval need catalog and fixedpoint alone; the
        # other modules and the lazy public names load on first use
        probe = """
import contextlib, io, sys
import arctanbounds, arctanbounds.cli as cli

def loaded():
    return sorted(m for m in sys.modules if m.startswith("arctanbounds"))

print(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["classify", "--a", "0.6"], ["enclose", "--a", "0.5", "--x", "1"],
                 ["eval", "--bound", "family-upper", "--x", "2", "--a", "0.3",
                  "--digits", "30"]):
        assert cli.main(argv) == 0
print(loaded())
print("sweep" in vars(arctanbounds))
from arctanbounds import *
print(loaded())
"""
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                text=True, check=True)
        eager = ["arctanbounds", "arctanbounds.catalog", "arctanbounds.cli",
                 "arctanbounds.errors", "arctanbounds.fixedpoint"]
        after_star = sorted(eager + ["arctanbounds.family", "arctanbounds.kernel",
                                     "arctanbounds.oracle"])
        assert result.stdout.splitlines() == [str(eager), str(eager), "False",
                                              str(after_star)]

    def test_linear_grid_has_zero_and_negative_rows(self):
        xs = FILTER_GRIDS[-1].values()
        assert 0.0 in xs and min(xs) == -5.0

    @pytest.mark.parametrize("digits", [20, 30, 100, 320, 330])
    def test_error_bound_covers_every_row(self, digits):
        for grid in FILTER_GRIDS:
            assert filter_misses(error_profile(DEFAULT_KERNEL, grid, digits),
                                 FAST_ATAN_K) == []

    def test_tiny_rows_settle_in_double(self):
        # below 2**-1000 fast_atan(x) == x, so the estimate is 0, and the
        # measured error rounds to 0 at the digits such a row takes: E = 0.
        # It used to leave 71 of these 2000 rows to fixed point
        rng = random.Random(1000)
        top = _bits(2.0 ** -1000)
        for bits in (rng.randrange(1, top) for _ in range(10_000)):
            assert fast_atan(_from_bits(bits)) == _from_bits(bits)
        grid = GridSpec(5e-324, sys.float_info.max, 2000)
        for digits in (30, 100):
            assert error_profile(DEFAULT_KERNEL, grid, digits).exact_rows == 1
        # at 320 to 323 digits the one-subnormal certificates are measured at
        # the report's digits, and E keeps its terms
        assert filter_misses(error_profile(DEFAULT_KERNEL, FILTER_GRIDS[5], 322),
                             FAST_ATAN_K) == []

    @pytest.mark.parametrize("digits", [20, 30, 100, 322, 330])
    def test_rows_below_2_to_the_minus_1000_are_measured_in_double(self, digits):
        # there E = 0 and M = a exactly: no such row is measured in fixed
        # point, not even as a candidate for the largest M (every one was)
        grid = GridSpec(5e-324, 1e-310, 2000)
        prof = error_profile(DEFAULT_KERNEL, grid, digits)
        assert prof.exact_rows == prof.extra_digit_rows == 0
        assert prof.max_certified == max(r.certified for r in prof.rows)
        assert prof.max_actual == max(r.actual for r in prof.rows) == 0.0
        assert prof.certified_everywhere == all(r.ratio >= 1.0 for r in prof.rows)

    def test_error_bound_needs_the_fast_atan_term(self):
        # without fast_atan's error the check above fails: it is not covered
        # by the other terms
        prof = error_profile(DEFAULT_KERNEL, SMALL_GRID, 30)
        assert filter_misses(prof, FAST_ATAN_K) == []
        assert len(filter_misses(prof, 0.0)) > 10
