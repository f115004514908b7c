import math
import random
import subprocess
import sys
from fractions import Fraction
from typing import NamedTuple

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
from arctanbounds import algebra as alg
from arctanbounds import catalog as cat
from arctanbounds import cli
from arctanbounds import fixedpoint as fp
from arctanbounds import kernel as ker
from arctanbounds import oracle as orc
from arctanbounds import runs
from arctanbounds.catalog import _DOWN, _UP
from arctanbounds.fixedpoint import _bits, _from_bits, x_of

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

    def test_x_that_is_not_a_double_is_taken_as_its_double(self):
        # as enclosure takes it: a nonzero x whose double is 0.0 has no
        # certificate (0.0 is not within 0.0 of arctan x); one whose double
        # is not 0 is certified there
        for x in (Fraction(1, 10 ** 400), Fraction(-1, 10 ** 400), Fraction(1, 2 ** 1076)):
            with pytest.raises(DomainError, match="no nonzero double"):
                approx(DEFAULT_KERNEL, x)
        for x in (Fraction(1, 2 ** 1050), Fraction(-3, 10 ** 310), 0, Fraction(0)):
            assert approx(DEFAULT_KERNEL, x) == approx(DEFAULT_KERNEL, float(x))
            assert type(approx(DEFAULT_KERNEL, x).value) is float

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

    def test_rows_are_the_exact_error_rounded_once(self):
        # each row's actual is |value - arctan x| rounded once, as a 120-digit
        # reference gives it (its radius, 2e-120, lies far below the ulp of
        # the smallest error here, 3.3e-25 at x = 1e-8), and so the same
        # double at every digits the measurement starts at
        def reference(x: float, value: float) -> float:
            atan = oracle_arctan(x, 120)
            return float(abs(Fraction(value) - Fraction(atan.units, atan.scale)))
        for grid in (GridSpec(1e-8, 1e8, 200), GridSpec(-5.0, 5.0, 201, "linear")):
            expected = None
            for digits in (20, 30, 100):
                rows = error_profile(DEFAULT_KERNEL, grid, digits).rows
                expected = expected or [_bits(reference(r.x, r.value)) for r in rows]
                assert [_bits(r.actual) for r in rows] == expected, digits

    def test_needs_twenty_digits(self):
        with pytest.raises(ParamError):
            error_profile(DEFAULT_KERNEL, SMALL_GRID, digits=19)


def _seeded_log_grid(seed: int) -> GridSpec:
    rng = random.Random(seed)
    return GridSpec(10 ** rng.uniform(-12, -1), 10 ** rng.uniform(1, 12),
                    rng.randint(200, 500), "log")


def _session_grid(seed: int) -> GridSpec:
    """2000 log points from 1e-8 to 1e8, each end moved by up to half a decade,
    as the benchmark's analysis sessions profile them."""
    rng = random.Random(seed)
    return GridSpec(1e-8 * 10 ** rng.uniform(-0.5, 0.5), 1e8 * 10 ** rng.uniform(-0.5, 0.5),
                    2000, "log")


SESSION_GRIDS = [_session_grid(seed) for seed in range(3)]
#: A linear grid through 0, with negative rows.
LINEAR_GRID = GridSpec(-5.0, 5.0, 201, "linear")
#: The grids every profile is checked on against every row: subnormal rows,
#: rows below 2**-1000 where approx returns x, rows from 2**512 where x*x
#: overflows, grids through 0 and wholly negative ones, and seeded log grids.
EDGE_GRIDS = ([GridSpec(5e-324, 1e-310, 300), GridSpec(1e-300, 1e300, 400),
               GridSpec(5e-324, DBL_MAX, 300), GridSpec(1e-305, 1e-302, 200),
               LINEAR_GRID, GridSpec(-1e-3, 1e-3, 101, "linear"),
               GridSpec(-1e300, 1e300, 400, "linear"), GridSpec(-3.0, -1e-3, 100, "linear"),
               GridSpec(-1e10, -1.0, 200, "linear"), GridSpec(-2.8, -2.5, 150, "linear"),
               GridSpec(2.5, 2.9, 300, "linear"), GridSpec(1e17, 1e300, 300)]
              + [_seeded_log_grid(seed) for seed in range(4)])


def _slope(low: tuple, high: tuple, atan: bool) -> tuple:
    """P(u), u^2 (a_low + u)^2 (a_high + u)^2 times the slope in x of the sum
    of k x / (a + u), k (a u + 1) / (u (a + u)^2), over low and high, each
    (k, a), less that of arctan x, 1 / u^2, if atan."""
    (k1, a1), (k2, a2) = low, high
    s1, s2 = (alg._mul(alg._poly(a, 1), alg._poly(a, 1)) for a in (a1, a2))
    p = alg._add(alg._mul(alg._poly(0, k1, k1 * a1), s2), alg._mul(alg._poly(0, k2, k2 * a2), s1))
    return alg._sub(p, alg._mul(s1, s2)) if atan else p


class End(NamedTuple):
    """One of approx's four ends, c * (x / (a + u)) * scale: a catalog row at
    a, its constant c as a double, rounded outward by scale."""

    bound: BoundId
    a: float
    c: float
    scale: float


def kernel_ends() -> tuple:
    """approx's ends at DEFAULT_KERNEL: family-lower, reversed-upper,
    reversed-lower and family-upper, each c from its catalog row's consts at
    the double a and math.pi, its scale from the row's side."""
    a_low, a_high = DEFAULT_KERNEL.a_low, DEFAULT_KERNEL.a_high
    ends = []
    for bound, a in ((BoundId.FAMILY_LOWER, a_low), (BoundId.REVERSED_UPPER, a_high),
                     (BoundId.REVERSED_LOWER, a_high), (BoundId.FAMILY_UPPER, a_low)):
        row = cat._CATALOG[bound]
        c, _, _ = row.consts(a, math.pi)
        ends.append(End(bound, a, c, _DOWN if row.side == "lower" else _UP))
    return tuple(ends)


def kernel_pieces() -> list:
    """The kernel's bracket as (u_stop, lower, upper) pieces in order, each up
    to the exact u at which an end changes (None: infinity)."""
    ll, uh, lh, ul = kernel_ends()

    def meet(p, q) -> Fraction:     # c_p / (a_p + u) = c_q / (a_q + u)
        cp, ap, cq, aq = map(Fraction, (p.c, p.a, q.c, q.a))
        return (cq * ap - cp * aq) / (cp - cq)
    return [(meet(ll, lh), ll, uh), (meet(ul, uh), lh, uh), (None, lh, ul)]


def holds_on_all_x(bound: BoundId, a: float) -> bool:
    """Whether the proof of a row on all of (0, inf) goes through at the
    double a: a rises row by its mark; any other shape row where c = pi/2
    and e = 1, so that its margin D = arctan x - c x / (d + e u) is 0 at 0+
    and at inf, and D's slope, of the sign of the slope polynomial Q, changes
    sign once, first moving D to the row's own side (down for an upper
    row): D then stays on that side."""
    row = cat._CATALOG[bound]
    if row.rises:
        return True
    c, _, e = row.consts(Fraction(a), alg.PI)
    own = 1 if row.side == "lower" else -1
    return (alg.sign(c - alg.PI / 2) == 0 and e == 1
            and alg.Comparison(alg.slope_polynomial(row, a)).signs == [own, -own])


def build_run_table(pieces: list) -> tuple:
    """runs._CUTS from the pieces: the brackets (lo, hi) in x of the pieces'
    ends and of the roots of the slopes of e* = mid* - arctan and w* in
    them (e* and w* of the exact model at the head of runs.py).  Adding a
    piece and committing this function's output extends the table."""
    cuts, start = [], (0.0, 0.0)
    for u_stop, lower, upper in pieces:
        t = math.inf if u_stop is None else u_stop - 1      # x = sqrt(t (t + 2))
        stop = (t, t) if u_stop is None else tuple(
            x_of(t.numerator, t.denominator, up) for up in (False, True))
        low, high = ((Fraction(end.c * end.scale) / 2, Fraction(end.a)) for end in (lower, upper))
        for poly in (_slope(low, high, True), _slope((-low[0], low[1]), high, False)):
            cuts += [b for b in alg.Comparison(poly).brackets if start[1] < b[0] and b[1] < stop[0]]
        cuts.append(stop)
        start = stop
    return tuple(sorted(cuts)[:-1])


class TestProfileRuns:
    """error_profile reads the kernel's monotone runs; its summary must be the
    one every row, measured in fixed point, gives."""

    @staticmethod
    def assert_summary_of_rows(prof):
        assert prof.max_certified == max(r.certified for r in prof.rows)
        assert prof.max_actual == max(r.actual for r in prof.rows)
        assert prof.certified_everywhere == all(r.ratio >= 1.0 for r in prof.rows)
        assert 0 <= prof.exact_rows <= prof.grid.points

    @pytest.mark.parametrize("digits", [20, 30, 100, 320, 330])
    @pytest.mark.parametrize("grid", EDGE_GRIDS, ids=str)
    def test_summary_equals_every_exact_row(self, grid, digits):
        prof = error_profile(DEFAULT_KERNEL, grid, digits)
        self.assert_summary_of_rows(prof)
        assert prof.certified_everywhere

    @pytest.mark.parametrize("digits", [20, 30, 100])
    @pytest.mark.parametrize("grid", SESSION_GRIDS, ids=str)
    def test_session_shaped_grids(self, grid, digits):
        prof = error_profile(DEFAULT_KERNEL, grid, digits)
        self.assert_summary_of_rows(prof)
        assert prof.certified_everywhere
        # the runs' ends near the maxima, at every digits
        assert prof.exact_rows <= 12

    @given(st.floats(-330.0, 308.0), st.floats(1e-12, 40.0), st.integers(2, 60),
           st.sampled_from(["log", "linear"]), st.sampled_from([20, 30, 100]))
    @settings(max_examples=60, deadline=None)
    def test_drawn_grids_match_every_row(self, end, width, points, spacing, digits):
        # log grids over 10**end .. 10**(end + width), linear ones from there
        # too, or through 0 from -10**end where points is odd
        lo = max(10.0 ** end, 5e-324)
        hi = 10.0 ** min(end + width, 308.0)
        if spacing == "linear" and points % 2:
            lo = -lo
        if not lo < hi:
            return
        self.assert_summary_of_rows(error_profile(DEFAULT_KERNEL,
                                                  GridSpec(lo, hi, points, spacing), digits))

    def test_summary_with_refuted_rows(self, monkeypatch):
        # halved certificates fail at every row whose error is over half the
        # kernel's, the row of the largest error among them: a measured row
        # its certificate does not cover sends the profile to every row.  A
        # shrink that fails only at rows of small error (0.998 fails at over
        # half of SMALL_GRID's rows, none near the largest) goes unseen: the
        # profile measures no such row, and covers it by approx's own rounding
        # (the argument at the head of runs.py), which a shrunken approx lacks
        def shrunk(spec, x):
            est = approx(spec, x)
            return ker.CertifiedValue(est.value, est.error_bound * 0.5)
        monkeypatch.setattr(ker, "approx", shrunk)
        for grid in (SMALL_GRID, LINEAR_GRID):
            prof = error_profile(DEFAULT_KERNEL, grid, 30)
            self.assert_summary_of_rows(prof)
            assert prof.exact_rows == grid.points
            assert not prof.certified_everywhere

    @pytest.mark.parametrize("digits", [20, 330])
    def test_profile_reads_no_catalog_row(self, monkeypatch, digits):
        # the four rows approx takes hold by proof (below): no profile reads a
        # catalog row, sweeps its slope or refines anything but the rows it
        # measures.  On [1e-300, 1e300] at 30 digits a run-time reading of
        # the two pi/2 rows took most of a first profile's time
        calls, rows = [], []

        def spy(name, f):
            return lambda *args, **kwargs: calls.append(name) or f(*args, **kwargs)

        def refine(evaluate, start, decided, what):
            # a row's measurement names the kernel's error (kernel._actual)
            (rows if what().startswith("the kernel's error") else calls).append("refine")
            return fp_refine(evaluate, start, decided, what)
        fp_refine = fp.refine
        for module, name in ((cat, "eval_bound_hp"), (orc, "_monotone_pieces")):
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        monkeypatch.setattr(fp, "refine", refine)
        for grid in EDGE_GRIDS:
            error_profile(DEFAULT_KERNEL, grid, digits)
        assert calls == [] and rows

    def test_each_end_holds_on_all_x(self):
        # the premise of runs.summary: each of approx's four rows lies on its
        # side of arctan on all of (0, inf), for the doubles approx takes
        # (TWO_OVER_PI lies 3.9e-17 above 2/pi).  Family-upper at 1/2 has
        # its margin fall, then rise back to 0 (a root near x = 1.8544), and
        # reversed-lower at TWO_OVER_PI rise, then fall (near x = 0.92475)
        for end in kernel_ends():
            assert holds_on_all_x(end.bound, end.a), end
        slope = {end.bound: alg.Comparison(alg.slope_polynomial(cat._CATALOG[end.bound], end.a))
                 for end in kernel_ends() if not cat._CATALOG[end.bound].rises}
        assert slope[BoundId.FAMILY_UPPER].crossovers[0][2] == pytest.approx(1.8544, abs=1e-4)
        assert slope[BoundId.REVERSED_LOWER].crossovers[0][2] == pytest.approx(0.92475, abs=1e-5)
        # outside their ranges, at a = 0.6, Q changes sign twice and the
        # same check refutes both rows
        for bound in (BoundId.REVERSED_LOWER, BoundId.FAMILY_UPPER):
            assert not holds_on_all_x(bound, 0.6)
            assert len(alg.Comparison(alg.slope_polynomial(cat._CATALOG[bound], 0.6)).signs) == 3

    def test_run_table(self):
        # the committed table is the one the kernel's pieces give: cut at the
        # two crossovers and where e* peaks, at x = 2.78429... (w* peaks at
        # the upper crossover), four runs
        assert build_run_table(kernel_pieces()) == runs._CUTS
        (l_lo, l_hi), (w_lo, w_hi), (e_lo, e_hi) = runs._CUTS
        assert all(hi == math.nextafter(lo, 3.0) for lo, hi in runs._CUTS)
        assert 2.1758413 < l_lo < 2.1758414 and 2.5727533 < w_lo < 2.5727534
        assert 2.7842927 < e_lo < 2.7842928

    def test_pieces_are_the_ends_approx_takes(self):
        # inside each piece approx's tighter lower and upper ends are the
        # piece's, at the spec's constants, and its value their midpoint
        spec, start = DEFAULT_KERNEL, 0.0
        for u_stop, lower, upper in kernel_pieces():
            stop = math.inf if u_stop is None else math.sqrt(float(u_stop) ** 2 - 1)
            for x in (start * 1.01 + 1e-3, min(stop, 1e6) * 0.99):
                ends = {e: e.c * (x / (e.a + math.hypot(1.0, x))) for e in kernel_ends()}
                lows = [e for e in ends if e.scale < 1.0]
                ups = [e for e in ends if e.scale > 1.0]
                assert max(lows, key=ends.get) == lower and min(ups, key=ends.get) == upper
                assert {lower.a, upper.a} <= {spec.a_low, spec.a_high}
                assert approx(spec, x).value == 0.5 * (ends[lower] * lower.scale
                                                       + ends[upper] * upper.scale)
            start = stop

    @pytest.mark.parametrize("digits", [20, 30, 100, 330])
    def test_rows_of_one_value_are_read_at_their_ends(self, digits):
        # from 2**53 a + u rounds to u = x: every row has one value and
        # certificate, and A = |v - arctan x| falls, then rises, so the first
        # and the last of those rows hold their largest actual error.  Those
        # alone are measured, where the parent read 15 to 300 of them
        rng = random.Random(53)
        far = [2.0 ** 53, DBL_MAX] + [_from_bits(rng.randrange(_bits(2.0 ** 53), _bits(DBL_MAX)))
                                      for _ in range(2000)]
        assert {approx(DEFAULT_KERNEL, x) for x in far} == {approx(DEFAULT_KERNEL, 2.0 ** 53)}
        for grid, read in ((GridSpec(1e17, 1e300, 300), 2),
                           (GridSpec(-1e300, 1e300, 2000, "linear"), 3)):
            prof = error_profile(DEFAULT_KERNEL, grid, digits)
            self.assert_summary_of_rows(prof)
            assert prof.exact_rows == read
            actual = [r.actual for r in prof.rows if r.x > 0]
            assert max(actual) == max(actual[0], actual[-1])

    def test_profile_never_imports_algebra(self):
        # the run table is committed and no catalog row is read: no profile
        # needs the exact algebra.  approx alone leaves the runs module
        # unloaded
        probe = """
import sys
from arctanbounds import kernel, oracle
kernel.approx(kernel.DEFAULT_KERNEL, 2.5)
print("arctanbounds.runs" in sys.modules)
for grid in (oracle.DEFAULT_GRID, oracle.GridSpec(-5.0, 5.0, 201, "linear"),
             oracle.GridSpec(2.0, 3.0, 300, "linear")):
    kernel.error_profile(kernel.DEFAULT_KERNEL, grid, 30)
print("arctanbounds.algebra" in sys.modules)
"""
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                text=True, check=True)
        assert result.stdout == "False\nFalse\n"

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
        xs = LINEAR_GRID.values()
        assert 0.0 in xs and min(xs) == -5.0

    @pytest.mark.parametrize("digits", [20, 30, 100, 322, 330, 600, 700])
    def test_rows_below_2_to_the_minus_1000_measure_zero(self, digits):
        # there A < x^3/3 < 2**-1075: M = 0 at every row, whatever digits
        # the measurement starts at.  Its ball reaches 0, and its abs starts
        # at 0, so each row settles at its first digits
        rng = random.Random(1000 + digits)
        top = _bits(2.0 ** -1000)
        for bits in [1, top - 1] + [rng.randrange(1, top) for _ in range(200)]:
            x = _from_bits(bits)
            first = max(digits, 30 + 2 * math.ceil(-math.log10(x)))
            assert approx(DEFAULT_KERNEL, x).value == x
            assert ker._actual(x, x, digits) == (0.0, first) == ker._actual(-x, -x, digits)
        assert ker._actual(5e-324, 5e-324, 30) == (0.0, 678)

    def test_csv_rows_below_2_to_the_minus_1000(self, capsys):
        # each row's value is x and its actual error 0.0, read at the first
        # digits (they once doubled to 1356)
        assert cli.main(["profile", "--grid-min", "5e-324", "--grid-max", "1e-310",
                         "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x,value,certified,actual,ratio" and len(lines) == 2001
        xs = GridSpec(5e-324, 1e-310, 2000).values()
        for x, line in zip(xs, lines[1:], strict=True):
            est = approx(DEFAULT_KERNEL, x)
            assert line == f"{x!r},{x!r},{est.error_bound!r},0.0,inf"

    @pytest.mark.parametrize("digits", [20, 30, 100, 322, 330])
    def test_rows_below_2_to_the_minus_1000_are_not_measured(self, digits):
        # no such row is measured in fixed point, not even as a candidate for
        # the largest M
        grid = GridSpec(5e-324, 1e-310, 2000)
        prof = error_profile(DEFAULT_KERNEL, grid, digits)
        assert prof.exact_rows == prof.extra_digit_rows == 0
        assert prof.max_certified == max(r.certified for r in prof.rows)
        assert prof.max_actual == max(r.actual for r in prof.rows) == 0.0
        assert prof.certified_everywhere == all(r.ratio >= 1.0 for r in prof.rows)
