import math
import subprocess
import sys
from fractions import Fraction

import pytest

from arctanbounds import DEFAULT_GRID, BoundId, eval_bound_hp, oracle_arctan
from arctanbounds import series as ser
from arctanbounds.catalog import TWO_OVER_PI, bound_side
from arctanbounds.cli import _suite_entries

#: The suite entries with a defect series, and its variable.
SERIES_ROWS = {
    (BoundId.SHAFER_LOWER, None): "t",
    (BoundId.HALF_ANGLE_UPPER, None): "t",
    (BoundId.RATIO_LOWER, None): "t",
    (BoundId.IDENTITY_UPPER, None): "t",
    (BoundId.CUBIC_LOWER, None): "t",
    (BoundId.LOG_LOWER, None): "t",
    (BoundId.LOG_UPPER, None): "x",
    (BoundId.TWO_OVER_PI_LOWER, None): "s",
    (BoundId.TWO_OVER_PI_UPPER, None): "t",
    **{(BoundId.FAMILY_LOWER, a): "t" for a in (0.0, 0.1, 0.25, 0.5)},
    (BoundId.REVERSED_LOWER, TWO_OVER_PI): "s",
    **{(BoundId.REVERSED_UPPER, a): "t" for a in (TWO_OVER_PI, 0.7, 1.0, 2.0)},
    (BoundId.MID_REGIME_UPPER, 0.6): "t",
}


def reference_digits(x: float) -> int:
    return 40 + 3 * max(0, -math.floor(math.log10(x)))


@pytest.fixture(scope="module")
def exact_margins() -> dict:
    """Every default-grid point in each series' domain, farthest from where
    the row touches arctan first, with the margin from the fixed-point path
    at reference_digits(x): its error, a few units of 10**-digits, is far
    below the series' own error bound at every point."""
    oracle = {}
    out = {}
    for (bound, a) in SERIES_ROWS:
        evaluator = ser.margin_evaluator(bound, a)
        rows = []
        for x in DEFAULT_GRID.values():
            if not evaluator.x_min <= x <= evaluator.x_max:
                continue
            digits = reference_digits(x)
            if x not in oracle:
                oracle[x] = oracle_arctan(x, digits).units
            diff = oracle[x] - eval_bound_hp(bound, x, a, digits=digits).units
            if bound_side(bound) == "upper":
                diff = -diff
            rows.append((x, Fraction(diff, 10 ** digits)))
        out[bound, a] = rows[::-1] if evaluator.x_max < 1 else rows
    return out


def misses(evaluator, rows):
    """The points whose exact margin lies outside the series' interval,
    compared exactly, with no slack."""
    for x, exact in rows:
        m, e = evaluator.margin(x)
        if abs(exact - Fraction(m)) > Fraction(e):
            yield x


def mutated(bound, a, k, shift=Fraction(0), tail=None):
    """The row's evaluator with coefficient k's ball moved by `shift`, or
    with the tail constant replaced."""
    series = ser.defect_series(bound, a)
    coefficients = list(series.coefficients)
    coefficients[k] = coefficients[k] + shift
    series = series._replace(coefficients=tuple(coefficients),
                             tail=series.tail if tail is None else tail)
    return ser.evaluator(series)


def test_rows_with_series():
    have = {(bound, a): ser.defect_series(bound, a).var
            for bound, a in _suite_entries("all") if ser.defect_series(bound, a)}
    assert have == SERIES_ROWS


def test_series_contains_exact_margin(exact_margins):
    for (bound, a), rows in exact_margins.items():
        assert len(rows) > 1000, (bound, a)
        assert list(misses(ser.margin_evaluator(bound, a), rows)) == [], (bound, a)


def test_constant_term_one_ulp_off_fails(exact_margins):
    # a tangent row's constant coefficient is 1 - c/(d+e) or pi/2 - c/e, 0 to
    # the width of pi; evaluated in double it could be off by one ulp of 1
    for (bound, a), rows in exact_margins.items():
        if bound is BoundId.LOG_LOWER:     # margin ~ x/2: not tangent
            continue
        evaluator = mutated(bound, a, 0, shift=Fraction(1, 2 ** 52))
        assert any(misses(evaluator, rows)), (bound, a)


def test_dropped_tail_fails(exact_margins):
    for (bound, a), rows in exact_margins.items():
        assert any(misses(mutated(bound, a, 0, tail=Fraction(0)), rows)), (bound, a)


def test_leading_coefficient_off_fails(exact_margins):
    # one ulp of the leading coefficient moves the margin by about one ulp,
    # inside the evaluation's proven bound of (3M + 3)u; 64 ulps are outside
    # it (reversed-lower at a = 2/pi leads with a ~6e-17 term, which 64 of
    # its ulps cannot move)
    for (bound, a), rows in exact_margins.items():
        series = ser.defect_series(bound, a)
        k = next(k for k, c in enumerate(series.coefficients)
                 if not ser._has_zero(c) and abs(c.ends()[0]) > 2.0 ** -20)
        lead = float(series.coefficients[k].ends()[0])
        shift = Fraction(64 * math.ulp(lead))
        assert any(misses(mutated(bound, a, k, shift=shift), rows)), (bound, a)


def test_log_lower_radius_grows_like_one_over_x():
    # log-lower's fixed-point form divides a log good to a unit by 2x, so its
    # radius grows like 1/x, while Shafer's stays a few units
    for x in (1e-4, 1e-8):
        radius = eval_bound_hp(BoundId.LOG_LOWER, x, digits=50).err
        assert 0.5 / x <= radius <= 4 / x
        assert eval_bound_hp(BoundId.SHAFER_LOWER, x, digits=50).err <= 4


def test_domains():
    at_zero = ser.margin_evaluator(BoundId.SHAFER_LOWER, None)
    at_inf = ser.margin_evaluator(BoundId.TWO_OVER_PI_LOWER, None)
    assert (at_zero.x_min, at_zero.x_max) == (2.0 ** -60, 2.0 ** -4)
    assert (at_inf.x_min, at_inf.x_max) == (2.0 ** 4, 2.0 ** 60)
    assert ser.margin_evaluator(BoundId.FAMILY_UPPER, 0.25) is None
    assert ser.margin_evaluator(BoundId.TWO_OVER_PI_LOWER_ERRATA, None) is None


def test_pi_rows_lead_with_balls_about_zero():
    for bound, a in [(BoundId.TWO_OVER_PI_UPPER, None), (BoundId.TWO_OVER_PI_LOWER, None)]:
        lo, hi = ser.defect_series(bound, a).coefficients[0].ends()
        assert lo < 0 < hi and hi - lo < Fraction(1, 10 ** 98)
    # every ball is under a hundred units of 1e-100 wide
    for bound, a in [(BoundId.FAMILY_LOWER, 0.1), (BoundId.SHAFER_LOWER, None)]:
        for c in ser.defect_series(bound, a).coefficients:
            assert c.digits == 100 and c.err < 100
    lo, hi = ser.defect_series(BoundId.SHAFER_LOWER, None).coefficients[2].ends()
    assert lo <= Fraction(1, 180) <= hi


def test_nothing_built_at_import():
    code = ("import arctanbounds, arctanbounds.series as s, arctanbounds.fixedpoint as fp;"
            "print(s.defect_series.cache_info().currsize, fp._atan_table.cache_info().currsize,"
            " fp.pi_units.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["0", "0", "0"]
