import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arctanbounds import family
from arctanbounds import (
    DomainError,
    FixedReal,
    ParamError,
    PrecisionError,
    SingularityError,
    TWO_OVER_PI,
    family_ratio,
    family_ratio_at_zero,
    find_interior_minimum,
    gap_quadratic,
    minimum_value_closed_form,
    quadratic_root_neg,
    quadratic_root_pos,
    shafer_defect,
    shafer_defect_derivative,
    stationarity_gap,
)


def central_difference(f, x, h):
    return (f(x + h) - f(x - h)) / (2 * h)


class TestFamilyRatio:
    def test_value_at_one(self):
        assert family_ratio(0.0, 1.0) == pytest.approx(
            math.sqrt(2) * math.pi / 4, rel=1e-15)

    def test_limits(self):
        for a in [-1.0, 0.0, 0.3, 0.7]:
            assert family_ratio(a, 1e-9) == pytest.approx(1 + a, abs=1e-9)
            assert family_ratio(a, 1e9) == pytest.approx(math.pi / 2, abs=1e-8)
        assert family_ratio_at_zero(0.3) == 1.3

    def test_domain(self):
        with pytest.raises(DomainError):
            family_ratio(0.5, 0.0)
        with pytest.raises(DomainError):
            family_ratio(0.5, -1.0)

    def test_fixed_point_path(self):
        f_hp = family_ratio(FixedReal(0.3, 40), FixedReal(2, 40))
        assert float(f_hp) == pytest.approx(family_ratio(0.3, 2.0), rel=1e-14)


class TestStationarityGap:
    def test_limit_at_infinity(self):
        # g -> 1/a - pi/2
        for a in [0.6, 1.0, 2.0]:
            assert stationarity_gap(a, 1e10) == pytest.approx(
                1 / a - math.pi / 2, abs=1e-9)

    def test_limit_at_zero(self):
        for a in [0.3, 0.6, 2.0]:
            assert abs(stationarity_gap(a, 1e-8)) < 1e-7

    def test_negative_on_initial_branch_in_minimum_regime(self):
        assert stationarity_gap(0.6, 0.5) < 0

    def test_singularity_signalled(self):
        # at x = 1, a = -1/sqrt(2) makes 1 + a*u vanish exactly in doubles
        a = -0.7071067811865475
        assert 1.0 + a * math.sqrt(2.0) == 0.0
        with pytest.raises(SingularityError):
            stationarity_gap(a, 1.0)

    def test_derivative_sign_consistency(self):
        # sign of d/dx family_ratio == sign of g * (1 + a u), checked against
        # a central finite difference away from |g| ~ 0
        h_scale = (2.0 ** -52) ** (1.0 / 3.0)
        xs = [10 ** (-3 + 6 * i / 60) for i in range(61)]
        for a in [-3.0, -1.0, -0.5, 0.0, 0.3, 0.5, 0.55, 0.6, TWO_OVER_PI, 1.0, 2.0]:
            for x in xs:
                g = stationarity_gap(a, x)
                if abs(g) < 1e-10:
                    continue
                pivot = 1 + a * math.sqrt(1 + x * x)
                h = h_scale * max(1.0, x)
                fd = central_difference(lambda t: family_ratio(a, t), x, h)
                if fd == 0.0:
                    continue
                assert (fd > 0) == (g * pivot > 0), (a, x, fd, g * pivot)


class TestGapQuadratic:
    def test_values_at_one(self):
        assert gap_quadratic(1.0, 1.0) == pytest.approx(1 + math.sqrt(2), rel=1e-15)
        assert gap_quadratic(0.0, 1.0) == pytest.approx(-math.sqrt(2), rel=1e-15)

    def test_roots_annihilate_in_fixed_point(self):
        for x in [1e-4, 0.3, 1.0, 55.0, 1e3]:
            x_hp = FixedReal(x, 40)
            for root in (quadratic_root_pos(x_hp), quadratic_root_neg(x_hp)):
                assert abs(float(gap_quadratic(root, x_hp))) < 1e-20

    @given(st.floats(min_value=-3, max_value=3),
           st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=150)
    def test_factorization(self, a, x):
        # h(a, x) = 2u (a - r-)(a - r+); tolerance is relative to the natural
        # scale 2u(1+|a|)^2 so near-root cancellation does not inflate it
        u = math.sqrt(1 + x * x)
        h = gap_quadratic(a, x)
        product = 2 * u * (a - quadratic_root_neg(x)) * (a - quadratic_root_pos(x))
        assert abs(h - product) <= 1e-12 * 2 * u * (1 + abs(a)) ** 2


class TestRootCurves:
    def test_values_at_one(self):
        assert quadratic_root_pos(1.0) == pytest.approx(0.5520922915590256, abs=1e-15)
        assert quadratic_root_neg(1.0) == pytest.approx(-0.9056456821522993, abs=1e-15)

    def test_limits(self):
        assert quadratic_root_pos(1e-8) == pytest.approx(0.5, abs=1e-12)
        assert quadratic_root_pos(1e8) == pytest.approx(math.sqrt(2) / 2, abs=1e-7)
        assert quadratic_root_neg(1e-8) == pytest.approx(-1.0, abs=1e-12)
        assert quadratic_root_neg(1e8) == pytest.approx(-math.sqrt(2) / 2, abs=1e-7)

    def test_ranges_and_monotonicity_fixed_point(self):
        # doubles cannot resolve the increments near the grid bottom, so the
        # strictness check runs in fixed point
        half = FixedReal(1, 30) / 2
        sqrt_half = FixedReal(0.5, 30).sqrt()
        prev_pos = prev_neg = None
        for i in range(200):
            x = FixedReal(10 ** (-8 + 16 * i / 199), 30)
            pos, neg = quadratic_root_pos(x), quadratic_root_neg(x)
            assert half < pos < sqrt_half
            assert -1 < neg < -sqrt_half
            if prev_pos is not None:
                assert pos > prev_pos
                assert neg > prev_neg
            prev_pos, prev_neg = pos, neg

    def test_domain(self):
        with pytest.raises(DomainError):
            quadratic_root_pos(0.0)
        with pytest.raises(DomainError):
            quadratic_root_neg(-2.0)


class TestDefect:
    def test_derivative_at_zero_and_one(self):
        assert shafer_defect_derivative(0.0) == 0.0
        assert shafer_defect_derivative(1.0) == pytest.approx(
            0.005852991110277028, abs=1e-15)

    def test_defect_zero_at_origin_positive_after(self):
        assert shafer_defect(0.0) == 0.0
        for x in [0.1, 1.0, 10.0]:
            assert shafer_defect(x) > 0

    def test_matches_finite_difference(self):
        h_scale = (2.0 ** -52) ** (1.0 / 3.0)
        for i in range(50):
            x = 10 ** (-3 + 6 * i / 49)
            h = h_scale * max(1.0, x)
            fd = central_difference(shafer_defect, x, h)
            assert shafer_defect_derivative(x) == pytest.approx(fd, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            shafer_defect(-0.1)
        with pytest.raises(DomainError):
            shafer_defect_derivative(-0.1)


class TestInteriorMinimum:
    @pytest.mark.parametrize("a", [0.51, 0.55, 0.6, 0.63])
    def test_converges_with_certified_value(self, a):
        res = find_interior_minimum(a)
        assert res.residual <= 1e-12
        assert res.u == pytest.approx(math.sqrt(1 + res.x0 ** 2), rel=1e-15)
        # value agrees with the closed form through u
        assert res.value == pytest.approx(
            minimum_value_closed_form(a, res.u), abs=1e-11)
        # strictly between the regime's certified constants
        assert 4 * a * (1 - a * a) < res.value < min(1 + a, math.pi / 2)

    def test_local_minimum_certificate(self):
        res = find_interior_minimum(0.6)
        delta = 1e-3 * res.x0
        assert family_ratio(0.6, res.x0 - delta) > res.value
        assert family_ratio(0.6, res.x0 + delta) > res.value

    def test_fixed_point_characterization(self):
        a = 0.6
        res = find_interior_minimum(a)
        u = math.sqrt(1 + res.x0 ** 2)
        rational = (res.x0 + res.x0 ** 3 + a * res.x0 * u) / (
            (1 + res.x0 ** 2) * (1 + a * u))
        assert math.atan(res.x0) == pytest.approx(rational, abs=1e-11)

    @pytest.mark.parametrize("a", [0.4, 0.5, TWO_OVER_PI, 0.7, -0.5])
    def test_rejects_outside_regime(self, a):
        with pytest.raises(ParamError):
            find_interior_minimum(a)

    @pytest.mark.parametrize("a", [
        *(0.5 + 10.0 ** -k for k in range(3, 13)),
        math.nextafter(0.5, 1), math.nextafter(TWO_OVER_PI, 0),
        0.51, 0.55, 0.6, 0.63,
    ])
    def test_matches_fixed_point_reference(self, a):
        lo, hi = reference_minimum(a)
        res = find_interior_minimum(a)
        assert res.x0 == pytest.approx(lo, rel=1e-13)
        assert res.residual <= 1e-12

    def test_gap_error_bound(self):
        # the fixed-point gap at d digits lies within _GAP_ERROR_UNITS of the
        # gap at 3d, over the regime and the whole bracketing range
        rng = random.Random(20261018)
        for _ in range(300):
            a = rng.uniform(0.5, TWO_OVER_PI)
            x = 10 ** rng.uniform(-8, 16)
            d = rng.choice([20, 30, 60])
            g = stationarity_gap(FixedReal(a, d), FixedReal(x, d)).units
            fine = stationarity_gap(FixedReal(a, 3 * d), FixedReal(x, 3 * d)).units
            assert abs(g * 10 ** (2 * d) - fine) <= family._GAP_ERROR_UNITS * 10 ** (2 * d)

    def test_unresolved_sign_raises(self, monkeypatch):
        # at a = 1/2 + 1e-9 the last bisection steps meet gaps below the
        # 12-unit bound at 30 digits, and the cap allows no more
        monkeypatch.setattr(family, "_GAP_MAX_DIGITS", family._GAP_DIGITS)
        with pytest.raises(PrecisionError):
            find_interior_minimum(0.5 + 1e-9)


def reference_minimum(a, digits=120):
    """Adjacent doubles lo < hi with the gap negative at lo and positive at
    hi: a plain bisection of the gap's sign at 120 digits, each sign many
    orders of magnitude above the last digit."""
    def positive(x):
        g = stationarity_gap(FixedReal(a, digits), FixedReal(x, digits))
        assert abs(g.units) > 10 ** 6
        return g.units > 0

    lo = hi = 1.0
    if positive(1.0):
        while positive(lo):
            lo, hi = lo / 2, lo
    else:
        while not positive(hi):
            lo, hi = hi, hi * 2
    while math.nextafter(lo, hi) < hi:
        mid = lo + (hi - lo) / 2
        if positive(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


class TestMinimumClosedForm:
    def test_arithmetic_example(self):
        assert minimum_value_closed_form(0.6, 2.0) == pytest.approx(
            6.76 / 4.4, rel=1e-15)

    def test_exceeds_cubic_constant_on_u_scan(self):
        a = 0.6
        floor = 4 * a * (1 - a * a)
        for i in range(400):
            u = 1.0 + (1000.0 - 1.0) * (i + 1) / 400
            assert minimum_value_closed_form(a, u) > floor

    def test_domain(self):
        with pytest.raises(DomainError):
            minimum_value_closed_form(0.6, 1.0)
        with pytest.raises(ParamError):
            minimum_value_closed_form(0.4, 2.0)


class TestMonotonicitySamples:
    # quick float check on a range doubles can resolve; the acceptance suite
    # repeats this over [1e-8, 1e8] in fixed point, where strictness is exact
    def test_orderings_match_regimes(self):
        rng = random.Random(20260810)
        pairs = []
        for _ in range(1000):
            x1 = 10 ** rng.uniform(-3, 3)
            x2 = 10 ** rng.uniform(-3, 3)
            if x1 != x2:
                pairs.append((min(x1, x2), max(x1, x2)))
        for a in [-3.0, -1.0, 0.0, 0.3, 0.5]:
            assert all(family_ratio(a, x1) < family_ratio(a, x2) for x1, x2 in pairs)
        for a in [TWO_OVER_PI, 0.8, 1.5]:
            assert all(family_ratio(a, x1) > family_ratio(a, x2) for x1, x2 in pairs)
        for a in [0.55, 0.6, 0.63]:
            up = any(family_ratio(a, x1) < family_ratio(a, x2) for x1, x2 in pairs)
            down = any(family_ratio(a, x1) > family_ratio(a, x2) for x1, x2 in pairs)
            assert up and down
