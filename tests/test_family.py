import json
import math
import random
import re
import statistics
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arctanbounds import family, fixedpoint
from arctanbounds import (
    DomainError,
    FixedReal,
    ParamError,
    PrecisionError,
    Regime,
    SingularityError,
    TWO_OVER_PI,
    family_ratio,
    find_interior_minimum,
    minimum_value_closed_form,
    prove_regime,
    stationarity_gap,
)


def central_difference(f, x, h):
    return (f(x + h) - f(x - h)) / (2 * h)


@pytest.mark.parametrize("a, text", [
    (10 ** 400, "lies past the largest double"), (-10 ** 400, "lies past the largest double"),
    (Fraction(10 ** 400, 3), "lies past the largest double"),
    (math.inf, "must be finite"), (-math.inf, "must be finite"), (math.nan, "must be finite")],
    ids=["10**400", "-10**400", "Fraction", "inf", "-inf", "nan"])
def test_parameters_past_the_doubles_raise_as_in_catalog(a, text):
    # family_ratio(10**400, 1.0) returned inf and stationarity_gap a number;
    # inf and nan got FixedReal's "cannot represent a non-finite float".
    # Now each gets catalog's ParamError, plain x or ball
    for fn in (family_ratio, stationarity_gap):
        for x in (1.0, FixedReal(1, 40)):
            with pytest.raises(ParamError, match=f"^family parameter {text}$"):
                fn(a, x)


class TestFamilyRatio:
    def test_value_at_one(self):
        assert family_ratio(0.0, 1.0) == pytest.approx(
            math.sqrt(2) * math.pi / 4, rel=1e-15)

    def test_limits(self):
        for a in [-1.0, 0.0, 0.3, 0.7]:
            assert family_ratio(a, 1e-9) == pytest.approx(1 + a, abs=1e-9)
            assert family_ratio(a, 1e9) == pytest.approx(math.pi / 2, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            family_ratio(0.5, 0.0)
        with pytest.raises(DomainError):
            family_ratio(0.5, -1.0)

    def test_fixed_point_path(self):
        f_hp = family_ratio(FixedReal(0.3, 40), FixedReal(2, 40))
        assert float(f_hp) == pytest.approx(family_ratio(0.3, 2.0), rel=1e-14)

    @pytest.mark.parametrize("x", [1e200, math.inf, 10 ** 400])
    def test_no_silent_inf_or_nan_in_double(self, x):
        # in double the ratio read inf (its value is about pi/2) and the gap
        # nan once a step overflowed; now a double x gives the exact values
        # rounded once, and an x past the doubles raises
        if x == 1e200:
            assert family_ratio(0.5, x) == 1.5707963267948966      # pi/2's double
            assert stationarity_gap(0.5, x) == float(2 - FixedReal.pi(60) / 2)
        else:
            for fn in (family_ratio, stationarity_gap):
                with pytest.raises(DomainError):
                    fn(0.5, x)
        # in fixed point both stay finite and unchanged
        assert float(family_ratio(FixedReal(0.5, 40), FixedReal(1e200, 40))) == \
            pytest.approx(math.pi / 2, rel=1e-15)
        assert float(stationarity_gap(FixedReal(0.5, 40), FixedReal(1e200, 40))) == \
            pytest.approx(2 - math.pi / 2, rel=1e-15)
        assert math.isfinite(stationarity_gap(0.5, 1e100))


def rounded(ball_at, digits=30):
    """The double nearest the exact value behind the balls ball_at(d): the
    one both ends of the ball round to, at d = digits, twice that and so on
    until they do."""
    while True:
        try:
            ball = ball_at(digits)
        except PrecisionError:
            pass
        else:
            lo, hi = (float(Fraction(ball.units + s * ball.err, 10 ** ball.digits))
                      for s in (-1, 1))
            if lo == hi:
                return lo
        digits *= 2


def exact_ratio(a, x):
    def ball(d):
        a_, x_ = FixedReal(a, d), FixedReal(x, d)
        return (a_ + (1 + x_ * x_).sqrt()) * x_.atan() / x_
    return rounded(ball)


def exact_gap(a, x):
    # g = x u (u + a) / (u^2 (1 + a u)) - arctan x, as 1 + x^2 = u^2
    def ball(d):
        a_, x_ = FixedReal(a, d), FixedReal(x, d)
        u = (1 + x_ * x_).sqrt()
        return x_ * (u + a_) / (u * (1 + a_ * u)) - x_.atan()
    return rounded(ball)


def exact_closed_form(a, u):
    def ball(d):
        a_, u_ = FixedReal(a, d), FixedReal(u, d)
        return (a_ + u_) * (a_ + u_) / (u_ * (1 + a_ * u_))
    return rounded(ball)


class TestExactlyRounded:
    """With plain numbers each evaluation is the exact value at them
    rounded once to a double, checked against a ball built here, at digits
    where both its ends round alike."""

    @given(st.floats(min_value=-4.0, max_value=4.0),
           st.floats(min_value=1e-8, max_value=1e8),
           st.floats(min_value=0.5, max_value=TWO_OVER_PI, exclude_min=True,
                     exclude_max=True),
           st.floats(min_value=1.0, max_value=1e8, exclude_min=True))
    @settings(deadline=None)
    def test_doubles_are_the_exact_values_rounded_once(self, a, x, a_mid, u):
        assert family_ratio(a, x) == exact_ratio(a, x)
        assert stationarity_gap(a, x) == exact_gap(a, x)
        assert minimum_value_closed_form(a_mid, u) == exact_closed_form(a_mid, u)

    def test_cases_the_float_formulas_missed(self):
        # the double formulas gave 0.0, 1.17e16, 1.5707963267948968 (or
        # DomainError at x = 1e200) and an OverflowError
        assert stationarity_gap(0.6, 1e-8) == -4.166666666666665e-26 == exact_gap(0.6, 1e-8)
        s3 = math.sqrt(3)
        assert stationarity_gap(-0.5, s3) == 2.9895115314336884e+16 == exact_gap(-0.5, s3)
        assert family_ratio(0.5, 1e200) == 1.5707963267948966 == exact_ratio(0.5, 1e200)
        assert minimum_value_closed_form(0.6, 1e200) == 1.6666666666666667
        with pytest.raises(DomainError):
            minimum_value_closed_form(0.6, math.inf)

    def test_mixed_arguments_run_on_balls(self):
        # a plain argument beside a ball becomes a ball at its digits
        ball = stationarity_gap(FixedReal(0.6, 40), FixedReal(2.0, 40))
        for a, x in [(0.6, FixedReal(2.0, 40)), (FixedReal(0.6, 40), 2.0)]:
            mixed = stationarity_gap(a, x)
            assert (mixed.units, mixed.err, mixed.digits) == (ball.units, ball.err, 40)


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
        # at a = -4/5, x = 3/4, u = 5/4 and 1 + a*u vanishes exactly; the
        # message names the inputs as given
        for a, x in [(Fraction(-4, 5), 0.75), (FixedReal("-0.8", 30), FixedReal(0.75, 30))]:
            with pytest.raises(SingularityError, match=f"at a={re.escape(repr(a))}, "
                                                       f"x={re.escape(repr(x))}$"):
                stationarity_gap(a, x)
        # at doubles it never vanishes: here 1 + a*u rounds to 0 in double,
        # but the exact gap at these doubles is finite
        a = -0.7071067811865475
        assert 1.0 + a * math.sqrt(2.0) == 0.0
        assert stationarity_gap(a, 1.0) == 5640084168041827.0

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


def h(a, u):
    """The paper's quadratic 2a^2 u + a - u, exactly, at the double a."""
    q = Fraction(a)
    return 2 * q * q * u + q - u


#: Rational points u = sqrt(1+x^2) > 1 at which the algebra is checked.
U_POINTS = [Fraction(1) + Fraction(1, 10 ** k) for k in range(1, 30, 4)] + [
    Fraction(3, 2), Fraction(2), Fraction(10 ** 8), Fraction(10 ** 40)]


class TestRegimeAlgebra:
    """prove_regime's certificate against the algebra it rests on: h is
    linear in u with root u*, and Shafer's bound is the regime at a = 1/2."""

    def test_h_at_one_and_slope(self):
        # h(1, u) = u + 1 and h(0, u) = -u: 1 + sqrt2 and -sqrt2 at x = 1
        one, zero = prove_regime(1.0), prove_regime(0.0)
        assert (one.h_at_one, one.slope) == (2, 1)
        assert (zero.h_at_one, zero.slope) == (-1, -1)
        for u in U_POINTS:
            assert h(1.0, u) == one.slope * u + 1
            assert h(0.0, u) == zero.slope * u

    @given(st.floats(min_value=0.5, max_value=math.sqrt(0.5), exclude_min=True,
                     exclude_max=True))
    @settings(max_examples=150)
    def test_h_factors_through_its_root(self, a):
        # h(a, u) = (2a^2 - 1)(u - u*), exactly
        proof = prove_regime(a)
        for u in U_POINTS:
            assert h(a, u) == proof.slope * (u - proof.u_star)

    @pytest.mark.parametrize("a", [math.nextafter(0.5, 1.0), 0.5001, 0.55, 0.6,
                                   TWO_OVER_PI, 0.65, 0.7, 0.7071067811865475])
    def test_root_annihilates_h(self, a):
        proof = prove_regime(a)
        assert h(a, proof.u_star) == 0 and proof.u_star > 1

    def test_root_curve_values(self):
        # the root curve in a at x = 1 (u = sqrt2) passes through a ~ 0.55209
        u_star = prove_regime(0.5520922915590256).u_star
        assert float(u_star) == pytest.approx(math.sqrt(2), abs=1e-15)
        # it rises from u = 1 at a = 1/2 to infinity at a = sqrt2/2
        assert 0 < prove_regime(math.nextafter(0.5, 1.0)).u_star - 1 < Fraction(1, 10 ** 15)
        last = math.nextafter(math.sqrt(0.5), 0.0)
        assert 2 * Fraction(last) ** 2 < 1 and prove_regime(last).u_star > 10 ** 15

    def test_root_curve_rises(self):
        ends = (0.5, 0.7071067811865475)
        previous = 1
        for i in range(1, 200):
            a = ends[0] + (ends[1] - ends[0]) * i / 200
            u_star = prove_regime(a).u_star
            assert u_star > previous
            previous = u_star

    def test_negative_root_is_in_the_unclaimed_slice(self):
        # h's other root curve, -1 < a < -sqrt2/2, decides no regime
        proof = prove_regime(-0.9056456821522993)
        assert proof.regime is Regime.UNCLASSIFIED and proof.to_json_dict() == {}

    def test_shafer_through_a_half(self):
        # h(1) = 0 and slope -1/2: h = -(u-1)/2 < 0 on u > 1, so the ratio
        # (1/2 + u) arctan(x)/x rises from 3/2, which is
        # arctan x > 3x / (1 + 2u)
        proof = prove_regime(0.5)
        assert proof.regime is Regime.INCREASING
        assert (proof.h_at_one, proof.slope, proof.u_star) == (0, Fraction(-1, 2), None)
        for u in U_POINTS:
            assert h(0.5, u) == -(u - 1) / 2 < 0

    def test_shafer_defect_derivative(self):
        # the defect arctan x - 3x/(1+2u) has derivative Q(u) / (u^2 (1/2+u)^2)
        # with Q(u) = (1/2+u)^2 - (3/2)u(1 + u/2) = (u-1)^2 / 4: zero at
        # x = 0 only, ~0.005853 at x = 1
        for u in U_POINTS + [Fraction(1)]:
            q = (Fraction(1, 2) + u) ** 2 - Fraction(3, 2) * u * (1 + u / 2)
            assert q == (u - 1) ** 2 / 4
        u = math.sqrt(2.0)
        assert (u - 1) ** 2 / 4 / (u * u * (0.5 + u) ** 2) == pytest.approx(
            0.005852991110277028, abs=1e-15)

    def test_shafer_defect_positive(self):
        for x in [1e-3, 0.1, 1.0, 10.0, 1e3]:
            ratio = family_ratio(FixedReal(0.5, 40), FixedReal(x, 40))
            assert ratio > FixedReal(1.5, 40), x


#: Parameters whose minimum is checked against reference_minimum: 1/2 + 10^-k,
#: both ends of the regime, and four inside it.
REFERENCE_PARAMS = [
    *(0.5 + 10.0 ** -k for k in range(3, 13)),
    math.nextafter(0.5, 1), math.nextafter(TWO_OVER_PI, 0),
    0.51, 0.55, 0.6, 0.63,
]
#: find_interior_minimum's x0, value, u and residual at REFERENCE_PARAMS, as
#: repr strings, recorded when x0 became an end of the certified bracket
#: (each value as before, bit for bit); u at 0.501 and 0.51 recorded again
#: when it became sqrt(1 + x0^2) rounded once (math.sqrt read an ulp off)
FIND_MIN_GOLDEN = Path(__file__).parent / "data" / "find_min_golden.json"


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

    @pytest.mark.parametrize("a", REFERENCE_PARAMS)
    def test_matches_fixed_point_reference(self, a):
        lo, hi = reference_minimum(a)
        res = find_interior_minimum(a)
        assert res.x0 == pytest.approx(lo, rel=1e-13)
        assert res.residual <= 1e-12

    @pytest.mark.parametrize("a", REFERENCE_PARAMS)
    def test_matches_the_golden(self, a):
        # every field to the last bit: one gap sign that moved, or a sign
        # decided at other digits, moves x0 or the residual
        golden = {row.pop("a"): row for row in
                  json.loads(FIND_MIN_GOLDEN.read_text(encoding="utf-8"))}
        res = find_interior_minimum(a)
        assert {field: repr(getattr(res, field)) for field in golden[repr(a)]} \
            == golden[repr(a)]

    @pytest.mark.parametrize("a", REFERENCE_PARAMS)
    def test_value_is_the_rounded_ratio(self, a):
        # the double of the ratio at x0, not the ratio in double: that reads
        # 1.5707963267948968, one ulp above pi/2, next below 2/pi
        res = find_interior_minimum(a)
        exact = family_ratio(FixedReal(a, 120), FixedReal(res.x0, 120))
        assert res.value == float(exact)
        assert res.value <= math.pi / 2

    def test_gap_error_bound(self):
        # the fixed-point gap's ball at d digits meets the gap's ball at 3d,
        # over the regime and the whole bracketing range, and its radius
        # stays within the 12 units a hand-derived lemma once gave it
        rng = random.Random(20261018)
        for _ in range(300):
            a = rng.uniform(0.5, TWO_OVER_PI)
            x = 10 ** rng.uniform(-8, 16)
            d = rng.choice([20, 30, 60])
            g = stationarity_gap(FixedReal(a, d), FixedReal(x, d))
            fine = stationarity_gap(FixedReal(a, 3 * d), FixedReal(x, 3 * d))
            assert (abs(g.units * 10 ** (2 * d) - fine.units)
                    <= g.err * 10 ** (2 * d) + fine.err)
            assert g.err <= 12

    def test_unresolved_sign_raises(self, monkeypatch):
        # at a = 1/2 + 1e-9 the bracket's first ends, a few ulps from x0,
        # meet gaps within their radius at 30 digits, and the cap allows no
        # more
        monkeypatch.setattr(fixedpoint, "MAX_DIGITS", 30)
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


#: Parameters near each end of the regime: the doubles within 1e-9 of it.
NEAR_THE_ENDS = st.one_of(
    st.floats(min_value=0.5, max_value=0.5 + 1e-9, exclude_min=True),
    st.floats(min_value=TWO_OVER_PI - 1e-9, max_value=TWO_OVER_PI, exclude_max=True))


def check_the_ends(a):
    """find_interior_minimum(a) against the gap at 120 digits at its
    bracket's ends alone: negative at p and positive at q, each far past its
    radius, x0 the end where it is the smaller in magnitude, and residual
    that gap's size to within the radius of a ball from 30 digits."""
    res = find_interior_minimum(a)
    p, q = res.bracket
    gap_p, gap_q = (stationarity_gap(FixedReal(a, 120), FixedReal(x, 120)) for x in (p, q))
    assert p < q, a
    assert gap_p.units < -10 ** 6 * gap_p.err and gap_q.units > 10 ** 6 * gap_q.err, a
    nearer = gap_p if -gap_p.units < gap_q.units else gap_q
    assert res.x0 == (p if nearer is gap_p else q), a
    assert abs(res.residual - abs(float(nearer))) <= 20e-30 + math.ulp(res.residual), a


class TestCertifiedBracket:
    """find_interior_minimum certifies a bracket p < q of the gap's zero and
    reports x0 as the end where the gap is the smaller in magnitude."""

    @given(st.one_of(st.floats(min_value=0.5, max_value=TWO_OVER_PI,
                               exclude_min=True, exclude_max=True),
                     NEAR_THE_ENDS))
    @settings(deadline=None)
    def test_x0_is_the_end_with_the_smaller_gap(self, a):
        check_the_ends(a)

    def test_the_ends_on_seeded_parameters(self):
        rng = random.Random(20261019)
        for _ in range(1000):
            check_the_ends(rng.uniform(0.5, TWO_OVER_PI))

    @pytest.mark.parametrize("a", [0.5000022644731787, 0.500001000744279])
    def test_an_open_order_is_refined(self, a):
        # at 30 digits the gaps at these brackets' ends, -155 and +161 units
        # and -29 and +33, within 8 units each, leave open which is the
        # smaller: both are evaluated again at 60
        res = find_interior_minimum(a)
        assert (res.gap_evals, res.max_digits) == (4, 60)
        check_the_ends(a)

    def test_evaluation_budget(self, monkeypatch):
        calls = []
        gap = family.stationarity_gap

        def counting(a, x):
            if isinstance(x, FixedReal):
                calls.append(x.digits)
            return gap(a, x)
        monkeypatch.setattr(family, "stationarity_gap", counting)

        def evaluations(a):
            calls.clear()
            res = find_interior_minimum(a)
            assert (res.gap_evals, res.max_digits) == (len(calls), max(calls)), a
            return len(calls)

        for a in REFERENCE_PARAMS:
            evaluations(a)
        rng = random.Random(20261020)
        counts = [evaluations(rng.uniform(0.501, TWO_OVER_PI - 0.001))
                  for _ in range(200)]
        assert statistics.median(counts) <= 2

    @pytest.mark.parametrize("a", REFERENCE_PARAMS)
    def test_bracket_is_sound(self, a):
        # the gap at 120 digits is negative at p and positive at q, each far
        # past its radius, and the adjacent doubles around x0 lie between
        res = find_interior_minimum(a)
        p, q = res.bracket
        gaps = [stationarity_gap(FixedReal(a, 120), FixedReal(x, 120)) for x in (p, q)]
        assert gaps[0].units < -10 ** 6 * gaps[0].err
        assert gaps[1].units > 10 ** 6 * gaps[1].err
        lo, hi = reference_minimum(a)
        assert p <= lo < hi <= q


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
