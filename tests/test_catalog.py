import math
import random
import struct
import subprocess
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arctanbounds import (
    TWO_OVER_PI,
    ArctanBoundsError,
    BoundId,
    DomainError,
    Enclosure,
    ParamError,
    PrecisionError,
    Regime,
    best_enclosure,
    classify_regime,
    enclosure,
    eval_bound,
    eval_bound_hp,
    oracle_arctan,
    prove_regime,
)
import arctanbounds
from arctanbounds import catalog
from arctanbounds.catalog import FLOAT_FORM_MAX, FLOAT_FORM_MIN, float_form
from arctanbounds.cli import _suite_entries
from arctanbounds.fixedpoint import FixedReal

B = BoundId


class TestEvalBound:
    # expected values recomputed from the closed forms at high precision
    def test_shafer_at_one(self):
        assert eval_bound(B.SHAFER_LOWER, 1.0) == pytest.approx(
            3 / (1 + 2 * math.sqrt(2)), abs=1e-15)
        assert eval_bound(B.SHAFER_LOWER, 1.0) == pytest.approx(0.7836116248912243, abs=1e-15)

    def test_identity_upper_is_x(self):
        assert eval_bound(B.IDENTITY_UPPER, 0.5) == 0.5

    def test_errata_exceeds_arctan_at_one(self):
        value = eval_bound(B.TWO_OVER_PI_LOWER_ERRATA, 1.0)
        assert value == pytest.approx(0.9066522753866907, abs=1e-15)
        assert value > math.pi / 4  # the claimed lower bound fails here

    def test_corrected_lower_at_one(self):
        value = eval_bound(B.TWO_OVER_PI_LOWER, 1.0)
        assert value == pytest.approx(0.7659307561399281, abs=1e-15)
        assert value < math.pi / 4

    def test_two_over_pi_upper_at_one(self):
        assert eval_bound(B.TWO_OVER_PI_UPPER, 1.0) == pytest.approx(
            (math.pi + 2) / (2 + math.pi * math.sqrt(2)), abs=1e-15)

    def test_corrected_lower_is_reversed_family_member(self):
        # pi^2 x / (4 + 2 pi u) == (pi/2) x / (2/pi + u),
        # pi^2 x / (2 + 2 pi u) == (pi/2) x / (1/pi + u) (the errata is an upper bound),
        # (pi + 2) x / (2 + pi u) == (1 + 2/pi) x / (2/pi + u)
        pairs = [(B.TWO_OVER_PI_LOWER, B.REVERSED_LOWER, 2 / math.pi),
                 (B.TWO_OVER_PI_LOWER_ERRATA, B.FAMILY_UPPER, 1 / math.pi),
                 (B.TWO_OVER_PI_UPPER, B.REVERSED_UPPER, TWO_OVER_PI)]
        for direct_id, family_id, a in pairs:
            for x in [1e-6, 0.1, 1.0, 7.0, 250.0, 1e6]:
                direct = eval_bound(direct_id, x)
                family = eval_bound(family_id, x, a=a)
                assert direct == pytest.approx(family, rel=1e-14), (direct_id, x)

    def test_x_domain(self):
        for bad in [0.0, -1.0, math.inf, math.nan]:
            with pytest.raises(DomainError):
                eval_bound(B.SHAFER_LOWER, bad)

    def test_param_validity(self):
        with pytest.raises(ParamError):
            eval_bound(B.FAMILY_LOWER, 1.0)  # missing a
        with pytest.raises(ParamError):
            eval_bound(B.SHAFER_LOWER, 1.0, a=0.5)  # spurious a
        with pytest.raises(ParamError):
            eval_bound(B.FAMILY_LOWER, 1.0, a=0.6)  # outside [0, 1/2]
        with pytest.raises(ParamError):
            eval_bound(B.REVERSED_LOWER, 1.0, a=0.5)  # below 2/pi
        with pytest.raises(ParamError):
            eval_bound(B.MID_REGIME_LOWER, 1.0, a=0.4)
        with pytest.raises(ParamError):
            eval_bound(B.MID_REGIME_LOWER, 1.0, a=0.5)  # boundary excluded
        with pytest.raises(ParamError):
            eval_bound(B.FAMILY_LOWER, 1.0, a=math.nan)

    def test_family_lower_accepts_endpoints(self):
        eval_bound(B.FAMILY_LOWER, 1.0, a=0.0)
        eval_bound(B.FAMILY_LOWER, 1.0, a=0.5)
        eval_bound(B.REVERSED_LOWER, 1.0, a=TWO_OVER_PI)

    def test_mid_regime_upper_constant_switch(self):
        # below a = pi/2 - 1 the constant is pi/2, above it 1 + a
        u = math.sqrt(2.0)
        low = eval_bound(B.MID_REGIME_UPPER, 1.0, a=0.55)
        assert low == pytest.approx((math.pi / 2) / (0.55 + u), rel=1e-15)
        high = eval_bound(B.MID_REGIME_UPPER, 1.0, a=0.6)
        assert high == pytest.approx(1.6 / (0.6 + u), rel=1e-15)

    def test_hp_matches_float_path(self):
        for bound, a in [(B.SHAFER_LOWER, None), (B.LOG_UPPER, None),
                         (B.FAMILY_UPPER, 0.25), (B.MID_REGIME_LOWER, 0.6)]:
            for x in [1e-4, 0.7, 42.0]:
                f = eval_bound(bound, x, a)
                hp = float(eval_bound_hp(bound, x, a, digits=40))
                assert hp == pytest.approx(f, rel=1e-13)

    @pytest.mark.parametrize("x", [5e-324, 1e-200, math.nextafter(FLOAT_FORM_MIN, 0.0),
                                   math.nextafter(FLOAT_FORM_MAX, math.inf), 1e154,
                                   1e200, 1e300, sys.float_info.max])
    def test_outside_float_range_is_fixed_point_rounded(self, x):
        # x*x underflows or overflows here, where the float forms read 0.0,
        # inf or nan; eval_bound gives the fixed-point value rounded to
        # nearest, here checked at far more digits
        for bound, a in _suite_entries("all"):
            value = eval_bound(bound, x, a)
            exact = eval_bound_hp(bound, x, a, digits=700)
            try:
                want = float(exact)
            except OverflowError:
                want = -math.inf if exact.units < 0 else math.inf
            assert value == want, (bound, a, x)
        assert eval_bound(B.FAMILY_UPPER, x, 0.25) > 0.0
        assert eval_bound(B.LOG_LOWER, x) < 1.0

    def test_float_range_ends_keep_the_float_form(self):
        for x in (FLOAT_FORM_MIN, FLOAT_FORM_MAX):
            for bound, a in _suite_entries("all"):
                assert eval_bound(bound, x, a) == float_form(bound, a)[0](x), (bound, a, x)


class TestExactSpecialCases:
    def test_shafer_is_half_family_member(self):
        # a = 1/2 is exact in binary, so the identity holds to the last bit
        for x in [1e-6, 0.3, 1.0, 17.5, 1e7]:
            assert eval_bound(B.SHAFER_LOWER, x) == eval_bound(B.FAMILY_LOWER, x, a=0.5)

    def test_half_angle_is_unit_reversed_member(self):
        for x in [1e-6, 0.3, 1.0, 17.5, 1e7]:
            assert eval_bound(B.HALF_ANGLE_UPPER, x) == eval_bound(B.REVERSED_UPPER, x, a=1.0)

    def test_canonical_literal_forms(self):
        for x in [1e-3, 0.5, 2.0, 300.0]:
            u = math.sqrt(1 + x * x)
            assert eval_bound(B.SHAFER_LOWER, x) == pytest.approx(
                3 * x / (1 + 2 * u), rel=4e-16)
            assert eval_bound(B.HALF_ANGLE_UPPER, x) == pytest.approx(
                2 * x / (1 + u), rel=4e-16)


class TestClassifyRegime:
    @pytest.mark.parametrize("a,expected", [
        (-2.0, Regime.INCREASING),
        (-1.0, Regime.INCREASING),
        (0.0, Regime.INCREASING),
        (0.25, Regime.INCREASING),
        (0.5, Regime.INCREASING),
        (0.51, Regime.INTERIOR_MINIMUM),
        (0.6, Regime.INTERIOR_MINIMUM),
        (TWO_OVER_PI, Regime.DECREASING),
        (0.7, Regime.DECREASING),
        (2.0, Regime.DECREASING),
        (-0.5, Regime.UNCLASSIFIED),
        (-0.999, Regime.UNCLASSIFIED),
    ])
    def test_table(self, a, expected):
        assert classify_regime(a) is expected

    def test_non_finite(self):
        with pytest.raises(DomainError):
            classify_regime(math.nan)


def float_rule(a: float) -> Regime:
    """classify_regime as it was before prove_regime: three float interval
    tests on a, kept as a reference."""
    if a <= -1 or 0.0 <= a <= 0.5:
        return Regime.INCREASING
    if a >= TWO_OVER_PI:
        return Regime.DECREASING
    if 0.5 < a < TWO_OVER_PI:
        return Regime.INTERIOR_MINIMUM
    return Regime.UNCLASSIFIED


#: The regime boundaries, 1/sqrt(2) where the slope of h changes sign, and
#: the 7 doubles around each: the double itself and three on either side.
BOUNDARIES = (-1.0, 0.0, 0.5, math.sqrt(0.5), TWO_OVER_PI)
def _around(c: float) -> list[float]:
    """c and the three doubles on either side of it."""
    doubles, below, above = [c], c, c
    for _ in range(3):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        doubles += [below, above]
    return doubles


BOUNDARY_DOUBLES = [d for c in BOUNDARIES for d in _around(c)]


#: pi truncated to 50 decimals, so pi lies in [PI_50, PI_50 + 10**-50]; the
#: checker below takes nothing from the package.
PI_50 = Fraction("3.14159265358979323846264338327950288419716939937510")


def check_certificate(a, regime: str, certificate: dict) -> None:
    """Recompute, from Fraction(a) alone, every field of a regime
    certificate given as classify's JSON strings, and derive the regime
    again from the signs of those fields."""
    q = Fraction(a)
    fields = {name: Fraction(value) for name, value in certificate.items()}

    def h(u):   # the paper's quadratic 2a^2 u + a - u, at u = sqrt(1+x^2)
        return 2 * q * q * u + q - u

    if -1 < q < 0:
        assert (regime, fields) == ("Unclassified", {}), a
        return
    expected = {"h_at_one": h(1), "slope": h(2) - h(1)}
    if q <= -1:
        # h(u) >= h(1) >= 0 on u > 1, g < 0 and 1 + a*u < 0
        assert h(1) >= 0 and expected["slope"] > 0
        derived = "Increasing"
    elif h(1) <= 0:
        # 0 <= a <= 1/2: h < 0, g > 0 and 1 + a*u > 0
        assert expected["slope"] < 0
        derived = "Increasing"
    elif expected["slope"] > 0:
        derived = "Decreasing"
    else:
        u_star = q / (1 - 2 * q * q)
        assert h(u_star) == 0 and u_star > 1
        g_lo = 1 / q - (PI_50 + Fraction(1, 10 ** 50)) / 2   # g(inf) = 1/a - pi/2
        g_hi = 1 / q - PI_50 / 2
        assert g_lo > 0 or g_hi < 0, a
        expected.update(u_star=u_star, g_inf_sign=1 if g_lo > 0 else -1)
        derived = "InteriorMinimum" if g_lo > 0 else "Decreasing"
    assert regime == derived, a
    assert fields == expected, a


def seeded_params(count: int, seed: int):
    """Half drawn from U(-2, 2.5), where the regimes change; half of either
    sign with |a| from 1e-20 to 1e300."""
    rng = random.Random(seed)
    for i in range(count):
        if i % 2:
            yield rng.uniform(-2.0, 2.5)
        else:
            yield rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-20.0, 300.0)


class TestRegimeProof:
    def test_boundary_doubles_match_float_rule(self):
        assert len(BOUNDARY_DOUBLES) == 35
        for a in BOUNDARY_DOUBLES + [-0.0]:
            assert classify_regime(a) is float_rule(a), a

    def test_seeded_values_match_float_rule(self):
        # never a PrecisionError at a double: a raise fails this test
        for a in seeded_params(100_000, 20261018):
            assert classify_regime(a) is float_rule(a), a

    def test_doubles_next_to_two_over_pi_are_decided(self):
        # the double nearest 2/pi lies 3.9e-17 above it; pi to 10**-30
        # separates all of its neighbours too
        below = above = TWO_OVER_PI
        for _ in range(2000):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
            assert prove_regime(below).regime is Regime.INTERIOR_MINIMUM
            assert prove_regime(above).regime is Regime.DECREASING
        assert prove_regime(TWO_OVER_PI).regime is Regime.DECREASING

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, a):
        with pytest.raises(DomainError):
            prove_regime(a)

    def test_certificates_check(self):
        params = BOUNDARY_DOUBLES + [-3.0, -0.0, 0.3, 0.55, 0.6, 0.7, 2.0, 1e300,
                                     -1e300, 5e-324, -5e-324]
        params += list(seeded_params(2000, 1729))
        for a in params:
            proof = prove_regime(a)
            check_certificate(a, proof.regime.value, proof.to_json_dict())

    def test_certificate_holds_exact_strings(self):
        assert prove_regime(0.5).to_json_dict() == {"h_at_one": "0", "slope": "-1/2"}
        assert prove_regime(-0.5).to_json_dict() == {}
        cert = prove_regime(0.6).to_json_dict()
        assert list(cert) == ["h_at_one", "slope", "u_star", "g_inf_sign"]
        assert Fraction(cert["h_at_one"]) == (2 * Fraction(0.6) - 1) * (Fraction(0.6) + 1)
        assert cert["g_inf_sign"] == "1"
        assert prove_regime(0.7).to_json_dict()["g_inf_sign"] == "-1"

    def test_checker_refuses_a_wrong_field(self):
        cert = prove_regime(0.6).to_json_dict()
        check_certificate(0.6, "InteriorMinimum", cert)
        for name in cert:
            bad = dict(cert, **{name: str(Fraction(cert[name]) + Fraction(1, 10 ** 40))})
            with pytest.raises(AssertionError):
                check_certificate(0.6, "InteriorMinimum", bad)
        with pytest.raises(AssertionError):
            check_certificate(0.6, "Decreasing", cert)


class TestPublicNames:
    def test_all_lists_exactly_the_bound_public_names(self):
        # the names of family, kernel and oracle enter vars() on first use;
        # dir() lists them before it
        for name in dir(arctanbounds):
            getattr(arctanbounds, name)
        bound = {name for name, value in vars(arctanbounds).items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType)}
        names = arctanbounds.__all__
        assert len(names) == len(set(names))
        assert set(names) == bound | {"__version__"}
        for name in names:
            assert getattr(arctanbounds, name) is not None
        namespace = {}
        exec("from arctanbounds import *", namespace)
        assert set(names) <= set(namespace)

    def test_star_import_binds_each_name_from_its_home(self):
        # in a fresh process, so that the star import binds the lazy names
        probe = """
import sys
import arctanbounds
from arctanbounds import family
assert type(family).__name__ == "module" and "sweep" not in vars(arctanbounds)
namespace = {}
exec("from arctanbounds import *", namespace)
constants = {"TWO_OVER_PI": "catalog", "DEFAULT_DIGITS": "catalog",
             "DEFAULT_SWEEP_DIGITS": "catalog", "DEFAULT_GRID": "oracle",
             "DEFAULT_KERNEL": "kernel"}
for name in arctanbounds.__all__:
    if name != "__version__":
        value = namespace[name]
        home = sys.modules[getattr(value, "__module__", None)
                           or "arctanbounds." + constants[name]]
        assert getattr(home, name) is value is getattr(arctanbounds, name), name
print(len(arctanbounds.__all__))
"""
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                text=True, check=True)
        assert result.stdout == f"{len(arctanbounds.__all__)}\n"


ENCLOSURE_PARAMS = (0.0, 0.1, 0.25, 0.5, TWO_OVER_PI, 0.7, 1.0, 2.0, 1e6, 1e300)
DBL_MAX = sys.float_info.max


def scaled_digits(x: float) -> int:
    """Oracle digits whose unit lies far below x**3, the gap between arctan x
    and x itself at tiny x."""
    return 40 + 3 * max(0, -math.floor(math.log10(x)))


def to_units(value: float, digits: int) -> int:
    """floor(value * 10**digits), exactly."""
    num, den = value.as_integer_ratio()
    return num * 10 ** digits // den


class TestEnclosure:
    # the ends are the round-to-nearest closed forms (0.7836116248912243 and
    # 0.8205961746752770 at a = 1/2) scaled outward by 1 -+ 2**-49
    def test_family_case_at_one(self):
        enc = enclosure(0.5, 1.0)
        assert enc.lower == pytest.approx(0.7836116248912228, abs=1e-15)
        assert enc.upper == pytest.approx(0.8205961746752783, abs=1e-15)
        assert enc.lower < math.atan(1.0) < enc.upper
        assert enc.half_width == pytest.approx(0.01849227489202776, abs=1e-15)

    def test_reversed_case_at_one(self):
        enc = enclosure(2 / math.pi, 1.0)
        assert enc.lower == pytest.approx(0.7659307561399268, abs=1e-15)
        assert enc.upper == pytest.approx(0.7980267068238052, abs=1e-15)
        assert enc.lower < math.atan(1.0) < enc.upper

    def test_small_x_limit_constants(self):
        # lower/x -> 1+a and upper/x -> pi/2 as x -> 0 (a = 0 shown)
        enc = enclosure(0.0, 1e-9)
        assert enc.lower / 1e-9 == pytest.approx(1.0, abs=1e-9)
        assert enc.upper / 1e-9 == pytest.approx(math.pi / 2, abs=1e-9)

    def test_tiny_x_and_huge_parameter(self):
        # below 2**-1000 arctan x lies between x and the next double down;
        # where x/(a+u) is subnormal, which only a huge a allows, [0, x]
        x = 2.0 ** -1001
        for a in (0.0, 0.5, TWO_OVER_PI, 1e300):
            enc = enclosure(a, x)
            assert (enc.lower, enc.upper) == (math.nextafter(x, 0.0), x)
        enc = enclosure(1e300, 1e-10)
        assert (enc.lower, enc.upper) == (0.0, 1e-10)

    def test_rejects_gap_and_negative(self):
        for a in [0.51, 0.6, 0.63, -0.1, -2.0]:
            with pytest.raises(ParamError):
                enclosure(a, 1.0)

    def test_rejects_bad_x(self):
        with pytest.raises(DomainError):
            enclosure(0.5, 0.0)
        with pytest.raises(DomainError):
            enclosure(0.5, -3.0)

    def test_inverted_pair_rejected(self):
        with pytest.raises(ParamError):
            Enclosure(2.0, 1.0)

    @given(
        st.one_of(st.floats(min_value=0.0, max_value=0.5),
                  st.floats(min_value=2 / math.pi, max_value=3.0)),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    @settings(max_examples=60, deadline=None)
    @example(a=0.5, x=1e-6)    # the round-to-nearest lower end was above arctan
    def test_containment_against_oracle(self, a, x):
        enc = enclosure(a, x)
        truth = oracle_arctan(x, 30)
        assert truth - enc.lower > 0
        assert enc.upper - truth > 0

    def test_containment_full_range_grid(self):
        # strict containment in exact units, no slack, over [5e-324, DBL_MAX]:
        # a log grid plus the edges where the arithmetic changes (subnormals,
        # the tiny-x branch, x*x overflow), for each parameter and the
        # pointwise best of a = 1/2 and a = 2/pi
        lo, hi = math.log10(5e-324), math.log10(DBL_MAX)
        xs = [10.0 ** (lo + (hi - lo) * i / 3000) for i in range(3000)]
        tiny, square_max = 2.0 ** -1000, math.sqrt(DBL_MAX)
        xs += [5e-324, 1e-323, 2.0 ** -1022, math.nextafter(tiny, 0.0), tiny,
               math.nextafter(tiny, 1.0), 1e-8, 1e-6, 1.0, 2.1758413981537927,
               math.nextafter(square_max, 0.0), square_max,
               math.nextafter(square_max, math.inf), DBL_MAX]
        for x in xs:
            if not 0.0 < x <= DBL_MAX:
                continue
            digits = scaled_digits(x)
            truth = oracle_arctan(x, digits).units
            encs = [enclosure(a, x) for a in ENCLOSURE_PARAMS]
            encs.append(best_enclosure(x, [0.5, TWO_OVER_PI]))
            for a, enc in zip(ENCLOSURE_PARAMS + ("best",), encs):
                assert to_units(enc.lower, digits) < truth < to_units(enc.upper, digits), \
                    (a, x, enc)

    def test_adjacent_subnormal_ends(self):
        # 0.5 * (upper - lower) rounds one subnormal step to 0
        for lower in (2023 * 2.0 ** -1074, 0.0, 5e-324, 2.0 ** -1022 - 2.0 ** -1074):
            upper = math.nextafter(lower, 1.0)
            for enc in (Enclosure(lower, upper), Enclosure(lower, lower)):
                true_half = (Fraction(enc.upper) - Fraction(enc.lower)) / 2
                assert Fraction(enc.half_width) >= true_half
                assert enc.lower <= enc.midpoint <= enc.upper
        enc = enclosure(0.5, 1e-320)
        assert enc.upper == math.nextafter(enc.lower, 1.0) and enc.half_width > 0.0

    def test_half_width_never_below_the_true_half_width(self):
        rng = random.Random("half-width")
        for _ in range(2000):
            lower = 10.0 ** rng.uniform(-320, 300)
            upper = lower * (1.0 + 10.0 ** rng.uniform(-16, 3))
            enc = Enclosure(lower, upper)
            assert Fraction(enc.half_width) >= (Fraction(upper) - Fraction(lower)) / 2
            assert enc.half_width <= math.nextafter(0.5 * (upper - lower), math.inf)
            assert lower <= enc.midpoint <= upper


class TestBestEnclosure:
    def test_singleton_equals_enclosure(self):
        single = best_enclosure(3.7, [0.25])
        direct = enclosure(0.25, 3.7)
        assert (single.lower, single.upper) == (direct.lower, direct.upper)

    def test_at_one(self):
        best = best_enclosure(1.0, [0.5, 2 / math.pi])
        assert best.lower == pytest.approx(0.7836116248912228, abs=1e-15)
        assert best.upper == pytest.approx(0.7980267068238052, abs=1e-15)

    def test_large_x_lower_comes_from_reversed_member(self):
        best = best_enclosure(100.0, [0.5, 2 / math.pi])
        assert best.lower == enclosure(2 / math.pi, 100.0).lower

    def test_pointwise_bounds(self):
        params = [0.0, 0.3, 0.5, 2 / math.pi, 1.5]
        for x in [0.01, 1.0, 50.0]:
            best = best_enclosure(x, params)
            for a in params:
                enc = enclosure(a, x)
                assert best.lower >= enc.lower
                assert best.upper <= enc.upper

    def test_empty_params(self):
        with pytest.raises(ParamError):
            best_enclosure(1.0, [])

    def test_bad_param_propagates(self):
        with pytest.raises(ParamError):
            best_enclosure(1.0, [0.5, 0.6])


class TestFloatErrorBound:
    @pytest.mark.parametrize("bound,a", _suite_entries("all"),
                             ids=lambda v: getattr(v, "value", repr(v)))
    def test_bound_covers_rounding(self, bound, a):
        # the exact bound at the doubles a and x, in fixed point with enough
        # digits that its own error is far below the float error bound
        fn, float_error = float_form(bound, a)
        rng = random.Random(f"float-error-{bound.value}-{a}")
        lo, hi = math.log2(FLOAT_FORM_MIN), math.log2(FLOAT_FORM_MAX)
        xs = [FLOAT_FORM_MIN, FLOAT_FORM_MAX, 1e-8, 1.0, 1e8]
        xs += [2.0 ** rng.uniform(lo, hi) for _ in range(60)]
        xs += [10.0 ** rng.uniform(-9, 9) for _ in range(60)]
        for x in xs:
            b = fn(x)
            err = float_error(x, b)
            if not math.isfinite(b):
                assert not err < math.inf, x
                continue
            digits = 40 + max(0, -math.floor(math.log10(x)))
            exact = eval_bound_hp(bound, x, a, digits=digits).as_fraction()
            slack = Fraction(100, 10 ** digits)
            assert abs(Fraction(b) - exact) <= Fraction(err) + slack, x


# Reference: every bound written once with ordinary operators and evaluated
# on floats or on FixedReal, one object per operation, apart from the
# catalog's own table.  The catalog's float and fixed-point forms must
# reproduce it exactly.

def _sqrt(v):
    return v.sqrt() if isinstance(v, FixedReal) else math.sqrt(v)


def _log(v):
    return v.log() if isinstance(v, FixedReal) else math.log(v)


def _pi(like):
    return FixedReal.pi(like.digits) if isinstance(like, FixedReal) else math.pi


def _lift(value, like):
    return FixedReal(value, like.digits) if isinstance(like, FixedReal) else float(value)


def _u(x):
    return _sqrt(1 + x * x)


def _one_plus_a(a, x):
    return (1 + a) * x / (a + _u(x))


def _half_pi(a, x):
    return _pi(x) / 2 * x / (a + _u(x))


def _mid_upper(a, x):
    half_pi = _pi(x) / 2
    one_plus_a = 1 + a
    c = one_plus_a if one_plus_a > half_pi else half_pi
    return c * x / (a + _u(x))


REFERENCE_FORMS = {
    B.SHAFER_LOWER: lambda a, x: _one_plus_a(_lift(0.5, x), x),
    B.HALF_ANGLE_UPPER: lambda a, x: _one_plus_a(_lift(1.0, x), x),
    B.RATIO_LOWER: lambda a, x: x / (1 + x * x),
    B.IDENTITY_UPPER: lambda a, x: x,
    B.CUBIC_LOWER: lambda a, x: x - x * (x * x / 3),
    B.LOG_LOWER: lambda a, x: _log(1 + x * x) / (2 * x),
    B.LOG_UPPER: lambda a, x: (1 + x) * _log(1 + x),
    B.FAMILY_LOWER: _one_plus_a,
    B.FAMILY_UPPER: _half_pi,
    B.REVERSED_LOWER: _half_pi,
    B.REVERSED_UPPER: _one_plus_a,
    B.MID_REGIME_LOWER: lambda a, x: 4 * a * (1 - a * a) * x / (a + _u(x)),
    B.MID_REGIME_UPPER: _mid_upper,
    B.TWO_OVER_PI_LOWER: lambda a, x: _pi(x) * _pi(x) * x / (4 + 2 * _pi(x) * _u(x)),
    B.TWO_OVER_PI_UPPER: lambda a, x: (_pi(x) + 2) * x / (2 + _pi(x) * _u(x)),
    B.TWO_OVER_PI_LOWER_ERRATA:
        lambda a, x: _pi(x) * _pi(x) * x / (2 + 2 * _pi(x) * _u(x)),
}


def reference_eval_hp(bound, x, a, digits):
    """The fixed-point evaluation, written apart from the catalog's forms."""
    catalog._check_param(bound, a)
    catalog._check_x(x)
    x_hp = FixedReal(float(x), digits)
    if x_hp.units == 0:
        raise PrecisionError(f"x={x!r} rounds to zero at {digits} digits")
    a_hp = None if a is None else FixedReal(float(a), digits)
    return REFERENCE_FORMS[bound](a_hp, x_hp)


def _outcome(evaluate, *args):
    try:
        return evaluate(*args).units
    except (ArctanBoundsError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _reference_entries():
    """The suite's entries plus seeded valid parameters of every family."""
    rng = random.Random("units-forms")
    ranges = {B.FAMILY_LOWER: (0.0, 0.5), B.FAMILY_UPPER: (0.0, 0.5),
              B.REVERSED_LOWER: (TWO_OVER_PI, 50.0), B.REVERSED_UPPER: (TWO_OVER_PI, 50.0),
              B.MID_REGIME_LOWER: (0.5, TWO_OVER_PI), B.MID_REGIME_UPPER: (0.5, TWO_OVER_PI)}
    entries = list(_suite_entries("all"))
    for bound, (lo, hi) in ranges.items():
        entries += [(bound, a) for a in (rng.uniform(lo, hi) for _ in range(2))
                    if lo < a < hi]
    entries += [(B.REVERSED_UPPER, 1e300), (B.MID_REGIME_UPPER, math.pi / 2 - 1)]
    return entries


def _full_range_xs(points):
    lo, hi = math.log10(5e-324), math.log10(DBL_MAX)
    xs = [10.0 ** (lo + (hi - lo) * i / points) for i in range(points)]
    return xs + [5e-324, 2.0 ** -1022, 1e-300, 1e-51, 1e-50, 1e-8, 0.5, 1.0,
                 2.1758413981537927, 1e8, 1e300, math.sqrt(DBL_MAX), DBL_MAX]


class TestUnitsForms:
    @pytest.mark.parametrize("digits", [20, 30, 50, 100, 320])
    def test_equal_to_reference(self, digits):
        for bound, a in _reference_entries():
            for x in _full_range_xs(40):
                got = _outcome(eval_bound_hp, bound, x, a, digits)
                assert got == _outcome(reference_eval_hp, bound, x, a, digits), \
                    (bound, a, x)

    def test_errors_equal_to_reference(self):
        cases = [(B.SHAFER_LOWER, x, None, 50) for x in (0.0, -1.0, math.inf, math.nan)]
        cases += [(B.SHAFER_LOWER, 1.0, None, d) for d in (0, -3)]
        cases += [(B.FAMILY_LOWER, 1.0, None, 50), (B.FAMILY_LOWER, 1.0, 0.6, 50),
                  (B.SHAFER_LOWER, 1.0, 0.5, 50), (B.FAMILY_LOWER, 1.0, math.nan, 0),
                  (B.CUBIC_LOWER, 1e-30, None, 20)]
        for case in cases:
            got = _outcome(eval_bound_hp, *case)
            assert not isinstance(got, int), case
            assert got == _outcome(reference_eval_hp, *case), case

    def test_float_forms_equal_to_reference(self):
        # bit for bit over the whole double range; NaN equals NaN
        pack = struct.Struct("<d").pack
        xs = _full_range_xs(4000)
        for bound, a in _reference_entries():
            fn, _ = float_form(bound, a)
            for x in xs:
                got, want = fn(x), REFERENCE_FORMS[bound](a, x)
                assert (pack(got) == pack(want)
                        or (math.isnan(got) and math.isnan(want))), (bound, a, x)
