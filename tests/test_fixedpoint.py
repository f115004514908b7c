import math
import random
import struct
import sys
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arctanbounds import fixedpoint as fp
from arctanbounds.errors import DomainError, PrecisionError
from arctanbounds.fixedpoint import FixedReal

# 50-digit references, independent of the code under test
PI = Fraction("3.14159265358979323846264338327950288419716939937511")
LN2 = Fraction("0.69314718055994530941723212145817656807550013436026")
SQRT2 = Fraction("1.41421356237309504880168872420969807856967187537695")


def err(fr: FixedReal, ref: Fraction) -> float:
    return abs(float(fr.as_fraction() - ref))


class TestConstruction:
    def test_int_exact(self):
        assert FixedReal(7, 30).units == 7 * 10**30

    def test_float_uses_exact_binary_value(self):
        # 0.1 as a double is slightly above 1/10
        fr = FixedReal(0.1, 40)
        assert fr.as_fraction() != Fraction(1, 10)
        assert abs(fr.as_fraction() - Fraction(0.1)) <= Fraction(1, 10**40)

    def test_string_and_fraction(self):
        assert FixedReal("0.25", 30).as_fraction() == Fraction(1, 4)
        assert FixedReal(Fraction(1, 3), 30).units == (10**30 + 1) // 3

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            FixedReal(math.inf, 30)
        with pytest.raises(DomainError):
            FixedReal(math.nan, 30)

    def test_float_units_match_exact_rational(self):
        # the units of a float are its exact binary value rounded to nearest,
        # ties away from zero, as computed through Fraction
        rng = random.Random(20091)
        tiny = 2.0 ** -1074
        values = [tiny, 3 * tiny, 2.0 ** -1022 - tiny, 2.0 ** -1022,
                  sys.float_info.max, 0.1, 1.0, 0.0]
        while len(values) < 1008:
            v = struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
            if math.isfinite(v):
                values.append(v)
        values += [-v for v in values]
        for digits in (20, 50):
            for v in values:
                scaled = Fraction(v) * 10 ** digits
                expected = math.floor(abs(scaled) + Fraction(1, 2))
                assert FixedReal(v, digits).units == (expected if v >= 0 else -expected), v

    def test_precision_change_by_reconstruction(self):
        fr = FixedReal("1.23456789", 30)
        again = FixedReal(fr, 10)
        assert again.digits == 10
        assert float(again) == pytest.approx(1.23456789, abs=1e-10)


class TestArithmetic:
    def test_int_ops_exact(self):
        x = FixedReal(3, 30)
        assert float(x + 2) == 5.0
        assert float(2 + x) == 5.0
        assert float(x - 1) == 2.0
        assert float(1 - x) == -2.0
        assert float(x * 4) == 12.0
        assert float(x / 2) == 1.5
        assert float(6 / x) == 2.0

    def test_precision_mismatch_raises(self):
        with pytest.raises(ValueError):
            FixedReal(1, 30) + FixedReal(1, 40)

    def test_comparisons(self):
        assert FixedReal(1, 30) < FixedReal(2, 30)
        assert FixedReal(2, 30) >= 2
        assert FixedReal(0.5, 30) > 0.25
        assert FixedReal(1, 30) == 1

    def test_comparisons_are_exact(self):
        # equality and order follow the exact rationals, and the hash agrees
        assert hash(FixedReal(1, 30)) == hash(1)
        assert FixedReal(0.5, 30) == 0.5 and hash(FixedReal(0.5, 30)) == hash(0.5)
        assert FixedReal(0.1, 30) != 0.1   # the double 0.1 needs 55 digits
        assert FixedReal(0.1, 30) > 0.1    # ...1257 rounds up to ...126
        assert FixedReal(0.1, 60) == 0.1 and hash(FixedReal(0.1, 60)) == hash(0.1)
        assert FixedReal("0.25", 30) == Fraction(1, 4)
        assert FixedReal(1, 30) == FixedReal(1, 40)
        assert FixedReal(-1, 30) < math.inf and FixedReal(1, 30) > -math.inf
        assert FixedReal(0, 30) != math.nan

    def test_set_round_trip(self):
        values = {FixedReal(1, 30), FixedReal(0.5, 30), FixedReal(0.1, 60)}
        assert values == {1, 0.5, 0.1}
        assert Fraction(1, 2) in values and 0.1 in values
        assert FixedReal(0.1, 30) not in values

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            FixedReal(1, 30) / FixedReal(0, 30)

    def test_float_conversion_correctly_rounded(self):
        fr = FixedReal("0.333333333333333333333333333333", 30)
        assert float(fr) == 1.0 / 3.0

    def test_decimal_string_round_trip(self):
        fr = FixedReal("2.71828182845904523536", 20)
        assert FixedReal(fr.as_decimal_string(), 20).units == fr.units

    @given(st.floats(min_value=1e-12, max_value=1e12), st.booleans())
    @settings(max_examples=100)
    def test_float_round_trip(self, mag, neg):
        # 30 absolute digits exceed double precision for |x| >= 1e-12, so the
        # conversion must invert exactly (below ~1e-14 units are exhausted)
        x = -mag if neg else mag
        assert float(FixedReal(x, 30)) == x


class TestSqrt:
    def test_sqrt2(self):
        assert err(FixedReal(2, 40).sqrt(), SQRT2) < 1e-39

    def test_negative_raises(self):
        with pytest.raises(DomainError):
            FixedReal(-1, 30).sqrt()

    def test_ball_reaching_zero_raises(self):
        # a ball centred at 0 with a radius has no slope bound for its root;
        # the exact 0 has the exact root 0
        with pytest.raises(PrecisionError):
            FixedReal._raw(0, 30, 3).sqrt()
        root = FixedReal._raw(0, 30, 0).sqrt()
        assert (root.units, root.err) == (0, 0)

    def test_floor_semantics(self):
        # sqrt rounds down: square of result never exceeds the input
        for v in ["2", "3", "5.5", "123.456"]:
            fr = FixedReal(v, 30)
            s = fr.sqrt()
            assert s * s <= fr


class TestPi:
    def test_value(self):
        assert err(FixedReal.pi(40), PI) < 1e-40

    def test_more_digits_refine(self):
        p30 = FixedReal.pi(30).as_fraction()
        p45 = FixedReal.pi(45).as_fraction()
        assert abs(p30 - p45) < Fraction(1, 10**29)


class TestAtan:
    def test_zero(self):
        assert FixedReal(0, 30).atan().units == 0

    def test_quarter_pi(self):
        assert err(FixedReal(1, 40).atan(), PI / 4) < 1e-40

    def test_sqrt3_third_pi(self):
        # exact fixed-point sqrt(3), so the identity holds to working precision
        assert err(FixedReal(3, 40).sqrt().atan(), PI / 3) < 1e-38

    def test_odd_symmetry_exact(self):
        rng = random.Random(11)
        for _ in range(200):
            x = rng.uniform(-1e8, 1e8)
            assert FixedReal(-x, 30).atan().units == -FixedReal(x, 30).atan().units

    def test_reciprocal_region(self):
        big = FixedReal(1e8, 30).atan()
        ref = FixedReal.pi(30) / 2 - FixedReal(1e8, 30).atan()
        assert float(ref) == pytest.approx(1e-8, rel=1e-6)
        assert float(big) == pytest.approx(math.atan(1e8), abs=1e-15)

    def test_huge_and_tiny_arguments(self):
        assert float(FixedReal(1e300, 30).atan()) == pytest.approx(math.pi / 2, abs=1e-16)
        tiny = FixedReal(1e-20, 30).atan()
        assert float(tiny) == pytest.approx(1e-20, rel=1e-9)

    @given(st.floats(min_value=1e-12, max_value=1e12), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_platform_atan(self, mag, neg):
        # |x| is kept above 1e-12 so that 4 ulp of the result stays above the
        # oracle's absolute error contract (1e-30); below that the comparison
        # is vacuous, not wrong
        x = -mag if neg else mag
        hp = FixedReal(x, 30).atan()
        assert abs(float(hp) - math.atan(x)) <= 4 * math.ulp(math.atan(x))


def reference_atan_units(x_units: int, digits: int) -> int:
    """arctan by the halving reduction the knot table replaced: reciprocal
    step, then arctan x = 2*arctan(x / (1 + sqrt(1+x^2))) down to 1/8, then
    the alternating series, all at ten guard digits."""
    if x_units == 0:
        return 0
    work = digits + 10
    scale = 10 ** work
    t = abs(x_units) * 10 ** 10
    recip = t > scale
    if recip:
        t = scale * scale // t
    halvings = 0
    while t > scale // 8:
        u = math.isqrt((scale + t * t // scale) * scale)
        t = t * scale // (scale + u)
        halvings += 1
    total = term = t
    tsq = t * t // scale
    k, sign = 3, -1
    while True:
        term = term * tsq // scale
        if term // k == 0:
            break
        total += sign * (term // k)
        sign, k = -sign, k + 2
    total <<= halvings
    if recip:
        total = reference_pi_units(work) // 2 - total
    result = fp._rescale(total, work, digits)
    return result if x_units > 0 else -result


@lru_cache(maxsize=None)
def reference_pi_units(digits: int) -> int:
    work = digits + 10
    return fp._rescale(4 * reference_atan_units(10 ** work, work), work, digits)


def _table_reduction_points() -> list[float]:
    """Doubles that exercise every branch of the knot-table reduction."""
    rng = random.Random(20090217)
    points = [0.0, 1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0),
              5e-324, sys.float_info.max]
    for j in range(65):
        knot = j / 64
        points += [knot, math.nextafter(knot, 0.0), math.nextafter(knot, 2.0)]
    points += [(j + 0.5) / 64 for j in range(64)]      # rounding boundaries
    while len(points) < 400:                           # every binade
        v = struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
        if math.isfinite(v):
            points.append(abs(v))
    for _ in range(100):                               # every knot, both sides of 1
        u = rng.random()
        points += [u, 1.0 / u] if u else [u]
    return points + [-v for v in points]


class TestAtanTableReduction:
    @pytest.mark.parametrize("digits", [20, 30, 50, 100, 320])
    def test_units_match_halving_reference(self, digits):
        for x in _table_reduction_points():
            x_units = FixedReal(x, digits).units
            assert fp.atan_units(x_units, digits) == reference_atan_units(x_units, digits), x

    def test_pi_matches_reference(self):
        for digits in range(1, 331):
            assert fp.pi_units(digits) == reference_pi_units(digits), digits

    def test_pi_matches_the_table_formula(self):
        # pi was 4*arctan(1), the knot table's last entry, at the same guard
        # digits; Machin's formula gives the same units
        def table_pi_units(digits):
            work = digits + 10
            return fp._rescale(4 * fp._atan_table(work)[fp._KNOTS], work, digits)
        for digits in [*range(1, 331), 400, 512, 640, 800]:
            assert fp.pi_units(digits) == table_pi_units(digits), digits

    def test_pi_ball_holds_pi(self):
        # the catalog's regime proof reads its ends at 30 digits, and the
        # algebra's signs from 30 up; pi here is the halving reference's at 130
        pi = Fraction(reference_pi_units(130), 10 ** 130)
        for digits in (20, 30, 50, 100):
            lo, hi = FixedReal.pi(digits).ends()
            assert lo < pi < hi and hi - lo == Fraction(2, 10 ** digits), digits


def reference_log_units(y_units: int, digits: int) -> int:
    """Natural log by the atanh loop that the shared odd-power series
    replaced: square roots into (1 - 1/256, 1 + 1/256), then
    ln y = 2*atanh((y-1)/(y+1)), all at ten guard digits."""
    work = digits + 10
    scale = 10 ** work
    t = y_units * 10 ** 10
    doublings = 0
    while abs(t - scale) > scale // 256:
        t = math.isqrt(t * scale)
        doublings += 1
    z = (t - scale) * scale // (t + scale)
    neg = z < 0
    z = abs(z)
    total = term = z
    zsq = z * z // scale
    k = 3
    while True:
        term = term * zsq // scale
        if term // k == 0:
            break
        total += term // k
        k += 2
    total = (-total if neg else total) << (doublings + 1)
    return fp._rescale(total, work, digits)


def _log_points() -> list[float]:
    """Seeded magnitudes over [1e-30, 1e30], values near 1, and exact powers
    of 2 and 10."""
    rng = random.Random(20090218)
    points = [10.0 ** rng.uniform(-30, 30) for _ in range(200)]
    points += [1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0),
               1 - 1 / 256, 1 + 1 / 256, 0.999, 1.001]
    points += [1 + rng.uniform(-1e-3, 1e-3) for _ in range(20)]
    points += [2.0 ** k for k in range(-99, 100)]
    return points


class TestLogSeries:
    @pytest.mark.parametrize("digits", [20, 30, 50, 100, 320])
    def test_units_match_atanh_reference(self, digits):
        checked = 0
        for y in _log_points():
            y_units = FixedReal(y, digits).units
            if y_units > 0:
                assert fp.log_units(y_units, digits) == reference_log_units(y_units, digits), y
                checked += 1
        for k in range(-digits, 31):      # exact powers of ten, in units
            y_units = 10 ** (digits + k)
            assert fp.log_units(y_units, digits) == reference_log_units(y_units, digits), k
            checked += 1
        assert checked > 300


class TestLog:
    def test_ln2(self):
        assert err(FixedReal(2, 40).log(), LN2) < 1e-39

    def test_ln1_is_zero(self):
        assert FixedReal(1, 30).log().units == 0

    def test_large_argument(self):
        assert float(FixedReal(1e16, 30).log()) == pytest.approx(math.log(1e16), abs=1e-14)

    def test_below_one(self):
        assert float(FixedReal(0.5, 40).log()) == pytest.approx(-math.log(2), abs=1e-15)

    def test_non_positive_raises(self):
        with pytest.raises(DomainError):
            FixedReal(0, 30).log()
        with pytest.raises(DomainError):
            FixedReal(-2, 30).log()

    @pytest.mark.parametrize("units,err", [(1, 1), (2, 2), (1, 5)])
    def test_ball_reaching_zero_raises(self, units, err):
        # a positive centre within its radius of 0: log is unbounded below
        with pytest.raises(PrecisionError):
            FixedReal._raw(units, 30, err).log()
        assert FixedReal._raw(units + err + 1, 30, err).log().err > 0


def _ball_operands(digits: int) -> list[tuple[FixedReal, Fraction]]:
    """(ball, exact value) pairs: seeded doubles of both signs over 1e-5 to
    1e5, Fractions, and dyadic Fractions that enter exactly, as fresh balls,
    and the same as balls carrying radii from two earlier operations."""
    rng = random.Random(f"balls-{digits}")
    values = [rng.choice((-1, 1)) * 10 ** rng.uniform(-5, 5) for _ in range(40)]
    values += [Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)) for _ in range(20)]
    values += [Fraction(rng.randint(1, 999), 2 ** rng.randint(0, 12)) for _ in range(20)]
    fresh = [(FixedReal(v, digits), Fraction(v)) for v in values]
    return fresh + [(b * 3 / 7 + b, e * 3 / 7 + e) for b, e in fresh]


def _round_fraction(value: Fraction, digits: int) -> int:
    return round(value * 10 ** digits)


class TestBallRadius:
    """Each rule's ball holds the exact value, and for some operands the
    exact value lies outside the ball shrunk by one unit, so no rule's
    radius can lose a unit.  Exact values are Fractions, or for sqrt, log,
    arctan and pi independent references 40 digits finer."""

    @staticmethod
    def check(pairs, slack=Fraction(0)):
        needed = False
        for ball, exact in pairs:
            off = abs(exact - ball.as_fraction()) * ball.scale
            assert off + slack * ball.scale <= ball.err, (ball, ball.err, exact)
            needed = needed or off - slack * ball.scale > ball.err - 1
        assert needed

    @pytest.mark.parametrize("digits", [20, 30, 50])
    def test_construction(self, digits):
        rng = random.Random(f"construct-{digits}")
        doubles = [10 ** rng.uniform(-30, 30) for _ in range(50)] + [0.5, 3.0, 1e-25]
        fractions = [Fraction(rng.randint(1, 10 ** 9), rng.randint(1, 10 ** 9))
                     for _ in range(50)]
        pairs = [(FixedReal(v, digits), Fraction(v)) for v in doubles]
        pairs += [(FixedReal(q, digits), q) for q in fractions]
        pairs += [(FixedReal(str(v), digits), Fraction(str(v))) for v in doubles]
        # rescaled balls, from finer and to finer digits
        pairs += [(FixedReal(FixedReal(q, digits + 7), digits), q) for q in fractions]
        pairs += [(FixedReal(b, digits + 5), e) for b, e in _ball_operands(digits)]
        self.check(pairs)
        assert FixedReal(3, digits).err == FixedReal(0.5, digits).err == 0

    @pytest.mark.parametrize("digits", [20, 30, 50])
    def test_add_subtract_and_negate(self, digits):
        ops = _ball_operands(digits)
        pairs = [(b + c, e + f) for (b, e), (c, f) in zip(ops, ops[1:])]
        pairs += [(b - c, e - f) for (b, e), (c, f) in zip(ops, ops[3:])]
        pairs += [(7 - b, 7 - e) for b, e in ops] + [(b + 0.1, e + Fraction(0.1)) for b, e in ops]
        pairs += [(-b, -e) for b, e in ops]
        self.check(pairs)

    @pytest.mark.parametrize("digits", [20, 30, 50])
    def test_abs(self, digits):
        # a ball that reaches 0 holds |v| in [0, |units| + err], and its abs
        # starts at 0 (a wider lower end once kept two zeros apart in
        # double_of)
        reaching = [(FixedReal._raw(u, digits, e), Fraction(u + s * e, 10 ** digits))
                    for u, e in ((0, 0), (0, 3), (2, 5), (-5, 5), (-4, 9)) for s in (-1, 0, 1)]
        self.check([(abs(b), abs(e)) for b, e in _ball_operands(digits) + reaching])
        for ball, _ in reaching:
            lo, hi = abs(ball).ends()
            assert lo == 0 and hi >= Fraction(abs(ball.units) + ball.err, ball.scale)
        assert fp.double_of(abs(FixedReal._raw(-3, 678, 3))) == 0.0

    @pytest.mark.parametrize("digits", [20, 30, 50])
    def test_multiply(self, digits):
        ops = _ball_operands(digits)
        pairs = [(b * c, e * f) for (b, e), (c, f) in zip(ops, ops[1:])]
        pairs += [(b * b, e * e) for b, e in ops] + [(-3 * b, -3 * e) for b, e in ops]
        self.check(pairs)

    @pytest.mark.parametrize("digits", [20, 30, 50])
    def test_divide(self, digits):
        ops = _ball_operands(digits)
        pairs = [(b / c, e / f) for (b, e), (c, f) in zip(ops, ops[1:])]
        pairs += [(1 / b, 1 / e) for b, e in ops] + [(b / 3, e / 3) for b, e in ops]
        self.check(pairs)

    def test_divisor_reaching_zero_raises(self):
        with pytest.raises(PrecisionError):
            FixedReal(1, 30) / FixedReal._raw(2, 30, 2)
        with pytest.raises(ZeroDivisionError):
            FixedReal(1, 30) / FixedReal._raw(0, 30, 0)

    @pytest.mark.parametrize("digits", [20, 30, 50])
    def test_sqrt(self, digits):
        # exactly, by squares: sqrt(e) lies in [lo, hi] iff lo^2 <= e <= hi^2
        def within(ball, e, radius):
            lo, hi = (Fraction(ball.units + s * radius, ball.scale) for s in (-1, 1))
            return radius >= 0 and max(lo, 0) ** 2 <= e <= hi ** 2

        needed = False
        for b, e in _ball_operands(digits):
            root = abs(b).sqrt()
            assert within(root, abs(e), root.err), (b, e)
            needed = needed or not within(root, abs(e), root.err - 1)
        assert needed

    @pytest.mark.parametrize("digits", [20, 30, 50])
    def test_log(self, digits):
        fine = digits + 40
        pairs = []
        for b, e in _ball_operands(digits):
            b, e = abs(b), abs(e)
            if b.units > b.err:
                ref = reference_log_units(_round_fraction(e, fine), fine)
                pairs.append((b.log(), Fraction(ref, 10 ** fine)))
        self.check(pairs, slack=Fraction(10 ** 10, 10 ** fine))

    def test_log_from_1e_minus_40_to_1e40(self):
        # each square root is charged about 1/y**(2**-j): at y = 1e-40 the
        # radius is about 4e10 units.  The 90-digit reference's own roots
        # are off by up to ~2e10 of its units there
        rng = random.Random("log-range")
        ys = [Fraction(10) ** k for k in range(-40, 41)]
        ys += [Fraction(10 ** rng.uniform(-40, 40)) for _ in range(80)]
        pairs = []
        for y in ys:
            ref = reference_log_units(_round_fraction(y, 90), 90)
            pairs.append((FixedReal(y, 50).log(), Fraction(ref, 10 ** 90)))
        self.check(pairs, slack=Fraction(10 ** 12, 10 ** 90))
        assert FixedReal(Fraction(1, 10 ** 40), 50).log().err < 10 ** 12

    @pytest.mark.parametrize("digits", [20, 30, 50])
    def test_atan_and_the_oracle(self, digits):
        fine = digits + 40
        pairs = []
        for b, e in _ball_operands(digits):
            ref = reference_atan_units(_round_fraction(e, fine), fine)
            pairs.append((b.atan(), Fraction(ref, 10 ** fine)))
        self.check(pairs, slack=Fraction(3, 10 ** fine))
        # the oracle's radius: a unit for rounding x, unless exact, and one for arctan
        assert [FixedReal(x, digits).atan().err for x in (0.1, 0.5, 3.0, 1e-7)] == [2, 1, 1, 2]

    def test_pi(self):
        pairs = [(FixedReal.pi(d), Fraction(reference_pi_units(d + 40), 10 ** (d + 40)))
                 for d in range(1, 120)]
        self.check(pairs, slack=Fraction(1, 10 ** 150))


class TestXOf:
    """x_of(num, den, up): the double next below (or above) x = sqrt(t (t + 2)),
    t = num/den, exactly, at every magnitude."""

    @staticmethod
    def check(t: Fraction) -> None:
        square = t * (t + 2)
        below = fp.x_of(t.numerator, t.denominator, up=False)
        above = fp.x_of(t.numerator, t.denominator, up=True)
        assert below <= above <= math.nextafter(below, math.inf)
        if below < math.inf:
            assert Fraction(below) ** 2 <= square
        if above < math.inf:
            assert Fraction(above) ** 2 >= square
        # tight: the next doubles out lie on the other side, and a double x
        # is both ends
        if below < sys.float_info.max:
            assert Fraction(math.nextafter(below, math.inf)) ** 2 > square
        if above > 0:
            assert Fraction(math.nextafter(above, 0.0)) ** 2 < square
        assert (below == above) == (Fraction(below) ** 2 == square)

    def test_seeded_magnitudes(self):
        rng = random.Random(29)
        for _ in range(3000):
            t = Fraction(rng.randrange(1, 10 ** 30), 10 ** 30) * Fraction(10) ** rng.randint(-700, 700)
            self.check(t)

    @pytest.mark.parametrize("t,ends", [
        (Fraction(0), (0.0, 0.0)),
        (Fraction(1, 4), (0.75, 0.75)),                 # u = 5/4, x = 3/4 exactly
        (Fraction(1, 2 ** 2200), (0.0, 5e-324)),        # below every subnormal
        (Fraction(10) ** 400, (sys.float_info.max, math.inf)),
    ])
    def test_edges(self, t, ends):
        self.check(t)
        assert (fp.x_of(t.numerator, t.denominator, up=False),
                fp.x_of(t.numerator, t.denominator, up=True)) == ends

    def test_doubles_are_their_own_ends(self):
        # the triples (4^i - 4^j, 2^(i+j+1), 4^i + 4^j) make x a double with
        # 1 + x^2 a rational square: both ends are x
        for i in range(1, 27):
            for j in range(i):
                b = 2 ** (i + j + 1)
                x = Fraction(4 ** i - 4 ** j, b)
                t = Fraction(4 ** i + 4 ** j, b) - 1
                assert Fraction(float(x)) == x
                assert fp.x_of(t.numerator, t.denominator, up=False) == float(x)
                assert fp.x_of(t.numerator, t.denominator, up=True) == float(x)


class TestRefine:
    """refine against the doubling sequence, written out independently: the
    digits start << k for k >= 0 that do not pass MAX_DIGITS."""

    @given(start=st.one_of(st.integers(1, fp.MAX_DIGITS),
                           st.sampled_from([fp.MAX_DIGITS >> k for k in range(13)])),
           accept=st.integers(0, 13),
           raises=st.sets(st.integers(0, 13), max_size=4))
    @example(start=fp.MAX_DIGITS // 2, accept=13, raises=set())
    @example(start=fp.MAX_DIGITS // 8, accept=3, raises={2})
    @example(start=3, accept=0, raises={0, 1})
    @settings(max_examples=200, deadline=None)
    def test_refine_follows_the_doubling_sequence(self, start, accept, raises):
        # evaluate raises PrecisionError at the indices in `raises`, and
        # decided accepts a value from index `accept` on
        sequence = [start << k for k in range(14) if start << k <= fp.MAX_DIGITS]
        calls, values = [], []

        def evaluate(d):
            calls.append(d)
            if len(calls) - 1 in raises:
                raise PrecisionError("a ball that reaches a pole")
            values.append(object())
            return values[-1]

        decided = lambda value: len(calls) - 1 >= accept
        first = next((i for i in range(accept, len(sequence)) if i not in raises), None)
        if first is None:
            with pytest.raises(PrecisionError) as info:
                fp.refine(evaluate, start, decided, lambda: "a test sign")
            assert str(info.value) == f"a test sign is unresolved at {sequence[-1]} digits"
            assert calls == sequence
        else:
            assert fp.refine(evaluate, start, decided, lambda: "a test sign") is values[-1]
            assert calls == sequence[:first + 1]

    def test_cap_is_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(fp, "MAX_DIGITS", 30)
        calls = []
        with pytest.raises(PrecisionError, match="^x is unresolved at 30 digits$"):
            fp.refine(calls.append, 15, lambda value: False, lambda: "x")
        assert calls == [15, 30]

    def test_settle_starts_at_most_at_the_cap(self, monkeypatch):
        # a start past the cap, from the argument's floor or from twice the
        # digits of a ball, is tried once at the cap, and then refused with
        # PrecisionError, never evaluated past it
        monkeypatch.setattr(fp, "MAX_DIGITS", 100)
        calls = []
        evaluate = lambda d: calls.append(d) or (FixedReal._raw(1, d, 1),)
        for x, digits in ((1e40, 0), (0.5, 200)):
            calls.clear()
            with pytest.raises(PrecisionError, match="^y is unresolved at 100 digits$"):
                fp.settle(evaluate, x, lambda: "y", digits)
            assert calls == [100]
        assert fp.settle(lambda d: (FixedReal(0.5, d),), 1e40, lambda: "y") == ([0.5], 100)

    def test_separated(self):
        p, q = FixedReal._raw(10, 30, 2), FixedReal._raw(14, 30, 1)
        assert fp.separated((p, q)) and fp.separated((q, p))
        assert not fp.separated((p, FixedReal._raw(13, 30, 1)))
