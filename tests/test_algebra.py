import math
import random
import time
from bisect import bisect_left
from fractions import Fraction

import pytest

from arctanbounds import GridSpec, PrecisionError, algebra, fixedpoint
from arctanbounds.algebra import PI, Comparison, QPi, _decide


def decide(q):
    return _decide(list(q.nums))

DBL_MAX = 1.7976931348623157e308


def poly(*coeffs):
    """A polynomial in u, lowest power first."""
    return tuple(map(QPi.lift, coeffs))


def times(p, q):
    return algebra._mul(p, q)


def sign_on_doubles(comparison, x):
    return comparison.signs[bisect_left(comparison.edges, x)]


class TestQPi:
    def test_exact_zero_and_signs(self):
        assert decide(PI * PI - PI * PI) == (0, 0)
        assert decide(QPi.lift(Fraction(-1, 3))) == (-1, 0)
        assert decide(PI - Fraction(355, 113))[0] == -1       # 355/113 is above pi
        assert decide(PI - Fraction(311, 99))[0] == 1
        # 2 - a pi at the double nearest 2/pi, 3.9e-17 above it
        s, digits = decide(2 - PI * Fraction(2 / math.pi))
        assert s == -1 and digits == 30

    def test_comparisons_take_the_exact_sign(self):
        assert max(PI / 2, QPi.lift(Fraction(1.5707963267948966))) is not None
        assert PI / 2 > Fraction(1.5707963267948966)    # math.pi / 2 is below pi/2
        assert PI / 2 < Fraction(1.5707963267948968)

    def test_unresolved_past_the_cap(self, monkeypatch):
        monkeypatch.setattr(fixedpoint, "MAX_DIGITS", 100)
        with pytest.raises(PrecisionError):
            decide(PI - Fraction(314159265358979323846264338327950288419716939937510582097494459,
                                 10 ** 62))


class TestSquareFree:
    @pytest.mark.parametrize("in_pi", [False, True], ids=["rational", "in-pi"])
    def test_a_square_returns_or_refuses_within_a_second(self, in_pi):
        # a degree-4 polynomial with 53-bit coefficients, squared: primitive
        # pseudo-remainders give back its rational form at once, and a
        # content in pi, which they do not remove, is refused past the
        # gcd's size cap (it took seconds, and 13 s on one catalog pair)
        rng = random.Random(4)
        p = tuple(QPi.lift(rng.uniform(-1, 1)) + (QPi.lift(rng.uniform(-1, 1)) * PI
                                                  if in_pi else 0) for _ in range(5))
        start = time.perf_counter()
        try:
            s = algebra._squarefree(times(p, p))
        except PrecisionError:
            assert in_pi
        else:
            assert not in_pi
            # s is p times a rational
            assert len(s) == 5 and all(decide(s[j] * p[k] - s[k] * p[j]) == (0, 0)
                                       for j in range(5) for k in range(5))
        assert time.perf_counter() - start < 1.0

    def test_primitive_keeps_the_sign(self):
        p = poly(Fraction(-6, 4), Fraction(3, 8)) + (QPi((0, Fraction(9, 2).numerator), 2),)
        q = algebra._primitive(p)
        assert [c.nums for c in q] == [(-4,), (1,), (0, 12)] and all(c.den == 1 for c in q)


class TestComparison:
    def test_multiple_root_touches_without_a_crossover(self):
        # (u - 2)^2 (u - 3): negative up to u = 3 (x = sqrt 8), touching 0 at
        # u = 2 (x = sqrt 3), positive after
        p = times(times(poly(-2, 1), poly(-2, 1)), poly(-3, 1))
        c = Comparison(p)
        assert c.degree == 3 and len(c.brackets) == 2
        (lo, hi), (lo2, hi2) = c.brackets
        assert lo <= math.sqrt(3) <= hi == math.nextafter(lo, 2)
        assert lo2 <= math.sqrt(8) <= hi2 == math.nextafter(lo2, 3)
        assert c.crossovers == [(lo2, hi2)]
        for x in (1e-300, 1.0, math.sqrt(3), 2.0, math.nextafter(math.sqrt(8), 0)):
            assert sign_on_doubles(c, x) == c.sign_at(x) == -1
        for x in (math.nextafter(math.sqrt(8), 4), 1e300, DBL_MAX):
            assert sign_on_doubles(c, x) == c.sign_at(x) == 1

    def test_root_at_a_double_is_equal_there(self):
        # u = 5/4 at x = 3/4 exactly
        c = Comparison(poly(Fraction(-5, 4), 1))
        assert c.brackets == [(0.75, 0.75)]
        assert c.sign_at(0.75) == 0 == sign_on_doubles(c, 0.75)
        assert sign_on_doubles(c, math.nextafter(0.75, 0)) == -1
        assert sign_on_doubles(c, math.nextafter(0.75, 1)) == 1
        assert c.crossovers == [(0.75, 0.75)]
        touching = Comparison(times(poly(Fraction(-5, 4), 1), poly(Fraction(-5, 4), 1)))
        assert touching.crossovers == []
        assert [sign_on_doubles(touching, x) for x in (0.5, 0.75, 1.0)] == [1, 0, 1]

    def test_root_at_a_bisection_midpoint(self):
        # (4u - 5)(2u - 3): two roots of t = u - 1 in (0, 1), so their
        # isolation bisects (0, 1), and t = 1/2 is the midpoint it cuts at
        c = Comparison(poly(15, -22, 8))
        (lo, hi), (lo2, hi2) = c.brackets
        # u = 5/4 at the double x = 3/4, u = 3/2 at x = sqrt(5)/2
        assert Fraction(lo) == Fraction(hi) == Fraction(3, 4)
        assert Fraction(lo2) ** 2 < Fraction(5, 4) < Fraction(hi2) ** 2
        assert hi2 == math.nextafter(lo2, 2)
        # positive at 0+ (P(1) = 1), 0 at 3/4, negative between the roots
        assert c.signs == [1, 0, -1, 1]
        assert [sign_on_doubles(c, x) for x in (0.5, 0.75, 1.0, hi2, 2.0)] == [1, 0, -1, 1, 1]

    def test_roots_past_the_doubles(self):
        huge = Comparison(poly(-10 ** 400, 1))
        assert huge.brackets == [(DBL_MAX, math.inf)] and huge.crossovers == []
        assert sign_on_doubles(huge, DBL_MAX) == -1
        tiny = Comparison(poly(1 + Fraction(1, 10 ** 700), -1))
        assert tiny.brackets == [(0.0, 5e-324)]
        assert sign_on_doubles(tiny, 5e-324) == tiny.sign_at(5e-324) == -1

    def test_transcendental_root(self):
        # u = pi at x = sqrt(pi^2 - 1)
        c = Comparison((-PI, QPi.lift(1)))
        (lo, hi), = c.crossovers
        assert math.nextafter(lo, math.inf) == hi
        assert math.sqrt(math.pi ** 2 - 1) in (lo, hi)
        assert c.sign_at(lo) == -1 and c.sign_at(hi) == 1

    def test_grid_points_at_a_bracket_end_are_counted(self):
        from arctanbounds import BoundId, dominance_report
        report = dominance_report(BoundId.TWO_OVER_PI_LOWER, BoundId.SHAFER_LOWER,
                                  grid=GridSpec(1.0, 3.0, 5, "linear"))
        (lo, hi), = report.brackets
        grid = GridSpec(lo, 3.0, 5, "linear")
        report = dominance_report(BoundId.TWO_OVER_PI_LOWER, BoundId.SHAFER_LOWER, grid=grid)
        assert report.bracket_points == 1
        assert report.regions[0].x_lo == report.regions[0].x_hi == lo


def test_slope_polynomial_is_the_margins_derivative():
    # Q(u) / (u^2 (d + e u)^2) against a central difference of arctan x minus
    # the row at 120 digits, for every shape row of the suite: the sweep's
    # pieces rest on Q's sign
    from arctanbounds import eval_bound_hp, oracle_arctan
    from arctanbounds.catalog import _CATALOG
    from arctanbounds.cli import _suite_entries

    scale = 10 ** 130
    pi = Fraction(oracle_arctan(1.0, 130).units * 4, scale)

    def at_pi(v):
        return Fraction(sum(n * pi ** k for k, n in enumerate(v.nums)), v.den)

    def defect(bound, a, x):
        return (oracle_arctan(x, 120).as_fraction()
                - eval_bound_hp(bound, x, a, digits=120).as_fraction())

    rows = 0
    for bound, a in _suite_entries("all"):
        row = _CATALOG[bound]
        q = algebra.slope_polynomial(row, a)
        if row.consts is None:
            assert q is None, bound
            continue
        rows += 1
        c, d, e = (at_pi(QPi.lift(v)) for v in
                   row.consts(None if a is None else Fraction(a), PI))
        q = [at_pi(v) for v in q]
        for x in (0.01, 0.5, 1.0, 1.4394762380858963, 3.0, 100.0, 1e5):
            lo, hi = x * (1 - 2.0 ** -30), x * (1 + 2.0 ** -30)
            mid = (Fraction(lo) + Fraction(hi)) / 2
            u = Fraction(math.isqrt((1 + mid * mid).numerator * scale ** 2
                                    // (1 + mid * mid).denominator), scale)
            exact = (sum(c_k * u ** k for k, c_k in enumerate(q))
                     / (u * u * (d + e * u) ** 2))
            slope = ((defect(bound, a, hi) - defect(bound, a, lo))
                     / (Fraction(hi) - Fraction(lo)))
            assert abs(slope - exact) < Fraction(1, 10 ** 12) / (u * u), (bound, a, x)
    assert rows == 25      # the suite's 30 entries less the five one-offs
