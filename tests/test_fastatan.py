"""fast_atan's proven error bound, checked against the fixed-point oracle.

Every comparison is exact, on Fractions: fast_atan(x) = f passes at x when
|f - O| + 2 * 10**-d <= K u f, where O is the oracle at d digits, its error
below 2 * 10**-d (half a unit from rounding x, under a unit from arctan),
and K u = FAST_ATAN_K * 2**-53.  The oracle's error is taken from the
allowance, not added to it.
The proof also assumes the constants are the doubles nearest to arctan(j/64)
and to pi/2 and its remainder; that is checked against an 80-digit table.

    PYTHONPATH=src python tests/test_fastatan.py 1000000

checks that many seeded random bit-pattern positive finite doubles,
subnormals included, and prints the largest error in units of u f.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

import pytest

from arctanbounds import fastatan as fa
from arctanbounds import fixedpoint as fp
from arctanbounds.fixedpoint import _bits, _from_bits

U = Fraction(1, 2 ** 53)
DBL_MAX = sys.float_info.max


def random_points(count: int, seed: int) -> list[float]:
    """Seeded doubles whose bit patterns are uniform over the positive finite
    doubles, from 2**-1074 to DBL_MAX: every binade equally often, and the
    subnormals as often as one binade."""
    rng = random.Random(seed)
    return [_from_bits(rng.randint(1, _bits(DBL_MAX))) for _ in range(count)]


def _beside(x: float) -> list[float]:
    return [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]


#: The doubles beside every knot j/64 and every midpoint (j +- 1/2)/64, with
#: their reciprocals (x > 1 reduces to t = 1/x); 1 and its neighbours; every
#: power of two and its neighbours, from the smallest subnormal to DBL_MAX,
#: where 1/x turns subnormal (2**1022) and where x*x and r*s underflow.
EDGE_POINTS = sorted({y for j in range(129) for y in _beside(j / 128)
                      if 0.0 < y}
                     | {y for j in range(1, 129) for y in _beside(128 / j)}
                     | {y for k in range(-1074, 1024) for y in _beside(2.0 ** k)
                        if 0.0 < y < math.inf})


def error_units(x: float) -> Fraction:
    """|fast_atan(x) - arctan x| plus the oracle's error, in units of u f."""
    digits = 40 + max(0, -math.floor(math.log10(x)))
    oracle = fp.FixedReal(x, digits).atan().as_fraction()
    f = Fraction(fa.fast_atan(x))
    return (abs(f - oracle) + Fraction(2, 10 ** digits)) / (U * f)


def bound_failures(points) -> list[float]:
    """The points where the error bound fails."""
    k = Fraction(fa.FAST_ATAN_K)
    return [x for x in points if error_units(x) > k]


def constant_failures() -> list[str]:
    """The constants that are not the doubles nearest to their values."""
    scale = fp.pow10(80)
    table = fp._atan_table(80)
    failures = [f"knot {j}" for j, knot in enumerate(fa._KNOTS)
                if knot != table[j] / scale]
    half_pi = Fraction(2 * table[-1], scale)
    if fa._HALF_PI_HI != float(half_pi):
        failures.append("pi/2 high word")
    if fa._HALF_PI_LO != float(half_pi - Fraction(fa._HALF_PI_HI)):
        failures.append("pi/2 low word")
    return failures


def failures(points) -> list:
    return constant_failures() + bound_failures(points)


class TestErrorBound:
    def test_constants_are_nearest_doubles(self):
        assert len(fa._KNOTS) == 65
        assert constant_failures() == []

    def test_edge_points(self):
        assert bound_failures(EDGE_POINTS) == []

    def test_random_bit_patterns(self):
        assert bound_failures(random_points(20_000, seed=12)) == []

    def test_tiny_and_huge_arguments(self):
        # below 2**-500 the result is x itself, above 2**500 the double of pi/2
        for x in [5e-324, 2.0 ** -1022, 1e-300, math.nextafter(2.0 ** -500, 0.0)]:
            assert fa.fast_atan(x) == x
        for x in [math.nextafter(2.0 ** 500, math.inf), 2.0 ** 1022, DBL_MAX]:
            assert fa.fast_atan(x) == fa._HALF_PI_HI


class TestMutations:
    """A check that cannot fail shows nothing: each change below to one
    constant must make it fail."""

    @pytest.mark.parametrize("name,value", [
        ("_HALF_PI_LO", math.nextafter(fa._HALF_PI_LO, math.inf)),
        ("_HALF_PI_LO", math.nextafter(fa._HALF_PI_LO, 0.0)),
        ("_KNOTS", fa._KNOTS[:37] + (math.nextafter(fa._KNOTS[37], math.inf),)
         + fa._KNOTS[38:]),
        ("_KNOTS", fa._KNOTS[:1] + (math.nextafter(fa._KNOTS[1], 0.0),)
         + fa._KNOTS[2:]),
    ], ids=["lo_up", "lo_down", "knot37_up", "knot1_down"])
    def test_one_ulp_fails(self, monkeypatch, name, value):
        monkeypatch.setattr(fa, name, value)
        assert failures(EDGE_POINTS) != []

    @pytest.mark.parametrize("j", [1, 37, 64])
    def test_broken_bound_fails_on_points(self, monkeypatch, j):
        # eight ulps on one knot put fast_atan(j/64) past K u of arctan
        knot = fa._KNOTS[j]
        for _ in range(8):
            knot = math.nextafter(knot, math.inf)
        monkeypatch.setattr(fa, "_KNOTS", fa._KNOTS[:j] + (knot,) + fa._KNOTS[j + 1:])
        assert j / 64 in bound_failures(EDGE_POINTS)


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    worst, worst_x, failed = Fraction(0), None, 0
    k = Fraction(fa.FAST_ATAN_K)
    for x in random_points(count, seed=1_000_000):
        units = error_units(x)
        failed += units > k
        if units > worst:
            worst, worst_x = units, x
    print(f"{count} points, {failed} past K = {fa.FAST_ATAN_K}; largest error "
          f"{float(worst):.4f} u f at x = {worst_x!r}")
    sys.exit(1 if failed else 0)
