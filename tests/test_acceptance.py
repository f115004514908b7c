"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines stream; without -s they appear in captured output.  Everything here is
deterministic (seeded RNGs, fixed grids).
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from arctanbounds import (
    DEFAULT_GRID,
    DEFAULT_KERNEL,
    TWO_OVER_PI,
    BoundId,
    FixedReal,
    Regime,
    approx,
    classify_regime,
    dominance_report,
    error_profile,
    eval_bound,
    family_ratio,
    find_interior_minimum,
    minimum_value_closed_form,
    oracle_arctan,
    prove_regime,
    stationarity_gap,
    sweep,
)

FAMILY_PARAMS = (0.0, 0.1, 0.25, 0.5)
REVERSED_PARAMS = (TWO_OVER_PI, 0.7, 1.0, 2.0)

# Baseline from the first profile run of the default kernel over the default
# grid: the largest certified error, at x ~ 2.573.  Criterion 9 requires
# stability across runs to 1e-12.
MAX_CERTIFIED_BASELINE = 0.024925798709781066
# The same figure for the kernel that switched between the a = 1/2 and
# a = 2/pi enclosures (its a = 2/pi half-width at x = 1e8); the best-of-two
# kernel may not be looser.
SWITCH_KERNEL_MAX_CERTIFIED = 0.032911722576819936


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL  {label}")
        raise
    print(f"PASS  {label}")


def test_criterion_01_enclosure_validity():
    with criterion("criterion 1: enclosure sweeps, zero violations, positive margins"):
        for a in FAMILY_PARAMS:
            for bound in (BoundId.FAMILY_LOWER, BoundId.FAMILY_UPPER):
                report = sweep(bound, a=a, grid=DEFAULT_GRID)
                assert report.violations == [], (bound, a)
                assert report.min_margin > 0, (bound, a, report.min_margin)
        for a in REVERSED_PARAMS:
            for bound in (BoundId.REVERSED_LOWER, BoundId.REVERSED_UPPER):
                report = sweep(bound, a=a, grid=DEFAULT_GRID)
                assert report.violations == [], (bound, a)
                assert report.min_margin > 0, (bound, a, report.min_margin)


def test_criterion_02_best_constants():
    with criterion("criterion 2: limit constants 1+a and pi/2 are approached one-sidedly"):
        gap_zero = family_ratio(0.3, 1e-6) - 1.3
        assert 0 < gap_zero < 1e-6, gap_zero
        gap_inf = math.pi / 2 - family_ratio(0.3, 1e8)
        assert 0 < gap_inf < 1e-7, gap_inf
        # reversed regime: the ratio decreases, so both approaches flip side
        gap_zero_rev = 2.0 - family_ratio(1.0, 1e-6)
        assert 0 < gap_zero_rev < 1e-6, gap_zero_rev
        gap_inf_rev = family_ratio(1.0, 1e8) - math.pi / 2
        assert 0 < gap_inf_rev < 1e-7, gap_inf_rev


def test_criterion_03_regimes_vs_empirical_monotonicity():
    with criterion("criterion 3: sampled-pair orderings match the regime table"):
        digits = 50
        rng = random.Random(1729)
        xs = [10 ** rng.uniform(-8, 8) for _ in range(2000)]
        pairs = []
        while len(pairs) < 10_000:
            i, j = rng.randrange(2000), rng.randrange(2000)
            if xs[i] != xs[j]:
                pairs.append((min(i, j, key=lambda k: xs[k]),
                              max(i, j, key=lambda k: xs[k])))

        # doubles cannot resolve the orderings at the grid extremes, so the
        # ratio is evaluated in fixed point (cached arctan and sqrt per x)
        atan_hp = [FixedReal(x, digits).atan() for x in xs]
        u_hp = [(1 + (fx := FixedReal(x, digits)) * fx).sqrt() for x in xs]
        x_hp = [FixedReal(x, digits) for x in xs]

        def ratio_units(a_hp, k):
            return ((a_hp + u_hp[k]) * atan_hp[k] / x_hp[k]).units

        increasing = [-3.0, -1.0, 0.0, 0.3, 0.5]
        decreasing = [TWO_OVER_PI, 0.8, 1.5]
        wandering = [0.55, 0.6, 0.63]

        for a in increasing:
            assert classify_regime(a) is Regime.INCREASING
            a_hp = FixedReal(a, digits)
            values = [ratio_units(a_hp, k) for k in range(2000)]
            assert all(values[i] < values[j] for i, j in pairs), a
        for a in decreasing:
            assert classify_regime(a) is Regime.DECREASING
            a_hp = FixedReal(a, digits)
            values = [ratio_units(a_hp, k) for k in range(2000)]
            assert all(values[i] > values[j] for i, j in pairs), a
        for a in wandering:
            assert classify_regime(a) is Regime.INTERIOR_MINIMUM
            a_hp = FixedReal(a, digits)
            values = [ratio_units(a_hp, k) for k in range(2000)]
            rose = any(values[i] < values[j] for i, j in pairs)
            fell = any(values[i] > values[j] for i, j in pairs)
            assert rose and fell, a


def test_criterion_04_interior_minimum():
    with criterion("criterion 4: interior minimum located and certified"):
        for a in (0.51, 0.55, 0.6, 0.63):
            res = find_interior_minimum(a)
            assert res.residual <= 1e-12, (a, res.residual)
            closed = minimum_value_closed_form(a, res.u)
            assert abs(res.value - closed) <= 1e-11, (a, res.value, closed)
            floor = 4 * a * (1 - a * a)
            assert res.value > floor, (a, res.value, floor)
            assert res.value < min(1 + a, math.pi / 2), (a, res.value)


def test_criterion_05_zero_curves():
    with criterion("criterion 5: the root curve u*(a) annihilates h and rises from 1 to infinity"):
        # h(u) = (2a^2 - 1)u + a has one root u* = a/(1 - 2a^2) > 1 for each
        # 1/2 < a < sqrt2/2; it rises from 1 at a = 1/2 to infinity at sqrt2/2
        first = math.nextafter(0.5, 1.0)
        last = math.nextafter(math.sqrt(0.5), 0.0)
        assert 2 * Fraction(last) ** 2 < 1 < 2 * Fraction(math.sqrt(0.5)) ** 2
        previous = Fraction(1)
        for a in [first] + [first + (last - first) * i / 999 for i in range(1, 999)] + [last]:
            proof = prove_regime(a)
            q = Fraction(a)
            assert 2 * q * q * proof.u_star + q - proof.u_star == 0, a
            assert proof.u_star > previous, a
            previous = proof.u_star
        assert prove_regime(first).u_star - 1 < Fraction(1, 10 ** 15)
        assert prove_regime(last).u_star > 10 ** 15
        assert prove_regime(math.sqrt(0.5)).u_star is None


def test_criterion_06_gap_limits():
    with criterion("criterion 6: stationarity-gap limits at 0 and infinity"):
        for a in (0.6, 1.0, 2.0):
            assert abs(stationarity_gap(a, 1e-8)) < 1e-7, a
            assert abs(stationarity_gap(a, 1e8) - (1 / a - math.pi / 2)) < 1e-7, a


def test_criterion_07_defect_derivative_identity():
    with criterion("criterion 7: Shafer's defect derivative is (u-1)^2/4 over a positive factor"):
        # the regime at a = 1/2: h(1) = 0 and slope -1/2, so h < 0 on u > 1
        # and the ratio rises from 3/2, which is arctan x > 3x/(1 + 2u)
        proof = prove_regime(0.5)
        assert proof.regime is Regime.INCREASING
        assert proof.h_at_one == 0 and proof.slope == Fraction(-1, 2)
        # the defect's derivative is Q(u) / (u^2 (1/2 + u)^2), exactly, with
        # Q(u) = (1/2 + u)^2 - (3/2)u(1 + u/2) = (u - 1)^2 / 4
        for i in range(1000):
            x = 10 ** (-3 + 6 * i / 999)
            u = Fraction(math.hypot(1.0, x))
            q = (Fraction(1, 2) + u) ** 2 - Fraction(3, 2) * u * (1 + u / 2)
            assert q == (u - 1) ** 2 / 4 > 0, x
            ratio = family_ratio(FixedReal(0.5, 40), FixedReal(x, 40))
            assert ratio > FixedReal(1.5, 40), x


def test_criterion_08_errata_reproduction():
    with criterion("criterion 8: errata bound fails, corrected bound and upper dominate"):
        # the claimed lower bound exceeds arctan already at x = 1
        errata_at_one = eval_bound(BoundId.TWO_OVER_PI_LOWER_ERRATA, 1.0)
        assert errata_at_one > math.pi / 4
        assert errata_at_one == pytest.approx(0.9066522753866907, abs=1e-12)
        errata_sweep = sweep(BoundId.TWO_OVER_PI_LOWER_ERRATA, grid=DEFAULT_GRID)
        assert len(errata_sweep.violations) >= 1

        corrected = sweep(BoundId.TWO_OVER_PI_LOWER, grid=DEFAULT_GRID)
        assert corrected.violations == []
        assert corrected.min_margin > 0

        dom = dominance_report(BoundId.TWO_OVER_PI_UPPER,
                               BoundId.HALF_ANGLE_UPPER, grid=DEFAULT_GRID)
        # strict at every grid point by the exact fixed-point sign, even where
        # the relative gap (~0.055 x^2) sits inside the tie-labeling band
        assert dom.a_strictly_tighter_everywhere


def test_criterion_09_kernel_certification():
    with criterion("criterion 9: kernel certified on 1e5 random points; "
                   f"max certified error stable at {MAX_CERTIFIED_BASELINE!r}"):
        digits = 30
        rng = random.Random(90125)
        for _ in range(100_000):
            x = rng.uniform(-1e6, 1e6)
            cv = approx(DEFAULT_KERNEL, x)
            actual = abs(float(FixedReal(cv.value, digits) - oracle_arctan(x, digits)))
            assert actual <= cv.error_bound, (x, actual, cv)

        profile_grid = DEFAULT_GRID
        first = error_profile(DEFAULT_KERNEL, profile_grid)
        second = error_profile(DEFAULT_KERNEL, profile_grid)
        assert first.max_certified == second.max_certified
        assert abs(first.max_certified - MAX_CERTIFIED_BASELINE) <= 1e-12
        assert first.max_certified <= SWITCH_KERNEL_MAX_CERTIFIED
        assert all(r.ratio >= 1.0 for r in first.rows)


def test_criterion_10_oracle_quality():
    with criterion("criterion 10: oracle self-consistency and 4-ulp libm agreement"):
        rng = random.Random(31337)
        quantum = Fraction(1, 10 ** 28)
        for _ in range(1000):
            x = rng.uniform(-1e6, 1e6)
            d30 = oracle_arctan(x, 30).as_fraction()
            d40 = oracle_arctan(x, 40).as_fraction()
            assert abs(d30 - d40) < quantum, x

        # magnitudes below ~1e-15 would make 4 ulp smaller than the oracle's
        # absolute error contract, so the sampled population stays above that
        for _ in range(100_000):
            x = math.copysign(10 ** rng.uniform(-12, 12), rng.uniform(-1, 1))
            reference = math.atan(x)
            high = oracle_arctan(x, 30)
            assert abs(float(high) - reference) <= 4 * math.ulp(reference), x
