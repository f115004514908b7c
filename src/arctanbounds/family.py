"""Analysis of the parameterized ratio behind the bound family.

The central object is ``family_ratio(a, x) = (a + sqrt(1+x^2)) * arctan(x) / x``
whose monotonicity in x decides which closed-form bounds hold.  The sign of
d/dx family_ratio equals sign(g) * sign(1 + a*sqrt(1+x^2)), where g is
``stationarity_gap``; :func:`~arctanbounds.catalog.prove_regime` decides the
regime from g's limits and the linear factor of its derivative.

For 1/2 < a < 2/pi the gap has a single zero, which is the unique interior
minimum of the ratio.  ``find_interior_minimum`` guesses it in double,
certifies a bracket of doubles around it by signs of the gap, each
decided in fixed point past the value's radius (see fixedpoint.refine),
and reports the bracket's end where the gap is smaller;
``minimum_value_closed_form`` gives the minimum as (a+u)^2 / (u (1+a u))
with u = sqrt(1 + x0^2).

Each evaluation runs on FixedReal balls at a ball argument's digits, and
at plain numbers returns the exact value rounded once to a double
(fixedpoint.settle, as for catalog.eval_bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import fixedpoint as fp
from .catalog import MID_REGIME_RANGE
from .errors import DomainError, ParamError, SingularityError


def _check_positive(x) -> None:
    """DomainError unless x > 0 and, but for a ball, x <= DBL_MAX with a
    double above 0 (fixedpoint.settle starts from its size)."""
    if not x > 0 or not (isinstance(x, fp.FixedReal) or x <= fp._DBL_MAX and float(x)):
        raise DomainError(f"defined for finite x > 0, got {x!r}")


def _evaluate(form, a, x, name: str):
    """form(a, x) on balls: at a ball argument's digits, the other made a
    ball there; else the double its exact value rounds to (+-inf past DBL_MAX)."""
    if isinstance(x, fp.FixedReal):
        return form(a if isinstance(a, fp.FixedReal) else fp.FixedReal(a, x.digits), x)
    if isinstance(a, fp.FixedReal):
        return form(a, fp.FixedReal(x, a.digits))
    return fp.settle(lambda d: (form(fp.FixedReal(a, d), fp.FixedReal(x, d)),), x,
                     lambda: f"the double of {name}({a!r}, {x!r})")[0][0]


def _ratio_and_u(a: fp.FixedReal, x: fp.FixedReal) -> tuple:
    u = (1 + x * x).sqrt()
    return (a + u) * x.atan() / x, u


def family_ratio(a, x):
    """(a + sqrt(1+x^2)) * arctan(x) / x for x > 0.

    Tends to 1 + a as x -> 0+ and to pi/2 as x -> inf; those two limits are
    the unimprovable constants of the two-sided bounds.
    """
    _check_positive(x)
    return _evaluate(lambda a, x: _ratio_and_u(a, x)[0], a, x, "family_ratio")


def stationarity_gap(a, x):
    """The sign-carrying factor of the ratio's derivative.

    g(a, x) = (x + x^3 + a x u) / ((1+x^2)(1 + a u)) - arctan x, u = sqrt(1+x^2).
    g vanishes exactly at critical points of the ratio; it tends to 0 at 0+
    and to 1/a - pi/2 at infinity, and its derivative is
    -x^2 h(u) / (u^3 (1 + a u)^2) with h(u) = (2a^2 - 1)u + a.
    SingularityError where 1 + a u is exactly 0 (a = -4/5, x = 3/4); never
    at doubles, as no dyadic a and x have a^2 (1 + x^2) = 1.
    """
    _check_positive(x)

    def gap(a_ball, x_ball):
        u = (1 + x_ball * x_ball).sqrt()
        pivot = 1 + a_ball * u
        if not (pivot.units or pivot.err):
            raise SingularityError(f"1 + a*sqrt(1+x^2) vanishes at a={a!r}, x={x!r}")
        return ((x_ball + x_ball * x_ball * x_ball + a_ball * x_ball * u)
                / ((1 + x_ball * x_ball) * pivot) - x_ball.atan())
    return _evaluate(gap, a, x, "stationarity_gap")


@dataclass(frozen=True)
class MinimumResult:
    """Located interior minimum of the family ratio."""

    x0: float
    value: float
    u: float
    residual: float
    #: Doubles p < q with the gap certified negative at p and positive at q,
    #: so its zero lies between; x0 is one of them.
    bracket: tuple[float, float]
    #: Fixed-point evaluations of the gap, at every digits tried, and the
    #: most digits one took.
    gap_evals: int
    max_digits: int


#: Digits at which each sign of the gap is first tried.
GAP_DIGITS = 30


def _gap_at(a: float, x: float, d: int, digits: list) -> fp.FixedReal:
    """stationarity_gap(a, x) as a ball at d digits; appends d to digits."""
    digits.append(d)
    return stationarity_gap(fp.FixedReal(a, d), fp.FixedReal(x, d))


def _certified_gap(a: float, x: float, digits: list) -> fp.FixedReal:
    """stationarity_gap(a, x) in fixed point from GAP_DIGITS, refined
    (fixedpoint.refine) until its size exceeds its radius, so that its sign
    is the true gap's.  At a double the gap is never 0: arctan x is
    transcendental (Lindemann) and the rest of the gap algebraic.  Appends
    the digits of every evaluation to digits."""
    return fp.refine(lambda d: _gap_at(a, x, d, digits), GAP_DIGITS,
                     lambda g: abs(g.units) > g.err,
                     lambda: f"the sign of the gap at a={a!r}, x={x!r}")


def _nearer_end(a: float, ends, digits: list):
    """The end (x, gap ball) of the bracket ((p, g_p), (q, g_q)) whose gap
    is the smaller in magnitude: p where gap(p) + gap(q) > 0, as the gap is
    negative at p and positive at q.  That sign is read from the two balls,
    at the digits of the finer, where their centres' sum exceeds their
    radii's, and otherwise from both gaps again at twice the digits and so
    on.  The sum is never 0: arctan p + arctan q, the argument of the
    algebraic (1 + ip)(1 + iq), is transcendental (Lindemann), the rest
    algebraic."""
    (p, g_p), (q, g_q) = ends
    start = max(g_p.digits, g_q.digits)

    def gaps(d):
        if d == start:
            return fp.FixedReal(g_p, d), fp.FixedReal(g_q, d)
        return _gap_at(a, p, d, digits), _gap_at(a, q, d, digits)
    g_p, g_q = fp.refine(gaps, start, lambda balls: fp.separated((-balls[0], balls[1])),
                         lambda: f"the smaller gap at a={a!r}, x={p!r} and {q!r}")
    return (p, g_p) if -g_p.units < g_q.units else (q, g_q)


# The guess of x0.  With theta = arctan x the gap is -F(theta) / (a + cos theta),
#   F = theta (a + cos theta) - sin theta (1 + a cos theta).
# Up to x = 1, F / theta^3 = (a - 1/2) P(t) + Q(t) in t = theta^2, with the
# power series P and Q below (Q(0) = 0): no term cancels as a -> 1/2, where
# x0 ~ sqrt(20 (a - 1/2)).  Above it, with e = pi/2 - theta = arctan(1/x),
#   F = H(e) - tau,  tau = 1 - a pi/2,
#   H = 2 sin^2(e/2) + (pi/2) sin e - a (e + sin e cos e) - e sin e,
#   H' = cos e (pi/2 - e - 2a cos e),
# with tau to about an ulp as a -> 2/pi (exact rational arithmetic), where
# x0 ~ 1/e -> inf.
# Newton's method starts below the root, at the root of the first two
# terms of F / theta^3 (convex in t) or of H's linear part (H is concave),
# and so rises to it.
_SERIES_TERMS = 12      # the first term omitted is under 2**-60 at x = 1
_P = tuple((-1) ** (k + 1) * 4 ** k / math.factorial(2 * k + 1)
           for k in range(1, _SERIES_TERMS + 1))
_Q = tuple((-1) ** (k + 1) * (4 ** k - 4 * k) / (2 * math.factorial(2 * k + 1))
           for k in range(1, _SERIES_TERMS + 1))
#: theta^2 at x = 1.
_T_AT_ONE = math.pi ** 2 / 16
#: pi/2 to 2**-106, as the exact sum of two doubles.
_HALF_PI = Fraction(math.pi / 2) + Fraction(6.123233995736766e-17)
_NEWTON_STEPS = 12     # a guard: 8 steps reached the root at every a tried
_ULP = 2.0 ** -52


def _series(coefficients, t: float) -> tuple[float, float]:
    """The power series in t with these coefficients, and its derivative."""
    value = slope = 0.0
    for c in reversed(coefficients):
        slope = slope * t + value
        value = value * t + c
    return value, slope


def _guess_minimum(a: float) -> tuple[float, int]:
    """x0 in double, by Newton's method on F, and an estimate of its error
    in ulps: an ulp of each of F's terms over F's slope (the step at which
    Newton stops), carried to x."""
    d = a - 0.5     # exact, as 1/2 < a < 1

    def scaled(t):  # F / theta^3, its t-derivative and its terms' size
        (p, p_slope), (q, q_slope) = _series(_P, t), _series(_Q, t)
        return d * p + q, d * p_slope + q_slope, abs(d * p) + abs(q)

    if scaled(_T_AT_ONE)[0] <= 0:
        t = 20 * d / (1 + 4 * d)
        for _ in range(_NEWTON_STEPS):
            value, slope, size = scaled(t)
            step, noise = value / slope, _ULP * size / abs(slope)
            t = min(t - step, _T_AT_ONE)
            if abs(step) <= noise:
                break
        theta = math.sqrt(t)
        # dx / x = dt / (theta sin 2 theta)
        return math.tan(theta), _ulps(noise / _ULP / (theta * math.sin(2 * theta)))
    tau = float(1 - Fraction(a) * _HALF_PI)
    e = tau / (math.pi / 2 - 2 * a)
    for _ in range(_NEWTON_STEPS):
        s, c = math.sin(e), math.cos(e)
        terms = (2 * math.sin(e / 2) ** 2, math.pi / 2 * s, -a * (e + s * c), -e * s, -tau)
        slope = c * (math.pi / 2 - e - 2 * a * c)
        step, noise = math.fsum(terms) / slope, _ULP * sum(map(abs, terms)) / abs(slope)
        e = min(e - step, math.pi / 4)
        if abs(step) <= noise:
            break
    # dx / x = 2 de / sin 2e
    return 1 / math.tan(e), _ulps(2 * noise / _ULP / math.sin(2 * e))


def _ulps(relative_error: float) -> int:
    """A relative error in ulps of 2**-52, rounded up, and at least 1."""
    return max(1, math.ceil(relative_error))


def _certified_bracket(gap_at, guess: float, ulps: int):
    """Doubles p < q with the gap's ball gap_at(x) certified negative at p
    and positive at q, as ((p, ball), (q, ball)): guess's bit pattern less
    and plus ulps, each moved outward, twice as far each time, until its
    sign is the one sought.  A point whose sign is the other side's becomes
    that side's end, since the gap changes sign once."""
    centre, ends = fp._bits(guess), {}
    for side in (-1, 1):
        step = ulps
        while side not in ends:
            x = fp._from_bits(centre + side * step)
            gap = gap_at(x)
            ends[1 if gap.units > 0 else -1] = x, gap
            step *= 2
    return ends[-1], ends[1]


def find_interior_minimum(a: float) -> MinimumResult:
    """Locate the unique interior minimum of the ratio for 1/2 < a < 2/pi.

    The gap is negative below the minimum and positive above it, and each of
    its signs is certified by _certified_gap.  A double guess of x0 (Newton
    on the gap's numerator in theta = arctan x, free of cancellation at both
    ends of the regime) and its error estimate set where the certified
    bracket p < q of the gap's zero starts (_certified_bracket).  x0 is the
    end of the bracket where the gap is the smaller in magnitude
    (_nearer_end), mostly decided on the bracket's own balls, and residual
    that ball's centre in magnitude as a double; so the zero lies within
    the bracket's width of x0.  value and u are the ratio and
    sqrt(1 + x0^2) at x0, each exact value rounded once to a double, both
    settled on one set of balls (fixedpoint.settle).
    """
    if not MID_REGIME_RANGE.ok(a):
        raise ParamError(
            f"interior minimum exists only for {MID_REGIME_RANGE.text}, got a={a!r}")

    digits = []
    ends = _certified_bracket(lambda x: _certified_gap(a, x, digits), *_guess_minimum(a))
    x0, gap = _nearer_end(a, ends, digits)
    (value, u), _ = fp.settle(
        lambda d: _ratio_and_u(fp.FixedReal(a, d), fp.FixedReal(x0, d)), x0,
        lambda: f"the minimum at a={a!r}, x0={x0!r}")
    return MinimumResult(x0=x0, value=value, u=u, residual=abs(float(gap)),
                         bracket=(ends[0][0], ends[1][0]), gap_evals=len(digits),
                         max_digits=max(digits))


def minimum_value_closed_form(a, u):
    """(a+u)^2 / (u (1 + a u)), the ratio's minimum expressed through
    u = sqrt(1 + x0^2) > 1.  Exceeds 4a(1-a^2) for every u > 1, which is how
    the mid-regime lower bound constant arises."""
    if not u > 1 or not (isinstance(u, fp.FixedReal) or u <= fp._DBL_MAX):
        raise DomainError(f"u = sqrt(1+x0^2) must be finite and exceed 1, got {u!r}")
    if not MID_REGIME_RANGE.ok(a):
        raise ParamError(
            f"closed-form minimum applies for {MID_REGIME_RANGE.text}, got a={a!r}")
    return _evaluate(lambda a, u: (a + u) * (a + u) / (u * (1 + a * u)), a, u,
                     "minimum_value_closed_form")
