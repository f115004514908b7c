"""Catalog of closed-form arctan bounds, enclosure construction, and the
monotonicity-regime classifier.

Eleven entries share the shape ``c * x / (d + e*sqrt(1 + x^2))`` of the
paper's family ``c(a) * x / (a + sqrt(1 + x^2))`` and state their constants as
data; the other five are classical one-off inequalities.  Every family entry
carries its certified parameter range; evaluating it outside that range is a
hard ParamError, never a silent number.

Each entry's formula is written once, as a closed form on FixedReal, which
floors each product, quotient and root to a unit of ``10**-digits`` and
carries a bound on its distance from the exact value.  It serves
:func:`eval_bound_hp`, the exact stage of the sweeps and dominance reports
(see :mod:`arctanbounds.fixedpoint`), and :func:`eval_bound`, the bound
rounded once to a double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Optional

from . import fixedpoint as fp
from .errors import DomainError, ParamError, PrecisionError

TWO_OVER_PI = 2.0 / math.pi
_HALF_PI = 0.5 * math.pi
_INF = math.inf
_DBL_MAX = math.nextafter(_INF, 0.0)

#: Default digits of the fixed-point oracle and of kernel profiles, and the
#: starting digits of sweeps and dominance reports.  The oracle's defaults,
#: kept here so that the CLI's parser shows them without importing the oracle.
DEFAULT_DIGITS = 30
DEFAULT_SWEEP_DIGITS = 50


class Regime(Enum):
    """Monotonicity of the family ratio on (0, inf) as a function of the parameter.

    The slice -1 < a < 0 carries no certified claim and reports Unclassified.
    """

    INCREASING = "Increasing"
    DECREASING = "Decreasing"
    INTERIOR_MINIMUM = "InteriorMinimum"
    UNCLASSIFIED = "Unclassified"


class BoundId(Enum):
    """Identifiers for every bound in the catalog.

    The ``two-over-pi`` entries are the a = 2/pi specialization of the
    reversed family; the ``-errata`` variant is a circulated mis-statement of
    that lower bound (constant term 2 instead of 4) kept as a documented
    counterexample: it exceeds arctan at x = 1.
    """

    SHAFER_LOWER = "shafer-lower"                  # 3x / (1 + 2*sqrt(1+x^2))
    HALF_ANGLE_UPPER = "half-angle-upper"          # 2x / (1 + sqrt(1+x^2))
    RATIO_LOWER = "ratio-lower"                    # x / (1 + x^2)
    IDENTITY_UPPER = "identity-upper"              # x
    CUBIC_LOWER = "cubic-lower"                    # x - x^3/3
    LOG_LOWER = "log-lower"                        # ln(1+x^2) / (2x)
    LOG_UPPER = "log-upper"                        # (1+x) ln(1+x)
    FAMILY_LOWER = "family-lower"                  # (1+a)x / (a+u),   0 <= a <= 1/2
    FAMILY_UPPER = "family-upper"                  # (pi/2)x / (a+u),  0 <= a <= 1/2
    REVERSED_LOWER = "reversed-lower"              # (pi/2)x / (a+u),  a >= 2/pi
    REVERSED_UPPER = "reversed-upper"              # (1+a)x / (a+u),   a >= 2/pi
    MID_REGIME_LOWER = "mid-regime-lower"          # 4a(1-a^2)x / (a+u),        1/2 < a < 2/pi
    MID_REGIME_UPPER = "mid-regime-upper"          # max(pi/2, 1+a)x / (a+u),   1/2 < a < 2/pi
    TWO_OVER_PI_LOWER = "two-over-pi-lower"        # pi^2 x / (4 + 2*pi*u)
    TWO_OVER_PI_UPPER = "two-over-pi-upper"        # (pi+2)x / (2 + pi*u)
    TWO_OVER_PI_LOWER_ERRATA = "two-over-pi-lower-errata"  # pi^2 x / (2 + 2*pi*u): NOT a bound


class Enclosure(NamedTuple("_Ends", [("lower", float), ("upper", float)])):
    """A certified two-sided bracket for arctan at a point: an immutable
    named pair of finite doubles, lower <= upper, equal to the plain tuple."""

    __slots__ = ()

    def __new__(cls, lower: float, upper: float):
        if not -_INF < lower <= upper < _INF:
            raise ParamError(f"inverted or non-finite enclosure: {lower!r}, {upper!r}")
        return _new_pair(cls, (lower, upper))

    _make = classmethod(lambda cls, ends: cls(*ends))     # so _replace checks too

    @property
    def half_width(self) -> float:
        """(upper - lower) / 2 rounded up, so never below the true half width
        (halving one subnormal step rounds to 0); halved first where the
        difference overflows."""
        lower, upper = self
        diff = upper - lower
        half = 0.5 * diff if diff < math.inf else 0.5 * upper - 0.5 * lower
        if Fraction(half) < (Fraction(upper) - Fraction(lower)) / 2:
            half = math.nextafter(half, math.inf)
        return half

    @property
    def midpoint(self) -> float:
        """The double nearest (lower + upper) / 2, inside [lower, upper];
        halved first where the sum overflows."""
        lower, upper = self
        mid = 0.5 * (lower + upper)
        return mid if abs(mid) < math.inf else 0.5 * lower + 0.5 * upper


# The shape rows are the six family rows, Shafer's 3x/(1+2u) and the
# half-angle 2x/(1+u) (the a = 1/2 and a = 1 members) and the three pi forms
# (a = 2/pi members, but the errata is the a = 1/pi upper bound).  Their form
# takes consts(a, pi) -> (c, d, e), bound once per (row, a, digits) in caches
# keyed on the form and consts (a BoundId's hash is Python code), and takes
# the balls of x and u = sqrt(1 + x^2), built once per (x, digits) for every
# shape row evaluated there (_point_balls); a one-off's form is the bound
# itself, on the ball of x alone.

def _shape(c, d, e):
    return lambda x, u: c * x / (d + e * u)


@lru_cache(maxsize=256)
def _point_balls(x: float, digits: int) -> tuple[fp.FixedReal, fp.FixedReal]:
    """The balls of the double x and of u = sqrt(1 + x^2) at `digits`."""
    x_hp = fp.FixedReal(x, digits)
    return x_hp, (1 + x_hp * x_hp).sqrt()


def _larger(p, q):
    """max(p, q); PrecisionError for two balls that their radii do not
    separate, which for max(pi/2, 1 + a) happens only below 18 digits: every
    double lies 4.9e-17 or more from pi/2 - 1."""
    if isinstance(p, fp.FixedReal) and not fp.separated((p, q)):
        raise PrecisionError("max of two balls that overlap")
    return max(p, q)


@lru_cache(maxsize=256)
def _fixed_consts(consts, a, digits):
    a_hp = None if a is None else fp.FixedReal(float(a), digits)
    return tuple(fp.FixedReal(v, digits) for v in consts(a_hp, fp.FixedReal.pi(digits)))


def _times(p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int]:
    ends = p[0] * q[0], p[0] * q[1], p[1] * q[0], p[1] * q[1]
    return min(ends), max(ends)


def _slope_bounds(consts, a, digits) -> tuple[list[int], list[int]]:
    """Two integer quadratics in v, coefficients from v^0, between which
    10**(2 digits) Q(1 + v) lies for v >= 0, Q(u) = (d + e u)^2 -
    c u (d u + e) the slope polynomial of a shape row, from the balls of its
    constants at `digits` (_fixed_consts): Q(1 + v) = A v^2 + (2A + B) v +
    (A + B + C) with A = e^2 - c d, B = e (2d - c) and C = d^2, each
    coefficient an exact interval of the balls' ends, and low takes its
    lower end, high its upper."""
    c, d, e = ((k.units - k.err, k.units + k.err)
               for k in _fixed_consts(consts, a, digits))
    ee, cd = _times(e, e), _times(c, d)
    big_a = ee[0] - cd[1], ee[1] - cd[0]
    big_b = _times(e, (2 * d[0] - c[1], 2 * d[1] - c[0]))
    coeffs = [(big_a, big_b, _times(d, d)), (big_a, big_a, big_b), (big_a,)]
    return [sum(k[0] for k in t) for t in coeffs], [sum(k[1] for k in t) for t in coeffs]


@lru_cache(maxsize=256)
def _fixed_fn(form, consts, a, digits):
    return form if consts is None else form(*_fixed_consts(consts, a, digits))


# Outward-rounded family ends, written in enclosure and again in
# best_enclosure's loop below, and in kernel.approx.  An end
# c * (x / (a + u)), c = 1 + a or pi/2, u = hypot(1, x), carries six roundings
# of relative size u0 = 2**-53: c, hypot twice (one ulp; a >= 0 keeps it
# relative in a + u), the sum, the quotient and the product; a and x enter
# exactly.  Scaling by 1 -+ 16 u0 rounds once more, so by the gamma_n lemma
# the stored end is the exact one times (1 + theta)(1 -+ 16 u0) with
# |theta| <= gamma_7 ~ 7 u0 < 16 u0: below an exact lower bound and above an
# exact upper one, as long as u, the quotient and the product are normal.
_DOWN, _UP = 1.0 - 2.0 ** -49, 1.0 + 2.0 ** -49
#: The call Enclosure(lower, upper) makes once its check passes, and
#: CertifiedValue(value, error_bound) makes outright: enclosure,
#: best_enclosure and kernel.approx build their pairs with it, in C.
_new_pair = tuple.__new__
#: Below this, arctan x = x - x^3/3 + ... lies strictly between x and the
#: next double toward zero: x^3/3 is far below one subnormal step.
_TINY = 2.0 ** -1000
_hypot, _nextafter = math.hypot, math.nextafter
_GAP_TEXT = "no two-sided enclosure for a={!r}; need 0 <= a <= 1/2 or a >= 2/pi"


# The three certified ranges of the family parameter, each a test and its
# text, read by the family rows and the interior-minimum solver in family.py;
# enclosure and best_enclosure spell out the first and last inline, on the
# kernel's hot path.
class ParamRange(NamedTuple):
    ok: Callable[[float], bool]
    text: str


FAMILY_RANGE = ParamRange(lambda a: 0.0 <= a <= 0.5, "0 <= a <= 1/2")
MID_REGIME_RANGE = ParamRange(lambda a: 0.5 < a < TWO_OVER_PI, "1/2 < a < 2/pi")
REVERSED_RANGE = ParamRange(lambda a: a >= TWO_OVER_PI, "a >= 2/pi")


@dataclass(frozen=True)
class _BoundInfo:
    side: str                                   # "lower" | "upper"
    consts: Optional[Callable] = None           # (a, pi) -> (c, d, e) of c*x/(d + e*u)
    form: Callable = _shape                     # (*constants) -> (x, u) -> bound, or x -> bound
    param: Optional[ParamRange] = None
    trusted: bool = True                        # errata entries are swept for failure
    # a one-off without a log as x N(u) / D(u), u = sqrt(1 + x^2), D > 0 for
    # u >= 1: (N, D), each rational coefficients from the lowest power; the
    # comparison polynomials of dominance reports (algebra.py) are built on it
    rational: Optional[tuple] = None
    # the margin rises on all of (0, inf): a one-off's, by its derivative
    # certificate, or a shape row's whose slope polynomial Q, negated for an
    # upper bound, is >= 0 on u >= 1 over the whole certified range: a
    # square, (u - 1)^2 / 4 for Shafer's and ((1 - 2a^2) u - a)^2 for
    # mid-regime-lower's, or Q(1 + v) with coefficients of one sign, which
    # by Descartes' rule has no root v > 0: (0, (1 - 2a)(1 + a), 1 - a - a^2)
    # for c = 1 + a (family-lower, all >= 0; reversed-upper, all <= 0; and
    # half-angle-upper, its a = 1), and (0, pi^2 - 2 pi - 8, pi^2 - 2 pi - 4)
    # for two-over-pi-upper; a sweep reads it as one rising run
    rises: bool = False


_CATALOG: dict[BoundId, _BoundInfo] = {
    BoundId.SHAFER_LOWER: _BoundInfo(
        "lower", lambda a, pi: (1.5, 0.5, 1), rises=True),
    BoundId.HALF_ANGLE_UPPER: _BoundInfo(
        "upper", lambda a, pi: (2, 1, 1), rises=True),
    BoundId.RATIO_LOWER: _BoundInfo(
        "lower", form=lambda x: x / (1 + x * x), rational=((1,), (0, 0, 1)),
        rises=True),
    BoundId.IDENTITY_UPPER: _BoundInfo(
        "upper", form=lambda x: x, rational=((1,), (1,)), rises=True),
    # x - x^3/3 = x (4 - u^2) / 3
    BoundId.CUBIC_LOWER: _BoundInfo(
        "lower", form=lambda x: x - x * (x * x / 3), rational=((4, 0, -1), (3,)),
        rises=True),
    BoundId.LOG_LOWER: _BoundInfo(
        "lower", form=lambda x: (1 + x * x).log() / (2 * x), rises=True),
    BoundId.LOG_UPPER: _BoundInfo(
        "upper", form=lambda x: (1 + x) * (1 + x).log(), rises=True),
    BoundId.FAMILY_LOWER: _BoundInfo(
        "lower", lambda a, pi: (1 + a, a, 1), param=FAMILY_RANGE, rises=True),
    BoundId.FAMILY_UPPER: _BoundInfo(
        "upper", lambda a, pi: (pi / 2, a, 1), param=FAMILY_RANGE),
    BoundId.REVERSED_LOWER: _BoundInfo(
        "lower", lambda a, pi: (pi / 2, a, 1), param=REVERSED_RANGE),
    BoundId.REVERSED_UPPER: _BoundInfo(
        "upper", lambda a, pi: (1 + a, a, 1), param=REVERSED_RANGE, rises=True),
    BoundId.MID_REGIME_LOWER: _BoundInfo(
        "lower", lambda a, pi: (4 * a * (1 - a * a), a, 1),
        param=MID_REGIME_RANGE, rises=True),
    # the upper constant is max(pi/2, 1+a); the exact switch sits at a = pi/2 - 1
    BoundId.MID_REGIME_UPPER: _BoundInfo(
        "upper", lambda a, pi: (_larger(pi / 2, 1 + a), a, 1),
        param=MID_REGIME_RANGE),
    BoundId.TWO_OVER_PI_LOWER: _BoundInfo(
        "lower", lambda a, pi: (pi * pi, 4, 2 * pi)),
    BoundId.TWO_OVER_PI_UPPER: _BoundInfo(
        "upper", lambda a, pi: (pi + 2, 2, pi), rises=True),
    # the errata entry is *claimed* as a lower bound; sweeping it on that side
    # tests the claim that was actually made (and finds it false)
    BoundId.TWO_OVER_PI_LOWER_ERRATA: _BoundInfo(
        "lower", lambda a, pi: (pi * pi, 2, 2 * pi), trusted=False),
}


def _info(bound: BoundId) -> _BoundInfo:
    """bound's catalog entry; ParamError naming the ids where bound is not a
    BoundId (a str, None or an unhashable value)."""
    try:
        return _CATALOG[bound]
    except (KeyError, TypeError):
        raise ParamError(f"bound must be a BoundId, got {bound!r}; BoundId(value) takes "
                         f"one of: {', '.join(b.value for b in BoundId)}") from None


def bound_side(bound: BoundId) -> str:
    return _info(bound).side


def bound_is_trusted(bound: BoundId) -> bool:
    return _info(bound).trusted


def bound_takes_param(bound: BoundId) -> bool:
    return _info(bound).param is not None


def _check_param(bound: BoundId, a: Optional[float]) -> None:
    param = _info(bound).param
    if param is None:
        if a is not None:
            raise ParamError(f"{bound.value} takes no family parameter")
        return
    if a is None:
        raise ParamError(f"{bound.value} requires a family parameter")
    if not -_DBL_MAX <= a <= _DBL_MAX:
        raise ParamError(f"family parameter {_past_doubles(a)}")
    if not param.ok(a):
        raise ParamError(
            f"a={a!r} outside the certified range {param.text} for {bound.value}")


def _past_doubles(a) -> str:
    """Why a parameter that fails -DBL_MAX <= a <= DBL_MAX, compared
    exactly, has no double: nan or an infinity, or an int or a Fraction past
    DBL_MAX, where a double evaluation would overflow."""
    return "must be finite" if a != a or abs(a) == _INF else "lies past the largest double"


def _check_x(x: float) -> float:
    """The double of x, the one a bound is computed at; DomainError where x
    is not positive and finite, or where its double is not (an int past
    DBL_MAX, a Fraction of at most 2**-1075)."""
    if not x > 0 or x == _INF:
        raise DomainError(f"bounds are stated for x > 0, got {x!r}")
    try:
        value = float(x)
    except OverflowError:
        value = _INF
    if not 0.0 < value < _INF:
        raise DomainError(f"x={x!r} has no positive finite double: it rounds to {value!r}")
    return value


def eval_bound(bound: BoundId, x: float, a: Optional[float] = None) -> float:
    """Evaluate one catalog bound at x > 0 as a double: the exact bound at
    the doubles x and a rounded once to the nearest double, -inf or inf
    where that overflows (cubic-lower above ~1e103).  eval_bound_hp's ball,
    settled by fixedpoint.settle: cubic-lower near its zero at sqrt(3) and
    reversed-lower at a huge a take more passes.  PrecisionError past
    fixedpoint.MAX_DIGITS.
    """
    return _settled(bound, x, a)[0]


def _settled(bound: BoundId, x: float, a: Optional[float]) -> tuple[float, int]:
    """eval_bound's double and the digits that settled it."""
    _check_param(bound, a)
    x = _check_x(x)
    (value,), digits = fp.settle(
        lambda d: (eval_bound_hp(bound, x, a, digits=d),), x,
        lambda: f"the double of {bound.value} at x={x!r}")
    return value, digits


def eval_bound_hp(bound: BoundId, x: float, a: Optional[float] = None,
                  digits: int = DEFAULT_SWEEP_DIGITS) -> fp.FixedReal:
    """Evaluate one catalog bound in fixed point, as a ball that holds the
    exact bound at the doubles x and a.

    x and a enter as their exact binary values rounded to the nearest unit
    of 10**-digits, with radius 1 where that rounds: at 50 digits, a = 0.1
    is the 50-digit rounding of that double, whose exact expansion has 55
    digits.  The entry's closed form then runs on FixedReal balls.  Used by
    the sweeps and dominance reports.  PrecisionError where x rounds to
    zero units, or where the radii reach a pole of the form.
    """
    _check_param(bound, a)
    x = _check_x(x)
    info = _info(bound)
    balls = ((fp.FixedReal(x, digits),) if info.consts is None
             else _point_balls(x, digits))
    if balls[0].units == 0:
        raise PrecisionError(f"x={x!r} rounds to zero at {digits} digits")
    return _fixed_fn(info.form, info.consts, a, digits)(*balls)


@dataclass(frozen=True)
class RegimeProof:
    """A regime of the family ratio and the exact values that decide it:
    h_at_one = h(1) = (2a-1)(a+1) and slope = 2a^2 - 1 of h(u) = slope*u + a,
    its root u_star = a/(1 - 2a^2), and g_inf_sign, the sign of
    g(inf) = 1/a - pi/2.  A field is None where it decides nothing."""

    regime: Regime
    h_at_one: Optional[Fraction] = None
    slope: Optional[Fraction] = None
    u_star: Optional[Fraction] = None
    g_inf_sign: Optional[int] = None

    def to_json_dict(self) -> dict:
        """The deciding fields, each as an exact rational string."""
        return {k: str(v) for k, v in vars(self).items() if k != "regime" and v is not None}


def prove_regime(a: float) -> RegimeProof:
    """Monotonicity regime of the family ratio for parameter a, proved in
    exact rationals from the paper's derivative algebra.

    With u = sqrt(1+x^2) > 1, the ratio's slope has the sign of g*(1 + a*u),
    where the gap g (family.stationarity_gap) runs from g(0+) = 0 to
    g(inf) = 1/a - pi/2, and sign(g') = -sign(h), h(u) = (2a^2 - 1)u + a.
    For a <= -1, h(1) >= 0 and the slope is positive, so h > 0, g < 0 and
    1 + a*u < 0: increasing.  On -1 < a < 0 there is no claim.  For a >= 0,
    h(1) <= 0 (a <= 1/2, with a negative slope) gives h < 0, g > 0:
    increasing; h(1) > 0 and a positive slope give h > 0, g < 0: decreasing.
    With h(1) > 0 and a negative slope (never 0 at a rational a), h changes
    sign once, at u_star, so g falls from 0, then rises to g(inf): one sign
    change, an interior minimum, if g(inf) > 0, and none, decreasing, else.

    a enters as the exact Fraction of the double, and pi as the ends of the
    ball FixedReal.pi(30), pi_units(30) -+ 1 unit, which separates every
    double from 2/pi (math.pi -+ 1 ulp cannot: the nearest lies 3.9e-17
    above it).  DomainError for nan, an infinity or an int past DBL_MAX.
    """
    if not -_DBL_MAX <= a <= _DBL_MAX:
        raise DomainError(f"parameter {_past_doubles(a)}")
    q = Fraction(a)
    if -1 < q < 0:
        return RegimeProof(Regime.UNCLASSIFIED)
    h_at_one, slope = (2 * q - 1) * (q + 1), 2 * q * q - 1
    if q < 0 or h_at_one <= 0:
        return RegimeProof(Regime.INCREASING, h_at_one, slope)
    if slope > 0:
        return RegimeProof(Regime.DECREASING, h_at_one, slope)
    pi_lo, pi_hi = fp.FixedReal.pi(30).ends()    # g(inf) has the sign of 2 - a*pi
    if 2 - q * pi_hi > 0:
        return RegimeProof(Regime.INTERIOR_MINIMUM, h_at_one, slope, -q / slope, 1)
    if 2 - q * pi_lo < 0:
        return RegimeProof(Regime.DECREASING, h_at_one, slope, -q / slope, -1)
    raise PrecisionError(f"a={a!r} lies within 10**-30 of 2/pi")


def classify_regime(a: float) -> Regime:
    """The monotonicity regime that prove_regime(a) proves."""
    return prove_regime(a).regime


def enclosure(a: float, x: float) -> Enclosure:
    """Two-sided family enclosure of arctan x at parameter a, rounded outward.

    For 0 <= a <= 1/2 the bracket is ((1+a)x/(a+u), (pi/2)x/(a+u)); for
    a >= 2/pi the two swap roles.  Both ends are scaled outward by
    1 -+ 2**-49 (see _DOWN), so the bracket holds for the doubles returned.
    It is [nextafter(x, 0), x] below 2**-1000, and [0, x] where x/(a+u) is
    subnormal (only a huge a does that).  Parameters in the gap (1/2, 2/pi),
    or negative, have no certified two-sided bracket and raise.  An x that
    is not a double is taken as its double, DomainError where that is not
    positive and finite (_check_x).

    The outward-rounded ends are written here and again in best_enclosure's
    loop (a call of its own per part would cost each part a frame and a
    hypot).  x and the finished ends are checked inline, as _check_x and
    Enclosure check them, and a failed check calls that helper, which
    raises.  The pair is built once, in C, by tuple.__new__: a
    call runs in one Python frame, about 0.60 microseconds on a 2-CPU Xeon
    virtual machine with Python 3.11, against 0.76 with the ends in a
    helper of their own (BENCH_35.json).
    """
    if type(x) is not float or not 0.0 < x < _INF:
        x = _check_x(x)
    # FAMILY_RANGE and REVERSED_RANGE, inline: this is the kernel's hot path
    if 0.0 <= a <= 0.5:
        c_lo, c_hi = 1.0 + a, _HALF_PI
    elif TWO_OVER_PI <= a <= _DBL_MAX:
        c_lo, c_hi = _HALF_PI, 1.0 + a
    else:
        raise ParamError(_GAP_TEXT.format(a) if -_DBL_MAX <= a <= _DBL_MAX
                         else f"family parameter {_past_doubles(a)}")
    if x < _TINY:
        lo, hi = _nextafter(x, 0.0), x
    else:
        q = x / (a + _hypot(1.0, x))
        if q < 2.0 ** -1022:
            lo, hi = 0.0, x
        else:
            lo, hi = c_lo * q * _DOWN, c_hi * q * _UP
    if not -_INF < lo <= hi < _INF:
        Enclosure(lo, hi)
    return _new_pair(Enclosure, (lo, hi))


def best_enclosure(x: float, params: Iterable[float]) -> Enclosure:
    """Pointwise-best enclosure over several parameters: max of the lowers,
    min of the uppers, bit for bit those of enclosure(a, x), in one pass
    with one hypot.  Containment is preserved since every constituent
    brackets arctan x.  Errors come as enclosure raises them, in the order
    of params; ParamError for none, or where the max exceeds the min.

    Each part's ends are enclosure's, written again in the loop, and x and
    the finished ends are checked inline, as there; the pair is built once,
    by tuple.__new__.  A call at (1/2, 2/pi) costs about 1.0 microseconds
    on the machine of enclosure's figure, against 1.2 with a helper call per
    part (BENCH_35.json)."""
    lower, upper, u = -_INF, _INF, None
    for a in params:
        if u is None:       # x is checked as enclosure checks it, once
            if type(x) is not float or not 0.0 < x < _INF:
                x = _check_x(x)
            u = _hypot(1.0, x)
        if 0.0 <= a <= 0.5:
            c_lo, c_hi = 1.0 + a, _HALF_PI
        elif TWO_OVER_PI <= a <= _DBL_MAX:
            c_lo, c_hi = _HALF_PI, 1.0 + a
        else:
            raise ParamError(_GAP_TEXT.format(a) if -_DBL_MAX <= a <= _DBL_MAX
                             else f"family parameter {_past_doubles(a)}")
        if x < _TINY:
            lo, hi = _nextafter(x, 0.0), x
        else:
            q = x / (a + u)
            if q < 2.0 ** -1022:
                lo, hi = 0.0, x
            else:
                lo, hi = c_lo * q * _DOWN, c_hi * q * _UP
        if not lo <= hi:
            raise ParamError(f"inverted enclosure at a={a!r}: {lo!r} > {hi!r}")
        lower = lo if lo > lower else lower
        upper = hi if hi < upper else upper
    if u is None:
        raise ParamError("best_enclosure needs at least one parameter")
    if not -_INF < lower <= upper < _INF:
        Enclosure(lower, upper)
    return _new_pair(Enclosure, (lower, upper))
