"""Catalog of closed-form arctan bounds, enclosure construction, and the
monotonicity-regime classifier.

Eleven entries share the shape ``c * x / (d + e*sqrt(1 + x^2))`` of the
paper's family ``c(a) * x / (a + sqrt(1 + x^2))`` and state their constants as
data; the other five are classical one-off inequalities.  Every family entry
carries its certified parameter range; evaluating it outside that range is a
hard ParamError, never a silent number.

Each entry's formula is written once, over a square root and a log, and
evaluated on two number types.  The float form runs it on doubles with
``math.sqrt`` and ``math.log``; it carries a proven bound on its rounding
error, which lets a sweep settle most grid points in double precision (see
:func:`float_form`).  The fixed-point form runs it on FixedReal, which floors
each product, quotient and root to a unit of ``10**-digits``, and serves
:func:`eval_bound_hp`, the exact stage of the sweeps and dominance reports
(see :mod:`arctanbounds.fixedpoint`).
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

#: Default digits of the fixed-point oracle and of kernel profiles, and of
#: sweeps and dominance reports.  The oracle's defaults, kept here so that
#: the CLI's parser shows them without importing the oracle.
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


@dataclass(frozen=True)
class Enclosure:
    """A certified two-sided bracket for arctan at a point."""

    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise ParamError(f"inverted enclosure: {self.lower} > {self.upper}")

    @property
    def half_width(self) -> float:
        """(upper - lower) / 2 rounded up, so never below the true half width
        (halving one subnormal step rounds to 0)."""
        half = 0.5 * (self.upper - self.lower)
        if Fraction(half) < (Fraction(self.upper) - Fraction(self.lower)) / 2:
            half = math.nextafter(half, math.inf)
        return half

    @property
    def midpoint(self) -> float:
        """The double nearest (lower + upper) / 2, inside [lower, upper]."""
        return 0.5 * (self.lower + self.upper)


# The shape rows are the six family rows, Shafer's 3x/(1+2u) and the
# half-angle 2x/(1+u) (the a = 1/2 and a = 1 members) and the three pi forms
# (a = 2/pi members, but the errata is the a = 1/pi upper bound).  Each form
# takes the square root and the log to use, and the shape form its constants
# consts(a, pi) -> (c, d, e).  A form is bound on doubles once per (row, a) and
# on FixedReal once per (row, a, digits), in caches keyed on the form and
# consts: a BoundId's hash is Python code.
# The fixed-point form is the same closed form on FixedReal, which floors each
# product, quotient and root.

def _shape(sqrt, log, c, d, e):
    return lambda x: c * x / (d + e * sqrt(1 + x * x))


def _ratio_lower(sqrt, log):
    return lambda x: x / (1 + x * x)


def _identity_upper(sqrt, log):
    return lambda x: x


def _cubic_lower(sqrt, log):
    return lambda x: x - x * (x * x / 3)


def _log_lower(sqrt, log):
    return lambda x: log(1 + x * x) / (2 * x)


def _log_upper(sqrt, log):
    return lambda x: (1 + x) * log(1 + x)


@lru_cache(maxsize=256)
def _float_fn(form, consts, a):
    constants = () if consts is None else map(float, consts(a, math.pi))
    return form(math.sqrt, math.log, *constants)


@lru_cache(maxsize=256)
def _fixed_fn(form, consts, a, digits):
    constants = ()
    if consts is not None:
        a_hp = None if a is None else fp.FixedReal(float(a), digits)
        constants = (fp.FixedReal(v, digits)
                     for v in consts(a_hp, fp.FixedReal.pi(digits)))
    return form(fp.FixedReal.sqrt, fp.FixedReal.log, *constants)


# Float error bounds.  With unit roundoff u = 2**-53, each correctly rounded
# operation on normal doubles returns (exact)(1 + d), |d| <= u, and a product
# or quotient of n such factors is 1 + theta_n, |theta_n| <= gamma_n = nu/(1-nu)
# (Higham, Accuracy and Stability of Numerical Algorithms, Lemmas 3.1 and 3.3).
# A sum of two positive terms with relative errors theta_j and theta_k has
# relative error theta_max(j,k) before its own rounding.  Parameters and x
# enter exactly; math.pi is pi(1 + theta_1) and halving it is exact, as is
# the shared form's product e*u where e = 1.
#
# The rational forms, counted as roundings n with b = B(1 + theta_n):
#   u = sqrt(1 + x*x)      theta_2: x*x and the sum give theta_2, which the root
#                          halves to theta_1, plus the root's own rounding
#   a + u (a >= 0)         theta_3
#   (1+a)x / (a+u)         numerator theta_2, quotient: n = 2 + 3 + 1 = 6
#   (pi/2)x / (a+u)        numerator theta_2 (pi, product): n = 6
#   4a(1-a^2)x / (a+u)     1 - a^2 theta_2 (a^2/(1-a^2) < 1 for a < 2/pi, so
#                          the square's rounding stays within u), times 4a
#                          theta_3, times x theta_4: n = 4 + 3 + 1 = 8
#   max(pi/2, 1+a)x/(a+u)  the larger of two theta_1 values is theta_1 of the
#                          larger: n = 2 + 3 + 1 = 6
#   x / (1 + x*x)          n = 0 + 2 + 1 = 3
#   x                      exact
#   pi^2 x / (c + 2 pi u)  numerator theta_4; 2 pi u theta_4, plus c theta_5:
#                          n = 4 + 5 + 1 = 10 (also the errata's c = 2)
#   (pi+2)x / (2 + pi u)   numerator theta_3; pi u theta_4, plus 2 theta_5:
#                          n = 3 + 5 + 1 = 9
# Since gamma_n/(1 - gamma_n) < (n+1)u for n <= 10, |b - B| <= (n+1) u b.  For
# 2**-500 <= x <= 2**500 every intermediate is a positive normal double (x*x
# lies in [2**-1000, 2**1000] and no denominator is below 1), so the model holds
# and b > 0.  Outside that range callers must not use these bounds.
#
# The other three forms cancel or lose relative accuracy, so their bounds are
# absolute.  libm's log is taken to be within two ulps, |d| <= 4u.
#   x - x^3/3          t = x*(x*x/3), three roundings, is t(1 + theta_3),
#                      then one subtraction:
#                      |b - B| <= gamma_3 t + u|b|/(1-u) <= 4u t_f + 2u|b|.
#                      Where t_f is subnormal (x below ~2**-340), b = x and
#                      B = x - t with t < u x, inside 2u|b|.  Dividing x*x
#                      before the last product keeps t_f finite as long as
#                      t is, up to x ~ 8.14e102 (x*x*x would overflow from
#                      ~5.64e102); past that b = -inf.
#   ln(1+x^2)/(2x)     the two roundings of 1 + x*x move the log by at most
#                      1.01(u x^2/(1+x^2) + u) <= 2.02u absolutely; log, then the
#                      quotient add relative errors: |b - B| <= 1.03u/x + 6u B
#                      <= 4u/x + 8u|b|.  The 1/x term is real: for x below
#                      ~1e-8, 1 + x*x rounds to 1 and b = 0.
#   (1+x) ln(1+x)      1 + x is (1+x)(1 + d), whose log is ln(1+x) + e with
#                      |e| <= 1.01u; that d, the log's and the product's
#                      roundings make a relative factor within 6.01u:
#                      |b - B| <= 7u B + 1.02u(1+x) <= 8u|b| + 2u(1+x).
# The constants carry enough slack to cover the rounding of the error bound's
# own evaluation.

_U = 2.0 ** -53

#: The float error bounds hold for x in [FLOAT_FORM_MIN, FLOAT_FORM_MAX].
FLOAT_FORM_MIN = 2.0 ** -500
FLOAT_FORM_MAX = 2.0 ** 500

# Outward-rounded family ends (enclosure here, approx in kernel.py).  An end
# c * (x / (a + u)), c = 1 + a or pi/2, u = hypot(1, x), carries six roundings
# of relative size u0 = 2**-53: c, hypot twice (one ulp; a >= 0 keeps it
# relative in a + u), the sum, the quotient and the product; a and x enter
# exactly.  Scaling by 1 -+ 16 u0 rounds once more, so by the gamma_n lemma
# the stored end is the exact one times (1 + theta)(1 -+ 16 u0) with
# |theta| <= gamma_7 ~ 7 u0 < 16 u0: below an exact lower bound and above an
# exact upper one, as long as u, the quotient and the product are normal.
_DOWN, _UP = 1.0 - 2.0 ** -49, 1.0 + 2.0 ** -49
#: Below this, arctan x = x - x^3/3 + ... lies strictly between x and the
#: next double toward zero: x^3/3 is far below one subnormal step.
_TINY = 2.0 ** -1000


def _relative(roundings: int) -> Callable[[float, float], float]:
    c = (roundings + 1) * _U
    return lambda x, b: c * b


def _cubic_error(x, b):
    return 4 * _U * (x * (x * x / 3)) + 2 * _U * abs(b)


def _log_lower_error(x, b):
    return 4 * _U / x + 8 * _U * abs(b)


def _log_upper_error(x, b):
    return 8 * _U * abs(b) + 2 * _U * (1 + x)


# The three certified ranges of the family parameter, each a test and its
# text, read by the family rows and the interior-minimum solver in family.py;
# enclosure spells out the first and last inline, on the kernel's hot path.
class ParamRange(NamedTuple):
    ok: Callable[[float], bool]
    text: str


FAMILY_RANGE = ParamRange(lambda a: 0.0 <= a <= 0.5, "0 <= a <= 1/2")
MID_REGIME_RANGE = ParamRange(lambda a: 0.5 < a < TWO_OVER_PI, "1/2 < a < 2/pi")
REVERSED_RANGE = ParamRange(lambda a: a >= TWO_OVER_PI, "a >= 2/pi")


@dataclass(frozen=True)
class _BoundInfo:
    side: str                                   # "lower" | "upper"
    float_error: Callable[[float, float], float]    # (x, fn(x)) -> bound on its error
    consts: Optional[Callable] = None           # (a, pi) -> (c, d, e) of c*x/(d + e*u)
    form: Callable = _shape                     # (sqrt, log, *constants) -> x -> bound
    param: Optional[ParamRange] = None
    trusted: bool = True                        # errata entries are swept for failure


_CATALOG: dict[BoundId, _BoundInfo] = {
    BoundId.SHAFER_LOWER: _BoundInfo(
        "lower", _relative(6), lambda a, pi: (1.5, 0.5, 1)),
    BoundId.HALF_ANGLE_UPPER: _BoundInfo(
        "upper", _relative(6), lambda a, pi: (2, 1, 1)),
    BoundId.RATIO_LOWER: _BoundInfo(
        "lower", _relative(3), form=_ratio_lower),
    BoundId.IDENTITY_UPPER: _BoundInfo(
        "upper", _relative(0), form=_identity_upper),
    BoundId.CUBIC_LOWER: _BoundInfo(
        "lower", _cubic_error, form=_cubic_lower),
    BoundId.LOG_LOWER: _BoundInfo(
        "lower", _log_lower_error, form=_log_lower),
    BoundId.LOG_UPPER: _BoundInfo(
        "upper", _log_upper_error, form=_log_upper),
    BoundId.FAMILY_LOWER: _BoundInfo(
        "lower", _relative(6), lambda a, pi: (1 + a, a, 1), param=FAMILY_RANGE),
    BoundId.FAMILY_UPPER: _BoundInfo(
        "upper", _relative(6), lambda a, pi: (pi / 2, a, 1), param=FAMILY_RANGE),
    BoundId.REVERSED_LOWER: _BoundInfo(
        "lower", _relative(6), lambda a, pi: (pi / 2, a, 1), param=REVERSED_RANGE),
    BoundId.REVERSED_UPPER: _BoundInfo(
        "upper", _relative(6), lambda a, pi: (1 + a, a, 1), param=REVERSED_RANGE),
    BoundId.MID_REGIME_LOWER: _BoundInfo(
        "lower", _relative(8), lambda a, pi: (4 * a * (1 - a * a), a, 1),
        param=MID_REGIME_RANGE),
    # the upper constant is max(pi/2, 1+a); the exact switch sits at a = pi/2 - 1
    BoundId.MID_REGIME_UPPER: _BoundInfo(
        "upper", _relative(6), lambda a, pi: (max(pi / 2, 1 + a), a, 1),
        param=MID_REGIME_RANGE),
    BoundId.TWO_OVER_PI_LOWER: _BoundInfo(
        "lower", _relative(10), lambda a, pi: (pi * pi, 4, 2 * pi)),
    BoundId.TWO_OVER_PI_UPPER: _BoundInfo(
        "upper", _relative(9), lambda a, pi: (pi + 2, 2, pi)),
    # the errata entry is *claimed* as a lower bound; sweeping it on that side
    # tests the claim that was actually made (and finds it false)
    BoundId.TWO_OVER_PI_LOWER_ERRATA: _BoundInfo(
        "lower", _relative(10), lambda a, pi: (pi * pi, 2, 2 * pi), trusted=False),
}


def bound_side(bound: BoundId) -> str:
    return _CATALOG[bound].side


def bound_is_trusted(bound: BoundId) -> bool:
    return _CATALOG[bound].trusted


def bound_takes_param(bound: BoundId) -> bool:
    return _CATALOG[bound].param is not None


def _check_param(bound: BoundId, a: Optional[float]) -> None:
    param = _CATALOG[bound].param
    if param is None:
        if a is not None:
            raise ParamError(f"{bound.value} takes no family parameter")
        return
    if a is None:
        raise ParamError(f"{bound.value} requires a family parameter")
    if not math.isfinite(a):
        raise ParamError("family parameter must be finite")
    if not param.ok(a):
        raise ParamError(
            f"a={a!r} outside the certified range {param.text} for {bound.value}")


def _check_x(x: float) -> None:
    if not math.isfinite(x) or x <= 0:
        raise DomainError(f"bounds are stated for x > 0, got {x!r}")


def eval_bound(bound: BoundId, x: float, a: Optional[float] = None) -> float:
    """Evaluate one catalog bound at x > 0 as a double.

    On [FLOAT_FORM_MIN, FLOAT_FORM_MAX] = [2**-500, 2**500] this is the float
    form, with its proven error bound (float_form).  Outside it, where x*x
    underflows or overflows, it is the fixed-point value (eval_bound_hp) at
    30 + 2|log10 x| digits, which leaves at least 30 digits of log-lower's
    ln(1 + x^2) and of every bound's value, rounded to the nearest double:
    -inf or inf where that overflows (cubic-lower above ~1e103).
    """
    fn, _ = float_form(bound, a)
    _check_x(x)
    x = float(x)
    if FLOAT_FORM_MIN <= x <= FLOAT_FORM_MAX:
        return fn(x)
    value = eval_bound_hp(bound, x, a, digits=30 + 2 * math.ceil(abs(math.log10(x))))
    try:
        return float(value)
    except OverflowError:
        return -math.inf if value.units < 0 else math.inf


def float_form(bound: BoundId, a: Optional[float]
               ) -> tuple[Callable[[float], float], Callable[[float, float], float]]:
    """The float evaluator ``fn(x)`` of one bound at parameter `a`, and its
    error bound.

    Checks `a` as eval_bound does.  For FLOAT_FORM_MIN <= x <= FLOAT_FORM_MAX,
    ``error(x, fn(x))`` bounds |fn(x) - B|, where B is the bound at the exact
    doubles a and x; it is infinite or NaN when fn(x) is.  Outside that range
    the error bound means nothing.
    """
    _check_param(bound, a)
    info = _CATALOG[bound]
    return _float_fn(info.form, info.consts, a), info.float_error


def eval_bound_hp(bound: BoundId, x: float, a: Optional[float] = None,
                  digits: int = 50) -> fp.FixedReal:
    """Evaluate one catalog bound in fixed point.

    x and a enter as their exact binary values rounded to the nearest unit
    of 10**-digits: at 50 digits, a = 0.1 is the 50-digit rounding of that
    double, whose exact expansion has 55 digits.  The entry's closed form
    then runs on FixedReal, which floors each product, quotient and root to a
    unit.  Used by the sweep engine, where float evaluation cannot resolve
    the thinnest margins.  Raises PrecisionError where x rounds to zero units.
    """
    _check_param(bound, a)
    _check_x(x)
    fp.check_digits(digits)
    x_units = fp.float_units(float(x), digits)
    if x_units == 0:
        raise PrecisionError(f"x={x!r} rounds to zero at {digits} digits")
    info = _CATALOG[bound]
    fn = _fixed_fn(info.form, info.consts, a, digits)
    return fn(fp.FixedReal._raw(x_units, digits))


@lru_cache(maxsize=1)
def _regime_pi() -> tuple[Fraction, Fraction]:
    """pi_units(30) -+ 1 unit, an interval that holds pi, built on first use."""
    units, scale = fp.pi_units(30), fp.pow10(30)
    return Fraction(units - 1, scale), Fraction(units + 1, scale)


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

    a enters as the exact Fraction of the double, and pi as pi_units(30) -+ 1
    unit, which separates every double from 2/pi (math.pi -+ 1 ulp cannot:
    the nearest lies 3.9e-17 above it).  DomainError for nan or inf.
    """
    if not math.isfinite(a):
        raise DomainError("parameter must be finite")
    q = Fraction(a)
    if -1 < q < 0:
        return RegimeProof(Regime.UNCLASSIFIED)
    h_at_one, slope = (2 * q - 1) * (q + 1), 2 * q * q - 1
    if q < 0 or h_at_one <= 0:
        return RegimeProof(Regime.INCREASING, h_at_one, slope)
    if slope > 0:
        return RegimeProof(Regime.DECREASING, h_at_one, slope)
    pi_lo, pi_hi = _regime_pi()     # g(inf) has the sign of 2 - a*pi
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
    or negative, have no certified two-sided bracket and raise.
    """
    _check_x(x)
    if not math.isfinite(a):
        raise ParamError("family parameter must be finite")
    # FAMILY_RANGE and REVERSED_RANGE, inline: this is the kernel's hot path
    if 0.0 <= a <= 0.5:
        c_lo, c_hi = 1.0 + a, _HALF_PI
    elif a >= TWO_OVER_PI:
        c_lo, c_hi = _HALF_PI, 1.0 + a
    else:
        raise ParamError(
            f"no two-sided enclosure for a={a!r}; need 0 <= a <= 1/2 or a >= 2/pi")
    x = float(x)
    if x < _TINY:
        return Enclosure(math.nextafter(x, 0.0), x)
    q = x / (a + math.hypot(1.0, x))
    if q < 2.0 ** -1022:
        return Enclosure(0.0, x)
    return Enclosure(c_lo * q * _DOWN, c_hi * q * _UP)


def best_enclosure(x: float, params: Iterable[float]) -> Enclosure:
    """Pointwise-best enclosure over several parameters: max of the lowers,
    min of the uppers.  Containment is preserved since every constituent
    brackets arctan x."""
    parts = [enclosure(a, x) for a in params]
    if not parts:
        raise ParamError("best_enclosure needs at least one parameter")
    return Enclosure(max(p.lower for p in parts), min(p.upper for p in parts))
