"""Catalog of closed-form arctan bounds, enclosure construction, and the
monotonicity-regime classifier.

All bounds share the shape ``c(a) * x / (a + sqrt(1 + x^2))`` or are classical
one-off inequalities.  Every entry carries a validity predicate; evaluating a
family bound outside its certified parameter range is a hard ParamError, never
a silent number.

Each entry has two forms of its formula.  The float form is the closed form
in double arithmetic; it carries a proven bound on its rounding error, which
lets a sweep settle most grid points in double precision (see
:func:`float_form`).  The units form is a straight line of integer operations
on units of ``10**-digits``, each product, quotient and root floored, and
serves :func:`eval_bound_hp`, the exact stage of the sweeps and dominance
reports (see :mod:`arctanbounds.fixedpoint`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterable, Optional

from . import fixedpoint as fp
from .errors import DomainError, ParamError, PrecisionError

TWO_OVER_PI = 2.0 / math.pi
_PI = math.pi
_HALF_PI = 0.5 * math.pi


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
        return 0.5 * (self.upper - self.lower)

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


# The units forms take the units of x and a (a is None for a fixed bound), the
# scale s = 10**digits and digits.  They floor exactly where FixedReal
# arithmetic on the closed form would, in the same order, so they return the
# same units: sums are exact, a product is p*q // s, a quotient p*s // q, a
# root isqrt(v*s), and an integer constant c enters as c*s, so halving pi is
# P // 2 and dividing by 3 is T // 3 (floor(T*s / (3*s)) = floor(T/3)).  The
# tests keep that FixedReal evaluation as their reference.  Every denominator
# is at least s, or is 2x > 0.

def _u_units(x, s):
    return math.isqrt((s + x * x // s) * s)


def _one_plus_a_member(a, x):
    # (1+a)x/(a+u): family lower bound for a <= 1/2, reversed upper for a >= 2/pi
    return (1 + a) * x / (a + math.sqrt(1 + x * x))


def _one_plus_a_units(x, a, s, digits):
    return (a + s) * x // s * s // (a + _u_units(x, s))


def _half_pi_member(a, x):
    # (pi/2)x/(a+u): family upper bound for a <= 1/2, reversed lower for a >= 2/pi
    return _HALF_PI * x / (a + math.sqrt(1 + x * x))


def _half_pi_units(x, a, s, digits):
    return fp.pi_units(digits) // 2 * x // s * s // (a + _u_units(x, s))


def _mid_lower(a, x):
    return 4 * a * (1 - a * a) * x / (a + math.sqrt(1 + x * x))


def _mid_lower_units(x, a, s, digits):
    return 4 * a * (s - a * a // s) // s * x // s * s // (a + _u_units(x, s))


def _mid_upper(a, x):
    # upper constant max(pi/2, 1+a); the exact switch sits at a = pi/2 - 1
    one_plus_a = 1 + a
    c = one_plus_a if one_plus_a > _HALF_PI else _HALF_PI
    return c * x / (a + math.sqrt(1 + x * x))


def _mid_upper_units(x, a, s, digits):
    one_plus_a, half_pi = a + s, fp.pi_units(digits) // 2
    c = one_plus_a if one_plus_a > half_pi else half_pi
    return c * x // s * s // (a + _u_units(x, s))


def _shafer_lower(a, x):
    # the classical 3x/(1+2u) bound is exactly the a = 1/2 family member
    return 1.5 * x / (0.5 + math.sqrt(1 + x * x))


def _shafer_lower_units(x, a, s, digits):
    return _one_plus_a_units(x, s // 2, s, digits)


def _half_angle_upper(a, x):
    # 2x/(1+u) is exactly the a = 1 reversed-family upper bound
    return 2.0 * x / (1.0 + math.sqrt(1 + x * x))


def _half_angle_upper_units(x, a, s, digits):
    return _one_plus_a_units(x, s, s, digits)


def _ratio_lower(a, x):
    return x / (1 + x * x)


def _ratio_lower_units(x, a, s, digits):
    return x * s // (s + x * x // s)


def _identity_upper(a, x):
    return x


def _identity_upper_units(x, a, s, digits):
    return x


def _cubic_lower(a, x):
    return x - x * x * x / 3


def _cubic_lower_units(x, a, s, digits):
    return x - x * x // s * x // s // 3


def _log_lower(a, x):
    return math.log(1 + x * x) / (2 * x)


def _log_lower_units(x, a, s, digits):
    return fp.log_units(s + x * x // s, digits) * s // (2 * x)


def _log_upper(a, x):
    return (1 + x) * math.log(1 + x)


def _log_upper_units(x, a, s, digits):
    return (s + x) * fp.log_units(s + x, digits) // s


def _two_over_pi_lower(a, x):
    return _PI * _PI * x / (4 + 2 * _PI * math.sqrt(1 + x * x))


def _two_over_pi_lower_units(x, a, s, digits):
    p = fp.pi_units(digits)
    return p * p // s * x // s * s // (4 * s + 2 * p * _u_units(x, s) // s)


def _two_over_pi_upper(a, x):
    return (_PI + 2) * x / (2 + _PI * math.sqrt(1 + x * x))


def _two_over_pi_upper_units(x, a, s, digits):
    p = fp.pi_units(digits)
    return (p + 2 * s) * x // s * s // (2 * s + p * _u_units(x, s) // s)


def _two_over_pi_lower_errata(a, x):
    return _PI * _PI * x / (2 + 2 * _PI * math.sqrt(1 + x * x))


def _two_over_pi_lower_errata_units(x, a, s, digits):
    p = fp.pi_units(digits)
    return p * p // s * x // s * s // (2 * s + 2 * p * _u_units(x, s) // s)


# Float error bounds.  With unit roundoff u = 2**-53, each correctly rounded
# operation on normal doubles returns (exact)(1 + d), |d| <= u, and a product
# or quotient of n such factors is 1 + theta_n, |theta_n| <= gamma_n = nu/(1-nu)
# (Higham, Accuracy and Stability of Numerical Algorithms, Lemmas 3.1 and 3.3).
# A sum of two positive terms with relative errors theta_j and theta_k has
# relative error theta_max(j,k) before its own rounding.  Parameters and x
# enter exactly; math.pi is pi(1 + theta_1) and halving it is exact.
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
#   x - x^3/3          t = x*x*x/3 is t(1 + theta_3), then one subtraction:
#                      |b - B| <= gamma_3 t + u|b|/(1-u) <= 4u t_f + 2u|b|.
#                      Where t_f is subnormal (x below ~2**-340), b = x and
#                      B = x - t with t < u x, inside 2u|b|; where it
#                      overflows, b = -inf.
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
    return 4 * _U * (x * x * x / 3) + 2 * _U * abs(b)


def _log_lower_error(x, b):
    return 4 * _U / x + 8 * _U * abs(b)


def _log_upper_error(x, b):
    return 8 * _U * abs(b) + 2 * _U * (1 + x)


@dataclass(frozen=True)
class _BoundInfo:
    side: str                                   # "lower" | "upper"
    fn: Callable[[Optional[float], float], float]
    units: Callable[[int, Optional[int], int, int], int]    # (x, a, s, digits)
    float_error: Callable[[float, float], float]    # (x, fn(a, x)) -> bound on its error
    takes_param: bool = False
    param_ok: Optional[Callable[[float], bool]] = None
    param_range: str = ""
    trusted: bool = True                        # errata entries are swept for failure


_CATALOG: dict[BoundId, _BoundInfo] = {
    BoundId.SHAFER_LOWER: _BoundInfo(
        "lower", _shafer_lower, _shafer_lower_units, _relative(6)),
    BoundId.HALF_ANGLE_UPPER: _BoundInfo(
        "upper", _half_angle_upper, _half_angle_upper_units, _relative(6)),
    BoundId.RATIO_LOWER: _BoundInfo(
        "lower", _ratio_lower, _ratio_lower_units, _relative(3)),
    BoundId.IDENTITY_UPPER: _BoundInfo(
        "upper", _identity_upper, _identity_upper_units, _relative(0)),
    BoundId.CUBIC_LOWER: _BoundInfo(
        "lower", _cubic_lower, _cubic_lower_units, _cubic_error),
    BoundId.LOG_LOWER: _BoundInfo(
        "lower", _log_lower, _log_lower_units, _log_lower_error),
    BoundId.LOG_UPPER: _BoundInfo(
        "upper", _log_upper, _log_upper_units, _log_upper_error),
    BoundId.FAMILY_LOWER: _BoundInfo(
        "lower", _one_plus_a_member, _one_plus_a_units, _relative(6), True,
        lambda a: 0.0 <= a <= 0.5, "0 <= a <= 1/2"),
    BoundId.FAMILY_UPPER: _BoundInfo(
        "upper", _half_pi_member, _half_pi_units, _relative(6), True,
        lambda a: 0.0 <= a <= 0.5, "0 <= a <= 1/2"),
    BoundId.REVERSED_LOWER: _BoundInfo(
        "lower", _half_pi_member, _half_pi_units, _relative(6), True,
        lambda a: a >= TWO_OVER_PI, "a >= 2/pi"),
    BoundId.REVERSED_UPPER: _BoundInfo(
        "upper", _one_plus_a_member, _one_plus_a_units, _relative(6), True,
        lambda a: a >= TWO_OVER_PI, "a >= 2/pi"),
    BoundId.MID_REGIME_LOWER: _BoundInfo(
        "lower", _mid_lower, _mid_lower_units, _relative(8), True,
        lambda a: 0.5 < a < TWO_OVER_PI, "1/2 < a < 2/pi"),
    BoundId.MID_REGIME_UPPER: _BoundInfo(
        "upper", _mid_upper, _mid_upper_units, _relative(6), True,
        lambda a: 0.5 < a < TWO_OVER_PI, "1/2 < a < 2/pi"),
    BoundId.TWO_OVER_PI_LOWER: _BoundInfo(
        "lower", _two_over_pi_lower, _two_over_pi_lower_units, _relative(10)),
    BoundId.TWO_OVER_PI_UPPER: _BoundInfo(
        "upper", _two_over_pi_upper, _two_over_pi_upper_units, _relative(9)),
    # the errata entry is *claimed* as a lower bound; sweeping it on that side
    # tests the claim that was actually made (and finds it false)
    BoundId.TWO_OVER_PI_LOWER_ERRATA: _BoundInfo(
        "lower", _two_over_pi_lower_errata, _two_over_pi_lower_errata_units,
        _relative(10), trusted=False),
}


def bound_side(bound: BoundId) -> str:
    return _CATALOG[bound].side


def bound_is_trusted(bound: BoundId) -> bool:
    return _CATALOG[bound].trusted


def bound_takes_param(bound: BoundId) -> bool:
    return _CATALOG[bound].takes_param


def _check_param(bound: BoundId, a: Optional[float]) -> None:
    info = _CATALOG[bound]
    if not info.takes_param:
        if a is not None:
            raise ParamError(f"{bound.value} takes no family parameter")
        return
    if a is None:
        raise ParamError(f"{bound.value} requires a family parameter")
    if not math.isfinite(a):
        raise ParamError("family parameter must be finite")
    if not info.param_ok(a):
        raise ParamError(
            f"a={a!r} outside the certified range {info.param_range} for {bound.value}")


def _check_x(x: float) -> None:
    if not math.isfinite(x) or x <= 0:
        raise DomainError(f"bounds are stated for x > 0, got {x!r}")


def eval_bound(bound: BoundId, x: float, a: Optional[float] = None) -> float:
    """Evaluate one catalog bound at x > 0 (float arithmetic)."""
    _check_param(bound, a)
    _check_x(x)
    return _CATALOG[bound].fn(a, float(x))


def float_form(bound: BoundId, a: Optional[float]
               ) -> tuple[Callable[[Optional[float], float], float],
                          Callable[[float, float], float]]:
    """The float evaluator ``fn(a, x)`` of one bound and its error bound.

    Checks `a` as eval_bound does.  For FLOAT_FORM_MIN <= x <= FLOAT_FORM_MAX,
    ``error(x, fn(a, x))`` bounds |fn(a, x) - B|, where B is the bound at the
    exact doubles a and x; it is infinite or NaN when fn(a, x) is.  Outside
    that range the error bound means nothing.
    """
    _check_param(bound, a)
    info = _CATALOG[bound]
    return info.fn, info.float_error


@lru_cache(maxsize=256)
def _param_units(a: float, digits: int) -> int:
    return fp.float_units(float(a), digits)


def eval_bound_hp(bound: BoundId, x: float, a: Optional[float] = None,
                  digits: int = 50) -> fp.FixedReal:
    """Evaluate one catalog bound in fixed point.

    x and a enter through their exact float values, rounded to the nearest
    unit, so the result is the bound for the precise arguments a caller's
    doubles denote.  The entry's units form then floors each product,
    quotient and root to a unit of 10**-digits.  Used by the sweep engine,
    where float evaluation cannot resolve the thinnest margins.  Raises
    PrecisionError where x rounds to zero units.
    """
    _check_param(bound, a)
    _check_x(x)
    fp.check_digits(digits)
    x_units = fp.float_units(float(x), digits)
    if x_units == 0:
        raise PrecisionError(f"x={x!r} rounds to zero at {digits} digits")
    a_units = None if a is None else _param_units(a, digits)
    units = _CATALOG[bound].units(x_units, a_units, fp.pow10(digits), digits)
    return fp.FixedReal._raw(units, digits)


def classify_regime(a: float) -> Regime:
    """Monotonicity regime of the family ratio for parameter a.

    Increasing for a <= -1 or 0 <= a <= 1/2; decreasing for a >= 2/pi; a
    unique interior minimum for 1/2 < a < 2/pi; no claim on -1 < a < 0.
    """
    if not math.isfinite(a):
        raise DomainError("parameter must be finite")
    if a <= -1 or 0 <= a <= 0.5:
        return Regime.INCREASING
    if a >= TWO_OVER_PI:
        return Regime.DECREASING
    if 0.5 < a < TWO_OVER_PI:
        return Regime.INTERIOR_MINIMUM
    return Regime.UNCLASSIFIED


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
