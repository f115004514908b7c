"""Integer-scaled fixed-point arithmetic with error-bounded elementary functions.

A value is an integer count of units of ``10**-digits``.  All primitives
(multiply, divide, square root) round toward minus infinity and are off by
less than one unit.  The transcendental routines (arctan, log, pi) carry ten
guard digits internally, so their results are accurate to well under one unit
of the requested precision; arctan in particular satisfies an absolute error
below ``10**-digits`` by several orders of magnitude.  arctan reduces its
argument to [0, 1] by the reciprocal identity, then to within 1/128 of a knot
j/64 of a table of arctan(j/64), built when first needed at a working
precision and kept for the 16 most recent; pi is 4*arctan(1), the table's
last entry.  Beside ``float_units``, a double's exact entry into fixed point,
sits the bisection of a sign change between two positive doubles on their
bit patterns, shared by dominance crossovers and the family's minimum.

Python integers already provide exact floor division and an exact integer
square root (``math.isqrt``), so no iterative refinement layer is needed.
"""

from __future__ import annotations

import math
import operator
import struct
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, ParamError, PrecisionError

_GUARD_DIGITS = 10


@lru_cache(maxsize=None)
def pow10(digits: int) -> int:
    """The scale 10**digits, cached."""
    return 10 ** digits


def check_digits(digits: int) -> None:
    """Raise ParamError unless digits >= 1."""
    if digits < 1:
        raise ParamError(f"digits must be >= 1, got {digits!r}")


def _round_div(n: int, d: int) -> int:
    # round to nearest, ties away from zero; d > 0
    if n >= 0:
        return (2 * n + d) // (2 * d)
    return -((-2 * n + d) // (2 * d))


def _rescale(units: int, from_digits: int, to_digits: int) -> int:
    if to_digits >= from_digits:
        return units * 10 ** (to_digits - from_digits)
    return _round_div(units, 10 ** (from_digits - to_digits))


def float_units(value: float, digits: int) -> int:
    """The exact binary value of a finite float, as Fraction(value) would give
    it, in units of 10**-digits rounded to nearest."""
    num, den = value.as_integer_ratio()
    return _round_div(num * pow10(digits), den)


_DOUBLE = struct.Struct("<d")
_BITS = struct.Struct("<q")


def _bits(x: float) -> int:
    return _BITS.unpack(_DOUBLE.pack(x))[0]


def _from_bits(bits: int) -> float:
    return _DOUBLE.unpack(_BITS.pack(bits))[0]


def _bisect_crossover(sign_at, lo: float, hi: float, s_lo: int) -> float:
    """A point within relative width 1e-13 of where sign_at leaves s_lo, for
    0 < lo < hi.  Bisects the IEEE bit patterns, whose order is the numeric
    order of positive doubles, so every step halves the doubles in between
    and at most 64 steps reach adjacent doubles, at any magnitude."""
    lo_bits, hi_bits = _bits(lo), _bits(hi)
    while hi_bits - lo_bits > 1 and hi - lo > 1e-13 * hi:
        mid_bits = (lo_bits + hi_bits) // 2
        mid = _from_bits(mid_bits)
        s_mid = sign_at(mid)
        if s_mid == 0:
            return mid
        if s_mid == s_lo:
            lo, lo_bits = mid, mid_bits
        else:
            hi, hi_bits = mid, mid_bits
    return _from_bits((lo_bits + hi_bits) // 2)


def sqrt_units(units: int, digits: int) -> int:
    """Floor square root in fixed point: isqrt(units * 10**digits)."""
    if units < 0:
        raise DomainError("square root of a negative value")
    return math.isqrt(units * 10 ** digits)


def _odd_series(t: int, sq_num: int, sq_den: int, sign: int, digits: int) -> int:
    """t + sign*t^3/3 + t^5/5 + sign*t^7/7 + ...: arctan (sign -1) or atanh
    (sign +1) of t >= 0 units, whose square in value is sq_num/sq_den, with
    first-omitted-term cutoff.  A rational argument with a small numerator
    and denominator passes them squared, so each term takes a product and a
    quotient by small integers.  Each term is floored as a positive number
    and then signed."""
    total = term = t
    k = 3
    s = sign
    # reduced arguments are at most 1/64 (arctan) or ~1/500 (atanh), so the
    # true term count is ~digits/3.6; the budget only guards bugs
    budget = 8 * digits + 64
    while True:
        term = term * sq_num // sq_den
        contrib = term // k
        if contrib == 0:
            break
        total += s * contrib
        s *= sign
        k += 2
        if k > budget:
            raise PrecisionError("odd power series budget exhausted")
    return total


#: atan_units reduces its argument to the nearest knot j/_KNOTS of [0, 1].
_KNOTS = 64


@lru_cache(maxsize=16)
def _atan_table(work: int) -> tuple[int, ...]:
    """arctan(j/64) for j = 0..64, in units of 10**-work.

    Telescoped from arctan(j/64) = arctan((j-1)/64) + arctan(64/(4096 +
    j(j-1))), so each entry adds one series at an argument of at most 1/64.
    Error budget: such a series has under 0.28*work terms, each off by under
    1.4 units (the floors of the term and of its quotient by k), plus a unit
    for the floored argument and one for the cutoff, so under 0.4*work + 3
    units; the 64 telescoped sums stay within 26*work + 192 units of
    10**-work.  With the ten guard digits that is below 10**-6 of a unit of
    the requested precision up to 330 digits.
    """
    scale = pow10(work)
    table = [0]
    for j in range(1, _KNOTS + 1):
        den = _KNOTS * _KNOTS + j * (j - 1)
        step = _odd_series(_KNOTS * scale // den, _KNOTS * _KNOTS, den * den, -1, work)
        table.append(table[-1] + step)
    return tuple(table)


def atan_units(x_units: int, digits: int) -> int:
    """arctan of x_units/10**digits, in the same units.

    Reduction: odd symmetry (computed on |x| and negated, so the symmetry is
    exact); arctan x = pi/2 - arctan(1/x) for |x| > 1; then the nearest knot
    j/64 of a table of arctan(j/64) (see _atan_table), arctan t =
    arctan(j/64) + arctan(t'), t' = (64t - j)/(64 + jt), so |t'| <= 1/128 and
    the series needs about work/4 terms.  The work precision carries ten
    guard digits; the table's error and the series' few units stay far below
    one unit of the result, which is then rounded to nearest.
    """
    if x_units == 0:
        return 0
    work = digits + _GUARD_DIGITS
    scale = pow10(work)
    t = abs(x_units) * pow10(_GUARD_DIGITS)

    recip = t > scale
    if recip:
        t = scale * scale // t

    j = (2 * _KNOTS * t + scale) // (2 * scale)     # nearest knot, 0 <= j <= 64
    # t' in units; at j = 0 it is t itself and no table is needed, so tiny
    # arguments at many precisions build no tables
    r = (_KNOTS * t - j * scale) * scale // (_KNOTS * scale + j * t) if j else t
    r_sq = r * r // scale
    total = (_odd_series(r, r_sq, scale, -1, work) if r >= 0
             else -_odd_series(-r, r_sq, scale, -1, work))
    if j:
        total += _atan_table(work)[j]
    if recip:
        total = 2 * _atan_table(work)[_KNOTS] - total   # pi/2 = 2*arctan(1)

    result = _rescale(total, work, digits)
    return result if x_units > 0 else -result


@lru_cache(maxsize=None)
def pi_units(digits: int) -> int:
    """pi in units of 10**-digits, as 4*arctan(1) from the arctan table at ten
    guard digits."""
    work = digits + _GUARD_DIGITS
    return _rescale(4 * _atan_table(work)[_KNOTS], work, digits)


@lru_cache(maxsize=None)
def pi_bracket(digits: int) -> tuple[Fraction, Fraction]:
    """pi_units(digits) -+ 1 unit as Fractions, an interval that holds pi:
    pi_units is off by well under one unit (see _atan_table)."""
    units, scale = pi_units(digits), pow10(digits)
    return Fraction(units - 1, scale), Fraction(units + 1, scale)


def log_units(y_units: int, digits: int) -> int:
    """Natural log of y_units/10**digits, in the same units.

    Reduction: repeated square roots pull the argument into (1 - 1/256,
    1 + 1/256), then ln y = 2*atanh((y-1)/(y+1)) by the odd atanh series.
    Each square root doubles the final error, bounded by the guard digits.
    """
    if y_units <= 0:
        raise DomainError("log of a non-positive value")
    work = digits + _GUARD_DIGITS
    scale = 10 ** work
    t = y_units * 10 ** _GUARD_DIGITS

    doublings = 0
    window = scale // 256
    while abs(t - scale) > window:
        t = math.isqrt(t * scale)
        doublings += 1
        if doublings > 120:
            raise PrecisionError("log reduction failed to converge")

    z = (t - scale) * scale // (t + scale)
    total = _odd_series(abs(z), z * z // scale, scale, 1, work)
    total = (-total if z < 0 else total) << (doublings + 1)
    return _rescale(total, work, digits)


def _comparison(op):
    def compare(self, other):
        pair = self._cmp_pair(other)
        return NotImplemented if pair is None else op(*pair)
    return compare


class FixedReal:
    """An immutable fixed-point real: ``units * 10**-digits``.

    Mixed arithmetic with ints is exact; floats and Fractions are converted
    through their exact rational value (a float contributes the real number
    it actually stores, not its decimal spelling).  Two FixedReal operands
    must carry the same precision; mixing precisions raises ValueError rather
    than silently degrading.  Comparisons with ints, floats, Fractions and
    FixedReals of any precision are exact, and the hash is that of the
    rational units/10**digits, so FixedReal(0.5, 30) == 0.5 and both hash
    alike, while FixedReal(0.1, 30) != 0.1.
    """

    __slots__ = ("units", "digits")

    def __init__(self, value: "int | float | str | Fraction | FixedReal" = 0, digits: int = 30):
        check_digits(digits)
        if isinstance(value, FixedReal):
            units = _rescale(value.units, value.digits, digits)
        elif isinstance(value, int):
            units = value * 10 ** digits
        elif isinstance(value, float):
            if not math.isfinite(value):
                raise DomainError("cannot represent a non-finite float")
            units = float_units(value, digits)
        elif isinstance(value, (Fraction, str)):
            frac = Fraction(value)
            units = _round_div(frac.numerator * 10 ** digits, frac.denominator)
        else:
            raise TypeError(f"cannot build FixedReal from {type(value).__name__}")
        self.units = units
        self.digits = digits

    @classmethod
    def _raw(cls, units: int, digits: int) -> "FixedReal":
        obj = object.__new__(cls)
        obj.units = units
        obj.digits = digits
        return obj

    @classmethod
    def pi(cls, digits: int) -> "FixedReal":
        return cls._raw(pi_units(digits), digits)

    @property
    def scale(self) -> int:
        return pow10(self.digits)

    def _coerce(self, other):
        if type(other) is int:
            return FixedReal._raw(other * pow10(self.digits), self.digits)
        if isinstance(other, FixedReal):
            if other.digits != self.digits:
                raise ValueError(
                    f"precision mismatch: {self.digits} vs {other.digits} digits"
                )
            return other
        if isinstance(other, (int, float, Fraction)):
            return FixedReal(other, self.digits)
        return None

    # arithmetic -----------------------------------------------------------

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return FixedReal._raw(self.units + rhs.units, self.digits)

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return FixedReal._raw(self.units - rhs.units, self.digits)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return FixedReal._raw(rhs.units - self.units, self.digits)

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return FixedReal._raw(self.units * rhs.units // self.scale, self.digits)

    __rmul__ = __mul__

    def __truediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if rhs.units == 0:
            raise ZeroDivisionError("fixed-point division by zero")
        return FixedReal._raw(self.units * self.scale // rhs.units, self.digits)

    def __rtruediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if self.units == 0:
            raise ZeroDivisionError("fixed-point division by zero")
        return FixedReal._raw(rhs.units * self.scale // self.units, self.digits)

    def __neg__(self):
        return FixedReal._raw(-self.units, self.digits)

    def __abs__(self):
        return FixedReal._raw(abs(self.units), self.digits)

    # comparisons ----------------------------------------------------------

    def _cmp_pair(self, other):
        """Two numbers ordered as self and other, by cross-multiplying their
        exact rationals, or None for an unsupported type."""
        if isinstance(other, FixedReal):
            return self.units * other.scale, other.units * self.scale
        if isinstance(other, int):
            return self.units, other * self.scale
        if isinstance(other, float):
            if not math.isfinite(other):
                return 0.0, other     # self is finite: it orders as 0 does
            num, den = other.as_integer_ratio()
            return self.units * den, num * self.scale
        if isinstance(other, Fraction):
            return self.units * other.denominator, other.numerator * self.scale
        return None

    __eq__ = _comparison(operator.eq)
    __lt__ = _comparison(operator.lt)
    __le__ = _comparison(operator.le)
    __gt__ = _comparison(operator.gt)
    __ge__ = _comparison(operator.ge)

    def __hash__(self):
        return hash(Fraction(self.units, self.scale))

    # elementary functions -------------------------------------------------

    def sqrt(self) -> "FixedReal":
        return FixedReal._raw(sqrt_units(self.units, self.digits), self.digits)

    def atan(self) -> "FixedReal":
        return FixedReal._raw(atan_units(self.units, self.digits), self.digits)

    def log(self) -> "FixedReal":
        return FixedReal._raw(log_units(self.units, self.digits), self.digits)

    # conversions ----------------------------------------------------------

    def __float__(self) -> float:
        # big-int true division is correctly rounded in CPython
        return self.units / self.scale

    def as_fraction(self) -> Fraction:
        return Fraction(self.units, self.scale)

    def as_decimal_string(self) -> str:
        sign = "-" if self.units < 0 else ""
        whole, frac = divmod(abs(self.units), self.scale)
        return f"{sign}{whole}.{frac:0{self.digits}d}"

    def __repr__(self) -> str:
        return f"FixedReal('{self.as_decimal_string()}', digits={self.digits})"


# generic dispatch: the family analysis in family.py is written once with
# ordinary operators and evaluated either on floats or on FixedReal (the
# catalog's closed forms are handed the sqrt and log of their number type)

def sqrt_of(v):
    return v.sqrt() if isinstance(v, FixedReal) else math.sqrt(v)


def atan_of(v):
    return v.atan() if isinstance(v, FixedReal) else math.atan(v)
