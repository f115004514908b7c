"""Integer-scaled fixed-point balls with error-bounded elementary functions.

A value is an integer count of units of ``10**-digits`` and a radius of
``err`` units that bounds its distance from the exact value of the
expression it came from (midpoint-radius "ball" arithmetic, as in
Johansson's Arb).  Multiply, divide and square root round toward minus
infinity, the transcendental routines (arctan, log, pi) to nearest after
ten guard digits; each adds to the radius the unit that rounding costs and
what its operands' radii carry through its slope.  arctan reduces its
argument to [0, 1] by the reciprocal identity, then to within 1/128 of a knot
j/64 of a table of arctan(j/64), built when first needed at a working
precision and kept for the 16 most recent; pi is 4*arctan(1), the table's
last entry.  Beside them sit the bisection of a sign change between two
positive doubles on their bit patterns (dominance crossovers), the runs of
a grid of doubles x on which a quadratic in v = sqrt(1 + x^2) - 1 with
interval coefficients keeps one sign (a sweep's monotone pieces),
:func:`refine`, which doubles the digits of every sign the package
certifies until no radius hides it, and :func:`settle`, the one rule from
a ball to a double.

Python integers already provide exact floor division and an exact integer
square root (``math.isqrt``), so division and roots need no Newton iteration.
"""

from __future__ import annotations

import math
import operator
import struct
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, ParamError, PrecisionError

_GUARD_DIGITS = 10

#: The most digits refine evaluates at, and the most a report may start
#: from.  The thinnest margin at a double, x**5/180 at x = 2**-1074, is about
#: 1.6e-1619, which a few units of 10**-1620 resolve; every doubling from 20
#: digits or more passes 2048 before it passes this cap.
MAX_DIGITS = 4096


@lru_cache(maxsize=None)
def pow10(digits: int) -> int:
    """The scale 10**digits, cached."""
    return 10 ** digits


def check_digits(digits: int) -> None:
    """Raise ParamError unless digits is an int >= 1."""
    if not isinstance(digits, int) or digits < 1:
        raise ParamError(f"digits must be a whole number >= 1, got {digits!r}")


def refine(evaluate, digits: int, decided, what):
    """The first evaluate(d), for d = digits, twice them and so on, that
    decided accepts; a PrecisionError from evaluate counts as undecided.
    PrecisionError, naming what() (called only then) and the last d, where
    the next would pass MAX_DIGITS."""
    while True:
        try:
            value = evaluate(digits)
        except PrecisionError:
            pass
        else:
            if decided(value):
                return value
        if 2 * digits > MAX_DIGITS:
            raise PrecisionError(f"{what()} is unresolved at {digits} digits")
        digits *= 2


def separated(balls: "tuple[FixedReal, FixedReal]") -> bool:
    """Whether the centres of a pair of balls at one precision lie further
    apart than the two radii, so that their order is the exact one."""
    p, q = balls
    return abs(p.units - q.units) > p.err + q.err


def _double(units: int, scale: int) -> float:
    """units/scale rounded to the nearest double, -inf or inf past DBL_MAX."""
    try:
        return units / scale
    except OverflowError:
        return -math.inf if units < 0 else math.inf


def double_of(ball: "FixedReal") -> "float | None":
    """The double every value in the ball, the exact one among them, rounds
    to (_double), or None where its ends round to two (or to two zeros)."""
    low, high = (_double(ball.units + s * ball.err, ball.scale) for s in (-1, 1))
    return low if _bits(low) == _bits(high) else None


def settle(evaluate, x, what) -> tuple[list, int]:
    """The doubles of the balls evaluate(d) returns, and d: the first of
    30 + 2 ceil|log10 x| digits (x > 0, the argument), twice them and so on
    (refine), at which every ball has one (double_of), which its exact value
    then rounds to.  PrecisionError, naming what(), past MAX_DIGITS."""
    return refine(lambda d: ([double_of(ball) for ball in evaluate(d)], d),
                  30 + 2 * math.ceil(abs(math.log10(x))),
                  lambda settled: None not in settled[0], what)


def _round_div(n: int, d: int) -> int:
    # round to nearest, ties away from zero; d > 0
    if n >= 0:
        return (2 * n + d) // (2 * d)
    return -((-2 * n + d) // (2 * d))


def _nearest(n: int, d: int) -> tuple[int, int]:
    """n/d rounded to nearest (d > 0), and its radius: 0 if exact, else 1."""
    q = _round_div(n, d)
    return q, int(q * d != n)


def _rescale(units: int, from_digits: int, to_digits: int) -> int:
    return _round_div(units, 10 ** (from_digits - to_digits))     # to_digits < from_digits


_DOUBLE = struct.Struct("<d")
_BITS = struct.Struct("<q")


def _bits(x: float) -> int:
    return _BITS.unpack(_DOUBLE.pack(x))[0]


def _from_bits(bits: int) -> float:
    return _DOUBLE.unpack(_BITS.pack(bits))[0]


_DBL_MAX = math.nextafter(math.inf, 0.0)


def x_of(num: int, den: int, up: bool) -> float:
    """The largest double at most (or, with up, the smallest at least)
    x = sqrt(t (t + 2)), the x >= 0 whose sqrt(1 + x^2) is 1 + t, for
    t = num/den >= 0, den > 0; DBL_MAX or inf past the doubles.  From
    math.isqrt on integers, so exact at every magnitude, subnormal results
    included."""
    n, d = num * (num + 2 * den), den * den     # x^2 = n/d
    if not n:
        return 0.0
    # m = floor(x * 2**-e), with 53 bits where x is normal
    e = max((n.bit_length() - d.bit_length() + 2) // 2 - 54, -1074)
    num, den = (n << -2 * e, d) if e < 0 else (n, d << 2 * e)
    m = math.isqrt(num // den)
    shift = max(m.bit_length() - 53, 0)
    exact = m * m * den == num and not m & ((1 << shift) - 1)
    m, e = m >> shift, e + shift
    try:
        return math.ldexp(m + (up and not exact), e)
    except OverflowError:
        return math.inf if up else _DBL_MAX


def _ratio(num: int, den: int) -> tuple[int, int]:
    return (num, den) if den > 0 else (-num, -den)


def _positive_roots(c0: int, c1: int, c2: int) -> list[tuple[tuple, tuple, bool]]:
    """(lo, hi, changes) for each root v > 0 of c2 v^2 + c1 v + c0, integer
    coefficients: rationals lo <= hi, each (num, den) with den > 0, between
    which it lies, and whether the sign changes there (not at a double
    root).  The roots are q/c2 and c0/q, q = -(c1 + sgn(c1) r)/2, free of
    cancellation, r = sqrt(c1^2 - 4 c2 c0) between math.isqrt's floor and
    that plus one; each of one sign."""
    if not c2:
        return [(_ratio(-c0, c1),) * 2 + (True,)] if c0 * c1 < 0 else []
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return []
    root = math.isqrt(disc)
    sign = 1 if c1 >= 0 else -1
    twice_q = [-(c1 + sign * r) for r in (root, root + (root * root != disc))]
    roots = [[_ratio(m, 2 * c2) for m in twice_q]]
    if c0 and disc:     # else the other root is 0, or this one again
        roots.append([_ratio(2 * c0, m) for m in twice_q])
    brackets = []
    for (p, q), (r, s) in roots:
        if p > 0:
            brackets.append(((p, q), (r, s), disc > 0) if p * s <= r * q
                            else ((r, s), (p, q), disc > 0))
    return brackets


def sign_runs(low: list[int], high: list[int], n: int, cut
              ) -> list[tuple[int, int, int]]:
    """(start, stop, sign) in order, covering the indices 0..n-1 of positive
    doubles in increasing order, for the quadratics T(v) = sum(t[k] v**k)
    between the integer ones low and high, coefficients from v^0, at
    v = sqrt(1 + x^2) - 1: every such T has the sign +-1 on the hull of the
    points start..stop-1, or the sign is 0 where low <= 0 <= high leaves it
    open.  The points are read through cut(t, right), the index of the
    first point above the double t (right) or at least t.  T is positive
    where low is and negative where high is.  The bracket of each root of
    low and high holds the points from the double next above its lower end
    to that next below its upper end (x_of), and the points outside every
    bracket and on one side of each have low's and high's signs at 0+,
    changed at each root below them where the sign changes."""
    marks = []      # (first index in, first index past, changes, of high)
    for poly, is_high in ((low, False), (high, True)):
        for lo, hi, changes in _positive_roots(*poly):
            marks.append((cut(x_of(*lo, up=True), False), cut(x_of(*hi, up=False), True),
                          changes, is_high))
    at_zero = [next((1 if k > 0 else -1 for k in poly if k), 0) for poly in (low, high)]
    cuts = sorted({0, n, *(m[0] for m in marks), *(m[1] for m in marks)})
    runs = []
    for start, stop in zip(cuts, cuts[1:]):
        signs = at_zero[:]
        for first, past, changes, is_high in marks:
            if first <= start < past:
                signs = [0, 0]
                break
            if start >= past and changes:
                signs[is_high] = -signs[is_high]
        runs.append((start, stop, 1 if signs[0] > 0 else -1 if signs[1] < 0 else 0))
    return runs


def _bisect_crossover(sign_at, lo: float, hi: float, s_lo: int) -> float:
    """A point within relative width 1e-13 of where sign_at (+-1) leaves
    s_lo, for 0 < lo < hi.  Bisects the IEEE bit patterns, whose order is
    the numeric order of positive doubles, so every step halves the doubles
    in between and at most 64 steps reach adjacent doubles, at any size."""
    lo_bits, hi_bits = _bits(lo), _bits(hi)
    while hi_bits - lo_bits > 1 and hi - lo > 1e-13 * hi:
        mid_bits = (lo_bits + hi_bits) // 2
        mid = _from_bits(mid_bits)
        if sign_at(mid) == s_lo:
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
    one unit of the result, which is then rounded to nearest: the result is
    within one unit of arctan for digits below 10**7.
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
    guard digits: within one unit of pi, as atan_units is of arctan."""
    work = digits + _GUARD_DIGITS
    return _rescale(4 * _atan_table(work)[_KNOTS], work, digits)


def log_units(y_units: int, digits: int) -> int:
    """Natural log of y_units/10**digits, in the same units."""
    return _log(y_units, digits)[0]


# Reduction: k repeated square roots pull the argument into (1 - 1/256,
# 1 + 1/256), then ln y = 2**(k+1) * atanh((y-1)/(y+1)) by the odd atanh
# series, at w = digits + 10 digits.  Error lemma, in units of 10**-w: root
# j, t_j = isqrt(t_{j-1} * 10**w), lies under a unit below the exact root, a
# relative 1/t_j <= 10**-10 that moves its log by under 1.01 c_j units,
# c_j = ceil(10**w / t_j) (about 1/y**(2**-j) for y < 1, else 1); later
# roots halve that and the factor 2**k of ln y doubles it back: 1.01 R in
# all, R = sum of 2**j c_j.  The floored quotient moves atanh by under 1.01 units,
# and the series (z <= 1/511, so under 0.2w terms, each off by under 2
# units, and a tail under 2) by under 0.4w + 2.  So the sum before rounding
# is within 2**(k+1) * (0.4w + 3.01) + 1.01 R <= 2**(k+1) * (w + 3) + 2R
# units of ln y, and the rounding to digits adds half a unit.
def _log(y_units: int, digits: int) -> tuple[int, int]:
    """log_units and its radius, in units, from the lemma above."""
    if y_units <= 0:
        raise DomainError("log of a non-positive value")
    work = digits + _GUARD_DIGITS
    scale = 10 ** work
    t = y_units * 10 ** _GUARD_DIGITS

    doublings = charge = 0      # charge: R of the lemma
    window = scale // 256
    while abs(t - scale) > window:
        t = math.isqrt(t * scale)
        doublings += 1
        charge += -(-scale // t) << doublings
        if doublings > 120:
            raise PrecisionError("log reduction failed to converge")

    z = (t - scale) * scale // (t + scale)
    total = _odd_series(abs(z), z * z // scale, scale, 1, work)
    total = (-total if z < 0 else total) << (doublings + 1)
    guard = pow10(_GUARD_DIGITS)    # the radius: ceil(bound / guard + 1/2)
    bound = ((work + 3) << (doublings + 1)) + 2 * charge
    return _rescale(total, work, digits), -(-(2 * bound + guard) // (2 * guard))


def _comparison(op):
    def compare(self, other):
        pair = self._cmp_pair(other)
        return NotImplemented if pair is None else op(*pair)
    return compare


class FixedReal:
    """An immutable fixed-point ball: ``units * 10**-digits``, within ``err``
    units of the exact value of the expression it came from.

    Mixed arithmetic with ints is exact; floats and Fractions are converted
    through their exact rational value (a float contributes the real number
    it actually stores, not its decimal spelling), rounded to the nearest
    unit.  Two FixedReal operands must carry the same precision; mixing
    precisions raises ValueError rather than silently degrading.
    Comparisons with ints, floats, Fractions and FixedReals of any precision
    are exact on the centre, and the hash is that of the rational
    units/10**digits, so FixedReal(0.5, 30) == 0.5 and both hash alike,
    while FixedReal(0.1, 30) != 0.1.  A divisor, or the argument of sqrt or
    log, whose ball reaches 0 raises PrecisionError.
    """

    __slots__ = ("units", "digits", "err", "scale")

    def __init__(self, value: "int | float | str | Fraction | FixedReal" = 0, digits: int = 30):
        check_digits(digits)
        err = 0
        if isinstance(value, FixedReal):
            units, err = _nearest(value.units * pow10(digits), value.scale)
            err += -(-value.err * pow10(digits) // value.scale)
        elif isinstance(value, int):
            units = value * 10 ** digits
        elif isinstance(value, float):
            if not math.isfinite(value):
                raise DomainError("cannot represent a non-finite float")
            num, den = value.as_integer_ratio()
            units, err = _nearest(num * pow10(digits), den)
        elif isinstance(value, (Fraction, str)):
            frac = Fraction(value)
            units, err = _nearest(frac.numerator * 10 ** digits, frac.denominator)
        else:
            raise TypeError(f"cannot build FixedReal from {type(value).__name__}")
        self.units, self.digits, self.err, self.scale = units, digits, err, pow10(digits)

    @classmethod
    def _raw(cls, units: int, digits: int, err: int = 0) -> "FixedReal":
        obj = object.__new__(cls)
        obj.units, obj.digits, obj.err, obj.scale = units, digits, err, pow10(digits)
        return obj

    def _new(self, units: int, err: int) -> "FixedReal":
        """A ball at the precision of self."""
        obj = object.__new__(FixedReal)
        obj.units, obj.digits, obj.err, obj.scale = units, self.digits, err, self.scale
        return obj

    @classmethod
    def pi(cls, digits: int) -> "FixedReal":
        return cls._raw(pi_units(digits), digits, 1)

    def ends(self) -> tuple[Fraction, Fraction]:
        """The ball as an interval of Fractions, which holds the exact value."""
        return (Fraction(self.units - self.err, self.scale),
                Fraction(self.units + self.err, self.scale))

    def _coerce(self, other):
        if type(other) is int:
            return self._new(other * self.scale, 0)
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
    # With centres U, V, radii e, f and exact values u, v: |uv - UV| <=
    # |U|f + |V|e + ef, and |u/v - U/V| <= (e|V| + |U|f) / (|V|(|V| - f)) for
    # f < |V|; a floored result adds one unit where it is inexact.

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._new(self.units + rhs.units, self.err + rhs.err)

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._new(self.units - rhs.units, self.err + rhs.err)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._new(rhs.units - self.units, self.err + rhs.err)

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        scale = self.scale
        u, v, e, f = self.units, rhs.units, self.err, rhs.err
        units, rem = divmod(u * v, scale)
        err = 1 if rem else 0
        if e or f:
            err -= (-abs(u) * f - abs(v) * e - e * f) // scale
        return self._new(units, err)

    __rmul__ = __mul__

    def __truediv__(self, other):
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else _quotient(self, rhs)

    def __rtruediv__(self, other):
        rhs = self._coerce(other)
        return NotImplemented if rhs is None else _quotient(rhs, self)

    def __neg__(self):
        return self._new(-self.units, self.err)

    def __abs__(self):
        return self._new(abs(self.units), self.err)

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
    # For exact values v within e of the centre V > e: |sqrt v - sqrt V| <=
    # e / sqrt V, |ln v - ln V| <= e / (V - e), and |atan v - atan V| <= e.

    def sqrt(self) -> "FixedReal":
        root = sqrt_units(self.units, self.digits)
        err = int(root * root != self.units * self.scale)
        if self.err:
            if not root:
                raise PrecisionError("square root of a ball that reaches 0")
            err += -(-self.err * self.scale // root)
        return self._new(root, err)

    def atan(self) -> "FixedReal":
        return self._new(atan_units(self.units, self.digits), self.err + 1)

    def log(self) -> "FixedReal":
        if 0 < self.units <= self.err:
            raise PrecisionError("log of a ball that reaches 0")
        units, err = _log(self.units, self.digits)
        if self.err:
            err += -(-self.err * self.scale // (self.units - self.err))
        return self._new(units, err)

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


def _quotient(num: FixedReal, den: FixedReal) -> FixedReal:
    mag = abs(den.units)
    if mag <= den.err:
        if not den.err:
            raise ZeroDivisionError("fixed-point division by zero")
        raise PrecisionError("fixed-point division by a ball that reaches 0")
    scale = num.scale
    units, rem = divmod(num.units * scale, den.units)
    spread = (num.err * mag + abs(num.units) * den.err) * scale
    return num._new(units, -(-spread // (mag * (mag - den.err))) + (rem != 0))
