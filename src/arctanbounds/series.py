"""Defect series: a bound's margin to arctan where the two touch.

Where a bound is tangent to arctan the sweep's double filter forms o - b from
two doubles that nearly cancel, and cannot settle the point.  There the
margin D (arctan minus the bound for a lower bound, the bound minus arctan
for an upper one) is a power series with exact rational coefficients, which
a few double operations evaluate to a small *relative* error (a Taylor
model in the sense of Makino and Berz, 2003):

- rows tangent at 0, B(x)/x -> 1: D = x * sum C_k t^k with t = x^2.  These
  are the shape rows c*x/(d + e*u) with c = d + e, and ratio, identity, cubic
  and log-lower;
- log-upper: D = sum C_k x^k;
- rows that cancel at infinity, x*(pi/2 - B) -> 1 to within 2**-50:
  D = sum C_k s^k with s = 1/x.  These are two-over-pi-lower and
  reversed-lower at the double nearest 2/pi.

A shape row's coefficients come from its own ``consts(Fraction(a), pi)`` in
the catalog, with pi the interval fixedpoint.pi_bracket(50), pi_units(50) -+ 1
unit.  So every C_k is an interval of Fractions, a point for the rows without
pi and ~1e-50 wide for the rest; where the row is tangent the leading ones
contain 0.  The one-offs' series are written out below.

A series keeps C_0 .. C_4 (M = 5), each rounded to the nearest double c_k.
With j <= 2 the index of the first one whose interval excludes 0, it
evaluates D ~ pre * v^j * P(v), P(v) = sum c_{j+i} v^i, by Horner's rule,
with v = x*x, x or 1/x and pre = x or 1.  Its error bound adds four terms,
with w = pre * v^j and A = sum |c_{j+i}| v^i:

- coefficient rounding: |C_k - c_k| <= rho |c_k|, at most 2 rho w A (the 2
  covers v against the exact x^2 or 1/x and the rounding of the bound);
- Horner: v and each product and sum round once, so every term carries at
  most 3M + 2 roundings, and gamma_{3M+2} < (3M + 3)u;
- the tail: a Cauchy estimate on |v| = 1/2 gives |C_k| <= K 2^k (K per row
  below), so the tail is at most pre K (2v)^M / (1 - 2v), below
  2 K 2^M pre v^M for 2v <= 1/8;
- the width of pi: the coefficients that contain 0 (the leading ones of a pi
  row) add their half width times pre (v <= 1).

Every operand is a normal double on the series' domain (2**-60 <= x <= 2**-4
at 0, 2**4 <= x <= 2**60 at infinity), so the gamma_n model holds.
Nothing is computed at import: each (row, a) is built when a sweep first
asks for it, and cached.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

from . import catalog as cat
from . import fixedpoint as fp

#: pi as the interval fixedpoint.pi_bracket(_PI_DIGITS).
_PI_DIGITS = 50
#: Coefficients built and kept per row, C_0 .. C_{M-1}.
_TERMS = 5
_U = 2.0 ** -53
#: A series' domain: _FAR <= x <= _EDGE at 0, 1/_EDGE <= x <= 1/_FAR at
#: infinity.  Then v <= 2**-4, 2v <= 1/8 for the tail, and every operand
#: stays a normal double.
_EDGE = 2.0 ** -4
_FAR = 2.0 ** -60
#: 1/sqrt(2) and sqrt(3)/2 rounded down, for the Cauchy estimates on |v| = 1/2.
_RE_SQRT_T = Fraction(7, 10)
_RE_SQRT_S = Fraction(433, 500)


class _Interval:
    """A closed interval of Fractions.  A row's consts(a, pi) computes on it
    with ordinary operators, as it does on floats and FixedReal; comparing
    two intervals that overlap raises ArithmeticError."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        self.lo, self.hi = lo, hi

    @staticmethod
    def of(v) -> "_Interval":
        if isinstance(v, _Interval):
            return v
        v = Fraction(v)
        return _Interval(v, v)

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def __add__(self, other):
        other = _Interval.of(other)
        if self.lo is self.hi and other.lo is other.hi:
            total = self.lo + other.lo
            return _Interval(total, total)
        return _Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        if self.lo is self.hi:
            negated = -self.lo
            return _Interval(negated, negated)
        return _Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + -_Interval.of(other)

    def __rsub__(self, other):
        return _Interval.of(other) + -self

    def __mul__(self, other):
        other = _Interval.of(other)
        if self.lo is self.hi and other.lo is other.hi:
            product = self.lo * other.lo
            return _Interval(product, product)
        ends = (self.lo * other.lo, self.lo * other.hi,
                self.hi * other.lo, self.hi * other.hi)
        return _Interval(min(ends), max(ends))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _Interval.of(other)
        if other.contains_zero():
            raise ZeroDivisionError("interval divisor contains 0")
        if other.lo is other.hi:
            inverse = 1 / other.lo
            return self * _Interval(inverse, inverse)
        return self * _Interval(1 / other.hi, 1 / other.lo)

    def __rtruediv__(self, other):
        return _Interval.of(other) / self

    def __lt__(self, other):
        other = _Interval.of(other)
        if self.hi < other.lo:
            return True
        if self.lo > other.hi:
            return False
        raise ArithmeticError("overlapping intervals have no order")

    def __gt__(self, other):
        return _Interval.of(other) < self


class Series(NamedTuple):
    """A row's margin as a power series: D/x in t = x^2 ("t"), D in x ("x")
    or D in s = 1/x ("s"), with coefficient intervals C_0 .. C_4 and the
    tail constant K, |C_k| <= K 2^k for every k."""

    var: str
    coefficients: tuple
    tail: Fraction


class Evaluator(NamedTuple):
    """``margin(x, floor)`` for x_min <= x <= x_max: the series' margin at x
    as a double, and a bound on its distance to the exact margin plus
    ``floor`` (``floor / x`` for log-lower)."""

    x_min: float
    x_max: float
    margin: Callable[[float, float], tuple[float, float]]


def _reciprocal(h: list, n: int) -> list:
    """The first n coefficients of 1/h for a power series h, h[0] != 0."""
    inv = 1 / h[0]
    g = [inv]
    for k in range(1, n):
        acc = h[1] * g[k - 1]
        for i in range(2, k + 1):
            acc = acc + h[i] * g[k - i]
        g.append(-(acc * inv))
    return g


def _sqrt_1p(n: int) -> list:
    """binom(1/2, k): sqrt(1 + z) = sum of them times z^k."""
    out = [Fraction(1)]
    for k in range(1, n):
        out.append(out[-1] * (Fraction(1, 2) - (k - 1)) / k)
    return out


def _atan_over_x(n: int) -> list:
    """arctan(x)/x in powers of t = x^2."""
    return [Fraction((-1) ** k, 2 * k + 1) for k in range(n)]


def _atan_odd(n: int) -> list:
    """arctan(v) in powers of v."""
    return [Fraction((-1) ** (k // 2), k) if k % 2 else Fraction(0) for k in range(n)]


#: The one-offs: (variable, the bound's coefficients, K' >= |bound coefficient|
#: past the first few), where D/x = sum C_k t^k (t) or D = sum C_k x^k (x).
#: arctan's own coefficients are at most 1, so K = 1 + K'.
_ONE_OFFS = {
    cat.BoundId.RATIO_LOWER: ("t", lambda n: [Fraction((-1) ** k) for k in range(n)], 1),
    cat.BoundId.IDENTITY_UPPER: ("t", lambda n: [Fraction(int(k == 0)) for k in range(n)], 0),
    cat.BoundId.CUBIC_LOWER: (
        "t", lambda n: [Fraction(1), Fraction(-1, 3)] + [Fraction(0)] * (n - 2), 0),
    cat.BoundId.LOG_LOWER: (
        "t", lambda n: [Fraction((-1) ** k, 2 * k + 2) for k in range(n)], Fraction(1, 2)),
    # (1+x) ln(1+x) = x + sum_{n>=2} (-1)^n x^n / (n(n-1))
    cat.BoundId.LOG_UPPER: (
        "x", lambda n: [Fraction(0), Fraction(1)]
        + [Fraction((-1) ** k, k * (k - 1)) for k in range(2, n)], Fraction(1, 2)),
}


def _shape_series(consts, a: Optional[float], sign: int) -> Optional[Series]:
    """The series of a shape row's margin, or None where the row touches
    arctan neither at 0 nor at infinity."""
    pi = _Interval(*fp.pi_bracket(_PI_DIGITS))
    c, d, e = map(_Interval.of, consts(None if a is None else Fraction(a), pi))
    if d.lo < 0 or e.lo <= 0:
        return None
    # at 0: D/x = arctan(x)/x - c / (d + e sqrt(1+t)); on |t| = 1/2,
    # Re sqrt(1+t) >= sqrt(1/2), so |d + e sqrt(1+t)| >= d + 0.7e
    if (1 - c / (d + e)).contains_zero():
        root = _sqrt_1p(_TERMS)
        g = _reciprocal([d + e] + [e * r for r in root[1:]], _TERMS)
        bound = [c * gk for gk in g]
        k_bound = max(abs(c.lo), abs(c.hi)) / (d.lo + _RE_SQRT_T * e.lo)
        return Series("t", tuple(sign * (at - b) for at, b in zip(_atan_over_x(_TERMS), bound)),
                      1 + k_bound)
    # at infinity: B = (c/e) / (sqrt(1+s^2) + (d/e) s), arctan x = pi/2 - arctan s;
    # on |s| = 1/2, Re sqrt(1+s^2) >= sqrt(3)/2
    ratio, slope = c / e, d / e
    first = ratio * slope - 1
    if (not (pi / 2 - ratio).contains_zero()
            or max(-first.lo, first.hi) > Fraction(1, 2 ** 50)):
        return None
    floor = _RE_SQRT_S - max(abs(slope.lo), abs(slope.hi)) / 2
    if floor <= 0:
        return None
    h = [_Interval.of(0)] * _TERMS
    h[0], h[1] = _Interval.of(1), slope
    for k, r in enumerate(_sqrt_1p((_TERMS + 1) // 2)):
        if 0 < 2 * k < _TERMS:
            h[2 * k] = _Interval.of(r)
    atan = [pi / 2] + [-_Interval.of(v) for v in _atan_odd(_TERMS)[1:]]
    bound = [ratio * gk for gk in _reciprocal(h, _TERMS)]
    k_bound = max(abs(ratio.lo), abs(ratio.hi)) / floor
    return Series("s", tuple(sign * (at - b) for at, b in zip(atan, bound)), 1 + k_bound)


@lru_cache(maxsize=64)
def defect_series(bound: cat.BoundId, a: Optional[float]) -> Optional[Series]:
    """The exact series of one catalog row at parameter a, built when first
    asked for; None where the row touches arctan neither at 0 nor at
    infinity."""
    info = cat._CATALOG[bound]
    sign = 1 if info.side == "lower" else -1
    if info.consts is not None:
        return _shape_series(info.consts, a, sign)
    if bound not in _ONE_OFFS:
        return None
    var, coefficients, k_bound = _ONE_OFFS[bound]
    atan = _atan_over_x(_TERMS) if var == "t" else _atan_odd(_TERMS)
    return Series(var, tuple(_Interval.of(sign * (at - b))
                             for at, b in zip(atan, coefficients(_TERMS))), 1 + k_bound)


def _round_up(q: Fraction) -> float:
    f = float(q)
    return f if f >= q else math.nextafter(f, math.inf)


#: v^j by repeated products, each rounded once, for j <= 2
_POWERS = (lambda v: 1.0, lambda v: v, lambda v: v * v)


def evaluator(series: Series, floor_over_x: bool = False) -> Optional[Evaluator]:
    """Round a series to doubles, as the module docstring describes; None
    when each of its first three coefficients contains 0."""
    j = next((k for k, c in enumerate(series.coefficients[:3]) if not c.contains_zero()),
             None)
    if j is None:
        return None
    mids, rho, lead = [], 0.0, Fraction(0)
    for c in series.coefficients[j:]:
        if c.contains_zero():
            lead += max(-c.lo, c.hi)
            mids.append(0.0)
            continue
        mid = float(c.lo if c.lo is c.hi else (c.lo + c.hi) / 2)
        exact = Fraction(mid)
        rad = max(c.hi - exact, exact - c.lo)
        if rad:
            rho = max(rho, _round_up(rad / abs(exact)))
        mids.append(mid)
    for c in series.coefficients[:j]:
        lead += max(-c.lo, c.hi)
    # P(v) = sum p_i v^i, i < 5, padded with zeros past C_4
    p0, p1, p2, p3, p4 = mids + [0.0] * j
    a0, a1, a2, a3, a4 = map(abs, (p0, p1, p2, p3, p4))
    gain = (3 * _TERMS + 3) * _U + 2 * rho
    tail = _round_up(2 * series.tail * 2 ** _TERMS)
    lead2 = _round_up(2 * lead)
    power = _POWERS[j]
    var = series.var

    def margin(x: float, floor: float) -> tuple[float, float]:
        if var == "t":
            v = x * x
            pre = x
        else:
            v = x if var == "x" else 1.0 / x
            pre = 1.0
        w = pre * power(v)
        m = w * ((((p4 * v + p3) * v + p2) * v + p1) * v + p0)
        v2 = v * v
        e = (w * gain * ((((a4 * v + a3) * v + a2) * v + a1) * v + a0)
             + pre * (tail * (v2 * v2 * v) + lead2)
             + (floor / x if floor_over_x else floor))
        return m, e

    if var == "s":
        return Evaluator(1 / _EDGE, 1 / _FAR, margin)
    return Evaluator(_FAR, _EDGE, margin)


@lru_cache(maxsize=64)
def margin_evaluator(bound: cat.BoundId, a: Optional[float]) -> Optional[Evaluator]:
    """The cached evaluator of one catalog row's defect series at parameter a,
    or None where it has none."""
    series = defect_series(bound, a)
    # log-lower's fixed-point form divides a log good to a unit of
    # 10**-digits by 2x, so its error grows like 1/x, and the floor with it
    return None if series is None else evaluator(
        series, floor_over_x=bound is cat.BoundId.LOG_LOWER)
