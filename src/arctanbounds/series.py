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

A shape row's coefficients come from its own ``consts(a, pi)`` in the
catalog, run on FixedReal balls at 100 digits, with pi the ball
FixedReal.pi(100).  So every C_k is a ball that holds the exact
coefficient, at most tens of units of 1e-100 wide; where the row is tangent
the leading ones contain 0.  The one-offs' series are written out below, in
Fractions that enter as balls.

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
- the coefficients that contain 0 (the leading ones of a tangent row) add
  their largest magnitude times pre (v <= 1).

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

#: Digits of the balls the coefficients are built on.
_DIGITS = 100
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


def _ball(v) -> fp.FixedReal:
    return fp.FixedReal(v, _DIGITS)


def _has_zero(c: fp.FixedReal) -> bool:
    return abs(c.units) <= c.err


def _magnitude(c: fp.FixedReal) -> Fraction:
    """The largest |C| in the ball c."""
    return Fraction(abs(c.units) + c.err, c.scale)


class Series(NamedTuple):
    """A row's margin as a power series: D/x in t = x^2 ("t"), D in x ("x")
    or D in s = 1/x ("s"), with coefficient balls C_0 .. C_4 and the tail
    constant K, |C_k| <= K 2^k for every k."""

    var: str
    coefficients: tuple
    tail: Fraction


class Evaluator(NamedTuple):
    """``margin(x)`` for x_min <= x <= x_max: the series' margin at x as a
    double, and a bound on its distance to the exact margin."""

    x_min: float
    x_max: float
    margin: Callable[[float], tuple[float, float]]


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
    pi = fp.FixedReal.pi(_DIGITS)
    c, d, e = map(_ball, consts(None if a is None else _ball(a), pi))
    if d.units < d.err or e.units <= e.err:
        return None
    # at 0: D/x = arctan(x)/x - c / (d + e sqrt(1+t)); on |t| = 1/2,
    # Re sqrt(1+t) >= sqrt(1/2), so |d + e sqrt(1+t)| >= d + 0.7e
    if _has_zero(1 - c / (d + e)):
        root = _sqrt_1p(_TERMS)
        g = _reciprocal([d + e] + [e * r for r in root[1:]], _TERMS)
        bound = [c * gk for gk in g]
        k_bound = _magnitude(c) / (d.ends()[0] + _RE_SQRT_T * e.ends()[0])
        return Series("t", tuple(sign * (at - b) for at, b in zip(_atan_over_x(_TERMS), bound)),
                      1 + k_bound)
    # at infinity: B = (c/e) / (sqrt(1+s^2) + (d/e) s), arctan x = pi/2 - arctan s;
    # on |s| = 1/2, Re sqrt(1+s^2) >= sqrt(3)/2
    ratio, slope = c / e, d / e
    first = ratio * slope - 1
    if not _has_zero(pi / 2 - ratio) or _magnitude(first) > Fraction(1, 2 ** 50):
        return None
    least = _RE_SQRT_S - _magnitude(slope) / 2
    if least <= 0:
        return None
    h = [_ball(0)] * _TERMS
    h[0], h[1] = _ball(1), slope
    for k, r in enumerate(_sqrt_1p((_TERMS + 1) // 2)):
        if 0 < 2 * k < _TERMS:
            h[2 * k] = _ball(r)
    atan = [pi / 2] + [-v for v in _atan_odd(_TERMS)[1:]]
    bound = [ratio * gk for gk in _reciprocal(h, _TERMS)]
    k_bound = _magnitude(ratio) / least
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
    return Series(var, tuple(_ball(sign * (at - b))
                             for at, b in zip(atan, coefficients(_TERMS))), 1 + k_bound)


def _round_up(q: Fraction) -> float:
    f = float(q)
    return f if f >= q else math.nextafter(f, math.inf)


#: v^j by repeated products, each rounded once, for j <= 2
_POWERS = (lambda v: 1.0, lambda v: v, lambda v: v * v)


def evaluator(series: Series) -> Optional[Evaluator]:
    """Round a series to doubles, as the module docstring describes; None
    when each of its first three coefficients contains 0."""
    j = next((k for k, c in enumerate(series.coefficients[:3]) if not _has_zero(c)), None)
    if j is None:
        return None
    mids, rho, lead = [], 0.0, Fraction(0)
    for c in series.coefficients[j:]:
        if _has_zero(c):
            lead += _magnitude(c)
            mids.append(0.0)
            continue
        mid = float(c)
        rad = abs(c.as_fraction() - Fraction(mid)) + Fraction(c.err, c.scale)
        rho = max(rho, _round_up(rad / abs(Fraction(mid))))
        mids.append(mid)
    for c in series.coefficients[:j]:
        lead += _magnitude(c)
    # P(v) = sum p_i v^i, i < 5, padded with zeros past C_4
    p0, p1, p2, p3, p4 = mids + [0.0] * j
    a0, a1, a2, a3, a4 = map(abs, (p0, p1, p2, p3, p4))
    gain = (3 * _TERMS + 3) * _U + 2 * rho
    tail = _round_up(2 * series.tail * 2 ** _TERMS)
    lead2 = _round_up(2 * lead)
    power = _POWERS[j]
    var = series.var

    def margin(x: float) -> tuple[float, float]:
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
             + pre * (tail * (v2 * v2 * v) + lead2))
        return m, e

    if var == "s":
        return Evaluator(1 / _EDGE, 1 / _FAR, margin)
    return Evaluator(_FAR, _EDGE, margin)


@lru_cache(maxsize=64)
def margin_evaluator(bound: cat.BoundId, a: Optional[float]) -> Optional[Evaluator]:
    """The cached evaluator of one catalog row's defect series at parameter a,
    or None where it has none."""
    series = defect_series(bound, a)
    return None if series is None else evaluator(series)
