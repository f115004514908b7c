"""Exact signs and real roots of the polynomial that compares two catalog rows.

Each of the 14 catalog rows without a log is x N(u) / D(u), u = sqrt(1 + x^2),
with D > 0 for u >= 1: a shape row c x / (d + e u), its constants from the
row's own consts(a, pi) run on QPi with a as its exact Fraction, and the
one-offs from their catalog (N, D): ratio-lower x / u^2, identity-upper x
and cubic-lower x (4 - u^2) / 3.  So for x > 0 the sign of A(x) - B(x) is
that of P(u) = N_A D_B - N_B D_A on (1, inf): linear for two shape rows and
for a shape row against identity-upper, quadratic against ratio-lower, cubic
against cubic-lower, and (u^2 - 1)(u^2 - 3) for ratio-lower against
cubic-lower.  Its coefficients lie in Q[pi].  The same machinery serves a
shape row's slope polynomial (d + e u)^2 - c u (d u + e), a quadratic in u
with the sign of the derivative of the row's margin to arctan.

Signs.  An element of Q[pi] is zero exactly when its rational coefficients
all are, since pi is transcendental: P == 0 is an exact test.  Any other sign
is decided on the ends of FixedReal.pi(d), from d = 30, doubling d until the
interval of values excludes 0 (fixedpoint.refine, PrecisionError past
fixedpoint.MAX_DIGITS; 3000 random pairs of catalog rows took 30 or 60
digits).  At u = sqrt(q), where q = 1 + x^2 is an exact Fraction for any
double or dyadic x, P(u) is E + O sqrt(q) with E and O in Q[pi] (P's even and
odd parts at q); where E and O differ in sign its sign is E's times that of
E^2 - q O^2.

Roots.  With t = u - 1, T(t) = P(1 + t) loses its factors t (roots at u = 1,
that is x = 0); where it has a multiple root it is divided by its gcd with
T' (pseudo-remainders keep every coefficient in Q[pi]).  The square-free part
S is isolated on (0, inf) by Descartes' rule of signs with bisection (Collins
and Akritas, SYMSAC 1976): a sign variation count of 0 or 1 settles an
interval, and (0, 1) and, through t -> 1/t, (1, inf) are halved until each
does.  Each root then gets a bracket of two adjacent doubles in x, or a single
double where it is one: a Newton guess in double, then exact signs of S at
doubles, galloping out from the guess and bisecting the bit patterns between
the doubles next outside x = sqrt(t (t + 2)) at the interval's ends
(fixedpoint.x_of).  A bracket is accepted only where S has opposite exact
signs at its two ends (or 0 at its double), and the brackets only if they are
disjoint, so each holds exactly one of the roots counted.  A root beyond the
doubles gets (0, 2**-1074) or (DBL_MAX, inf).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import fixedpoint as fp
from .errors import PrecisionError

#: The digits of pi the first decision of a sign takes.
_FIRST_PI_DIGITS = 30
_ZERO = Fraction(0)


def _fraction(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


class QPi:
    """An element of Q[pi]: sum(nums[k] * pi**k) / den, integer nums with no
    trailing zero (so zero has none) over a positive integer den.  Mixed
    arithmetic with ints, floats (their exact value) and Fractions is exact;
    dividing takes a rational divisor.  Comparisons decide the sign of the
    difference (see sign)."""

    __slots__ = ("nums", "den")

    def __init__(self, nums, den: int = 1):
        nums = list(nums)
        while nums and not nums[-1]:
            nums.pop()
        self.nums, self.den = tuple(nums), den

    @staticmethod
    def lift(v) -> "QPi":
        if isinstance(v, QPi):
            return v
        f = _fraction(v)
        return QPi((f.numerator,), f.denominator)

    def __add__(self, other):
        other = QPi.lift(other)
        p, q, den = self.nums, other.nums, self.den
        if other.den != den:
            den = math.lcm(den, other.den)
            p = [n * (den // self.den) for n in p]
            q = [n * (den // other.den) for n in q]
        if len(p) < len(q):
            p, q = q, p
        return QPi([n + q[k] for k, n in enumerate(p[:len(q)])] + list(p[len(q):]), den)

    __radd__ = __add__

    def __neg__(self):
        return QPi([-n for n in self.nums], self.den)

    def __sub__(self, other):
        return self + -QPi.lift(other)

    def __rsub__(self, other):
        return QPi.lift(other) + -self

    def __mul__(self, other):
        if not isinstance(other, QPi):
            if type(other) is int:
                return QPi([n * other for n in self.nums], self.den)
            other = QPi.lift(other)
        p, q = self.nums, other.nums
        if not p or not q:
            return QPi(())
        out = [0] * (len(p) + len(q) - 1)
        for i, m in enumerate(p):
            for j, n in enumerate(q):
                out[i + j] += m * n
        return QPi(out, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (1 / _fraction(other))

    def __lt__(self, other):
        return sign(self - other) < 0

    def __gt__(self, other):
        return sign(self - other) > 0

    def __repr__(self):
        return f"QPi({list(self.nums)}, {self.den})"


PI = QPi((0, 1))


@lru_cache(maxsize=64)
def _pi_powers(digits: int, top: int) -> tuple[tuple[int, int, int], ...]:
    """(scale**(top - k), lo**k, hi**k) for k = 0..top, lo and hi the ends
    of FixedReal.pi(digits) in units."""
    pi = fp.FixedReal.pi(digits)
    lo, hi = pi.units - pi.err, pi.units + pi.err
    return tuple((pi.scale ** (top - k), lo ** k, hi ** k) for k in range(top + 1))


def _decide(nums: list[int]) -> tuple[int, int]:
    """The sign of sum(nums[k] * pi**k), not all zero, and the digits of pi
    that decided it, under fixedpoint.refine."""
    while nums and not nums[-1]:
        nums = nums[:-1]
    if len(nums) <= 1:
        return (nums[0] > 0) - (nums[0] < 0) if nums else 0, 0

    def sign_at(digits: int) -> tuple[int, int]:
        # the sum times scale**top: each term lies between n_k times the k-th
        # powers of the two ends; the sign is 0 where they bracket 0
        low = high = 0
        for n, (w, lo_k, hi_k) in zip(nums, _pi_powers(digits, len(nums) - 1)):
            if n > 0:
                low += n * w * lo_k
                high += n * w * hi_k
            elif n < 0:
                low += n * w * hi_k
                high += n * w * lo_k
        return (low > 0) - (high < 0), digits

    return fp.refine(sign_at, _FIRST_PI_DIGITS, lambda r: r[0],
                     lambda: "a sign in Q[pi]")


def sign(q: QPi) -> int:
    return _decide(list(q.nums))[0]


# polynomials: tuples of QPi coefficients, lowest power first, no trailing zero

def _trim(p) -> tuple:
    p = list(p)
    while p and not p[-1].nums:
        p.pop()
    return tuple(p)


def _mul(p, q) -> tuple:
    if not p or not q:
        return ()
    out = [QPi(())] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        for j, d in enumerate(q):
            out[i + j] = out[i + j] + c * d
    return _trim(out)


def _add(p, q) -> tuple:
    n = max(len(p), len(q))
    zero = QPi(())
    return _trim((p[k] if k < len(p) else zero) + (q[k] if k < len(q) else zero)
                 for k in range(n))


def _sub(p, q) -> tuple:
    return _add(p, tuple(-c for c in q))


def _shift(p, h) -> tuple:
    """p(t + h) by Horner's rule on the coefficients."""
    out = list(p)
    for i in range(len(out) - 1):
        for k in range(len(out) - 2, i - 1, -1):
            out[k] = out[k] + out[k + 1] * h
    return tuple(out)


def _derivative(p) -> tuple:
    return _trim(c * k for k, c in enumerate(p) if k)


def _pseudo_divide(a, b) -> tuple[tuple, tuple]:
    """(quotient, remainder) with lc(b)**j * a = quotient * b + remainder for
    some j >= 0, deg remainder < deg b: all in Q[pi]."""
    rem, quot, n, lead = list(a), [], len(b) - 1, b[-1]
    while len(rem) - 1 >= n:
        k, top = len(rem) - 1 - n, rem[-1]
        quot = [c * lead for c in quot]
        quot += [QPi(())] * (k + 1 - len(quot))
        quot[k] = quot[k] + top
        rem = [c * lead for c in rem]
        for i, c in enumerate(b):
            rem[i + k] = rem[i + k] - top * c
        rem = list(_trim(rem))
    return _trim(quot), tuple(rem)


#: The prime and the value of pi of _coprime_mod.
_MOD, _PI_MOD = 2 ** 61 - 1, 3


def _coprime_mod(p) -> bool:
    """Whether p and p' are coprime mod _MOD with pi = _PI_MOD, where p's
    leading coefficient stays nonzero.  Then their resultant, a polynomial
    in pi, is nonzero there, so it is not the zero polynomial, and p has no
    multiple root: pi is transcendental.  The catalog's denominators are
    powers of two, which _MOD does not divide."""
    a = [sum(n * _PI_MOD ** k for k, n in enumerate(c.nums)) * pow(c.den, -1, _MOD) % _MOD
         for c in p]
    b = [k * v % _MOD for k, v in enumerate(a)][1:]
    while a[-1] and b:      # Euclid's algorithm mod _MOD
        while len(a) >= len(b):
            top, shift = a[-1] * pow(b[-1], -1, _MOD) % _MOD, len(a) - len(b)
            a = [(v - top * b[i - shift]) % _MOD if i >= shift else v
                 for i, v in enumerate(a[:-1])]
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


#: The most bits a remainder's integers take in all in _squarefree.
_GCD_BITS = 1 << 14


def _primitive(p) -> tuple:
    """p times the positive rational that leaves its integer coefficients in
    pi coprime, which keeps its roots; PrecisionError past _GCD_BITS."""
    den = math.lcm(*(c.den for c in p))
    rows = [[n * (den // c.den) for n in c.nums] for c in p]
    g = math.gcd(*(n for row in rows for n in row))
    rows = [[n // g for n in row] for row in rows]
    if sum(abs(n).bit_length() for row in rows for n in row) > _GCD_BITS:
        raise PrecisionError(f"a gcd of polynomials outgrows {_GCD_BITS} bits")
    return tuple(map(QPi, rows))


def _squarefree(p) -> tuple:
    """p divided by gcd(p, p'): the same distinct roots, each simple.  Its
    primitive pseudo-remainders keep rational coefficients near the size of
    p's, but not a content in pi, which grows: PrecisionError past _GCD_BITS."""
    if len(p) <= 2 or _coprime_mod(p):
        return p
    a, b = p, _primitive(_derivative(p))
    while b:
        a, b = b, _pseudo_divide(a, b)[1]
        b = b and _primitive(b)
    return p if len(a) == 1 else _primitive(_pseudo_divide(p, a)[0])


def _rational_form(row, a: Optional[float]) -> Optional[tuple]:
    """(N, D) of a catalog row x N(u) / D(u) (its _BoundInfo entry) at a
    checked parameter, each QPi coefficients from the lowest power; None
    for a log row."""
    if row.consts is not None:
        c, d, e = row.consts(None if a is None else Fraction(a), PI)
        return (QPi.lift(c),), (QPi.lift(d), QPi.lift(e))
    if row.rational is not None:
        return tuple(tuple(map(QPi.lift, part)) for part in row.rational)
    return None


def _poly(*coeffs) -> tuple:
    return tuple(map(QPi.lift, coeffs))


def comparison_polynomial(row_a, a_a: Optional[float], row_b,
                          a_b: Optional[float]) -> Optional[tuple]:
    """P(u), whose sign on u > 1 is that of A(x) - B(x) at x = sqrt(u^2 - 1),
    for two catalog rows (their _BoundInfo entries) at checked parameters:
    a tuple of QPi coefficients, empty where the rows are identical, or None
    where a row has a log."""
    form_a, form_b = _rational_form(row_a, a_a), _rational_form(row_b, a_b)
    if form_a is None or form_b is None:
        return None
    (num_a, den_a), (num_b, den_b) = form_a, form_b
    return _sub(_mul(num_a, den_b), _mul(num_b, den_a))


def log_pair_polynomial(row, a: Optional[float]) -> tuple:
    """A polynomial in u whose roots with u > 1 hold every zero on x > 0 of
    h', h(0+) = 0, h having the sign of the log row on the side of the row
    B = x N(u) / D(u) minus B.  With W = N'D - N D', log-lower gives
    h = ln(1 + x^2) - 2x B, h' = 2x P / (u^2 D^2) and returns
    P = D^2 - 2u^2 N D - u (u^2 - 1) W; log-upper gives h = ln(1 + x) -
    B / (1 + x), h' = (E + x O) / (u D^2 (1 + x)^2) with E = u D^2 - u N D -
    (u^2 - 1) W and O = E + u N D, and returns E^2 - (u^2 - 1) O^2."""
    num, den = _rational_form(row, a)
    nd = _mul(num, den)
    w = _sub(_mul(_derivative(num), den), _mul(num, _derivative(den)))
    dd = _mul(den, den)
    if row.side == "lower":
        return _sub(_sub(dd, _mul(_poly(0, 0, 2), nd)), _mul(_poly(0, -1, 0, 1), w))
    und = _mul(_poly(0, 1), nd)
    even = _sub(_sub(_mul(_poly(0, 1), dd), und), _mul(_poly(-1, 0, 1), w))
    odd = _add(even, und)
    return _sub(_mul(even, even), _mul(_poly(-1, 0, 1), _mul(odd, odd)))


def slope_polynomial(row, a: Optional[float]) -> Optional[tuple]:
    """Q(u) = (d + e u)^2 - c u (d u + e) for a shape row c x / (d + e u) (its
    _BoundInfo entry) at a checked parameter, a tuple of QPi coefficients;
    None for a one-off.  With u' = x/u, the derivative of arctan x minus the
    row is Q(u) / (u^2 (d + e u)^2), so on x > 0 it has Q's sign."""
    if row.consts is None:
        return None
    c, d, e = map(QPi.lift, row.consts(None if a is None else Fraction(a), PI))
    return _trim((d * d, 2 * d * e - c * e, e * e - c * d))


def _variations(p, sign) -> int:
    signs = [s for s in map(sign, p) if s]
    return sum(s != r for s, r in zip(signs, signs[1:]))


def _roots_01(p, lo: Fraction, width: Fraction, sign) -> list:
    """Intervals of t, each holding one root of the square-free p in (0, 1)
    mapped onto (lo, lo + width); (r, r) for a root at a midpoint r."""
    v = _variations(_shift(p[::-1], 1), sign)     # (1 + y)^n p(1 / (1 + y))
    if v <= 1:
        return [(lo, lo + width)] * v
    half = tuple(c / 2 ** k for k, c in enumerate(p))         # p(y / 2)
    right = _shift(half, 1)                                   # p((y + 1) / 2)
    mid = lo + width / 2
    roots = _roots_01(half, lo, width / 2, sign)
    if not right[0].nums:
        roots.append((mid, mid))
        right = right[1:]
    return roots + _roots_01(right, mid, width / 2, sign)


def _positive_roots(s, sign) -> list:
    """Disjoint intervals (lo, hi) of t in increasing order, each holding one
    root of the square-free s (s(0) != 0) in (0, inf); hi is None for inf,
    and lo == hi at a rational root.  sign(q) decides each sign."""
    v = _variations(s, sign)
    if v <= 1:
        return [(_ZERO, None)] * v
    one = Fraction(1)
    high = [(1 / hi, None if lo == 0 else 1 / lo)
            for lo, hi in reversed(_roots_01(s[::-1], _ZERO, one, sign))]
    at_one = [(one, one)] if not sum(s, QPi(())).nums else []
    return _roots_01(s, _ZERO, one, sign) + at_one + high


def _approx(q: QPi) -> Fraction:
    """q at a 30-digit rational pi, for the Newton guess."""
    pi = Fraction(fp.pi_units(_FIRST_PI_DIGITS), fp.pow10(_FIRST_PI_DIGITS))
    return sum((n * pi ** k for k, n in enumerate(q.nums)), _ZERO) / q.den


def _newton(s, lo: Fraction, hi: Optional[Fraction], left: int) -> Optional[float]:
    """A double near the root x of s in (lo, hi): Newton's method on t in
    double, bisecting where a step leaves the interval it narrows; None
    where that fails.  Only a guess: the brackets are decided exactly."""
    values = [_approx(c) for c in s]
    top = max(map(abs, values))
    try:
        cs = [float(v / top) for v in values]
        ds = [k * c for k, c in enumerate(cs)][1:]
        low, high = float(lo), (math.inf if hi is None else float(hi))
        t = low + 1.0 if high == math.inf else 0.5 * (low + high)
        for _ in range(60):
            v = dv = 0.0
            for c in reversed(cs):
                v = v * t + c
            for c in reversed(ds):
                dv = dv * t + c
            if v == 0:
                break
            if (v > 0) == (left > 0):
                low = t
            else:
                high = t
            step = t - v / dv if dv else math.nan
            if not low < step < high:
                step = (2 * low + 1 if high == math.inf
                        else math.sqrt(low * high) if 0 < 4 * low < high
                        else 0.5 * (low + high))
            if step == t:
                break
            t = step
        x = math.sqrt(t) * math.sqrt(t + 2.0)
    except (OverflowError, ZeroDivisionError, ValueError):
        return None
    return x if 0 < x < math.inf else None


class _PointSigns:
    """A polynomial in u, for its sign at u = sqrt(q): the even part E, the
    odd part O and the norm E^2 - q O^2 as polynomials in q, each a function
    of q = n/d that returns the integer coefficients in pi of a positive
    multiple of its value."""

    def __init__(self, poly):
        minus = tuple(-c if k % 2 else c for k, c in enumerate(poly))   # poly(-u)
        norm = _mul(poly, minus)        # E(u^2)^2 - u^2 O(u^2)^2, even in u
        self.even, self.odd, self.norm = (_in_q(poly[0::2]), _in_q(poly[1::2]),
                                          _in_q(norm[0::2]))


def _in_q(coeffs):
    """n, d -> the pi coefficients of d**top * sum(coeffs[j] * (n/d)**j),
    times the positive common denominator of the coefficients."""
    width = max((len(c.nums) for c in coeffs), default=0)
    den = math.lcm(1, *(c.den for c in coeffs))
    rows = [[v * (den // c.den) for v in c.nums] + [0] * (width - len(c.nums))
            for c in coeffs]
    top = len(rows) - 1

    def at(n: int, d: int) -> list[int]:
        out = [0] * width
        for j, row in enumerate(rows):
            w = n ** j * d ** (top - j)
            for k, v in enumerate(row):
                if v:
                    out[k] += v * w
        return out
    return at


class Comparison:
    """The sign of A(x) - B(x) on x > 0 for two rows without a log, from the
    roots of P (see the module docstring); or that of any other polynomial
    P(u) with QPi coefficients, such as a slope polynomial.

    degree is P's degree, -1 where P == 0 (identical rows).  brackets holds,
    in increasing order, one (lo, hi) per distinct root of P with u > 1:
    adjacent doubles with the root between them, (p, p) at a double p, or
    (0.0, 2**-1074) and (DBL_MAX, inf) past the doubles.  The sign at a
    double x > 0 is signs[bisect_left(edges, x)].  crossovers holds the
    bracket of each root where the sign changes: its hi is the first double
    at which the sign before the root no longer holds.  pi_digits is the
    most digits of pi any sign took (0 where none needed pi).
    """

    def __init__(self, p: tuple):
        self.p, self.degree, self.pi_digits = p, len(p) - 1, 0
        self.brackets, self.edges, self.crossovers = [], [], []
        if not p:
            self.signs = [0]
            self.p_u = None
            return
        t = _shift(p, 1)
        t = t[next(k for k, c in enumerate(t) if c.nums):]    # P(1 + t) / t**k
        s = _squarefree(t)
        self.s_u = _PointSigns(_shift(s, -1))   # S(u - 1), for signs at doubles
        # P(u) = (u - 1)**k S(u - 1) where T is square-free: the same signs
        self.p_u = self.s_u if s is t else _PointSigns(p)
        # S's sign at each double evaluated, and its limits at 0+ and at
        # infinity, for which 0.0 and inf stand
        self.s_signs = {0.0: self._sign(s[0]), math.inf: self._sign(s[-1])}
        self.signs = [self._sign(t[0])]         # P's, as x -> 0+
        for lo, hi in _positive_roots(s, self._sign):
            right = self._right_of(s, lo)
            self._add_root(self._bracket(s, lo, hi, -right if lo == hi else right))
        ends = [end for bracket in self.brackets for end in bracket]
        if ends != sorted(ends) or len(set(self.brackets)) < len(self.brackets):
            raise PrecisionError("two roots of the comparison lie within one ulp")

    def _sign(self, q: QPi) -> int:
        return self._decided(list(q.nums))

    def _decided(self, nums: list[int]) -> int:
        s, digits = _decide(nums)
        self.pi_digits = max(self.pi_digits, digits)
        return s

    def _right_of(self, s, r: Fraction) -> int:
        """The sign of s just above r: that of its first nonzero Taylor
        coefficient at r."""
        return self._sign(next(c for c in (_shift(s, r) if r else s) if c.nums))

    def _at(self, poly: "_PointSigns", x) -> int:
        """The exact sign of poly at u = sqrt(1 + x^2), x a double or a
        Fraction."""
        x = _fraction(x)
        n, d = x.numerator ** 2 + x.denominator ** 2, x.denominator ** 2   # q = n/d
        se, so = self._decided(poly.even(n, d)), self._decided(poly.odd(n, d))
        if se == so or not so:
            return se
        if not se:
            return so
        return se * self._decided(poly.norm(n, d))

    def sign_at(self, x) -> int:
        """The exact sign of A(x) - B(x) at a double or Fraction x > 0."""
        return self._at(self.p_u, x) if self.p else 0

    def _s_at(self, x: float) -> int:
        if x not in self.s_signs:
            self.s_signs[x] = self._at(self.s_u, x)
        return self.s_signs[x]

    def _bracket(self, s, lo: Fraction, hi: Optional[Fraction], left: int):
        """(a, b) for the root of s in (lo, hi), s's sign being left below
        it: adjacent doubles where s has the signs left and -left, or (p, p)
        where it is 0 at the double p."""
        lo_bits = fp._bits(fp.x_of(lo.numerator, lo.denominator, up=False))
        hi_bits = fp._bits(math.inf if hi is None else
                           fp.x_of(hi.numerator, hi.denominator, up=True))
        guess = _newton(s, lo, hi, left)
        probe, step = (-1 if guess is None else fp._bits(guess)), 1
        while hi_bits - lo_bits > 1:
            if not lo_bits < probe < hi_bits:
                probe = (lo_bits + hi_bits) // 2
            x = fp._from_bits(probe)
            sign_x = self._s_at(x)
            if not sign_x:
                return x, x
            if sign_x == left:
                lo_bits, probe = probe, probe + step
            else:
                hi_bits, probe = probe, probe - step
            step *= 2
        # the ends the search did not evaluate, or the limits 0.0 and inf
        a, b = fp._from_bits(lo_bits), fp._from_bits(hi_bits)
        if self._s_at(a) != left or self._s_at(b) != -left:
            raise PrecisionError("two roots of the comparison lie within one ulp")
        return a, b

    def _add_root(self, bracket) -> None:
        """Append the bracket, its edges, P's sign after it and the crossover
        where that sign differs from the sign before it."""
        a, b = bracket
        before = self.signs[-1]
        if a == b:
            above = math.nextafter(a, math.inf)
            after = self._at(self.p_u, above) if above < math.inf else before
            self.edges += [math.nextafter(a, 0.0), a]
            self.signs += [0, after]
        else:
            after = (before if b == math.inf
                     else self.s_signs[b] if self.p_u is self.s_u else self._at(self.p_u, b))
            self.edges.append(a)
            self.signs.append(after)
        self.brackets.append(bracket)
        if before and after and before != after:
            self.crossovers.append(bracket)
