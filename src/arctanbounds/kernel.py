"""Fast arctan approximation with a certified absolute error bound.

Each call brackets arctan |x| by the pointwise best of two members of the
sharpened Shafer family c*x/(a + sqrt(1+x^2)): one with 0 <= a <= 1/2, whose
lower and upper bounds are (1+a)x/(a+u) and (pi/2)x/(a+u), and one with
a >= 2/pi, where the same two forms swap sides.  Both members share
u = hypot(1, x), so a call costs one square root and two divisions.  The lower
end is the larger of the two lower bounds and the upper end the smaller of the
two upper bounds, each rounded outward so that the bracket holds in the
floating-point arithmetic that computes it.  The value is the midpoint of the
bracket and the certificate is its larger distance to an end, so
|value - arctan x| <= error_bound holds exactly, with no ulp allowance.

The pair is fixed at (1/2, 2/pi), the best one at every x (see KernelSpec).
The a = 1/2 lower bound is the tighter for |x| below ~2.1758 and the a = 2/pi
one above; the a = 2/pi upper bound is the tighter for |x| below ~2.5728 and
the a = 1/2 one above, where (1 + 2/pi)(1/2 + u) = (pi/2)(2/pi + u).  The
worst certified error on [1e-8, 1e8] is ~0.0249, at that upper crossover,
and it falls to ~1e-14 at x = 1e-4 and ~1e-5 at x = 1e4.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

from . import fixedpoint as fp
from . import oracle as orc
from .catalog import _DOWN, _HALF_PI, _TINY, _UP, TWO_OVER_PI, _new_pair
from .errors import DomainError

_DBL_MAX = sys.float_info.max


@dataclass(frozen=True, slots=True)
class KernelSpec:
    """The kernel's two family parameters, one from each certified regime.

    The pair is fixed because no other pair is tighter at any x.  With
    u = sqrt(1+x^2) > 1, d/da[(1+a)/(a+u)] = (u-1)/(a+u)^2 > 0 and
    (pi/2)/(a+u) falls as a grows.  So on 0 <= a <= 1/2 the lower bound
    (1+a)x/(a+u) is largest and the upper bound (pi/2)x/(a+u) smallest at
    a = 1/2, and on a >= 2/pi the lower bound (pi/2)x/(a+u) is largest and
    the upper bound (1+a)x/(a+u) smallest at a = 2/pi.
    """

    # init=False fields: no arguments; with slots=True, __init__ stores them,
    # so approx reads them as fast as ordinary fields
    a_low: float = field(default=0.5, init=False)
    a_high: float = field(default=TWO_OVER_PI, init=False)


DEFAULT_KERNEL = KernelSpec()


class CertifiedValue(NamedTuple):
    """Approximation plus its certified absolute error bound, a named pair."""

    value: float
    error_bound: float


def approx(spec: KernelSpec, x: float) -> CertifiedValue:
    """Approximate arctan x with a certified error bound, for any finite x.

    Odd symmetry is applied exactly (computed on |x| and negated), and
    x = +-0.0 returns (x, 0).  Raises DomainError for an infinite or NaN x.
    """
    ax = abs(x)
    if ax < _TINY:
        # arctan x lies in [nextafter(x, 0), x]; x keeps the sign of a zero
        return _new_pair(CertifiedValue, (float(x), ax - math.nextafter(ax, 0.0)))
    if ax <= _DBL_MAX:
        # Each of the four bounds is c * (ax / (a + u)), scaled outward as
        # derived beside _DOWN and _UP in catalog.py (gamma_7 < 16 u0).  Each
        # parameter double lies in its regime (the double nearest 2/pi is
        # above 2/pi).  For 2**-1000 <= ax <= DBL_MAX, u and both quotients
        # are finite normal doubles, so the model holds.
        u = math.hypot(1.0, ax)
        a_low, a_high = spec.a_low, spec.a_high
        q_low = ax / (a_low + u)
        q_high = ax / (a_high + u)
        lower_low = (1.0 + a_low) * q_low
        lower_high = _HALF_PI * q_high
        upper_low = _HALF_PI * q_low
        upper_high = (1.0 + a_high) * q_high
        lower = (lower_low if lower_low > lower_high else lower_high) * _DOWN
        upper = (upper_low if upper_low < upper_high else upper_high) * _UP
    else:
        raise DomainError(f"approx needs a finite argument, got {x!r}")
    # value lies in [lower, upper], and upper <= 2 * lower (their ratio is at
    # most (pi/2) / (1 + a_low)), so both differences are exact by Sterbenz's
    # lemma
    value = 0.5 * (lower + upper)
    below, above = value - lower, upper - value
    return _new_pair(CertifiedValue, (-value if x < 0 else value,
                                      below if below > above else above))


@dataclass(frozen=True)
class ProfileRow:
    x: float
    value: float
    certified: float
    actual: float
    ratio: float


def _row_digits(certified: float, digits: int) -> int:
    """The digits a row is measured at: `digits`, or, for a certificate below
    10**(3-digits), which the oracle at `digits` cannot resolve, enough to
    put 1.5 * 10**-d, the oracle's error plus the value's rounding, below
    2**-53 / 10 of the certificate."""
    if 0.0 < certified < 10.0 ** (3 - digits):
        return 18 - math.floor(math.log10(certified))
    return digits


def _actual(x: float, value: float, d: int) -> float:
    """|value - arctan x| in fixed point at d digits, rounded to a double."""
    return abs(float(fp.FixedReal(value, d) - orc.oracle_arctan(x, d)))


@dataclass(frozen=True)
class ErrorProfile:
    """Certified versus measured error of a kernel over a grid.

    A row's `actual` is |value - arctan x| measured in fixed point, the value
    and the oracle at `digits`, or, where the certificate is below
    10**(3-digits), at enough extra digits to put their error below a tenth
    of an ulp of the certificate.  `ratio` is certified / actual, so ratio >= 1
    everywhere is the certification property.  `rows` measures every row when
    first read.  max_actual and certified_everywhere are what every row gives,
    but error_profile reaches them through a proven filter in double that
    measured only exact_rows rows in fixed point, extra_digit_rows of them at
    extra digits.
    """

    spec: KernelSpec
    grid: orc.GridSpec
    digits: int
    max_certified: float
    max_actual: float
    certified_everywhere: bool
    exact_rows: int
    extra_digit_rows: int

    @cached_property
    def rows(self) -> list[ProfileRow]:
        """Every row, measured in fixed point when first read."""
        rows = []
        for x in self.grid.values():
            est = approx(self.spec, x)
            actual = _actual(x, est.value, _row_digits(est.error_bound, self.digits))
            ratio = math.inf if actual == 0.0 else est.error_bound / actual
            rows.append(ProfileRow(x, est.value, est.error_bound, actual, ratio))
        return rows

    def write_csv(self, stream: io.TextIOBase) -> None:
        writer = csv.writer(stream)
        writer.writerow(["x", "value", "certified", "actual", "ratio"])
        for r in self.rows:
            writer.writerow([r.x, r.value, r.certified, r.actual, r.ratio])

    def to_json_dict(self) -> dict:
        return {
            "a_low": self.spec.a_low,
            "a_high": self.spec.a_high,
            "digits": self.digits,
            "grid": self.grid.to_json_dict(),
            "max_certified": self.max_certified,
            "max_actual": self.max_actual,
            "certified_everywhere": self.certified_everywhere,
        }


# The filter's error bound, in the style of the gamma_n derivation in
# fastatan.py, with u = 2**-53.  At a row x with value v and
# certificate c, measured at d digits (_row_digits): T = arctan|x|, A = ||v| -
# T| = |v - arctan x| (approx is exactly odd), f = fast_atan(|x|) and a =
# |fl(|v| - f)|.
#
#   the subtraction   one rounding: |a - y| <= u y, y = ||v| - f| <= a/(1 - u)
#                     (exact where y is subnormal).
#   fast_atan         |f - T| <= K u f, K = FAST_ATAN_K, for every double |x|
#                     (f = T = 0 at x = 0), so |y - A| <= K u f.
#   fixed point       D = |FixedReal(v, d) - oracle_arctan(x, d)| exactly:
#                     v rounds to the nearest unit of 10**-d (half a unit);
#                     the oracle rounds x to the nearest unit (half a unit
#                     through 1-Lipschitz arctan) and its result to the
#                     nearest unit (half a unit, plus the guard digits' few
#                     units of 10**-(d+10)): |D - A| <= 1.51 * 10**-d.
#   the double        M = float(D), correctly rounded: |M - D| <= u D, or
#                     2**-1075 where M is subnormal.
# With D <= y + K u f + 1.51 * 10**-d,
#   |a - M| <= 2u a/(1 - u) + K u f (1 + u) + 1.51 * 10**-d (1 + u) + 2**-1075.
# _row_error's E is (((K + 0.01)u f + 3u a) + 2 * 10**-d) + 2**-1071 in that
# order; scaling K + 0.01 by u and 10**-d by 2 is exact.  Its
# roundings (K + 0.01, the two products, libm's pow taken within two ulps, and
# three sums of positive terms) leave each term at least (1 - 6u) of its
# value, which still exceeds the matching term above, where the term is
# normal.  Where a product or the pow underflows it loses an absolute 2**-1075
# or 2**-1073 at most, the doubled pow 2**-1072, and with M's 2**-1075 that
# is below 2**-1071: the last term covers them at any f, tiny and subnormal
# rows included.
#
# Below |x| = 2**-1000, measured at d >= 324 digits, E = 0.  There approx
# returns v = x with c = |x| - nextafter(|x|, 0), from 2**-1074 to 2**-1052,
# and fast_atan(x) == x (fastatan.py's proof from 2**-500 down; checked on
# 10**4 random doubles below 2**-1000), so f = |v| and a = 0 exactly.  T lies
# in (|x| - |x|^3/3, |x|), so A < |x|^3/3 < 2**-3000.  With d >= 324,
# D <= A + 1.51 * 10**-d < 2**-1075, half the least subnormal, so M, D
# rounded to the nearest double, is 0 = a.  _row_digits gives d >= 335 for
# these certificates, or the report's digits where those are 320 or more;
# only 320 to 323 take the terms above.  The terms would charge fast_atan
# (K + 0.01)u f = 2.63 * 2**-52 |x| and underflow 2**-1071, more than a
# subnormal row's whole certificate c = 2**-1074.
#
# Every decision below compares doubles after one rounding, which is
# monotone: fl(a + E) < c implies a + E < c, so M < c; fl(a - E) > c implies
# M > c.  And ratio >= 1 exactly when M <= c: M = 0 gives ratio = inf, and c
# >= M > 0 gives c/M >= 1, whose rounding is >= 1.  If c < M, then c <= M -
# g with g the gap below M, g/M > 2**-54 (g >= 2**-53 M for normal M, g/M >
# 2**-52 for subnormal M), so c/M < 1 - 2**-54 rounds below 1.

def _row_error(fast_atan_k: float, d: int) -> Callable[[float, float], float]:
    """E(f, a) >= |a - M| at the rows measured at d digits, where fast_atan's
    error is at most fast_atan_k * u * f (derived above); 0 below 2**-1000,
    where f = |x|, at d >= 324."""
    c_f, c_a, c_d = (fast_atan_k + 0.01) * 2.0 ** -53, 3 * 2.0 ** -53, 2 * 10.0 ** -d
    tiny = _TINY if d >= 324 else 0.0
    return lambda f, a: 0.0 if f < tiny else c_f * f + c_a * a + c_d + 2.0 ** -1071


def error_profile(spec: KernelSpec, grid: orc.GridSpec = orc.DEFAULT_GRID,
                  digits: int = orc.DEFAULT_DIGITS) -> ErrorProfile:
    """Certified and actual error of the kernel over a grid.

    Needs at least 20 digits, like the oracle: a coarser oracle cannot
    resolve the actual error against the certificate.  Each row is estimated
    in double first: a = |value - fast_atan(|x|)| is within a proven E of its
    fixed-point actual M (derived above).  The row is certified when
    a + E < certified and refuted when a - E > certified.  M is computed, as
    `rows` computes it, only at the rows neither test settles (x = 0 among
    them, where the certificate is 0), and at the rows whose interval a -+ E
    reaches the largest lower end of all rows, but where E = 0: there M = a
    (below 2**-1000, derived above).  So max_actual and certified_everywhere
    are those of every row.
    """
    orc.check_digits(digits, "error profile")
    # imported on first use, as sweep imports it: importing the package (every
    # CLI command) does not build its table
    from .fastatan import FAST_ATAN_K, fast_atan
    # only the rare rows below _row_digits' threshold leave the report's digits
    threshold, error = 10.0 ** (3 - digits), _row_error(FAST_ATAN_K, digits)
    max_cert = max_low = 0.0        # max_low: the largest lower end of an M
    max_known = 0.0     # the largest M of the rows where E = 0, so M = a
    certified_everywhere = True
    exact = []          # (x, value, d, certified) of the rows not settled
    candidates = []     # (x, value, d, high) of settled rows that may hold max M
    for x in grid.values():
        value, cert = approx(spec, x)
        if cert > max_cert:
            max_cert = cert
        f = fast_atan(abs(x))
        a = abs(abs(value) - f)
        d = _row_digits(cert, digits) if cert < threshold else digits
        e = (error if d == digits else _row_error(FAST_ATAN_K, d))(f, a)
        low, high = a - e, a + e
        if high < cert or low > cert:
            certified_everywhere = certified_everywhere and high < cert
            if low > max_low:
                max_low = low
            if not e:       # measured already: its M is a
                max_known = max(max_known, a)
            elif high >= max_low:
                candidates.append((x, value, d, high))
            continue
        exact.append((x, value, d, cert))

    actuals = [_actual(x, value, d) for x, value, d, _ in exact]
    certified_everywhere = certified_everywhere and all(
        m <= cert for m, (*_, cert) in zip(actuals, exact))
    max_low = max([max_low, *actuals])
    near_max = [row for row in candidates if row[3] >= max_low]
    actuals += [_actual(x, value, d) for x, value, d, _ in near_max]
    measured = exact + near_max
    return ErrorProfile(spec=spec, grid=grid, digits=digits,
                        max_certified=max_cert, max_actual=max([max_known, *actuals]),
                        certified_everywhere=certified_everywhere,
                        exact_rows=len(measured),
                        extra_digit_rows=sum(d != digits for _, _, d, _ in measured))
