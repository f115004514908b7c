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
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from . import fixedpoint as fp
from . import oracle as orc
from .catalog import _DBL_MAX, _DOWN, _HALF_PI, _TINY, _UP, TWO_OVER_PI, _new_pair
from .errors import DomainError


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
    x = +-0.0 returns (x, 0).  Raises DomainError for an infinite or NaN x,
    and for an x that is not a double (a Fraction, say) whose double, the
    one the bracket is computed at, is 0.0 while x is not.
    """
    ax = abs(x)
    if ax < _TINY:
        if type(x) is not float:
            # taken as its double, as catalog.enclosure takes it
            value = float(x)
            if value == 0.0 and x:
                raise DomainError(f"x={x!r} has no nonzero double: it rounds to {value!r}")
            x, ax = value, abs(value)
        # arctan x lies in [nextafter(x, 0), x]; x keeps the sign of a zero
        return _new_pair(CertifiedValue, (x, ax - math.nextafter(ax, 0.0)))
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


def _actual(x: float, value: float, digits: int) -> tuple[float, int]:
    """|value - arctan x| rounded once to a double, and the digits that
    settled it (fixedpoint.settle, from `digits` at least)."""
    if not x:
        return 0.0, digits      # value = arctan 0 = 0
    (actual,), d = fp.settle(
        lambda d: (abs(fp.FixedReal(value, d) - orc.oracle_arctan(x, d)),), abs(x),
        lambda: f"the kernel's error at x={x!r}", digits)
    return actual, d


def _measure_rows(spec: KernelSpec, grid: orc.GridSpec,
                  digits: int) -> tuple[list[ProfileRow], int]:
    """Every row of the grid, measured in fixed point, and how many of them
    settled above `digits`."""
    rows, extra = [], 0
    for x in grid.values():
        est = approx(spec, x)
        actual, d = _actual(x, est.value, digits)
        extra += d > digits
        ratio = math.inf if actual == 0.0 else est.error_bound / actual
        rows.append(ProfileRow(x, est.value, est.error_bound, actual, ratio))
    return rows, extra


@dataclass(frozen=True)
class ErrorProfile:
    """Certified versus measured error of a kernel over a grid.

    A row's `actual` is the exact |value - arctan x| rounded once to a
    double, settled in fixed point from `digits`, or 30 + 2 ceil|log10 x|
    if more, as eval_bound settles a bound (fixedpoint.settle).  `ratio` is
    certified / actual, so ratio >= 1 everywhere is the certification
    property.  `rows` measures every row when first read.  The summary is
    what every row gives, read from the kernel's monotone runs at exact_rows
    |x| in fixed point, extra_digit_rows of them settled above `digits`.
    That reading rests on the four catalog rows approx takes holding on all
    of (0, inf), which is proved, not checked at run time
    (tests/test_kernel.py, test_each_end_holds_on_all_x).
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
        return _measure_rows(self.spec, self.grid, self.digits)[0]

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


def error_profile(spec: KernelSpec, grid: orc.GridSpec = orc.DEFAULT_GRID,
                  digits: int = orc.DEFAULT_DIGITS) -> ErrorProfile:
    """Certified and actual error of the kernel over a grid.

    `digits`, at least 20 as for the oracle, are the digits each row's
    measurement starts at; the value it settles to does not depend on them.
    The summary is read from the kernel's monotone runs (runs.summary), at
    a few rows in fixed point, and reads no catalog row: the four rows
    approx takes hold on all of (0, inf) by proof (tests/test_kernel.py,
    test_each_end_holds_on_all_x).  Where a measured row's certificate does
    not cover it, the summary is read from every row.
    """
    orc.check_digits(digits, "error profile")
    from . import runs      # on first use: approx alone never compiles it
    summary = runs.summary(spec, grid, digits)
    if summary is None:
        return _from_rows(spec, grid, digits)
    return ErrorProfile(spec, grid, digits, *summary)


def _from_rows(spec: KernelSpec, grid: orc.GridSpec, digits: int) -> ErrorProfile:
    """The profile read from every row, which it keeps as its rows."""
    rows, extra = _measure_rows(spec, grid, digits)
    profile = ErrorProfile(spec, grid, digits, max(r.certified for r in rows),
                           max(r.actual for r in rows), all(r.ratio >= 1.0 for r in rows),
                           len(rows), extra)
    vars(profile)["rows"] = rows        # where the cached property keeps them
    return profile
