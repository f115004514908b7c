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

from . import fixedpoint as fp
from . import oracle as orc
from .catalog import _DOWN, _HALF_PI, _TINY, _UP, TWO_OVER_PI
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


@dataclass(frozen=True, slots=True)
class CertifiedValue:
    """Approximation plus its certified absolute error bound."""

    value: float
    error_bound: float


def approx(spec: KernelSpec, x: float) -> CertifiedValue:
    """Approximate arctan x with a certified error bound, for any finite x.

    Odd symmetry is applied exactly (computed on |x| and negated), and x = 0
    returns (0, 0).  Raises DomainError for an infinite or NaN x.
    """
    ax = abs(x)
    if ax < _TINY:
        lower, upper = math.nextafter(ax, 0.0), ax
    elif ax <= _DBL_MAX:
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
    # most (pi/2) / (1 + a_low), or they are adjacent doubles), so both
    # differences are exact by Sterbenz's lemma
    value = 0.5 * (lower + upper)
    below, above = value - lower, upper - value
    return CertifiedValue(-value if x < 0 else value,
                          below if below > above else above)


@dataclass(frozen=True)
class ProfileRow:
    x: float
    value: float
    certified: float
    actual: float
    ratio: float


@dataclass(frozen=True)
class ErrorProfile:
    """Certified versus measured error of a kernel over a grid.

    `actual` is |value - arctan x| measured against the fixed-point oracle
    and `ratio` is certified / actual, so ratio >= 1 everywhere is the
    certification property.  Rows whose certified error is below
    10**(3-digits), which the oracle at `digits` cannot resolve, are measured
    at enough extra digits to put the oracle's error below a tenth of an ulp
    of the certificate; extra_digit_rows counts them.
    """

    spec: KernelSpec
    grid: orc.GridSpec
    digits: int
    rows: list[ProfileRow]
    max_certified: float
    max_actual: float
    extra_digit_rows: int

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
            "certified_everywhere": all(r.ratio >= 1.0 for r in self.rows),
        }


def error_profile(spec: KernelSpec, grid: orc.GridSpec = orc.DEFAULT_GRID,
                  digits: int = orc.DEFAULT_DIGITS) -> ErrorProfile:
    """Tabulate certified and actual error of the kernel over a grid.

    Needs at least 20 digits, like the oracle: a coarser oracle cannot
    resolve the actual error against the certificate.
    """
    orc.check_digits(digits, "error profile")
    rows = []
    max_cert = 0.0
    max_act = 0.0
    unresolved = 10.0 ** (3 - digits)
    extra_digit_rows = 0
    oracle_vals = orc._oracle_on_grid(grid, digits)
    for x, oracle_hp in zip(grid.values(), oracle_vals):
        est = approx(spec, x)
        if 0.0 < est.error_bound < unresolved:
            # 1.5 * 10**-d, the oracle's error plus the value's rounding, is
            # below 2**-53 / 10 of the certificate
            d = 18 - math.floor(math.log10(est.error_bound))
            actual = abs(float(fp.FixedReal(est.value, d) - orc.oracle_arctan(x, d)))
            extra_digit_rows += 1
        else:
            actual = abs(float(fp.FixedReal(est.value, digits) - oracle_hp))
        ratio = math.inf if actual == 0.0 else est.error_bound / actual
        rows.append(ProfileRow(x, est.value, est.error_bound, actual, ratio))
        max_cert = max(max_cert, est.error_bound)
        max_act = max(max_act, actual)
    return ErrorProfile(spec=spec, grid=grid, digits=digits, rows=rows,
                        max_certified=max_cert, max_actual=max_act,
                        extra_digit_rows=extra_digit_rows)
