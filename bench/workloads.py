"""Seeded inputs, timed units of work and correctness gates for each workload.

Every workload runs closed-loop in one single-threaded process: one caller
makes one call into the package at a time and waits for its result.  A unit
of work is timed from outside the package; its outputs are then checked
outside the timed region, and every failed check is counted.

A failure is either of a kind recorded in ROADMAP item 1 at the commit that
added this benchmark (float bounds off by rounding alone; the (0, 0)
enclosure when x*x overflows; ``best_enclosure`` rejecting parts that
rounding has inverted) or of an unknown kind.  Both kinds count as failed;
only unknown kinds make a run incorrect.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "arctanbounds"
MODULES = ("catalog", "cli", "family", "fixedpoint", "kernel", "oracle")

TWO_OVER_PI = 2.0 / math.pi
#: Enclosure parameters certified by the verify suite, and the kernel's pair.
ENCLOSURE_PARAMS = (0.0, 0.1, 0.25, 0.5, TWO_OVER_PI, 0.7, 1.0, 2.0)
BEST_PARAMS = (0.5, TWO_OVER_PI)
#: Kernel switch abscissa, and the largest x whose square is finite.
KERNEL_SWITCH = 2.1758413981537927
SQUARE_OVERFLOW = math.sqrt(1.7976931348623157e308)
#: Magnitude bands the kernel's float behaviour depends on.
BANDS = (("below_1e-8", 1e-8), ("to_switch", KERNEL_SWITCH), ("to_1e8", 1e8),
         ("to_overflow", SQUARE_OVERFLOW), ("square_overflows", math.inf))

#: Grid variants of the verify suite; the seed picks one, and each has a
#: reference recorded at the commit that added this benchmark.
VERIFY_VARIANTS = 16
#: A suite is timed in pieces of this many eval_bound_hp calls, about 25 ms.
VERIFY_PIECE_CALLS = 1000
VERIFY_REFERENCE = Path(__file__).resolve().parent / "reference_verify.json"

#: Seconds `calibrate` takes at the fast speed of the machine the benchmark
#: was defined on: a 2-CPU Intel Xeon virtual machine at 2.1 GHz, Python 3.11.
CALIBRATION_REF_S = 4.2e-4

#: Each workload's UNIT_WALL_S is the wall time of one unit, its checks
#: included, at the machine's usual speed, about 1.6 times slower than the
#: reference speed; run.py sizes a run by it.
KERNEL_UNIT_POINTS = 5000
KERNEL_BLOCK_POINTS = 500
#: Each float closed form takes at most seven rounded operations, each off by
#: at most half an ulp, so rounding alone moves a bound by under 4 ulp.
KNOWN_ULPS = 4


def import_package() -> SimpleNamespace:
    """Import the package from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("ARCTANBOUNDS_DIGITS", None)   # the CLI defaults must hold
    try:
        pkg = load_package()
    except ImportError as exc:
        sys.exit(f"bench: cannot import the package from {ROOT / 'src'}: {exc}")
    if not Path(pkg.path).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"bench: package imported from {pkg.path}, not from this checkout")
    return pkg


def load_package(fresh: bool = False) -> SimpleNamespace:
    """Import the package; ``fresh`` drops every loaded module first, so all
    module-level caches start cold, as in a new CLI process."""
    if fresh:
        for name in [m for m in sys.modules
                     if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        gc.collect()   # free the dropped modules now, so peak memory repeats
    top = importlib.import_module(PACKAGE)
    mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    return SimpleNamespace(version=top.__version__, path=top.__file__, **mods)


@dataclass(frozen=True)
class _Pair:
    lo: float
    hi: float


def calibrate() -> float:
    """Seconds taken by a fixed piece of stdlib-only work that mixes what the
    package does: calls, small frozen dataclasses and float math, then
    Fraction and big-integer arithmetic."""
    start = time.perf_counter()
    acc = 0
    for i in range(120):
        x = 1.0 + i / 7.0
        pair = _Pair(x / (0.5 + math.hypot(1.0, x)), 0.5 * x)
        frac = Fraction(pair.lo)
        acc += math.isqrt(frac.numerator * 10 ** 80 // frac.denominator)
    return time.perf_counter() - start


class Pieces:
    """Times the pieces of one unit of work, with a calibration before the
    first piece and after each one.

    The CPU of a shared machine changes speed by up to 2x, in phases from a
    fraction of a second to minutes long, and whole runs can fall in a slow
    phase.  The calibration slows down with the package's code, to within a
    few percent, so a piece's time over the mean of the two calibrations
    around it, times CALIBRATION_REF_S, is its time at the reference speed.
    Short pieces follow the changes of speed closely.
    """

    def __init__(self, calibrated: bool = True):
        self.calibrated = calibrated
        self.seconds: list[float] = []
        self.calibrations: list[float] = [calibrate()] if calibrated else []
        self._start = 0.0

    def start(self) -> None:
        self._start = time.perf_counter()

    def stop(self) -> None:
        self.seconds.append(time.perf_counter() - self._start)
        if self.calibrated:
            self.calibrations.append(calibrate())

    def lap(self) -> None:
        self.stop()
        self.start()

    @contextlib.contextmanager
    def piece(self):
        self.start()
        try:
            yield
        finally:
            self.stop()

    def at_reference(self) -> Optional[float]:
        """The pieces' total time at the reference speed."""
        if not self.calibrated:
            return None
        cals = self.calibrations
        return CALIBRATION_REF_S * sum(
            t * 2 / (before + after) for t, before, after in zip(self.seconds, cals, cals[1:]))


@dataclass
class UnitResult:
    """One timed unit of work, its time at the reference speed (None when
    traced) and the verdicts of its checks."""

    seconds: float
    ref_seconds: Optional[float]
    attempted: int
    failed: int = 0
    unknown: int = 0
    output_bytes: int = 0


def run_cli(pkg, argv: list[str]) -> tuple[float, Optional[int], str]:
    """Time one ``cli.main`` call with stdout and stderr captured; an
    exception escaping the CLI is a failed command, with exit status None."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = pkg.cli.main(argv)
        except Exception:   # counted as a failure by the caller's check
            code = None
    return time.perf_counter() - start, code, out.getvalue()


# ---------------------------------------------------------------- oracle check

def oracle_digits(x: float) -> int:
    """Digits at which every comparison below is exact for this |x|.

    For tiny x a float bound can equal x itself, which exceeds arctan x by
    only x**3/3, so the resolution must scale like x**3.
    """
    return 40 + 3 * max(0, -math.floor(math.log10(x)))


def to_units(value: float, digits: int) -> int:
    """floor(value * 10**digits), exactly."""
    num, den = value.as_integer_ratio()
    return num * 10 ** digits // den


def _within_known_ulps(value: float, excess_units: int, digits: int) -> bool:
    return excess_units <= KNOWN_ULPS * to_units(math.ulp(value), digits)


# ---------------------------------------------------------------- verify_suite

def verify_grid(seed: int) -> tuple[int, float, float]:
    """Grid endpoints jittered by up to 1%; the seed picks the variant."""
    variant = seed % VERIFY_VARIANTS
    rng = random.Random(f"verify-grid-{variant}")
    return (variant, 1e-8 * (1 + rng.uniform(-0.01, 0.01)),
            1e8 * (1 + rng.uniform(-0.01, 0.01)))


def verify_argv(x_min: float, x_max: float) -> list[str]:
    return ["verify", "--suite", "all", "--format", "json",
            "--grid-min", repr(x_min), "--grid-max", repr(x_max)]


def suite_rows(payload: dict) -> list[list]:
    """The per-entry fields the reference pins down."""
    return [[e["bound"], e["a"], e["status"], e["violation_count"], e["min_margin_x"]]
            for e in payload["results"]]


class VerifySuite:
    name = "verify_suite"
    UNIT_WALL_S = 8.6

    def __init__(self, seed: int, pkg):
        self.variant, self.x_min, self.x_max = verify_grid(seed)
        self.argv = verify_argv(self.x_min, self.x_max)
        reference = json.loads(VERIFY_REFERENCE.read_text(encoding="utf-8"))
        self.reference = reference["variants"][str(self.variant)]["entries"]
        self.reference_commit = reference["commit"]
        self.digits = None
        self.points = None

    def unit(self, tracer=None) -> UnitResult:
        pkg = load_package(fresh=True)
        if tracer is not None:
            tracer.install(pkg)
        # a new piece starts every VERIFY_PIECE_CALLS bound evaluations; the
        # calibrations between pieces are not part of the suite's time
        timer = Pieces(calibrated=tracer is None)
        eval_bound_hp, calls = pkg.catalog.eval_bound_hp, 0

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls % VERIFY_PIECE_CALLS == 0:
                timer.lap()
            return eval_bound_hp(*args, **kwargs)

        if tracer is None:
            pkg.catalog.eval_bound_hp = counted
        try:
            with timer.piece():
                _, code, out = run_cli(pkg, self.argv)
        finally:
            if tracer is not None:
                tracer.uninstall()
        seconds, ref_seconds = sum(timer.seconds), timer.at_reference()
        expected = len(self.reference)
        try:
            payload = json.loads(out)
            rows = suite_rows(payload)
        except (ValueError, KeyError, TypeError):
            return UnitResult(seconds, ref_seconds, expected, expected, expected)
        self.digits = payload.get("digits")
        self.points = payload.get("grid", {}).get("points")
        failed = sum(1 for got, ref in zip(rows, self.reference) if got != ref)
        failed += abs(len(rows) - expected)
        if code != 0:
            failed = max(failed, 1)
        return UnitResult(seconds, ref_seconds, expected, failed, failed, len(out))

    def provenance(self) -> dict:
        return {"grid": {"x_min": self.x_min, "x_max": self.x_max,
                         "points": self.points, "spacing": "log",
                         "variant": self.variant},
                "digits": self.digits, "reference_commit": self.reference_commit}


# ---------------------------------------------------------------- kernel stream

def kernel_points(rng: random.Random, count: int) -> list[float]:
    """Seeded doubles with random sign.  Even draws are log-uniform over
    [1e-8, 1e8]; odd draws are log-uniform over the rest of [1e-300, 1e300].
    Every draw is fresh, so no point repeats except by a 53-bit collision."""
    points = []
    for i in range(count):
        if i % 2 == 0:
            exponent = rng.uniform(-8.0, 8.0)
        else:
            exponent = rng.uniform(8.0, 300.0) * rng.choice((-1.0, 1.0))
        x = 10.0 ** exponent
        points.append(x if rng.random() < 0.5 else -x)
    return points


def band_of(ax: float) -> str:
    for name, upper in BANDS:
        if ax < upper:
            return name
    return BANDS[-1][0]


class _KernelStream:
    """Shared stream state: the seeded generator and per-band shares."""

    def __init__(self, seed: int, pkg):
        self.pkg = pkg
        self.rng = random.Random(f"{self.name}-{seed}")
        self.next_block = kernel_points(self.rng, KERNEL_BLOCK_POINTS)
        self.bands = {name: 0 for name, _ in BANDS}
        self.band_failures = {name: 0 for name, _ in BANDS}
        self.points = 0
        self.max_halfwidth = 0.0

    def blocks(self):
        for _ in range(KERNEL_UNIT_POINTS // KERNEL_BLOCK_POINTS):
            block, self.next_block = self.next_block, None
            yield block
            self.next_block = kernel_points(self.rng, KERNEL_BLOCK_POINTS)

    def _count_point(self, ax: float, failed: bool) -> None:
        band = band_of(ax)
        self.bands[band] += 1
        self.points += 1
        if failed:
            self.band_failures[band] += 1

    def provenance(self) -> dict:
        total = max(self.points, 1)
        return {"points": self.points,
                "shares": {"core_1e-8_to_1e8": 0.5, "tail_1e-300_to_1e300": 0.5,
                           "bands": {k: v / total for k, v in self.bands.items()}},
                "failed_points_by_band": self.band_failures}


class KernelApprox(_KernelStream):
    name = "kernel_approx"
    UNIT_WALL_S = 0.135

    def __init__(self, seed: int, pkg):
        super().__init__(seed, pkg)
        self.spec = pkg.kernel.DEFAULT_KERNEL

    def unit(self, tracer=None) -> UnitResult:
        approx, spec = self.pkg.kernel.approx, self.spec
        timer, results = Pieces(calibrated=tracer is None), []
        for block in self.blocks():
            with timer.piece():
                out = [approx(spec, x) for x in block]
            results.append((block, out))
        with _paused(tracer):
            return self._check(timer, results)

    def _check(self, timer, results) -> UnitResult:
        res = UnitResult(sum(timer.seconds), timer.at_reference(), 0)
        for block, out in results:
            for x, cert in zip(block, out):
                res.attempted += 1
                ok, known = self._check_one(x, cert)
                self._count_point(abs(x), not ok)
                res.failed += not ok
                res.unknown += not (ok or known)
        return res

    def _check_one(self, x: float, cert) -> tuple[bool, bool]:
        """(certificate held, failure is of a recorded kind)."""
        try:
            digits = oracle_digits(abs(x))
            truth = self.pkg.oracle.oracle_arctan(abs(x), digits).units
            truth = truth if x > 0 else -truth
            self.max_halfwidth = max(self.max_halfwidth, cert.error_bound)
            excess = abs(to_units(cert.value, digits) - truth) - to_units(cert.error_bound, digits)
        except (AttributeError, ValueError, OverflowError, TypeError):
            return False, False
        if excess <= 0:
            return True, True
        return False, _within_known_ulps(cert.value, excess, digits)


def _failure_kind(enc) -> str:
    if isinstance(enc, Exception):
        return "raised"
    if getattr(enc, "lower", None) == getattr(enc, "upper", None) == 0.0:
        return "zero_enclosure"
    return "not_strictly_containing"


class KernelEnclose(_KernelStream):
    name = "kernel_enclose"
    UNIT_WALL_S = 0.53

    def __init__(self, seed: int, pkg):
        super().__init__(seed, pkg)
        self.failure_kinds = {"not_strictly_containing": 0, "zero_enclosure": 0, "raised": 0}

    def unit(self, tracer=None) -> UnitResult:
        enclosure = self.pkg.catalog.enclosure
        best_enclosure = self.pkg.catalog.best_enclosure
        timer, results = Pieces(calibrated=tracer is None), []
        for block in self.blocks():
            out = []
            with timer.piece():
                for x in block:
                    ax = abs(x)
                    # a failed call is counted, not fatal; its traceback is
                    # dropped, since it would tie the unit's results in a
                    # cycle and make peak memory wait on the collector
                    for a in ENCLOSURE_PARAMS:
                        try:
                            out.append(enclosure(a, ax))
                        except Exception as exc:
                            out.append(exc.with_traceback(None))
                    try:
                        out.append(best_enclosure(ax, BEST_PARAMS))
                    except Exception as exc:
                        out.append(exc.with_traceback(None))
            results.append((block, out))
        with _paused(tracer):
            return self._check(timer, results)

    def _check(self, timer, results) -> UnitResult:
        res = UnitResult(sum(timer.seconds), timer.at_reference(), 0)
        per_point = len(ENCLOSURE_PARAMS) + 1
        for block, out in results:
            for i, x in enumerate(block):
                ax = abs(x)
                digits = oracle_digits(ax)
                truth = self.pkg.oracle.oracle_arctan(ax, digits).units
                point_failed = False
                for j, enc in enumerate(out[i * per_point:(i + 1) * per_point]):
                    res.attempted += 1
                    if j < len(ENCLOSURE_PARAMS):
                        ok, known = self._check_enclosure(ax, enc, truth, digits)
                    else:
                        ok, known = self._check_best(ax, enc, truth, digits)
                    point_failed |= not ok
                    res.failed += not ok
                    res.unknown += not (ok or known)
                    if not ok:
                        self.failure_kinds[_failure_kind(enc)] += 1
                self._count_point(ax, point_failed)
        return res

    def provenance(self) -> dict:
        return {**super().provenance(), "failed_calls_by_kind": self.failure_kinds}

    @staticmethod
    def _check_enclosure(ax, enc, truth, digits) -> tuple[bool, bool]:
        """(strict containment, failure is of a recorded kind)."""
        if isinstance(enc, Exception):
            return False, False
        try:
            lower, upper = to_units(enc.lower, digits), to_units(enc.upper, digits)
        except (AttributeError, ValueError, OverflowError, TypeError):
            return False, False
        if lower < truth < upper:
            return True, True
        if ax * ax == math.inf and enc.lower == enc.upper == 0.0:
            return False, True
        if lower >= truth:
            return False, _within_known_ulps(enc.lower, lower - truth, digits)
        return False, _within_known_ulps(enc.upper, truth - upper, digits)

    def _check_best(self, ax, enc, truth, digits) -> tuple[bool, bool]:
        if not isinstance(enc, Exception):
            return self._check_enclosure(ax, enc, truth, digits)
        # a rejection is of the recorded kind only when rounding really
        # inverted the constituent enclosures, by at most KNOWN_ULPS
        lowers, uppers = [], []
        for a in BEST_PARAMS:
            try:
                part = self.pkg.catalog.enclosure(a, ax)
            except Exception:
                return False, False
            lowers.append(part.lower)
            uppers.append(part.upper)
        low, high = max(lowers), min(uppers)
        inverted = low > high and low - high <= 2 * KNOWN_ULPS * math.ulp(low)
        return False, inverted


@contextlib.contextmanager
def _paused(tracer):
    if tracer is None:
        yield
    else:
        with tracer.paused():
            yield


# ---------------------------------------------------------------- analysis_session

@dataclass
class Command:
    """A CLI call, the check its JSON output must pass, and the test that
    tells a failure of a recorded kind from an unknown one."""

    argv: list[str]
    check: Callable[[dict], bool]
    known: Callable[[dict], bool] = lambda report: False


def _jittered_grid(rng: random.Random) -> list[str]:
    return ["--grid-min", repr(1e-8 * 10 ** rng.uniform(-0.5, 0.5)),
            "--grid-max", repr(1e8 * 10 ** rng.uniform(-0.5, 0.5))]


def _crossover(lower_side: bool, a_small: float, a_large: float) -> Optional[float]:
    """Closed-form abscissa where the (1+a)x/(a+u) and (pi/2)x/(a+u) members
    of two parameters cross, or None when they do not cross on x > 0."""
    half_pi = math.pi / 2
    if lower_side:   # (1+a1)x/(a1+u) against (pi/2)x/(a2+u)
        u = ((1 + a_small) * a_large - half_pi * a_small) / (half_pi - 1 - a_small)
    else:            # (pi/2)x/(a1+u) against (1+a2)x/(a2+u)
        u = (half_pi * a_large - (1 + a_large) * a_small) / (1 + a_large - half_pi)
    return math.sqrt(u * u - 1) if u > 1 else None


def _regime(a: float) -> str:
    if a <= -1 or 0 <= a <= 0.5:
        return "Increasing"
    if a >= TWO_OVER_PI:
        return "Decreasing"
    if 0.5 < a < TWO_OVER_PI:
        return "InteriorMinimum"
    return "Unclassified"


def _grid_covered(report: dict) -> bool:
    regions, grid = report["regions"], report["grid"]
    counts = report["counts"]
    return (regions[0]["x_lo"] == grid["x_min"] and regions[-1]["x_hi"] == grid["x_max"]
            and counts["a_tighter"] + counts["b_tighter"] + counts["equal"] == grid["points"])


def _dominance(rng: random.Random, bound_a: str, bound_b: str, lower_side: bool,
               params: Optional[tuple[float, float]]) -> Command:
    if params is None:
        a_small, a_large = 0.5, TWO_OVER_PI
        extra = []
    else:
        # draw until the crossover is well conditioned (u >= 1.05) or absent
        while True:
            a_small, a_large = rng.uniform(*params[0]), rng.uniform(*params[1])
            x_cross = _crossover(lower_side, a_small, a_large)
            if x_cross is None or x_cross > 0.33:
                break
        extra = ["--param-a", repr(a_small), "--param-b", repr(a_large)]
    expected = _crossover(lower_side, a_small, a_large)

    def check(report: dict) -> bool:
        found = report["crossovers"]
        if expected is None:
            return _grid_covered(report) and not found
        return (_grid_covered(report) and len(found) == 1
                and abs(found[0] - expected) <= 1e-9 * expected)

    argv = ["dominance", "--bound-a", bound_a, "--bound-b", bound_b, *extra,
            *_jittered_grid(rng), "--format", "json"]
    return Command(argv, check)


def _profile(rng: random.Random, digits: int) -> Command:
    def well_formed(report: dict) -> bool:
        return (report["digits"] == digits and report["certified_everywhere"] is True
                and report["max_actual"] > 0)

    def check(report: dict) -> bool:
        # no slack: the largest actual error may not exceed the largest bound
        return well_formed(report) and report["max_actual"] <= report["max_certified"]

    def known(report: dict) -> bool:
        # the recorded defect: approx misses its bound by rounding of the
        # value, which is at most pi/2
        excess = report["max_actual"] - report["max_certified"]
        return well_formed(report) and excess <= KNOWN_ULPS * math.ulp(math.pi / 2)
    return Command(["profile", "--digits", str(digits), *_jittered_grid(rng),
                    "--format", "json"], check, known)


def _find_min(rng: random.Random) -> Command:
    a = rng.uniform(0.5 + 1e-3, TWO_OVER_PI - 1e-3)

    def check(res: dict) -> bool:
        # an interior minimum lies below both end limits, 1 + a and pi/2,
        # and above the mid-regime constant 4a(1 - a^2)
        return (res["x0"] > 0 and res["residual"] <= 1e-12
                and 4 * a * (1 - a * a) < res["value"] < min(1 + a, math.pi / 2))
    return Command(["find-min", "--a", repr(a), "--format", "json"], check)


def _classify(rng: random.Random) -> Command:
    a = rng.uniform(-2.0, 2.5)
    return Command(["classify", "--a", repr(a), "--format", "json"],
                   lambda res: res["regime"] == _regime(a))


#: One bound of each shape per session, so that sessions cost alike.
SESSION_EVALS = (("shafer-lower", None), ("log-lower", None),
                 ("family-upper", (0.0, 0.5)), ("mid-regime-upper", (0.51, 0.63)))


def _eval(rng: random.Random, pkg, bound: str, a_range) -> Command:
    x = 10 ** rng.uniform(-8.0, 8.0)
    argv = ["eval", "--bound", bound, "--x", repr(x), "--digits", "100", "--format", "json"]
    if a_range is not None:
        argv += ["--a", repr(rng.uniform(*a_range))]

    def check(res: dict) -> bool:
        # the 100-digit value must sit strictly on its claimed side of arctan x
        value = pkg.fixedpoint.FixedReal(res["value_hp"], 100)
        truth = pkg.oracle.oracle_arctan(x, 100)
        return value < truth if bound.endswith("lower") else value > truth
    return Command(argv, check)


def analysis_script(rng: random.Random, pkg) -> list[Command]:
    """One session: profile at 30 and 100 digits, three dominance reports,
    three interior minima, four regime classifications and four 100-digit
    evaluations, all on freshly drawn grids, parameters and points."""
    return [
        _profile(rng, 30),
        _profile(rng, 100),
        _dominance(rng, "family-lower", "reversed-lower", True,
                   ((0.0, 0.5), (TWO_OVER_PI, 2.0))),
        _dominance(rng, "family-upper", "reversed-upper", False,
                   ((0.0, 0.5), (TWO_OVER_PI, 2.0))),
        _dominance(rng, "shafer-lower", "two-over-pi-lower", True, None),
        *(_find_min(rng) for _ in range(3)),
        *(_classify(rng) for _ in range(4)),
        *(_eval(rng, pkg, bound, a_range) for bound, a_range in SESSION_EVALS),
    ]


class AnalysisSession:
    name = "analysis_session"
    UNIT_WALL_S = 0.49

    def __init__(self, seed: int, pkg):
        self.pkg = pkg
        self.rng = random.Random(f"analysis-{seed}")
        self.next_script = analysis_script(self.rng, pkg)

    def unit(self, tracer=None) -> UnitResult:
        script, self.next_script = self.next_script, None
        timer, outputs = Pieces(calibrated=tracer is None), []
        for cmd in script:
            with timer.piece():
                _, code, out = run_cli(self.pkg, cmd.argv)
            outputs.append((cmd, code, out))
        res = UnitResult(sum(timer.seconds), timer.at_reference(), len(script))
        with _paused(tracer):
            for cmd, code, out in outputs:
                res.output_bytes += len(out)
                try:
                    report = json.loads(out)
                    ok = code == 0 and cmd.check(report)
                    known = code == 0 and cmd.known(report)
                except (ValueError, KeyError, TypeError, IndexError):
                    ok = known = False
                res.failed += not ok
                res.unknown += not (ok or known)
            self.next_script = analysis_script(self.rng, self.pkg)
        return res

    def provenance(self) -> dict:
        return {"commands_per_session": len(self.next_script),
                "profile_digits": [30, 100], "eval_digits": 100,
                "sweep_digits": "cli default"}


WORKLOADS = {cls.name: cls for cls in (VerifySuite, KernelApprox, KernelEnclose,
                                        AnalysisSession)}


if __name__ == "__main__":
    # set-up probe: a fresh interpreter imports the package and builds the
    # first inputs of one workload;  python3 bench/workloads.py WORKLOAD SEED
    WORKLOADS[sys.argv[1]](int(sys.argv[2]), import_package())
