"""Benchmark of the arctanbounds package, end to end and layer by layer.

    python3 bench/run.py --workload verify_suite --seed 1 --seconds 20 --trace 0

Runs one workload, closed-loop and single-threaded, for a fixed number of
units of work sized to take about ``--seconds`` seconds, so that a seed
always checks the same inputs.  It checks every output and prints, as its
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it holds the provenance, the workload's
metrics under the names of its own domain and the spread of the unit times.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes a separate
traced run and reports the per-layer metrics and the tracing overhead.
``--workload all`` runs every workload in its own process and prints one
table.  See bench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 11
PROBE_POINTS = 2000
ORACLE_PROBE_POINTS = 300
PROBE_REPEATS = 5
COUNT_PASS_POINTS = 1000
#: The fewest units in a run, so that their median is a median.
MIN_UNITS = 3
#: A certified parameter for each family bound in the eval_bound probe.
PROBE_PARAMS = {"family-lower": 0.25, "family-upper": 0.25, "reversed-lower": 1.0,
                "reversed-upper": 1.0, "mid-regime-lower": 0.6, "mid-regime-upper": 0.6}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_probe(workload: str, seed: int) -> wl.Pieces:
    """Fresh interpreter to package imported and first inputs generated."""
    timer = wl.Pieces()
    with timer.piece():
        # no timeout: with one, subprocess polls the child in steps of up to 50 ms
        subprocess.run([sys.executable, str(BENCH / "workloads.py"), workload, str(seed)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return timer


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "min": min(values), "q1": q1, "median": q2,
            "q3": q3, "max": max(values)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def provenance(args, pkg, work) -> dict:
    src = ROOT / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {"package_version": pkg.version, "python": platform.python_version(),
            "nproc": os.cpu_count(), "commit": commit, "src_sha256": digest.hexdigest(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **work.provenance()}


def named_metrics(work, t: float, attempted: int, failed: int) -> dict:
    """The workload's metrics under the names of its own domain, from the
    median wall time ``t`` of a unit as measured."""
    ratio = failed / attempted
    if work.name == "verify_suite":
        return {"verify_s": metric(t, "s"), "verify_fail_ratio": metric(ratio, "ratio")}
    if work.name == "kernel_approx":
        return {"kernel_approx_per_s": metric(wl.KERNEL_UNIT_POINTS / t, "1/s"),
                "kernel_cert_fail_ratio": metric(ratio, "ratio"),
                "kernel_max_halfwidth": metric(work.max_halfwidth, "rad")}
    if work.name == "kernel_enclose":
        calls = wl.KERNEL_UNIT_POINTS * (len(wl.ENCLOSURE_PARAMS) + 1)
        return {"kernel_enclose_per_s": metric(calls / t, "1/s"),
                "kernel_enclose_fail_ratio": metric(ratio, "ratio")}
    return {"analysis_s": metric(t, "s"), "analysis_fail_ratio": metric(ratio, "ratio")}


def planned_units(work, seconds: float) -> int:
    """Units of work in a run: a fixed number for the workload and
    ``--seconds``, never one that depends on how fast the run goes, so that
    the same seed checks the same inputs and fails the same checks on every
    run.  They fill the window at the speed UNIT_WALL_S was measured at."""
    return max(MIN_UNITS, round(seconds / work.UNIT_WALL_S))


def run_untraced(args, pkg):
    work = wl.WORKLOADS[args.workload](args.seed, pkg)
    count = planned_units(work, args.seconds)
    # set-up probes are spread over the run, so they sample it as a whole
    probes_before = [i * count // SETUP_SAMPLES for i in range(SETUP_SAMPLES)]
    setups, units = [], []
    for index in range(count):
        setups += [setup_probe(args.workload, args.seed)
                   for _ in range(probes_before.count(index))]
        units.append(work.unit())

    times = [u.seconds for u in units]
    ref_times = [u.ref_seconds for u in units]
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    metrics = {
        "setup_s": metric(statistics.median(t.at_reference() for t in setups), "s"),
        "wall_ref_s": metric(statistics.median(ref_times), "s"),
        "ok_ratio": metric(1 - failed / attempted, "ratio"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    calibrations = [c for t in setups for c in t.calibrations]
    detail = {"provenance": provenance(args, pkg, work),
              "named": {**named_metrics(work, statistics.median(times), attempted, failed),
                        "peak_rss_mb": metrics["peak_rss_mb"]},
              "unit_seconds": quartiles(times), "unit_ref_seconds": quartiles(ref_times),
              "setup_seconds": quartiles([t.seconds[0] for t in setups]),
              "calibration_seconds": quartiles(calibrations),
              "unknown_failures": sum(u.unknown for u in units)}
    return detail, units, metrics


# ---------------------------------------------------------------- traced run

def _per_call_ns(loop, calls: int) -> float:
    samples = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter_ns()
        loop()
        samples.append((time.perf_counter_ns() - start) / calls)
    return statistics.median(samples)


def layer_probes(pkg, seed: int) -> dict:
    """Per-call cost of the float entry points next to math.atan, and of the
    oracle at 30, 50 and 100 digits on fresh points (untraced loops)."""
    rng = random.Random(f"probe-{seed}")
    xs = wl.kernel_points(rng, PROBE_POINTS)
    axs = [abs(x) for x in xs]
    cat, ker = pkg.catalog, pkg.kernel
    spec = ker.DEFAULT_KERNEL
    bounds = [(b, PROBE_PARAMS.get(b.value)) for b in cat.BoundId]

    def best_loop():
        for x in axs:
            try:
                cat.best_enclosure(x, wl.BEST_PARAMS)
            except Exception:   # the known inverted-enclosure rejection
                pass

    out = {
        "kernel.approx.ns": _per_call_ns(lambda: [ker.approx(spec, x) for x in xs], len(xs)),
        "kernel.math_atan.ns": _per_call_ns(lambda: [math.atan(x) for x in xs], len(xs)),
        "catalog.eval_bound.ns": _per_call_ns(
            lambda: [cat.eval_bound(b, x, a) for b, a in bounds for x in axs],
            len(bounds) * len(axs)),
        "catalog.enclosure.ns": _per_call_ns(
            lambda: [cat.enclosure(a, x) for a in wl.ENCLOSURE_PARAMS for x in axs],
            len(wl.ENCLOSURE_PARAMS) * len(axs)),
        "catalog.best_enclosure.ns": _per_call_ns(best_loop, len(axs)),
    }
    for digits in (30, 50, 100):
        points = [10 ** rng.uniform(-8.0, 8.0) for _ in range(ORACLE_PROBE_POINTS)]
        start = time.perf_counter_ns()
        for x in points:
            pkg.oracle.oracle_arctan(x, digits)
        out[f"oracle.oracle_arctan.us.d{digits}"] = (
            (time.perf_counter_ns() - start) / len(points) / 1e3)
    return out


def constructions_per_check(seed: int) -> float:
    """FixedReal constructions during a verify suite, oracle grid included,
    per eval_bound_hp call.  Counted in a pass of its own, because counting
    every construction slows the suite by about a third, on a 1000-point grid
    of the same variant: both counts grow with the grid, so the ratio does
    not depend on it."""
    pkg = wl.load_package(fresh=True)
    fixed_real, catalog = pkg.fixedpoint.FixedReal, pkg.catalog
    init, eval_hp = fixed_real.__init__, catalog.eval_bound_hp
    counts = {"checks": 0, "constructions": 0}

    def counted_init(self, *args, **kwargs):
        counts["constructions"] += 1
        init(self, *args, **kwargs)

    def counted_eval(*args, **kwargs):
        counts["checks"] += 1
        return eval_hp(*args, **kwargs)

    fixed_real.__init__, catalog.eval_bound_hp = counted_init, counted_eval
    try:
        _, x_min, x_max = wl.verify_grid(seed)
        wl.run_cli(pkg, wl.verify_argv(x_min, x_max) + ["--grid-points", str(COUNT_PASS_POINTS)])
    finally:
        fixed_real.__init__, catalog.eval_bound_hp = init, eval_hp
    return counts["constructions"] / counts["checks"]


def run_traced(args, pkg):
    works = {name: cls(args.seed, pkg) for name, cls in wl.WORKLOADS.items()}
    target = works[args.workload]
    plain = target.unit()
    tracer = tracing.Tracer()
    traced = {}
    for name, work in works.items():
        if name == "verify_suite":
            traced[name] = work.unit(tracer)       # installs on its fresh import
        else:
            tracer.install(pkg)
            try:
                traced[name] = work.unit(tracer)
            finally:
                tracer.uninstall()
    units = [plain, *traced.values()]
    spans = tracing.SpanIndex(tracer.spans)
    overhead = traced[args.workload].seconds - plain.seconds

    sweep_checks = spans.children_of("oracle.sweep", "catalog.eval_bound_hp")
    solves = spans.count("family.find_interior_minimum")
    metrics = {
        "cli.self_s": metric(spans.self_s("cli.main"), "s"),
        "cli.output_bytes": metric(sum(u.output_bytes for u in traced.values()), "bytes"),
        "oracle.sweep.calls": metric(spans.count("oracle.sweep"), "count"),
        "oracle.sweep.self_s": metric(spans.self_s("oracle.sweep"), "s"),
        "oracle.atan_per_check": metric(
            spans.children_of("oracle.sweep", "fixedpoint.FixedReal.atan") / sweep_checks,
            "ratio"),
        "oracle.dominance_report.s": metric(spans.total_s("oracle.dominance_report"), "s"),
        "oracle.dominance.evals": metric(
            spans.children_of("oracle.dominance_report", "catalog.eval_bound_hp"), "count"),
        "catalog.eval_bound_hp.calls": metric(spans.count("catalog.eval_bound_hp"), "count"),
        "catalog.eval_bound_hp.us": metric(spans.mean_us("catalog.eval_bound_hp"), "us"),
    }
    for bound in pkg.catalog.BoundId:
        metrics[f"catalog.eval_bound_hp.us.{bound.value}"] = metric(
            spans.mean_us("catalog.eval_bound_hp", bound.value), "us")
    metrics["catalog.enclosure.errors"] = metric(
        spans.errors("catalog.enclosure") + spans.errors("catalog.best_enclosure"), "count")
    metrics["fixedpoint.constructions_per_check"] = metric(
        constructions_per_check(args.seed), "ratio")
    for fn in ("atan", "log"):
        name = f"fixedpoint.FixedReal.{fn}"
        metrics[f"fixedpoint.{fn}.calls"] = metric(spans.count(name), "count")
        metrics[f"fixedpoint.{fn}.us"] = metric(spans.mean_us(name), "us")
    metrics["kernel.error_profile.s"] = metric(spans.total_s("kernel.error_profile"), "s")
    metrics["family.find_interior_minimum.us"] = metric(
        spans.mean_us("family.find_interior_minimum"), "us")
    metrics["family.gap_evals_per_solve"] = metric(
        spans.children_of("family.find_interior_minimum", "family.stationarity_gap") / solves,
        "ratio")
    probes = layer_probes(pkg, args.seed)
    for name, value in probes.items():
        metrics[name] = metric(value, "us" if ".us." in name else "ns")
    metrics["trace.overhead_s"] = metric(overhead, "s")
    metrics["trace.overhead_share"] = metric(overhead / plain.seconds, "ratio")

    trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write(trace_file)
    detail = {"provenance": provenance(args, pkg, target),
              "trace_file": str(trace_file.relative_to(ROOT)), "spans": len(tracer.spans),
              "untraced_s": plain.seconds, "traced_s": traced[args.workload].seconds,
              "unknown_failures": sum(u.unknown for u in units)}
    return detail, units, dict(sorted(metrics.items()))


# ---------------------------------------------------------------- all workloads

def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    results, details = {}, {}
    for name in wl.WORKLOADS:
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        details[name], results[name] = json.loads(lines[-2]), json.loads(lines[-1])
    for name, result in results.items():
        shown = {**result["metrics"], **details[name].get("named", {})}
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for key, m in shown.items():
            print(f"  {key:44s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    # one CPU for the run, its calibrations and its set-up probes alike
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    pkg = wl.import_package()
    detail, units, metrics = (run_traced if args.trace else run_untraced)(args, pkg)
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    print(json.dumps(detail))
    print(json.dumps({"correct": detail["unknown_failures"] == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
