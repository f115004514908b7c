"""Command-line front end.

Subcommands mirror the library surface: eval, classify, enclose, find-min,
verify, dominance, profile.  Each handler returns ``(status, payload,
text)``; ``main`` alone writes the text, or for ``--format json`` the
payload indented alike for every command (``classify`` too), to stdout or
to ``--output``; ``profile --format csv`` rows replace the text.  A payload
with ``stats`` gains the provenance: package and Python versions, digits and
grid.  ``verify`` lists the first 25 violations of each entry and counts
them all; its ``--stats`` adds each entry's count of points the sweep
evaluated in fixed point (not the violations it settled in double) and of
points its defect series settled, the fixed-point oracle values computed,
and the times of the double arctan grid and of the sweeps.
``dominance`` gives every grid point one exact verdict; its ``--stats`` adds
the grid points and bisection steps decided in fixed point and the report's
time.  ``profile --stats`` adds the rows measured in fixed point, those of
them at extra digits, and the rows' time.  ``enclose`` gives an
outward-rounded bracket.

A process builds the parser once, on its first ``main`` call, and reuses it.
Importing this module loads ``catalog``, ``fixedpoint`` and ``errors`` of the
package; ``eval``, ``classify`` and ``enclose`` use no more.  Each other
handler imports what it uses when it runs: ``find-min`` loads ``family`` (and
``oracle``, whose crossover bisection it shares), ``verify`` and
``dominance`` load ``oracle``, and ``profile`` loads ``kernel`` and ``oracle``.

Exit status: 0 on success, 1 when a verification suite finds a violation of a
trusted bound (the known-errata entry is expected to fail and does not count),
2 on usage or parameter errors, an ``eval`` value that does not fit a double,
or an --output file that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import io
import json
import math
import re
import sys
import time
from typing import Optional

from . import catalog as cat
from . import __version__
from .errors import ArctanBoundsError, DomainError, ParamError

#: The package this module was imported with.
_PACKAGE = sys.modules[__package__]


def _submodule(name: str):
    """The package's submodule `name`, imported on first use.

    Read from the package this module came with, as an import at the top
    would have bound it, not from sys.modules: when the package is imported
    afresh beside this module (its sys.modules entries dropped, as a fresh
    import does), this module's handlers keep the modules of its own import.
    """
    try:
        return getattr(_PACKAGE, name)
    except AttributeError:
        return importlib.import_module(f".{name}", __package__)


#: Parameters swept per family bound by `verify --suite all`.
SUITE_FAMILY_PARAMS = {
    cat.BoundId.FAMILY_LOWER: (0.0, 0.1, 0.25, 0.5),
    cat.BoundId.FAMILY_UPPER: (0.0, 0.1, 0.25, 0.5),
    cat.BoundId.REVERSED_LOWER: (cat.TWO_OVER_PI, 0.7, 1.0, 2.0),
    cat.BoundId.REVERSED_UPPER: (cat.TWO_OVER_PI, 0.7, 1.0, 2.0),
    cat.BoundId.MID_REGIME_LOWER: (0.55, 0.6),
    cat.BoundId.MID_REGIME_UPPER: (0.55, 0.6),
}

#: Violations listed per entry in a verify report; violation_count counts all.
VIOLATIONS_LISTED = 25


def _grid_from_args(args):
    return _submodule("oracle").GridSpec(args.grid_min, args.grid_max,
                                         args.grid_points, args.grid_spacing)


def _add_grid_args(p: argparse.ArgumentParser, points: int) -> None:
    p.add_argument("--grid-min", type=float, default=1e-8)
    p.add_argument("--grid-max", type=float, default=1e8)
    p.add_argument("--grid-points", type=int, default=points)
    p.add_argument("--grid-spacing", choices=["log", "linear"], default="log")


def _add_output_args(p: argparse.ArgumentParser, rows: bool = False) -> None:
    formats = ["text", "json", "csv"] if rows else ["text", "json"]
    p.add_argument("--format", choices=formats, default="text")
    p.add_argument("--output", default=None, help="write the report to a file")


def _emit(args, text: str) -> None:
    """Write text, newline-ended, to stdout or to --output (OSError: exit 2)."""
    if not text.endswith("\n"):
        text += "\n"
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", newline="", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ParamError(f"cannot write --output {args.output!r}: "
                         f"{exc.strerror or exc}") from None


def _bound_arg(value: str) -> cat.BoundId:
    try:
        return cat.BoundId(value)
    except ValueError:
        choices = ", ".join(b.value for b in cat.BoundId)
        raise argparse.ArgumentTypeError(f"unknown bound {value!r}; one of: {choices}")


#: A token to read as a negative number: argparse reads -1 or -0.5 as a
#: value, but -1e-05, -.5 or -inf as an option, failing "--a -1e-05".
_NEGATIVE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _join_negative_values(argv: list[str]) -> list[str]:
    """Join each negative number to an --option before it, as --option=value."""
    joined = []
    for token in argv:
        if joined and re.fullmatch(r"--[^=]+", joined[-1]) and _NEGATIVE.match(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one in the process; parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="arctan-bounds",
        description="Certified closed-form bounds for arctan: evaluate, "
                    "classify, verify, compare, and profile.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate one catalog bound at a point")
    p.add_argument("--bound", type=_bound_arg, required=True,
                   metavar="ID", help="bound identifier, e.g. shafer-lower")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--a", type=float, default=None, help="family parameter")
    p.add_argument("--digits", type=int, default=0,
                   help="also print a fixed-point evaluation at this many digits")
    _add_output_args(p)

    p = sub.add_parser("classify", help="monotonicity regime of a parameter")
    p.add_argument("--a", type=float, required=True)
    _add_output_args(p)

    p = sub.add_parser("enclose", help="two-sided enclosure of arctan at a point")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    _add_output_args(p)

    p = sub.add_parser("find-min", help="interior minimum of the family ratio")
    p.add_argument("--a", type=float, required=True)
    _add_output_args(p)

    p = sub.add_parser("verify", help="sweep the catalog against the oracle")
    p.add_argument("--suite", choices=["all", "fixed", "family"], default="all")
    _add_grid_args(p, points=10_000)
    p.add_argument("--digits", type=int, default=cat.DEFAULT_SWEEP_DIGITS,
                   help="oracle digits; below 50 the thinnest margins on the "
                        "default grid are unresolvable")
    p.add_argument("--stats", action="store_true",
                   help="add fixed-point and defect-series point counts, phase "
                        "times and provenance to the JSON report")
    _add_output_args(p)

    p = sub.add_parser("dominance", help="which of two same-side bounds is tighter where")
    p.add_argument("--bound-a", type=_bound_arg, required=True, metavar="ID")
    p.add_argument("--bound-b", type=_bound_arg, required=True, metavar="ID")
    p.add_argument("--param-a", type=float, default=None)
    p.add_argument("--param-b", type=float, default=None)
    _add_grid_args(p, points=2_000)
    p.add_argument("--digits", type=int, default=cat.DEFAULT_SWEEP_DIGITS)
    p.add_argument("--stats", action="store_true",
                   help="add fixed-point counts, the report's time and "
                        "provenance to the JSON report")
    _add_output_args(p)

    p = sub.add_parser("profile", help="certified vs actual kernel error over a grid")
    _add_grid_args(p, points=2_000)
    p.add_argument("--digits", type=int, default=cat.DEFAULT_DIGITS)
    p.add_argument("--stats", action="store_true",
                   help="add the rows measured in fixed point, those at extra "
                        "digits, the rows' time and provenance to the JSON or "
                        "text report")
    _add_output_args(p, rows=True)

    return parser


def _cmd_eval(args) -> tuple[int, dict, str]:
    value = cat.eval_bound(args.bound, args.x, args.a)
    if not math.isfinite(value):    # JSON has no infinity; text matches it
        raise DomainError(f"{args.bound.value} at x={args.x!r}: the bound "
                          f"does not fit a double")
    payload = {"bound": args.bound.value, "x": args.x, "a": args.a, "value": value}
    text = f"{args.bound.value}(x={args.x!r}" + \
        (f", a={args.a!r}" if args.a is not None else "") + f") = {value!r}"
    if args.digits:
        payload["value_hp"] = cat.eval_bound_hp(
            args.bound, args.x, args.a, digits=args.digits).as_decimal_string()
        text += f"\nfixed-point [{args.digits} digits] = {payload['value_hp']}"
    return 0, payload, text


def _cmd_classify(args) -> tuple[int, dict, str]:
    proof = cat.prove_regime(args.a)
    payload = {"a": args.a, "regime": proof.regime.value,
               "certificate": proof.to_json_dict()}
    return 0, payload, proof.regime.value


def _cmd_enclose(args) -> tuple[int, dict, str]:
    enc = cat.enclosure(args.a, args.x)
    payload = {"a": args.a, "x": args.x, "lower": enc.lower, "upper": enc.upper,
               "half_width": enc.half_width, "midpoint": enc.midpoint}
    return 0, payload, (f"arctan({args.x!r}) in ({enc.lower!r}, {enc.upper!r})"
                        f"  half_width={enc.half_width!r}")


def _cmd_find_min(args) -> tuple[int, dict, str]:
    fam = _submodule("family")
    res = fam.find_interior_minimum(args.a)
    payload = {"a": args.a, "x0": res.x0, "value": res.value, "u": res.u,
               "residual": res.residual}
    return 0, payload, (f"minimum of the ratio at a={args.a!r}: x0={res.x0!r} "
                        f"value={res.value!r} u={res.u!r} residual={res.residual!r}")


def _suite_entries(suite: str):
    fixed = [(b, None) for b in cat.BoundId if not cat.bound_takes_param(b)]
    family = [(b, a) for b, params in SUITE_FAMILY_PARAMS.items() for a in params]
    return {"fixed": fixed, "family": family, "all": fixed + family}[suite]


def _cmd_verify(args) -> tuple[int, dict, str]:
    orc = _submodule("oracle")
    orc.check_digits(args.digits, "sweep")     # before the timed oracle build
    grid = _grid_from_args(args)
    results = []
    failed = False
    started = time.perf_counter()
    if args.stats:
        orc._fast_atan_on_grid(grid)
    oracle_done = time.perf_counter()
    oracle_misses = orc._oracle_at.cache_info().misses
    for bound, a in _suite_entries(args.suite):
        report = orc.sweep(bound, a=a, grid=grid, digits=args.digits)
        entry = report.to_json_dict(limit=VIOLATIONS_LISTED)
        if args.stats:
            entry["escalated"] = report.escalated
            entry["series"] = report.series
        if cat.bound_is_trusted(bound):
            entry["status"] = "ok" if report.ok else "violation"
            failed = failed or not report.ok
        else:
            entry["status"] = ("known-errata-confirmed" if not report.ok
                               else "known-errata-not-reproduced")
        if report.violation_count > VIOLATIONS_LISTED:
            entry["violations_truncated"] = True
        results.append(entry)

    payload = {
        "suite": args.suite,
        "digits": args.digits,
        "grid": grid.to_json_dict(),
        "results": results,
        "ok": not failed,
    }
    lines = []
    for entry in results:
        label = entry["bound"] + (f"[a={entry['a']}]" if entry["a"] is not None else "")
        lines.append(f"{entry['status']:>28}  {label:34s} "
                     f"violations={entry['violation_count']:<6d} "
                     f"min_margin={entry['min_margin']:.3e}")
    lines.append(f"suite={args.suite} ok={not failed}")
    if args.stats:
        stats = payload["stats"] = {
            "oracle_s": oracle_done - started,
            "sweep_s": time.perf_counter() - oracle_done,
            "escalated": sum(entry["escalated"] for entry in results),
            "series": sum(entry["series"] for entry in results),
            "checked": grid.points * len(results),
            "oracle_points": orc._oracle_at.cache_info().misses - oracle_misses,
        }
        lines.append(f"fixed point at {stats['escalated']} and defect series at "
                     f"{stats['series']} of {stats['checked']} point checks; "
                     f"oracle in fixed point at {stats['oracle_points']} points, "
                     f"double arctan grid {stats['oracle_s']:.3f} s, "
                     f"sweeps {stats['sweep_s']:.3f} s")
    return int(failed), payload, "\n".join(lines)


def _cmd_dominance(args) -> tuple[int, dict, str]:
    orc = _submodule("oracle")
    grid = _grid_from_args(args)
    started = time.perf_counter()
    report = orc.dominance_report(args.bound_a, args.bound_b,
                                  a_a=args.param_a, a_b=args.param_b,
                                  grid=grid, digits=args.digits)
    payload = report.to_json_dict()
    lines = [f"side={report.side}  A={report.bound_a.value} B={report.bound_b.value}",
             f"points: A tighter {report.a_tighter}, B tighter {report.b_tighter}, "
             f"equal {report.equal}"]
    for region in report.regions:
        lines.append(f"  [{region.x_lo:.6e}, {region.x_hi:.6e}] {region.verdict}")
    if report.crossovers:
        lines.append("crossovers: " + ", ".join(f"{c!r}" for c in report.crossovers))
    if args.stats:
        stats = payload["stats"] = {
            "dominance_s": time.perf_counter() - started,
            "escalated": report.escalated,
            "checked": grid.points,
            "escalated_steps": report.escalated_steps,
            "bisection_steps": report.bisection_steps,
        }
        lines.append(f"fixed point at {stats['escalated']} of {stats['checked']} "
                     f"grid points and {stats['escalated_steps']} of "
                     f"{stats['bisection_steps']} bisection steps; "
                     f"dominance {stats['dominance_s']:.3f} s")
    return 0, payload, "\n".join(lines)


def _cmd_profile(args) -> tuple[int, dict, str]:
    if args.stats and args.format == "csv":
        raise ParamError("--stats needs --format json or text; CSV holds rows only")
    ker = _submodule("kernel")
    spec = ker.DEFAULT_KERNEL
    grid = _grid_from_args(args)
    started = time.perf_counter()
    prof = ker.error_profile(spec, grid, digits=args.digits)
    payload = prof.to_json_dict()
    text = (f"kernel a_low={spec.a_low!r} a_high={spec.a_high!r}\n"
            f"max certified error = {prof.max_certified!r}\n"
            f"max actual error    = {prof.max_actual!r}\n"
            f"certified everywhere: {payload['certified_everywhere']}")
    if args.stats:
        stats = payload["stats"] = {
            "exact_rows": prof.exact_rows,
            "extra_digit_rows": prof.extra_digit_rows,
            "rows_s": time.perf_counter() - started,
        }
        text += (f"\nfixed point at {stats['exact_rows']} of {grid.points} rows "
                 f"({stats['extra_digit_rows']} at extra digits); "
                 f"rows {stats['rows_s']:.3f} s")
    if args.format == "csv":
        rows = io.StringIO()
        prof.write_csv(rows)
        text = rows.getvalue()
    return 0, payload, text


_HANDLERS = {
    "eval": _cmd_eval,
    "classify": _cmd_classify,
    "enclose": _cmd_enclose,
    "find-min": _cmd_find_min,
    "verify": _cmd_verify,
    "dominance": _cmd_dominance,
    "profile": _cmd_profile,
}


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(
            _join_negative_values(sys.argv[1:] if argv is None else argv))
        status, payload, text = _HANDLERS[args.command](args)
        if "stats" in payload:
            payload["stats"].update(
                package_version=__version__,
                python_version="%d.%d.%d" % sys.version_info[:3],
                digits=args.digits,
                grid=_grid_from_args(args).to_json_dict())
        if args.format == "json":
            text = json.dumps(payload, indent=2)
        _emit(args, text)
        return status
    except ArctanBoundsError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
