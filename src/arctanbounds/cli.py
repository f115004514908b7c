"""Command-line front end.

Subcommands mirror the library surface: eval, classify, enclose, find-min,
verify, dominance, profile.  Each handler returns ``(status, payload,
text)``; ``main`` alone writes the text, or for ``--format json`` the
payload indented alike for every command (``classify`` too), in one pass
and byte for byte as ``json.dumps(payload, indent=2)`` writes it, to
stdout or to ``--output``; ``profile --format csv`` rows replace the
text.  A payload with ``stats`` gains the provenance: package and Python
versions, and for a command with a grid its digits and grid.  ``verify`` lists the first 25
violations of each entry and counts them all; its ``--stats`` adds each
entry's count of the monotone pieces its sweep cut the grid into and of the
points at which it evaluated the bound in fixed point (the far end of a
piece where the bound holds, and a violation between the ends of its run,
are not among them), the fixed-point oracle values computed, and the
sweeps' time.
``dominance`` gives every grid point one exact verdict; its ``--stats`` adds
the report's time, its method, the degree of the polynomial whose roots cut
the grid, their brackets and the digits of pi, and the grid points at a
bracket's end, or for a log row the grid points and bisection steps decided
in fixed point.  ``profile --stats`` adds the rows measured in fixed point,
those of them at extra digits, and the rows' time.
``find-min --stats`` adds the solve's time, the fixed-point evaluations of
the gap and their most digits, the certified bracket of which x0 is an
end, and the digits a sign starts from.
``enclose`` gives an outward-rounded bracket; its ``--stats`` adds the
call's time and the branch its ends come from: ``family``, the closed
forms, ``tiny`` below ``x = 2**-1000``, or ``subnormal`` where ``x/(a+u)``
is.  ``eval --stats`` adds the evaluation's time and the digits at which
its double settled (``digits``; ``--digits`` sets only the extra
fixed-point value), and ``classify --stats`` the proof's time and the test
of ``prove_regime`` that returned: ``unclassified`` for ``-1 < a < 0``,
``h_at_one`` (``a <= -1`` or ``h(1) <= 0``: increasing), ``slope`` (a positive
slope of ``h``: decreasing) or ``g_inf`` (the sign of ``g(inf)``).

A process builds the parser of a command on the command's first ``main``
call, and reuses it.  A command line that does not start with a command, or
that leaves arguments over, is read by the parser of all the commands, built
and reused likewise, so its help, errors and exit status are the same.
Importing this module loads ``catalog``, ``fixedpoint`` and ``errors`` of the
package; ``eval``, ``classify`` and ``enclose`` use no more.  Each other
handler imports what it uses when it runs: ``find-min`` loads ``family``
alone, ``verify`` ``oracle``, ``dominance`` ``oracle`` and ``algebra``, and
``profile`` ``kernel``, ``oracle`` and ``runs``.

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
from . import fixedpoint as fp
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


def _add_report_args(p: argparse.ArgumentParser, stats: str, rows: bool = False) -> None:
    """--stats with help `stats`, then --format and --output."""
    p.add_argument("--stats", action="store_true", help=stats)
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
#: An --option that a value may be joined to.
_LONG_OPTION = re.compile(r"--[^=]+")


def _join_negative_values(argv: list[str]) -> list[str]:
    """Join each negative number to an --option before it, as --option=value."""
    joined = []
    for token in argv:
        if joined and _LONG_OPTION.fullmatch(joined[-1]) and _NEGATIVE.match(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _eval_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bound", type=_bound_arg, required=True,
                   metavar="ID", help="bound identifier, e.g. shafer-lower")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--a", type=float, default=None, help="family parameter")
    p.add_argument("--digits", type=int, default=0,
                   help="also print a fixed-point evaluation at this many digits")
    _add_report_args(p, "add the evaluation's time, the digits that settled "
                        "its double and provenance to the JSON or text report")


def _classify_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=float, required=True)
    _add_report_args(p, "add the proof's time, the test that decided it and "
                        "provenance to the JSON or text report")


def _enclose_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    _add_report_args(p, "add the enclosure's time, the branch its ends come "
                        "from and provenance to the JSON or text report")


def _find_min_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=float, required=True)
    _add_report_args(p, "add the fixed-point gap evaluations, the certified "
                        "bracket, the solve's time and provenance to the JSON "
                        "or text report")


def _verify_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--suite", choices=["all", "fixed", "family"], default="all")
    _add_grid_args(p, points=10_000)
    p.add_argument("--digits", type=int, default=cat.DEFAULT_SWEEP_DIGITS,
                   help="starting digits of the fixed-point checks, doubled "
                        "where a margin lies within its error bound (at least 20)")
    _add_report_args(p, "add the monotone pieces, the fixed-point point "
                        "counts, the sweeps' time and provenance to the JSON "
                        "report")


def _dominance_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bound-a", type=_bound_arg, required=True, metavar="ID")
    p.add_argument("--bound-b", type=_bound_arg, required=True, metavar="ID")
    p.add_argument("--param-a", type=float, default=None)
    p.add_argument("--param-b", type=float, default=None)
    _add_grid_args(p, points=2_000)
    # not an option: every verdict is exact, and its signs start here
    p.set_defaults(digits=cat.DEFAULT_SWEEP_DIGITS)
    _add_report_args(p, "add how the verdicts were reached, the report's "
                        "time and provenance to the JSON report")


def _profile_options(p: argparse.ArgumentParser) -> None:
    _add_grid_args(p, points=2_000)
    p.add_argument("--digits", type=int, default=cat.DEFAULT_DIGITS)
    _add_report_args(p, "add the rows measured in fixed point, those at extra "
                        "digits, the rows' time and provenance to the JSON or "
                        "text report", rows=True)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and shared by
    every later one in the process; parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="arctan-bounds",
        description="Certified closed-form bounds for arctan: evaluate, "
                    "classify, verify, compare, and profile.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, add_options, _) in _COMMANDS.items():
        add_options(sub.add_parser(command, help=help_text))
    return parser


@functools.cache
def _command_parser(command: str) -> argparse.ArgumentParser:
    """One command's parser alone, built and shared as build_parser's is,
    with the prog, options and messages of build_parser's for it."""
    parser = argparse.ArgumentParser(prog=f"arctan-bounds {command}")
    _COMMANDS[command][1](parser)
    return parser


def _parse(argv: list[str]):
    """argv's command and options, from the command's own parser where argv
    starts with a command and leaves no argument over, else from
    build_parser, whose help, errors and exit statuses they then are."""
    if argv and argv[0] in _COMMANDS:
        args, rest = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            return argv[0], args
    args = build_parser().parse_args(argv)
    return args.command, args


def _cmd_eval(args) -> tuple[int, dict, str]:
    if args.digits > fp.MAX_DIGITS:
        raise ParamError(f"eval needs at most {fp.MAX_DIGITS} digits")
    started = time.perf_counter()
    value, digits = cat._settled(args.bound, args.x, args.a)
    eval_s = time.perf_counter() - started
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
    if args.stats:
        payload["stats"] = {"eval_s": eval_s, "digits": digits}
        text += f"\nsettled at {digits} digits; eval {eval_s * 1e6:.1f} us"
    return 0, payload, text


def _decided_by(proof) -> str:
    """The test of prove_regime that returned its regime."""
    if proof.regime is cat.Regime.UNCLASSIFIED:
        return "unclassified"
    if proof.g_inf_sign is not None:
        return "g_inf"
    return "slope" if proof.regime is cat.Regime.DECREASING else "h_at_one"


def _cmd_classify(args) -> tuple[int, dict, str]:
    started = time.perf_counter()
    proof = cat.prove_regime(args.a)
    classify_s = time.perf_counter() - started
    payload = {"a": args.a, "regime": proof.regime.value,
               "certificate": proof.to_json_dict()}
    text = proof.regime.value
    if args.stats:
        decided_by = _decided_by(proof)
        payload["stats"] = {"classify_s": classify_s, "decided_by": decided_by}
        text += f"\ndecided by {decided_by}; classify {classify_s * 1e6:.1f} us"
    return 0, payload, text


def _cmd_enclose(args) -> tuple[int, dict, str]:
    started = time.perf_counter()
    enc = cat.enclosure(args.a, args.x)
    enclose_s = time.perf_counter() - started
    payload = {"a": args.a, "x": args.x, "lower": enc.lower, "upper": enc.upper,
               "half_width": enc.half_width, "midpoint": enc.midpoint}
    text = (f"arctan({args.x!r}) in ({enc.lower!r}, {enc.upper!r})"
            f"  half_width={enc.half_width!r}")
    if args.stats:
        # read from x and the ends, as enclosure chose them: a family lower
        # end is at least 2**-1022, so 0 marks the subnormal branch
        branch = ("tiny" if args.x < cat._TINY
                  else "subnormal" if enc.lower == 0.0 else "family")
        payload["stats"] = {"enclose_s": enclose_s, "branch": branch}
        text += f"\n{branch} branch; enclose {enclose_s * 1e6:.1f} us"
    return 0, payload, text


def _cmd_find_min(args) -> tuple[int, dict, str]:
    fam = _submodule("family")
    started = time.perf_counter()
    res = fam.find_interior_minimum(args.a)
    solve_s = time.perf_counter() - started
    payload = {"a": args.a, "x0": res.x0, "value": res.value, "u": res.u,
               "residual": res.residual}
    text = (f"minimum of the ratio at a={args.a!r}: x0={res.x0!r} "
            f"value={res.value!r} u={res.u!r} residual={res.residual!r}")
    if args.stats:
        payload["stats"] = {
            "solve_s": solve_s,
            "gap_evals": res.gap_evals,
            "max_digits": res.max_digits,
            "bracket": list(res.bracket),
            "digits": fam.GAP_DIGITS,
        }
        p, q = res.bracket
        text += (f"\ngap in fixed point at {res.gap_evals} evaluations, up to "
                 f"{res.max_digits} digits; bracket [{p!r}, {q!r}]; "
                 f"solve {solve_s:.3f} s")
    return 0, payload, text


def _suite_entries(suite: str):
    fixed = [(b, None) for b in cat.BoundId if not cat.bound_takes_param(b)]
    family = [(b, a) for b, params in SUITE_FAMILY_PARAMS.items() for a in params]
    return {"fixed": fixed, "family": family, "all": fixed + family}[suite]


def _cmd_verify(args) -> tuple[int, dict, str]:
    orc = _submodule("oracle")
    orc.check_digits(args.digits, "sweep")
    grid = _grid_from_args(args)
    results = []
    failed = False
    started = time.perf_counter()
    oracle_misses = orc._oracle_at.cache_info().misses
    for bound, a in _suite_entries(args.suite):
        report = orc.sweep(bound, a=a, grid=grid, digits=args.digits)
        entry = report.to_json_dict(limit=VIOLATIONS_LISTED)
        if args.stats:
            entry.update(pieces=report.pieces, escalated=report.escalated)
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
            "sweep_s": time.perf_counter() - started,
            "pieces": sum(entry["pieces"] for entry in results),
            "escalated": sum(entry["escalated"] for entry in results),
            "checked": grid.points * len(results),
            "oracle_points": orc._oracle_at.cache_info().misses - oracle_misses,
        }
        lines.append(f"fixed point at {stats['escalated']} of {stats['checked']} point "
                     f"checks in {stats['pieces']} monotone pieces; oracle in fixed "
                     f"point at {stats['oracle_points']} points, sweeps "
                     f"{stats['sweep_s']:.3f} s")
    return int(failed), payload, "\n".join(lines)


def _cmd_dominance(args) -> tuple[int, dict, str]:
    orc = _submodule("oracle")
    grid = _grid_from_args(args)
    started = time.perf_counter()
    report = orc.dominance_report(args.bound_a, args.bound_b,
                                  a_a=args.param_a, a_b=args.param_b, grid=grid)
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
            "method": report.method, "checked": grid.points, "degree": report.degree,
            # a root past DBL_MAX has inf for its upper end: null in JSON
            "brackets": [[lo, hi if hi < math.inf else None] for lo, hi in report.brackets],
        }
        roots = f"degree {report.degree}, roots {len(report.brackets)}"
        pi = f"pi to {report.pi_digits} digits; dominance {stats['dominance_s']:.3f} s"
        if report.method == "algebra":
            stats.update(bracket_points=report.bracket_points, pi_digits=report.pi_digits)
            lines.append(f"algebra: {roots}, {report.bracket_points} of {grid.points} "
                         f"grid points at a bracket end, {pi}")
        else:
            stats.update(pi_digits=report.pi_digits, escalated=report.escalated,
                         bisection_steps=report.bisection_steps)
            lines.append(f"monotone pieces: {roots}, fixed point at {report.escalated} "
                         f"of {grid.points} grid points and {report.bisection_steps} "
                         f"bisection steps, {pi}")
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


#: Each command's help line, the function that adds its options and its
#: handler, in the order build_parser lists them.
_COMMANDS = {
    "eval": ("evaluate one catalog bound at a point", _eval_options, _cmd_eval),
    "classify": ("monotonicity regime of a parameter", _classify_options, _cmd_classify),
    "enclose": ("two-sided enclosure of arctan at a point", _enclose_options, _cmd_enclose),
    "find-min": ("interior minimum of the family ratio", _find_min_options, _cmd_find_min),
    "verify": ("sweep the catalog against the oracle", _verify_options, _cmd_verify),
    "dominance": ("which of two same-side bounds is tighter where", _dominance_options,
                  _cmd_dominance),
    "profile": ("certified vs actual kernel error over a grid", _profile_options,
                _cmd_profile),
}


def _float_text(x: float) -> str:
    """A float as json.dumps writes it: its repr, or NaN, Infinity or
    -Infinity."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _key_text(key) -> str:
    """A dict key as json.dumps writes it, before its quotes: a number, a
    bool or None as its JSON text."""
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _json_text(obj) -> str:
    """json.dumps(obj, indent=2), byte for byte, in one pass: CPython runs
    an indented dumps in its pure-Python encoder, a generator a level."""
    parts = []
    put, quote = parts.append, json.encoder.encode_basestring_ascii

    def write(o, newline: str) -> None:
        if isinstance(o, str):
            put(quote(o))
        elif o is None:
            put("null")
        elif o is True:
            put("true")
        elif o is False:
            put("false")
        elif isinstance(o, int):
            put(int.__repr__(o))
        elif isinstance(o, float):
            put(_float_text(o))
        elif isinstance(o, (list, tuple, dict)):
            is_dict = isinstance(o, dict)
            if not o:
                put("{}" if is_dict else "[]")
                return
            inner, sep = newline + "  ", "{" if is_dict else "["
            for item in o.items() if is_dict else o:
                put(sep + inner)
                if is_dict:
                    put(quote(_key_text(item[0])) + ": ")
                    item = item[1]
                write(item, inner)
                sep = ","
            put(newline + ("}" if is_dict else "]"))
        else:
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")

    write(obj, "\n")
    return "".join(parts)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        command, args = _parse(
            _join_negative_values(sys.argv[1:] if argv is None else argv))
        status, payload, text = _COMMANDS[command][2](args)
        if "stats" in payload:
            stats = payload["stats"]
            stats.update(package_version=__version__,
                         python_version="%d.%d.%d" % sys.version_info[:3])
            if "grid_points" in args:
                stats.update(digits=args.digits,
                             grid=_grid_from_args(args).to_json_dict())
        if args.format == "json":
            text = _json_text(payload)
        _emit(args, text)
        return status
    except ArctanBoundsError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
