import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arctanbounds
from arctanbounds import catalog as cat
from arctanbounds import cli
from arctanbounds import find_interior_minimum
from arctanbounds import oracle as orc

VERIFY_ARGS = ["verify", "--grid-points", "300", "--format", "json"]
#: verify --suite all --format json on the default grid, recorded before the
#: sweep settled violations in double; the output must not move by a byte
VERIFY_GOLDEN = Path(__file__).parent / "data" / "verify_default.json"
#: verify --suite all on [1e7, 1e8], as the double filter of loose pieces
#: reported it
VERIFY_1E7_1E8 = Path(__file__).parent / "data" / "verify_1e7_1e8.json"
#: profile's output, keyed by its command line, and one 200-point CSV,
#: recorded when every row was measured in fixed point
PROFILE_GOLDEN = Path(__file__).parent / "data" / "profile_golden.json"
PROFILE_CSV_GOLDEN = Path(__file__).parent / "data" / "profile_200.csv"


def strict_json(text):
    """json.loads refusing NaN, Infinity and -Infinity, which RFC 8259 has
    no place for and strict parsers reject."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_classify_text(self, capsys):
        code, out, _ = run(capsys, ["classify", "--a", "0.6"])
        assert code == 0
        assert out.strip() == "InteriorMinimum"

    def test_classify_json(self, capsys):
        code, out, _ = run(capsys, ["classify", "--a", "-0.5", "--format", "json"])
        assert code == 0
        assert strict_json(out) == {"a": -0.5, "regime": "Unclassified", "certificate": {}}

    @pytest.mark.parametrize("a", ["-3", "0", "0.5", "0.6", "0.7", "2", "1e300"])
    def test_classify_json_certificate(self, capsys, a):
        code, out, _ = run(capsys, ["classify", "--a", a, "--format", "json"])
        assert code == 0
        payload = strict_json(out)
        proof = cat.prove_regime(float(a))
        assert payload == {"a": float(a), "regime": proof.regime.value,
                           "certificate": proof.to_json_dict()}
        assert all(isinstance(v, str) for v in payload["certificate"].values())

    def test_eval(self, capsys):
        code, out, _ = run(capsys, ["eval", "--bound", "shafer-lower", "--x", "1",
                                    "--format", "json"])
        assert code == 0
        # the double nearest the bound 0.78361162489122432754...
        assert strict_json(out)["value"] == 0.7836116248912244

    def test_eval_where_c_times_x_overflows_a_double(self, capsys):
        # (1 + a) * x overflows in double, yet the bound lies within a
        # relative 1e-150 of x
        code, out, _ = run(capsys, ["eval", "--bound", "reversed-upper", "--a", "1e300",
                                    "--x", "1e150", "--format", "json"])
        assert code == 0
        assert strict_json(out)["value"] == 1e150

    def test_eval_above_square_overflow(self, capsys):
        # x*x overflows above ~1.34e154; the float form used to read 0.0 here
        code, out, _ = run(capsys, ["eval", "--bound", "family-upper", "--a", "0.25",
                                    "--x", "1e200"])
        assert code == 0
        assert out == "family-upper(x=1e+200, a=0.25) = 1.5707963267948966\n"

    def test_eval_with_fixed_point(self, capsys):
        code, out, _ = run(capsys, ["eval", "--bound", "shafer-lower", "--x", "1",
                                    "--digits", "30", "--format", "json"])
        assert code == 0
        payload = strict_json(out)
        assert payload["value_hp"].startswith("0.7836116248912243")

    def test_enclose(self, capsys):
        code, out, _ = run(capsys, ["enclose", "--a", "0.5", "--x", "1",
                                    "--format", "json"])
        assert code == 0
        payload = strict_json(out)
        assert payload["lower"] < 0.7853982 < payload["upper"]

    def test_enclose_without_stats_is_unchanged(self, capsys):
        argv = ["enclose", "--a", "0.5", "--x", "1"]
        assert run(capsys, argv) == (
            0, "arctan(1.0) in (0.7836116248912228, 0.8205961746752783)"
               "  half_width=0.01849227489202776\n", "")
        assert run(capsys, argv + ["--format", "json"]) == (
            0, '{\n  "a": 0.5,\n  "x": 1.0,\n  "lower": 0.7836116248912228,\n'
               '  "upper": 0.8205961746752783,\n  "half_width": 0.01849227489202776,\n'
               '  "midpoint": 0.8021038997832506\n}\n', "")

    @pytest.mark.parametrize("a,x,branch", [
        (0.5, 1.0, "family"), (cat.TWO_OVER_PI, sys.float_info.max, "family"),
        (0.0, 2.0 ** -1000, "family"), (0.5, math.nextafter(2.0 ** -1000, 0.0), "tiny"),
        (0.0, 5e-324, "tiny"), (1e300, 1e-10, "subnormal"),
    ])
    def test_enclose_stats(self, capsys, a, x, branch):
        argv = ["enclose", "--a", repr(a), "--x", repr(x), "--format", "json"]
        code, out, _ = run(capsys, argv + ["--stats"])
        assert code == 0
        payload = strict_json(out)
        stats = payload.pop("stats")
        assert set(stats) == {"enclose_s", "branch", "package_version", "python_version"}
        assert stats["branch"] == branch and 0 < stats["enclose_s"] < 1
        assert stats["package_version"] == arctanbounds.__version__
        assert stats["python_version"] == "%d.%d.%d" % sys.version_info[:3]
        assert [payload["lower"], payload["upper"]] == list(cat.enclosure(a, x))
        # without --stats the report carries none of it
        code, plain, _ = run(capsys, argv)
        assert strict_json(plain) == payload
        code, out, _ = run(capsys, argv[:-2] + ["--stats"])
        lines = out.splitlines()
        assert code == 0 and len(lines) == 2
        assert re.fullmatch(rf"{branch} branch; enclose \d+\.\d us", lines[1])

    @pytest.mark.parametrize("argv,digits", [
        (["--bound", "shafer-lower", "--x", "1"], 30),
        (["--bound", "family-lower", "--a", "0.25", "--x", "1e-20"], 70),
        # the value reads 0 units until the digits pass x's exponent
        (["--bound", "reversed-lower", "--a", "1e300", "--x", "1"], 480),
    ])
    def test_eval_stats(self, capsys, argv, digits):
        argv = ["eval", *argv, "--format", "json"]
        code, out, _ = run(capsys, argv + ["--stats"])
        assert code == 0
        payload = strict_json(out)
        stats = payload.pop("stats")
        assert set(stats) == {"eval_s", "digits", "package_version", "python_version"}
        assert stats["digits"] == digits and 0 < stats["eval_s"] < 10
        assert stats["package_version"] == arctanbounds.__version__
        assert stats["python_version"] == "%d.%d.%d" % sys.version_info[:3]
        # without --stats the report carries none of it
        code, plain, _ = run(capsys, argv)
        assert strict_json(plain) == payload
        code, text, _ = run(capsys, argv[:-2])
        code, out, _ = run(capsys, argv[:-2] + ["--stats"])
        lines = out.splitlines()
        assert code == 0 and lines[:-1] == text.splitlines()
        assert re.fullmatch(rf"settled at {digits} digits; eval \d+\.\d us", lines[-1])

    def test_eval_without_stats_is_unchanged(self, capsys):
        argv = ["eval", "--bound", "shafer-lower", "--x", "1", "--digits", "40"]
        assert run(capsys, argv) == (
            0, "shafer-lower(x=1.0) = 0.7836116248912244\nfixed-point [40 digits] = "
               "0.7836116248912243275443046207511697816311\n", "")
        assert run(capsys, argv[:-2] + ["--format", "json"]) == (
            0, '{\n  "bound": "shafer-lower",\n  "x": 1.0,\n  "a": null,\n'
               '  "value": 0.7836116248912244\n}\n', "")

    @pytest.mark.parametrize("a,regime,decided_by", [
        (-0.5, "Unclassified", "unclassified"), (-2.0, "Increasing", "h_at_one"),
        (0.3, "Increasing", "h_at_one"), (0.5, "Increasing", "h_at_one"),
        (0.8, "Decreasing", "slope"), (0.6, "InteriorMinimum", "g_inf"),
        (cat.TWO_OVER_PI, "Decreasing", "g_inf"),
    ])
    def test_classify_stats(self, capsys, a, regime, decided_by):
        argv = ["classify", "--a", repr(a), "--format", "json"]
        code, out, _ = run(capsys, argv + ["--stats"])
        assert code == 0
        payload = strict_json(out)
        stats = payload.pop("stats")
        assert set(stats) == {"classify_s", "decided_by", "package_version",
                              "python_version"}
        assert stats["decided_by"] == decided_by and 0 < stats["classify_s"] < 1
        assert payload["regime"] == regime
        # without --stats the report carries none of it
        code, plain, _ = run(capsys, argv)
        assert strict_json(plain) == payload
        assert run(capsys, argv[:-2]) == (0, regime + "\n", "")
        code, out, _ = run(capsys, argv[:-2] + ["--stats"])
        lines = out.splitlines()
        assert code == 0 and lines[0] == regime and len(lines) == 2
        assert re.fullmatch(rf"decided by {decided_by}; classify \d+\.\d us", lines[1])

    def test_find_min_json(self, capsys):
        code, out, _ = run(capsys, ["find-min", "--a", "0.6", "--format", "json"])
        assert code == 0
        payload = strict_json(out)
        assert set(payload) == {"a", "x0", "value", "u", "residual"}
        assert payload["residual"] <= 1e-12
        assert 1.536 < payload["value"] < 1.5708

    def test_find_min_stats(self, capsys):
        argv = ["find-min", "--a", "0.6", "--format", "json"]
        code, out, _ = run(capsys, argv + ["--stats"])
        assert code == 0
        payload = strict_json(out)
        stats = payload.pop("stats")
        assert set(stats) == {"solve_s", "gap_evals", "max_digits", "bracket",
                              "digits", "package_version", "python_version"}
        assert stats["solve_s"] > 0
        assert stats["digits"] == 30 <= stats["max_digits"]
        assert stats["package_version"] == arctanbounds.__version__
        assert stats["python_version"] == "%d.%d.%d" % sys.version_info[:3]
        res = find_interior_minimum(0.6)
        assert stats["bracket"] == list(res.bracket)
        p, q = stats["bracket"]
        assert p < q and payload["x0"] in (p, q)
        # each end of the bracket takes a sign, and x0 and the residual come
        # from one of them
        assert stats["gap_evals"] == 2
        # without --stats the report carries none of it
        code, plain, _ = run(capsys, argv)
        assert strict_json(plain) == payload
        code, out, _ = run(capsys, argv[:-2] + ["--stats"])
        text = (f"gap in fixed point at {stats['gap_evals']} evaluations, up to "
                f"{stats['max_digits']} digits; bracket [{p!r}, {q!r}]; solve ")
        assert code == 0 and out.splitlines()[1].startswith(text)

    def test_find_min_near_half(self, capsys):
        # the gap near this minimum is of order 1e-38, far below a float
        # residual test; x0 ~ sqrt(20(a - 1/2))
        code, out, _ = run(capsys, ["find-min", "--a", "0.5000000001", "--format", "json"])
        assert code == 0
        payload = strict_json(out)
        assert payload["x0"] == pytest.approx(4.4721361427917835e-05, rel=1e-13)
        assert payload["residual"] <= 1e-12


class TestErrors:
    def test_unknown_bound_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--bound", "nonsense", "--x", "1"])
        assert exc.value.code == 2

    def test_param_error_maps_to_exit_2(self, capsys):
        code, _, err = run(capsys, ["enclose", "--a", "0.6", "--x", "1"])
        assert code == 2
        assert "ParamError" in err

    def test_domain_error_maps_to_exit_2(self, capsys):
        code, _, err = run(capsys, ["eval", "--bound", "shafer-lower", "--x", "-1"])
        assert code == 2
        assert "DomainError" in err

    def test_negative_digits_maps_to_exit_2(self, capsys):
        code, _, err = run(capsys, ["eval", "--bound", "shafer-lower", "--x", "1",
                                    "--digits", "-3"])
        assert code == 2
        assert "ParamError" in err

    #: a command of each path to the digit cap: profile through the oracle's
    #: check, eval's fixed-point value through its own
    CAPPED_DIGITS = {
        "profile": ["profile", "--grid-points", "2"],
        "eval": ["eval", "--bound", "shafer-lower", "--x", "1"],
    }

    @pytest.mark.parametrize("command", CAPPED_DIGITS)
    def test_digits_past_the_cap_map_to_exit_2(self, capsys, command):
        # they once ran for seconds to minutes at 20,000 digits and more
        code, out, err = run(capsys, self.CAPPED_DIGITS[command] + ["--digits", "4097"])
        assert code == 2 and out == ""
        assert err.startswith("ParamError") and "at most 4096" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command", CAPPED_DIGITS)
    def test_digits_at_the_cap_run(self, capsys, command):
        code, out, err = run(capsys, self.CAPPED_DIGITS[command] + ["--digits", "4096"])
        assert code == 0 and out and err == ""

    def test_profile_below_oracle_digits_maps_to_exit_2(self, capsys):
        code, out, err = run(capsys, ["profile", "--grid-points", "20",
                                      "--digits", "5", "--format", "json"])
        assert code == 2
        assert out == ""
        assert "ParamError" in err

    def test_stats_refuse_low_digits_before_the_oracle(self, capsys, monkeypatch):
        # the digits check comes before any oracle value
        def no_oracle(x, digits):
            raise AssertionError("oracle_arctan called before the digits check")
        monkeypatch.setattr(orc, "oracle_arctan", no_oracle)
        code, out, err = run(capsys, ["profile", "--digits", "10", "--grid-points", "50",
                                      "--stats", "--format", "json"])
        assert code == 2 and out == ""
        assert "ParamError" in err and "at least 20 digits" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--grid-points", "20"],
        ["dominance", "--bound-a", "shafer-lower", "--bound-b", "ratio-lower"],
        ["eval", "--bound", "shafer-lower", "--x", "1"],
        ["classify", "--a", "0.6"],
        ["enclose", "--a", "0.5", "--x", "1"],
        ["find-min", "--a", "0.6"],
    ], ids=lambda argv: argv[0])
    def test_csv_only_for_profile(self, capsys, argv):
        # only profile writes rows; other commands used to print text for csv
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--format", "csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err

    def test_verify_takes_no_digits(self, capsys):
        # every verdict is exact and every margin the exact one rounded once,
        # so no digits could move a report
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "fixed", "--digits", "50"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --digits 50" in capsys.readouterr().err

    def test_dominance_takes_no_digits(self, capsys):
        # every verdict and crossover is exact, so no digits could move one
        with pytest.raises(SystemExit) as exc:
            cli.main(["dominance", "--bound-a", "log-lower", "--bound-b",
                      "shafer-lower", "--digits", "50"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --digits 50" in capsys.readouterr().err

    def test_zero_units_map_to_exit_2(self, capsys):
        # x = 1e-60 rounds to zero units at 50 digits; log-lower divided by it
        code, out, err = run(capsys, ["eval", "--bound", "log-lower", "--x", "1e-60",
                                      "--digits", "50"])
        assert code == 2
        assert out == ""
        assert "PrecisionError" in err and "Traceback" not in err

    def test_extreme_verify_grids_map_to_exit_2(self, capsys):
        base = ["verify", "--suite", "fixed", "--grid-max", "1e300", "--grid-points", "200"]
        # Shafer's certified margin at x = 1e-300, ~x**5/180, rounds to 0.0
        # in a double
        code, out, err = run(capsys, base + ["--grid-min", "1e-300"])
        assert code == 2 and out == ""
        assert "DomainError" in err and "shafer-lower at x=1e-300" in err
        # cubic-lower's bound -x^3/3 does not fit a double above ~1e103
        code, out, err = run(capsys, base + ["--grid-min", "1e-40"])
        assert code == 2 and out == ""
        assert "DomainError" in err and "cubic-lower at x=3.292971255096969e+103" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "family"],
        ["dominance", "--bound-a", "shafer-lower", "--bound-b", "ratio-lower"],
        ["profile"],
    ], ids=lambda argv: argv[0])
    def test_grids_past_an_index_map_to_exit_2(self, capsys, argv):
        # a grid's points are read by index, so their count must fit one
        code, out, err = run(capsys, argv + ["--grid-points", "99999999999999999999"])
        assert code == 2 and out == ""
        assert err == f"ParamError: a grid holds at most {sys.maxsize} points\n"

    @pytest.mark.parametrize("argv", [
        ["eval", "--bound", "cubic-lower", "--x", "1e200"],
        ["eval", "--bound", "log-upper", "--x", "1.7e308"],
    ], ids=["cubic-lower", "log-upper"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_eval_beyond_a_double_maps_to_exit_2(self, capsys, argv, fmt):
        # the value is -inf or inf, which JSON cannot carry
        code, out, err = run(capsys, argv + ["--format", fmt])
        assert code == 2 and out == ""
        assert err.startswith("DomainError: ") and "does not fit a double" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_eval_cubic_lower_up_to_its_own_overflow(self, capsys):
        # x^3/3 fits a double up to x ~ 8.14e102, though x^3 overflows from
        # ~5.64e102
        code, out, _ = run(capsys, ["eval", "--bound", "cubic-lower", "--x", "6e102",
                                    "--format", "json"])
        assert code == 0
        value = strict_json(out)["value"]
        # both ends of the ball round to one double, the exact bound's
        lo, hi = cat.eval_bound_hp(cat.BoundId.CUBIC_LOWER, 6e102, digits=30).ends()
        assert float(lo) == float(hi) == value == pytest.approx(-7.2e307, rel=1e-15)
        code, out, _ = run(capsys, ["eval", "--bound", "cubic-lower", "--x", "6e102"])
        assert code == 0 and out == f"cubic-lower(x=6e+102) = {value!r}\n"
        code, _, err = run(capsys, ["eval", "--bound", "cubic-lower", "--x", "1e200"])
        assert code == 2 and "does not fit a double" in err

    def test_linear_grids_up_to_the_largest_doubles(self, capsys):
        # (hi - lo) * i used to overflow, sending inf to the oracle
        linear = ["--grid-spacing", "linear", "--grid-points", "5"]
        code, out, _ = run(capsys, ["profile", "--grid-min=-1e308", "--grid-max=1e308",
                                    "--format", "json"] + linear)
        assert code == 0
        assert strict_json(out)["certified_everywhere"] is True
        code, out, err = run(capsys, ["verify", "--suite", "fixed", "--grid-min", "1",
                                      "--grid-max", "1e308"] + linear)
        assert code == 2 and out == ""
        assert "finite argument" not in err
        assert "cubic-lower" in err and "does not fit a double" in err

    def test_find_min_outside_regime(self, capsys):
        code, _, err = run(capsys, ["find-min", "--a", "0.4"])
        assert code == 2
        assert "ParamError" in err

    @pytest.mark.parametrize("argv", [
        ["classify", "--a", "0.6"],
        ["verify", "--grid-points", "20", "--format", "json"],
        ["profile", "--grid-points", "20", "--format", "csv"],
    ], ids=lambda argv: argv[0])
    def test_unwritable_output_maps_to_exit_2(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "out"
        code, out, err = run(capsys, argv + ["--output", str(target)])
        assert code == 2 and out == ""
        assert err.startswith("ParamError: cannot write --output")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not target.parent.exists()


#: Runs each command line of the JSON list in argv[1] through one process's
#: cli.main and prints [status, stdout, stderr] for each, as JSON; with
#: "full" in argv[2], main reads every command line with build_parser.
CLI_SEQUENCE = """
import contextlib, io, json, sys
from arctanbounds import cli
if sys.argv[2:] == ["full"]:
    cli._parse = lambda argv: ((args := cli.build_parser().parse_args(argv)).command, args)
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def run_in_fresh_process(argvs, full_parser=False):
    env = dict(os.environ, PYTHONPATH=str(Path(arctanbounds.__file__).parents[1]))
    mode = ["full"] if full_parser else []
    result = subprocess.run([sys.executable, "-c", CLI_SEQUENCE, json.dumps(argvs), *mode],
                            capture_output=True, text=True, check=True, env=env)
    return json.loads(result.stdout)


def without_times(result):
    """A [status, stdout, stderr] result with the seconds in its JSON stats
    dropped, since no two runs take the same time."""
    code, out, err = result
    if '"stats"' in out:
        payload = json.loads(out)
        payload["stats"] = {k: v for k, v in payload["stats"].items()
                            if not k.endswith("_s")}
        out = json.dumps(payload, indent=2)
    return [code, out, err]


class TestReusedParser:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_command_parsers_are_built_once(self):
        for command in COMMANDS:
            parser = cli._command_parser(command)
            assert parser is cli._command_parser(command)
            assert parser.prog == f"arctan-bounds {command}"

    def test_no_state_between_calls(self):
        # each command after the first reuses the parser of a command that
        # set what it leaves unset, and must print what it prints alone
        argvs = [
            ["eval", "--bound", "family-upper", "--x", "2", "--a", "0.3",
             "--digits", "40", "--format", "json"],
            ["eval", "--bound", "shafer-lower", "--x", "2", "--format", "json"],
            ["verify", "--suite", "fixed", "--grid-points", "200", "--stats",
             "--format", "json"],
            ["verify", "--suite", "fixed", "--grid-points", "200", "--format", "json"],
            ["eval", "--bound", "nonsense", "--x", "1"],
            ["classify", "--a"],
            ["classify", "--a", "0.6"],
            # left over: read by the full parser, then by classify's again
            ["classify", "--a", "0.6", "0.7"],
            ["classify", "--a", "0.7", "--stats", "--format", "json"],
        ]
        together = run_in_fresh_process(argvs)
        alone = [run_in_fresh_process([argv])[0] for argv in argvs]
        assert [code for code, _, _ in together] == [0, 0, 0, 0, 2, 2, 0, 2, 0]
        assert [without_times(r) for r in together] == [without_times(r) for r in alone]
        assert '"a": null' in together[1][1] and '"stats"' not in together[3][1]


COMMANDS = ["eval", "classify", "enclose", "find-min", "verify", "dominance", "profile"]

#: Command lines of each command that its own parser and build_parser's must
#: read alike: one that runs, a missing required option or value, a bad
#: float and arguments left over; PARITY_CASES adds -h, a bad choice, a word
#: after the line that runs and an option before it.
PARITY_ARGVS = {
    "eval": [["eval", "--bound", "family-upper", "--x", "2", "--a", "0.3", "--digits", "40",
              "--format", "json"],
             ["eval", "--x", "1"], ["eval", "--bound", "shafer-lower", "--x", "abc"],
             ["eval", "--bound", "shafer-lower", "--x", "1", "--digits", "50", "60"]],
    "classify": [["classify", "--a", "-1e-5", "--stats", "--format", "json"],
                 ["classify"], ["classify", "--a", "abc"], ["classify", "--a", "0.6", "x"]],
    "enclose": [["enclose", "--a", "0.5", "--x", "1", "--stats", "--format", "json"],
                ["enclose", "--a", "0.5"], ["enclose", "--a", "0.5", "--x", "1e"],
                ["enclose", "--a", "0.5", "--x", "1", "--", "2"]],
    "find-min": [["find-min", "--a", "0.6", "--format", "json"],
                 ["find-min", "--a"], ["find-min", "--a", "0..6"],
                 ["find-min", "--a", "0.6", "--bogus"]],
    "verify": [["verify", "--suite", "fixed", "--grid-points", "50", "--stats",
                "--format", "json"],
               ["verify", "--digits"], ["verify", "--grid-min", "abc"], ["verify", "fixed"]],
    "dominance": [["dominance", "--bound-a", "shafer-lower", "--bound-b", "two-over-pi-lower",
                   "--grid-points", "50", "--stats", "--format", "json"],
                  ["dominance", "--bound-a", "shafer-lower"],
                  ["dominance", "--bound-a", "family-lower", "--bound-b", "shafer-lower",
                   "--param-a", "abc"],
                  ["dominance", "--bound-a", "shafer-lower", "--bound-b", "two-over-pi-lower",
                   "--grid-points", "50", "--digits", "50"]],
    "profile": [["profile", "--grid-points", "20", "--format", "csv"],
                ["profile", "--output"], ["profile", "--grid-max", "1e8e"],
                ["profile", "--grid-points", "20", "--format", "csv", "--stats", "extra"]],
}
PARITY_CASES = {command: argvs + [[command, "-h"], [command, "--format", "xml"],
                                  argvs[0] + ["extra"], ["--stats", *argvs[0]]]
                for command, argvs in PARITY_ARGVS.items()}

#: Options, values and words that drawn command lines are made of.
PARITY_TOKENS = ["--a", "0.6", "-1e-5", "--x", "2", "abc", "--bound", "--bound-a",
                 "--bound-b", "shafer-lower", "two-over-pi-lower", "--param-a", "--suite",
                 "fixed", "--grid-points", "3", "--grid-min", "--grid-spacing", "--digits",
                 "--format", "json", "csv", "--stats", "--output", "-h", "--", "--st",
                 "--a=0.5", "-x", "verify"]


class TestCommandParsers:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_each_command_reads_as_the_full_parser(self, command):
        # exit status, stdout and stderr, help and usage errors included,
        # are those of build_parser for every command line
        argvs = PARITY_CASES[command]
        own = run_in_fresh_process(argvs)
        full = run_in_fresh_process(argvs, full_parser=True)
        assert [without_times(r) for r in own] == [without_times(r) for r in full]
        codes = [code for code, _, _ in own]
        assert codes[0] == 0 and codes[-4:] == [0, 2, 2, 2] and set(codes[1:-4]) == {2}
        assert own[-4][1].startswith(f"usage: arctan-bounds {command} [-h]")
        assert own[-2][2].endswith("arctan-bounds: error: unrecognized arguments: extra\n")
        assert own[-1][2].endswith("arctan-bounds: error: unrecognized arguments: --stats\n")

    def test_a_cold_command_builds_one_parser(self):
        probe = """
import argparse, contextlib, io
from arctanbounds import cli
progs, init = [], argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    progs.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "--suite", "fixed", "--grid-points", "20"]) == 0
    assert cli.main(["verify", "--suite", "fixed", "--grid-points", "30"]) == 0
print(progs)
"""
        env = dict(os.environ, PYTHONPATH=str(Path(arctanbounds.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                text=True, check=True, env=env)
        assert result.stdout == "['arctan-bounds verify']\n"

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(COMMANDS) + "}" in out
        for command in COMMANDS:
            assert re.search(rf"^    {command} +\S", out, re.MULTILINE), command

    @given(st.lists(st.sampled_from(PARITY_TOKENS), max_size=8), st.sampled_from(
        COMMANDS + ["", "ver", "-h", "--stats"]))
    @settings(max_examples=150, deadline=None)
    def test_drawn_command_lines_parse_as_the_full_parser(self, tokens, first):
        # each drawn line gives the namespace build_parser gives it, or
        # exits with the same status, stdout and stderr
        argv = cli._join_negative_values(([first] if first else []) + tokens)

        def outcome(parse):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    command, args = parse(argv)
                except SystemExit as exc:
                    return exc.code, out.getvalue(), err.getvalue()
            return command, {k: v for k, v in vars(args).items() if k != "command"}

        def full(argv):
            args = cli.build_parser().parse_args(argv)
            return args.command, args

        assert outcome(cli._parse) == outcome(full)


class TestHandlerModules:
    def test_handlers_keep_the_modules_imported_with_them(self):
        # after a fresh import of the package beside it, a cli module still
        # calls the family module it was imported with, as a top-level
        # import would have bound it
        probe = """
import contextlib, io, sys
import arctanbounds.cli as cli, arctanbounds.family as family
for name in [m for m in sys.modules if m.split(".")[0] == "arctanbounds"]:
    del sys.modules[name]
import arctanbounds.family
assert arctanbounds.family is not family
solve, calls = family.find_interior_minimum, []
family.find_interior_minimum = lambda a: calls.append(a) or solve(a)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["find-min", "--a", "0.6"]) == 0
print(calls)
"""
        env = dict(os.environ, PYTHONPATH=str(Path(arctanbounds.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                text=True, check=True, env=env)
        assert result.stdout == "[0.6]\n"

    @pytest.mark.parametrize("argv,own", [
        (["find-min", "--a", "0.6"], ["family"]),
        (["find-min", "--a", "0.6", "--stats", "--format", "json"], ["family"]),
        (["enclose", "--a", "0.5", "--x", "1", "--stats", "--format", "json"], []),
        (["eval", "--bound", "shafer-lower", "--x", "1", "--stats"], []),
        (["classify", "--a", "0.6", "--stats", "--format", "json"], []),
        (["verify", "--suite", "fixed", "--grid-points", "200"], ["oracle"]),
        (["dominance", "--bound-a", "shafer-lower", "--bound-b", "two-over-pi-lower",
          "--grid-points", "200"], ["algebra", "oracle"]),
        (["profile", "--grid-points", "200", "--stats"], ["kernel", "oracle", "runs"]),
    ], ids=["find-min", "find-min-stats", "enclose-stats", "eval-stats", "classify-stats",
            "verify", "dominance", "profile"])
    def test_commands_load_only_their_modules(self, argv, own):
        # find-min needs no oracle, and verify no family
        probe = """
import contextlib, io, sys
import arctanbounds.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(sys.argv[1:]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "arctanbounds"))
"""
        env = dict(os.environ, PYTHONPATH=str(Path(arctanbounds.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                                text=True, check=True, env=env)
        eager = ["catalog", "cli", "errors", "fixedpoint"]
        loaded = ["arctanbounds"] + [f"arctanbounds.{m}" for m in sorted(eager + own)]
        assert result.stdout == f"{loaded}\n"


class TestNegativeValues:
    # argparse reads -1e-05 or -inf as an option unless it is joined to the
    # option before it; every value must parse the same in either form
    def test_classify_exponent(self, capsys):
        code, out, err = run(capsys, ["classify", "--a", "-1e-5"])
        assert (code, out, err) == (0, "Unclassified\n", "")
        assert run(capsys, ["classify", "--a=-1e-5"]) == (code, out, err)

    def test_enclose_negative_x(self, capsys):
        code, out, err = run(capsys, ["enclose", "--a", "0.5", "--x", "-1e-5"])
        assert code == 2 and out == ""
        assert err.startswith("DomainError: ") and err.count("\n") == 1

    def test_eval_negative_parameter(self, capsys):
        code, _, err = run(capsys, ["eval", "--bound", "family-lower", "--x", "1",
                                    "--a", "-1e-3"])
        assert code == 2 and err.startswith("ParamError: ") and "-0.001" in err

    def test_linear_profile_from_a_negative_end(self, capsys):
        argv = ["profile", "--grid-min", "-1e-3", "--grid-max", "1e-3",
                "--grid-points", "5", "--grid-spacing", "linear", "--format", "json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        payload = strict_json(out)
        assert payload["certified_everywhere"] is True
        assert payload["grid"]["x_min"] == -1e-3

    def test_negative_infinity_exits_2(self, capsys):
        code, out, err = run(capsys, ["classify", "--a", "-inf"])
        assert code == 2 and out == ""
        assert err.startswith("DomainError: ")

    def test_only_numbers_are_joined(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["classify", "--a", "-x"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err


class TestOneOutputPath:
    @pytest.mark.parametrize("argv", [
        ["eval", "--bound", "family-upper", "--x", "2", "--a", "0.25",
         "--digits", "30", "--format", "json"],
        ["classify", "--a", "0.6", "--format", "json"],
        ["enclose", "--a", "0.5", "--x", "1", "--format", "json"],
        ["find-min", "--a", "0.6", "--format", "json"],
        ["verify", "--suite", "fixed", "--grid-points", "50", "--format", "json"],
        ["dominance", "--bound-a", "two-over-pi-lower", "--bound-b", "shafer-lower",
         "--grid-points", "50", "--format", "json"],
        ["profile", "--grid-points", "50", "--format", "json"],
        ["profile", "--grid-points", "50", "--format", "csv"],
        ["dominance", "--bound-a", "two-over-pi-lower", "--bound-b", "shafer-lower",
         "--grid-points", "50"],
    ], ids=["eval", "classify", "enclose", "find-min", "verify", "dominance", "profile",
            "profile-csv", "dominance-text"])
    def test_stdout_equals_output_file(self, capsys, tmp_path, argv):
        # every command writes the same bytes to stdout and to --output, and
        # all JSON is indented alike
        code, out, _ = run(capsys, argv)
        target = tmp_path / "report"
        assert run(capsys, argv + ["--output", str(target)]) == (code, "", "")
        assert code == 0
        assert out.encode("utf-8") == target.read_bytes()
        if "json" in argv:
            assert out == json.dumps(strict_json(out), indent=2) + "\n"


class TestVerify:
    def test_suite_passes_and_flags_errata(self, capsys):
        code, out, _ = run(capsys, VERIFY_ARGS)
        assert code == 0
        payload = strict_json(out)
        assert payload["ok"] is True
        by_bound = {}
        for entry in payload["results"]:
            by_bound.setdefault(entry["bound"], []).append(entry)
        errata = by_bound["two-over-pi-lower-errata"][0]
        assert errata["status"] == "known-errata-confirmed"
        assert errata["violation_count"] > 0
        for name, entries in by_bound.items():
            if name == "two-over-pi-lower-errata":
                continue
            for entry in entries:
                assert entry["status"] == "ok"
                assert entry["min_margin"] > 0

    def test_errata_not_reproduced_keeps_exit_0(self, capsys, monkeypatch):
        # a sweep that found the errata clean: its entry says so, and only a
        # trusted row's violation fails the run
        sweep = orc.sweep

        def clean_errata(bound, *args, **kwargs):
            report = sweep(bound, *args, **kwargs)
            if cat.bound_is_trusted(bound):
                return report
            return dataclasses.replace(report, violation_runs=(), min_margin=1.0)

        monkeypatch.setattr(orc, "sweep", clean_errata)
        code, out, _ = run(capsys, ["verify", "--suite", "fixed", "--grid-points", "300",
                                    "--format", "json"])
        assert code == 0
        payload = strict_json(out)
        assert payload["ok"] is True
        errata, = (e for e in payload["results"] if e["bound"] == "two-over-pi-lower-errata")
        assert errata["status"] == "known-errata-not-reproduced"
        assert errata["violation_count"] == 0 and errata["ok"] is True
        assert all(e["status"] == "ok" for e in payload["results"] if e is not errata)

    def test_report_json_round_trips(self, capsys):
        _, out, _ = run(capsys, VERIFY_ARGS)
        payload = strict_json(out)
        assert strict_json(json.dumps(payload)) == payload

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, VERIFY_ARGS + ["--output", str(target)])
        assert code == 0
        assert out == ""
        assert strict_json(target.read_text())["ok"] is True

    def test_stats(self, capsys):
        _, plain, _ = run(capsys, VERIFY_ARGS)
        orc._oracle_at.cache_clear()    # oracle_points counts what is computed
        code, out, _ = run(capsys, VERIFY_ARGS + ["--stats"])
        assert code == 0
        payload = strict_json(out)
        stats = payload.pop("stats")
        assert set(stats) == {"sweep_s", "pieces", "escalated", "checked",
                              "oracle_points", "package_version", "python_version",
                              "digits", "grid"}
        assert stats["sweep_s"] > 0
        assert stats["oracle_points"] > 0
        assert stats["digits"] == 50 and stats["grid"]["points"] == 300
        assert stats["package_version"] == arctanbounds.__version__
        counts = {key: [entry.pop(key) for entry in payload["results"]]
                  for key in ("pieces", "escalated")}
        for key, values in counts.items():
            assert sum(values) == stats[key], key
        # every entry has one piece at least, below 1 and above it
        assert all(2 <= n <= 4 for n in counts["pieces"])
        assert stats["escalated"] < stats["checked"] == 300 * len(
            payload["results"])
        errata = next(i for i, e in enumerate(payload["results"])
                      if e["bound"] == "two-over-pi-lower-errata")
        # the errata's violations are one run per piece, not evaluated one by one
        assert counts["escalated"][errata] < payload["results"][errata]["violation_count"] == 300
        # without --stats the report carries none of it
        assert payload == strict_json(plain)
        assert "stats" not in plain and "escalated" not in plain

    def test_default_grid_escalations(self, capsys):
        # the monotone pieces decide each entry from a few points in fixed
        # point: a fallback to reading every point would fail here
        code, out, _ = run(capsys, ["verify", "--suite", "all", "--stats",
                                    "--format", "json"])
        assert code == 0
        payload = strict_json(out)
        stats = payload["stats"]
        assert all(entry["escalated"] <= 15 for entry in payload["results"])
        assert stats["escalated"] < 0.001 * stats["checked"]
        # the text report names the counts
        code, out, _ = run(capsys, VERIFY_ARGS[:-2] + ["--stats"])
        assert re.match(r"fixed point at \d+ of 9000 point checks in \d+ monotone "
                        r"pieces; oracle ", out.splitlines()[-1])

    def test_default_suite_builds_no_oracle_grid(self, capsys):
        # fixed point is computed only at the points the sweeps evaluate and
        # the violations they list
        orc._oracle_at.cache_clear()
        code, out, _ = run(capsys, ["verify", "--suite", "all", "--stats",
                                    "--format", "json"])
        assert code == 0
        payload = strict_json(out)
        listed = sum(len(entry["violations"]) for entry in payload["results"])
        assert 0 < payload["stats"]["oracle_points"] <= payload["stats"]["escalated"] + listed

    def test_default_suite_matches_golden(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "all", "--format", "json"])
        assert code == 0
        assert out.encode("utf-8") == VERIFY_GOLDEN.read_bytes()

    def test_one_decade_above_1e7_from_a_few_points(self, capsys):
        # the reported margins' own monotone pieces settle each entry from a
        # few points in fixed point, where the double filter read all
        # 300,000 point checks and evaluated 20,067; the report is the same
        argv = ["verify", "--suite", "all", "--grid-min", "1e7", "--grid-max", "1e8",
                "--format", "json"]
        code, plain, _ = run(capsys, argv)
        assert code == 0
        assert plain.encode("utf-8") == VERIFY_1E7_1E8.read_bytes()
        code, out, _ = run(capsys, argv + ["--stats"])
        payload = strict_json(out)
        assert payload.pop("stats")["escalated"] < 100
        for entry in payload["results"]:
            del entry["pieces"], entry["escalated"]
        assert payload == strict_json(plain)

    def test_twenty_digits_give_the_entries_of_fifty(self):
        # at 40 digits (20, doubled) reversed-lower[a=2/pi]'s margins share
        # one centre of ~10 units from point 680 on; rounded once, they put
        # the minimum at the last point from every starting digits
        grid = orc.GridSpec(7.877056469476179e+21, 3.997866023592105e+22, 700)
        for bound, a in cli._suite_entries("family"):
            entry = orc.sweep(bound, a, grid, digits=20).to_json_dict(limit=25)
            assert dict(entry, digits=50) == orc.sweep(bound, a, grid).to_json_dict(
                limit=25), (bound, a)
        report = orc.sweep(cat.BoundId.REVERSED_LOWER, cat.TWO_OVER_PI, grid, digits=20)
        assert report.ok and report.min_margin_x == 3.997866023592105e+22

    @pytest.mark.parametrize("digits", [20, 30])
    def test_fewer_digits_give_the_golden_entries(self, digits):
        # margins within the radii at the starting digits are evaluated again
        # at more digits, and every margin is rounded once, so 20 and 30 give
        # the golden's entries (at 30 digits family-lower[a=0.5] once read
        # 449 violations)
        golden = json.loads(VERIFY_GOLDEN.read_text(encoding="utf-8"))["results"]
        for (bound, a), expected in zip(cli._suite_entries("all"), golden, strict=True):
            entry = orc.sweep(bound, a, digits=digits).to_json_dict(
                limit=cli.VIOLATIONS_LISTED)
            assert dict(entry, digits=50) == {key: expected[key] for key in entry}

    def test_family_suite_at_thirty_digits(self):
        reports = {(bound, a): orc.sweep(bound, a, digits=30)
                   for bound, a in cli._suite_entries("family")}
        report = reports[cat.BoundId.FAMILY_LOWER, 0.5]
        assert report.ok and report.min_margin > 0
        # the bound is evaluated at the grid's two ends and at the end of each
        # held piece where its margin is smallest; a loose piece above x = 1
        # reads arctan alone at its other end, unless its lowest ratio falls
        # below the smallest margin found
        assert sum(report.escalated for report in reports.values()) == 62

    @pytest.mark.parametrize("grid,most,calls", [
        ([], 96, (121, 3)),
        # the reported ratios share a few doubles across whole runs, which are
        # read at their ends
        (["--grid-min", "1e17", "--grid-max", "1e100", "--grid-points", "100000"], 200,
         (79, 70)),
    ], ids=["default-grid", "1e17-1e100"])
    def test_default_suite_budget(self, capsys, monkeypatch, grid, most, calls):
        # the bound is evaluated in fixed point at 96 grid points of the
        # default suite's 300,000 checks, in 121 calls at the suite's 50
        # digits and 3 above them, the listed violations' included; and the
        # slope polynomial's balls are read for exactly the 12 entries not
        # marked rises
        read, digits = set(), []
        slope_bounds, eval_bound_hp = cat._slope_bounds, cat.eval_bound_hp
        monkeypatch.setattr(cat, "_slope_bounds", lambda *args: (
            read.add(args[:2]) or slope_bounds(*args)))
        monkeypatch.setattr(cat, "eval_bound_hp", lambda *args, **kwargs: (
            digits.append(kwargs["digits"]) or eval_bound_hp(*args, **kwargs)))
        code, out, _ = run(capsys, ["verify", "--suite", "all", *grid, "--format", "json",
                                    "--stats"])
        assert code == 0
        assert strict_json(out)["stats"]["escalated"] <= most
        assert digits.count(50) <= calls[0] and sum(d > 50 for d in digits) <= calls[1]
        swept = {(cat._CATALOG[bound].consts, a) for bound, a in cli._suite_entries("all")
                 if not cat._CATALOG[bound].rises}
        assert read == swept and len(swept) == 12

    def test_a_million_point_suite_keeps_its_violations_as_runs(self, capsys):
        # the errata is violated at each of 10**6 points, kept as one run
        # and listed for its first 25; the grid's points are computed where
        # read
        grid = orc.GridSpec(1e-8, 1e8, 10 ** 6, "log")
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, ["verify", "--suite", "fixed", "--grid-points",
                                        str(grid.points), "--format", "json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 1 << 20
        errata = next(e for e in strict_json(out)["results"]
                      if e["bound"] == "two-over-pi-lower-errata")
        assert errata["violation_count"] == 10 ** 6
        bound = cat.BoundId.TWO_OVER_PI_LOWER_ERRATA
        assert errata["violations"] == [
            {"x": x, "bound": float(cat.eval_bound_hp(bound, x, digits=50)),
             "oracle": float(orc.oracle_arctan(x, 50))} for x in grid.values()[:25]]

    def test_tiny_to_large_grid(self, capsys):
        # x = 1e-60 is zero units at 50 digits; such points are evaluated
        # again at more digits
        code, out, _ = run(capsys, ["verify", "--suite", "all", "--grid-min", "1e-60",
                                    "--grid-max", "1e100", "--grid-points", "200",
                                    "--format", "json"])
        assert code == 0
        for entry in strict_json(out)["results"]:
            if entry["trusted"]:
                assert entry["status"] == "ok" and entry["min_margin"] > 0, entry["bound"]
            else:
                assert entry["status"] == "known-errata-confirmed"

    def test_fixed_suite_subset(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "fixed",
                                    "--grid-points", "120", "--format", "json"])
        assert code == 0
        payload = strict_json(out)
        assert all(entry["a"] is None for entry in payload["results"])


class TestDominanceAndProfile:
    def test_dominance_json(self, capsys):
        code, out, _ = run(capsys, [
            "dominance", "--bound-a", "two-over-pi-lower", "--bound-b",
            "shafer-lower", "--grid-points", "200", "--format", "json"])
        assert code == 0
        payload = strict_json(out)
        assert len(payload["crossovers"]) == 1
        assert payload["crossovers"][0] == pytest.approx(2.17584, abs=1e-3)
        assert "strict_sign_counts" not in payload

    def test_dominance_stats(self, capsys):
        argv = ["dominance", "--bound-a", "two-over-pi-lower", "--bound-b",
                "shafer-lower", "--grid-points", "200", "--format", "json"]
        _, plain, _ = run(capsys, argv)
        code, out, _ = run(capsys, argv + ["--stats"])
        assert code == 0
        payload = strict_json(out)
        stats = payload.pop("stats")
        assert set(stats) == {"dominance_s", "method", "checked", "degree", "brackets",
                              "bracket_points", "pi_digits", "package_version",
                              "python_version", "digits", "grid"}
        assert stats["dominance_s"] > 0
        assert stats["digits"] == 50 and stats["grid"]["points"] == stats["checked"] == 200
        assert stats["package_version"] == arctanbounds.__version__
        # both rows are shapes: P is linear in u, with one root, the crossover
        assert stats["method"] == "algebra" and stats["degree"] == 1
        (lo, hi), = stats["brackets"]
        assert math.nextafter(lo, math.inf) == hi
        assert payload["crossovers"] == [hi]
        assert stats["bracket_points"] == 0
        assert stats["pi_digits"] == 30
        # without --stats the report carries none of it
        assert payload == strict_json(plain)
        assert "stats" not in plain and "brackets" not in plain
        code, out, _ = run(capsys, argv[:-2] + ["--stats"])
        assert code == 0
        assert "algebra: degree 1, roots 1, 0 of 200 grid points at a bracket end" in out

    def test_dominance_stats_of_a_log_pair(self, capsys):
        argv = ["dominance", "--bound-a", "two-over-pi-upper", "--bound-b", "log-upper",
                "--grid-points", "200", "--format", "json", "--stats"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        stats = strict_json(out)["stats"]
        assert set(stats) == {"dominance_s", "method", "checked", "degree", "brackets",
                              "pi_digits", "escalated", "bisection_steps",
                              "package_version", "python_version", "digits", "grid"}
        assert stats["method"] == "monotone" and stats["degree"] == 8
        assert 0 < stats["escalated"] <= 2 and stats["checked"] == 200
        assert stats["bisection_steps"] == 0
        code, out, _ = run(capsys, argv[:-3] + ["--stats"])
        assert (f"monotone pieces: degree 8, roots {len(stats['brackets'])}, fixed point "
                f"at {stats['escalated']} of 200 grid points") in out

    @pytest.mark.parametrize("argv,regions,crossovers,most", [
        (["--bound-a", "log-lower", "--bound-b", "shafer-lower"],
         [{"x_lo": 1e-300, "x_hi": 1e300, "verdict": "b"}], [], 1),
        (["--bound-a", "cubic-lower", "--bound-b", "log-lower"],
         [{"x_lo": 1e-300, "x_hi": 0.09923286228833275, "verdict": "a"},
          {"x_lo": 10.077306820945022, "x_hi": 1e300, "verdict": "b"}],
         [1.485981290501644], 3),
    ], ids=["log-lower-shafer", "cubic-log-lower"])
    def test_log_pairs_on_the_whole_range(self, capsys, argv, regions, crossovers, most):
        # the double filter decided 219 and 245 of these 300 points in fixed
        # point; the pieces where the difference is monotone decide a few,
        # with the same regions, counts and crossovers
        code, out, _ = run(capsys, ["dominance", *argv, "--grid-min", "1e-300",
                                    "--grid-max", "1e300", "--grid-points", "300",
                                    "--format", "json", "--stats"])
        assert code == 0
        payload = strict_json(out)
        assert payload["stats"]["method"] == "monotone"
        assert payload["stats"]["escalated"] <= most < 20
        assert payload["regions"] == regions
        assert payload["crossovers"] == crossovers
        a_tighter = 0 if len(regions) == 1 else 150
        assert payload["counts"] == {"a_tighter": a_tighter, "b_tighter": 300 - a_tighter,
                                     "equal": 0}

    def test_dominance_stats_past_the_doubles(self, capsys):
        # the two rows cross at u ~ 2.1e308, past DBL_MAX: that bracket's
        # upper end is inf, null in JSON, and no grid point sees the crossing
        full = ["--grid-min", "5e-324", "--grid-max", "1.7976931348623157e308",
                "--format", "json", "--stats"]
        code, out, _ = run(capsys, ["dominance", "--bound-a", "family-lower", "--param-a",
                                    "0.5", "--bound-b", "reversed-lower", "--param-b",
                                    "1e307", *full])
        assert code == 0
        payload = strict_json(out)
        assert payload["stats"]["brackets"] == [[1.7976931348623157e308, None]]
        assert payload["crossovers"] == [] and payload["counts"]["a_tighter"] == 2000
        # two roots or none: Descartes' rule bisects, and finds none
        code, out, _ = run(capsys, ["dominance", "--bound-a", "two-over-pi-lower-errata",
                                    "--bound-b", "cubic-lower", *full])
        assert code == 0
        payload = strict_json(out)
        assert payload["stats"]["degree"] == 3 and payload["stats"]["brackets"] == []
        assert payload["counts"]["a_tighter"] == 2000

    def test_dominance_text(self, capsys):
        code, out, _ = run(capsys, [
            "dominance", "--bound-a", "two-over-pi-upper", "--bound-b",
            "identity-upper", "--grid-min", "1e-40", "--grid-max", "1e300",
            "--grid-points", "300"])
        assert code == 0
        assert "points: A tighter 300, B tighter 0, equal 0" in out
        assert "raw signs" not in out

    def test_profile_text(self, capsys):
        code, out, _ = run(capsys, ["profile", "--grid-points", "150"])
        assert code == 0
        assert "certified everywhere: True" in out

    def test_profile_resolves_small_bounds_at_twenty_digits(self, capsys):
        # certificates near 1e-22 lie below the resolution of a 20-digit
        # oracle; those rows are measured at more digits
        code, out, _ = run(capsys, ["profile", "--digits", "20", "--format", "json"])
        assert code == 0
        assert strict_json(out)["certified_everywhere"] is True

    def test_profile_stats(self, capsys):
        argv = ["profile", "--digits", "20", "--grid-points", "300", "--format", "json"]
        _, plain, _ = run(capsys, argv)
        code, out, _ = run(capsys, argv + ["--stats"])
        assert code == 0
        payload = strict_json(out)
        stats = payload.pop("stats")
        assert set(stats) == {"exact_rows", "extra_digit_rows", "rows_s",
                              "package_version", "python_version", "digits", "grid"}
        assert stats["rows_s"] > 0
        assert stats["digits"] == 20 and stats["grid"]["points"] == 300
        assert stats["package_version"] == arctanbounds.__version__
        # the ends of the runs near the largest errors
        assert 4 <= stats["exact_rows"] <= 12
        assert 0 <= stats["extra_digit_rows"] <= stats["exact_rows"]
        # without --stats the report carries none of it
        assert payload == strict_json(plain)
        assert "stats" not in plain
        code, out, _ = run(capsys, argv[:-2] + ["--stats"])
        assert code == 0
        assert re.fullmatch(rf"fixed point at {stats['exact_rows']} of 300 rows "
                            rf"\({stats['extra_digit_rows']} at extra digits\); "
                            r"rows \d+\.\d{3} s", out.splitlines()[-1])
        code, out, err = run(capsys, argv[:-2] + ["--stats", "--format", "csv"])
        assert code == 2 and out == "" and "ParamError" in err

    @pytest.mark.parametrize("command", sorted(json.loads(PROFILE_GOLDEN.read_text())))
    def test_profile_matches_golden(self, capsys, command):
        code, out, _ = run(capsys, command.split())
        assert code == 0
        assert out == json.loads(PROFILE_GOLDEN.read_text())[command]

    def test_profile_csv_matches_golden(self, capsys):
        code, out, _ = run(capsys, ["profile", "--digits", "20", "--grid-points", "200",
                                    "--format", "csv"])
        assert code == 0
        assert out.encode("utf-8") == PROFILE_CSV_GOLDEN.read_bytes()

    @pytest.mark.parametrize("digits", ["30", "100"])
    def test_profile_measures_few_rows_in_fixed_point(self, capsys, digits):
        # on the default grid the ends of the runs next to the crossovers and
        # to the largest error, and a row inward of each end that holds a
        # run's largest: 9 of 2000 rows.  Each settles from 30 + 2 ceil|log10
        # x| digits, 32 near x = 2.5, or the report's if more: above 30, and
        # at 100
        code, out, _ = run(capsys, ["profile", "--digits", digits, "--stats",
                                    "--format", "json"])
        assert code == 0
        stats = strict_json(out)["stats"]
        assert 1 <= stats["exact_rows"] <= 12
        assert stats["extra_digit_rows"] == (stats["exact_rows"] if digits == "30" else 0)

    def test_profile_far_linear_grid_measures_few_rows(self, capsys):
        # every |x| here exceeds 2**53, where every row has one value: the
        # first and the last row of each sign hold the largest error, and
        # the last rows, +-1e300, are one |x|: 3 rows.  All 2000 rows were
        # measured in fixed point before, for this same report
        argv = ["profile", "--grid-min=-1e300", "--grid-max", "1e300",
                "--grid-spacing", "linear"]
        code, out, _ = run(capsys, argv + ["--stats"])
        assert code == 0
        rows = int(re.match(r"fixed point at (\d+) of 2000 rows", out.splitlines()[-1])[1])
        assert rows == 3
        code, out, _ = run(capsys, argv + ["--format", "json"])
        assert code == 0
        report = strict_json(out)
        # the error, about pi/2 - fl(pi/2), rounded once
        assert (report["max_certified"], report["max_actual"], report["certified_everywhere"]) \
            == (2.886579864025407e-15, 6.123233995736766e-17, True)

    def test_profile_tiny_band_measures_no_row(self, capsys):
        # below 2**-1000 every row's actual error is 0, and its certificate
        # the gap below |x|: no row is measured in fixed point
        code, out, _ = run(capsys, ["profile", "--grid-min", "5e-324", "--grid-max",
                                    "1e-310", "--stats"])
        assert code == 0
        assert out.splitlines()[-1].startswith("fixed point at 0 of 2000 rows (0 at extra")

    def test_profile_csv_file(self, capsys, tmp_path):
        target = tmp_path / "profile.csv"
        code, _, _ = run(capsys, ["profile", "--grid-points", "50",
                                  "--format", "csv", "--output", str(target)])
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "x,value,certified,actual,ratio"
        assert len(lines) == 51


class TestNoDigitsEnvironment:
    def test_environment_is_ignored(self, capsys, monkeypatch):
        # the digits come from --digits and its documented defaults only
        monkeypatch.setenv("ARCTANBOUNDS_DIGITS", "abc")
        code, out, _ = run(capsys, ["classify", "--a", "0.6"])
        assert code == 0 and out.strip() == "InteriorMinimum"
        code, out, _ = run(capsys, ["eval", "--bound", "identity-upper",
                                    "--x", "2", "--format", "json"])
        assert code == 0
        assert "value_hp" not in strict_json(out)
