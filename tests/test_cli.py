import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import arctanbounds
from arctanbounds import catalog as cat
from arctanbounds import cli
from arctanbounds import oracle as orc

VERIFY_ARGS = ["verify", "--grid-points", "300", "--format", "json"]
#: verify --suite all --format json on the default grid, recorded before the
#: sweep settled violations in double; the output must not move by a byte
VERIFY_GOLDEN = Path(__file__).parent / "data" / "verify_default.json"
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
        payload = strict_json(out)
        assert payload["value"] == pytest.approx(0.7836116248912243, abs=1e-15)

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

    def test_find_min_json(self, capsys):
        code, out, _ = run(capsys, ["find-min", "--a", "0.6", "--format", "json"])
        assert code == 0
        payload = strict_json(out)
        assert set(payload) == {"a", "x0", "value", "u", "residual"}
        assert payload["residual"] <= 1e-12
        assert 1.536 < payload["value"] < 1.5708

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

    def test_profile_below_oracle_digits_maps_to_exit_2(self, capsys):
        code, out, err = run(capsys, ["profile", "--grid-points", "20",
                                      "--digits", "5", "--format", "json"])
        assert code == 2
        assert out == ""
        assert "ParamError" in err

    @pytest.mark.parametrize("command", ["verify", "profile"])
    def test_stats_refuse_low_digits_before_the_oracle(self, capsys, monkeypatch,
                                                       command):
        # the digits check comes before any oracle value, in fixed point or
        # in verify's timed double arctan grid
        def no_oracle(x, digits):
            raise AssertionError("oracle_arctan called before the digits check")
        monkeypatch.setattr(orc, "oracle_arctan", no_oracle)
        built_doubles = orc._fast_atan_on_grid.cache_info()
        code, out, err = run(capsys, [command, "--digits", "10", "--grid-points", "50",
                                      "--stats", "--format", "json"])
        assert code == 2 and out == ""
        assert "ParamError" in err and "at least 20 digits" in err
        assert orc._fast_atan_on_grid.cache_info() == built_doubles

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

    def test_zero_units_map_to_exit_2(self, capsys):
        # x = 1e-60 rounds to zero units at 50 digits; log-lower divided by it
        code, out, err = run(capsys, ["eval", "--bound", "log-lower", "--x", "1e-60",
                                      "--digits", "50"])
        assert code == 2
        assert out == ""
        assert "PrecisionError" in err and "Traceback" not in err

    def test_extreme_verify_grids_map_to_exit_2(self, capsys):
        base = ["verify", "--suite", "fixed", "--grid-max", "1e300", "--grid-points", "200"]
        code, out, err = run(capsys, base + ["--grid-min", "1e-300"])
        assert code == 2 and out == ""
        assert "PrecisionError" in err
        # cubic-lower's bound -x^3/3 does not fit a double above ~1e103
        code, out, err = run(capsys, base + ["--grid-min", "1e-40"])
        assert code == 2 and out == ""
        assert "DomainError" in err and "cubic-lower" in err

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
        # ~5.64e102: the float form divides x*x by 3 before the last product
        code, out, _ = run(capsys, ["eval", "--bound", "cubic-lower", "--x", "6e102",
                                    "--format", "json"])
        assert code == 0
        value = strict_json(out)["value"]
        exact = cat.eval_bound_hp(cat.BoundId.CUBIC_LOWER, 6e102, digits=30)
        assert float(exact) == pytest.approx(-7.2e307, rel=1e-15)
        error = cat.float_form(cat.BoundId.CUBIC_LOWER, None)[1](6e102, value)
        assert abs(Fraction(value) - exact.as_fraction()) <= Fraction(error)
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
#: cli.main and prints [status, stdout, stderr] for each, as JSON.
CLI_SEQUENCE = """
import contextlib, io, json, sys
from arctanbounds import cli
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


def run_in_fresh_process(argvs):
    env = dict(os.environ, PYTHONPATH=str(Path(arctanbounds.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", CLI_SEQUENCE, json.dumps(argvs)],
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
        ]
        together = run_in_fresh_process(argvs)
        alone = [run_in_fresh_process([argv])[0] for argv in argvs]
        assert [code for code, _, _ in together] == [0, 0, 0, 0, 2, 2, 0]
        assert [without_times(r) for r in together] == [without_times(r) for r in alone]
        assert '"a": null' in together[1][1] and '"stats"' not in together[3][1]


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
        assert set(stats) == {"oracle_s", "sweep_s", "escalated", "series", "checked",
                              "oracle_points", "package_version", "python_version",
                              "digits", "grid"}
        assert stats["oracle_s"] > 0 and stats["sweep_s"] > 0
        assert stats["oracle_points"] > 0
        assert stats["digits"] == 50 and stats["grid"]["points"] == 300
        assert stats["package_version"] == arctanbounds.__version__
        counts = [entry.pop("escalated") for entry in payload["results"]]
        assert sum(counts) == stats["escalated"] < stats["checked"] == 300 * len(counts)
        series = [entry.pop("series") for entry in payload["results"]]
        assert sum(series) == stats["series"] > 0
        assert stats["escalated"] + stats["series"] < stats["checked"]
        errata = next(i for i, e in enumerate(payload["results"])
                      if e["bound"] == "two-over-pi-lower-errata")
        # the errata's violations are settled in double, not in fixed point
        assert counts[errata] < payload["results"][errata]["violation_count"] == 300
        # without --stats the report carries none of it
        assert payload == strict_json(plain)
        assert "stats" not in plain and "escalated" not in plain

    def test_default_grid_escalations(self, capsys):
        # the defect series settles the tangency points; fixed point is left
        # with the few candidates for each entry's minimum margin
        code, out, _ = run(capsys, ["verify", "--suite", "all", "--stats",
                                    "--format", "json"])
        assert code == 0
        stats = strict_json(out)["stats"]
        assert stats["escalated"] < 1000 and stats["series"] > 10_000
        # the text report names both counts
        code, out, _ = run(capsys, VERIFY_ARGS[:-2] + ["--stats"])
        assert re.match(r"fixed point at \d+ and defect series at \d+ of 9000 point "
                        r"checks; oracle ", out.splitlines()[-1])

    def test_default_suite_builds_no_oracle_grid(self, capsys):
        # stage 1 reads the double arctan grid; fixed point is computed only
        # at the points the sweeps escalate and the violations they list
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
        assert set(stats) == {"dominance_s", "escalated", "checked", "escalated_steps",
                              "bisection_steps", "package_version", "python_version",
                              "digits", "grid"}
        assert stats["dominance_s"] > 0
        assert stats["digits"] == 50 and stats["grid"]["points"] == stats["checked"] == 200
        assert stats["package_version"] == arctanbounds.__version__
        assert 0 <= stats["escalated"] < stats["checked"]
        assert 0 < stats["escalated_steps"] <= stats["bisection_steps"] <= 64
        # without --stats the report carries none of it
        assert payload == strict_json(plain)
        assert "stats" not in plain and "escalated" not in plain
        code, out, _ = run(capsys, argv[:-2] + ["--stats"])
        assert code == 0
        assert f"fixed point at {stats['escalated']} of 200 grid points" in out

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
        # the double filter settles most rows; at 20 digits the fixed point
        # resolves only a few figures of the errors near x ~ 1e-5, where the
        # certificate is tightest, so those rows are measured
        assert 0 < stats["exact_rows"] < 30
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
        # on the default grid only the row of the largest actual error is
        # measured: every other row is settled, and left out of the maximum,
        # in double
        code, out, _ = run(capsys, ["profile", "--digits", digits, "--stats",
                                    "--format", "json"])
        assert code == 0
        stats = strict_json(out)["stats"]
        assert 1 <= stats["exact_rows"] <= 3 and stats["extra_digit_rows"] == 0

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
