import argparse
import contextlib
import importlib
import io
import json
import math
import re
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import ellgreen.cli as cli
from ellgreen.cli import COMMANDS, _fmt, main, parse_complex, parse_subgroup

GOLDEN = Path(__file__).resolve().parent / "golden"
# the README's CLI block; None stands for the path of the faltings input file
README_COMMANDS = (
    ("invariants", "--tau", "0+1i"),
    ("green", "--tau", "0.13+1.32i", "--z", "0.3+0.2i"),
    ("torsion-product", "--tau", "0+1i", "--n", "5"),
    ("energy", "--tau", "0+1i", "--subgroup", "1,0,2"),
    ("average", "--tau", "0.2+1.5i", "--n", "12"),
    ("weierstrass", "--tau", "0+1i"),
    ("periods", "--p", "4+0i", "--q", "0+0i"),
    ("faltings", "--input", None),
)
README_FALTINGS_INPUT = {"degree": 1, "log_norm_min_disc": 0.0,
                         "embeddings": [{"re": 0.0, "im": 1.0}]}
SUBCOMMANDS = tuple(argv[0] for argv in README_COMMANDS) + ("verify",)


def run_cli(capsys, *argv):
    # (exit code, stdout, stderr), whether main returns or argparse exits
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# flag parsing
# ---------------------------------------------------------------------------

def test_parse_complex_forms():
    assert parse_complex("0+1i") == 1j
    assert parse_complex("1.5-2e-3i") == complex(1.5, -0.002)
    assert parse_complex("-0.25+0.5i") == complex(-0.25, 0.5)
    assert parse_complex("3.0") == complex(3.0, 0.0)


def test_parse_complex_rejects_garbage():
    import argparse

    for bad in ("", "i", "1+2j", "one+2i", "1e999+0i", "0+1e999i"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex(bad)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(st.builds(complex, FINITE, FINITE))
@example(complex(-0.0, -0.0))
@example(complex(0.0, -0.0))
@example(complex(5e-324, -2.2250738585072014e-308))
@example(complex(1e300, -1e-300))
@example(complex(-1.7976931348623157e308, 1e16))
def test_echoed_complex_parses_back_bit_for_bit(z):
    # the CLI echoes a complex input as a+bi; pasted back it is the same input
    back = parse_complex(_fmt(z))
    assert (back.real.hex(), back.imag.hex()) == (z.real.hex(), z.imag.hex())


def test_parse_subgroup():
    assert parse_subgroup("1,0,2") == (1, 0, 2)
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_subgroup("1,0")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_invariants_json_and_table_agree(capsys):
    code, table, _ = run_cli(capsys, "invariants", "--tau", "0+1i")
    assert code == 0
    code, js, _ = run_cli(capsys, "--json", "invariants", "--tau", "0+1i")
    assert code == 0
    payload = json.loads(js)
    assert payload["command"] == "invariants"
    for key, value in payload["results"].items():
        assert f"{key}" in table
        assert repr(value) in table  # digit-for-digit agreement


def test_invariants_rejects_lower_half_plane(capsys):
    code, _, err = run_cli(capsys, "invariants", "--tau", "1-1i")
    assert code == 3
    assert "Im tau" in err


@pytest.mark.parametrize("argv,flag", [
    (("green", "--tau", "0+1i", "--z", "1e999+0i"), "--z"),
    (("invariants", "--tau", "1e999+1i"), "--tau"),
    (("periods", "--p", "1e999+0i", "--q", "0+0i"), "--p"),
], ids=["green", "invariants", "periods"])
def test_overflowing_literal_is_a_usage_error(argv, flag, capsys):
    # float("1e999") is inf; it is rejected at parse time, not as a domain error
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"argument {flag}: complex number '1e999" in capsys.readouterr().err


def test_malformed_subgroup_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "energy", "--tau", "0+1i", "--subgroup", "1,x,2")
    assert code == 2 and out == ""
    assert "argument --subgroup" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["invariants"])  # missing --tau
    assert exc.value.code == 2


def test_grid_flag_is_gone(capsys):
    # verify has no grid to choose: criterion 9 runs at the fixed 16/32 pair
    with pytest.raises(SystemExit) as exc:
        main(["--grid", "512", "verify"])
    assert exc.value.code == 2


def test_bad_tol_rejected(capsys):
    code, _, err = run_cli(capsys, "--tol", "2.0", "invariants", "--tau", "0+1i")
    assert code == 2


def test_torsion_product_command(capsys):
    code, out, _ = run_cli(capsys, "--json", "torsion-product",
                           "--tau", "0+1i", "--n", "5")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["results"]["product"] - 5.0) < 1e-8
    assert payload["residuals"]["relative"] < 1e-8


def test_energy_command(capsys):
    code, out, _ = run_cli(capsys, "--json", "energy",
                           "--tau", "0+1i", "--subgroup", "1,0,2")
    assert code == 0
    payload = json.loads(out)
    assert payload["residuals"]["product_vs_predicted"] < 1e-8


def test_average_command(capsys):
    code, out, _ = run_cli(capsys, "--json", "average",
                           "--tau", "0.2+1.5i", "--n", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["residuals"]["green"] < 1e-7
    assert payload["residuals"]["delta"] < 1e-7


def test_weierstrass_command(capsys):
    code, out, _ = run_cli(capsys, "--json", "weierstrass", "--tau", "0+1i")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["results"]["q_im"]) < 1e-9
    assert payload["residuals"]["thomae_13"] < 1e-9


def test_periods_command(capsys):
    code, out, _ = run_cli(capsys, "--json", "periods", "--p", "4+0i", "--q", "0+0i")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["results"]["tau_reduced_re"]) < 1e-8
    assert abs(payload["results"]["tau_reduced_im"] - 1.0) < 1e-8


def test_periods_degenerate_exit_code(capsys):
    code, _, err = run_cli(capsys, "periods", "--p", "0+0i", "--q", "0+0i")
    assert code == 3


def test_faltings_command(tmp_path, capsys):
    payload = {
        "degree": 1,
        "log_norm_min_disc": 0.0,
        "embeddings": [{"re": 0.0, "im": 1.0}],
    }
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "--json", "faltings", "--input", str(path))
    assert code == 0
    height = json.loads(out)["results"]["faltings_height"]
    eta_i = math.gamma(0.25) / (2.0 * math.pi ** 0.75)
    assert abs(height - (-math.log(2 * math.pi) - 2 * math.log(eta_i))) < 1e-10


def test_faltings_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "faltings", "--input", str(tmp_path / "nope.json"))
    assert code == 2


def test_faltings_missing_field_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"log_norm_min_disc": 0.0, "embeddings": [{"re": 0.0, "im": 1.0}]}))
    code, out, err = run_cli(capsys, "faltings", "--input", str(path))
    assert code == 2 and out == ""
    assert "faltings input missing field: 'degree'" in err


def test_faltings_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "faltings", "--input", str(path))
    assert code == 2


@pytest.mark.parametrize("field,value,problem", [
    ("degree", 1.7, "integer >= 1"),
    ("degree", "one", "integer >= 1"),
    ("log_norm_min_disc", "NaN", "finite and >= 0"),
    ("log_norm_min_disc", math.inf, "finite and >= 0"),  # written as Infinity
    ("log_norm_min_disc", "abc", "could not convert"),
    ("embeddings", [{"re": "abc", "im": 1.0}], "could not convert"),
])
def test_faltings_bad_values_are_usage_errors(tmp_path, capsys, field, value, problem):
    payload = {"degree": 1, "log_norm_min_disc": 0.0, "embeddings": [{"re": 0.0, "im": 1.0}]}
    payload[field] = value
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "faltings", "--input", str(path))
    assert code == 2 and out == ""
    assert "bad faltings input" in err and problem in err


def test_json_round_trip(capsys):
    _, out, _ = run_cli(capsys, "--json", "green", "--tau", "0.13+1.32i",
                        "--z", "0.3+0.2i")
    payload = json.loads(out)
    assert json.loads(json.dumps(payload)) == payload


def strict_json(text):
    # RFC 8259 JSON: Infinity, -Infinity and NaN are not numbers there
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_json_writes_a_non_finite_value_as_the_table_string(capsys):
    # G(0, 0) = 0 has log G = -inf; both renderers print it as -inf
    code, out, _ = run_cli(capsys, "--json", "green", "--tau", "0+1i", "--z", "0+0i")
    assert code == 0
    results = strict_json(out)["results"]
    assert results["value"] == 0.0 and results["log_value"] == "-inf"
    _, table, _ = run_cli(capsys, "green", "--tau", "0+1i", "--z", "0+0i")
    assert "  log_value  -inf\n" in table


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_quick_passes_and_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--level", "quick", "--seed", "7")
    assert code1 == 0
    assert out1.count("PASS") >= 20
    code2, out2, _ = run_cli(capsys, "verify", "--level", "quick", "--seed", "7")
    assert code2 == 0
    assert out1 == out2  # byte-identical reruns


def test_verify_json_output(capsys):
    code, out, _ = run_cli(capsys, "--json", "verify", "--level", "quick",
                           "--seed", "11")
    assert code == 0
    checks = json.loads(out)
    assert len(checks) >= 20
    assert all(c["passed"] for c in checks)


def test_verify_negative_control(capsys, monkeypatch):
    # an impossible tolerance must surface as exit code 1
    import ellgreen.cli as cli
    from ellgreen.verify import CheckResult

    real = cli.run_checks

    def tampered(**kwargs):
        results = real(**kwargs)
        first = results[0]
        results[0] = CheckResult(first.criterion, first.name,
                                 first.residual, 1e-30)
        return results

    monkeypatch.setattr(cli, "run_checks", tampered)
    code, out, _ = run_cli(capsys, "verify", "--level", "quick", "--seed", "7")
    assert code == 1
    assert "FAIL" in out


def test_verify_json_writes_a_nan_residual_as_a_string(capsys, monkeypatch):
    # a NaN residual fails its check and stays strict JSON
    import ellgreen.cli as cli
    from ellgreen.verify import CheckResult

    real = cli.run_checks

    def with_nan(**kwargs):
        results = real(**kwargs)
        results[0] = CheckResult(results[0].criterion, results[0].name, math.nan, 1e-9)
        return results

    monkeypatch.setattr(cli, "run_checks", with_nan)
    code, out, _ = run_cli(capsys, "--json", "verify", "--level", "quick", "--seed", "7")
    assert code == 1
    checks = strict_json(out)
    assert checks[0]["residual"] == "nan" and checks[0]["passed"] is False
    assert all(c["passed"] for c in checks[1:])


# ---------------------------------------------------------------------------
# golden output: every byte the CLI prints for the README's commands, the
# help screens and the error paths
# ---------------------------------------------------------------------------

def golden(name):
    return (GOLDEN / name).read_text()


@pytest.mark.parametrize("as_json", [False, True], ids=["table", "json"])
@pytest.mark.parametrize("argv", README_COMMANDS, ids=[argv[0] for argv in README_COMMANDS])
def test_readme_command_prints_the_committed_output(argv, as_json, tmp_path, capsys):
    if argv[-1] is None:
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(README_FALTINGS_INPUT))
        argv = (*argv[:-1], str(path))
    code, out, err = run_cli(capsys, *(["--json"] if as_json else []), *argv)
    assert (code, err) == (0, "")
    assert out == golden(f"cli-{argv[0]}.{'json' if as_json else 'txt'}")


@pytest.mark.parametrize("command", [None, *SUBCOMMANDS])
def test_help_prints_the_committed_text(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == golden(f"help-{command}.txt" if command else "help.txt")


@pytest.mark.parametrize("name,argv,code", [
    ("invariants-lower-half-plane", ("invariants", "--tau", "1-1i"), 3),
    ("periods-degenerate", ("periods", "--p", "0+0i", "--q", "0+0i"), 3),
])
def test_domain_error_prints_the_committed_message(name, argv, code, capsys):
    assert run_cli(capsys, *argv) == (code, "", golden(f"error-{name}.txt"))


def test_missing_flag_prints_the_committed_usage(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["invariants"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", golden("error-invariants-missing-tau.txt"))


@pytest.mark.parametrize("name,argv", [
    ("no-subcommand", ()),
    ("unknown-subcommand", ("bogus",)),
    ("bad-tol", ("--tol", "verify", "invariants", "--tau", "0+1i")),
])
def test_top_level_error_prints_the_committed_usage(name, argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, *argv) == (2, "", golden(f"error-{name}.txt"))


# ---------------------------------------------------------------------------
# the parser: built on the first main call, reused by every later one
# ---------------------------------------------------------------------------

README_VERIFY = ("verify", "--level", "full", "--seed", "7")
GREEN_LINE = README_COMMANDS[1]
# (argv, id): a flag value that names another command, a command name as the
# --tol value, no or no known command, stray words and help before and after
EDGE_ARGV = (
    (("faltings", "--input", "green"), "flag-value-names-a-command"),
    (("energy", "--tau", "0+1i", "--subgroup", "green"), "subgroup-names-a-command"),
    (("--tol", "verify", "invariants", "--tau", "0+1i"), "command-as-tol"),
    (("--tol", "1e-9", "invariants", "--tau", "0+1i"), "tol-then-command"),
    ((), "no-words"),
    (("bogus",), "unknown-command"),
    (("--bogus", *GREEN_LINE), "unknown-flag-first"),
    ((*GREEN_LINE, "extra"), "trailing-word"),
    (("-h", "green"), "top-level-help"),
    (("green", "--help"), "command-help"),
)
EQUIVALENCE_ARGV = (
    *[(prefix + argv, f"{'json-' if prefix else ''}{argv[0]}")
      for argv in (*README_COMMANDS, README_VERIFY) for prefix in ((), ("--json",))],
    *EDGE_ARGV,
)


def captured_run(argv):
    # (exit code, stdout, stderr), without the function-scoped capsys
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def rows_in_one_process(tmp_path_factory):
    """Per EQUIVALENCE_ARGV id: what each row prints from a freshly built parser,
    and from the shared parser run over every row forward, then reversed."""
    tmp = tmp_path_factory.mktemp("rows")  # holds no file named "green"
    curve = tmp / "curve.json"
    curve.write_text(json.dumps(README_FALTINGS_INPUT))
    rows = [tuple(str(curve) if word is None else word for word in argv)
            for argv, _ in EQUIVALENCE_ARGV]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("COLUMNS", "80")
        patch.chdir(tmp)
        fresh = []
        for argv in rows:
            cli.build_parser.cache_clear()
            fresh.append(captured_run(argv))
        cli.build_parser.cache_clear()
        forward = [captured_run(argv) for argv in rows]
        backward = [captured_run(argv) for argv in reversed(rows)][::-1]
    return {name: runs for (_, name), runs in zip(EQUIVALENCE_ARGV, zip(fresh, forward, backward))}


@pytest.mark.parametrize("row", [name for _, name in EQUIVALENCE_ARGV])
def test_per_call_parser_prints_what_the_complete_parser_prints(row, rows_in_one_process):
    # a successful parse, help and every error screen read the same once the
    # parser has served the other commands, in either order
    fresh, forward, backward = rows_in_one_process[row]
    assert forward == fresh
    assert backward == fresh


def test_a_second_call_builds_no_parser(capsys, monkeypatch):
    assert main(list(GREEN_LINE)) == 0
    built, declared = [], []
    init = argparse.ArgumentParser.__init__
    add_argument = argparse.ArgumentParser.add_argument

    def recording_init(self, *args, **keywords):
        built.append(keywords.get("prog"))
        init(self, *args, **keywords)

    def recording_add(self, *names, **keywords):
        declared.append(names)
        return add_argument(self, *names, **keywords)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording_init)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", recording_add)
    assert main(list(GREEN_LINE)) == 0
    assert capsys.readouterr().out.count("command: green") == 2
    assert (built, declared) == ([], [])


def test_readme_cli_block_names_each_subcommand_once():
    # the README block is what users copy and the benchmark replays; the golden
    # tests above pin every subcommand of the table
    readme = (GOLDEN.parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    assert sorted(re.findall(r"^ellgreen ([a-z-]+)", block, re.M)) == sorted(COMMANDS)
    assert SUBCOMMANDS == tuple(COMMANDS)


def test_console_script_prints_the_committed_output(capsys, monkeypatch):
    # the `ellgreen` command every README line runs is pyproject's script target
    pyproject = (GOLDEN.parent.parent / "pyproject.toml").read_text()
    module, function = re.search(r'^ellgreen = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
    entry = getattr(importlib.import_module(module), function)
    monkeypatch.setattr(sys, "argv", ["ellgreen", "verify", "--level", "quick", "--seed", "7"])
    assert entry() == 0
    assert capsys.readouterr().out == golden("verify-quick-seed7.txt")
