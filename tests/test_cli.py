import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplex_lab import cli
from simplex_lab.cli import parse_distance_spec, parse_value

CLI = [sys.executable, "-m", "simplex_lab"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("SIMPLEX_LAB_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, timeout=600
    )


def test_verify_pass_exit_zero():
    r = run_cli("verify", "--distance", "cardinality", "--n", "4", "--space", "finite:3")
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["schema"] == "simplex-lab/1"
    assert report["status"] == "pass"
    assert all(v["status"] == "pass" for v in report["verdicts"])


def test_verify_repetition_failure_exit_one():
    r = run_cli(
        "verify", "--distance", "arithmetic-mean", "--n", "3", "--checks", "repetition",
        "--budget", "2000",
    )
    assert r.returncode == 1
    report = json.loads(r.stdout)
    assert report["status"] == "fail"
    (v,) = [v for v in report["verdicts"] if v["property"] == "repetition-invariance"]
    ce = v["counterexample"]
    # same two-element value set, different multiplicities, different values
    assert abs(ce["value_a"] - ce["value_b"]) > 1e-9


def test_config_error_exit_two():
    r = run_cli("verify", "--distance", "inner-interval-power:p=2", "--n", "3")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "error:" in r.stderr
    assert "n < 2^p" in r.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("table1", "--n", "1"),
        ("constants", "--distance", "drastic", "--n", "1"),
        ("constants", "--distance", "two-anchor:s=1/0"),
        ("verify", "--distance", "cardinality", "--checks", "strong", "--strong-constant", "1/0"),
        ("constants", "--distance", "single-anchor:s=0.4", "--space", "real"),
        ("constants", "--distance", "strong-extremal:k=inf"),
        ("constants", "--distance", "strong-extremal:k=2.5"),
        ("constants", "--distance", "single-anchor:s=0.5,base=diameter", "--n", "4", "--space", "finite:5"),
        ("verify", "--distance", "cardinality", "--budget", "0"),
        ("multidistance", "--family", "cardinality", "--budget", "0"),
        ("table1", "--budget", "-1"),
        ("verify", "--distance", "cardinality", "--n", "4", "--checks", "strong", "--strong-constant", "nan"),
        ("verify", "--distance", "arithmetic-mean", "--n", "3", "--checks", "repetition", "--tolerance", "100"),
        # flags a subcommand does not read are not declared
        ("table1", "--space", "plane"),
        ("table1", "--k", "2"),
        ("multidistance", "--family", "cardinality", "--n", "7"),
        ("multidistance", "--family", "cardinality", "--k", "9"),
        ("multidistance", "--family", "line-count", "--space", "real"),
        # --k and --strong-constant are read by the strong check only
        ("verify", "--distance", "cardinality", "--k", "3"),
        ("verify", "--distance", "cardinality", "--checks", "axioms", "--strong-constant", "1/2"),
        # a sampling box must be finite and nonempty: nan or inf samples pass every comparison
        ("verify", "--distance", "diameter", "--space", "real:-inf,inf", "--checks", "axioms,repetition,nonincreasing", "--budget", "100"),
        ("verify", "--distance", "diameter", "--space", "real:-1e308,1e308", "--checks", "axioms,repetition,nonincreasing", "--budget", "100"),
        ("verify", "--distance", "diameter:d2=euclidean", "--space", "plane:-inf,0"),
        # exact mode on the line folds only the cell-linear entries
        ("constants", "--distance", "inner-interval", "--space", "real", "--mode", "exact"),
        # strong-extremal lives on its own label space
        ("constants", "--distance", "strong-extremal:k=2", "--n", "3", "--space", "real", "--budget", "100"),
        # the report cannot be written: its directory is missing, or --out names a directory
        ("verify", "--distance", "cardinality", "--n", "3", "--budget", "10", "--out", "/nonexistent/dir/r.json"),
        ("verify", "--distance", "cardinality", "--n", "3", "--budget", "10", "--out", "."),
    ],
)
def test_bad_input_exits_two_without_traceback(args):
    r = run_cli(*args)
    assert r.returncode == 2, r.stderr
    assert r.stdout == ""
    assert "error:" in r.stderr
    assert "Traceback" not in r.stderr


def test_parse_value_forms():
    assert parse_value("3") == 3
    assert parse_value("0.25") == 0.25
    assert parse_value("1/4") == 0.25
    assert parse_value("abs") == "abs"
    assert parse_value("a/b") == "a/b"
    with pytest.raises(ValueError, match="zero denominator"):
        parse_value("1/0")
    with pytest.raises(ValueError, match="float range"):
        parse_value("1" * 400 + "/1")


_SPEC_TEXT = st.text() | st.from_regex(r"[a-z-]*(:([a-z]*=-?[0-9]*/?-?[0-9]*,?)*)?", fullmatch=True)


@settings(max_examples=300, deadline=None)
@given(text=_SPEC_TEXT)
@example(text="1/0")
@example(text="two-anchor:s=1/0")
def test_parsers_return_or_raise_value_error(text):
    # any text either parses or is a config error (exit 2), never another exception
    for parse in (parse_value, parse_distance_spec):
        try:
            parse(text)
        except ValueError:
            pass


def test_unknown_distance_exit_two():
    r = run_cli("constants", "--distance", "no-such-thing", "--n", "3")
    assert r.returncode == 2
    assert "known ids" in r.stderr


def test_constants_inner_interval():
    r = run_cli(
        "constants", "--distance", "inner-interval", "--n", "5", "--k", "2..5",
        "--budget", "20000",
    )
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    by_name = {row["name"]: row for row in report["rows"]}
    assert by_name["K*_5"]["observed"] == pytest.approx(2 / 5, abs=1e-9)
    assert by_name["K*_5,2"]["observed"] == pytest.approx(1.0, abs=1e-9)
    assert by_name["K*_5,3"]["observed"] == pytest.approx(2 / 3, abs=1e-9)
    assert by_name["K*_5,4"]["observed"] == pytest.approx(1 / 2, abs=1e-9)
    assert by_name["K*_5,5"]["observed"] == pytest.approx(2 / 5, abs=1e-9)
    for row in report["rows"]:
        w = row["witness"]
        assert w is not None and "tuple" in w and "z" in w and "ratio" in w


def test_constants_exact_mode_on_the_line():
    # diameter[abs] is linear on the order cells of the line: its step vectors give K*_4 exactly
    r = run_cli("constants", "--distance", "diameter", "--space", "real", "--mode", "exact")
    assert r.returncode == 0, r.stderr
    (row,) = json.loads(r.stdout)["rows"]
    assert row["method"] == "exact"
    assert row["observed"] == 1 / 3


def test_constants_enclosing_area_n3():
    r = run_cli(
        "constants", "--distance", "enclosing-area", "--n", "3", "--budget", "20000"
    )
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    (row,) = [row for row in report["rows"] if row["name"] == "K*_3"]
    assert row["observed"] == pytest.approx(2 / 3, abs=1e-6)


def test_constants_two_anchor():
    r = run_cli(
        "constants", "--distance", "two-anchor:s=1/3", "--n", "4", "--k", "2..4"
    )
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    by_name = {row["name"]: row for row in report["rows"]}
    assert by_name["K*_4"]["observed"] == pytest.approx(1 / 3, abs=1e-12)
    assert by_name["K*_4,2"]["observed"] == pytest.approx(1.0, abs=1e-12)
    assert by_name["K*_4,3"]["observed"] == pytest.approx(1 / 2, abs=1e-12)
    assert by_name["K*_4,4"]["observed"] == pytest.approx(1 / 3, abs=1e-12)


def test_table1_small_budget():
    r = run_cli("table1", "--n", "4", "--budget", "4000")
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    names = [row["name"] for row in report["rows"]]
    for want in ("drastic", "cardinality", "arithmetic-mean", "enclosing-radius"):
        assert any(want in name for name in names), names
    for row in report["rows"]:
        assert row["status"] in ("pass", "info"), row


def test_multidistance_family_pass():
    r = run_cli(
        "multidistance", "--family", "cardinality", "--arities", "2..4", "--budget", "4000",
    )
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["status"] == "pass"


def test_multidistance_family_fail():
    r = run_cli(
        "multidistance", "--family", "line-count", "--arities", "2..4", "--budget", "4000"
    )
    assert r.returncode == 1
    report = json.loads(r.stdout)
    (v,) = [v for v in report["verdicts"] if v["property"] == "multidistance"]
    assert v["status"] == "fail"
    ce = v["counterexample"]
    assert ce["lhs"] > ce["rhs"]


def test_multidistance_verdict_that_checked_nothing_does_not_pass():
    # --budget 4 leaves the simplex check of the converse direction no
    # candidate, while the triangle scan's floor still finds line-count's
    # violation, as at --budget 4000
    r = run_cli("multidistance", "--family", "line-count", "--budget", "4")
    assert r.returncode == 1, r.stderr
    report = json.loads(r.stdout)
    (v,) = [v for v in report["verdicts"] if v["property"] == "multidistance"]
    assert v["status"] == "fail"
    converse = {v["property"]: v for v in report["verdicts"] if v["property"] != "multidistance"}
    assert sorted(converse) == [f"multidistance-to-ndistance(n={n})" for n in (3, 4, 5)]
    for v in converse.values():
        assert v["status"] == "not-applicable"
        assert v["details"]["checked"] == 0
        assert v["details"]["reason"] == "no candidate checked"


def test_json_deterministic_modulo_timestamp():
    args = (
        "constants", "--distance", "diameter", "--n", "3", "--budget", "4000",
        "--seed", "7",
    )
    a = json.loads(run_cli(*args).stdout)
    b = json.loads(run_cli(*args).stdout)
    a.pop("generated_at")
    b.pop("generated_at")
    assert a == b


def test_seed_from_environment_and_flag_priority():
    base = ("constants", "--distance", "diameter", "--n", "3", "--budget", "2000")
    r_env = run_cli(*base, env_extra={"SIMPLEX_LAB_SEED": "9"})
    assert json.loads(r_env.stdout)["config"]["seed"] == 9
    r_flag = run_cli(*base, "--seed", "11", env_extra={"SIMPLEX_LAB_SEED": "9"})
    assert json.loads(r_flag.stdout)["config"]["seed"] == 11
    r_default = run_cli(*base)
    assert json.loads(r_default.stdout)["config"]["seed"] == 42


def test_csv_and_text_formats():
    r = run_cli(
        "constants", "--distance", "cardinality", "--n", "3", "--space", "finite:3",
        "--format", "csv",
    )
    assert r.returncode == 0
    rows = list(csv.DictReader(io.StringIO(r.stdout)))
    assert rows and "name" in rows[0] and "observed" in rows[0]

    r = run_cli(
        "verify", "--distance", "cardinality", "--n", "3", "--space", "finite:3",
        "--format", "text",
    )
    assert r.returncode == 0
    assert "status: pass" in r.stdout


def test_out_writes_file(tmp_path):
    out = tmp_path / "report.json"
    r = run_cli(
        "constants", "--distance", "cardinality", "--n", "3", "--space", "finite:3",
        "--out", str(out),
    )
    assert r.returncode == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "simplex-lab/1"


def test_verify_strong_checks_auto_constant():
    # standard + repetition-invariant: the optimal constant is derived per k
    r = run_cli(
        "verify", "--distance", "cardinality", "--n", "4", "--space", "finite:4",
        "--checks", "strong", "--k", "2..4", "--budget", "8000",
    )
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    props = [v["property"] for v in report["verdicts"]]
    assert any("strong-simplex(k=2" in p for p in props)
    assert any("strong-simplex(k=4" in p for p in props)


def test_verify_strong_checks_explicit_constant():
    # the mean has no derivable constant (not repetition-invariant, not
    # nonincreasing), so one must be given; without it the config fails
    r = run_cli(
        "verify", "--distance", "arithmetic-mean", "--n", "4", "--checks", "strong",
        "--k", "3", "--strong-constant", "1/2", "--budget", "8000",
    )
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["status"] == "pass"
    r = run_cli(
        "verify", "--distance", "arithmetic-mean", "--n", "4", "--checks", "strong",
        "--k", "3", "--budget", "8000",
    )
    assert r.returncode == 2


def test_space_parser_variants():
    r = run_cli("verify", "--distance", "cardinality", "--n", "3", "--space", "finite:a,b,c")
    assert r.returncode == 0
    r = run_cli("verify", "--distance", "diameter", "--n", "3", "--space", "real:0,1",
                "--budget", "2000")
    assert r.returncode == 0
    r = run_cli("verify", "--distance", "diameter", "--n", "3", "--space", "plane",
                "--budget", "2000")
    assert r.returncode == 2  # line distance on planar points: rejected


def _declared_flags() -> dict[str, tuple[set[str], set[str]]]:
    """Each subcommand's (declared, required) flags, read from its --help usage."""
    parser = cli.build_parser()
    flags = {}
    for command in ("verify", "constants", "table1", "multidistance"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            parser.parse_args([command, "--help"])
        usage = out.getvalue().split("\n\n", 1)[0]
        declared = set(re.findall(r"--[a-z][a-z-]*", usage)) - {"--help"}
        optional = set(re.findall(r"\[(--[a-z][a-z-]*)", usage))
        flags[command] = (declared, declared - optional)
    return flags


_DECLARED = _declared_flags()

# A small value pool per flag: valid and invalid values, kept cheap (budget
# at most 20, arity at most 5, arities within 2..5).  --out is left out so
# that no file is written.
_FLAG_VALUES = {
    "--distance": (
        "cardinality", "drastic", "arithmetic-mean", "inner-interval", "line-count", "enclosing-area",
        "diameter:d2=euclidean", "fermat:d2=chebyshev", "sum-based:d2=discrete", "chebyshev-diameter:q=3",
        "inner-interval-power:p=2", "inner-interval-power:p=x", "diameter:d2=1/2", "single-anchor:s=0.4",
        "two-anchor:s=1/3", "strong-extremal:k=2", "single-anchor:s=x", "no-such", "diameter:bad", ":",
    ),
    "--family": (
        "enclosing-radius", "arithmetic-mean", "arithmetic-mean-doubled", "line-count", "cardinality",
        "drastic", "inner-interval", "no-such",
    ),
    "--space": ("finite:3", "finite:2", "finite:a,b", "finite:1", "real", "real:0,1", "plane", "plane:-1,1", "moon"),
    "--n": ("1", "2", "3", "4", "5"),
    "--k": ("2", "3", "2..3", "2,4", "5", "1", "x"),
    "--arities": ("2", "2..3", "2..5", "2,3,4", "3..4", "2..x"),
    "--checks": ("axioms", "repetition", "nonincreasing", "strong", "axioms,strong", "bogus", ""),
    "--strong-constant": ("1/2", "1", "nan", "inf", "x"),
    "--mode": ("auto", "exact", "sampled", "x"),
    "--tolerance": ("1e-9", "0", "100", "x"),
    "--budget": ("1", "4", "20", "0"),
    "--seed": ("0", "7", "x"),
    "--format": ("json", "csv", "text", "xml"),
}


def test_value_pool_covers_every_declared_flag():
    declared = set().union(*(flags for flags, _ in _DECLARED.values()))
    assert set(_FLAG_VALUES) == declared - {"--out"}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_DECLARED)))
    declared, required = _DECLARED[command]
    declared = sorted(declared & set(_FLAG_VALUES))
    # the required flags, some declared ones, and at most one flag of any
    # subcommand, declared by this one or not
    flags = sorted(required)
    flags += draw(st.lists(st.sampled_from(declared), max_size=4))
    flags += draw(st.lists(st.sampled_from(sorted(_FLAG_VALUES)), max_size=1))
    argv = [command, "--budget", draw(st.sampled_from(("1", "4", "20")))]
    for flag in flags:
        argv += [flag, draw(st.sampled_from(_FLAG_VALUES[flag]))]
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=_argv())
@example(argv=["table1", "--budget", "4", "--space", "plane"])
@example(argv=["multidistance", "--budget", "4", "--family", "line-count", "--space", "real"])
def test_any_argv_exits_zero_one_or_two(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            assert exc.code == 2, (argv, err.getvalue())
            code = 2
    assert code in (0, 1, 2), argv
    assert (out.getvalue() == "") == (code == 2), (argv, err.getvalue())
    if code == 2:
        assert "error:" in err.getvalue(), argv


def _readme_cli_flags() -> dict[str, set[str]]:
    """Each subcommand's flags, from the usage block that opens the README's ## CLI section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    usage = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    flags: dict[str, set[str]] = {}
    for line in usage.splitlines():
        if line.startswith("simplex-lab "):
            command = line.split()[1]
            flags[command] = set()
        if flags:
            flags[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
    return flags


def test_readme_lists_the_flags_each_subcommand_declares():
    assert _readme_cli_flags() == {command: declared for command, (declared, _) in _DECLARED.items()}
