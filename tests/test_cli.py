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
from simplex_lab.cli import parse_distance_spec, parse_int_list, parse_space, parse_value

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
        # a row tolerance is finite and nonnegative: nan fails every row, inf passes it and is not JSON
        ("constants", "--distance", "diameter", "--tolerance", "nan"),
        ("constants", "--distance", "diameter", "--tolerance", "inf"),
        ("constants", "--distance", "diameter", "--tolerance", "-1"),
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
        # the budget alone picks how an estimate runs: no former --mode value is accepted
        ("constants", "--distance", "inner-interval", "--space", "real", "--mode", "exact"),
        ("constants", "--distance", "enclosing-radius", "--space", "plane", "--mode", "sampled"),
        ("constants", "--distance", "cardinality", "--space", "finite:3", "--mode", "auto"),
        # strong-extremal lives on its own label space
        ("constants", "--distance", "strong-extremal:k=2", "--n", "3", "--space", "real", "--budget", "100"),
        # the report cannot be written: its directory is missing, or --out names a directory
        ("verify", "--distance", "cardinality", "--n", "3", "--budget", "10", "--out", "/nonexistent/dir/r.json"),
        ("verify", "--distance", "cardinality", "--n", "3", "--budget", "10", "--out", "."),
        # p is finite and at least 1, and a huge p is rejected without computing 2^p
        ("constants", "--distance", "inner-interval-power:p=nan", "--n", "4"),
        ("constants", "--distance", "inner-interval-power:p=1e308", "--n", "4"),
        # values that overflow a float on the box: the gap's p-th power, the enclosing circle's cubic terms
        ("verify", "--distance", "inner-interval-power:p=2", "--n", "4", "--space", "real:-1e160,1e160", "--budget", "200"),
        ("verify", "--distance", "enclosing-radius", "--n", "3", "--space", "plane:-1e110,1e110", "--budget", "200"),
        # an empty label in a comma list: a trailing or doubled comma would add the label ""
        ("verify", "--distance", "drastic", "--space", "finite:a,b,", "--n", "3"),
        ("verify", "--distance", "drastic", "--space", "finite:a,,b", "--n", "3"),
    ],
)
def test_bad_input_exits_two_without_traceback(args):
    r = run_cli(*args)
    assert r.returncode == 2, r.stderr
    assert r.stdout == ""
    assert "error:" in r.stderr
    assert "Traceback" not in r.stderr


def test_verify_decides_the_simplex_axiom_on_the_type_list():
    r = run_cli("verify", "--distance", "arithmetic-mean", "--n", "4")
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    (v,) = [v for v in report["verdicts"] if v["property"].startswith("simplex(")]
    assert v["status"] == "pass"
    # the 2(n-1) step pairs, and K*_4 = 1/3 bit for bit (sampling read 0.33333333333333337)
    assert v["details"] == {"checked": 6, "max_ratio": 0.3333333333333333, "method": "exact"}


def test_verify_decides_identity_and_symmetry_on_the_axiom_tuples():
    # the partition, line step-pair and gap entries are exact
    for dist_id, space, exact in (("cardinality", "finite:3", True), ("arithmetic-mean", "real", True),
                                  ("inner-interval", "real", True)):
        r = run_cli("verify", "--distance", dist_id, "--n", "4", "--space", space, "--budget", "2000")
        assert r.returncode == 0, r.stderr
        identity, symmetry, _ = json.loads(r.stdout)["verdicts"]
        for v, prop in ((identity, "identity("), (symmetry, "symmetry(")):
            assert v["property"].startswith(prop) and v["status"] == "pass"
            assert (v["details"].get("method") == "exact") is exact, (dist_id, v)


def test_verify_samples_the_gap_entries_past_the_permutation_limit():
    # n = 64 has Fubini(64) - 1 permuted 0/1-gap tuples, so identity and symmetry sample the budget
    r = run_cli("verify", "--distance", "inner-interval", "--n", "64", "--budget", "100")
    assert r.returncode == 0, r.stderr
    identity, symmetry, simplex = json.loads(r.stdout)["verdicts"]
    for v in (identity, symmetry):
        assert v["status"] == "pass" and "method" not in v["details"]
    assert identity["details"]["checked"] == 100 and simplex["details"]["method"] == "exact"


def test_line_count_passes_at_its_exact_lower_bracket_end():
    # 3/5 is attained, and the bracket's lower end is 3/5 correctly rounded
    r = run_cli("constants", "--distance", "line-count", "--n", "3", "--tolerance", "0", "--budget", "3000")
    assert r.returncode == 0, r.stdout
    (row,) = json.loads(r.stdout)["rows"]
    assert row["observed"] == row["bounds"][0] == 0.6


def test_line_count_is_exact_up_to_n_5():
    argv = ("constants", "--distance", "line-count", "--n", "5", "--k", "2..5", "--tolerance", "0")
    r = run_cli(*argv)
    assert r.returncode == 0, r.stdout
    rows = json.loads(r.stdout)["rows"]
    assert [row["method"] for row in rows] == ["exact"] * 5
    assert [row["observed"] for row in rows] == [5 / 17, 3 / 2, 2 / 3, 5 / 12, 5 / 17]
    assert all(row["observed"] == row["expected"] for row in rows)


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
@example(text="2..99999999999999999999")
@example(text="finite:99999999999999999999")
def test_parsers_return_or_raise_value_error(text):
    # any text either parses or is a config error (exit 2), never another exception
    for parse in (parse_value, parse_distance_spec, parse_space, lambda s: parse_int_list(s, 2, 12)):
        try:
            parse(text)
        except ValueError:
            pass


def test_finite_space_labels_are_stripped_and_nonempty():
    assert parse_space("finite: a , b").labels == ("a", "b")
    for spec in ("finite:a,b,", "finite:a,,b", "finite:,"):
        with pytest.raises(ValueError, match="must not be empty"):
            parse_space(spec)


def test_int_list_checks_a_range_before_expanding_it():
    # the range is never built: a stop past the bound is a config error at once
    with pytest.raises(ValueError, match=r"k=99999999999999999999 out of range \[2, 4\]"):
        parse_int_list("2..99999999999999999999", 2, 4)
    assert parse_int_list("2..4", 2, 4) == [2, 3, 4]
    with pytest.raises(ValueError, match="empty k list"):
        parse_int_list("4..3", 2, 4)
    for argv in (("constants", "--distance", "drastic", "--k", "2..99999999999999999999"),
                 ("multidistance", "--family", "drastic", "--arities", "2..99999999999999999999")):
        r = run_cli(*argv)
        assert r.returncode == 2 and "out of range" in r.stderr, (argv, r.stderr)


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
    r = run_cli("constants", "--distance", "diameter", "--space", "real")
    assert r.returncode == 0, r.stderr
    (row,) = json.loads(r.stdout)["rows"]
    assert row["method"] == "exact"
    assert row["observed"] == 1 / 3


def test_constants_exact_mode_on_the_plane():
    # diameter[euclidean] is the sup of diameter[abs] over unit functionals: the
    # line's step vectors, on the x-axis, give K*_4 exactly
    r = run_cli("constants", "--distance", "diameter:d2=euclidean", "--space", "plane")
    assert r.returncode == 0, r.stderr
    (row,) = json.loads(r.stdout)["rows"]
    assert row["method"] == "exact"
    assert row["observed"] == 1 / 3


def test_constants_budget_bounds_a_large_finite_space():
    # C(17, 6) * 12 = 148,512 (multiset, z) pairs exceed max(1000, 4096), but two-anchor folds its anchored
    # type list whatever the budget
    r = run_cli("constants", "--distance", "two-anchor:s=0.2", "--space", "finite:12", "--n", "6", "--budget", "1000")
    assert r.returncode == 0, r.stderr
    (row,) = json.loads(r.stdout)["rows"]
    assert (row["method"], row["observed"]) == ("exact", 0.2)
    # past the partition point limit (three labels from n = 251) drastic has no list, and its
    # C(253, 251) * 3 = 95,634 (multiset, z) pairs exceed max(1000, 4096), so it samples; the structured
    # head's (a, b, ..., b) with z = b reaches the standard 1/250
    r = run_cli("constants", "--distance", "drastic", "--space", "finite:3", "--n", "251", "--budget", "1000")
    assert r.returncode == 0, r.stderr
    (row,) = json.loads(r.stdout)["rows"]
    assert (row["method"], row["observed"], row["status"]) == ("sampled", 0.004, "pass")
    # cardinality folds its equality types, whatever the space's size
    r = run_cli("constants", "--distance", "cardinality", "--space", "finite:12", "--n", "6", "--budget", "1000")
    assert r.returncode == 0, r.stderr
    (row,) = json.loads(r.stdout)["rows"]
    assert (row["method"], row["observed"]) == ("exact", 0.2)


@pytest.mark.parametrize("spec, n", [("two-anchor:s=0.3", 5), ("single-anchor:s=0.25", 8)])
def test_constants_of_constructions_are_exact_on_26_labels(spec, n):
    # the anchored type list: 176 pairs for two-anchor at n = 5, where the C(30, 5) * 26 (multiset, z) pairs
    # sampled before; single-anchor at n = 8 no longer scans the C(32, 8) anchor-free multisets to calibrate
    r = run_cli("constants", "--distance", spec, "--n", str(n), "--space", "finite:26")
    assert r.returncode == 0, r.stderr
    (row,) = json.loads(r.stdout)["rows"]
    assert (row["method"], row["status"]) == ("exact", "pass")


def test_verify_decides_the_axioms_of_a_construction_on_its_anchored_list():
    r = run_cli("verify", "--distance", "two-anchor:s=0.3", "--n", "5", "--space", "finite:26",
                "--checks", "axioms,nonincreasing")
    assert r.returncode == 0, r.stderr
    by_prop = {v["property"].split("(")[0]: v for v in json.loads(r.stdout)["verdicts"]}
    for prop in ("identity", "symmetry", "simplex", "nonincreasing-identification"):
        assert (by_prop[prop]["status"], by_prop[prop]["details"]["method"]) == ("pass", "exact"), prop
    assert by_prop["simplex"]["details"]["checked"] == 176


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


def test_table1_rows_are_all_exact():
    # every row folds a type list, so each observed value is its closed form, enclosing-radius's 1/3 included
    r = run_cli("table1", "--n", "4", "--seed", "42")
    assert r.returncode == 0, r.stderr
    rows = json.loads(r.stdout)["rows"]
    assert len(rows) == 12
    for row in rows:
        assert (row["method"], row["observed"]) == ("exact", row["expected"]), row["name"]


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


def test_multidistance_decides_the_mean_families_on_the_step_pairs():
    # the doubled member |x - z| shares the mean's step-pair hook: 2(n-1) pairs per arity
    r = run_cli("multidistance", "--family", "arithmetic-mean-doubled", "--arities", "2..6")
    assert r.returncode == 0, r.stderr
    (v,) = [v for v in json.loads(r.stdout)["verdicts"] if v["property"] == "multidistance"]
    assert v["status"] == "pass" and v["details"]["method"] == "exact"
    assert v["details"]["checked"] == 2 + 4 + 6 + 8 + 10
    assert [info["checked"] for info in v["details"]["per_arity"].values()] == [2, 4, 6, 8, 10]
    # with g = |x - z|/2 the bound fails first at arity 3, on a listed pair
    r = run_cli("multidistance", "--family", "arithmetic-mean", "--arities", "2..6")
    assert r.returncode == 1, r.stderr
    (v,) = [v for v in json.loads(r.stdout)["verdicts"] if v["property"] == "multidistance"]
    assert v["details"]["method"] == "exact"
    assert v["counterexample"] == {"arity": 3, "tuple": [0.0, 3.0, 3.0], "z": 3.0, "lhs": 2.0, "rhs": 1.5}


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


def test_verify_strong_checks_sum_based_at_n_3():
    # sum-based is repetition-invariant exactly for n <= 3, so at n = 3 the
    # standard formula gives the constant: 1.25 at k = 2
    r = run_cli("verify", "--distance", "sum-based", "--n", "3", "--space", "real", "--checks", "strong")
    assert r.returncode == 0, r.stderr
    verdicts = json.loads(r.stdout)["verdicts"]
    assert [v["property"] for v in verdicts] == ["strong-simplex(k=2, M=1.25)", "strong-simplex(k=3, M=0.5)"]
    assert {v["details"]["constant_origin"] for v in verdicts} == {"standard-formula"}


def test_verify_strong_checks_explicit_constant():
    # the mean is neither repetition-invariant nor nonincreasing, so at
    # k = n, where the general formula stops, a constant must be given;
    # without it the config fails
    r = run_cli(
        "verify", "--distance", "arithmetic-mean", "--n", "4", "--checks", "strong",
        "--k", "3", "--strong-constant", "1/2", "--budget", "8000",
    )
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["status"] == "pass"
    r = run_cli(
        "verify", "--distance", "arithmetic-mean", "--n", "4", "--checks", "strong",
        "--k", "4", "--budget", "8000",
    )
    assert r.returncode == 2


@pytest.mark.parametrize("dist_id, prop", [
    # K*_4 = 1/2, so n - 1/K*_4 = 2 < k = 3: (3/2)/1 - (1/2)/3
    ("inner-interval", "strong-simplex(k=3, M=1.33333)"),
    # K*_4 = 1/3: the general formula is the standard one, 1/2 + 1/18
    ("arithmetic-mean", "strong-simplex(k=3, M=0.555556)"),
])
def test_verify_strong_checks_general_formula(dist_id, prop):
    # neither repetition-invariant and standard nor nonincreasing: the best constant alone gives M
    r = run_cli("verify", "--distance", dist_id, "--n", "4", "--checks", "strong", "--k", "3", "--budget", "8000")
    assert r.returncode == 0, r.stderr
    (v,) = json.loads(r.stdout)["verdicts"]
    assert (v["property"], v["status"], v["details"]["constant_origin"]) == (prop, "pass", "general-formula")
    # k = 2 is not above n - 1/K*_4 = 2 for inner-interval, and k = 4 is not below n
    r = run_cli("verify", "--distance", dist_id, "--n", "4", "--checks", "strong",
                "--k", "2" if dist_id == "inner-interval" else "4")
    assert r.returncode == 2 and "pass --strong-constant" in r.stderr


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
