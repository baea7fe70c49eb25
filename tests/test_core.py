import ast
import dataclasses
import inspect
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
from helpers import sample_pair as reference_sample_pair
from simplex_lab import analysis, catalog, core, properties
from simplex_lab.analysis import ratio
from simplex_lab.catalog import CatalogEntry
from simplex_lab.core import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    DegenerateTupleError,
    FiniteSpace,
    NDistance,
    Plane,
    PropertyVerdict,
    RealLine,
    check_axioms,
    check_identity,
    check_simplex,
    check_symmetry,
    derive_seed,
    distinct_count,
    evaluate,
    iter_pairs,
    iter_tuples,
    point_kind,
    sample_pair,
    section,
    step_pairs,
    structured_pairs,
    structured_tuples,
)

ABC = FiniteSpace(("a", "b", "c"))


def test_point_kinds():
    assert point_kind("a") == "symbol"
    assert point_kind(0.5) == "real"
    assert point_kind(3) == "real"
    assert point_kind((1.0, 2.0)) == "planar"
    with pytest.raises(TypeError):
        point_kind((1.0, 2.0, 3.0))
    with pytest.raises(TypeError):
        point_kind(None)


def test_spaces():
    assert ABC.size == 3
    assert ABC.kind == "finite"
    line = RealLine()
    assert (line.low, line.high) == (-1.0, 1.0)
    assert Plane().kind == "plane"
    # finite tuples enumerate lexicographically in label order
    tuples = list(ABC.iter_tuples(2))
    assert tuples[0] == ("a", "a")
    assert len(tuples) == 9


@pytest.mark.parametrize("space", [ABC, RealLine(), RealLine(-2.5, 7.0), Plane(), Plane(-3.0, 0.5)], ids=repr)
@pytest.mark.parametrize("seed", [0, 5, 42])
def test_sample_pair_keeps_the_stream_of_one_uniform_per_coordinate(space, seed):
    for n in range(2, 7):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(50):
            assert repr(sample_pair(space, n, rng)) == repr(reference_sample_pair(space, n, ref))
        assert rng.getstate() == ref.getstate()


def test_catalog_import_loads_only_its_dependencies():
    # the package __init__ re-exports nothing, so importing one module pulls in
    # only the modules it imports itself
    code = "import sys, simplex_lab.catalog; print(sorted(m for m in sys.modules if m.startswith('simplex_lab')))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert r.returncode == 0, r.stderr
    loaded = r.stdout.strip()
    assert loaded == str(["simplex_lab", "simplex_lab.catalog", "simplex_lab.core", "simplex_lab.geometry"])


_ONE_FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert False


def test_passes():
    pass
'''


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    # under the repository's warning filters, the hypothesis plugin's report
    # of a failure must not turn into an INTERNALERROR that hides later tests
    (tmp_path / "test_probe.py").write_text(_ONE_FAILING_PROPERTY)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    r = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), str(tmp_path / "test_probe.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert "INTERNALERROR" not in r.stdout + r.stderr
    assert "1 failed, 1 passed" in r.stdout, r.stdout


def test_section_is_one_based():
    t = ("a", "b", "c")
    assert section(t, 1, "z") == ("z", "b", "c")
    assert section(t, 3, "z") == ("a", "b", "z")
    with pytest.raises(IndexError):
        section(t, 0, "z")
    with pytest.raises(IndexError):
        section(t, 4, "z")


def test_distinct_count():
    assert distinct_count(("a", "a", "a")) == 1
    assert distinct_count(("a", "b", "a")) == 2


def test_ndistance_validation():
    with pytest.raises(ValueError):
        NDistance("bad", 1, "finite", lambda t: 0.0)
    with pytest.raises(ValueError):
        NDistance("bad", 2, "nowhere", lambda t: 0.0)
    d = catalog.make("cardinality", 3).distance
    with pytest.raises(ValueError):
        evaluate(d, ("a", "b"))  # wrong arity
    line_d = catalog.make("diameter", 3).distance
    with pytest.raises(ValueError):
        evaluate(line_d, (0.0, 1.0, "a"))  # real-line distance rejects symbols


def test_simplex_denominator_counts_unchanged_sections():
    # replacing position i of (a,b,c) by z=a leaves section 1 == (a,b,c)
    entry = catalog.make("cardinality", 3)
    d = entry.distance
    t = ("a", "b", "c")
    # brute check: sections are (a,b,c), (a,a,c), (a,b,a) -> 2 + 1 + 1
    vals = [d.evaluator(section(t, i, "a")) for i in (1, 2, 3)]
    assert vals == [2.0, 1.0, 1.0]
    assert sum(vals) == pytest.approx(4.0)
    assert ratio(entry, t, "a") == pytest.approx(2.0 / 4.0)
    with pytest.raises(DegenerateTupleError):
        ratio(entry, ("a", "a", "a"), "b")


def test_evaluator_zero_on_constant_tuples():
    for name in ("drastic", "cardinality", "diameter", "arithmetic-mean", "inner-interval"):
        entry = catalog.make(name, 3)
        t = ("a",) * 3 if entry.distance.space_kind == "finite" else (0.3,) * 3
        assert evaluate(entry.distance, t) == 0.0


def test_check_identity_and_symmetry_pass():
    # from the entry's axiom tuples, and sampled without its hook
    entry = catalog.make("cardinality", 3)
    for e in (entry, dataclasses.replace(entry, type_pairs=None)):
        assert check_identity(e, ABC).passed
        assert check_symmetry(e, ABC).passed


def test_check_identity_catches_violation():
    bad = CatalogEntry(NDistance("bad-id", 2, "finite", lambda t: 1.0))
    v = check_identity(bad, ABC)
    assert v.failed
    assert v.counterexample is not None


def test_check_symmetry_catches_violation():
    bad = CatalogEntry(NDistance("bad-sym", 2, "real-line", lambda t: max(t[0] - t[1], 0.0)))
    v = check_symmetry(bad, RealLine(), budget=64, seed=1)
    assert v.failed


def test_check_symmetry_evaluates_each_permutation_once():
    # n <= 4: the base value plus the distinct permutations other than t itself, so on the 27 tuples of
    # ABC^3 one call for each of the 3 constants, 3 for each of the 18 with two points, 6 for each of the 6 with three
    calls = []
    entry = catalog.make("cardinality", 3)
    d = NDistance("counted", 3, "any", lambda t: calls.append(t) or entry.distance.evaluator(t))
    v = check_symmetry(CatalogEntry(d), ABC, budget=27)
    assert v.passed and v.details["checked"] == 27
    assert len(calls) == 3 + 18 * 3 + 6 * 6


def test_check_simplex_pass_and_fail():
    # on the entry's type list, and sampled without its hook
    entry = catalog.make("cardinality", 3)
    for e in (entry, dataclasses.replace(entry, type_pairs=None)):
        ok = check_simplex(e, ABC, constant=0.5)
        assert ok.passed
        tight = check_simplex(e, ABC, constant=0.4)
        assert tight.failed
        assert tight.counterexample is not None
        ce = tight.counterexample
        # the stored violation must be reproducible from the counterexample itself
        d = e.distance
        num = evaluate(d, tuple(ce["tuple"]))
        den = sum(evaluate(d, section(tuple(ce["tuple"]), i, ce["z"])) for i in (1, 2, 3))
        assert num == pytest.approx(ce["value"])
        assert den == pytest.approx(ce["section_sum"])
        assert num - 0.4 * den == pytest.approx(ce["violation"])


def test_check_axioms_bundle():
    verdicts = check_axioms(catalog.make("drastic", 3), ABC)
    assert all(v.passed for v in verdicts)
    names = [v.property for v in verdicts]
    assert any("identity" in p for p in names)
    assert any("symmetry" in p for p in names)


def test_no_public_function_takes_a_candidate_list():
    # a check reads its proven lists from the entry, so no caller can hand it a list that proves nothing
    for module in (core, analysis, properties):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ == module.__name__ and not name.startswith("_"):
                params = set(inspect.signature(fn).parameters)
                assert not params & {"pairs", "tuples"}, f"{module.__name__}.{name}{inspect.signature(fn)}"


def test_properties_names_no_hook():
    # the entry says which list decides each check, so properties never tests a hook itself
    assert not {"partition_pairs", "step_pairs"} & set(vars(properties))


def test_properties_checks_call_no_other_check():
    # each structural verdict comes from a search of its own property; the converse
    # multidistance check alone runs its hypothesis and its conclusion
    def called(fn):
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", ""))
                if name.startswith("check_"):
                    yield name

    tree = ast.parse(inspect.getsource(properties))
    checks = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name.startswith("check_")]
    calls = {fn.name: set(called(fn)) for fn in checks}
    assert {name: c for name, c in calls.items() if c} == {
        "check_multi_to_ndistance": {"check_nonincreasing_identification", "check_simplex"}
    }


def test_every_public_check_has_a_caller_in_src():
    # no relation the package can check is reachable only from the tests
    defined, called = set(), set()
    for path in Path(core.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name.startswith(("check_", "strong_constant_")):
                defined.add(node.name)
            elif isinstance(node, ast.Call):
                called.add(getattr(node.func, "id", getattr(node.func, "attr", "")))
    assert "check_lemma_mixed_bound" in defined and not defined - called, defined - called


def test_verdict_rule_fails_on_a_counterexample():
    # a counterexample decides, whatever else the details say
    ce, worst = {"tuple": ("a", "b")}, {"tuple": ("b", "a")}
    for details in (None, {"checked": 4}, {"checked": 0}, {"checked": 4, "reason": "implied check fails"}):
        v = PropertyVerdict.of("p", details, ce, worst)
        assert v == PropertyVerdict("p", FAIL, ce, worst, details)


def test_verdict_rule_not_applicable_on_a_reason_or_nothing_checked():
    unmet = PropertyVerdict.of("p", {"reason": "needs k < n", "checked": 5})
    assert unmet == PropertyVerdict("p", NOT_APPLICABLE, details={"reason": "needs k < n", "checked": 5})
    empty = PropertyVerdict.of("p", {"checked": 0, "max_ratio": 0.0})
    assert empty.status == NOT_APPLICABLE and not empty.passed and not empty.failed
    assert empty.details == {"checked": 0, "max_ratio": 0.0, "reason": "no candidate checked"}
    # a checker that is given no candidate says so instead of passing
    d = CatalogEntry(catalog.make("cardinality", 3).distance)
    for v in (check_identity(d, ABC, budget=0), check_simplex(d, ABC, budget=0)):
        assert v.status == NOT_APPLICABLE and v.details["reason"] == "no candidate checked"


def test_verdict_rule_passes_otherwise():
    for details in (None, {}, {"checked": 3}, {"full": 0.5, "checks": {"lower": True}}):
        assert PropertyVerdict.of("p", details) == PropertyVerdict("p", PASS, details=details)


def test_derive_seed_is_deterministic_and_spread():
    assert derive_seed(42, 7) == derive_seed(42, 7)
    streams = {derive_seed(42, s) for s in range(32)}
    assert len(streams) == 32
    assert all(0 <= v < 2**63 for v in streams)


def test_iter_tuples_exhaustive_when_small():
    got = list(iter_tuples(ABC, 2, budget=1000, seed=0))
    assert len(got) == 9
    assert got == list(ABC.iter_tuples(2))
    # identical calls replay identically on continuous spaces too
    a = list(iter_tuples(RealLine(), 3, budget=50, seed=5))
    b = list(iter_tuples(RealLine(), 3, budget=50, seed=5))
    assert a == b


def test_structured_head_of_a_finite_space_has_the_two_label_families():
    # a finite space too large to enumerate samples after the line's (x, ..., x, y, ..., y) and constant tuples
    assert structured_tuples(ABC, 4) == [("a", "b", "b", "b"), ("a", "a", "b", "b"), ("a", "a", "a", "b"), ("a",) * 4]
    assert structured_pairs(ABC, 2) == [(("a", "b"), "a"), (("a", "b"), "b"), (("a", "a"), "a")]
    line = structured_tuples(RealLine(), 4)
    assert line[:3] + line[-1:] == [(0.0, 1.0, 1.0, 1.0), (0.0, 0.0, 1.0, 1.0), (0.0, 0.0, 0.0, 1.0), (0.0,) * 4]


def test_step_pairs_are_built_once_per_kind_and_n():
    # one immutable list, shared by every estimate and witness; the box does not enter it
    pairs = step_pairs(RealLine(), 4)
    assert pairs is step_pairs(RealLine(), 4)
    assert pairs is step_pairs(RealLine(-2.5, 7.0), 4)
    assert type(pairs) is tuple and all(type(pair) is tuple for pair in pairs)
    assert step_pairs(Plane(), 4) is step_pairs(Plane(), 4) != pairs


@pytest.mark.parametrize(
    "space", [FiniteSpace(("a", "b")), ABC, RealLine(), RealLine(-2.5, 7.0), Plane(), Plane(-3.0, 0.5)], ids=repr
)
def test_streams_match_the_reference_generators(space):
    streams = ((iter_tuples, helpers.iter_tuples, structured_tuples), (iter_pairs, helpers.iter_pairs, structured_pairs))
    for n in range(2, 7):
        for stream, reference, head in streams:
            h = len(head(space, n))
            budgets = {-1, 0, 1, h - 1, h, h + 1, h + 64}
            if space.kind == "finite":
                # the exhaustive threshold of this stream, and the other stream's
                budgets |= {space.size**n + d for d in (-1, 0, 1)} | {space.size ** (n + 1) + d for d in (-1, 0, 1)}
            for seed in (0, 7, 42):
                for budget in sorted(budgets):
                    got = list(stream(space, n, budget, seed))
                    assert repr(got) == repr(list(reference(space, n, budget, seed))), (n, budget, seed)
                assert list(stream(space, n, -1, seed)) == []
