import dataclasses
import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_multidistance, naive_scan
from simplex_lab import catalog
from simplex_lab.analysis import EXACT
from simplex_lab.catalog import CatalogEntry, partition_pairs
from simplex_lab.cli import default_space_for, resolve_strong_constant
from simplex_lab.core import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    TOL,
    FiniteSpace,
    NDistance,
    Plane,
    RealLine,
    check_symmetry,
    iter_pairs,
    section,
    step_pairs,
)
from simplex_lab.geometry import GROUND_KINDS
from simplex_lab.properties import (
    check_lemma_mixed_bound,
    check_multi_to_ndistance,
    check_multidistance,
    check_nonincreasing_identification,
    check_repetition_invariance,
    check_strong_k_simplex,
    compositions,
    expand_composition,
    reduced_evaluator,
    strong_constant_general,
    strong_constant_standard,
)

ABC = FiniteSpace(("a", "b", "c"))
ABCD = FiniteSpace(("a", "b", "c", "d"))
UNIT = RealLine(0.0, 1.0)


def test_compositions():
    assert compositions(4, 2) == [(1, 3), (2, 2), (3, 1)]
    assert compositions(3, 3) == [(1, 1, 1)]
    for n, k in ((5, 2), (5, 3), (6, 4)):
        comps = compositions(n, k)
        assert len(comps) == math.comb(n - 1, k - 1)
        assert all(sum(c) == n and all(x >= 1 for x in c) for c in comps)


def test_expand_composition():
    assert expand_composition(("a", "b"), (1, 3)) == ("a", "b", "b", "b")
    assert expand_composition((0.0, 1.0, 2.0), (2, 1, 1)) == (0.0, 0.0, 1.0, 2.0)
    # the reduced evaluator is d on the expanded tuple
    seen = []
    entry = CatalogEntry(NDistance("record", 5, "any", lambda t: seen.append(t) or 0.0))
    for k in range(1, 6):
        for comp in compositions(5, k):
            values = tuple(range(k))
            reduced_evaluator(entry, comp)(values)
            assert seen.pop() == expand_composition(values, comp)


@pytest.mark.parametrize("dist_id", ["sum-based", "inner-interval", "arithmetic-mean"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reduced_evaluator_is_d_on_the_expanded_tuple(dist_id, data):
    n = data.draw(st.integers(2, 6))
    entry = catalog.make(dist_id, n)
    comp = data.draw(st.sampled_from([c for k in range(1, n + 1) for c in compositions(n, k)]))
    values = tuple(data.draw(st.lists(st.floats(-4.0, 4.0), min_size=len(comp), max_size=len(comp))))
    got = reduced_evaluator(entry, comp)(values)
    assert got == entry.distance.evaluator(expand_composition(values, comp))


def test_strong_constant_standard_values():
    # 1/(k-1) + 1/(k(k-1)(n-1)) for 2 <= k <= n-1; collapses to 1/(n-1) at k=n
    assert strong_constant_standard(4, 2) == pytest.approx(7 / 6)
    assert strong_constant_standard(4, 3) == pytest.approx(1 / 2 + 1 / 18)
    assert strong_constant_standard(4, 4) == pytest.approx(1 / 3)
    assert strong_constant_standard(5, 5) == pytest.approx(1 / 4)
    with pytest.raises(ValueError):
        strong_constant_standard(4, 1)
    with pytest.raises(ValueError):
        strong_constant_standard(4, 5)


def test_strong_constant_general_matches_standard():
    for n in range(3, 9):
        for k in range(2, n):
            got = strong_constant_general(n, k, 1.0 / (n - 1))
            want = strong_constant_standard(n, k)
            assert got == pytest.approx(want, abs=1e-12), (n, k)


def test_strong_constant_general_domain():
    # valid only for n - 1/K* < k < n
    with pytest.raises(ValueError):
        strong_constant_general(6, 3, 1 / 3)  # 6 - 3 = 3, needs k > 3
    with pytest.raises(ValueError):
        strong_constant_general(4, 4, 1 / 3)  # k must stay below n
    with pytest.raises(ValueError):
        strong_constant_general(4, 3, 0.0)
    # in-domain example: n=4, k=3, K*=2/5 gives (2/5+1)/(5/2-1) - (2/5)/3
    got = strong_constant_general(4, 3, 2 / 5)
    assert got == pytest.approx((2 / 5 + 1) / (5 / 2 - 4 + 3) - (2 / 5) / 3)
    assert got == pytest.approx(14 / 15 - 2 / 15)


def test_strong_k_simplex_arith_mean():
    entry = catalog.make("arithmetic-mean", 4)
    for k in (2, 3, 4):
        want = 1.0 / (k - 1)
        v = check_strong_k_simplex(entry, k=k, constant=want, space=UNIT, budget=4000, seed=0)
        assert v.passed, (k, v.counterexample)
    # too small a constant must be caught
    v = check_strong_k_simplex(entry, k=2, constant=0.5, space=UNIT, budget=4000, seed=0)
    assert v.failed
    ce = v.counterexample
    assert ce is not None and "composition" in ce


ABCDE = FiniteSpace(tuple("abcde"))


@pytest.mark.parametrize("dist_id, params", [
    ("drastic", {}), ("cardinality", {}),
    # reduced by a composition, these two depend on it, so every composition counts
    ("sum-based", {"d2": "discrete"}), ("fermat", {"d2": "discrete"}),
])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_strong_check_on_the_equality_types_is_exact(dist_id, params, n):
    # the verdict and max_ratio of every composition's ordered scan, at any budget
    entry = catalog.make(dist_id, n, **params)
    for k in range(2, n + 1):
        for constant in (strong_constant_standard(n, k), strong_constant_standard(n, k) / 2):
            v = check_strong_k_simplex(entry, k, constant, ABCDE, budget=1)
            comps = compositions(n, k)
            assert v.details["method"] == "exact"
            assert v.details["checked"] == len(comps) * len(catalog.partition_pairs(ABCDE, k))
            folds = [naive_scan(reduced_evaluator(entry, comp), iter_pairs(ABCDE, k, 5 ** (k + 1), 0), k, constant)
                     for comp in comps]
            assert v.details["max_ratio"] == max(best[0] for best, *_ in folds)
            assert v.failed == any(first is not None for _, first, _, _ in folds)
            if v.failed:  # the largest violation too
                assert v.worst["lhs"] - v.worst["rhs"] == max(worst[0] for *_, worst, _ in folds if worst)
        # at M/2 the check fails, on a listed pair: a real configuration
        assert v.failed
        ce = v.counterexample
        assert (ce["values"], ce["z"]) in catalog.partition_pairs(ABCDE, k)
        ev = reduced_evaluator(entry, ce["composition"])
        total = sum(ev(section(ce["values"], i, ce["z"])) for i in range(1, k + 1))
        assert ce["lhs"] == ev(ce["values"]) > constant * total + TOL
    # without the hook the check samples its budget
    hookless = dataclasses.replace(entry, type_pairs=None)
    assert "method" not in check_strong_k_simplex(hookless, n, 1.0, ABCDE, budget=64).details


def test_strong_check_builds_one_list_per_k():
    # every composition of n into k blocks folds the same list
    catalog._partition_pairs.cache_clear()
    entry = catalog.make("cardinality", 5)
    for k in range(2, 6):
        check_strong_k_simplex(entry, k, 1.0, ABCDE)
    assert sum(len(compositions(5, k)) for k in range(2, 6)) == 15
    assert catalog._partition_pairs.cache_info().misses == 4


def test_lemma_mixed_bound():
    entry = catalog.make("cardinality", 4)
    for k in (2, 3):
        for p in range(0, 4 - k + 1):
            v = check_lemma_mixed_bound(entry, k=k, p=p, space=ABCD, budget=4000, seed=0)
            assert v.passed, (k, p, v.counterexample)
    # hypotheses are standardness and repetition invariance; mean has neither
    v = check_lemma_mixed_bound(catalog.make("arithmetic-mean", 4), k=2, p=1, space=UNIT)
    assert v.status == NOT_APPLICABLE


def test_repetition_invariance_pass_and_fail():
    assert check_repetition_invariance(catalog.make("cardinality", 4), ABC).passed
    assert check_repetition_invariance(catalog.make("drastic", 4), ABC).passed
    v = check_repetition_invariance(catalog.make("arithmetic-mean", 3), UNIT)
    assert v.failed
    ce = v.counterexample
    # the canonical violation: (0,1,1) vs (0,0,1) on the same value set
    assert ce["value_a"] != pytest.approx(ce["value_b"])


def test_repetition_invariance_expands_every_label_set_of_a_small_finite_space():
    # every set of 2..5 of the 5 labels, expanded over every composition of 5 into as many blocks
    v = check_repetition_invariance(catalog.make("cardinality", 5), FiniteSpace(tuple("abcde")))
    want = sum(math.comb(5, m) * len(compositions(5, m)) for m in range(2, 6))
    assert v.passed and v.details["checked"] == want == 121


def test_each_structural_check_searches_only_its_own_property():
    # d(a, b) = 1 and d(b, a) = 2: every identification gives 0, so only symmetry fails
    values = {("a", "b"): 1.0, ("b", "a"): 2.0}
    entry = CatalogEntry(NDistance("asym", 2, "finite", lambda t: values.get(t, 0.0)))
    space = FiniteSpace(("a", "b"))
    noninc = check_nonincreasing_identification(entry, space)
    assert noninc.passed and noninc.details["checked"] > 0 and "reason" not in noninc.details
    assert check_repetition_invariance(entry, space).passed
    assert check_symmetry(entry, space).failed


@pytest.mark.parametrize(
    "space", [RealLine(), Plane(), FiniteSpace(tuple("abcdefghijk"))], ids=["line", "plane", "finite-11"]
)
@pytest.mark.parametrize("m", [2, 3, 4])
def test_repetition_invariance_sees_every_set_size(space, m):
    # depends on multiplicities only on m-value sets: the check must expand sets of size m
    def ev(t):
        return float(len(set(t)) > 1) + (t.count(t[0]) if len(set(t)) == m else 0.0)

    v = check_repetition_invariance(CatalogEntry(NDistance(f"multiplicity-on-{m}-sets", 5, space.kind, ev)), space)
    assert v.failed
    assert len(set(v.counterexample["tuple_a"])) == m


@pytest.mark.parametrize("n", [5, 7])
def test_repetition_invariance_keeps_its_budget_on_a_large_finite_space(n):
    # 26^n tuples and C(25 + n, n) multisets are too many to enumerate, so the
    # check expands the value sets of `budget` prefixes, at most 2^(n-1) compositions each
    space = FiniteSpace(tuple("abcdefghijklmnopqrstuvwxyz"))
    v = check_repetition_invariance(catalog.make("cardinality", n), space, budget=32, seed=42)
    assert v.passed and 0 < v.details["checked"] <= 32 * 2 ** (n - 1)


def test_repetition_invariance_fermat():
    v = check_repetition_invariance(catalog.make("fermat", 4), UNIT)
    assert v.failed
    d = catalog.make("fermat", 4)
    assert d(0.0, 0.0, 1.0, 1.0) == pytest.approx(2.0)
    assert d(0.0, 1.0, 1.0, 1.0) == pytest.approx(1.0)


@pytest.mark.parametrize("ground", GROUND_KINDS)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_fermat_flags_are_the_checkers_verdicts(ground, n):
    # repetition-invariant and nonincreasing exactly for n <= 3, on every ground
    entry = catalog.make("fermat", n, d2=ground)
    space = default_space_for(entry.distance.space_kind)
    rep = check_repetition_invariance(entry, space)
    noninc = check_nonincreasing_identification(entry, space, budget=200)
    assert (rep.passed, noninc.passed) == (entry.repetition_invariant, entry.nonincreasing) == (n <= 3, n <= 3)


@pytest.mark.parametrize("ground", GROUND_KINDS)
@pytest.mark.parametrize("n", [2, 3])
def test_fermat_passes_the_standard_strong_constant(ground, n):
    # at n <= 3 the standard grounds are standard and repetition-invariant, so the strong
    # check takes the standard formula, and euclidean passes at the same constants
    entry = catalog.make("fermat", n, d2=ground)
    space = default_space_for(entry.distance.space_kind)
    for k in range(2, n + 1):
        constant = strong_constant_standard(n, k)
        if ground != "euclidean":
            assert resolve_strong_constant(entry, n, k, None) == (constant, "standard-formula")
        assert check_strong_k_simplex(entry, k, constant, space, budget=500, seed=42).passed, k


def test_nonincreasing_identification():
    assert check_nonincreasing_identification(catalog.make("cardinality", 4), ABC).passed
    assert check_nonincreasing_identification(catalog.make("drastic", 4), ABC).passed
    v = check_nonincreasing_identification(catalog.make("inner-interval", 3), UNIT)
    assert v.failed
    ce = v.counterexample
    assert ce["after"] > ce["before"]


def test_multidistance_enclosing_radius():
    family = [catalog.make("enclosing-radius", n) for n in range(2, 6)]
    v = check_multidistance(family, Plane(), budget=6000, seed=0)
    assert v.passed, v.counterexample
    for n in range(2, 6):
        info = v.details["per_arity"][n]
        assert info["triangle"] == "pass"
        # d_n(x, z, ..., z) equals the two-point radius |x-z|/2 exactly
        assert info["sufficient"] is True
        assert info["sufficient_equality"] is True


def test_multidistance_mean_fails_and_doubling_repairs():
    fam = [catalog.make("arithmetic-mean", n) for n in range(2, 5)]
    v = check_multidistance(fam, UNIT, budget=4000, seed=0)
    assert v.failed
    ce = v.counterexample
    assert ce["lhs"] > ce["rhs"] + 1e-9

    # with g(x, z) = |x - z| (the doubled mean on pairs) every member passes
    doubled = [CatalogEntry(NDistance("doubled-mean", 2, "real-line", lambda t: abs(t[0] - t[1])))] + fam[1:]
    v = check_multidistance(doubled, UNIT, budget=4000, seed=0)
    assert v.passed, v.counterexample


def test_multidistance_line_count_fails():
    family = [catalog.make("line-count", n) if n >= 3 else None for n in range(2, 5)]
    # arity-2 member: drastic on the plane, the natural pair restriction
    family[0] = CatalogEntry(NDistance("plane-pair", 2, "plane", lambda t: 0.0 if t[0] == t[1] else 1.0))
    v = check_multidistance(family, Plane(), budget=4000, seed=0)
    assert v.failed
    ce = v.counterexample
    assert ce["lhs"] > ce["rhs"]


def test_multidistance_validation():
    with pytest.raises(ValueError):
        check_multidistance([catalog.make("enclosing-radius", 3)], Plane())
    with pytest.raises(ValueError):
        check_multidistance(
            [catalog.make("enclosing-radius", 2), catalog.make("enclosing-radius", 4)], Plane()
        )


def _scaled_pair(c, hook):
    """c |x - z| on the line with the step pairs, or c [x != z] on any space with the partition pairs."""
    if hook is step_pairs:
        return CatalogEntry(NDistance("scaled-abs", 2, "real-line", lambda t: c * abs(t[0] - t[1])), type_pairs=hook)
    return CatalogEntry(NDistance("scaled-drastic", 2, "any", lambda t: c * (t[0] != t[1])), type_pairs=hook)


# (member id, space, hook, threshold(n)): the smallest c at which the family
# g = _scaled_pair(c, hook), d_3..d_n passes, reached at a 0/1 generator
_FOLD_FAMILIES = [
    ("arithmetic-mean", UNIT, step_pairs, lambda n: (n - 1) / n),  # t = (0, 1, ..., 1), z = 1
    ("diameter", UNIT, step_pairs, lambda n: 1.0),  # t = (0, 1, ..., 1), z = 1
    ("cardinality", ABCD, partition_pairs, lambda n: 1.0),  # t = (a, b, ..., b), z = b
    ("drastic", ABCD, partition_pairs, lambda n: 1.0),
]


@pytest.mark.parametrize("member_id, space, hook, threshold", _FOLD_FAMILIES)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_multidistance_fold_agrees_with_the_grid_oracle(member_id, space, hook, threshold, n):
    # the fold decides each arity on d_n's type list; the oracle runs the whole integer grid
    statuses = []
    for c in (threshold(n) - 0.01, threshold(n), threshold(n) + 0.01):
        family = [_scaled_pair(c, hook)] + [catalog.make(member_id, m) for m in range(3, n + 1)]
        v = check_multidistance(family, space, budget=64, seed=0)
        assert v.details["method"] == EXACT
        oracle = brute_multidistance(family, space)
        for m, info in v.details["per_arity"].items():
            assert {key: info[key] for key in oracle[m]} == oracle[m], (c, m)
            if info["triangle"] == "pass":
                assert info["checked"] == len(family[m - 2].type_list(space))
        assert v.failed == any(info["triangle"] == "fail" for info in oracle.values())
        ce = v.counterexample
        if ce is not None:
            g = family[0].distance.evaluator
            assert ce["lhs"] == family[ce["arity"] - 2].distance.evaluator(ce["tuple"]) > ce["rhs"] + TOL
            assert ce["rhs"] == sum(g((x, ce["z"])) for x in ce["tuple"])
        statuses.append(v.status)
    assert statuses == ([PASS] * 3 if n == 2 else [FAIL, PASS, PASS])


def test_multidistance_samples_the_families_outside_the_fold():
    # no shared step-pair hook on the line or partition hook: every arity samples
    bare = CatalogEntry(NDistance("doubled-mean", 2, "real-line", lambda t: abs(t[0] - t[1])))
    families = [
        ([catalog.make("enclosing-radius", n) for n in (2, 3, 4)], Plane()),
        ([catalog.make("inner-interval", n) for n in (2, 3, 4)], UNIT),
        ([catalog.make("line-count", n) for n in (2, 3, 4)], Plane()),
        ([catalog.make("diameter", n, d2="euclidean") for n in (2, 3, 4)], Plane()),
        ([bare] + [catalog.make("arithmetic-mean", n) for n in (3, 4)], UNIT),
    ]
    for family, space in families:
        v = check_multidistance(family, space, budget=300, seed=0)
        assert "method" not in v.details
        assert all("method" not in info for info in v.details["per_arity"].values())
    # a member with another hook samples, and the family reports no method
    mixed = [_scaled_pair(1.0, step_pairs)] + [catalog.make("inner-interval", n) for n in (3, 4)]
    v = check_multidistance(mixed, UNIT, budget=300, seed=0)
    assert v.passed and "method" not in v.details
    assert [info.get("method") for info in v.details["per_arity"].values()] == [EXACT, None, None]


def test_multi_to_ndistance_folds_the_type_list():
    # with a budget, the simplex check folds the member's proven list; a budget of 0 checks nothing
    two = catalog.make("cardinality", 2)  # g(x, z) = [x != z]
    for n in (3, 4, 5):
        entry = catalog.make("cardinality", n)
        space = FiniteSpace(("a", "b", "c", "d"))
        v = check_multi_to_ndistance(entry, two, space, budget=400, seed=0)
        assert v.passed and v.details["method"] == EXACT
        assert v.details["checked"] == len(entry.type_list(space))
        assert v.details["max_ratio"] == 1 / (n - 1)
        empty = check_multi_to_ndistance(entry, two, space, budget=0, seed=0)
        assert empty.status == NOT_APPLICABLE and "method" not in empty.details

def test_multi_to_ndistance_converse():
    entry = catalog.make("enclosing-radius", 3)
    two = catalog.make("enclosing-radius", 2)  # g(x, z) = |x - z| / 2
    v = check_multi_to_ndistance(entry, two, Plane(), budget=4000, seed=0)
    assert v.passed, v.details
    with pytest.raises(ValueError):
        check_multi_to_ndistance(entry, entry, Plane())

    # the mean is not nonincreasing: hypothesis fails, so no verdict either way
    mean = catalog.make("arithmetic-mean", 3)
    third = CatalogEntry(NDistance("third", 2, "real-line", lambda t: abs(t[0] - t[1]) / 3.0))
    v = check_multi_to_ndistance(mean, third, UNIT, budget=4000, seed=0)
    assert v.status == NOT_APPLICABLE
    assert v.details["reason"] == "not nonincreasing"
