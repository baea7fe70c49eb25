import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplex_lab import catalog
from simplex_lab.analysis import (
    EXACT,
    SAMPLED,
    Witness,
    _better,
    _eval_candidate,
    check_attainment_transfer,
    check_partial_bound,
    check_partial_existence,
    check_sufficient_standard,
    check_symmetrization,
    estimate_best_constant,
    estimate_partial_constant,
    ratio,
    scan,
)
from simplex_lab.constructions import strong_extremal_distance
from simplex_lab.core import (
    NOT_APPLICABLE,
    DegenerateTupleError,
    FiniteSpace,
    Plane,
    RealLine,
    distinct_count,
    evaluate,
    iter_pairs,
)
from simplex_lab.properties import check_lemma_mixed_bound

ABC = FiniteSpace(("a", "b", "c"))
ABCD = FiniteSpace(("a", "b", "c", "d"))


def test_ratio_basics():
    d = catalog.make("cardinality", 3)
    t = ("a", "b", "c")
    assert ratio(d, t, "a") == pytest.approx(2.0 / 4.0)
    # partial ratio over chosen 1-based positions
    assert ratio(d, t, "a", indices=(2, 3)) == pytest.approx(2.0 / 2.0)
    with pytest.raises(DegenerateTupleError):
        ratio(d, ("a", "a", "a"), "b")
    with pytest.raises(ValueError):
        ratio(d, t, "a", indices=())


def test_ratio_rejects_repeated_or_out_of_range_indices():
    d = catalog.make("diameter", 3)
    t = (0.0, 1.0, 2.0)
    assert ratio(d, t, 0.0, (1,)) == 1.0
    # (1, 1) would count section 1 twice; 0 and 4 are no positions of a 3-tuple
    for bad in ((1, 1), (2, 3, 2), (0,), (-1,), (4,), (1, 4)):
        with pytest.raises(ValueError, match=r"distinct positions in 1\.\.3"):
            ratio(d, t, 0.0, bad)


def test_estimates_and_checks_refuse_a_bare_distance():
    # the entry holds the witness recipe and the flags; its bare NDistance would
    # silently drop them and give another answer
    area = catalog.make("enclosing-area", 4)
    assert estimate_best_constant(area, Plane(), budget=1, seed=42).lower_bound == 0.4
    with pytest.raises(AttributeError):
        estimate_best_constant(area.distance, Plane(), budget=1, seed=42)
    diam = catalog.make("diameter", 4)
    assert check_lemma_mixed_bound(diam, 2, 1, RealLine(), budget=200).passed
    with pytest.raises(AttributeError):
        check_lemma_mixed_bound(diam.distance, 2, 1, RealLine(), budget=200)


def test_ratio_infinite_on_zero_denominator():
    d = catalog.make("drastic", 3)
    # section 1 of (a,b,b) at z=b collapses to (b,b,b), so it alone sums to 0
    assert ratio(d, ("a", "b", "b"), "b", indices=(1,)) == math.inf


def test_exact_constant_on_finite_catalog():
    for name, n, want in (
        ("drastic", 3, 1 / 2),
        ("drastic", 4, 1 / 3),
        ("cardinality", 3, 1 / 2),
        ("cardinality", 4, 1 / 3),
    ):
        est = estimate_best_constant(catalog.make(name, n), ABC, mode="exact")
        assert est.method == EXACT
        assert est.lower_bound == pytest.approx(want, abs=1e-12), name
        # the witness certifies the bound on its own
        w = est.witness
        d = catalog.make(name, n)
        assert ratio(d, w.points, w.z) == pytest.approx(w.ratio)
        assert w.ratio == est.lower_bound


def test_witness_indices_sorted_one_based():
    est = estimate_partial_constant(catalog.make("cardinality", 4), ABC, k=2)
    w = est.witness
    assert w.indices == tuple(sorted(w.indices))
    assert all(1 <= i <= 4 for i in w.indices)
    assert len(w.indices) == 2
    d = catalog.make("cardinality", 4)
    assert ratio(d, w.points, w.z, w.indices) == pytest.approx(w.ratio)


def test_partial_constants_inner_interval():
    # K*_{n,k} = 2/k on the line, for every k
    entry = catalog.make("inner-interval", 4)
    for k, want in ((2, 1.0), (3, 2 / 3), (4, 1 / 2)):
        est = estimate_partial_constant(entry, RealLine(0.0, 1.0), k=k, budget=30_000, seed=42)
        assert est.lower_bound == pytest.approx(want, abs=1e-9), k
        assert est.analytic == pytest.approx(want)


def test_estimate_modes():
    entry = catalog.make("cardinality", 3)
    with pytest.raises(ValueError):
        estimate_best_constant(entry, RealLine(), mode="exact")
    with pytest.raises(ValueError):
        estimate_best_constant(entry, ABC, mode="nope")
    with pytest.raises(ValueError):
        estimate_best_constant(entry, ABC, budget=0)
    with pytest.raises(ValueError):
        estimate_partial_constant(entry, ABC, k=1)
    with pytest.raises(ValueError):
        estimate_partial_constant(entry, ABC, k=5)


def test_sampled_equals_exact_on_small_finite():
    # the sampled path folds in the full enumeration when it fits
    entry = catalog.make("cardinality", 4)
    a = estimate_best_constant(entry, ABCD, budget=100_000, seed=42, mode="sampled")
    b = estimate_best_constant(entry, ABCD, budget=100_000, seed=42, mode="exact")
    assert a == b
    assert a.method == EXACT


def test_sampled_on_continuous_space():
    entry = catalog.make("diameter", 4)
    est = estimate_best_constant(entry, RealLine(), budget=20_000, seed=42)
    assert est.method == SAMPLED
    assert est.lower_bound == pytest.approx(1 / 3, abs=1e-9)
    # determinism: same seed, same estimate
    again = estimate_best_constant(entry, RealLine(), budget=20_000, seed=42)
    assert again == est
    assert est.trials > 0


@pytest.mark.parametrize(
    "entry, space",
    [(catalog.make("diameter", 4), RealLine()), (catalog.make("diameter", 4, d2="euclidean"), Plane())],
    ids=["line", "plane"],
)
@pytest.mark.parametrize("budget", [1, 5, 300])
def test_sampled_estimate_folds_recipe_then_iter_pairs(entry, space, budget):
    # the sampled candidates are the recipe, then iter_pairs for the rest of the budget
    pairs = [entry.witness_recipe(space)] + list(iter_pairs(space, 4, budget - 1, 7))
    assert len(pairs) == budget
    est = estimate_best_constant(entry, space, budget=budget, seed=7)
    assert est.method == SAMPLED
    assert est.trials == sum(distinct_count(t) >= 2 for t, _ in pairs)


# scan candidates are (ratio, t, z, idx), idx being a function of (t, z);
# few ratios, inf among them, so that equal ratios and the tie-break are common
_CANDIDATE = st.none() | st.builds(
    lambda r, t, z: (r, t, z, (1, 2)),
    st.sampled_from([0.0, 0.25, 0.5, math.inf]),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(0, 2),
)


@settings(max_examples=300, deadline=None)
@given(a=_CANDIDATE, b=_CANDIDATE, c=_CANDIDATE)
def test_better_is_total_associative_and_commutative(a, b, c):
    ab = _better(a, b)
    if a is None or b is None:
        assert ab == (b if a is None else a)
    else:  # the larger ratio, then the smaller (t, z)
        assert ab == min(a, b, key=lambda x: (-x[0], x[1], x[2]))
    assert ab == _better(b, a)
    assert _better(ab, c) == _better(a, _better(b, c))


# few distinct values, so that equal ratios and the tie-break are common
_SCAN_CASES = {
    "cardinality": (catalog.make("cardinality", 3), ("a", "b", "c")),
    "diameter": (catalog.make("diameter", 3), (0.0, 0.5, 1.0, 2.0)),
}


@pytest.mark.parametrize("case", sorted(_SCAN_CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(1, 3))
def test_scan_best_is_the_better_reduction_in_any_order(case, data, k):
    d, alphabet = _SCAN_CASES[case]
    point = st.sampled_from(alphabet)
    pairs = data.draw(st.lists(st.tuples(st.tuples(point, point, point), point), max_size=40))
    folded = []
    for t, z in pairs:
        res = _eval_candidate(d.distance.evaluator, t, z, k)
        if res is not None:
            idx = res[2]
            folded.append((ratio(d, t, z, idx), t, z, idx))
    best, _, _, checked = scan(d.distance.evaluator, data.draw(st.permutations(pairs)), k)
    assert best == functools.reduce(_better, folded, None)
    assert checked == len(folded)


def test_exhaustive_tie_break_is_lexicographic():
    # the labels y1, y2, y3, e are not in sorted order: the witness is the
    # smallest maximizing (tuple, z), not the first in label order
    d = strong_extremal_distance(5, 3)
    est = estimate_best_constant(d, d.space)
    assert est.method == EXACT
    assert est.lower_bound == 0.25
    assert (est.witness.points, est.witness.z) == (("e", "e", "e", "e", "y1"), "e")


def test_partial_existence():
    entry = catalog.make("cardinality", 4)
    v1 = check_partial_existence(entry, ABC, k=1)
    assert v1.failed
    assert v1.counterexample["ratio"] == "inf"
    for k in (2, 3, 4):
        assert check_partial_existence(entry, ABC, k=k).passed


def test_partial_bound_chain_standard():
    entry = catalog.make("cardinality", 4)
    full = estimate_best_constant(entry, ABC)
    for k in (2, 3, 4):
        part = estimate_partial_constant(entry, ABC, k=k)
        v = check_partial_bound(full, part)
        assert v.passed, (k, v.details)
        # standard case: equalities throughout
        assert v.details["equalities"]["upper"] is True
        assert check_symmetrization(full, part).passed


def test_partial_bound_strict_for_inner_interval():
    # n=4, k=3: K*_{4,3} = 2/3 exceeds 1/(k-1) = 1/2, so the lower
    # inequality is strict and the distance is not standard
    entry = catalog.make("inner-interval", 4)
    space = RealLine(0.0, 1.0)
    full = estimate_best_constant(entry, space, budget=30_000, seed=42)
    part = estimate_partial_constant(entry, space, k=3, budget=30_000, seed=42)
    v = check_partial_bound(full, part)
    assert v.passed
    assert v.details["equalities"]["lower"] is False
    assert part.lower_bound > 1 / 2 + 1e-6


def test_partial_bound_not_applicable_outside_range():
    # inner-interval n=5: K*_5 = 2/5, so the chain needs k > 5 - 5/2 = 2.5
    entry = catalog.make("inner-interval", 5)
    space = RealLine(0.0, 1.0)
    full = estimate_best_constant(entry, space, budget=30_000, seed=42)
    part = estimate_partial_constant(entry, space, k=2, budget=30_000, seed=42)
    v = check_partial_bound(full, part)
    assert v.status == NOT_APPLICABLE


def test_attainment_transfer_enclosing_area():
    entry = catalog.make("enclosing-area", 4)
    est = estimate_best_constant(entry, Plane(), budget=20_000, seed=42)
    assert est.lower_bound == pytest.approx(1 / 2.5, abs=1e-6)
    for k in (2, 3, 4):
        v = check_attainment_transfer(entry, est.witness, k=k, kstar=1 / 2.5)
        assert v.passed, (k, v.details)
        assert v.details["transfer_possible"] in (True, False)


def test_attainment_transfer_requires_attaining_witness():
    entry = catalog.make("cardinality", 4)
    w = Witness(("a", "b", "b", "b"), "b", 0.25, (1, 2, 3, 4))
    # ratio 0.25 is below K*_4 = 1/3: not an attaining witness
    v = check_attainment_transfer(entry, w, k=3, kstar=1 / 3)
    assert v.status == NOT_APPLICABLE


def test_sufficient_standard():
    entry = catalog.make("cardinality", 4)
    full = estimate_best_constant(entry, ABC)
    part = estimate_partial_constant(entry, ABC, k=3)
    v = check_sufficient_standard(entry, full, part)
    assert v.passed, v.details
