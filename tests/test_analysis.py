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
    evaluate,
    simplex_denominator,
)

ABC = FiniteSpace(("a", "b", "c"))
ABCD = FiniteSpace(("a", "b", "c", "d"))


def test_ratio_basics():
    d = catalog.make("cardinality", 3).distance
    t = ("a", "b", "c")
    assert ratio(d, t, "a") == pytest.approx(2.0 / 4.0)
    # partial ratio over chosen 1-based positions
    assert ratio(d, t, "a", indices=(2, 3)) == pytest.approx(2.0 / 2.0)
    with pytest.raises(DegenerateTupleError):
        ratio(d, ("a", "a", "a"), "b")
    with pytest.raises(ValueError):
        ratio(d, t, "a", indices=())


def test_ratio_infinite_on_zero_denominator():
    d = catalog.make("drastic", 3).distance
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
        d = catalog.make(name, n).distance
        assert ratio(d, w.points, w.z) == pytest.approx(w.ratio)
        assert w.ratio == est.lower_bound


def test_witness_indices_sorted_one_based():
    est = estimate_partial_constant(catalog.make("cardinality", 4), ABC, k=2)
    w = est.witness
    assert w.indices == tuple(sorted(w.indices))
    assert all(1 <= i <= 4 for i in w.indices)
    assert len(w.indices) == 2
    d = catalog.make("cardinality", 4).distance
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


# few distinct values, so that equal ratios and the tie-break are common
_SCAN_CASES = {
    "cardinality": (catalog.make("cardinality", 3).distance, ("a", "b", "c")),
    "diameter": (catalog.make("diameter", 3).distance, (0.0, 0.5, 1.0, 2.0)),
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
        res = _eval_candidate(d.evaluator, t, z, k)
        if res is not None:
            idx = res[2]
            folded.append((ratio(d, t, z, idx), t, z, idx))
    best, _, _, checked = scan(d.evaluator, data.draw(st.permutations(pairs)), k)
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
