import dataclasses
import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_scan, product_scan
from simplex_lab import catalog
from simplex_lab.analysis import (
    EXACT,
    SAMPLED,
    Witness,
    _better,
    _eval_candidate,
    check_attainment_transfer,
    check_partial_bound,
    check_sufficient_standard,
    check_symmetrization,
    estimate_best_constant,
    estimate_partial_constant,
    ratio,
    scan,
)
from simplex_lab.constructions import single_anchor_distance, strong_extremal_distance, two_anchor_distance
from simplex_lab.core import (
    NOT_APPLICABLE,
    DegenerateTupleError,
    FiniteSpace,
    Plane,
    RealLine,
    check_axioms,
    check_identity,
    check_simplex,
    check_symmetry,
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
    # the entry holds the type list and the flags; its bare NDistance would
    # silently drop them and give another answer
    area = catalog.make("enclosing-area", 4)
    assert estimate_best_constant(area, Plane(), budget=1, seed=42).lower_bound == 0.4
    with pytest.raises(AttributeError):
        estimate_best_constant(area.distance, Plane(), budget=1, seed=42)
    diam = catalog.make("diameter", 4)
    assert check_lemma_mixed_bound(diam, 2, 1, RealLine(), budget=200).passed
    with pytest.raises(AttributeError):
        check_lemma_mixed_bound(diam.distance, 2, 1, RealLine(), budget=200)
    # the axiom checks read type_list and axiom_tuples from the entry too
    for check in (check_identity, check_symmetry, check_simplex):
        assert check(diam, RealLine(), budget=64).passed
    assert all(v.passed for v in check_axioms(diam, RealLine(), budget=64))
    for check in (check_identity, check_symmetry, check_simplex, check_axioms):
        with pytest.raises(AttributeError):
            check(diam.distance, RealLine(), budget=64)


def test_ratio_infinite_on_zero_denominator():
    d = catalog.make("drastic", 3)
    # section 1 of (a,b,b) at z=b collapses to (b,b,b), so it alone sums to 0
    assert ratio(d, ("a", "b", "b"), "b", indices=(1,)) == math.inf


def test_section_sum_beyond_the_float_range_is_inf():
    # each section is 1e308; their exact sum overflows, which math.fsum reports
    # by raising, and the ratio is d / inf = 0
    d = catalog.make("diameter", 3)
    assert ratio(d, (0.0, 1e308, 0.0), 1e308) == 0.0
    est = estimate_best_constant(d, RealLine(-1e308, 1e307), budget=200, seed=42)
    assert est.lower_bound > 0.0


def test_exact_constant_on_finite_catalog():
    for name, n, want in (
        ("drastic", 3, 1 / 2),
        ("drastic", 4, 1 / 3),
        ("cardinality", 3, 1 / 2),
        ("cardinality", 4, 1 / 3),
    ):
        est = estimate_best_constant(catalog.make(name, n), ABC)
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


@pytest.mark.parametrize("params", [{}, {"p": 2}, {"p": 1.5}], ids=["p=1", "p=2", "p=1.5"])
def test_gap_pair_fold_is_exact(params):
    # K*_{n,k} = 2^p/k from the one pair of catalog.gap_pairs, one correctly rounded division
    p = params.get("p", 1)
    for n in range(2, 9):
        if n < 2**p:
            continue
        entry = catalog.make("inner-interval-power" if params else "inner-interval", n, **params)
        for k in range(2, n + 1):
            est = estimate_partial_constant(entry, RealLine(), k)
            assert (est.method, est.trials, est.lower_bound, est.analytic) == (EXACT, 1, 2**p / k, 2**p / k)
            w = est.witness
            assert (w.points, w.z) == ((0.0,) + (2.0,) * (n - 1), 1.0)
            assert ratio(entry, w.points, w.z, w.indices) == est.lower_bound


def test_circle_pair_fold_is_exact():
    # K*_{n,k} from the one pair of catalog.circle_pairs: the radius's 1/(k-1) is one correctly
    # rounded division; the area's pi / fl((k - 3/2) pi) is within one ulp of 1/(k - 3/2)
    for n in range(2, 9):
        pair = (((0.0, 0.0),) + ((1.0, 0.0),) * (n - 2) + ((2.0, 0.0),), (1.0, 0.0))
        for dist_id in ("enclosing-radius", "enclosing-area")[: 1 if n == 2 else 2]:
            entry = catalog.make(dist_id, n)
            for k in range(2, n + 1):
                est = estimate_partial_constant(entry, Plane(), k)
                assert (est.method, est.trials, est.analytic) == (EXACT, 1, entry.constants[k])
                w = est.witness
                assert (w.points, w.z) == pair
                assert ratio(entry, w.points, w.z, w.indices) == est.lower_bound
                if dist_id == "enclosing-radius":
                    assert est.lower_bound == 1 / (k - 1)
                else:
                    assert abs(est.lower_bound - 1 / (k - 1.5)) <= math.ulp(1 / (k - 1.5)), (n, k)


def test_estimate_rejects_bad_arguments():
    entry = catalog.make("cardinality", 3)
    with pytest.raises(ValueError):
        estimate_best_constant(entry, ABC, budget=0)
    with pytest.raises(ValueError):
        estimate_partial_constant(entry, ABC, k=1)
    with pytest.raises(ValueError):
        estimate_partial_constant(entry, ABC, k=5)


_CELL_LINEAR = (
    ("diameter", {"d2": "abs"}),
    ("sum-based", {"d2": "abs"}),
    ("arithmetic-mean", {}),
    ("fermat", {"d2": "abs"}),
    ("chebyshev-diameter", {"q": 1}),
)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("dist_id, params", _CELL_LINEAR, ids=[i for i, _ in _CELL_LINEAR])
def test_cell_fold_is_exact_on_the_line(dist_id, params, n):
    entry = catalog.make(dist_id, n, **params)
    h = float(n)
    # every ordered step vector (x_1..x_n, z) with values 0 and n
    ordered = [(v[:n], v[n]) for v in itertools.product((0.0, h), repeat=n + 1)]
    for k in range(2, n + 1):
        est = estimate_partial_constant(entry, RealLine(), k)
        assert (est.method, est.lower_bound, est.trials) == (EXACT, 1.0 / (k - 1), 2 * (n - 1))
        w = est.witness
        assert ratio(entry, w.points, w.z, w.indices) == est.lower_bound
        if n <= 6:  # the sorted step pairs carry the scan over every ordering
            best = scan(entry.distance.evaluator, ordered, k)[0]
            assert best == (est.lower_bound, w.points, w.z, w.indices)


_PLANE_CELL_LINEAR = (
    ("diameter", {"d2": "euclidean"}),
    ("diameter", {"d2": "chebyshev"}),
    ("chebyshev-diameter", {"q": 2}),
    ("sum-based", {"d2": "euclidean"}),
    ("sum-based", {"d2": "chebyshev"}),
    ("fermat", {"d2": "chebyshev"}),
)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize(
    "dist_id, params", _PLANE_CELL_LINEAR, ids=[f"{i}-{v}" for i, p in _PLANE_CELL_LINEAR for v in p.values()]
)
def test_cell_fold_is_exact_on_the_plane(dist_id, params, n):
    # each entry is a sup, a sum or an integral of a cell-linear line entry over linear maps,
    # so the line's step pairs, lifted to the x-axis, give its constant exactly
    entry = catalog.make(dist_id, n, **params)
    for k in range(2, n + 1):
        est = estimate_partial_constant(entry, Plane(), k)
        assert (est.method, est.lower_bound, est.trials) == (EXACT, 1.0 / (k - 1), 2 * (n - 1))
        w = est.witness
        assert ratio(entry, w.points, w.z, w.indices) == est.lower_bound
        assert all(y == 0.0 for _, y in w.points + (w.z,))


_LINE_COUNT_FOLDS = {
    n: {k: estimate_partial_constant(catalog.make("line-count", n), Plane(), k).lower_bound for k in range(2, n + 1)}
    for n in (3, 4, 5)
}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_no_grid_configuration_beats_the_line_count_fold(data):
    # on the grid {0..3}^2 coincident points and collinear triples are common,
    # so the draws cover many linear-space types; none beats the exact fold
    n = data.draw(st.sampled_from(sorted(_LINE_COUNT_FOLDS)))
    point = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(lambda p: (float(p[0]), float(p[1])))
    t = tuple(data.draw(st.lists(point, min_size=n, max_size=n)))
    z = data.draw(point)
    ev = catalog.make("line-count", n).distance.evaluator
    for k, fold in _LINE_COUNT_FOLDS[n].items():
        best = scan(ev, [(t, z)], k)[0]
        assert best is None or best[0] <= fold, (k, t, z)


def test_line_count_samples_where_the_fold_does_not_reach():
    entry = catalog.make("line-count", 4)
    exact = estimate_best_constant(entry, Plane(), budget=50)
    assert (exact.method, exact.trials, exact.lower_bound) == (EXACT, 115, 0.4)
    beyond = estimate_best_constant(catalog.make("line-count", 6), Plane(), budget=50)
    assert (beyond.method, beyond.analytic) == (SAMPLED, None)


def _hookless(dist_id, n):
    """The catalog entry without its type list, so that it enumerates or samples."""
    return dataclasses.replace(catalog.make(dist_id, n), type_pairs=None)


def test_sampled_equals_exact_on_small_finite():
    # a small budget still folds the full enumeration when it fits; at n = 6 the
    # 4^7 = 16384 ordered (t, z) pairs exceed the budget, but the enumeration
    # folds only C(9, 6) * 4 = 336 (multiset, z) pairs.  Without its hook, so
    # that cardinality enumerates rather than folding its type list
    for n, budget in ((4, 1), (6, 5_000)):
        entry = _hookless("cardinality", n)
        a = estimate_best_constant(entry, ABCD, budget=budget, seed=42)
        b = estimate_best_constant(entry, ABCD, seed=42)
        assert a == b
        assert a.method == EXACT


def test_sampled_fit_counts_multisets():
    # the enumeration fits when C(size + n - 1, n) * size <= max(budget, 4096);
    # past that the budget bounds the work, by sampling.  An entry with a type
    # list folds it instead, so cardinality is taken without its hook
    entry = _hookless("cardinality", 6)
    space = FiniteSpace(tuple("abcdefgh"))
    fit = math.comb(8 + 6 - 1, 6) * 8
    assert estimate_best_constant(entry, space, budget=fit).method == EXACT
    sampled = estimate_best_constant(entry, space, budget=fit - 1)
    assert sampled.method == SAMPLED
    assert sampled.trials <= fit - 1


def test_sampled_on_continuous_space():
    # without its type list, drastic samples on the line
    entry = _hookless("drastic", 4)
    est = estimate_best_constant(entry, RealLine(), budget=20_000, seed=42)
    assert est.method == SAMPLED
    assert est.lower_bound == pytest.approx(1 / 3, abs=1e-9)
    # determinism: same seed, same estimate
    again = estimate_best_constant(entry, RealLine(), budget=20_000, seed=42)
    assert again == est
    assert est.trials > 0


_LETTERS = FiniteSpace(tuple("abcdefghijklmnopqrstuvwxyz"))


_TWO_ANCHOR = two_anchor_distance("a", "b", 0.4, 4, _LETTERS)


@pytest.mark.parametrize(
    "entry, space",
    [
        (_hookless("drastic", 4), RealLine()),
        (_hookless("enclosing-radius", 4), Plane()),
        # C(29, 4) * 26 = 617,526 (multiset, z) pairs, past the enumeration bound
        (dataclasses.replace(_TWO_ANCHOR, type_pairs=None), _LETTERS),
    ],
    ids=["line", "plane", "construction"],
)
@pytest.mark.parametrize("budget", [1, 5, 300])
def test_sampled_estimate_folds_recipe_then_iter_pairs(entry, space, budget):
    # no entry carries a recipe of its own: the sampled candidates are those of iter_pairs alone
    pairs = list(iter_pairs(space, 4, budget, 7))
    assert len(pairs) == budget
    est = estimate_best_constant(entry, space, budget=budget, seed=7)
    assert est.method == SAMPLED
    assert est.trials == sum(distinct_count(t) >= 2 for t, _ in pairs)


def test_construction_on_a_large_label_space_folds_its_anchored_list():
    # with its hook the construction folds its anchored type list at any budget, and the estimate's witness
    # attains the prescribed constant
    for budget in (1, 5, 300):
        est = estimate_best_constant(_TWO_ANCHOR, _LETTERS, budget=budget, seed=7)
        assert (est.method, est.trials) == (EXACT, len(_TWO_ANCHOR.type_list(_LETTERS)))
        assert est.lower_bound == ratio(_TWO_ANCHOR, est.witness.points, est.witness.z) == 0.4


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


# small integer coordinates, so that equal sections, equal ratios and
# degenerate tuples are common
_INT = st.integers(0, 3).map(float)
_FOLD_CASES = {
    "cardinality": (catalog.make("cardinality", 4), st.sampled_from("abc")),
    "diameter": (catalog.make("diameter", 4), _INT),
    "sum-based": (catalog.make("sum-based", 5), _INT),
    "inner-interval": (catalog.make("inner-interval", 4), _INT),
    "line-count": (catalog.make("line-count", 4), st.tuples(_INT, _INT)),
    "enclosing-radius": (catalog.make("enclosing-radius", 3), st.tuples(_INT, _INT)),
}


@pytest.mark.parametrize("case", sorted(_FOLD_CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_scan_equals_the_naive_fold(case, data):
    entry, point = _FOLD_CASES[case]
    n = entry.arity
    k = data.draw(st.integers(2, n))
    constant = data.draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, math.inf]))
    pairs = data.draw(st.lists(st.tuples(st.tuples(*[point] * n), point), max_size=30))
    ev = entry.distance.evaluator
    assert scan(ev, pairs, k, constant) == naive_scan(ev, pairs, k, constant)


def test_exhaustive_tie_break_is_lexicographic():
    # the labels y1, y2, y3, e are not in sorted order: the witness is the
    # smallest maximizing (tuple, z), not the first in label order
    d = strong_extremal_distance(5, 3)
    est = estimate_best_constant(d, d.space)
    assert est.method == EXACT
    assert est.lower_bound == 0.25
    assert (est.witness.points, est.witness.z) == (("e", "e", "e", "e", "y1"), "e")


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


def test_attainment_transfer_needs_a_known_constant_and_a_witness():
    entry = catalog.make("fermat", 4, d2="euclidean")  # no closed-form K*_4
    w = Witness(((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 0.0)), (1.0, 0.0), 1 / 3, (1, 2, 3, 4))
    v = check_attainment_transfer(entry, w, k=3)
    assert v.status == NOT_APPLICABLE and v.details["reason"] == "no known best constant K*_n"
    v = check_attainment_transfer(entry, None, k=3, kstar=1 / 3)
    assert v.status == NOT_APPLICABLE and v.details["reason"] == "no witness"


def test_sufficient_standard():
    entry = catalog.make("cardinality", 4)
    full = estimate_best_constant(entry, ABC)
    part = estimate_partial_constant(entry, ABC, k=3)
    v = check_sufficient_standard(entry, full, part)
    assert v.passed, v.details


def _finite_entries(n, space):
    """Every catalog entry and construction that lives on ``space`` at arity n."""
    entries = [catalog.make(name, n) for name in ("drastic", "cardinality")]
    entries += [catalog.make(name, n, d2="discrete") for name in ("diameter", "sum-based", "fermat")]
    labels = space.labels
    if space.size >= 3:
        entries.append(single_anchor_distance(catalog.make("cardinality", n), labels[-1], 1 / (n - 1), space))
        entries.append(single_anchor_distance(catalog.make("drastic", n), labels[0], 1.0, space))
    if space.size >= 4:
        # 1/s = n - 3/2 gives the anchor pair the value 4
        entries.append(two_anchor_distance(labels[1], labels[3], 1 / (n - 1.5), n, space))
    return entries


@pytest.mark.parametrize("size", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_exhaustive_estimate_equals_the_product_scan(n, size):
    # one sorted tuple per multiset gives the bound, witness and indices of
    # the scan over every ordered tuple
    space = FiniteSpace(tuple("abcd"[:size]))
    cases = [(entry, space) for entry in _finite_entries(n, space)]
    if 3 <= size <= n:  # labels y1..y(size-1) and e
        strong = strong_extremal_distance(n, size - 1)
        cases.append((strong, strong.space))
    for entry, sp in cases:
        for k in range(2, n + 1):
            est = estimate_partial_constant(entry, sp, k)
            assert est.method == EXACT
            w = est.witness
            assert (est.lower_bound, w.points, w.z, w.indices) == product_scan(entry, sp, k), (entry.name, k)


_STRONG = strong_extremal_distance(5, 3)
_SYMMETRY_CASES = {entry.name: (entry, ABCD) for entry in _finite_entries(5, ABCD)} | {
    "single-anchor[cardinality,s=0.25,e=c]": (single_anchor_distance(catalog.make("cardinality", 5), "c", 0.25, ABC), ABC),
    _STRONG.name: (_STRONG, _STRONG.space),
}


@pytest.mark.parametrize("case", sorted(_SYMMETRY_CASES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_ratio_is_symmetric_bit_for_bit(case, data):
    entry, space = _SYMMETRY_CASES[case]
    n = entry.arity
    point = st.sampled_from(space.labels)
    t = data.draw(st.tuples(*[point] * n).filter(lambda t: distinct_count(t) >= 2))
    z = data.draw(point)
    idx = data.draw(st.sets(st.integers(1, n), min_size=1))
    perm = data.draw(st.permutations(range(n)))
    # position j + 1 of the permuted tuple holds position perm[j] + 1 of t; both
    # index sets are in position order, so the sections come in another order
    permuted = tuple(t[p] for p in perm)
    moved = sorted(perm.index(i - 1) + 1 for i in idx)
    assert ratio(entry, permuted, z, moved) == ratio(entry, t, z, sorted(idx))


def test_single_anchor_bound_does_not_round_above_its_constant():
    # a position-order float sum gave 0.25000000000000006 for the first tuple
    entry, space = _SYMMETRY_CASES["single-anchor[cardinality,s=0.25,e=c]"]
    assert ratio(entry, ("a", "a", "a", "b", "a"), "c") == ratio(entry, ("a", "a", "a", "a", "b"), "c") == 0.25
    est = estimate_best_constant(entry, space)
    assert est.method == EXACT
    assert est.lower_bound <= Fraction(1, 4)
