import dataclasses
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import product_scan
from simplex_lab import catalog, cli
from simplex_lab.analysis import EXACT, estimate_best_constant, estimate_partial_constant, ratio
from simplex_lab.constructions import (
    single_anchor_distance,
    strong_extremal_distance,
    two_anchor_distance,
)
from simplex_lab.core import (
    FiniteSpace,
    NDistance,
    check_axioms,
    check_identity,
    check_simplex,
    distinct_permutations,
    evaluate,
    section,
)
from simplex_lab.properties import (
    check_nonincreasing_identification,
    check_repetition_invariance,
    check_strong_k_simplex,
    compositions,
    strong_constant_standard,
)

ABE = FiniteSpace(("a", "b", "e"))
ABCD = FiniteSpace(("a", "b", "c", "d"))
ABCDE = FiniteSpace(("a", "b", "c", "d", "e"))


def test_constructions_return_catalog_entries():
    # (entry, space, params, flags (standard, repetition_invariant, nonincreasing))
    base = catalog.make("drastic", 4)
    open_base = dataclasses.replace(catalog.make("cardinality", 4), repetition_invariant=None)
    cases = [
        (single_anchor_distance(base, "e", 1 / 3, ABE), ABE, {"scale"}, (True, True, None)),
        (single_anchor_distance(base, "e", 0.5, ABE), ABE, {"scale"}, (False, True, None)),
        (single_anchor_distance(open_base, "e", 0.5, ABE), ABE, {"scale"}, (False, None, None)),
        (two_anchor_distance("a", "b", 1 / 3, 4, ABCD), ABCD, {"scale"}, (True, True, True)),
        (two_anchor_distance("a", "b", 0.4, 4, ABCD), ABCD, {"scale"}, (False, True, True)),
        (strong_extremal_distance(4, 2), FiniteSpace(("y1", "y2", "e")), {"a", "b"}, (True, True, False)),
    ]
    anchors = [("e",)] * 3 + [("a", "b")] * 2 + [("e",)]
    for (entry, space, params, flags), anchored in zip(cases, anchors):
        assert type(entry) is catalog.CatalogEntry, entry.name
        assert entry.type_pairs is catalog.partition_pairs and entry.anchors == anchored, entry.name
        assert entry.space == space, entry.name
        assert set(entry.params) == params, entry.name
        assert (entry.standard, entry.repetition_invariant, entry.nonincreasing) == flags, entry.name
        assert entry.constant_bounds is None
        assert (entry.exact_evaluator is not None) == entry.name.startswith("strong-extremal")


def test_catalog_entry_fields_hold_no_witness_of_their_own():
    # the constructions' constants come from their anchored type list, whose pairs are the witnesses
    assert [f.name for f in dataclasses.fields(catalog.CatalogEntry)] == [
        "distance", "standard", "repetition_invariant", "nonincreasing", "type_pairs", "anchors", "constants",
        "constant_bounds", "space", "exact_evaluator", "params",
    ]


_SEVEN = FiniteSpace(tuple("abcdefg"))
_PARTITION_BASES = [("drastic", {}), ("cardinality", {})]
_PARTITION_BASES += [(dist_id, {"d2": "discrete"}) for dist_id in ("diameter", "sum-based", "fermat")]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_constructions_see_only_which_arguments_are_equal_and_their_anchors(data):
    # the premise of their anchored partition_pairs: d(f(t)) = d(t) for every relabelling f that fixes the
    # anchors, t permuted too
    n = data.draw(st.integers(3, 6))
    a, b = data.draw(st.lists(st.sampled_from(_SEVEN.labels), min_size=2, max_size=2, unique=True))
    dist_id, params = data.draw(st.sampled_from(_PARTITION_BASES))
    entry = data.draw(st.sampled_from([
        single_anchor_distance(catalog.make(dist_id, n, **params), a, (1 / (n - 1) + 1) / 2, _SEVEN),
        two_anchor_distance(a, b, 1 / (n - 1.5), n, _SEVEN),
        strong_extremal_distance(n, data.draw(st.integers(2, n - 1))),
    ]))
    labels = entry.space.labels
    others = [x for x in labels if x not in entry.anchors]
    f = dict(zip(others, data.draw(st.permutations(others)))) | {x: x for x in entry.anchors}
    t = data.draw(st.tuples(*[st.sampled_from(labels)] * n))
    ev = entry.distance.evaluator
    assert ev(tuple(f[x] for x in data.draw(st.permutations(t)))) == ev(t)


@pytest.mark.parametrize("spec, space", [("single-anchor:s=0.4", "finite:5"), ("two-anchor:s=0.3", "finite:5"),
                                         ("strong-extremal:k=3", None)])
def test_verify_workload_constructions_fold_to_the_product_scan(spec, space):
    # the constants jobs of the verify workload: for every k the anchored fold gives the bound, witness and
    # indices of a scan over every ordered (t, z) of the space
    dist_id, params = cli.parse_distance_spec(spec)
    entry, sp = cli.build_distance(dist_id, params, 5, cli.parse_space(space) if space else None)
    pairs = entry.type_list(sp)
    for k in range(2, 6):
        est = estimate_partial_constant(entry, sp, k)
        assert (est.method, est.trials) == (EXACT, len(pairs))
        w = est.witness
        assert (est.lower_bound, w.points, w.z, w.indices) == product_scan(entry, sp, k), k


_LETTERS = FiniteSpace(tuple("abcdefghijklmnopqrstuvwxyz"))


def _on_letters(n):
    """Anchor constructions at arity n on 26 labels, each with its prescribed s."""
    ends = [1 / (n - 1), 0.5, 1.0] if n > 2 else [1.0]
    cases = [(single_anchor_distance(catalog.make(base, n), e, s, _LETTERS), s)
             for base in ("drastic", "cardinality") for e in ("a", "m") for s in ends]
    return cases + [(two_anchor_distance(a, b, s, n, _LETTERS), s)
                    for a, b in (("a", "b"), ("c", "x")) for s in (1 / (n - 1), 1 / (n - 1.5))]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_constructions_are_exact_on_a_large_label_space(n):
    # C(31, 6) * 26 = 19,187,160 (multiset, z) pairs at n = 6: the anchored list is all the estimate folds,
    # its max is the prescribed s to within one ulp (the float scale rounds either way: single-anchor[cardinality]
    # reads 0.20000000000000004 for 0.2 at n = 6), and the witness recomputes
    two, one = (catalog.partition_pairs(_LETTERS, n, anchors) for anchors in (("a", "b"), ("a",)))
    assert (len(two), len(one)) == {4: (93, 33), 5: (176, 59), 6: (311, 100)}[n]
    for entry, s in _on_letters(n):
        est = estimate_best_constant(entry, _LETTERS)
        assert (est.method, est.trials) == (EXACT, len(entry.type_list(_LETTERS))), entry.name
        assert math.nextafter(s, 0.0) <= est.lower_bound <= math.nextafter(s, 1.0), (entry.name, est.lower_bound)
        assert ratio(entry, est.witness.points, est.witness.z) == est.lower_bound
    # strong-extremal on its own space: 0.33333333333333337 at n = 4, one ulp above 1/3, as the enumeration reads
    strong = strong_extremal_distance(n, n - 1)
    est = estimate_best_constant(strong, strong.space)
    assert est.method == EXACT and est.lower_bound == (0.33333333333333337 if n == 4 else 1 / (n - 1))


def _anchored_partition(u, anchors):
    # each position's anchor, or else its first equal position: equal exactly for tuples one anchor-fixing
    # relabelling apart
    return tuple(x if x in anchors else u.index(x) for x in u)


def test_axiom_tuples_realise_every_anchored_set_partition():
    # the coverage half of the proof in CatalogEntry.axiom_tuples, with the constant of each anchor listed
    for n in range(2, 6):
        for size in range(3, 7):
            space = FiniteSpace(tuple("abcdef"[:size]))
            for anchors in (("a",), ("c",), ("a", "b"), ("b", "f")):
                entry = catalog.CatalogEntry(NDistance("m", n, "finite", None), type_pairs=catalog.partition_pairs,
                                             anchors=anchors)
                tuples = entry.axiom_tuples(space)
                got = {_anchored_partition(u, anchors) for t in tuples for u in distinct_permutations(t)}
                want = {_anchored_partition(u, anchors) for u in itertools.product(space.labels, repeat=n)}
                assert got == want, (n, size, anchors)
                constants = [t[0] for t in tuples if len(set(t)) == 1]
                assert sorted(constants[:-1]) == [a for a in anchors if a in space.labels]
                assert constants[-1] not in anchors


def test_identity_fails_on_an_anchor_constant_alone():
    # (a, ..., a) is no anchor-fixing image of another constant, so a map that is nonzero there alone fails
    # identity on exactly that tuple
    for anchors in (("e",), ("a", "e")):
        for n in (2, 3, 4):
            ev = lambda t, e=anchors[-1]: 1.0 if len(set(t)) > 1 or t[0] == e else 0.0  # noqa: E731
            entry = catalog.CatalogEntry(NDistance("m", n, "finite", ev), type_pairs=catalog.partition_pairs,
                                         anchors=anchors)
            v = check_identity(entry, ABCDE)
            assert v.failed and v.details["method"] == EXACT
            assert v.counterexample == {"tuple": (anchors[-1],) * n, "value": 1.0}


def test_construction_checks_fold_the_anchored_list():
    # identity, symmetry, simplex, nonincreasing and strong checks are exact, and agree with sampling; the strong
    # check's max ratio is that of every (values, z) of the space, for every composition
    cases = [(single_anchor_distance(catalog.make("cardinality", 4), "e", 0.5, ABCDE), ABCDE),
             (two_anchor_distance("a", "b", 0.4, 4, ABCDE), ABCDE), (strong_extremal_distance(4, 2), None)]
    for entry, space in cases:
        space = space or entry.space
        hookless = dataclasses.replace(entry, type_pairs=None)
        for exact, sampled in zip(check_axioms(entry, space), check_axioms(hookless, space, budget=512)):
            assert exact.passed and sampled.passed and exact.details["method"] == EXACT, exact
        exact = check_nonincreasing_identification(entry, space)
        sampled = check_nonincreasing_identification(hookless, space, budget=2000)
        assert exact.status == sampled.status and exact.details["method"] == EXACT, entry.name
        for k in (2, 3, 4):
            constant = strong_constant_standard(4, k) if entry.standard else 10.0
            v = check_strong_k_simplex(entry, k, constant, space)
            budget = len(compositions(4, k)) * space.size ** (k + 1)  # every (values, z) of each composition
            every = check_strong_k_simplex(hookless, k, constant, space, budget=budget)
            assert v.details["method"] == EXACT and v.status == every.status, (entry.name, k)
            assert v.details["max_ratio"] == every.details["max_ratio"], (entry.name, k)


# --- single anchor -------------------------------------------------------


def test_single_anchor_validation():
    base = catalog.make("drastic", 4)
    with pytest.raises(ValueError, match="3 labels"):
        single_anchor_distance(base, "a", 0.5, FiniteSpace(("a", "b")))
    with pytest.raises(ValueError, match="not a label"):
        single_anchor_distance(base, "x", 0.5, ABE)
    with pytest.raises(ValueError, match="standard"):
        single_anchor_distance(catalog.make("inner-interval", 4), "a", 0.5, ABE)
    with pytest.raises(ValueError, match="s must lie"):
        single_anchor_distance(base, "e", 0.2, ABE)  # below 1/(n-1)
    with pytest.raises(ValueError, match="s must lie"):
        single_anchor_distance(base, "e", 1.5, ABE)


def test_single_anchor_needs_a_partition_base():
    # the calibration folds the anchored type list, which carries the base's ratio only where the base sees
    # nothing but which arguments are equal
    ev = catalog.make("drastic", 4).distance.evaluator
    base = catalog.CatalogEntry(NDistance("hand-built", 4, "finite", ev), standard=True)
    with pytest.raises(ValueError, match="partition_pairs"):
        single_anchor_distance(base, "e", 0.5, ABE)
    hooked = single_anchor_distance(dataclasses.replace(base, type_pairs=catalog.partition_pairs), "e", 0.5, ABE)
    assert hooked.params["scale"] == 0.5


def test_single_anchor_drastic_scale():
    # anchor-free sup of the drastic ratio with z = e is 1/n, so the scale
    # is 1/(n s); tuples with the anchor keep the base value
    base = catalog.make("drastic", 4)
    d = single_anchor_distance(base, "e", 0.5, ABE)
    assert d.params["scale"] == pytest.approx(1 / (4 * 0.5))
    assert d.constants[4] == 0.5
    assert d(*("a", "b", "a", "b")) == pytest.approx(1.0)  # anchor absent: base value
    assert d(*("a", "b", "e", "b")) == pytest.approx(0.5)  # anchor present: shrunk by C
    assert d(*("a", "a", "a", "a")) == 0.0


def test_single_anchor_witness_is_lexicographically_first():
    # every nondegenerate anchor-free drastic tuple ties at ratio 1/5
    space = FiniteSpace(tuple("abcde"))
    d = single_anchor_distance(catalog.make("drastic", 5), "a", 0.4, space)
    w = estimate_best_constant(d, space).witness
    assert (w.points, w.z) == (("b", "b", "b", "b", "c"), "a")
    assert d.params["scale"] == 0.5


def test_single_anchor_constant_is_prescribed():
    base = catalog.make("drastic", 4)
    for s in (1 / 3, 0.4, 0.5, 1.0):
        d = single_anchor_distance(base, "e", s, ABE)
        est = estimate_best_constant(d, ABE)
        assert est.method == EXACT
        assert est.lower_bound == pytest.approx(s, abs=1e-12), s
        # the estimate's witness attains it
        assert ratio(d, est.witness.points, est.witness.z) == pytest.approx(s, abs=1e-12)


def test_single_anchor_partial_constants():
    base = catalog.make("drastic", 4)
    d = single_anchor_distance(base, "e", 0.5, ABE)
    for k in (2, 3, 4):
        est = estimate_partial_constant(d, ABE, k=k)
        assert est.method == EXACT
        want = max(4 * 0.5 / k, 1.0 / (k - 1))
        assert est.lower_bound == pytest.approx(want, abs=1e-12), k


def test_single_anchor_standard_flag():
    base = catalog.make("drastic", 4)
    assert single_anchor_distance(base, "e", 1 / 3, ABE).standard is True
    assert single_anchor_distance(base, "e", 0.5, ABE).standard is False


def test_single_anchor_axioms():
    base = catalog.make("drastic", 4)
    d = single_anchor_distance(base, "e", 0.5, ABE)
    for v in check_axioms(d, ABE):
        assert v.passed, v.property
    assert check_simplex(d, ABE, constant=0.5).passed
    assert check_simplex(d, ABE, constant=0.5 - 1e-6).failed


# --- two anchors ---------------------------------------------------------


def test_two_anchor_validation():
    with pytest.raises(ValueError, match="4 labels"):
        two_anchor_distance("a", "b", 0.4, 4, ABE)
    with pytest.raises(ValueError, match="distinct labels"):
        two_anchor_distance("a", "a", 0.4, 4, ABCD)
    with pytest.raises(ValueError, match="distinct labels"):
        two_anchor_distance("a", "x", 0.4, 4, ABCD)
    # s range is [1/(n-1), 1/(n-2)): upper endpoint excluded
    with pytest.raises(ValueError, match="s must lie"):
        two_anchor_distance("a", "b", 0.5, 4, ABCD)
    with pytest.raises(ValueError, match="s must lie"):
        two_anchor_distance("a", "b", 0.1, 4, ABCD)
    two_anchor_distance("a", "b", 1 / 3, 4, ABCD)  # lower endpoint included


def test_two_anchor_values():
    d = two_anchor_distance("a", "b", 0.4, 4, ABCD)
    C = 2.0 / (1.0 / 0.4 - 4 + 2)
    assert d.params["scale"] == pytest.approx(C)
    assert C >= 2.0
    assert d(*("c", "c", "c", "c")) == 0.0
    assert d(*("a", "b", "c", "c")) == pytest.approx(C)  # both anchors present
    assert d(*("a", "c", "c", "c")) == pytest.approx(1.0)
    assert d(*("c", "d", "c", "d")) == pytest.approx(1.0)


def test_two_anchor_constants():
    d = two_anchor_distance("a", "b", 1 / 3, 4, ABCD)
    est = estimate_best_constant(d, ABCD)
    assert est.method == EXACT
    assert est.lower_bound == pytest.approx(1 / 3, abs=1e-12)
    for k in (2, 3, 4):
        want = 1.0 / (1.0 / (1 / 3) - 4 + k)
        got = estimate_partial_constant(d, ABCD, k=k)
        assert got.method == EXACT
        assert got.lower_bound == pytest.approx(want, abs=1e-12), k
    # the estimate's witness hits the prescribed constant exactly
    assert ratio(d, est.witness.points, est.witness.z) == pytest.approx(1 / 3, abs=1e-12)


def test_two_anchor_structural_flags():
    d = two_anchor_distance("a", "b", 0.4, 4, ABCD)
    assert d.repetition_invariant is True
    assert d.nonincreasing is True
    assert check_repetition_invariance(d, ABCD).passed
    assert check_nonincreasing_identification(d, ABCD).passed
    for v in check_axioms(d, ABCD):
        assert v.passed, v.property


# --- strong-extremal distance --------------------------------------------


def test_strong_extremal_validation():
    with pytest.raises(ValueError):
        strong_extremal_distance(2, 2)
    with pytest.raises(ValueError):
        strong_extremal_distance(4, 1)
    with pytest.raises(ValueError):
        strong_extremal_distance(4, 4)


def test_strong_extremal_rational_values():
    d = strong_extremal_distance(4, 2)
    assert d.params["a"] == Fraction(3, 7)
    assert d.params["b"] == Fraction(6, 7)
    assert d.exact_evaluator(("y1", "y1", "y1", "y1")) == 0
    assert d.exact_evaluator(("y1", "y2", "y1", "y2")) == 1  # e-free, 2 values
    assert d.exact_evaluator(("y1", "e", "e", "e")) == Fraction(3, 7)
    assert d.exact_evaluator(("y1", "y2", "e", "e")) == Fraction(6, 7)  # all labels


def test_strong_extremal_is_standard_by_enumeration():
    d = strong_extremal_distance(4, 2)
    dist = d.distance
    best = Fraction(0)
    for t in itertools.product(d.space.labels, repeat=4):
        if len(set(t)) < 2:
            continue
        num = d.exact_evaluator(t)
        for z in d.space.labels:
            den = sum(d.exact_evaluator(section(t, i, z)) for i in range(1, 5))
            if den > 0:
                best = max(best, num / den)
    assert best == Fraction(1, 3)  # exactly 1/(n-1): standard
    assert check_repetition_invariance(d, d.space).passed
    assert check_nonincreasing_identification(d, d.space).failed


def test_strong_extremal_attains_strong_constant():
    # the witness composition splits the k blocks at (y1, ..., yk; z=e):
    # d'(y1, y2) with blocks (1, n-1) realizes M = 7/6 at n=4, k=2
    d = strong_extremal_distance(4, 2)
    M = strong_constant_standard(4, 2)
    v = check_strong_k_simplex(d, k=2, constant=M, space=d.space, budget=20_000, seed=0)
    assert v.passed
    assert v.details["max_ratio"] == pytest.approx(M, abs=1e-12)
    # any visibly smaller constant is violated (the check tolerance is 1e-9)
    v = check_strong_k_simplex(d, k=2, constant=M - 1e-6, space=d.space, budget=20_000, seed=0)
    assert v.failed


def test_strong_extremal_exact_ratio_is_rational():
    # 1/(k a) with a = (k-1)(n-1)/(k(n-1)+1): at n=4, k=2 this is 7/6
    d = strong_extremal_distance(4, 2)
    assert 1 / (2 * d.params["a"]) == Fraction(7, 6)
    assert float(Fraction(7, 6)) == pytest.approx(strong_constant_standard(4, 2), abs=1e-15)
