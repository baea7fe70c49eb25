import dataclasses
import itertools
from fractions import Fraction

import pytest

from simplex_lab import catalog
from simplex_lab.analysis import EXACT, estimate_best_constant, estimate_partial_constant, ratio
from simplex_lab.constructions import (
    single_anchor_distance,
    strong_extremal_distance,
    two_anchor_distance,
)
from simplex_lab.core import (
    FiniteSpace,
    check_axioms,
    check_simplex,
    evaluate,
    section,
)
from simplex_lab.properties import (
    check_nonincreasing_identification,
    check_repetition_invariance,
    check_strong_k_simplex,
    strong_constant_standard,
)

ABE = FiniteSpace(("a", "b", "e"))
ABCD = FiniteSpace(("a", "b", "c", "d"))


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
    for entry, space, params, flags in cases:
        assert type(entry) is catalog.CatalogEntry, entry.name
        assert entry.space == space, entry.name
        assert set(entry.params) == params, entry.name
        assert (entry.standard, entry.repetition_invariant, entry.nonincreasing) == flags, entry.name
        assert entry.constant_bounds is None
        assert (entry.exact_evaluator is not None) == entry.name.startswith("strong-extremal")


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
    assert d.witness_recipe(space) == (("b", "b", "b", "b", "c"), "a")
    assert d.params["scale"] == 0.5


def test_single_anchor_constant_is_prescribed():
    base = catalog.make("drastic", 4)
    for s in (1 / 3, 0.4, 0.5, 1.0):
        d = single_anchor_distance(base, "e", s, ABE)
        est = estimate_best_constant(d, ABE)
        assert est.method == EXACT
        assert est.lower_bound == pytest.approx(s, abs=1e-12), s
        # prescribed witness attains it
        t, z = d.witness_recipe(ABE)
        assert ratio(d, t, z) == pytest.approx(s, abs=1e-12)


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
    # the stored witness hits the prescribed constant exactly
    t, z = d.witness_recipe(ABCD)
    assert ratio(d, t, z) == pytest.approx(1 / 3, abs=1e-12)


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
