import math
from fractions import Fraction
from itertools import combinations

import pytest

from simplex_lab import catalog
from simplex_lab.catalog import CatalogEntry
from simplex_lab.core import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    FiniteSpace,
    NDistance,
    Plane,
    RealLine,
)
from simplex_lab.properties import (
    check_lemma_mixed_bound,
    check_multi_to_ndistance,
    check_multidistance,
    check_nonincreasing_identification,
    check_repetition_invariance,
    check_strong_k_simplex,
    compositions,
    expand_composition,
    strong_constant_general,
    strong_constant_standard,
    strong_threshold,
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


def test_strong_threshold():
    # strong constant at most 1 once k >= n + 2 - 1/K*
    assert strong_threshold(4, 1 / 3) == pytest.approx(3.0)
    assert strong_threshold(5, 1 / 4) == pytest.approx(3.0)


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


@pytest.mark.parametrize("space", [RealLine(), Plane()], ids=["line", "plane"])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_repetition_invariance_sees_every_set_size(space, m):
    # depends on multiplicities only on m-value sets: the check must expand sets of size m
    def ev(t):
        return float(len(set(t)) > 1) + (t.count(t[0]) if len(set(t)) == m else 0.0)

    v = check_repetition_invariance(CatalogEntry(NDistance(f"multiplicity-on-{m}-sets", 5, space.kind, ev)), space)
    assert v.failed
    assert len(set(v.counterexample["tuple_a"])) == m


def test_repetition_invariance_fermat():
    v = check_repetition_invariance(catalog.make("fermat", 4), UNIT)
    assert v.failed
    d = catalog.make("fermat", 4)
    assert d(0.0, 0.0, 1.0, 1.0) == pytest.approx(2.0)
    assert d(0.0, 1.0, 1.0, 1.0) == pytest.approx(1.0)


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


def test_multi_to_ndistance_converse():
    entry = catalog.make("enclosing-radius", 3)
    g = lambda x, z: math.hypot(x[0] - z[0], x[1] - z[1]) / 2.0
    v = check_multi_to_ndistance(entry, g, Plane(), budget=4000, seed=0)
    assert v.passed, v.details

    # the mean is not nonincreasing: hypothesis fails, so no verdict either way
    mean = catalog.make("arithmetic-mean", 3)
    g2 = lambda x, z: abs(x - z) / 3.0
    v = check_multi_to_ndistance(mean, g2, UNIT, budget=4000, seed=0)
    assert v.status == NOT_APPLICABLE
    assert v.details["reason"] == "not nonincreasing"
