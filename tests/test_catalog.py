import ast
import dataclasses
import inspect
import itertools
import math
import operator
import re
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from helpers import brute_circle, full_identification_walk, ordered_scan_by_k
from simplex_lab import catalog
from simplex_lab.analysis import EXACT, estimate_best_constant, estimate_partial_constant, scan
from simplex_lab.cli import default_space_for
from simplex_lab.core import (
    CIRCLE_POINTS, FAIL, PASS, FiniteSpace, NDistance, Plane, RealLine, ValueSetDistance, check_axioms,
    check_identity, check_simplex, check_symmetry, derive_seed, distinct_permutations, evaluate, iter_pairs,
    iter_tuples, section, step_pairs,
)
from simplex_lab.geometry import GROUND_KINDS, Circle, count_lines, ground_distance, smallest_enclosing_circle
from simplex_lab.properties import (
    check_nonincreasing_identification, check_repetition_invariance, check_strong_k_simplex, compositions,
    reduced_evaluator,
)


def test_available_ids_and_aliases():
    ids = catalog.available_ids()
    for name in (
        "drastic",
        "cardinality",
        "diameter",
        "sum-based",
        "arithmetic-mean",
        "fermat",
        "line-count",
        "enclosing-radius",
        "enclosing-area",
        "chebyshev-diameter",
        "inner-interval",
        "inner-interval-power",
    ):
        assert name in ids
    assert catalog.make("mean", 3).name == catalog.make("arithmetic-mean", 3).name
    assert catalog.make("sum", 3).name == catalog.make("sum-based", 3).name
    with pytest.raises(KeyError, match="known ids"):
        catalog.make("no-such-distance", 3)


@pytest.mark.parametrize("dist_id", catalog.available_ids())
def test_make_rejects_arity_below_two(dist_id):
    # checked before the factory runs: the factories divide by n - 1
    for n in (1, 0, -3):
        with pytest.raises(ValueError, match="at least 2"):
            catalog.make(dist_id, n)


def test_drastic_values():
    d = catalog.make("drastic", 4)
    assert d("a", "a", "a", "a") == 0.0
    assert d("a", "a", "a", "b") == 1.0
    assert d("a", "b", "c", "d") == 1.0
    assert d.constants[4] == pytest.approx(1 / 3)


def test_cardinality_values():
    d = catalog.make("cardinality", 4)
    assert d("a", "a", "a", "a") == 0.0
    assert d("a", "b", "a", "b") == 1.0
    assert d("a", "b", "c", "d") == 3.0


def test_diameter_values():
    d = catalog.make("diameter", 3)
    assert d(0.0, 0.25, 1.0) == pytest.approx(1.0)
    e = catalog.make("diameter", 3, d2="euclidean")
    assert e((0.0, 0.0), (3.0, 4.0), (1.0, 1.0)) == pytest.approx(5.0)


def test_sum_based_values():
    d = catalog.make("sum-based", 3)
    # all pairwise distances: |0-1| + |0-3| + |1-3| = 6
    assert d(0.0, 1.0, 3.0) == pytest.approx(6.0)


def test_arithmetic_mean_values():
    d = catalog.make("arithmetic-mean", 3)
    # mean of distances to the minimum
    assert d(0.0, 1.0, 1.0) == pytest.approx(2 / 3)
    assert d(0.0, 0.0, 1.0) == pytest.approx(1 / 3)
    assert d(2.0, 2.0, 2.0) == 0.0


def test_fermat_values():
    d = catalog.make("fermat", 4)
    # repeated points shift the optimum: these two differ, so no
    # repetition invariance for this entry
    assert d(0.0, 0.0, 1.0, 1.0) == pytest.approx(2.0)
    assert d(0.0, 1.0, 1.0, 1.0) == pytest.approx(1.0)
    # abs and chebyshev fold the step pairs exactly, discrete the equality types:
    # standard, with no bracket
    for d2 in ("abs", "chebyshev", "discrete"):
        entry = catalog.make("fermat", 4, d2=d2)
        assert (entry.standard, entry.constant_bounds) == (True, None)
        assert entry.constants == {k: 1 / (k - 1) for k in range(2, 5)}
    entry = catalog.make("fermat", 4, d2="euclidean")
    assert (entry.standard, entry.constants) == (None, {})
    lo, hi = entry.constant_bounds
    assert lo == pytest.approx(1 / 3)
    assert hi == pytest.approx(12 / 32)


def test_line_count_values():
    d = catalog.make("line-count", 3)
    assert d((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)) == pytest.approx(1.0)
    assert d((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)) == pytest.approx(3.0)
    assert d((1.0, 1.0), (1.0, 1.0), (1.0, 1.0)) == 0.0
    # at n=2 this is the drastic distance on the plane; no constant bracket
    assert catalog.make("line-count", 2).constant_bounds is None
    lo, hi = catalog.make("line-count", 4).constant_bounds
    assert lo == pytest.approx(1 / (4 - 2 + 2 / 4))
    assert hi == pytest.approx(1 / 2)
    # the lower end 1/(n-2+2/n) is correctly rounded, never above the exact value
    for n in range(3, 13):
        assert catalog.make("line-count", n).constant_bounds[0] == float(Fraction(n, n * n - 2 * n + 2))


def test_line_count_constants_are_the_linear_space_fold():
    # K*_n = n/(n^2-2n+2) and K*_{n,k} = (k+1)/(k(k-1)) for k < n, each correctly
    # rounded and equal to the exact fold's bound; the bracket stays, and holds
    for n in range(2, 6):
        entry = catalog.make("line-count", n)
        closed = {k: Fraction(k + 1, k * (k - 1)) for k in range(2, n)} | {n: Fraction(n, n * n - 2 * n + 2)}
        assert entry.constants == {k: float(v) for k, v in closed.items()}
        for k, v in entry.constants.items():
            est = estimate_partial_constant(entry, Plane(), k)
            assert (est.method, est.lower_bound, est.analytic) == ("exact", v, v)
        if n >= 3:
            lo, hi = entry.constant_bounds
            assert lo == entry.constants[n] < hi
    assert catalog.make("line-count", 6).constants == {}


def test_enclosing_radius_values():
    d = catalog.make("enclosing-radius", 3)
    assert d((0.0, 0.0), (2.0, 0.0), (1.0, 0.0)) == pytest.approx(1.0)
    assert d(*CIRCLE_POINTS[:3]) == pytest.approx(
        # circumradius of (5,0),(3,4),(0,5): all on the radius-5 circle,
        # but the minimal circle may be smaller than the circumscribing one
        d(*CIRCLE_POINTS[:3])
    )


def test_enclosing_area_values():
    d = catalog.make("enclosing-area", 3)
    assert d((0.0, 0.0), (2.0, 0.0), (1.0, 0.0)) == pytest.approx(math.pi)
    lo3 = catalog.make("enclosing-area", 3).constants[3]
    lo4 = catalog.make("enclosing-area", 4).constants[4]
    assert lo3 == pytest.approx(1 / 1.5)
    assert lo4 == pytest.approx(1 / 2.5)
    with pytest.raises(ValueError):
        catalog.make("enclosing-area", 2)


def test_chebyshev_diameter_values():
    d = catalog.make("chebyshev-diameter", 3)
    assert d((0.0, 0.0), (3.0, 4.0), (1.0, 1.0)) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        catalog.make("chebyshev-diameter", 3, q=3)


def test_inner_interval_values():
    d = catalog.make("inner-interval", 4)
    # largest gap between consecutive sorted values
    assert d(0.0, 1.0, 1.0, 1.0) == pytest.approx(1.0)
    assert d(0.0, 0.25, 0.75, 1.0) == pytest.approx(0.5)
    assert d.constants[4] == pytest.approx(2 / 4)
    assert d.constants[3] == pytest.approx(2 / 3)
    # order of arguments is irrelevant
    assert d(1.0, 0.0, 0.25, 0.75) == pytest.approx(0.5)


def test_inner_interval_not_nonincreasing():
    d3 = catalog.make("inner-interval", 3)
    assert d3(1.0, 2.0, 3.0) == pytest.approx(1.0)
    assert d3(1.0, 3.0, 3.0) == pytest.approx(2.0)  # identifying 2 -> 3 grows the value


def test_inner_interval_power():
    d = catalog.make("inner-interval-power", 4, p=2)
    assert d(0.0, 0.25, 0.75, 1.0) == pytest.approx(0.25)
    assert d.constants[4] == pytest.approx(4 / 4)
    with pytest.raises(ValueError, match="n < 2\\^p"):
        catalog.make("inner-interval-power", 3, p=2)
    assert catalog.make("inner-interval-power", 4, p=1.5).constants[4] == 2**1.5 / 4
    for p in (math.nan, math.inf, 0.5):
        with pytest.raises(ValueError, match="finite and at least 1"):
            catalog.make("inner-interval-power", 4, p=p)
    with pytest.raises(ValueError, match="n < 2\\^p"):
        catalog.make("inner-interval-power", 4, p=1e308)


def test_entry_flags():
    assert catalog.make("drastic", 4).standard is True
    assert catalog.make("cardinality", 4).repetition_invariant is True
    assert catalog.make("arithmetic-mean", 4).repetition_invariant is False
    assert catalog.make("fermat", 4).repetition_invariant is False
    assert catalog.make("line-count", 4).nonincreasing is True
    assert catalog.make("enclosing-area", 4).standard is False
    assert catalog.make("inner-interval", 4).standard is False
    assert catalog.make("inner-interval", 2).standard is True


def test_catalog_axioms_quick_sweep():
    # every entry satisfies identity and symmetry on its own kind of space
    spaces = {
        "finite": FiniteSpace(("a", "b", "c")),
        "real-line": RealLine(),
        "plane": Plane(),
        "any": FiniteSpace(("a", "b", "c")),
    }
    for name in catalog.available_ids():
        n = 4 if name != "inner-interval-power" else 4
        params = {"p": 2} if name == "inner-interval-power" else {}
        if name in ("line-count", "enclosing-area"):
            n = 3
        entry = catalog.make(name, n, **params)
        space = spaces[entry.distance.space_kind]
        # from the entry's own lists, and sampled without its hook
        for e in (entry, dataclasses.replace(entry, type_pairs=None)):
            for v in check_axioms(e, space, budget=256, seed=1):
                assert v.passed, (name, v.property, v.counterexample)


# every catalog id, with each of its d2, q and p variants
_VARIANTS = (
    [(dist_id, {}) for dist_id in (
        "drastic", "cardinality", "arithmetic-mean", "inner-interval", "line-count", "enclosing-radius",
        "enclosing-area",
    )]
    + [(dist_id, {"d2": g}) for dist_id in ("diameter", "sum-based", "fermat") for g in GROUND_KINDS]
    + [("chebyshev-diameter", {"q": q}) for q in (1, 2)]
    + [("inner-interval-power", {"p": p}) for p in (1, 2)]
)
_VARIANT_IDS = [i + "".join(f"[{k}={v}]" for k, v in p.items()) for i, p in _VARIANTS]


def test_variants_cover_the_catalog():
    assert {dist_id for dist_id, _ in _VARIANTS} == set(catalog.available_ids())


def _assert_structural_fails_recompute(entry, rep, noninc):
    # each FAIL is a witness of its own property: one identification that raises d,
    # or two tuples on one value set with different multiplicities and values
    ev = entry.distance.evaluator
    if noninc.failed:
        ce = noninc.counterexample
        t, u = ce["tuple"], ce["identified"]
        (i,) = [i for i in range(entry.arity) if t[i] != u[i]]
        assert u[i] in t and ev(t) == ce["before"] < ce["after"] == ev(u), entry.name
    if rep.failed:
        ce = rep.counterexample
        a, b = ce["tuple_a"], ce["tuple_b"]
        assert set(a) == set(b) and sorted(a) != sorted(b), entry.name
        assert ev(a) == ce["value_a"] != ce["value_b"] == ev(b), entry.name


@pytest.mark.parametrize("dist_id, params", _VARIANTS, ids=_VARIANT_IDS)
def test_flags_are_the_checkers_verdicts(dist_id, params):
    # every known flag at every arity the variant has in 2..5; standard where
    # the type list gives K*_n exactly
    arities = [n for n in range(2, 6) if dist_id != "enclosing-area" or n >= 3]
    if dist_id == "inner-interval-power":
        arities = [n for n in arities if n >= 2 ** params["p"]]
    for n in arities:
        entry = catalog.make(dist_id, n, **params)
        space = default_space_for(entry.distance.space_kind)
        rep = check_repetition_invariance(entry, space)
        noninc = check_nonincreasing_identification(entry, space, budget=200)
        for flag, verdict in ((entry.repetition_invariant, rep), (entry.nonincreasing, noninc)):
            if flag is not None:
                assert verdict.passed == flag, (entry.name, verdict.property, verdict.counterexample)
        _assert_structural_fails_recompute(entry, rep, noninc)
        est = estimate_best_constant(entry, space, budget=1)
        if entry.standard is not None and est.method == EXACT:
            assert (est.lower_bound == 1 / (n - 1)) == entry.standard, (entry.name, est.lower_bound)


_CONSTRUCTION = {"method": "construction", "construction": "core.value_set_distance"}


def _unwrapped(entry):
    """The entry with the same evaluator in a plain ``NDistance``: no check answers it by construction."""
    d = entry.distance
    return dataclasses.replace(entry, distance=NDistance(d.name, d.arity, d.space_kind, d.evaluator))


@pytest.mark.parametrize("dist_id, params", _VARIANTS, ids=_VARIANT_IDS)
def test_identity_and_symmetry_on_the_default_space(dist_id, params):
    entry = catalog.make(dist_id, 4, **params)
    space = default_space_for(entry.distance.space_kind)
    value_set = isinstance(entry.distance, ValueSetDistance)
    for e in (entry, dataclasses.replace(entry, type_pairs=None)) + ((_unwrapped(entry),) if value_set else ()):
        identity = check_identity(e, space, budget=4096, seed=42)
        symmetry = check_symmetry(e, space, budget=512, seed=42)
        assert identity.status == PASS and identity.details["checked"] > 0, (identity.counterexample, identity.details)
        assert symmetry.status == PASS, (symmetry.counterexample, symmetry.details)
        if isinstance(e.distance, ValueSetDistance):
            assert symmetry.details == _CONSTRUCTION
        else:
            assert symmetry.details["checked"] > 0, symmetry.details


@pytest.mark.parametrize("dist_id, params", _VARIANTS, ids=_VARIANT_IDS)
def test_symmetry_and_repetition_answer_only_value_set_entries_by_construction(dist_id, params):
    # a timed copy, whose evaluator keeps its values and whose distance keeps its class, as the bench
    # tracer makes it, is answered as the entry is; the unwrapped copy walks or samples to the same status
    entry = catalog.make(dist_id, 4, **params)
    space = default_space_for(entry.distance.space_kind)
    value_set = isinstance(entry.distance, ValueSetDistance)
    calls = []

    def timed_ev(t, ev=entry.distance.evaluator):
        calls.append(t)
        return ev(t)

    timed = dataclasses.replace(entry, distance=dataclasses.replace(entry.distance, evaluator=timed_ev))
    for check in (check_symmetry, check_repetition_invariance):
        v, v_timed, walked = (check(e, space, seed=42) for e in (entry, timed, _unwrapped(entry)))
        assert v.status == v_timed.status == walked.status, (v, walked)
        assert walked.details["checked"] > 0 and walked.details.get("method") != "construction"
        if value_set:
            assert v.status == PASS and v.details == v_timed.details == _CONSTRUCTION
        else:
            assert v.details.get("method") != "construction" and v.details["checked"] > 0
    assert (calls == []) == value_set


# K*_n of the README's catalog table; None where the table says "bracketed",
# and 1/(n-1) for every id not listed
_TABLE_CONSTANTS = {
    "fermat": lambda n, params: 1 / (n - 1) if params["d2"] != "euclidean" else None,
    "line-count": lambda n, params: n / (n * n - 2 * n + 2),  # exact for n <= 5
    "enclosing-area": lambda n, params: 1 / (n - 3 / 2),
    "inner-interval": lambda n, params: 2 / n,
    "inner-interval-power": lambda n, params: 2 ** params["p"] / n,
}


@pytest.mark.parametrize("dist_id, params", _VARIANTS, ids=_VARIANT_IDS)
def test_constants_match_the_catalog_table(dist_id, params):
    n = 4
    entry = catalog.make(dist_id, n, **params)
    closed_form = _TABLE_CONSTANTS.get(dist_id, lambda n, params: 1 / (n - 1))(n, params)
    if closed_form is None:
        assert n not in entry.constants
    else:
        assert entry.constants[n] == closed_form
    if entry.standard is True:
        assert all(entry.constants[k] == 1 / (k - 1) for k in range(2, n + 1))


_VARIANT_BY_ID = dict(zip(_VARIANT_IDS, _VARIANTS))
_LINE_CELL_LINEAR_IDS = {"diameter[d2=abs]", "sum-based[d2=abs]", "arithmetic-mean", "fermat[d2=abs]",
                         "chebyshev-diameter[q=1]"}
# each flagged planar variant, with the line variant L it is a sup, a sum or an integral of
_PLANE_CELL_LINEAR = {
    "diameter[d2=euclidean]": "diameter[d2=abs]",
    "diameter[d2=chebyshev]": "diameter[d2=abs]",
    "chebyshev-diameter[q=2]": "diameter[d2=abs]",
    "sum-based[d2=euclidean]": "sum-based[d2=abs]",
    "sum-based[d2=chebyshev]": "sum-based[d2=abs]",
    "fermat[d2=chebyshev]": "fermat[d2=abs]",
}
_CELL_LINEAR_IDS = _LINE_CELL_LINEAR_IDS | set(_PLANE_CELL_LINEAR)


def test_cell_linear_flags():
    flagged = {vid for vid, (dist_id, params) in _VARIANT_BY_ID.items()
               if catalog.make(dist_id, 4, **params).type_pairs is step_pairs}
    assert flagged == _CELL_LINEAR_IDS


_PARTITION_IDS = {"drastic", "cardinality", "diameter[d2=discrete]", "sum-based[d2=discrete]", "fermat[d2=discrete]"}


def test_partition_flags():
    flagged = {vid for vid, (dist_id, params) in _VARIANT_BY_ID.items()
               if catalog.make(dist_id, 4, **params).type_pairs is catalog.partition_pairs}
    assert flagged == _PARTITION_IDS


_COORD = st.floats(-1e6, 1e6, allow_nan=False)
_POINTS = {
    "finite": st.text("abcdefgh", min_size=1, max_size=2),
    "line": _COORD,
    "plane": st.tuples(_COORD, _COORD),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_partition_entries_see_only_which_arguments_are_equal(data):
    # the premise of partition_pairs: d(f(t)) = d(t) for every injective relabelling f
    vid = data.draw(st.sampled_from(sorted(_PARTITION_IDS)))
    n = data.draw(st.integers(2, 6))
    pattern = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    point = _POINTS[data.draw(st.sampled_from(sorted(_POINTS)))]
    f, g = (data.draw(st.lists(point, min_size=n, max_size=n, unique=True)) for _ in range(2))
    ev = _make(vid, n).distance.evaluator
    assert ev(tuple(f[i] for i in pattern)) == ev(tuple(g[i] for i in pattern))


def _equality_type(t, z, anchors=()):
    """The multiset of (multiplicity in t, is z, the anchor or "") over the points of (t, z)."""
    return tuple(sorted((t.count(v), v == z, v if v in anchors else "") for v in set(t) | {z}))


def test_partition_pairs_list_one_pair_per_equality_type():
    # one pair per type, anchored or not, and it is the type's smallest sorted (t, z), which the tie-break of an
    # exhaustive enumeration picks
    for n in range(2, 7):
        for size in range(2, n + 3):
            space = FiniteSpace(tuple("abcdefgh"[:size]))
            labels = space.labels
            for anchors in {(), labels[:1], labels[-1:], labels[:2], labels[1::2][:2]}:
                pairs = catalog.partition_pairs(space, n, anchors)
                assert all(list(t) == sorted(t) for t, _ in pairs)
                smallest = {}
                for t in itertools.combinations_with_replacement(labels, n):
                    for z in labels if len(set(t)) > 1 else ():
                        smallest.setdefault(_equality_type(t, z, anchors), (t, z))
                listed = {_equality_type(t, z, anchors): (t, z) for t, z in pairs}
                assert len(listed) == len(pairs) and listed == smallest, (n, size, anchors)
            assert catalog.partition_pairs(space, n, ("x", "y")) is catalog.partition_pairs(space, n)
        # every type fits on the line and the plane, which take the points 0..n
        line, plane = catalog.partition_pairs(RealLine(), n), catalog.partition_pairs(Plane(), n)
        assert len(line) == len(catalog.partition_pairs(FiniteSpace(tuple("abcdefgh"[:n + 1])), n))
        assert plane == tuple((tuple((x, 0.0) for x in t), (z, 0.0)) for t, z in line)
        assert {x for t, z in line for x in t + (z,)} <= set(map(float, range(n + 1)))
    five = FiniteSpace(tuple("abcde"))
    assert [len(catalog.partition_pairs(five, n)) for n in (4, 5, 6)] == [10, 16, 25]


def test_partition_list_is_built_once_per_labels_and_n():
    abc = catalog.partition_pairs(FiniteSpace(("c", "a", "b")), 4)
    assert abc is catalog.partition_pairs(FiniteSpace(("a", "b", "c")), 4)
    assert abc is catalog.make("cardinality", 4).type_list(FiniteSpace(("b", "c", "a")))
    assert catalog.partition_pairs(RealLine(-3.0, 5.0), 4) is catalog.partition_pairs(RealLine(), 4)
    assert catalog.partition_pairs(Plane(0.0, 2.0), 4) is catalog.partition_pairs(Plane(), 4)
    assert abc is not catalog.partition_pairs(FiniteSpace(("a", "b", "c")), 5)


def test_integer_partitions_stop_at_the_label_count():
    # the same order as every partition of n, largest first part first, filtered
    # to at most `parts` parts
    for n in range(1, 11):
        every = sorted((c for m in range(1, n + 1) for c in itertools.combinations_with_replacement(range(n, 0, -1), m)
                        if sum(c) == n), reverse=True)
        for parts in range(1, 8):
            assert list(catalog._integer_partitions(n, parts)) == [c for c in every if len(c) <= parts], (n, parts)
    # the walk never enters the 4e12 partitions of 200 with more than 3 parts
    start = time.perf_counter()
    pairs = catalog.partition_pairs(FiniteSpace(("a", "b", "c")), 200)
    assert time.perf_counter() - start < 5
    assert {len(set(t)) for t, _ in pairs} == {2, 3}


def test_partition_pairs_stop_at_the_point_limit():
    # counted on the walk over the types, before any tuple is built: 50,000 two-label tuples of 10^5 points,
    # p(60) - 1 tuples of 60 on the line, and the 120,768 pairs of 37 points on the line, whose p(37) - 1 distinct
    # tuples hold only 0.8M
    for space, n in ((FiniteSpace(("a", "b")), 10**5), (RealLine(), 60), (RealLine(), 37)):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            assert catalog.partition_pairs(space, n) is None
            assert time.perf_counter() - start < 1
            assert tracemalloc.get_traced_memory()[1] < 50e6
        finally:
            tracemalloc.stop()
    entry = catalog.make("drastic", 60)
    assert entry.type_list(RealLine()) is None and entry.axiom_tuples(RealLine()) is None
    strong = check_strong_k_simplex(entry, 60, 1 / 59, RealLine(), budget=64)
    assert strong.passed and "method" not in strong.details
    # below the limit: 3,433 tuples of 200 points on three labels, p(36) - 1 = 17,976 on the line
    assert len(catalog.partition_pairs(FiniteSpace(("a", "b", "c")), 200)) == 10_199
    assert len({t for t, _ in catalog.partition_pairs(RealLine(), 36)}) == 17_976


def test_partition_point_limit_counts_the_points_of_the_pairs(monkeypatch):
    # with the limit at the built list's points the list is built, one point fewer and it is refused
    for n in range(2, 12):
        for size in range(2, n + 3):
            space = FiniteSpace(tuple(range(size)))
            monkeypatch.setattr(catalog, "PARTITION_POINT_LIMIT", 10**9)
            points = n * len(catalog.partition_pairs(space, n))
            monkeypatch.setattr(catalog, "PARTITION_POINT_LIMIT", points)
            assert catalog.partition_pairs(space, n) is not None, (n, size)
            monkeypatch.setattr(catalog, "PARTITION_POINT_LIMIT", points - 1)
            assert catalog.partition_pairs(space, n) is None, (n, size)
    monkeypatch.undo()
    # 99,131 pairs of 36 points on the line (n + 1 labels), 120,768 of 37; 15,874 pairs of 250 points on three
    # labels, 16,000 of 251
    three = FiniteSpace(("a", "b", "c"))
    assert catalog.partition_pairs(RealLine(), 36) is not None and catalog.partition_pairs(RealLine(), 37) is None
    assert catalog.partition_pairs(three, 250) is not None and catalog.partition_pairs(three, 251) is None


def test_partition_point_limit_counts_the_anchored_pairs(monkeypatch):
    # at the built list's points it is built, one point fewer and it is refused, with one or two anchors and as
    # few as no other label
    for n in range(2, 10):
        for size in range(2, n + 4):
            space = FiniteSpace(tuple(chr(97 + i) for i in range(size)))
            for anchors in {space.labels[:1], space.labels[-1:], space.labels[:2], space.labels[1:3]}:
                monkeypatch.setattr(catalog, "PARTITION_POINT_LIMIT", 10**9)
                points = n * len(catalog.partition_pairs(space, n, anchors))
                monkeypatch.setattr(catalog, "PARTITION_POINT_LIMIT", points)
                assert catalog.partition_pairs(space, n, anchors) is not None, (n, size, anchors)
                monkeypatch.setattr(catalog, "PARTITION_POINT_LIMIT", points - 1)
                assert catalog.partition_pairs(space, n, anchors) is None, (n, size, anchors)
    monkeypatch.undo()
    # at the default limit: two anchors and 24 other labels from n = 24, one anchor and two others from n = 174
    letters = FiniteSpace(tuple(chr(97 + i) for i in range(26)))
    assert catalog.partition_pairs(letters, 23, ("a", "b")) is not None
    assert catalog.partition_pairs(letters, 24, ("a", "b")) is None
    three = FiniteSpace(("a", "b", "c"))
    assert catalog.partition_pairs(three, 173, ("a",)) is not None and catalog.partition_pairs(three, 174, ("a",)) is None


def test_partition_pairs_keep_a_refused_list(monkeypatch):
    # the walk that refuses a list runs once: the second call is a cache hit
    catalog._partition_pairs.cache_clear()
    three = FiniteSpace(("a", "b", "c"))
    assert catalog.partition_pairs(three, 251) is None
    assert catalog._partition_pairs.cache_info().hits == 0
    assert catalog.partition_pairs(three, 251) is None
    assert catalog._partition_pairs.cache_info().hits == 1
    # the limit is part of the key, so a larger one builds the list
    monkeypatch.setattr(catalog, "PARTITION_POINT_LIMIT", 10**9)
    assert len(catalog.partition_pairs(three, 251)) == 16_000


def test_catalog_reads_each_size_limit_in_one_place():
    # each limit is decided on the walk over its own list, so no second model of a list's size reads it
    readers = {}

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load) and child.id.endswith("_LIMIT"):
                readers.setdefault(child.id, set()).add(where)
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, f"{where}.{child.name}".lstrip(".") if named else where)

    visit(ast.parse(inspect.getsource(catalog)), "")
    assert readers == {
        "PARTITION_POINT_LIMIT": {"partition_pairs"}, "AXIOM_PERMUTATION_LIMIT": {"CatalogEntry.axiom_tuples"},
    }


@pytest.mark.parametrize("vid", sorted(_PARTITION_IDS))
def test_partition_fold_equals_the_ordered_scan(vid):
    # for every k, n = 2..5 and 2..n+2 labels the fold gives the bound, witness
    # and indices of a scan over every ordered (t, z) of the space, and the
    # estimate folds the list, not the enumeration
    for n in range(2, 6):
        entry = _make(vid, n)
        ev = entry.distance.evaluator
        for size in range(2, n + 3):
            space = FiniteSpace(tuple("abcdefg"[:size]))
            pairs = catalog.partition_pairs(space, n)
            ordered = ordered_scan_by_k(ev, iter_pairs(space, n, size ** (n + 1), 0), n)
            for k in range(2, n + 1):
                assert scan(ev, pairs, k)[0] == ordered[k], (n, size, k)
                est = estimate_partial_constant(entry, space, k)
                w = est.witness
                assert (est.lower_bound, w.points, w.z, w.indices) == ordered[k]
                assert (est.method, est.trials) == (EXACT, len(pairs))


def _hooked_cases():
    """(id, params, n) for every variant and n in 2..6 whose type list exists on its default space."""
    for (dist_id, params), vid in zip(_VARIANTS, _VARIANT_IDS):
        for n in range(2, 7):
            try:
                entry = catalog.make(dist_id, n, **params)
            except ValueError:  # inner-interval-power[p=2] needs n >= 4
                continue
            if entry.type_list(default_space_for(entry.distance.space_kind)) is not None:
                yield pytest.param(dist_id, params, n, id=f"{vid}-n{n}")


@pytest.mark.parametrize("dist_id, params, n", _hooked_cases())
def test_simplex_verdict_on_the_type_list_is_exact(dist_id, params, n):
    entry = catalog.make(dist_id, n, **params)
    space = default_space_for(entry.distance.space_kind)
    pairs = entry.type_list(space)
    kstar = entry.constants[n]
    exact = check_simplex(entry, space)
    # sampling may overshoot K* by an ulp or two, so only the statuses are compared
    hookless = dataclasses.replace(entry, type_pairs=None)
    assert exact.status == check_simplex(hookless, space, budget=2000, seed=42).status
    # no list holds a constant t, so the scan folds every listed pair
    assert exact.details == {"checked": len(pairs), "max_ratio": kstar, "method": EXACT}
    half = check_simplex(entry, space, constant=kstar / 2)
    assert half.failed
    for ce in (half.counterexample, half.worst):
        assert (ce["tuple"], ce["z"]) in pairs


def test_simplex_verdict_reads_the_whole_list_from_the_entry():
    # K*_4 = 2/5 of line-count is attained on its list, so a constant below it fails on a listed pair
    entry = catalog.make("line-count", 4)
    v = check_simplex(entry, Plane(), constant=0.35)
    assert v.failed and v.details["method"] == EXACT and v.details["max_ratio"] == 0.4
    pairs = entry.type_list(Plane())
    for ce in (v.counterexample, v.worst):
        assert (ce["tuple"], ce["z"]) in pairs


def test_type_list_only_on_the_entrys_own_space_kind():
    assert catalog.make("arithmetic-mean", 4).type_list(RealLine(-3.0, 5.0)) is step_pairs(RealLine(), 4)
    assert catalog.make("arithmetic-mean", 4).type_list(Plane()) is None
    assert catalog.make("diameter", 4, d2="euclidean").type_list(Plane()) is step_pairs(Plane(), 4)
    # an "any" entry's list serves every space; without a hook there is none
    drastic = catalog.make("drastic", 4)
    assert drastic.type_list(RealLine()) is catalog.partition_pairs(RealLine(), 4)
    assert dataclasses.replace(drastic, type_pairs=None).type_list(RealLine()) is None
    assert catalog.make("fermat", 4, d2="discrete").type_list(RealLine()) is None
    assert catalog.make("line-count", 6).type_list(Plane()) is None  # beyond the linear-space table
    # the entry's list decides the simplex verdict, and with no axiom tuples (past the permutation limit)
    # identity and symmetry sample
    entry = catalog.make("inner-interval", 8)
    identity, symmetry, simplex = check_axioms(entry, RealLine(), budget=64)
    assert simplex.details == {"checked": 1, "max_ratio": 0.25, "method": EXACT}
    assert "method" not in identity.details and symmetry.details == _CONSTRUCTION
    assert "method" not in check_symmetry(_unwrapped(entry), RealLine(), budget=64).details
    hookless = dataclasses.replace(_unwrapped(entry), type_pairs=None)
    assert all("method" not in v.details for v in check_axioms(hookless, RealLine()))



def _axiom_spaces(entry):
    """Finite spaces of 2..7 labels for a partition entry, and the line where its list reaches it."""
    spaces = []
    if entry.type_pairs is catalog.partition_pairs:
        spaces = [FiniteSpace(tuple("abcdefg"[:size])) for size in range(2, 8)]
    return spaces + [RealLine()] if entry.distance.space_kind in ("any", "real-line") else spaces


def _set_partition(u):
    # the partition of the positions into equal points, as each position's first equal position
    return tuple(u.index(x) for x in u)


def test_axiom_tuples_realise_every_set_partition_and_every_step_generator():
    # the coverage half of the proofs in CatalogEntry.axiom_tuples
    for n in range(2, 7):
        for size in range(2, 8):
            tuples = catalog.make("cardinality", n).axiom_tuples(FiniteSpace(tuple("abcdefg"[:size])))
            got = {_set_partition(u) for t in tuples for u in distinct_permutations(t)}
            assert got == {_set_partition(u) for u in itertools.product(range(size), repeat=n)}, (n, size)
        tuples = catalog.make("arithmetic-mean", n).axiom_tuples(RealLine())
        perms = [u for t in tuples for u in distinct_permutations(t)]
        h = float(n)
        assert len(perms) == len(set(perms)) == 2**n - 1
        assert set(perms) == set(itertools.product((0.0, h), repeat=n)) - {(0.0,) * n}
        assert tuples[-1] == (h,) * n


_FUBINI = (1, 1, 3, 13, 75, 541, 4683, 47293)  # ordered set partitions of n positions, OEIS A000670


def test_gap_axiom_tuples_realise_every_0_1_gap_tuple_once():
    # the coverage half of the gap proof: every nonconstant tuple over 0..n-1 whose sorted gaps are 0 or 1, as
    # many as the ordered set partitions into two or more blocks, Fubini(m) = sum_k C(m, k) Fubini(m - k)
    for m in range(1, len(_FUBINI)):
        assert _FUBINI[m] == sum(math.comb(m, k) * _FUBINI[m - k] for k in range(1, m + 1))
    for n in range(2, 8):
        expected = {tuple(map(float, u)) for u in itertools.product(range(n), repeat=n)
                    if 0 < max(u) and set(u) == set(range(max(u) + 1))}
        entries = [catalog.make("inner-interval", n)]
        if n >= 4:
            entries.append(catalog.make("inner-interval-power", n, p=2))
        for entry in entries:
            tuples = entry.axiom_tuples(RealLine())
            assert tuples[-1] == (1.0,) * n
            assert len(tuples) == 2 ** (n - 1) and all(t == tuple(sorted(t)) for t in tuples)
            perms = [u for t in tuples[:-1] for u in distinct_permutations(t)]
            assert len(perms) == len(set(perms)) == len(expected) == _FUBINI[n] - 1, n
            assert set(perms) == expected


def _layer_cake(t):
    """The (a_s, e_s) with t = min(t) + sum a_s e_s, and the index j of a largest gap of t.

    The e_s are the nested 0/1-gap tuples of t's order, one per distinct positive gap.
    """
    order = sorted(range(len(t)), key=t.__getitem__)
    gaps = [t[order[i + 1]] - t[order[i]] for i in range(len(t) - 1)]
    levels = sorted(set(gaps) - {0})
    out = []
    for low, v in zip([0] + levels, levels):
        e = [0] * len(t)
        for i, g in enumerate(gaps):
            e[order[i + 1]] = e[order[i]] + (g >= v)
        out.append((v - low, tuple(e)))
    return out, gaps.index(max(gaps))


@pytest.mark.parametrize("p", (1, 2))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_gap_entries_are_one_gap_on_each_refined_cell(p, data):
    # the premise of the gap proof: d^(1/p) is linear on each cell of one order and one largest gap,
    # so it is the layer-cake sum of its values at the cell's 0/1-gap generators, in exact arithmetic
    n = data.draw(st.integers(max(2, 2**p), 7))
    t = tuple(data.draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)))
    entry = catalog.make("inner-interval", n) if p == 1 else catalog.make("inner-interval-power", n, p=p)

    def root(u):
        v = Fraction(entry.distance.evaluator(tuple(map(float, u))))
        r = Fraction(round(v ** (1 / p)))
        assert r**p == v
        return r

    cake, j = _layer_cake(t)
    assert tuple(min(t) + sum(a * e[i] for a, e in cake) for i in range(n)) == t
    for a, e in cake:
        # a permutation of a listed tuple (see the coverage test above) whose gap j is 1
        assert a > 0 and max(e) > 0 and set(e) == set(range(max(e) + 1))
        assert sorted(e)[j + 1] - sorted(e)[j] == 1
    assert root(t) == sum(a * root(e) for a, e in cake)


def test_gap_axiom_tuples_stop_at_the_permutation_limit():
    # Fubini(8) - 1 = 545,834 permutations, counted before any tuple is built: the checks sample
    assert catalog.make("inner-interval", 7).axiom_tuples(RealLine()) is not None
    assert catalog.make("inner-interval", 8).axiom_tuples(RealLine()) is None
    tracemalloc.start()
    start = time.perf_counter()
    try:
        assert catalog.make("inner-interval", 64).axiom_tuples(RealLine()) is None
        assert time.perf_counter() - start < 1
        assert tracemalloc.get_traced_memory()[1] < 50e6
    finally:
        tracemalloc.stop()
    # the unwrapped copy, since the entry itself answers symmetry by construction
    entry = _unwrapped(catalog.make("inner-interval-power", 8, p=2))
    identity, symmetry, _ = check_axioms(entry, RealLine(), budget=64)
    assert identity.passed and symmetry.passed
    assert "method" not in identity.details and "method" not in symmetry.details


def test_axiom_tuples_only_for_partition_and_line_step_pair_entries():
    assert catalog.make("drastic", 4).axiom_tuples(Plane()) is not None
    assert catalog.make("arithmetic-mean", 4).axiom_tuples(Plane()) is None  # no type list off the line
    assert catalog.make("diameter", 4, d2="euclidean").axiom_tuples(Plane()) is None  # a planar step-pair entry
    assert catalog.make("fermat", 4, d2="discrete").axiom_tuples(RealLine()) is None
    assert catalog.make("inner-interval", 4).axiom_tuples(RealLine()) is not None  # the 0/1-gap tuples
    assert catalog.make("inner-interval", 4).axiom_tuples(Plane()) is None
    for dist_id, space in (("enclosing-radius", Plane()), ("line-count", Plane())):
        entry = catalog.make(dist_id, 4)
        assert entry.type_list(space) is not None and entry.axiom_tuples(space) is None
    assert dataclasses.replace(catalog.make("drastic", 4), type_pairs=None).axiom_tuples(RealLine()) is None
    # past the permutation limit the checks sample: 95,502 permutations at n = 8 on the line, 871,029 at n = 9
    assert catalog.make("drastic", 8).axiom_tuples(RealLine()) is not None
    assert catalog.make("drastic", 9).axiom_tuples(RealLine()) is None
    assert catalog.make("drastic", 9).axiom_tuples(FiniteSpace(("a", "b", "c"))) is not None
    # the entry decides all three axioms exactly, and none without its hook
    entry = catalog.make("cardinality", 4)
    identity, symmetry, simplex = check_axioms(entry, RealLine(), budget=64)
    assert identity.details["method"] == symmetry.details["method"] == simplex.details["method"] == EXACT
    hookless = dataclasses.replace(entry, type_pairs=None)
    assert all("method" not in v.details for v in check_axioms(hookless, RealLine(), budget=64))


_GAP_IDS = {"inner-interval", "inner-interval-power[p=1]", "inner-interval-power[p=2]"}


@pytest.mark.parametrize("variant", sorted(_PARTITION_IDS | _LINE_CELL_LINEAR_IDS | _GAP_IDS))
def test_identity_and_symmetry_on_the_axiom_tuples_agree_with_sampling(variant):
    for n in range(2 ** _VARIANT_BY_ID[variant][1].get("p", 1), 7):
        entry = _make(variant, n)
        for space in _axiom_spaces(entry):
            tuples = entry.axiom_tuples(space)
            perms = sum(1 for t in tuples for _ in distinct_permutations(t))
            for check, budget, checked in ((check_identity, 512, perms), (check_symmetry, 64, len(tuples))):
                e = entry
                if check is check_symmetry and isinstance(entry.distance, ValueSetDistance):
                    # answered by construction; the same evaluator, unwrapped, still walks the tuples
                    assert check(entry, space).details == _CONSTRUCTION
                    e = _unwrapped(entry)
                exact = check(e, space)
                sampled = check(dataclasses.replace(e, type_pairs=None), space, budget=budget, seed=42)
                assert exact.status == sampled.status == PASS, (n, space, exact, sampled)
                assert exact.details["method"] == EXACT and exact.details["checked"] == checked > 0


@pytest.mark.parametrize("variant", sorted(_PARTITION_IDS))
def test_nonincreasing_on_the_axiom_tuples_agrees_with_sampling(variant):
    for n in range(2, 7):
        entry = _make(variant, n)
        hookless = dataclasses.replace(entry, type_pairs=None)
        for space in _axiom_spaces(entry):
            exact = check_nonincreasing_identification(entry, space)
            sampled = check_nonincreasing_identification(hookless, space, budget=200, seed=42)
            assert exact.status == sampled.status, (n, space, exact, sampled)
            assert exact.details["method"] == EXACT and exact.details["checked"] > 0
            assert "method" not in sampled.details


def _mutant(n, hook, ev):
    kind = "any" if hook is catalog.partition_pairs else "real-line"
    return catalog.CatalogEntry(NDistance("mutant", n, kind, ev), type_pairs=hook)


def _assert_asymmetry_recomputes(entry, space):
    v = check_symmetry(entry, space)
    assert v.failed and v.details["method"] == EXACT
    ce = v.counterexample
    assert sorted(ce["tuple"]) == sorted(ce["permuted"])
    assert evaluate(entry.distance, ce["tuple"]) == ce["value"] != ce["permuted_value"]
    assert evaluate(entry.distance, ce["permuted"]) == ce["permuted_value"]


def test_axiom_tuples_catch_asymmetric_entries():
    def label_invariant(t):
        return 0.0 if len(set(t)) == 1 else 1.0 if t[0] == t[1] else 2.0

    def cell_linear(t):
        return max(t) - min(t) + (t[0] - min(t))

    def one_gap(t):  # linear on each cell of one order and one largest gap
        xs = sorted(t)
        return max(b - a for a, b in zip(xs, xs[1:])) + (t[0] - xs[0])

    for n in range(2, 7):
        if n >= 3:  # at n = 2, t[0] == t[1] only on constants
            for space in (FiniteSpace(("a", "b")), FiniteSpace(("a", "b", "c")), RealLine()):
                _assert_asymmetry_recomputes(_mutant(n, catalog.partition_pairs, label_invariant), space)
        for entry in (_mutant(n, step_pairs, cell_linear), _mutant(n, catalog.gap_pairs, one_gap)):
            _assert_asymmetry_recomputes(entry, RealLine())
            identity = check_identity(entry, RealLine())
            assert identity.passed and identity.details["method"] == EXACT


def test_axiom_tuples_catch_a_zero_on_any_one_nonconstant_tuple():
    # for each hook, every nonconstant permuted tuple in turn is the one tuple where d vanishes
    for n in range(2, 6):
        for hook, space in ((step_pairs, RealLine()), (catalog.gap_pairs, RealLine()),
                            (catalog.partition_pairs, RealLine()),
                            (catalog.partition_pairs, FiniteSpace(("a", "b", "c")))):
            tuples = _mutant(n, hook, None).axiom_tuples(space)
            for bad in (u for t in tuples[:-1] for u in distinct_permutations(t)):
                entry = _mutant(n, hook, lambda t, bad=bad: 0.0 if t == bad or len(set(t)) == 1 else 1.0)
                v = check_identity(entry, space)
                assert v.failed and v.counterexample == {"tuple": bad, "value": 0.0}
                assert evaluate(entry.distance, bad) == 0.0


def test_nonincreasing_on_the_axiom_tuples_reaches_every_identification():
    # a d that rises only on one set partition q fails wherever identifying two arguments reaches q
    for n in (4, 5):
        tuples = catalog.make("drastic", n).axiom_tuples(RealLine())
        for q in {_set_partition(u) for t in tuples for u in distinct_permutations(t)}:
            if not 2 <= len(set(q)) < n:
                continue
            entry = _mutant(n, catalog.partition_pairs,
                            lambda t, q=q: 0.0 if len(set(t)) == 1 else 2.0 if _set_partition(t) == q else 1.0)
            v = check_nonincreasing_identification(entry, RealLine())
            assert v.failed and _set_partition(v.counterexample["identified"]) == q, (n, q)

def test_nonincreasing_on_the_axiom_tuples_fails_with_a_real_identification():
    # fermat[discrete] at n = 4: identifying (a, a, a, b) to (a, a, b, b) raises d from 1 to 2
    entry = catalog.make("fermat", 4, d2="discrete")
    v = check_nonincreasing_identification(entry, FiniteSpace(("a", "b", "c")))
    assert v.failed and v.details["method"] == EXACT
    ce = v.counterexample
    t, u = ce["tuple"], ce["identified"]
    (i,) = [i for i in range(4) if t[i] != u[i]]
    assert u[i] in t
    assert evaluate(entry.distance, t) == ce["before"] < ce["after"] == evaluate(entry.distance, u)

@st.composite
def _one_cell_pair(draw, n):
    """Two (t, z) points of one order cell of (x_1..x_n, z), integer multiples of n.

    Both follow one ordering of the n+1 coordinates, ties allowed, so their
    sum does too; the values are small integers, so float arithmetic is exact.
    """
    order = draw(st.permutations(range(n + 1)))

    def point():
        steps = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        levels = itertools.accumulate(steps, initial=draw(st.integers(-4, 4)))
        coords = [0.0] * (n + 1)
        for pos, level in zip(order, levels):
            coords[pos] = float(n * level)
        return tuple(coords[:n]), coords[n]

    return point(), point()


def _cell_additivity_failures(entry, u, v) -> list[int]:
    """The parts where d(u + v) != d(u) + d(v): 0 for the tuple, i for section i."""
    ev = entry.distance.evaluator
    (tu, zu), (tv, zv) = u, v
    tw, zw = tuple(a + b for a, b in zip(tu, tv)), zu + zv
    parts = [(tw, tu, tv)] + [
        (section(tw, i, zw), section(tu, i, zu), section(tv, i, zv)) for i in range(1, len(tw) + 1)
    ]
    return [j for j, (w, a, b) in enumerate(parts) if ev(w) != ev(a) + ev(b)]


@pytest.mark.parametrize("variant", sorted(_LINE_CELL_LINEAR_IDS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cell_linear_entries_are_additive_on_a_cell(variant, data):
    # the premise of the step-vector fold in analysis: on one order cell, the
    # value and every section are additive (and so, with scaling, linear)
    dist_id, params = _VARIANT_BY_ID[variant]
    n = data.draw(st.integers(2, 7))
    entry = catalog.make(dist_id, n, **params)
    u, v = data.draw(_one_cell_pair(n))
    assert _cell_additivity_failures(entry, u, v) == []


def test_inner_interval_is_not_additive_on_a_cell():
    # the largest gap is a max of gaps, not linear on a cell: the same draws
    # that pass every flagged entry find a counterexample here
    entry = catalog.make("inner-interval", 3)
    assert entry.type_pairs is not step_pairs
    u, v = find(_one_cell_pair(3), lambda uv: bool(_cell_additivity_failures(entry, *uv)))
    assert _cell_additivity_failures(entry, u, v)


@pytest.mark.parametrize("n, p", [(n, p) for p in (1, 2) for n in range(3, 8) if n >= 2**p])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_gap_ratios_stay_at_most_two_to_the_p_over_k(n, p, data):
    # the bound half of catalog.gap_pairs, in exact arithmetic: no (t, z) has a ratio above 2^p/k
    # at any k; few small integers, so that repeated points, equal gaps and z on a point are common
    ev = catalog.make("inner-interval-power", n, p=p).distance.evaluator
    values = st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(lambda xs: len(set(xs)) > 1)
    t = tuple(map(Fraction, data.draw(values)))
    z = Fraction(data.draw(st.integers(-1, 6)))
    num = ev(t)
    secs = sorted(ev(section(t, i, z)) for i in range(1, n + 1))
    assert all(num * k <= 2**p * sum(secs[:k]) for k in range(2, n + 1)), (t, z)


def _make(variant: str, n: int):
    dist_id, params = _VARIANT_BY_ID[variant]
    return catalog.make(dist_id, n, **params)


@pytest.mark.parametrize("variant", sorted(_PLANE_CELL_LINEAR))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_plane_cell_linear_entries_are_their_line_map_on_the_x_axis(variant, data):
    # the attainment half of the transfer: on y = 0 the planar entry is its line map L
    n = data.draw(st.integers(2, 7))
    plane, line = _make(variant, n), _make(_PLANE_CELL_LINEAR[variant], n)
    t = tuple(float(n * v) for v in data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
    assert plane.distance.evaluator(tuple((x, 0.0) for x in t)) == line.distance.evaluator(t)


@st.composite
def _planar_pair(draw, n):
    """A (t, z) candidate on the plane; half-integer coordinates keep sums and halvings exact."""
    point = st.tuples(*[st.integers(-8, 8).map(lambda v: v / 2)] * 2)
    return tuple(draw(point) for _ in range(n)), draw(point)


def _ratios_above_standard(entry, pair) -> list[int]:
    """The k in 2..n whose ratio at ``pair`` exceeds 1/(k-1) by more than a relative 4 * 2^-52."""
    n = entry.arity
    folds = [(k, scan(entry.distance.evaluator, [pair], k)[0]) for k in range(2, n + 1)]
    return [k for k, best in folds if best is not None and best[0] > 1.0 / (k - 1) * (1 + 4 * 2.0**-52)]


@pytest.mark.parametrize("variant", sorted(_PLANE_CELL_LINEAR))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_plane_cell_linear_ratios_stay_at_the_line_constant(variant, data):
    # the bound half of the transfer: off the x-axis no ratio exceeds the line's 1/(k-1)
    n = data.draw(st.integers(2, 7))
    assert _ratios_above_standard(_make(variant, n), data.draw(_planar_pair(n))) == []


def test_enclosing_area_exceeds_the_line_constant():
    # enclosing-area folds circle_pairs, not the step pairs, with constant 1/(k - 3/2): the same
    # draws find a ratio above 1/(k-1)
    entry = catalog.make("enclosing-area", 3)
    assert entry.type_pairs is catalog.circle_pairs
    pair = find(_planar_pair(3), lambda p: bool(_ratios_above_standard(entry, p)))
    assert _ratios_above_standard(entry, pair)


def test_circle_flags():
    flagged = {vid for vid, (dist_id, params) in _VARIANT_BY_ID.items()
               if catalog.make(dist_id, 4, **params).type_pairs is catalog.circle_pairs}
    assert flagged == {"enclosing-radius", "enclosing-area"}


def test_circle_list_is_built_once_per_n():
    pairs = catalog.circle_pairs(Plane(), 4)
    assert pairs == ((((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (2.0, 0.0)), (1.0, 0.0)),)
    assert pairs is catalog.circle_pairs(Plane(-3.0, 5.0), 4)
    assert pairs is catalog.make("enclosing-radius", 4).type_list(Plane())
    assert pairs is catalog.make("enclosing-area", 4).type_list(Plane())
    assert pairs is not catalog.circle_pairs(Plane(), 5)
    assert catalog.circle_pairs(Plane(), 2) == ((((0.0, 0.0), (2.0, 0.0)), (1.0, 0.0)),)


def _circle_ratios_above_bound(t, z) -> list[tuple[str, int]]:
    """The (measure, k) whose ratio at (t, z) exceeds the circle_pairs bound by more than a relative 4 * 2^-52.

    Radii come from the exhaustive ``brute_circle``, not from Welzl's loop.
    """
    n = len(t)
    r = brute_circle(t)[2]
    secs = sorted(brute_circle(section(t, i, z))[2] for i in range(1, n + 1))
    slack = 1 + 4 * 2.0**-52
    out = []
    for k in range(2, n + 1):
        low = secs[:k]
        if r > math.fsum(low) / (k - 1) * slack:
            out.append(("radius", k))
        if r * r > math.fsum(s * s for s in low) / (k - 1.5) * slack:
            out.append(("area", k))
    return out


_GRID = st.integers(-3, 3).map(float)
# multiples of 2^-10, a finer grid than the integers
_DYADIC = st.integers(-2**12, 2**12).map(lambda v: v / 2**10)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_circle_ratios_stay_at_most_the_circle_bound(data):
    # the bound half of catalog.circle_pairs: no (t, z) has a radius ratio above 1/(k-1),
    # or an area ratio above 1/(k - 3/2), at any k
    n = data.draw(st.integers(2, 6))
    point = st.tuples(*[data.draw(st.sampled_from([_GRID, _DYADIC]))] * 2)
    t = tuple(data.draw(st.lists(point, min_size=n, max_size=n).filter(lambda ps: len(set(ps)) > 1)))
    z = data.draw(point)
    assert _circle_ratios_above_bound(t, z) == [], (t, z)


_S3 = math.sqrt(3.0)


@pytest.mark.parametrize("t, z, radius, area", [
    # an equilateral triangle with z at its centre, three supports: every section is the
    # diametral circle of a side, radius 1 against R = 2/sqrt(3)
    (((0.0, 0.0), (2.0, 0.0), (1.0, _S3)), (1.0, _S3 / 3), [2 / _S3 / k for k in (2, 3)], [4 / 3 / k for k in (2, 3)]),
    # a right triangle, z at the right angle: sections R sin A = 3/2, R sin B = 2 and R, with R = 5/2;
    # sin^2 A + sin^2 B = 1, so the area ratio at k = 2 is 1
    (((0.0, 0.0), (4.0, 0.0), (0.0, 3.0)), (0.0, 0.0), [2.5 / 3.5, 2.5 / 6], [1.0, 6.25 / 12.5]),
    # both supports doubled: every section keeps both, so every section is R
    (((0.0, 0.0), (0.0, 0.0), (2.0, 0.0), (2.0, 0.0)), (1.0, 0.0), [1 / k for k in (2, 3, 4)],
     [1 / k for k in (2, 3, 4)]),
])
def test_circle_bound_on_explicit_configurations(t, z, radius, area):
    n = len(t)
    for dist_id, want in (("enclosing-radius", radius), ("enclosing-area", area)):
        ev = catalog.make(dist_id, n).distance.evaluator
        got = [scan(ev, [(t, z)], k)[0][0] for k in range(2, n + 1)]
        assert got == pytest.approx(want, rel=1e-12), dist_id
    assert _circle_ratios_above_bound(t, z) == []


def test_readme_names_every_cell_linear_entry():
    # the README's estimation paragraph names exactly the flagged variants
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (paragraph,) = [p for p in readme.split("\n\n") if "`type_pairs=core.step_pairs`" in p]
    paragraph = " ".join(paragraph.split())
    names = {vid: _make(vid, 4).name for vid in _VARIANT_IDS}
    named = {vid for vid, name in names.items() if re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", paragraph)}
    assert named == _CELL_LINEAR_IDS


# the value-set variants, each with its evaluator as it was written before core.value_set_distance
def _diameter_by_hand(g):
    def ev(t):
        s = sorted(set(t))
        return 0.0 if len(s) == 1 else max(itertools.starmap(g, itertools.combinations(s, 2)))

    return ev


def _gap_by_hand(t):
    xs = sorted(t)
    return max(map(operator.sub, xs[1:], xs))


def _area_by_hand(t):
    r = smallest_enclosing_circle(t).radius
    return math.pi * r * r


_BY_HAND = {
    **{f"diameter[d2={g}]": _diameter_by_hand(ground_distance(g)) for g in GROUND_KINDS},
    **{f"chebyshev-diameter[q={q}]": _diameter_by_hand(ground_distance("chebyshev")) for q in (1, 2)},
    "line-count": lambda t: float(count_lines(t)),
    "enclosing-radius": lambda t: smallest_enclosing_circle(t).radius,
    "enclosing-area": _area_by_hand,
    "inner-interval": _gap_by_hand,
    **{f"inner-interval-power[p={p}]": lambda t, p=p: _gap_by_hand(t) ** p for p in (1, 2)},
}
# small integers put several points on a line and repeat gaps; 0.0 and -0.0 are one point to set()
_SET_COORD = st.one_of(st.integers(-3, 3).map(float), st.sampled_from((0.0, -0.0)), st.floats(-8.0, 8.0))
_SET_POINTS = {"finite": st.sampled_from("abcde"), "real-line": _SET_COORD, "plane": st.tuples(_SET_COORD, _SET_COORD)}


def test_value_set_entries_are_the_wrapped_variants():
    wrapped = {vid for vid in _VARIANT_IDS if isinstance(_make(vid, 4).distance, ValueSetDistance)}
    assert wrapped == set(_BY_HAND)


@pytest.mark.parametrize("vid", sorted(_BY_HAND))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_value_set_entries_see_only_the_set_of_their_arguments(vid, data):
    # the wrapped evaluator is the one written by hand, and equal value sets give the same float bit for
    # bit, whichever of 0.0 and -0.0 stands for a zero coordinate: the premises of check_symmetry's and
    # check_repetition_invariance's answer by construction
    n = data.draw(st.integers(4, 6), label="n")
    entry = _make(vid, n)
    pool = data.draw(st.lists(_SET_POINTS[entry.distance.space_kind], min_size=1, max_size=n), label="pool")
    t = tuple(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n), label="t"))
    values = list(dict.fromkeys(t))
    extra = data.draw(st.lists(st.sampled_from(values), min_size=n - len(values), max_size=n - len(values)))
    u = tuple(data.draw(st.permutations(values + extra), label="u"))
    flips = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="flips")
    u = tuple(_negate_zeros(p) if flip else p for p, flip in zip(u, flips))
    assert set(u) == set(t)
    ev = entry.distance.evaluator
    assert ev(t) == _BY_HAND[vid](t)
    assert repr(ev(u)) == repr(ev(t))


def _negate_zeros(p):
    """The point with each zero coordinate's sign flipped: the same element of a set."""
    if isinstance(p, str):
        return p
    if isinstance(p, tuple):
        return tuple(map(_negate_zeros, p))
    return -p if p == 0.0 else p


@pytest.mark.parametrize("vid", sorted(_BY_HAND))
def test_nonincreasing_walks_the_sets_of_value_set_entries(vid):
    # one identification per value that occurs once gives the verdict and first counterexample of all of them
    dist_id, params = _VARIANT_BY_ID[vid]
    for n in range(max(3, 2 ** params.get("p", 1)), 6):
        entry = catalog.make(dist_id, n, **params)
        kind = entry.distance.space_kind
        space = FiniteSpace(tuple("abcd")) if kind == "any" else default_space_for(kind)
        listed = entry.identification_tuples(space)
        for seed in range(5):
            v = check_nonincreasing_identification(entry, space, budget=200, seed=seed)
            if listed is None:
                tuples = iter_tuples(space, n, 200, derive_seed(seed, 500))
            else:
                tuples = (u for t in listed for u in distinct_permutations(t))
            walked, first = full_identification_walk(entry.distance.evaluator, tuples)
            assert v.status == (FAIL if first else PASS), (n, seed)
            assert v.counterexample == first, (n, seed)
            # checked counts one identification per position whose value occurs once
            assert v.details["checked"] == sum(t.count(x) == 1 for t in walked for x in t), (n, seed)
            assert ("method" in v.details) == (listed is not None)


def test_enclosing_evaluators_call_the_catalog_circle(monkeypatch):
    # the bench tracer times the circle by patching this name, so the evaluators must look it up there
    calls = []

    def counted(points):
        calls.append(points)
        return Circle((0.0, 0.0), 3.0)

    monkeypatch.setattr(catalog, "smallest_enclosing_circle", counted)
    t = ((0.0, 0.0), (2.0, 0.0), (0.0, 2.0))
    assert catalog.make("enclosing-radius", 3)(*t) == 3.0
    assert catalog.make("enclosing-area", 3)(*t) == math.pi * 3.0 * 3.0
    assert calls == [sorted(t)] * 2


def test_fermat_evaluators_call_the_catalog_fermat_value(monkeypatch):
    # the bench tracer times the euclidean Fermat value by patching this name, so the evaluators must look it up there
    calls = []

    def counted(points, ground="abs"):
        calls.append((points, ground))
        return 7.0

    monkeypatch.setattr(catalog, "fermat_value", counted)
    plane, line = ((0.0, 0.0), (2.0, 0.0), (0.0, 2.0)), (0.0, 2.0, 5.0)
    expected = [(plane, "euclidean"), (line, "abs"), (plane, "chebyshev")]
    for t, ground in expected:
        assert catalog.make("fermat", 3, d2=ground)(*t) == 7.0
    assert calls == expected


def _arity_k_member(vid, k):
    # enclosing-area is built from arity 3 on, inner-interval-power[p] from 2^p; below that it is the same map of
    # the set of k points, and gap_pairs still carries its constants
    least = 3 if vid == "enclosing-area" else 2 ** _VARIANT_BY_ID[vid][1].get("p", 1)
    if k < least:
        entry = _make(vid, least)
        return dataclasses.replace(entry, distance=dataclasses.replace(entry.distance, arity=k))
    return _make(vid, k)


@pytest.mark.parametrize("vid", sorted(_BY_HAND))
def test_strong_check_of_value_set_entries_folds_the_arity_k_list(vid):
    # for every composition d_c is d_k on the same values, so one arity-k list decides the check
    dist_id, params = _VARIANT_BY_ID[vid]
    for n in range(2, 6):
        if (dist_id == "enclosing-area" and n < 3) or n < 2 ** params.get("p", 1):
            continue
        entry = catalog.make(dist_id, n, **params)
        space = default_space_for(entry.distance.space_kind)
        plain = NDistance(entry.name, n, entry.distance.space_kind, lambda t, ev=entry.distance.evaluator: ev(t))
        # neither the wrapper nor a hook: at k = n a hooked entry folds its type list
        unwrapped = dataclasses.replace(entry, distance=plain, type_pairs=None)
        for k in range(2, n + 1):
            comps = compositions(n, k)
            v = check_strong_k_simplex(entry, k, 1.0, space, budget=1)
            sampled = check_strong_k_simplex(unwrapped, k, 1.0, space, budget=48 * len(comps), seed=k)
            assert "method" not in sampled.details, (n, k)
            assert v.details["method"] == EXACT, (n, k)
            assert v.details["checked"] == len(comps) * len(entry.strong_list(space, k))
            est = estimate_best_constant(_arity_k_member(vid, k), space)
            assert est.method == EXACT and v.details["max_ratio"] == est.lower_bound, (n, k)
            assert sampled.details["max_ratio"] <= v.details["max_ratio"], (n, k)
            # at half the constant the check fails on a listed pair, which recomputes
            half = v.details["max_ratio"] / 2
            ce = check_strong_k_simplex(entry, k, half, space).counterexample
            assert (ce["values"], ce["z"]) in entry.strong_list(space, k)
            ev = reduced_evaluator(entry, ce["composition"])
            total = math.fsum(ev(section(ce["values"], i, ce["z"])) for i in range(1, k + 1))
            assert ce["lhs"] == ev(ce["values"]) and ce["rhs"] == half * total and ce["lhs"] > ce["rhs"]


@pytest.mark.parametrize("dist_id, params, space", [
    ("sum-based", {"d2": "abs"}, RealLine()),
    ("arithmetic-mean", {}, RealLine()),
    ("fermat", {"d2": "abs"}, RealLine()),
    ("fermat", {"d2": "chebyshev"}, Plane()),
    ("sum-based", {"d2": "euclidean"}, Plane()),
], ids=["sum-based[abs]", "arithmetic-mean", "fermat[abs]", "fermat[chebyshev]", "sum-based[euclidean]"])
def test_strong_check_at_k_equals_n_folds_the_type_list(dist_id, params, space):
    # at k = n the only composition is (1, ..., 1), so d_c = d and the type list decides the check
    for n in range(2, 6):
        entry = catalog.make(dist_id, n, **params)
        v = check_strong_k_simplex(entry, n, 1 / (n - 1), space, budget=1)
        est = estimate_best_constant(entry, space, budget=1)
        assert v.details["method"] == est.method == EXACT, n
        assert v.details["checked"] == len(entry.type_list(space)), n
        assert v.details["max_ratio"] == est.lower_bound, n


def test_strong_check_of_gap_entries_is_exact_below_two_to_the_p():
    # gap_pairs carries 2^p/k for every k >= 2, so k = 2 and 3 of inner-interval-power[p=2] fold too
    entry = catalog.make("inner-interval-power", 4, p=2)
    for k, want in ((2, 2.0), (3, 4 / 3)):
        v = check_strong_k_simplex(entry, k, 1.0, RealLine())
        assert (v.details["method"], v.details["max_ratio"]) == (EXACT, want), k


def test_strong_check_of_line_count_samples_past_the_linear_space_types():
    # linear_space_pairs stops at k = 5, so at n = 6 the check folds k <= 5 and samples k = 6
    entry = catalog.make("line-count", 6)
    assert [entry.strong_list(Plane(), k) is None for k in range(2, 7)] == [False] * 4 + [True]
    assert check_strong_k_simplex(entry, 5, 1.0, Plane()).details["max_ratio"] == 5 / 17
    assert "method" not in check_strong_k_simplex(entry, 6, 1.0, Plane(), budget=64).details
    # off its space kind a value-set entry has no strong list
    assert catalog.make("enclosing-radius", 4).strong_list(RealLine(), 3) is None


def test_readme_names_every_value_set_entry():
    # the README's sentence on the value-set entries names exactly the ids built by core.value_set_distance
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").split())
    (sentence,) = [s for s in readme.split(". ") if s.startswith("The value-set entries are ")]
    named = {i for i in catalog.available_ids() if re.search(rf"(?<![\w-]){re.escape(i)}(?![\w-])", sentence)}
    wrapped = {vid for vid in _VARIANT_IDS if isinstance(_make(vid, 4).distance, ValueSetDistance)}
    assert named == {_VARIANT_BY_ID[vid][0] for vid in wrapped}
