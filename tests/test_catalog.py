import itertools
import math

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from simplex_lab import catalog
from simplex_lab.cli import default_space_for
from simplex_lab.core import (
    CIRCLE_POINTS, PASS, FiniteSpace, Plane, RealLine, check_axioms, check_identity, check_symmetry, section,
)
from simplex_lab.geometry import GROUND_KINDS


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
    lo, hi = catalog.make("fermat", 4).constant_bounds
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
        for v in check_axioms(entry.distance, space, budget=256, seed=1):
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


@pytest.mark.parametrize("dist_id, params", _VARIANTS, ids=_VARIANT_IDS)
def test_identity_and_symmetry_on_the_default_space(dist_id, params):
    entry = catalog.make(dist_id, 4, **params)
    space = default_space_for(entry.distance.space_kind)
    # every fermat[euclidean] value is a Weiszfeld solve
    budget = 256 if entry.name == "fermat[euclidean]" else 4096
    for v in (
        check_identity(entry.distance, space, budget=budget, seed=42),
        check_symmetry(entry.distance, space, budget=budget // 8, seed=42),
    ):
        assert v.status == PASS and v.details["checked"] > 0, (v.property, v.counterexample, v.details)


# K*_n of the README's catalog table; None where the table says "bracketed",
# and 1/(n-1) for every id not listed
_TABLE_CONSTANTS = {
    "fermat": None,
    "line-count": None,
    "enclosing-area": lambda n, params: 1 / (n - 3 / 2),
    "inner-interval": lambda n, params: 2 / n,
    "inner-interval-power": lambda n, params: 2 ** params["p"] / n,
}


@pytest.mark.parametrize("dist_id, params", _VARIANTS, ids=_VARIANT_IDS)
def test_constants_match_the_catalog_table(dist_id, params):
    n = 4
    entry = catalog.make(dist_id, n, **params)
    closed_form = _TABLE_CONSTANTS.get(dist_id, lambda n, params: 1 / (n - 1))
    if closed_form is None:
        assert n not in entry.constants
    else:
        assert entry.constants[n] == closed_form(n, params)
    if entry.standard is True:
        assert all(entry.constants[k] == 1 / (k - 1) for k in range(2, n + 1))


_VARIANT_BY_ID = dict(zip(_VARIANT_IDS, _VARIANTS))
_CELL_LINEAR_IDS = {"diameter[d2=abs]", "sum-based[d2=abs]", "arithmetic-mean", "fermat[d2=abs]",
                    "chebyshev-diameter[q=1]"}


def test_cell_linear_flags():
    flagged = {vid for vid, (dist_id, params) in _VARIANT_BY_ID.items()
               if catalog.make(dist_id, 4, **params).cell_linear}
    assert flagged == _CELL_LINEAR_IDS


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


@pytest.mark.parametrize("variant", sorted(_CELL_LINEAR_IDS))
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
    assert not entry.cell_linear
    u, v = find(_one_cell_pair(3), lambda uv: bool(_cell_additivity_failures(entry, *uv)))
    assert _cell_additivity_failures(entry, u, v)
