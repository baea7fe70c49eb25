"""Acceptance suite: one test per shipping criterion, one printed line each.

These run at full desk scale (budget 10^5 where a criterion is about
estimates), so the file takes a couple of minutes.  Unit-level coverage
lives in the per-module test files; this one pins the headline numbers.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from simplex_lab import catalog
from simplex_lab.analysis import (
    Witness,
    check_attainment_transfer,
    check_partial_bound,
    check_symmetrization,
    estimate_best_constant,
    estimate_partial_constant,
    ratio,
)
from simplex_lab.catalog import CatalogEntry
from simplex_lab.constructions import (
    single_anchor_distance,
    strong_extremal_distance,
    two_anchor_distance,
)
from simplex_lab.core import (
    CIRCLE_POINTS,
    FiniteSpace,
    NDistance,
    Plane,
    RealLine,
    section,
)
from simplex_lab.properties import (
    check_multidistance,
    check_repetition_invariance,
    check_strong_k_simplex,
    strong_constant_general,
    strong_constant_standard,
)

BUDGET = 100_000
SEED = 42

ABC = FiniteSpace(("a", "b", "c"))
ABCD = FiniteSpace(("a", "b", "c", "d"))
ABE = FiniteSpace(("a", "b", "e"))


def criterion(num, desc):
    """Print exactly one [PASS]/[FAIL] line per criterion, visible even
    under pytest's fd-level capture."""

    def wrap(fn):
        def run(capfd):
            try:
                fn()
            except BaseException:
                with capfd.disabled():
                    print(f"[FAIL] criterion {num}: {desc}", flush=True)
                raise
            with capfd.disabled():
                print(f"[PASS] criterion {num}: {desc}", flush=True)

        run.__name__ = fn.__name__
        run.__doc__ = fn.__doc__
        return run

    return wrap


@criterion(1, "catalog constants at n=4 match their closed forms")
def test_criterion_01_catalog_constants():
    rows = [
        (catalog.make("drastic", 4), ABC, 1e-9),
        (catalog.make("cardinality", 4), ABC, 1e-9),
        (catalog.make("diameter", 4), RealLine(), 1e-9),
        (catalog.make("diameter", 4, d2="euclidean"), Plane(), 1e-6),
        (catalog.make("sum-based", 4), RealLine(), 1e-9),
        (catalog.make("arithmetic-mean", 4), RealLine(), 1e-9),
        (catalog.make("enclosing-radius", 4), Plane(), 1e-6),
    ]
    for entry, space, tol in rows:
        est = estimate_best_constant(entry, space, budget=BUDGET, seed=SEED)
        assert abs(est.lower_bound - 1 / 3) <= tol, (entry.name, est.lower_bound)
        w = est.witness
        assert w is not None and w.ratio == est.lower_bound, entry.name
        assert abs(w.ratio - 1 / 3) <= tol, (entry.name, w.ratio)
        # the witness certifies its own ratio
        assert ratio(entry, w.points, w.z) == pytest.approx(w.ratio, abs=1e-12)
    for n, want in ((3, 2 / 3), (4, 2 / 5)):
        est = estimate_best_constant(
            catalog.make("enclosing-area", n), Plane(), budget=BUDGET, seed=SEED
        )
        assert abs(est.lower_bound - want) <= 1e-6, (n, est.lower_bound)


@criterion(2, "largest-inner-interval constants equal 2/n and 2/k with exact witnesses")
def test_criterion_02_inner_interval():
    for n in (3, 4, 5):
        entry = catalog.make("inner-interval", n)
        est = estimate_best_constant(entry, RealLine(), budget=BUDGET, seed=SEED)
        assert abs(est.lower_bound - 2 / n) <= 1e-9, (n, est.lower_bound)
        assert est.witness.ratio == est.lower_bound
        # the canonical witness x_1 < x_2 = ... = x_n with z at the midpoint
        # attains the constant exactly, not just within tolerance
        t, z = entry.witness_recipe(RealLine())
        pts = sorted(t)
        assert pts[0] < pts[1] and len(set(pts[1:])) == 1
        assert z == (pts[0] + pts[1]) / 2
        assert ratio(entry, t, z) == 2 / n
        for k in range(2, n + 1):
            part = estimate_partial_constant(entry, RealLine(), k=k, budget=BUDGET, seed=SEED)
            assert abs(part.lower_bound - 2 / k) <= 1e-9, (n, k, part.lower_bound)
    # p-th power variant: an n-distance only when n >= 2^p
    with pytest.raises(ValueError):
        catalog.make("inner-interval-power", 3, p=2)
    est = estimate_best_constant(
        catalog.make("inner-interval-power", 4, p=2), RealLine(), budget=BUDGET, seed=SEED
    )
    assert abs(est.lower_bound - 1.0) <= 1e-9


@criterion(3, "enclosing-area partial constants and attainment transfer")
def test_criterion_03_enclosing_area_partials():
    entry = catalog.make("enclosing-area", 4)
    for k in (2, 3, 4):
        part = estimate_partial_constant(entry, Plane(), k=k, budget=BUDGET, seed=SEED)
        assert abs(part.lower_bound - 1 / (k - 1.5)) <= 1e-6, (k, part.lower_bound)
    # two diametral points plus midpoint copies, z at the midpoint
    t, z = entry.witness_recipe(Plane())
    w = Witness(t, z, ratio(entry, t, z), (1, 2, 3, 4))
    for k in (2, 3, 4):
        v = check_attainment_transfer(entry, w, k=k, kstar=entry.constants[4])
        assert v.passed, (k, v.details)


@criterion(4, "partial-constant chains hold across the catalog")
def test_criterion_04_chains():
    cases = [
        ("drastic", {}, ABC),
        ("cardinality", {}, ABC),
        ("diameter", {}, RealLine()),
        ("sum-based", {}, RealLine()),
        ("arithmetic-mean", {}, RealLine()),
        ("fermat", {}, RealLine()),
        ("inner-interval", {}, RealLine()),
        ("inner-interval-power", {"p": 2}, RealLine()),
        ("enclosing-radius", {}, Plane()),
        ("enclosing-area", {}, Plane()),
        ("chebyshev-diameter", {}, Plane()),
        ("line-count", {}, Plane()),
    ]
    standard = {"drastic", "cardinality", "diameter", "sum-based",
                "arithmetic-mean", "enclosing-radius", "chebyshev-diameter"}
    for name, params, space in cases:
        entry = catalog.make(name, 4, **params)
        full = estimate_best_constant(entry, space, budget=20_000, seed=SEED)
        for k in (2, 3, 4):
            part = estimate_partial_constant(entry, space, k=k, budget=20_000, seed=SEED)
            chain = check_partial_bound(full, part, tol=1e-6)
            sym = check_symmetrization(full, part, tol=1e-6)
            assert not chain.failed, (name, k, chain.details)
            assert not sym.failed, (name, k, sym.details)
            if name in standard:
                assert chain.passed, (name, k)
                assert all(chain.details["equalities"].values()), (name, k, chain.details)
    # strictness: inner-interval at n=4, k=3 sits strictly above 1/(k-1)
    entry = catalog.make("inner-interval", 4)
    full = estimate_best_constant(entry, RealLine(), budget=20_000, seed=SEED)
    part = estimate_partial_constant(entry, RealLine(), k=3, budget=20_000, seed=SEED)
    chain = check_partial_bound(full, part, tol=1e-6)
    assert chain.passed
    assert chain.details["equalities"]["lower"] is False
    assert part.lower_bound > 1 / 2 + 1e-6


@criterion(5, "prescribed-constant constructions hit their targets exactly")
def test_criterion_05_prescribed_constants():
    base = catalog.make("drastic", 4)
    for s in (1 / 3, 0.4, 0.5, 1.0):
        d = single_anchor_distance(base, "e", s, ABE)
        est = estimate_best_constant(d, ABE, mode="exact")
        assert abs(est.lower_bound - s) <= 1e-12, (s, est.lower_bound)
        for k in (2, 3, 4):
            want = max(4 * s / k, 1.0 / (k - 1))
            got = estimate_partial_constant(d, ABE, k=k, mode="exact")
            assert abs(got.lower_bound - want) <= 1e-12, (s, k, got.lower_bound)
    d = two_anchor_distance("a", "b", 1 / 3, 4, ABCD)
    for k in (2, 3, 4):
        want = 1.0 / (3 - 4 + k)
        got = estimate_partial_constant(d, ABCD, k=k, mode="exact")
        assert abs(got.lower_bound - want) <= 1e-12, (k, got.lower_bound)


@criterion(6, "strong k-simplex: mean passes, extremal witness attains, formulas agree")
def test_criterion_06_strong_simplex():
    # arithmetic mean satisfies the strong inequality at 1/(k-1) for every
    # composition split
    for n in (4, 5):
        entry = catalog.make("arithmetic-mean", n)
        for k in range(2, n + 1):
            v = check_strong_k_simplex(
                entry, k=k, constant=1.0 / (k - 1), space=RealLine(0.0, 1.0),
                budget=10_000, seed=SEED,
            )
            assert v.passed, (n, k, v.counterexample)
    # the extremal witness distance at n=4, k=2: standard by exhaustive
    # enumeration (rational arithmetic), repetition-invariant, and the
    # strong constant 7/6 is attained exactly at (y1, y2; e)
    d = strong_extremal_distance(4, 2)
    best = Fraction(0)
    for t in itertools.product(d.space.labels, repeat=4):
        if len(set(t)) < 2:
            continue
        num = d.exact_evaluator(t)
        for z in d.space.labels:
            den = sum(d.exact_evaluator(section(t, i, z)) for i in range(1, 5))
            if den > 0:
                best = max(best, Fraction(num, 1) / den)
    assert best == Fraction(1, 3)
    assert check_repetition_invariance(d, d.space).passed
    num = d.exact_evaluator(("y1", "y2", "y2", "y2"))
    den = d.exact_evaluator(("e", "y2", "y2", "y2")) + d.exact_evaluator(("y1", "e", "e", "e"))
    assert num / den == Fraction(7, 6)
    assert Fraction(7, 6) == 1 / (2 * d.params["a"])
    v = check_strong_k_simplex(
        d, k=2, constant=float(Fraction(7, 6)), space=d.space, budget=20_000, seed=SEED
    )
    assert v.passed
    assert v.details["max_ratio"] == pytest.approx(7 / 6, abs=1e-12)
    # closed forms: the general formula at K* = 1/(n-1) reduces to the
    # standard one for every 2 <= k <= n-1, n <= 8
    for n in range(3, 9):
        for k in range(2, n):
            got = strong_constant_general(n, k, 1.0 / (n - 1))
            want = strong_constant_standard(n, k)
            assert abs(got - want) <= 1e-12, (n, k, got, want)


@criterion(7, "documented failure cases reproduce exactly")
def test_criterion_07_negative_results():
    # mean is not repetition-invariant: same value set, different values
    mean = catalog.make("arithmetic-mean", 3)
    assert mean(0.0, 1.0, 1.0) == pytest.approx(2 / 3, abs=1e-15)
    assert mean(0.0, 0.0, 1.0) == pytest.approx(1 / 3, abs=1e-15)
    v = check_repetition_invariance(mean, RealLine(0.0, 1.0))
    assert v.failed
    # fermat value moves with multiplicities
    f = catalog.make("fermat", 4)
    assert f(0.0, 0.0, 1.0, 1.0) == 2.0
    assert f(0.0, 1.0, 1.0, 1.0) == 1.0
    # inner interval grows under identification
    g = catalog.make("inner-interval", 3)
    assert g(1.0, 2.0, 3.0) == 1.0
    assert g(1.0, 3.0, 3.0) == 2.0
    # line count on n concyclic points gives C(n,2) lines, beating the sum
    # of pairwise terms: n terms for z off the data, n-1 when z sits on it
    for n in (3, 4, 5):
        entry = catalog.make("line-count", n)
        pts = tuple((float(x), float(y)) for x, y in CIRCLE_POINTS[:n])
        lhs = entry(*pts)
        assert lhs == float(math.comb(n, 2))
        pair = lambda x, z: 0.0 if x == z else 1.0
        z_on = pts[0]
        rhs_on = sum(pair(x, z_on) for x in pts)
        z_off = (7.0, 11.0)
        rhs_off = sum(pair(x, z_off) for x in pts)
        assert rhs_off == float(n) and rhs_on == float(n - 1)
        # the multidistance bound fails: at n=3 only with z on the data,
        # from n=4 on even with z free
        assert lhs > rhs_on
        if n >= 4:
            assert lhs > rhs_off


@criterion(8, "multidistance families and the repeated-argument bound")
def test_criterion_08_multidistance():
    family = [catalog.make("enclosing-radius", n) for n in range(2, 7)]
    v = check_multidistance(family, Plane(), budget=10_000, seed=SEED)
    assert v.passed, v.counterexample
    for n in range(2, 7):
        info = v.details["per_arity"][n]
        assert info["triangle"] == "pass"
        assert info["sufficient_equality"] is True, (n, info)
    # doubled mean: pair term |x - z| dominates the family
    doubled = [CatalogEntry(NDistance("doubled-mean", 2, "real-line", lambda t: abs(t[0] - t[1])))]
    doubled += [catalog.make("arithmetic-mean", n) for n in range(3, 6)]
    v = check_multidistance(doubled, RealLine(), budget=10_000, seed=SEED)
    assert v.passed, v.counterexample
    # repeated-argument bound on 10^4 sampled instances:
    # d_n(x_1..x_k, z, ..., z) <= sum_i d_2(x_i, z)
    entries = {n: catalog.make("enclosing-radius", n) for n in range(2, 7)}
    g = entries[2].distance.evaluator
    rng = random.Random(SEED)
    box = Plane()
    for _ in range(10_000):
        n = rng.randint(3, 6)
        k = rng.randint(1, n - 1)
        xs = tuple(box.sample(rng) for _ in range(k))
        z = box.sample(rng)
        lhs = entries[n].distance.evaluator(xs + (z,) * (n - k))
        rhs = sum(g((x, z)) for x in xs)
        assert lhs <= rhs + 1e-9, (n, k, xs, z, lhs, rhs)


@criterion(9, "sampled estimates equal exhaustive enumeration on small finite spaces")
def test_criterion_09_sampled_equals_exact():
    labels = ("a", "b", "c", "d")
    for size in (2, 3, 4):
        space = FiniteSpace(labels[:size])
        for n in (2, 3, 4):
            for name in ("drastic", "cardinality"):
                entry = catalog.make(name, n)
                a = estimate_best_constant(entry, space, budget=BUDGET, seed=SEED, mode="sampled")
                b = estimate_best_constant(entry, space, budget=BUDGET, seed=SEED, mode="exact")
                assert a == b, (size, n, name)
                for k in range(2, n + 1):
                    pa = estimate_partial_constant(
                        entry, space, k=k, budget=BUDGET, seed=SEED, mode="sampled"
                    )
                    pb = estimate_partial_constant(
                        entry, space, k=k, budget=BUDGET, seed=SEED, mode="exact"
                    )
                    assert pa == pb, (size, n, name, k)


@criterion(10, "open-constant entries stay inside their proven brackets")
def test_criterion_10_bracketed_constants():
    fermat = catalog.make("fermat", 4)
    est = estimate_best_constant(fermat, RealLine(), budget=BUDGET, seed=SEED)
    lo, hi = fermat.constant_bounds
    assert est.lower_bound >= lo - 1e-9
    assert est.lower_bound <= (4 * 4 - 4) / (3 * 16 - 16) + 1e-6  # 12/32
    lines = catalog.make("line-count", 4)
    est = estimate_best_constant(lines, Plane(), budget=BUDGET, seed=SEED)
    assert est.lower_bound >= 1.0 / (4 - 2 + 2.0 / 4) - 1e-6  # 1/2.5
    assert est.lower_bound < 1.0 / (4 - 2)  # strictly below 1/2
