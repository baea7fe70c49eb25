"""Best-constant estimation and the partial-inequality relation checkers.

Every ratio in the package comes from one kernel, ``scan``: it evaluates d
on each nondegenerate (tuple, z) candidate and on the candidate's sections,
folds the ratio into a running best, and records the first and the largest
violation of a given constant.  The best-constant estimates, the simplex
and strong-simplex checks and the calibration of single-anchor (a fold of
its anchored type list) differ only in the candidates they feed it.

Estimates are certified lower bounds: every reported value is realized by a
stored witness whose ratio can be recomputed from the witness alone.  The
budget alone picks the candidates, and ``method`` says which path ran.  An
entry with a ``type_pairs`` hook is exact on its own space (on every space,
for an "any" entry) wherever the hook returns a list: the max of its ratio
over that finite list of types is K*_{n,k}, so the scan folds the list and
skips enumeration, sampling and refinement.  Otherwise, on a finite space
whose C(size + n - 1, n) * size (multiset, z) pairs fit in
max(budget, ``_ENUM_FLOOR``) the scan is exhaustive and hence exact
(``_estimate`` says which entries get there).  It
folds one sorted tuple per multiset against every z: an n-distance is
symmetric (axiom (ii)) and section sums are ``math.fsum``, independent of
order, so the ratio depends only on the multiset of t and on z, and the
sorted tuple is the lexicographically smallest of its orbit.  The lower
bound, witness and indices are those of the scan over every ordered tuple.
``core.check_symmetry`` and the repetition check answer a value-set entry
by construction (``method: construction``: the wrapper evaluates f on the
sorted set of its arguments, ``core.ValueSetDistance`` has the proof) and
evaluate nothing.  Otherwise the axiom and property checks, which verify
the symmetry, still enumerate every tuple (the repetition check every
expansion of every label set), except that ``core.check_simplex`` folds
the entry's type list where one exists, and so does the strong check with
the entry's ``strong_list`` (the partition and value-set entries, and
every hooked entry at k = n, ``properties.check_strong_k_simplex``);
``core.check_identity`` and ``core.check_symmetry`` (also with the 0/1-gap
tuples of the ``gap_pairs`` entries) walk the permutations of
``CatalogEntry.axiom_tuples``, and the nonincreasing check those of
``identification_tuples``.  Each check reads these lists from the entry it
is given.
``core.step_pairs`` gives the 2(n-1) step pairs for the
entries linear on every order cell of (x_1..x_n, z) on the line
(diameter[abs], sum-based[abs], arithmetic-mean, fermat[abs],
chebyshev-diameter[q=1]), and for the planar sups, sums or integrals of
such an entry over linear maps to the line (diameter[euclidean],
diameter[chebyshev], chebyshev-diameter[q=2], sum-based[euclidean],
sum-based[chebyshev], fermat[chebyshev]), whose constant is the line's,
attained on the x-axis.  ``geometry.linear_space_pairs`` gives line-count,
for n <= 5, a candidate for every labelled linear space on at most n + 1
points.  ``catalog.gap_pairs`` gives inner-interval and inner-interval-power
one pair, t = (0, 2, ..., 2) with z = 1, for every n, and
``catalog.circle_pairs`` gives enclosing-radius and enclosing-area one
pair, t = ((0, 0), (1, 0), ..., (1, 0), (2, 0)) with z = (1, 0).
``catalog.partition_pairs`` gives the entries that see only which
arguments are equal (drastic, cardinality, and diameter, sum-based and
fermat on the discrete ground) one pair per equality type of (t, z): 10,
16 and 25 pairs at n = 4, 5 and 6 on five labels; and the
``constructions``, which see also which arguments are their anchors, one
pair per anchored type: 176 pairs for two-anchor at n = 5 on 26 labels.
Each hook's docstring carries its proof.  The values of the step
pairs may lie outside the sampling box, which bounds sampling only.
Everywhere else, larger finite spaces included, the scan folds the
candidates of ``core.iter_pairs`` (the structured extremal families, then
seeded samples), and on a continuous space locally refines the best
candidate by cyclic coordinate descent (in the catalog, only
fermat[euclidean] and line-count beyond n = 5 get there).
The fold is a max-reduction with a total lexicographic tie-break, so
results do not depend on evaluation order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from .core import (
    EXACT,
    SAMPLED,
    TOL,
    DegenerateTupleError,
    Point,
    PropertyVerdict,
    Space,
    distinct_count,
    iter_pairs,
    section,
    # not called here: bench/tracing.py patches both names on this module
    sample_pair,
    structured_pairs,
)

if TYPE_CHECKING:
    from .catalog import CatalogEntry

RELATION_TOL = 1e-6  # slack of the relations between estimated constants
_REFINE_ROUNDS = 20
_ENUM_FLOOR = 4096  # finite spaces at least this small always get enumerated


@dataclass(frozen=True, slots=True)
class Witness:
    """A (tuple, z) pair with the section positions used in the denominator."""

    points: tuple
    z: Point
    ratio: float
    indices: tuple[int, ...]  # 1-based positions, sorted


@dataclass(frozen=True, slots=True)
class ConstantEstimate:
    """A certified lower bound for K*_n (k = n) or K*_{n,k} (k < n).

    ``method`` is EXACT when the scan folded a finite space's (multiset, z)
    enumeration or the entry's ``type_pairs`` list, and SAMPLED when it
    folded the budget's samples.  ``trials`` counts the nondegenerate
    candidates folded by the scan, before refinement.
    """

    n: int
    k: int
    lower_bound: float
    witness: Witness | None
    analytic: float | None
    method: str  # EXACT | SAMPLED
    trials: int
    seed: int


def ratio(entry: CatalogEntry, t: tuple, z: Point, indices: Iterable[int] | None = None) -> float:
    """d(t) divided by the sum of the sections at the 1-based ``indices``.

    The indices must be distinct positions in 1..n; all n by default.
    Returns ``inf`` when every selected section vanishes: no finite constant
    can bound the corresponding partial inequality at this witness.
    """
    ev = entry.distance.evaluator
    if distinct_count(t) < 2:
        raise DegenerateTupleError("the ratio needs a nondegenerate tuple")
    n = len(t)
    idx = tuple(indices) if indices is not None else tuple(range(1, n + 1))
    if not idx:
        raise ValueError("empty index set")
    if len(set(idx)) != len(idx) or not all(1 <= i <= n for i in idx):
        raise ValueError(f"indices must be distinct positions in 1..{n}, got {idx}")
    num = ev(t)
    den = _section_sum([ev(section(t, i, z)) for i in idx])
    if den == 0.0:
        return math.inf
    return num / den


def _section_sum(secs: list[float]) -> float:
    """``math.fsum`` of the sections: correctly rounded, so independent of order.

    Sections are nonnegative, so an overflow means the exact sum is beyond
    the float range and rounds to ``inf``.
    """
    try:
        return math.fsum(secs)
    except OverflowError:
        return math.inf


@functools.lru_cache(maxsize=None)
def _positions(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def _eval_candidate(ev: Callable[[tuple], float], t: tuple, z: Point, k: int):
    """(d(t), sum of the k smallest sections at z, their 1-based positions).

    Ties between equal sections go to the lowest positions; the sum is the
    order-free ``_section_sum``, as in ``ratio``.  Returns None on
    degenerate tuples.
    """
    if len(set(t)) < 2:
        return None
    num = ev(t)
    n = len(t)
    secs = [ev(t[:i] + (z,) + t[i + 1:]) for i in range(n)]
    if k == n:
        return num, _section_sum(secs), _positions(n)
    # the sort is stable, so equal sections go to the lowest positions
    chosen = sorted(sorted(range(n), key=secs.__getitem__)[:k])
    return num, _section_sum([secs[j] for j in chosen]), tuple(j + 1 for j in chosen)


def _better(a, b):
    """Max-reduction over (ratio, t, z, idx) with a lexicographic tie-break.

    Total, associative and commutative, so batch merge order cannot matter.
    """
    if a is None:
        return b
    if b is None:
        return a
    if a[0] != b[0]:
        return a if a[0] > b[0] else b
    return a if (a[1], a[2]) <= (b[1], b[2]) else b


def scan(
    ev: Callable[[tuple], float],
    candidates: Iterable[tuple[tuple, Point]],
    k: int,
    constant: float = math.inf,
):
    """Fold (tuple, z) candidates: d(t) against the sum of its k smallest sections.

    Degenerate tuples are skipped; the ratio is ``inf`` where the section
    sum vanishes.  Returns ``(best, first, worst, checked)``: the max of
    (ratio, t, z, idx) under ``_better``; the first and the largest (first
    of equals) violation of num <= constant * den by more than ``TOL``, as
    (violation, t, z, num, den); and the number of candidates folded.
    """
    evaluate, tol = _eval_candidate, TOL
    best = first = worst = None
    checked = 0
    for t, z in candidates:
        res = evaluate(ev, t, z, k)
        if res is None:
            continue
        checked += 1
        num, den, idx = res
        r = num / den if den != 0.0 else math.inf
        if best is None or r >= best[0]:
            best = _better(best, (r, t, z, idx))
        violation = num - constant * den
        if violation > tol:
            if first is None:
                first = worst = (violation, t, z, num, den)
            elif violation > worst[0]:
                worst = (violation, t, z, num, den)
    return best, first, worst, checked


def estimate_best_constant(
    entry: CatalogEntry, space: Space, budget: int = 100_000, seed: int = 42
) -> ConstantEstimate:
    """Estimate K*_n: the supremum of d(t)/sum-of-all-sections."""
    return _estimate(entry, space, entry.arity, budget, seed)


def estimate_partial_constant(
    entry: CatalogEntry, space: Space, k: int, budget: int = 100_000, seed: int = 42
) -> ConstantEstimate:
    """Estimate K*_{n,k}: the supremum over k-term section sums (2 <= k <= n)."""
    n = entry.arity
    if not 2 <= k <= n:
        raise ValueError(f"k must be in 2..{n}, got {k}")
    return _estimate(entry, space, k, budget, seed)


def _estimate(entry: CatalogEntry, space: Space, k: int, budget: int, seed: int) -> ConstantEstimate:
    """Fold the entry's type list, else the exhaustive enumeration, else ``core.iter_pairs``.

    The enumeration serves the entries without a hook, and the partition
    entries past their list's point limit on two or three labels: drastic
    on two labels from n = 2,001, whose 2(n + 1) (multiset, z) pairs fit
    the default budget up to n = 49,999, and on three labels at
    n = 251..256 at the default budget.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    d = entry.distance
    n = d.arity
    exhaustive = space.kind == "finite" and math.comb(space.size + n - 1, n) * space.size <= max(budget, _ENUM_FLOOR)
    typed = entry.type_list(space)
    if typed is not None:
        pairs = typed
    elif exhaustive:
        # d is symmetric and the section sum order-free, so the sorted tuple,
        # the smallest of its orbit, carries every ratio and wins every tie
        pairs = itertools.product(itertools.combinations_with_replacement(sorted(space.labels), n), space.labels)
    else:
        pairs = iter_pairs(space, n, budget, seed)
    best, _, _, trials = scan(d.evaluator, pairs, k)
    if best is None:
        raise ValueError("no nondegenerate candidate found within budget")
    exact = exhaustive or typed is not None
    if space.kind != "finite" and not exact and math.isfinite(best[0]):
        best = _refine(d.evaluator, space, n, k, best)
    witness = Witness(best[1], best[2], best[0], best[3])
    method = EXACT if exact else SAMPLED
    return ConstantEstimate(n, k, best[0], witness, entry.constants.get(k), method, trials, seed)


def _refine(ev: Callable[[tuple], float], space: Space, n: int, k: int, best):
    """Cyclic coordinate descent around the best candidate, shrinking steps."""
    planar = space.kind == "plane"

    def flatten(t: tuple, z: Point) -> list[float]:
        if planar:
            coords = [c for p in t for c in p]
            return coords + [z[0], z[1]]
        return list(t) + [z]

    def rebuild(coords: list[float]):
        if planar:
            pts = tuple((coords[2 * i], coords[2 * i + 1]) for i in range(n))
            return pts, (coords[-2], coords[-1])
        return tuple(coords[:-1]), coords[-1]

    cur = flatten(best[1], best[2])
    cur_best = best
    step = 0.25 * (space.high - space.low)
    for _ in range(_REFINE_ROUNDS):
        for ci in range(len(cur)):
            for delta in (step, -step):
                trial = list(cur)
                trial[ci] += delta
                found = scan(ev, (rebuild(trial),), k)[0]
                if found is not None and found[0] > cur_best[0]:
                    cur = trial
                    cur_best = found
        step *= 0.5
    return cur_best


# ---------------------------------------------------------------------------
# relations between full and partial constants


def _estimate_value(est: ConstantEstimate) -> float:
    return est.analytic if est.analytic is not None else est.lower_bound


def check_partial_bound(
    full: ConstantEstimate, partial: ConstantEstimate, tol: float = RELATION_TOL
) -> PropertyVerdict:
    """The chain linking K*_n and K*_{n,k}.

    For n - 1/K*_n < k <= n:
        1/(k-1) <= K*_{n,k} <= 1/(1/K*_n - n + k)
        K*_n >= 1/(1/K*_{n,k} + n - k) >= 1/(n-1)
    with equalities throughout exactly in the standard case.
    """
    n, k = full.n, partial.k
    prop = f"partial-bound(k={k})"
    kn = _estimate_value(full)
    knk = _estimate_value(partial)
    if not (n - 1.0 / kn < k <= n):
        return PropertyVerdict.of(prop, {"reason": "k outside (n - 1/K*, n]", "k": k, "full": kn})
    upper = 1.0 / (1.0 / kn - n + k)
    back = 1.0 / (1.0 / knk + n - k)
    lower = 1.0 / (k - 1)
    checks = {
        "lower": lower <= knk + tol,
        "upper": knk <= upper + tol,
        "back": kn >= back - tol,
        "floor": back >= 1.0 / (n - 1) - tol,
    }
    equalities = {
        "lower": abs(knk - lower) <= tol,
        "upper": abs(knk - upper) <= tol,
        "back": abs(kn - back) <= tol,
        "floor": abs(back - 1.0 / (n - 1)) <= tol,
    }
    details = {
        "full": kn,
        "partial": knk,
        "upper": upper,
        "back": back,
        "lower": lower,
        "checks": checks,
        "equalities": equalities,
    }
    bad = sorted(name for name, ok in checks.items() if not ok)
    return PropertyVerdict.of(prop, details, {"failed": bad} if bad else None)


def check_symmetrization(
    full: ConstantEstimate, partial: ConstantEstimate, tol: float = RELATION_TOL
) -> PropertyVerdict:
    """K*_n <= (k/n) K*_{n,k}, the factor k/n being optimal."""
    n, k = full.n, partial.k
    prop = f"symmetrization(k={k})"
    kn = _estimate_value(full)
    knk = _estimate_value(partial)
    bound = (k / n) * knk
    details = {"full": kn, "partial": knk, "bound": bound, "equality": abs(kn - bound) <= tol}
    ce = None if kn <= bound + tol else {"full": kn, "bound": bound}
    return PropertyVerdict.of(prop, details, ce)


def check_attainment_transfer(
    entry: CatalogEntry, witness: Witness | None, k: int, kstar: float | None = None
) -> PropertyVerdict:
    """Equality transfer from a K*_n-attaining witness to partial sums.

    At a witness (t, z) attaining K*_n, the k-term sum bound
    1/(1/K*_n - n + k) is attained by an index set S exactly when every
    section outside S leaves the value unchanged.  Verified over all k-sets.
    ``kstar`` defaults to the entry's known K*_n; without one, or without a
    witness, the verdict is not applicable.
    """
    d = entry.distance
    n = d.arity
    prop = f"attainment-transfer(k={k})"
    if kstar is None:
        kstar = entry.constants.get(n)
    if kstar is None:
        return PropertyVerdict.of(prop, {"reason": "no known best constant K*_n"})
    if witness is None:
        return PropertyVerdict.of(prop, {"reason": "no witness"})
    if not (n - 1.0 / kstar < k <= n):
        return PropertyVerdict.of(prop, {"reason": "k outside (n - 1/K*, n]"})
    if abs(witness.ratio - kstar) > TOL:
        return PropertyVerdict.of(prop, {"reason": "witness does not attain K*", "ratio": witness.ratio, "kstar": kstar})
    t, z = witness.points, witness.z
    ev = d.evaluator
    num = ev(t)
    secs = {i: ev(section(t, i, z)) for i in range(1, n + 1)}
    unchanged = sorted(i for i, v in secs.items() if abs(v - num) <= TOL)
    target = 1.0 / (1.0 / kstar - n + k)
    mismatches = []
    attained_sets = []
    for S in itertools.combinations(range(1, n + 1), k):
        den = sum(secs[i] for i in S)
        r = math.inf if den == 0.0 else num / den
        eq = math.isfinite(r) and abs(r - target) <= TOL
        expected = all(i in unchanged for i in range(1, n + 1) if i not in S)
        if eq != expected:
            mismatches.append({"indices": S, "ratio": r, "expected_equality": expected})
        elif eq:
            attained_sets.append(S)
    details = {
        "kstar": kstar,
        "target": target,
        "unchanged_sections": tuple(unchanged),
        "attained_sets": tuple(attained_sets),
        "transfer_possible": len(unchanged) >= n - k,
    }
    return PropertyVerdict.of(prop, details, mismatches[0] if mismatches else None)


def check_sufficient_standard(
    entry: CatalogEntry, full: ConstantEstimate, partial: ConstantEstimate
) -> PropertyVerdict:
    """Sufficient condition for standardness from one k.

    If (a) K*_n < 1/(n-k) and is attained at a witness whose value is kept
    by at least n-k sections, and (b) the k-term partial inequality holds
    with constant 1/(k-1), then the distance is standard.  Cross-checked
    against the estimated K*_n.  Both constants must be known: exact or
    analytic.  A sampled estimate only bounds its constant below, which
    shows neither (a) nor (b).
    """
    d = entry.distance
    n, k = full.n, partial.k
    prop = f"sufficient-standard(k={k})"
    if k >= n:
        return PropertyVerdict.of(prop, {"reason": "needs k < n"})
    if any(e.method != EXACT and e.analytic is None for e in (full, partial)):
        return PropertyVerdict.of(prop, {"reason": "a sampled estimate only bounds its constant below"})
    kn = _estimate_value(full)
    cond_a_bound = kn < 1.0 / (n - k) - TOL
    cond_a_witness = False
    if full.witness is not None and abs(full.witness.ratio - kn) <= TOL:
        ev = d.evaluator
        t, z = full.witness.points, full.witness.z
        num = ev(t)
        unchanged = [i for i in range(1, n + 1) if abs(ev(section(t, i, z)) - num) <= TOL]
        cond_a_witness = len(unchanged) >= n - k
    cond_a = cond_a_bound and cond_a_witness
    cond_b = _estimate_value(partial) <= 1.0 / (k - 1) + TOL
    details = {
        "cond_a_bound": cond_a_bound,
        "cond_a_witness": cond_a_witness,
        "cond_b": cond_b,
        "full": kn,
        "partial": _estimate_value(partial),
    }
    if not (cond_a and cond_b):
        return PropertyVerdict.of(prop, {**details, "reason": "preconditions not met"})
    standard_ok = abs(kn - 1.0 / (n - 1)) <= RELATION_TOL
    details["standard_implied"] = True
    details["cross_check"] = standard_ok
    ce = None if standard_ok else {"full": kn, "expected": 1.0 / (n - 1)}
    return PropertyVerdict.of(prop, details, ce)
