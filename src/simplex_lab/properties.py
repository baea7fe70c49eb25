"""Strong simplex inequalities, structural properties, multidistance checks.

The strong k-variable inequality quantifies over groupings: split the n
arguments into k nonempty blocks, collapse each block to its value, and
bound the collapsed distance by M times the sum of its k sections.  The
checkers here enumerate all compositions (ordered block sizes) and draw
the k collapsed values from the shared candidate stream, ``core.iter_pairs``.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Sequence

from .core import (
    Point,
    PropertyVerdict,
    Space,
    derive_seed,
    distinct_count,
    iter_pairs,
    iter_tuples,
    section,
)
from .analysis import scan

if TYPE_CHECKING:
    from .catalog import CatalogEntry


def compositions(n: int, k: int) -> list[tuple[int, ...]]:
    """All ordered k-tuples of positive integers summing to n."""
    if not 1 <= k <= n:
        return []
    out = []
    for cuts in itertools.combinations(range(1, n), k - 1):
        bounds = (0,) + cuts + (n,)
        out.append(tuple(bounds[i + 1] - bounds[i] for i in range(k)))
    return out


def expand_composition(values: Sequence[Point], comp: Sequence[int]) -> tuple:
    """(x1, ..., xk) with multiplicities (n1, ..., nk) -> the full n-tuple."""
    out: list[Point] = []
    for v, m in zip(values, comp):
        out.extend([v] * m)
    return tuple(out)


def reduced_evaluator(entry: CatalogEntry, comp: Sequence[int]) -> Callable[[tuple], float]:
    """The k-variable function d'(x1..xk) = d(n1*x1, ..., nk*xk)."""
    ev = entry.distance.evaluator
    comp = tuple(comp)

    def reduced(values: tuple) -> float:
        return ev(expand_composition(values, comp))

    return reduced


def strong_constant_standard(n: int, k: int) -> float:
    """Optimal strong constant for standard repetition-invariant distances.

    1/(k-1) + 1/(k(k-1)(n-1)) for 2 <= k <= n-1; the k = n case is the
    plain simplex inequality with constant 1/(n-1).
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    if not 2 <= k <= n:
        raise ValueError(f"k must be in 2..{n}, got {k}")
    if k == n:
        return 1.0 / (n - 1)
    return 1.0 / (k - 1) + 1.0 / (k * (k - 1) * (n - 1))


def strong_constant_general(n: int, k: int, kstar: float) -> float:
    """Strong constant from the best constant alone, no structural flags.

    (K*+1)/(1/K* - n + k) - K*/k, valid for n - 1/K* < k < n.
    """
    if n < 2 or not 2 <= k < n:
        raise ValueError(f"needs 2 <= k < n, got n={n}, k={k}")
    if kstar <= 0:
        raise ValueError("the best constant must be positive")
    if not n - 1.0 / kstar < k:
        raise ValueError(f"needs k > n - 1/K* = {n - 1.0 / kstar}")
    return (kstar + 1.0) / (1.0 / kstar - n + k) - kstar / k


def strong_threshold(n: int, kstar: float) -> float:
    """Smallest k at which the general strong constant is guaranteed <= 1."""
    return n + 2.0 - 1.0 / kstar


def check_strong_k_simplex(
    entry: CatalogEntry,
    k: int,
    constant: float,
    space: Space,
    budget: int = 50_000,
    seed: int = 0,
    tol: float = 1e-9,
) -> PropertyVerdict:
    """Verify d(n1*x1,...,nk*xk) <= M (sum of k sections) over all groupings."""
    n = entry.arity
    if not 2 <= k <= n:
        raise ValueError(f"k must be in 2..{n}, got {k}")
    prop = f"strong-simplex(k={k}, M={constant:g})"
    comps = compositions(n, k)
    per_comp = max(1, budget // len(comps))
    checked = 0
    max_ratio = 0.0
    first = worst = None  # (composition, violation)
    for ci, comp in enumerate(comps):
        pairs = iter_pairs(space, k, per_comp, derive_seed(seed, 200 + ci))
        best, c_first, c_worst, c_checked = scan(reduced_evaluator(entry, comp), pairs, k, constant, tol)
        checked += c_checked
        if best is not None:
            max_ratio = max(max_ratio, best[0])
        if c_first is not None:
            first = first or (comp, c_first)
            if worst is None or c_worst[0] > worst[1][0]:
                worst = (comp, c_worst)
    details = {"checked": checked, "compositions": len(comps), "max_ratio": max_ratio}
    ce = worst_ce = None
    if first is not None:
        ce, worst_ce = (
            {"composition": comp, "values": values, "z": z, "lhs": lhs, "rhs": constant * total}
            for comp, (_, values, z, lhs, total) in (first, worst)
        )
    return PropertyVerdict.of(prop, details, ce, worst_ce)


def check_lemma_mixed_bound(
    entry: CatalogEntry,
    k: int,
    p: int,
    space: Space,
    budget: int = 20_000,
    seed: int = 0,
    tol: float = 1e-9,
) -> PropertyVerdict:
    """Mixed bound for tuples with a repeated tail.

    For standard repetition-invariant d, k in 2..n-1, p in 0..n-k:
        d(x1..x_{k-1}, x_k...x_k)
          <= (k+p)/((k-1)(k+p-1)) * sum of the k-1 front sections
           + (p+1)/((k-1)(k+p-1)) * d(x1..x_{k-1}, z...z)
    The coefficient pair varies with p but the statement does not.
    """
    n = entry.arity
    if not 2 <= k <= n - 1:
        raise ValueError(f"k must be in 2..{n - 1}, got {k}")
    if not 0 <= p <= n - k:
        raise ValueError(f"p must be in 0..{n - k}, got {p}")
    prop = f"mixed-bound(k={k}, p={p})"
    flags = entry.standard, entry.repetition_invariant
    if flags[0] is not True or flags[1] is not True:
        return PropertyVerdict.of(prop, {"reason": "needs standard=True and repetition_invariant=True", "flags": flags})
    a_coef = (k + p) / ((k - 1) * (k + p - 1))
    b_coef = (p + 1) / ((k - 1) * (k + p - 1))
    ev = entry.distance.evaluator
    checked = 0
    first_ce = None
    equality = None
    for values, z in iter_pairs(space, k, budget, derive_seed(seed, 300 + p)):
        front = values[: k - 1]
        t = front + (values[k - 1],) * (n - k + 1)
        if distinct_count(t) < 2:
            continue
        lhs = ev(t)
        front_secs = sum(ev(section(t, i, z)) for i in range(1, k))
        tail = ev(front + (z,) * (n - k + 1))
        rhs = a_coef * front_secs + b_coef * tail
        checked += 1
        if lhs > rhs + tol:
            ce = {"tuple": t, "z": z, "lhs": lhs, "rhs": rhs}
            if first_ce is None:
                first_ce = ce
        elif abs(lhs - rhs) <= tol and lhs > 0.0 and equality is None:
            equality = {"tuple": t, "z": z, "value": lhs}
    details = {"checked": checked, "coefficients": (a_coef, b_coef), "equality_example": equality}
    return PropertyVerdict.of(prop, details, first_ce)


# ---------------------------------------------------------------------------
# structural properties


def _canonical_value_sets(space: Space, n: int, budget: int, seed: int) -> list[tuple]:
    """Distinct-value multiplicity-free tuples to expand over compositions."""
    out: list[tuple] = []
    if space.kind == "finite":
        for m in range(2, n + 1):
            if m > space.size:
                break
            out.extend(itertools.combinations(space.labels, m))
        return out
    # prefixes of 2..n points, so that sets of every size get expanded
    tuples = iter_tuples(space, n, budget, derive_seed(seed, 400))
    prefixes = (set(t[: 2 + i % (n - 1)]) for i, t in enumerate(tuples))
    return [tuple(sorted(v)) for v in prefixes if len(v) >= 2]


def check_repetition_invariance(
    entry: CatalogEntry, space: Space, budget: int = 200, seed: int = 0
) -> PropertyVerdict:
    """d depends only on the underlying set of values, not on multiplicities."""
    n = entry.arity
    prop = "repetition-invariance"
    ev = entry.distance.evaluator
    tol = 0.0 if space.kind == "finite" else 1e-12
    # (value set, tuple) pairs: every tuple of a small finite space, else the
    # expansions of canonical value sets over all compositions
    if space.kind == "finite" and space.size ** n <= 100_000:
        keyed = ((frozenset(t), t) for t in space.iter_tuples(n))
    else:
        keyed = (
            (values, expand_composition(values, comp))
            for values in _canonical_value_sets(space, n, budget, seed)
            for comp in compositions(n, len(values))
        )
    checked = 0
    ce = None
    groups: dict = {}  # value set -> its first (tuple, value)
    for key, t in keyed:
        if len(key) < 2:
            continue
        v = ev(t)
        checked += 1
        ref_t, ref_v = groups.setdefault(key, (t, v))
        if abs(v - ref_v) > tol:
            ce = {"tuple_a": ref_t, "value_a": ref_v, "tuple_b": t, "value_b": v}
            break
    return PropertyVerdict.of(prop, {"checked": checked}, ce)


def check_nonincreasing_identification(
    entry: CatalogEntry, space: Space, budget: int = 20_000, seed: int = 0, tol: float = 1e-12
) -> PropertyVerdict:
    """Replacing any argument by another already-present one never increases d.

    This implies repetition invariance, so a pass here is cross-checked
    against the repetition check and demoted to FAIL on contradiction.
    """
    n = entry.arity
    prop = "nonincreasing-identification"
    ev = entry.distance.evaluator
    checked = 0
    first_ce = None
    per = max(1, budget)
    for t in iter_tuples(space, n, per, derive_seed(seed, 500)):
        if distinct_count(t) < 2:
            continue
        base = ev(t)
        for i in range(n):
            for j in range(n):
                if i == j or t[i] == t[j]:
                    continue
                u = t[:i] + (t[j],) + t[i + 1 :]
                checked += 1
                after = ev(u)
                if after > base + tol:
                    ce = {"tuple": t, "identified": u, "before": base, "after": after}
                    if first_ce is None:
                        first_ce = ce
        if first_ce is not None:
            break
    details = {"checked": checked}
    if first_ce is None:
        rep = check_repetition_invariance(entry, space, seed=seed)
        if rep.failed:
            first_ce = rep.counterexample
            details["reason"] = "repetition invariance is implied but fails"
    return PropertyVerdict.of(prop, details, first_ce)


# ---------------------------------------------------------------------------
# multidistances


def check_multidistance(
    family: Sequence[CatalogEntry],
    space: Space,
    budget: int = 20_000,
    seed: int = 0,
    tol: float = 1e-9,
) -> PropertyVerdict:
    """Verify the family {d_n} satisfies d_n(x) <= sum_i g(x_i, z) for all z.

    ``g`` is the arity-2 member.  Also records whether the sufficient
    condition d_n(x, z, ..., z) <= g(x, z) holds (with equality flagged).
    """
    members = sorted((m.distance for m in family), key=lambda d: d.arity)
    if not members or members[0].arity != 2:
        raise ValueError("the family must contain an arity-2 member")
    for a, b in zip(members, members[1:]):
        if b.arity != a.arity + 1:
            raise ValueError("member arities must be contiguous from 2")
    two = members[0].evaluator
    g = lambda x, z: two((x, z))
    prop = "multidistance"
    per_arity = {}
    total = 0
    first_ce = None
    for d in members:
        n = d.arity
        ev = d.evaluator
        checked = 0
        ce = None
        for t, z in iter_pairs(space, n, max(1, budget // len(members)), derive_seed(seed, 600 + n)):
            if distinct_count(t) < 2:
                continue
            lhs = ev(t)
            rhs = sum(g(x, z) for x in t)
            checked += 1
            if lhs > rhs + tol:
                ce = {"arity": n, "tuple": t, "z": z, "lhs": lhs, "rhs": rhs}
                break
        suff_holds = True
        suff_equal = True
        for x, z in iter_tuples(space, 2, max(1, budget // (4 * len(members))), derive_seed(seed, 700 + n)):
            if x == z:
                continue
            dn = ev((x,) + (z,) * (n - 1))
            gz = g(x, z)
            if dn > gz + tol:
                suff_holds = False
            if abs(dn - gz) > tol:
                suff_equal = False
        per_arity[n] = {
            "checked": checked,
            "triangle": "fail" if ce else "pass",
            "sufficient": suff_holds,
            "sufficient_equality": suff_holds and suff_equal,
        }
        total += checked
        if ce and first_ce is None:
            first_ce = ce
    return PropertyVerdict.of(prop, {"checked": total, "per_arity": per_arity}, first_ce)


def check_multi_to_ndistance(
    entry: CatalogEntry,
    d2: Callable[[Point, Point], float],
    space: Space,
    budget: int = 20_000,
    seed: int = 0,
    tol: float = 1e-9,
) -> PropertyVerdict:
    """Converse direction: a nonincreasing multidistance member dominating
    its own restriction g(x, z) <= d_n(x, z, ..., z) satisfies the simplex
    inequality with constant 1.  Hypotheses are verified first; failures of
    a hypothesis yield NOT_APPLICABLE rather than FAIL.
    """
    from .core import check_simplex

    d = entry.distance
    n = d.arity
    prop = "multidistance-to-ndistance"
    noninc = check_nonincreasing_identification(entry, space, budget // 4, seed, tol=1e-9)
    if noninc.failed:
        return PropertyVerdict.of(prop, {"reason": "not nonincreasing", "counterexample": noninc.counterexample})
    ev = d.evaluator
    for x, z in iter_tuples(space, 2, max(1, budget // 4), derive_seed(seed, 800)):
        if x == z:
            continue
        if d2(x, z) > ev((x,) + (z,) * (n - 1)) + tol:
            return PropertyVerdict.of(
                prop,
                {
                    "reason": "g exceeds the repeated-argument value",
                    "x": x,
                    "z": z,
                    "g": d2(x, z),
                    "dn": ev((x,) + (z,) * (n - 1)),
                },
            )
    simplex = check_simplex(d, space, constant=1.0, budget=budget, seed=seed, tol=tol)
    return PropertyVerdict.of(prop, simplex.details, simplex.counterexample)
