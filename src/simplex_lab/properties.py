"""Strong simplex inequalities, structural properties, multidistance checks.

The strong k-variable inequality quantifies over groupings: split the n
arguments into k nonempty blocks, collapse each block to its value, and
bound the collapsed distance by M times the sum of its k sections.  The
checkers here enumerate all compositions (ordered block sizes) and draw
the k collapsed values from the shared candidate stream, ``core.iter_pairs``,
except where the entry has a proven list for the check.  Each check asks
the entry for it, and its verdict is then exact: the strong check folds
``CatalogEntry.strong_list`` for every composition (the entries that see
only which arguments are equal, the value-set entries, whose value
depends only on the set of their arguments, and every hooked entry at
k = n), the nonincreasing check walks the permutations of
``CatalogEntry.identification_tuples``, and the multidistance check folds
each member's ``CatalogEntry.triangle_list``.  No check here names a hook,
and each searches only its own property: the one check that calls others
is ``check_multi_to_ndistance``, on its hypothesis and its conclusion.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Callable, Sequence

from .core import (
    EQUAL_TOL,
    TOL,
    Point,
    PropertyVerdict,
    Space,
    ValueSetDistance,
    derive_seed,
    distinct_count,
    distinct_permutations,
    iter_pairs,
    iter_tuples,
    _with_method,
    section,
)
from .analysis import scan
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
    # value i fills n_i positions of the expanded tuple; with n >= 2
    # positions the getter always returns a tuple
    expand = operator.itemgetter(*[i for i, m in enumerate(comp) for _ in range(m)])

    def reduced(values: tuple) -> float:
        return ev(expand(values))

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


def check_strong_k_simplex(
    entry: CatalogEntry,
    k: int,
    constant: float,
    space: Space,
    budget: int = 50_000,
    seed: int = 0,
) -> PropertyVerdict:
    """Verify d(n1*x1,...,nk*xk) <= M (sum of k sections) over all groupings.

    Each composition c = (n1..nk) gives the k-variable reduced evaluator
    d_c.  Where the entry's ``strong_list(space, k)`` is a list (the
    partition entries and the value-set entries; that method's docstring
    has the proofs), the check folds it for every c, ignores ``budget`` and
    reports ``method: exact``, and a counterexample is one of the listed
    pairs, a real configuration.  Elsewhere it folds ``budget //
    len(compositions)`` candidates of ``core.iter_pairs`` per composition.
    """
    n = entry.arity
    if not 2 <= k <= n:
        raise ValueError(f"k must be in 2..{n}, got {k}")
    prop = f"strong-simplex(k={k}, M={constant:g})"
    comps = compositions(n, k)
    typed = entry.strong_list(space, k)
    per_comp = max(1, budget // len(comps))
    checked = 0
    max_ratio = 0.0
    first = worst = None  # (composition, violation)
    for ci, comp in enumerate(comps):
        pairs = typed if typed is not None else iter_pairs(space, k, per_comp, derive_seed(seed, 200 + ci))
        best, c_first, c_worst, c_checked = scan(reduced_evaluator(entry, comp), pairs, k, constant)
        checked += c_checked
        if best is not None:
            max_ratio = max(max_ratio, best[0])
        if c_first is not None:
            first = first or (comp, c_first)
            if worst is None or c_worst[0] > worst[1][0]:
                worst = (comp, c_worst)
    details = _with_method({"checked": checked, "compositions": len(comps), "max_ratio": max_ratio}, typed is not None)
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
        if lhs > rhs + TOL:
            ce = {"tuple": t, "z": z, "lhs": lhs, "rhs": rhs}
            if first_ce is None:
                first_ce = ce
        elif abs(lhs - rhs) <= TOL and lhs > 0.0 and equality is None:
            equality = {"tuple": t, "z": z, "value": lhs}
    details = {"checked": checked, "coefficients": (a_coef, b_coef), "equality_example": equality}
    return PropertyVerdict.of(prop, details, first_ce)


# ---------------------------------------------------------------------------
# structural properties


def _canonical_value_sets(space: Space, n: int, budget: int, seed: int) -> list[tuple]:
    """Distinct-value multiplicity-free tuples to expand over compositions.

    Every set of 2..n labels while C(size + n - 1, n) <= 100,000, else the sets
    of ``budget`` prefixes of 2..n points, so that sets of every size get expanded.
    """
    if space.kind == "finite" and math.comb(space.size + n - 1, n) <= 100_000:
        return [v for m in range(2, n + 1) for v in itertools.combinations(space.labels, m)]
    tuples = iter_tuples(space, n, budget, derive_seed(seed, 400))
    prefixes = (set(t[: 2 + i % (n - 1)]) for i, t in enumerate(tuples))
    return [tuple(sorted(v)) for v in prefixes if len(v) >= 2]


def check_repetition_invariance(
    entry: CatalogEntry, space: Space, budget: int = 200, seed: int = 0
) -> PropertyVerdict:
    """d depends only on the underlying set of values, not on multiplicities.

    Each value set of ``_canonical_value_sets`` is expanded over every
    composition of n into as many blocks, and each expansion is compared
    with the first expansion of its set.  On a small finite space the sets
    are every set of 2..n labels, so the check is exhaustive for a symmetric
    d.  It never permutes a tuple: that is ``core.check_symmetry``'s search.
    """
    n = entry.arity
    prop = "repetition-invariance"
    ev = entry.distance.evaluator
    tol = 0.0 if space.kind == "finite" else EQUAL_TOL
    checked = 0
    for values in _canonical_value_sets(space, n, budget, seed):
        first = None  # the set's first (tuple, value)
        for comp in compositions(n, len(values)):
            t = expand_composition(values, comp)
            v = ev(t)
            checked += 1
            first = first or (t, v)
            if abs(v - first[1]) > tol:
                ce = {"tuple_a": first[0], "value_a": first[1], "tuple_b": t, "value_b": v}
                return PropertyVerdict.of(prop, {"checked": checked}, ce)
    return PropertyVerdict.of(prop, {"checked": checked})


def check_nonincreasing_identification(
    entry: CatalogEntry, space: Space, budget: int = 20_000, seed: int = 0, tol: float = EQUAL_TOL
) -> PropertyVerdict:
    """Replacing any argument by another already-present one never increases d.

    The verdict comes from one walk over tuples t and their identifications
    u, t with one argument replaced by another of its values, and a
    counterexample is such a pair with d(u) > d(t) + ``tol``.  The tuples
    are ``budget`` of ``iter_tuples``, except where the entry's
    ``identification_tuples(space)`` is a list (the ``partition_pairs``
    entries; that method's docstring has the proof): there the check walks
    every distinct permutation of each listed tuple, ignores ``budget`` and
    reports ``method: exact``.

    For each t the walk reaches the identifications (i, j), t_i replaced
    by t_j != t_i, in the order of i, then j, and the first counterexample
    is the first such pair that rises.  A value-set entry, one that
    ``core.value_set_distance`` built, evaluates f on the sorted distinct
    points of its argument, so d(u) = d(t) bit for bit whenever
    set(u) = set(t).  That holds when t_i occurs more than once in t: u
    keeps every value, and ``tol`` >= 0, so no such u rises.  When t_i
    occurs once, every j gives set(u) = set(t) minus t_i and so one value,
    and the first j, 0 (1 for i = 0), rises if any does.  So for such an
    entry the walk evaluates only that first identification of each i
    whose value occurs once, n evaluations at most per tuple in place of
    n(n-1), with the same verdict and the same first counterexample.
    ``checked`` counts the identifications evaluated.
    """
    n = entry.arity
    prop = "nonincreasing-identification"
    ev = entry.distance.evaluator
    checked = 0
    first_ce = None
    tuples = entry.identification_tuples(space)
    if tuples is None:
        candidates = iter_tuples(space, n, max(1, budget), derive_seed(seed, 500))
    else:
        candidates = itertools.chain.from_iterable(map(distinct_permutations, tuples))
    value_set = isinstance(entry.distance, ValueSetDistance)
    for t in candidates:
        if distinct_count(t) < 2:
            continue
        base = ev(t)
        if value_set:
            pairs = [(i, 1 if i == 0 else 0) for i in range(n) if t.count(t[i]) == 1]
        else:
            pairs = [(i, j) for i in range(n) for j in range(n) if t[i] != t[j]]
        for i, j in pairs:
            u = t[:i] + (t[j],) + t[i + 1 :]
            checked += 1
            after = ev(u)
            if after > base + tol and first_ce is None:
                first_ce = {"tuple": t, "identified": u, "before": base, "after": after}
        if first_ce is not None:
            break
    return PropertyVerdict.of(prop, _with_method({"checked": checked}, tuples is not None), first_ce)


# ---------------------------------------------------------------------------
# multidistances


def check_multidistance(
    family: Sequence[CatalogEntry],
    space: Space,
    budget: int = 20_000,
    seed: int = 0,
) -> PropertyVerdict:
    """Verify the family {d_n} satisfies d_n(x) <= sum_i g(x_i, z) for all z.

    ``g`` is the arity-2 member.  Also records whether the sufficient
    condition d_n(x, z, ..., z) <= g(x, z) holds (with equality flagged).

    Where d_n's ``triangle_list(space, g)`` is a list (g and d_n share the
    step-pair hook on the real line or the partition hook; that method's
    docstring has the proofs), the arity is decided on it and reports
    ``method: exact``, as does the family when every arity does: the
    triangle bound on the listed pairs (``checked`` counts them, 2(n-1) for
    the step pairs), and the sufficient condition on (a, b) and (b, a), the
    two ends of the first listed tuple.  Other arities sample ``budget //
    len(family)`` candidates of ``core.iter_pairs``, and a quarter as many
    (x, z) of ``core.iter_tuples`` for the sufficient condition.  Listed
    pairs are real configurations, so a counterexample is genuine.  As in
    ``core.check_simplex``, ``TOL`` is absolute, at the scale of the list.
    """
    members = sorted(family, key=lambda m: m.arity)
    if not members or members[0].arity != 2:
        raise ValueError("the family must contain an arity-2 member")
    for a, b in zip(members, members[1:]):
        if b.arity != a.arity + 1:
            raise ValueError("member arities must be contiguous from 2")
    g = members[0].distance.evaluator
    prop = "multidistance"
    per_arity = {}
    total = 0
    first_ce = None
    for member in members:
        n = member.arity
        ev = member.distance.evaluator
        pairs = member.triangle_list(space, members[0])
        if pairs is None:
            candidates = iter_pairs(space, n, max(1, budget // len(members)), derive_seed(seed, 600 + n))
            ends = iter_tuples(space, 2, max(1, budget // (4 * len(members))), derive_seed(seed, 700 + n))
        else:
            candidates, t = pairs, pairs[0][0]
            ends = ((t[0], t[-1]), (t[-1], t[0]))
        checked = 0
        ce = None
        for t, z in candidates:
            if distinct_count(t) < 2:
                continue
            lhs = ev(t)
            rhs = sum(g((x, z)) for x in t)
            checked += 1
            if lhs > rhs + TOL:
                ce = {"arity": n, "tuple": t, "z": z, "lhs": lhs, "rhs": rhs}
                break
        suff_holds = True
        suff_equal = True
        for x, z in ends:
            if x == z:
                continue
            dn = ev((x,) + (z,) * (n - 1))
            gz = g((x, z))
            if dn > gz + TOL:
                suff_holds = False
            if abs(dn - gz) > TOL:
                suff_equal = False
        per_arity[n] = _with_method(
            {
                "checked": checked,
                "triangle": "fail" if ce else "pass",
                "sufficient": suff_holds,
                "sufficient_equality": suff_holds and suff_equal,
            },
            pairs is not None,
        )
        total += checked
        if ce and first_ce is None:
            first_ce = ce
    exact = all("method" in info for info in per_arity.values())
    return PropertyVerdict.of(prop, _with_method({"checked": total, "per_arity": per_arity}, exact), first_ce)


def check_multi_to_ndistance(
    entry: CatalogEntry,
    two: CatalogEntry,
    space: Space,
    budget: int = 20_000,
    seed: int = 0,
) -> PropertyVerdict:
    """Converse direction: a nonincreasing multidistance member dominating
    its own restriction g(x, z) <= d_n(x, z, ..., z), g the arity-2 member
    ``two``, satisfies the simplex inequality with constant 1.  Hypotheses
    are verified first; failures of a hypothesis yield NOT_APPLICABLE rather
    than FAIL.  A budget of 0 checks nothing after the hypotheses, and the
    verdict is NOT_APPLICABLE.  Otherwise ``core.check_simplex`` folds the
    entry's ``type_list`` where it has one, and reports ``method: exact``,
    or samples ``budget`` candidates.
    """
    from .core import check_simplex

    if two.arity != 2:
        raise ValueError(f"the binary member must have arity 2, got {two.arity}")
    n = entry.arity
    prop = "multidistance-to-ndistance"
    noninc = check_nonincreasing_identification(entry, space, budget // 4, seed, tol=TOL)
    if noninc.failed:
        return PropertyVerdict.of(prop, {"reason": "not nonincreasing", "counterexample": noninc.counterexample})
    ev, g = entry.distance.evaluator, two.distance.evaluator
    for x, z in iter_tuples(space, 2, max(1, budget // 4), derive_seed(seed, 800)):
        if x == z:
            continue
        gz, dn = g((x, z)), ev((x,) + (z,) * (n - 1))
        if gz > dn + TOL:
            reason = "g exceeds the repeated-argument value"
            return PropertyVerdict.of(prop, {"reason": reason, "x": x, "z": z, "g": gz, "dn": dn})
    if budget < 1:
        return PropertyVerdict.of(prop, {"checked": 0})
    simplex = check_simplex(entry, space, budget=budget, seed=seed)
    return PropertyVerdict.of(prop, simplex.details, simplex.counterexample)
