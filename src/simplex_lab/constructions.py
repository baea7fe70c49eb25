"""Distances built to order: prescribed best constants and strong extremals.

Two anchor-based constructions produce n-distances whose best constant is an
arbitrary prescribed value s.  A third construction realizes the worst case
of the strong simplex inequality for standard repetition-invariant
distances; its values are exact rationals so attainment can be checked
without tolerances.

Each sees only which of its arguments are equal and which are its anchors:
it is invariant under every injection of the labels that fixes them (e for
single-anchor and strong-extremal, a and b for two-anchor).  So each is a
``catalog.partition_pairs`` entry with those ``anchors``, and its estimates
and checks fold the anchored type list like those of the partition entries:
exact on every label space, its pairs the witnesses.
"""

from __future__ import annotations

from fractions import Fraction

from .analysis import scan
from .catalog import CatalogEntry, partition_pairs
from .core import EQUAL_TOL, FiniteSpace, NDistance, distinct_count


def single_anchor_distance(base: CatalogEntry, e: str, s: float, space: FiniteSpace) -> CatalogEntry:
    """Shrink the values of tuples containing the anchor ``e``.

    ``base`` must be a standard ``partition_pairs`` entry; s must lie in
    [1/(n-1), 1].  The scale is calibrated against the exact supremum of
    the base ratio over anchor-free tuples with z = e, so the new best
    constant is s and is attained at the maximizing tuple.  The base sees
    only which arguments are equal, so that supremum is the fold of the
    pairs of the anchored list with z = e and e not in t, one per type of
    anchor-free tuple.  ``params["scale"]`` is the factor applied to tuples
    containing ``e``.
    """
    base_dist = base.distance
    n = base_dist.arity
    if space.kind != "finite":
        raise ValueError("this construction needs a finite space")
    if space.size < 3:
        raise ValueError("needs at least 3 labels")
    if e not in space.labels:
        raise ValueError(f"anchor {e!r} is not a label of the space")
    if base.standard is not True:
        raise ValueError("the base distance must be standard")
    if base.type_pairs is not partition_pairs:
        raise ValueError("the base distance must see only which arguments are equal (a partition_pairs entry)")
    if not 1.0 / (n - 1) - EQUAL_TOL <= s <= 1.0 + EQUAL_TOL:
        raise ValueError(f"s must lie in [1/(n-1), 1] = [{1.0 / (n - 1)}, 1], got {s}")

    ev = base_dist.evaluator
    pairs = partition_pairs(space, n, (e,))
    if pairs is None:
        raise ValueError(f"the anchored type list of {len(space.labels)} labels at n = {n} is past its point limit")
    scale = scan(ev, ((t, z) for t, z in pairs if z == e and e not in t), n)[0][0] / s

    def scaled(t: tuple) -> float:
        v = ev(t)
        return scale * v if e in t else v

    # the partial constants below n are known for the drastic base only
    constants = {k: max(n * s / k, 1.0 / (k - 1)) for k in range(2, n)} if base_dist.name == "drastic" else {}
    dist = NDistance(f"single-anchor[{base_dist.name},s={s:g}]", n, "finite", scaled)
    return CatalogEntry(
        dist,
        standard=abs(s - 1.0 / (n - 1)) < EQUAL_TOL,
        repetition_invariant=base.repetition_invariant,
        nonincreasing=None,
        type_pairs=partition_pairs,
        anchors=(e,),
        constants=constants | {n: s},
        space=space,
        params={"scale": scale},
    )


def two_anchor_distance(a: str, b: str, s: float, n: int, space: FiniteSpace) -> CatalogEntry:
    """Three-valued distance keyed on joint presence of two anchors.

    d = 0 on constant tuples, C when both anchors occur, 1 otherwise, with
    C = 2/(1/s - n + 2) >= 2 stored as ``params["scale"]``.  Valid for s in
    [1/(n-1), 1/(n-2)); the best constant is s, attained at (a, b, c, ..., c)
    with z = c, and the k-term partial constants are 1/(1/s - n + k) for
    every k.
    """
    if space.kind != "finite":
        raise ValueError("this construction needs a finite space")
    if space.size < 4:
        raise ValueError("needs at least 4 labels")
    if a == b or a not in space.labels or b not in space.labels:
        raise ValueError("anchors must be two distinct labels of the space")
    if n < 2:
        raise ValueError("needs n >= 2")
    upper = float("inf") if n == 2 else 1.0 / (n - 2)
    if not 1.0 / (n - 1) - EQUAL_TOL <= s < upper:
        raise ValueError(f"s must lie in [1/(n-1), 1/(n-2)) = [{1.0 / (n - 1)}, {upper}), got {s}")
    scale = 2.0 / (1.0 / s - n + 2)

    def three_valued(t: tuple) -> float:
        if distinct_count(t) == 1:
            return 0.0
        if a in t and b in t:
            return scale
        return 1.0

    dist = NDistance(f"two-anchor[s={s:g}]", n, "finite", three_valued)
    return CatalogEntry(
        dist,
        standard=abs(s - 1.0 / (n - 1)) < EQUAL_TOL,
        repetition_invariant=True,
        nonincreasing=True,
        type_pairs=partition_pairs,
        anchors=(a, b),
        constants={k: 1.0 / (1.0 / s - n + k) for k in range(2, n)} | {n: s},
        space=space,
        params={"scale": scale},
    )


def strong_extremal_distance(n: int, k: int) -> CatalogEntry:
    """Distance on {y1..yk, e} making the strong k-simplex constant sharp.

    Values are set-determined: 0 on constants, (m-1)/(k-1) on anchor-free
    tuples with m distinct values, ``a`` when e occurs but some yi is
    missing, ``b`` when every label occurs.  Standard and repetition
    invariant, and the ratio at (y1..yk, z=e) over any grouping equals
    1/(k a), the optimal strong constant, exactly.  ``params`` holds the
    fractions ``a`` and ``b``; ``exact_evaluator`` the rational values.
    """
    if n < 3 or not 2 <= k <= n - 1:
        raise ValueError(f"needs n >= 3 and 2 <= k <= n-1, got n={n}, k={k}")
    labels = tuple(f"y{i}" for i in range(1, k + 1)) + ("e",)
    space = FiniteSpace(labels)
    denom = k * (n - 1) + 1
    a = Fraction((k - 1) * (n - 1), denom)
    b = Fraction(k * (n - 1), denom)

    def exact(t: tuple) -> Fraction:
        values = set(t)
        if len(values) == 1:
            return Fraction(0)
        if "e" not in values:
            return Fraction(len(values) - 1, k - 1)
        if len(values) == len(labels):
            return b
        return a

    def evaluator(t: tuple) -> float:
        return float(exact(t))

    dist = NDistance(f"strong-extremal[k={k}]", n, "finite", evaluator)
    return CatalogEntry(
        dist,
        standard=True,
        repetition_invariant=True,
        nonincreasing=False,
        type_pairs=partition_pairs,
        anchors=("e",),
        constants={j: 1.0 / (j - 1) for j in range(2, n + 1)},
        space=space,
        exact_evaluator=exact,
        params={"a": a, "b": b},
    )
