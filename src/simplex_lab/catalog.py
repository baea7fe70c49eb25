"""The built-in n-ary distances with their known constants and witnesses.

Every evaluator sorts its argument tuple first: all of these maps are
symmetric by definition, so the sort changes no value but makes permutation
invariance bit-exact.  Evaluators return exactly 0.0 on constant tuples.

``witness_recipe`` callables map a space to a (tuple, z) pair realizing the
known best constant; the same pairs realize the known partial constants once
the k cheapest sections are selected.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

from .core import FiniteSpace, NDistance, Point, Space
from .geometry import (
    count_lines,
    fermat_value,
    ground_distance,
    smallest_enclosing_circle,
    space_kind_for_ground,
)


@dataclass(frozen=True)
class CatalogEntry:
    """A distance with everything the package knows about it, in one place.

    Every estimator, property check and builder above ``core`` takes an
    entry; only the axiom checks of ``core`` take ``distance`` itself.

    ``constants`` maps k to the best partial constant K*_{n,k} over k-term
    section sums, where it is known in closed form; at k = n it is the best
    constant K*_n.  The constants are metadata: estimators recompute and
    compare against them, they are never fed back into the search.
    ``constant_bounds`` brackets the best constant when no closed form is
    known (lower may be None; upper is exclusive for line-count).

    Flag values are knowledge, not computation: ``True``/``False`` when the
    property status is known, ``None`` when open.  Checkers verify them.
    ``cell_linear`` marks a real-line entry whose value and sections are
    linear on every order cell of (x_1..x_n, z); ``analysis`` then folds
    the cells' step vectors (``core.step_pairs``) and gets K*_{n,k} exactly.

    The builders in ``constructions`` also set ``space`` (the label space
    the distance is built on), ``exact_evaluator`` (rational values, when
    known) and ``params`` (the construction's own numbers).
    """

    distance: NDistance
    witness_recipe: Callable[[Space], tuple[tuple, Point]] | None = None
    standard: bool | None = None
    repetition_invariant: bool | None = None
    nonincreasing: bool | None = None
    cell_linear: bool = False
    constants: Mapping[int, float] = field(default_factory=dict)
    constant_bounds: tuple[float | None, float | None] | None = None
    space: FiniteSpace | None = None
    exact_evaluator: Callable[[tuple], Fraction] | None = None
    params: Mapping[str, object] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.distance.name

    @property
    def arity(self) -> int:
        return self.distance.arity

    def __call__(self, *points: Point) -> float:
        return self.distance(*points)


def _distinct_pair(space: Space) -> tuple[Point, Point]:
    if space.kind == "finite":
        return space.labels[0], space.labels[1]
    if space.kind == "real-line":
        return 0.0, 1.0
    return (0.0, 0.0), (1.0, 0.0)


def _standard_entry(d: NDistance, invariant: bool = True, cell_linear: bool = False) -> CatalogEntry:
    """A standard entry: K*_{n,k} = 1/(k-1) for every k.

    ``invariant`` is both its repetition-invariant and its nonincreasing
    flag.  The witness (x, y, ..., y) with z = y has ratio 1/(n-1).
    """
    n = d.arity

    def recipe(space: Space) -> tuple[tuple, Point]:
        x, y = _distinct_pair(space)
        return (x,) + (y,) * (n - 1), y

    return CatalogEntry(
        d, recipe, standard=True, repetition_invariant=invariant, nonincreasing=invariant, cell_linear=cell_linear,
        constants={k: 1.0 / (k - 1) for k in range(2, n + 1)},
    )


def _diameter_evaluator(g: Callable[[Point, Point], float]) -> Callable[[tuple], float]:
    # largest pairwise ground distance; exactly 0.0 on constant tuples
    def ev(t: tuple) -> float:
        s = sorted(set(t))
        if len(s) == 1:
            return 0.0
        return max(itertools.starmap(g, itertools.combinations(s, 2)))

    return ev


def _largest_gap(t: tuple) -> float:
    xs = sorted(t)
    return max(xs[i + 1] - xs[i] for i in range(len(xs) - 1))


# ---------------------------------------------------------------------------
# the entries


def drastic(n: int) -> CatalogEntry:
    """0 on constant tuples, 1 everywhere else."""

    def ev(t: tuple) -> float:
        return 0.0 if len(set(t)) == 1 else 1.0

    return _standard_entry(NDistance("drastic", n, "any", ev))


def cardinality(n: int) -> CatalogEntry:
    """Number of distinct arguments minus one."""

    def ev(t: tuple) -> float:
        return float(len(set(t)) - 1)

    return _standard_entry(NDistance("cardinality", n, "any", ev))


def diameter(n: int, d2: str = "abs") -> CatalogEntry:
    """Largest pairwise ground distance among the arguments."""
    ev = _diameter_evaluator(ground_distance(d2))
    d = NDistance(f"diameter[{d2}]", n, space_kind_for_ground(d2), ev)
    return _standard_entry(d, cell_linear=(d2 == "abs"))


def sum_based(n: int, d2: str = "abs") -> CatalogEntry:
    """Sum of the ground distances over all unordered argument pairs."""
    g = ground_distance(d2)

    def ev(t: tuple) -> float:
        ts = sorted(t)
        return sum(g(p, q) for p, q in itertools.combinations(ts, 2))

    d = NDistance(f"sum-based[{d2}]", n, space_kind_for_ground(d2), ev)
    return _standard_entry(d, invariant=False, cell_linear=(d2 == "abs"))


def arithmetic_mean(n: int) -> CatalogEntry:
    """Mean of the arguments minus their minimum (reals only)."""

    def ev(t: tuple) -> float:
        ts = sorted(t)
        m = ts[0]
        return sum(x - m for x in ts) / n  # exact 0.0 on constant tuples

    return _standard_entry(NDistance("arithmetic-mean", n, "real-line", ev), invariant=False, cell_linear=True)


def fermat(n: int, d2: str = "abs") -> CatalogEntry:
    """Minimal summed ground distance from the arguments to one point.

    No closed-form best constant is known; the bracket below is the trivial
    lower bound 1/(n-1) and the known upper bound (4n-4)/(3n^2-4n).
    """

    def ev(t: tuple) -> float:
        return fermat_value(t, d2)

    d = NDistance(f"fermat[{d2}]", n, space_kind_for_ground(d2), ev)
    rep = False if d2 in ("abs", "euclidean") else None
    bounds = (1.0 / (n - 1), (4.0 * n - 4.0) / (3.0 * n * n - 4.0 * n))
    return CatalogEntry(
        d, None, standard=None, repetition_invariant=rep, nonincreasing=False, cell_linear=(d2 == "abs"),
        constant_bounds=bounds,
    )


def line_count(n: int) -> CatalogEntry:
    """Number of lines determined by the distinct argument points.

    For n >= 3 the best constant is only bracketed:
    1/(n-2+2/n) <= K* < 1/(n-2), the upper bound strict.
    """

    def ev(t: tuple) -> float:
        return float(count_lines(t))

    d = NDistance("line-count", n, "plane", ev)
    bounds = (1.0 / (n - 2 + 2.0 / n), 1.0 / (n - 2)) if n >= 3 else None
    return CatalogEntry(d, None, standard=None, repetition_invariant=True, nonincreasing=True, constant_bounds=bounds)


def enclosing_radius(n: int) -> CatalogEntry:
    """Radius of the smallest circle enclosing the argument points."""

    def ev(t: tuple) -> float:
        return smallest_enclosing_circle(t).radius

    return _standard_entry(NDistance("enclosing-radius", n, "plane", ev))


def enclosing_area(n: int) -> CatalogEntry:
    """Area of the smallest circle enclosing the argument points (n >= 3).

    Nonstandard: the best constant is 1/(n - 3/2), and the best partial
    constants are 1/(k - 3/2).
    """
    if n < 3:
        raise ValueError("enclosing-area needs arity n >= 3")

    def ev(t: tuple) -> float:
        r = smallest_enclosing_circle(t).radius
        return math.pi * r * r

    def recipe(space: Space) -> tuple[tuple, Point]:
        # two diametral points plus n-2 copies of their midpoint, z = midpoint
        return ((0.0, 0.0), (2.0, 0.0)) + ((1.0, 0.0),) * (n - 2), (1.0, 0.0)

    kk = {k: 1.0 / (k - 1.5) for k in range(2, n + 1)}
    d = NDistance("enclosing-area", n, "plane", ev)
    return CatalogEntry(d, recipe, standard=False, repetition_invariant=True, nonincreasing=True, constants=kk)


def chebyshev_diameter(n: int, q: int = 2) -> CatalogEntry:
    """Diameter under the Chebyshev ground distance on R^q, q in {1, 2}."""
    if q not in (1, 2):
        raise ValueError("q must be 1 or 2")
    ev = _diameter_evaluator(ground_distance("chebyshev"))
    kind = "real-line" if q == 1 else "plane"
    return _standard_entry(NDistance(f"chebyshev-diameter[q={q}]", n, kind, ev), cell_linear=(q == 1))


def _inner_interval_witness(n: int) -> Callable[[Space], tuple[tuple, Point]]:
    def recipe(space: Space) -> tuple[tuple, Point]:
        return (0.0,) + (1.0,) * (n - 1), 0.5

    return recipe


def largest_inner_interval(n: int) -> CatalogEntry:
    """Largest gap between consecutive sorted arguments.

    Nonstandard for n >= 3: best constant 2/n, best partial constants 2/k.
    Repetition-invariant but not nonincreasing under identification.
    """
    d = NDistance("inner-interval", n, "real-line", _largest_gap)
    return CatalogEntry(
        d, _inner_interval_witness(n), standard=(n == 2), repetition_invariant=True, nonincreasing=(n == 2),
        constants={k: 2.0 / k for k in range(2, n + 1)},
    )


def inner_interval_power(n: int, p: int) -> CatalogEntry:
    """p-th power of the largest inner interval; an n-distance iff n >= 2^p."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    if n < 2**p:
        raise ValueError(f"not an n-distance for n < 2^p (n={n}, p={p})")

    def ev(t: tuple) -> float:
        return _largest_gap(t) ** p

    kk = {k: 2.0 / k for k in range(2, n + 1)} if p == 1 else {n: (2.0**p) / n}
    d = NDistance(f"inner-interval-power[p={p}]", n, "real-line", ev)
    return CatalogEntry(
        d, _inner_interval_witness(n), standard=(n == 2 and p == 1), repetition_invariant=True, nonincreasing=False,
        constants=kk,
    )


# ---------------------------------------------------------------------------
# registry

_FACTORIES: dict[str, Callable[..., CatalogEntry]] = {
    "drastic": drastic,
    "cardinality": cardinality,
    "diameter": diameter,
    "sum-based": sum_based,
    "arithmetic-mean": arithmetic_mean,
    "fermat": fermat,
    "line-count": line_count,
    "enclosing-radius": enclosing_radius,
    "enclosing-area": enclosing_area,
    "chebyshev-diameter": chebyshev_diameter,
    "inner-interval": largest_inner_interval,
    "inner-interval-power": inner_interval_power,
}

_ALIASES = {"sum": "sum-based", "arith-mean": "arithmetic-mean", "mean": "arithmetic-mean"}


def available_ids() -> tuple[str, ...]:
    return tuple(sorted(_FACTORIES))


def make(distance_id: str, n: int, **params) -> CatalogEntry:
    """Build a catalog entry by string id.

    Raises KeyError on unknown ids and ValueError on arities below 2.
    """
    key = _ALIASES.get(distance_id, distance_id)
    if key not in _FACTORIES:
        raise KeyError(f"unknown distance id {distance_id!r}; known ids: {', '.join(available_ids())}")
    if n < 2:
        raise ValueError(f"arity n must be at least 2, got {n}")
    return _FACTORIES[key](n, **params)
