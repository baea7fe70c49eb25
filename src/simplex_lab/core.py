"""Points, spaces, tuple operations, and the n-ary distance interface.

Points are plain values: a string label on a finite alphabet, a float on the
real line, or an (x, y) pair of floats on the plane.  Tuples of points are
ordinary Python tuples.  Positions inside a tuple are 1-based throughout,
matching the usual mathematical convention for arguments x_1, ..., x_n.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, Union

if TYPE_CHECKING:
    from .catalog import CatalogEntry

Point = Union[str, float, tuple]

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"

# how a result was reached: from a proven list or a full enumeration, or by sampling
EXACT = "exact"
SAMPLED = "sampled"

SPACE_KINDS = ("finite", "real-line", "plane")

# Every result the package checks is an inequality, tested up to a slack.
TOL = 1e-9  # violation slack of every inequality check: a > b fails only when a - b > TOL
EQUAL_TOL = 1e-12  # value-equality slack on continuous spaces (finite spaces compare exactly) and of constructions' s


class DegenerateTupleError(ValueError):
    """The operation needs a tuple with at least two distinct points."""


# ---------------------------------------------------------------------------
# spaces


@dataclass(frozen=True)
class FiniteSpace:
    """A finite alphabet of at least two labels, exhaustively enumerable."""

    labels: tuple[str, ...]
    kind: str = field(default="finite", init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.labels) < 2:
            raise ValueError("a finite space needs at least 2 labels")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels in finite space")

    @property
    def size(self) -> int:
        return len(self.labels)

    def sample(self, rng: random.Random) -> str:
        return self.labels[rng.randrange(len(self.labels))]

    def iter_tuples(self, n: int) -> Iterator[tuple]:
        return itertools.product(self.labels, repeat=n)


def _check_box(low: float, high: float) -> None:
    # also rejects nan bounds and a width that overflows to inf
    if not 0 < high - low < math.inf:
        raise ValueError(f"sampling box needs finite low < high, got [{low}, {high}]")


@dataclass(frozen=True)
class RealLine:
    """The real line; ``low``/``high`` bound the sampling box only."""

    low: float = -1.0
    high: float = 1.0
    kind: str = field(default="real-line", init=False, repr=False)

    def __post_init__(self) -> None:
        _check_box(self.low, self.high)

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def midpoint(self, x: float, y: float) -> float:
        return (x + y) / 2.0


@dataclass(frozen=True)
class Plane:
    """The Euclidean plane; the sampling box is [low, high]^2."""

    low: float = -1.0
    high: float = 1.0
    kind: str = field(default="plane", init=False, repr=False)

    def __post_init__(self) -> None:
        _check_box(self.low, self.high)

    def sample(self, rng: random.Random) -> tuple[float, float]:
        return (rng.uniform(self.low, self.high), rng.uniform(self.low, self.high))

    def midpoint(self, x: tuple, y: tuple) -> tuple[float, float]:
        return ((x[0] + y[0]) / 2.0, (x[1] + y[1]) / 2.0)


Space = Union[FiniteSpace, RealLine, Plane]

_POINT_KIND_FOR_SPACE = {"finite": "symbol", "real-line": "real", "plane": "planar"}


def point_kind(p: Point) -> str:
    """Classify a point as ``symbol``, ``real`` or ``planar``."""
    if isinstance(p, str):
        return "symbol"
    if isinstance(p, tuple):
        if len(p) == 2:
            return "planar"
        raise TypeError(f"planar points are pairs, got {p!r}")
    if isinstance(p, (int, float)):
        return "real"
    raise TypeError(f"not a point: {p!r}")


def kind_accepts(space_kind: str, p: Point) -> bool:
    if space_kind == "any":
        return True
    expected = _POINT_KIND_FOR_SPACE.get(space_kind)
    if expected is None:
        raise ValueError(f"unknown space kind: {space_kind}")
    return point_kind(p) == expected


# ---------------------------------------------------------------------------
# tuple operations


def distinct_count(t: Sequence[Point]) -> int:
    """Number of distinct points in the tuple."""
    return len(set(t))


def section(t: tuple, i: int, z: Point) -> tuple:
    """Copy of ``t`` with the i-th position (1-based) replaced by ``z``."""
    if not 1 <= i <= len(t):
        raise IndexError(f"position {i} out of range 1..{len(t)}")
    return t[: i - 1] + (z,) + t[i:]


# ---------------------------------------------------------------------------
# the n-ary distance interface


@dataclass(frozen=True)
class NDistance:
    """A named symmetric nonnegative n-ary map: the map and nothing else.

    Only ``evaluate`` and ``__call__`` take it.  What is known about a
    distance (its constants, type list and property flags, and a
    construction's anchors) lives on ``catalog.CatalogEntry``, which every
    check, estimate and builder takes instead.
    """

    name: str
    arity: int
    space_kind: str  # "finite" | "real-line" | "plane" | "any"
    evaluator: Callable[[tuple], float]

    def __post_init__(self) -> None:
        if self.arity < 2:
            raise ValueError("arity must be at least 2")
        if self.space_kind not in SPACE_KINDS and self.space_kind != "any":
            raise ValueError(f"unknown space kind: {self.space_kind}")

    def __call__(self, *points: Point) -> float:
        return evaluate(self, tuple(points))


def evaluate(d: NDistance, t: tuple) -> float:
    """Apply ``d`` to a tuple after checking arity and point kinds."""
    if len(t) != d.arity:
        raise ValueError(f"{d.name} expects {d.arity} points, got {len(t)}")
    for p in t:
        if not kind_accepts(d.space_kind, p):
            raise ValueError(f"{d.name} expects {d.space_kind} points, got {p!r}")
    return d.evaluator(t)


class ValueSetDistance(NDistance):
    """An ``NDistance`` that ``value_set_distance`` built: d(t) depends only on set(t).

    ``dataclasses.replace`` keeps the class, so a copy may wrap the
    evaluator only in something that keeps its values, such as a timer.
    """


def value_set_distance(name: str, arity: int, space_kind: str, f: Callable[[list], float]) -> ValueSetDistance:
    """d(t) = f(s) on the sorted distinct points s of t, and exactly 0.0 where t has one point."""

    def ev(t: tuple) -> float:
        s = sorted(set(t))
        return 0.0 if len(s) == 1 else f(s)

    return ValueSetDistance(name, arity, space_kind, ev)


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class PropertyVerdict:
    """Outcome of a property check with the evidence that decided it."""

    property: str
    status: str  # PASS | FAIL | NOT_APPLICABLE
    counterexample: dict | None = None  # first counterexample found
    worst: dict | None = None  # maximal violation within budget
    details: dict | None = None

    @classmethod
    def of(
        cls, prop: str, details: dict | None = None, counterexample: dict | None = None, worst: dict | None = None
    ) -> PropertyVerdict:
        """The one verdict rule: the status follows from the evidence.

        A counterexample fails.  Otherwise a ``"reason"`` in ``details``
        (a precondition that was not met) or ``checked == 0`` (no candidate
        was checked) is NOT_APPLICABLE.  Anything else passes.
        """
        if counterexample is not None:
            status = FAIL
        elif details is not None and ("reason" in details or details.get("checked") == 0):
            status = NOT_APPLICABLE
            details = {"reason": "no candidate checked", **details}
        else:
            status = PASS
        return cls(prop, status, counterexample, worst, details)

    @property
    def passed(self) -> bool:
        return self.status == PASS

    @property
    def failed(self) -> bool:
        return self.status == FAIL


# ---------------------------------------------------------------------------
# deterministic candidate streams shared by checkers and estimators

# Integer points on the circle of radius 5 about the origin: convenient
# pairwise-distinct planar configurations with no 3 collinear and exact
# integer line/collinearity arithmetic.
CIRCLE_POINTS: tuple[tuple[float, float], ...] = (
    (5.0, 0.0),
    (3.0, 4.0),
    (0.0, 5.0),
    (-4.0, 3.0),
    (-5.0, 0.0),
    (-3.0, -4.0),
    (0.0, -5.0),
    (4.0, -3.0),
)


def derive_seed(seed: int, stream: int) -> int:
    """Stable per-stream integer seed (independent of hash randomization)."""
    return (seed * 1_000_003 + stream * 7_919 + 12_345) % (2**63)


def structured_tuples(space: Space, n: int) -> list[tuple]:
    """Deterministic tuple families that realize the known extremal shapes.

    A finite space, too large to enumerate, gets the line's two-value
    families (x, ..., x, y, ..., y) and the constant tuple on its first two
    labels: with z = y, (x, y, ..., y) is the standard shape.
    """
    if space.kind != "plane":
        x, y = space.labels[:2] if space.kind == "finite" else (0.0, 1.0)
        out: list[tuple] = [(x,) * m + (y,) * (n - m) for m in range(1, n)]
        if space.kind == "real-line":
            out.append(tuple(float(i) for i in range(n)))  # progression
            if n >= 3:
                out.append((0.0, 1.0) + (0.5,) * (n - 2))  # pair plus midpoint block
        out.append((x,) * n)
        return out
    # plane
    p0, p1 = (0.0, 0.0), (1.0, 0.0)
    out = []
    for m in range(1, n):
        out.append((p0,) * m + (p1,) * (n - m))
    if n >= 3:
        out.append(((0.0, 0.0), (2.0, 0.0)) + ((1.0, 0.0),) * (n - 2))
    out.append(CIRCLE_POINTS[:n])
    out.append((p0,) * n)
    return out


def z_candidates(space: Space, t: tuple) -> list[Point]:
    """Deterministic z choices for a tuple: its own points, midpoints, origin."""
    distinct = sorted(set(t))
    zs: list[Point] = list(distinct)
    if space.kind == "real-line":
        zs.extend((distinct[i] + distinct[i + 1]) / 2.0 for i in range(len(distinct) - 1))
    elif space.kind == "plane":
        if len(distinct) >= 2:
            a, b = distinct[0], distinct[1]
            zs.append(((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0))
        zs.append((0.0, 0.0))  # center of the canonical circle configurations
    return list(dict.fromkeys(zs))


def structured_pairs(space: Space, n: int) -> list[tuple[tuple, Point]]:
    return [(t, z) for t in structured_tuples(space, n) for z in z_candidates(space, t)]


def step_pairs(space: Space, n: int) -> tuple[tuple[tuple, Point], ...]:
    """The 2(n-1) sorted step pairs ``((0,)*(n-m) + (h,)*m, z)``, m in 1..n-1, z in {0, h}, h = n.

    They carry K*_{n,k} of every real-line distance whose value d(t) and
    sections are linear on each order cell of (x_1..x_n, z), the closed
    cone where one ordering of the n+1 coordinates holds.  Such a cell is
    the line of constants plus the nonnegative combinations of its n step
    generators e_j, the 0/1 vectors that are 1 on the top j coordinates of
    the ordering.  d and every section vanish on constants, so at a point
    c + sum_j c_j e_j of the cell each of them is sum_j c_j times its value
    at e_j.  Every ratio of d to a section sum over a fixed index set I is
    then a mediant of its values at the generators, hence at most their max
    (the vertex argument of linear-fractional programming, Charnes & Cooper
    1962).  The ratio to the k smallest sections is the max of these ratios
    over |I| = k, so its sup over the cell is reached at a generator.
    Generators whose tuple is constant have d = 0.  By symmetry a generator
    with m ones among the x_i has the ratio of the sorted tuple with the
    same m and the same z, which leaves the pairs here.  Scaling by h = n
    keeps every value of the cell-linear catalog evaluators an integer (the
    mean's sum of multiples of n is divided by n), so each num / den is one
    correctly rounded division: an exact constant 1/(k-1) comes out bit for
    bit.

    On the plane each value x becomes the point (x, 0).  They carry the
    constant of every planar d that is the sup, or the sum, over linear maps
    l: R^2 -> R of one such line map L(l(t)), and equals L on the x-axis.
    A linear l commutes with sections, l(sec_i) = section(l(t), i, l(z)).
    In the sup case, with l* attaining d(t), for every k-set I
    d(t) = L(l*(t)) <= K_L * sum_I L(l*(sec_i)) <= K_L * sum_I d(sec_i).
    In the sum case each l meets K_L against its own k smallest sections,
    which cost no more than one shared k-set, and the terms add up.  So
    K*_{n,k}(d) <= K*_{n,k}(L), and the x-axis, where d = L, attains it.
    By Cauchy-Crofton, |v| = 1/4 * integral over theta in [0, 2 pi) of
    |<v, u_theta>|, so sum-based[euclidean] is an integral of sum-based[abs]
    over linear maps, and the sum case applies term by term.

    The list depends only on ``space.kind`` and n, so it is built once and
    shared: every witness drawn from it holds the same tuples.
    """
    return _step_pairs(space.kind, n)


@functools.cache
def _step_pairs(kind: str, n: int) -> tuple[tuple[tuple, Point], ...]:
    h = float(n)
    pairs = tuple(((0.0,) * (n - m) + (h,) * m, z) for m in range(1, n) for z in (0.0, h))
    if kind == "plane":
        return tuple((tuple((x, 0.0) for x in t), (z, 0.0)) for t, z in pairs)
    return pairs


def sample_tuple(space: Space, n: int, rng: random.Random) -> tuple:
    """n points of ``space.sample``, in the same stream.

    On continuous spaces each coordinate is low + (high - low) * random(),
    the expression ``random.Random.uniform`` evaluates, so the floats are
    those of one ``uniform`` call per coordinate.
    """
    if space.kind == "finite":
        # choice and randrange draw the same index from the same _randbelow call
        choice, labels = rng.choice, space.labels
        return tuple([choice(labels) for _ in range(n)])
    low, width, draw = space.low, space.high - space.low, rng.random
    if space.kind == "plane":
        return tuple([(low + width * draw(), low + width * draw()) for _ in range(n)])
    return tuple([low + width * draw() for _ in range(n)])


def sample_pair(space: Space, n: int, rng: random.Random) -> tuple[tuple, Point]:
    """One random (tuple, z) candidate; z is biased toward informative spots."""
    t = sample_tuple(space, n, rng)
    if space.kind == "finite":
        return t, space.sample(rng)
    r = rng.random()
    if r < 0.55:
        z = space.sample(rng)
    elif r < 0.80:
        z = rng.choice(t)
    else:
        z = space.midpoint(rng.choice(t), rng.choice(t))
    return t, z


def _head_then_samples(head: Iterable, draw: Callable[[], tuple], budget: int) -> Iterator:
    """The structured ``head``, then ``draw()`` without end, cut at ``budget`` items."""
    return itertools.islice(itertools.chain(head, iter(draw, None)), max(budget, 0))


def iter_tuples(space: Space, n: int, budget: int, seed: int) -> Iterator[tuple]:
    """Up to ``budget`` tuples: exhaustive on small finite spaces, otherwise
    the structured families followed by seeded uniform samples."""
    if space.kind == "finite" and space.size**n <= budget:
        return space.iter_tuples(n)
    rng = random.Random(derive_seed(seed, 0))
    return _head_then_samples(structured_tuples(space, n), lambda: sample_tuple(space, n, rng), budget)


def iter_pairs(space: Space, n: int, budget: int, seed: int) -> Iterator[tuple[tuple, Point]]:
    """Up to ``budget`` (tuple, z) candidates, exhaustive when feasible."""
    if space.kind == "finite" and space.size ** (n + 1) <= budget:
        return itertools.product(space.iter_tuples(n), space.labels)
    rng = random.Random(derive_seed(seed, 1))
    # sample_pair is looked up at each draw, so a patched module attribute sees every sample
    return _head_then_samples(structured_pairs(space, n), lambda: sample_pair(space, n, rng), budget)


# ---------------------------------------------------------------------------
# axiom checkers


def distinct_permutations(t: tuple) -> Iterator[tuple]:
    """Every distinct ordering of ``t`` once, ``t`` itself first."""
    if len(t) <= 1:
        yield t
        return
    for v in dict.fromkeys(t):
        i = t.index(v)
        for rest in distinct_permutations(t[:i] + t[i + 1 :]):
            yield (v,) + rest


def check_identity(entry: CatalogEntry, space: Space, budget: int = 4096, seed: int = 0) -> PropertyVerdict:
    """Axiom (i): d(t) = 0 exactly when all points of t coincide (and d >= 0).

    The check folds every distinct permutation of the entry's ``axiom_tuples``,
    proven to decide the axiom, and reports ``method: exact``; where that is
    None, it folds ``budget`` tuples of ``iter_tuples``.
    """
    d = entry.distance
    prop = f"identity({d.name})"
    tuples = entry.axiom_tuples(space)
    if tuples is None:
        candidates = iter_tuples(space, d.arity, budget, seed)
    else:
        candidates = itertools.chain.from_iterable(map(distinct_permutations, tuples))
    checked = 0
    ce = None
    for t in candidates:
        v = d.evaluator(t)
        degenerate = distinct_count(t) == 1
        if v < 0 or (degenerate != (v == 0.0)):
            ce = {"tuple": t, "value": v}
            break
        checked += 1
    return PropertyVerdict.of(prop, _with_method({"checked": checked}, tuples is not None), ce)


def check_symmetry(entry: CatalogEntry, space: Space, budget: int = 512, seed: int = 0) -> PropertyVerdict:
    """Axiom (ii): invariance under permutation of the arguments.

    The check compares d on each of the entry's ``axiom_tuples`` with d on
    its other distinct permutations, proven to decide the axiom, and
    reports ``method: exact``; where that is None, on each of ``budget``
    tuples of ``iter_tuples`` with its other permutations (every distinct
    one for n <= 4, ten seeded shuffles beyond).  ``checked`` counts the tuples
    whose permutations all agreed.  For the gap entries (inner-interval and
    inner-interval-power) the tuples have every sorted gap 0 or 1: d is a
    strictly increasing function of one gap on each cell of one order and
    one largest gap, their permutations generate every such cell, and a
    permutation maps cells onto cells, so agreement on them is symmetry
    everywhere (``CatalogEntry.axiom_tuples`` has the proof).
    """
    d = entry.distance
    prop = f"symmetry({d.name})"
    tol = 0.0 if space.kind == "finite" else EQUAL_TOL
    n = d.arity
    tuples = entry.axiom_tuples(space)
    rng = random.Random(derive_seed(seed, 2))
    checked = 0
    ce = None
    for t in iter_tuples(space, n, budget, seed) if tuples is None else tuples:
        base = d.evaluator(t)
        if tuples is not None or n <= 4:
            # the first permutation is t itself, already evaluated as base
            perms = itertools.islice(distinct_permutations(t), 1, None)
        else:
            perms = []
            for _ in range(10):
                q = list(t)
                rng.shuffle(q)
                perms.append(tuple(q))
        for q in perms:
            value = d.evaluator(tuple(q))
            if abs(value - base) > tol:
                ce = {"tuple": t, "permuted": tuple(q), "value": base, "permuted_value": value}
                break
        if ce is not None:
            break
        checked += 1
    return PropertyVerdict.of(prop, _with_method({"checked": checked, "tolerance": tol}, tuples is not None), ce)


def _with_method(details: dict, exact: bool) -> dict:
    """``details`` with ``method: exact`` where a proven list decided the check."""
    return {**details, "method": EXACT} if exact else details


def check_simplex(
    entry: CatalogEntry, space: Space, budget: int = 4096, seed: int = 0, constant: float = 1.0
) -> PropertyVerdict:
    """Axiom (iii) with a given constant: d(t) <= constant * sum of sections, up to ``TOL``.

    The check folds the entry's ``type_list``, whose max ratio is proven to
    be K*_n, and reports ``method: exact``; where that is None, ``budget``
    candidates of ``iter_pairs``.  Listed pairs are real configurations, so
    a counterexample is genuine and a pass holds for every candidate.
    ``TOL`` is an absolute slack on num - constant * den, so a verdict
    within about TOL of K*_n depends on the scale of the candidates.
    """
    from .analysis import scan

    d = entry.distance
    prop = f"simplex({d.name},K={constant:g})"
    pairs = entry.type_list(space)
    candidates = iter_pairs(space, d.arity, budget, seed) if pairs is None else pairs
    best, first, worst, checked = scan(d.evaluator, candidates, d.arity, constant)
    details = _with_method({"checked": checked, "max_ratio": best[0] if best else 0.0}, pairs is not None)
    ce = worst_ce = None
    if first is not None:
        ce, worst_ce = (
            {"tuple": t, "z": z, "value": num, "section_sum": den, "violation": violation}
            for violation, t, z, num, den in (first, worst)
        )
    return PropertyVerdict.of(prop, details, ce, worst_ce)


def check_axioms(entry: CatalogEntry, space: Space, budget: int = 4096, seed: int = 0) -> list[PropertyVerdict]:
    """All three n-distance axioms (simplex inequality with constant 1), each check on the entry's own list."""
    return [
        check_identity(entry, space, budget=budget, seed=seed),
        check_symmetry(entry, space, budget=max(64, budget // 8), seed=seed),
        check_simplex(entry, space, budget=budget, seed=seed),
    ]
