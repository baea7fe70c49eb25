"""Points, spaces, tuple operations, and the n-ary distance interface.

Points are plain values: a string label on a finite alphabet, a float on the
real line, or an (x, y) pair of floats on the plane.  Tuples of points are
ordinary Python tuples.  Positions inside a tuple are 1-based throughout,
matching the usual mathematical convention for arguments x_1, ..., x_n.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence, Union

Point = Union[str, float, tuple]

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"

SPACE_KINDS = ("finite", "real-line", "plane")


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

    The axiom checks of this module take an ``NDistance``.  What is known
    about a distance (its constants, witness recipe and property flags)
    lives on ``catalog.CatalogEntry``, which every function above this
    module takes instead.
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
    """Deterministic tuple families that realize the known extremal shapes."""
    if space.kind == "finite":
        return []  # exhaustive enumeration covers small alphabets
    if space.kind == "real-line":
        out: list[tuple] = []
        for m in range(1, n):
            out.append((0.0,) * m + (1.0,) * (n - m))
        out.append(tuple(float(i) for i in range(n)))  # progression
        if n >= 3:
            out.append((0.0, 1.0) + (0.5,) * (n - 2))  # pair plus midpoint block
        out.append((0.0,) * n)
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
    seen: set = set()
    uniq = []
    for z in zs:
        if z not in seen:
            seen.add(z)
            uniq.append(z)
    return uniq


def structured_pairs(space: Space, n: int) -> list[tuple[tuple, Point]]:
    return [(t, z) for t in structured_tuples(space, n) for z in z_candidates(space, t)]


def step_pairs(n: int) -> list[tuple[tuple, float]]:
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
    """
    h = float(n)
    return [((0.0,) * (n - m) + (h,) * m, z) for m in range(1, n) for z in (0.0, h)]


def sample_tuple(space: Space, n: int, rng: random.Random) -> tuple:
    return tuple(space.sample(rng) for _ in range(n))


def sample_pair(space: Space, n: int, rng: random.Random) -> tuple[tuple, Point]:
    """One random (tuple, z) candidate; z is biased toward informative spots."""
    t = sample_tuple(space, n, rng)
    if space.kind == "finite":
        return t, space.sample(rng)
    r = rng.random()
    if r < 0.55:
        z = space.sample(rng)
    elif r < 0.80:
        z = t[rng.randrange(n)]
    else:
        z = space.midpoint(t[rng.randrange(n)], t[rng.randrange(n)])
    return t, z


def iter_tuples(space: Space, n: int, budget: int, seed: int) -> Iterator[tuple]:
    """Up to ``budget`` tuples: exhaustive on small finite spaces, otherwise
    the structured families followed by seeded uniform samples."""
    if space.kind == "finite" and space.size**n <= budget:
        yield from space.iter_tuples(n)
        return
    count = 0
    for t in structured_tuples(space, n):
        if count >= budget:
            return
        yield t
        count += 1
    rng = random.Random(derive_seed(seed, 0))
    while count < budget:
        yield sample_tuple(space, n, rng)
        count += 1


def iter_pairs(space: Space, n: int, budget: int, seed: int) -> Iterator[tuple[tuple, Point]]:
    """Up to ``budget`` (tuple, z) candidates, exhaustive when feasible."""
    if space.kind == "finite" and space.size ** (n + 1) <= budget:
        for t in space.iter_tuples(n):
            for z in space.labels:
                yield t, z
        return
    count = 0
    for pair in structured_pairs(space, n):
        if count >= budget:
            return
        yield pair
        count += 1
    rng = random.Random(derive_seed(seed, 1))
    while count < budget:
        yield sample_pair(space, n, rng)
        count += 1


# ---------------------------------------------------------------------------
# axiom checkers


def check_identity(d: NDistance, space: Space, budget: int = 4096, seed: int = 0) -> PropertyVerdict:
    """Axiom (i): d(t) = 0 exactly when all points of t coincide (and d >= 0)."""
    prop = f"identity({d.name})"
    checked = 0
    ce = None
    for t in iter_tuples(space, d.arity, budget, seed):
        v = d.evaluator(t)
        degenerate = distinct_count(t) == 1
        if v < 0 or (degenerate != (v == 0.0)):
            ce = {"tuple": t, "value": v}
            break
        checked += 1
    return PropertyVerdict.of(prop, {"checked": checked}, ce)


def check_symmetry(
    d: NDistance, space: Space, budget: int = 512, seed: int = 0
) -> PropertyVerdict:
    """Axiom (ii): invariance under permutation of the arguments."""
    prop = f"symmetry({d.name})"
    tol = 0.0 if space.kind == "finite" else 1e-12
    n = d.arity
    rng = random.Random(derive_seed(seed, 2))
    checked = 0
    ce = None
    for t in iter_tuples(space, n, budget, seed):
        base = d.evaluator(t)
        if n <= 4:
            perms = itertools.permutations(t)
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
    return PropertyVerdict.of(prop, {"checked": checked, "tolerance": tol}, ce)


def check_simplex(
    d: NDistance,
    space: Space,
    budget: int = 4096,
    seed: int = 0,
    constant: float = 1.0,
    tol: float = 1e-9,
) -> PropertyVerdict:
    """Axiom (iii) with a given constant: d(t) <= constant * sum of sections."""
    from .analysis import scan

    prop = f"simplex({d.name},K={constant:g})"
    best, first, worst, checked = scan(d.evaluator, iter_pairs(space, d.arity, budget, seed), d.arity, constant, tol)
    details = {"checked": checked, "max_ratio": best[0] if best else 0.0}
    ce = worst_ce = None
    if first is not None:
        ce, worst_ce = (
            {"tuple": t, "z": z, "value": num, "section_sum": den, "violation": violation}
            for violation, t, z, num, den in (first, worst)
        )
    return PropertyVerdict.of(prop, details, ce, worst_ce)


def check_axioms(d: NDistance, space: Space, budget: int = 4096, seed: int = 0) -> list[PropertyVerdict]:
    """All three n-distance axioms (simplex inequality taken with constant 1)."""
    return [
        check_identity(d, space, budget=budget, seed=seed),
        check_symmetry(d, space, budget=max(64, budget // 8), seed=seed),
        check_simplex(d, space, budget=budget, seed=seed),
    ]
