"""The built-in n-ary distances with their known constants and witnesses.

Every evaluator sorts its argument tuple first: all of these maps are
symmetric by definition, so the sort changes no value but makes permutation
invariance bit-exact.  Evaluators return exactly 0.0 on constant tuples.
The value-set entries, whose value depends only on the set of their
arguments (diameter, chebyshev-diameter, line-count, enclosing-radius,
enclosing-area, inner-interval and inner-interval-power), are built through
``core.value_set_distance``, which hands their map the sorted distinct
points; ``CatalogEntry.strong_list`` reads that from the distance's class.
drastic and cardinality keep their own evaluators: their strong list is
``partition_pairs`` already.

Wherever a constant is known, the entry's ``type_pairs`` list carries it and
its pairs are the witnesses.  The ``constructions`` are ``partition_pairs``
entries too: they see only which arguments are equal and which of them are
their ``anchors``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence

from .core import FiniteSpace, NDistance, Point, Space, ValueSetDistance, step_pairs, value_set_distance
from .geometry import (
    LINEAR_SPACE_TYPES,
    count_lines,
    fermat_value,
    ground_distance,
    linear_space_pairs,
    smallest_enclosing_circle,
    space_kind_for_ground,
)


@dataclass(frozen=True)
class CatalogEntry:
    """A distance with everything the package knows about it, in one place.

    Every estimator, property check and builder takes an entry, the axiom
    checks of ``core`` too; only ``core.evaluate`` takes ``distance`` itself.

    ``constants`` maps k to the best partial constant K*_{n,k} over k-term
    section sums, where it is known in closed form; at k = n it is the best
    constant K*_n.  The constants are metadata: estimators recompute and
    compare against them, they are never fed back into the search.
    ``constant_bounds`` brackets the best constant when no closed form is
    known (lower may be None; upper is exclusive for line-count).

    Flag values are knowledge, not computation: ``True``/``False`` when the
    property status is known, ``None`` when open.  Checkers verify them.
    ``type_pairs(space, n)`` returns the finite list of (t, z) candidates
    that carries K*_{n,k} for every k on the entry's own space, or None
    where its reduction does not reach n; ``analysis`` then folds that list
    and reports the max as exact.  ``core.step_pairs`` serves the entries
    that are linear on every order cell of the line, or that are the sup
    or the sum of such a line entry over linear maps from the plane;
    ``geometry.linear_space_pairs`` serves line-count, ``gap_pairs``
    inner-interval and inner-interval-power, ``circle_pairs``
    enclosing-radius and enclosing-area, and ``partition_pairs`` the
    entries that see only which arguments are equal (drastic, cardinality
    and the discrete diameter, sum-based and fermat), and the
    ``constructions``, which see also which are their ``anchors``
    (``partition_pairs(space, n, anchors)``).  Each list is an immutable
    tuple, built once per space kind (labels and anchors, for
    ``partition_pairs``) and n and shared by every witness.

    The builders in ``constructions`` also set ``anchors`` (the labels that
    the injections of ``partition_pairs`` must fix), ``space`` (the label
    space the distance is built on), ``exact_evaluator`` (rational values,
    when known) and ``params`` (the construction's own numbers).
    ``axiom_tuples``, ``identification_tuples``, ``triangle_list`` and
    ``strong_list`` say which list decides which check, each with its
    proof, so that no check names a hook.
    """

    distance: NDistance
    standard: bool | None = None
    repetition_invariant: bool | None = None
    nonincreasing: bool | None = None
    type_pairs: Callable[[Space, int], Sequence[tuple[tuple, Point]] | None] | None = None
    anchors: tuple[Point, ...] = ()
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

    def type_list(self, space: Space, n: int | None = None) -> Sequence[tuple[tuple, Point]] | None:
        """The ``type_pairs`` list of arity ``n`` (default the entry's own) on ``space``, or None.

        None without a hook, off the entry's own space kind (every space
        is an "any" entry's own), and where the hook's reduction does not
        reach n.  Estimates fold the list as exact, ``core.check_simplex``
        decides axiom (iii) on it, ``axiom_tuples`` builds on it, and
        ``strong_list`` reads it at the check's k.  Every hook call of an
        entry goes through here.
        """
        hook = self.type_pairs
        if hook is None or self.distance.space_kind not in ("any", space.kind):
            return None
        n = self.arity if n is None else n
        return hook(space, n, self.anchors) if self.anchors else hook(space, n)

    def axiom_tuples(self, space: Space) -> tuple[tuple, ...] | None:
        """The tuples whose distinct permutations decide identity and symmetry, or None.

        For the ``partition_pairs`` entries on every space, and the
        ``core.step_pairs`` entries on the real line, they are the distinct
        tuples t of ``type_list(space)``, the constant tuple of each anchor
        that they hold, and the constant tuple of the first listed point that
        is no anchor (the first tuple's last point, for an entry without
        anchors).  For the ``gap_pairs`` entries on the real line they are
        the 2^(n-1) - 1 nonconstant sorted tuples from 0 whose consecutive
        gaps are all 0 or 1, such as (0, 0, 1, 2), and the constant
        (1, ..., 1) of the first one's last point.  ``core.check_identity``
        requires d = 0 on the constant tuple and d > 0 on every permutation
        of the others, and ``core.check_symmetry`` requires d to be equal
        across the permutations of each.  None for every other hook or
        space, where ``type_list`` is None, and at the first tuple whose
        permutations, with those of the tuples before it, number more than
        ``AXIOM_PERMUTATION_LIMIT``; those checks then sample.

        * Partition entries.  d(f(t)) = d(t) for every injection f of the
          points that fixes each of the entry's anchors, so d(u) depends
          only on the set partition of the n positions into equal points
          and on which blocks are which anchor.  The listed t hold one tuple
          per such shape that the space can hold, so every nonconstant u on
          the space is f(pi t) for a listed t, a permutation pi and such an
          injection f, and d(u) = d(pi t).  Every constant tuple is an f of
          a listed one: each f fixes (a, ..., a) for an anchor a, so each
          anchor has its own, and every other constant is an f of the
          listed one of a point that is no anchor.  So d >= 0, and d = 0
          exactly on the constants, holds everywhere if it holds on the
          permutations; and since sigma u = f(sigma pi t), d(sigma u) = d(u)
          holds if d agrees across the permutations of each t.
        * Line step-pair entries.  d ignores z, so with z below every
          coordinate it is linear on each order cell of t, the cone where
          one ordering of the n coordinates holds.  That cell is the line
          of constants plus the nonnegative combinations of its n - 1 step
          generators, the 0/h tuples that are h on the top j positions,
          j in 1..n-1; the permutations of the listed (0, ..., 0, h, ..., h)
          are all 2^n - 2 nonconstant 0/h tuples, the generators of every
          cell.  By linearity d(c, ..., c) = (c/h) d(h, ..., h), so d vanishes
          on every constant if and only if on (h, ..., h), and then at a point
          c + sum_j c_j e_j of the cell d is sum_j c_j d(e_j).  So d >= 0
          with d = 0 only on constants if and only if d(e) > 0 at every
          generator e.  A permutation sigma maps each cell, and its
          generators, onto another cell and its generators, so
          d(sigma x) = sum_j c_j d(sigma e_j), and d is symmetric if and
          only if d(sigma e) = d(e) for every 0/h tuple e, that is, if d
          agrees across the permutations of each listed tuple.
        * Gap entries.  Fix the order of the n values and a consecutive gap
          j that is largest: on this refined cell d is phi(L), with L the
          j-th gap c_j of the gap vector c, linear and 0 on constants, and
          phi(s) = s^p strictly increasing from phi(0) = 0 (p = 1 for
          inner-interval).  With v_1 < ... < v_m the distinct positive
          entries of c and v_0 = 0, the layer cake
          c = sum_s (v_s - v_{s-1}) 1[c >= v_s] writes c as a nonnegative
          sum of nested 0/1 vectors that all hold j, since c_j = v_m.  So
          the cell is the line of constants plus the nonnegative
          combinations of its generators, the tuples of its order with 0/1
          gaps and gap j equal to 1, and L(t) = sum_s a_s L(e_s).  The
          permutations of the listed tuples are the nonconstant tuples over
          0..n-1 whose sorted gaps are 0 or 1, the generators of every
          cell: Fubini(n) - 1 of them, the ordered set partitions of the n
          positions into two or more blocks.  As for the step pairs, d
          vanishes on every constant if and only if on (1, ..., 1), and
          d > 0 off the constants if and only if d(e) > 0 at every
          generator e.  A permutation sigma maps each refined cell, and its
          generators, onto another, so d o sigma is phi of a linear map on
          each cell too, and d(sigma t) = phi(sum_s a_s L'(sigma e_s)).  phi is injective, so
          if d agrees across the permutations of each listed tuple, then
          L'(sigma e) = L(e) at every generator and d(sigma t) = d(t).
        """
        hook = self.type_pairs
        if hook is not partition_pairs and not (hook in (step_pairs, gap_pairs) and space.kind == "real-line"):
            return None
        pairs = self.type_list(space)
        if pairs is None:
            return None
        tuples, perms = [], 0
        for t in _gap_tuples(self.arity) if hook is gap_pairs else dict.fromkeys(t for t, _ in pairs):
            perms += _permutation_count(t)
            if perms > AXIOM_PERMUTATION_LIMIT:
                return None
            tuples.append(t)
        points = dict.fromkeys(x for t in tuples for x in reversed(t))
        ends = [x for x in points if x in self.anchors] + [x for x in points if x not in self.anchors][:1]
        return tuple(tuples) + tuple((x,) * self.arity for x in ends)

    def identification_tuples(self, space: Space) -> tuple[tuple, ...] | None:
        """The tuples whose distinct permutations decide the nonincreasing check, or None.

        ``axiom_tuples(space)`` for the ``partition_pairs`` entries, None for
        every other entry.  Such a d sees only which arguments are equal and
        which are its anchors, and identifying t_i with t_j gives a tuple
        whose set partition, with its anchors, depends only on that of t and
        on (i, j), so d(u) - d(t) does too; the permutations realise every
        such partition that the space can hold (see ``axiom_tuples``).
        """
        return self.axiom_tuples(space) if self.type_pairs is partition_pairs else None

    def triangle_list(self, space: Space, two: CatalogEntry) -> Sequence[tuple[tuple, Point]] | None:
        """The list that decides d_n(x) <= sum_i g(x_i, z) against the arity-2 member ``two``, or None.

        This entry's ``type_list(space)`` where it and g share the hook
        ``core.step_pairs`` on the real line, or ``partition_pairs`` on any
        space, neither has anchors, and neither type list on ``space`` is
        None.  The sufficient condition d_n(x, z, ..., z) <= g(x, z) is then
        decided on (a, b) and (b, a), the two ends of the first listed
        tuple.  Listed pairs are real configurations, so a counterexample is
        genuine.

        * Step pairs.  d_n and each g(x_i, z) are linear on every order cell
          of (x_1..x_n, z) and vanish on constants, so D = d_n - sum_i g(x_i, z)
          is too, and at a point c + sum_j c_j e_j of the cell, e_j its 0/1
          step generators, D is sum_j c_j D(e_j).  So D <= 0 on the cell if
          and only if D(e) <= 0 at every generator, and by continuity the
          same holds on the points of the cell with x nonconstant, which are
          dense in it.  Both sides are symmetric in x, so a generator with m
          ones among the x_i has the D of the sorted pair with the same m and
          z, and scaling by n keeps its sign: ((0,)*(n-m) + (n,)*m, z), z in
          {0, n}.  The two with x constant (m = 0 with z = n, m = n with
          z = 0) have d_n = 0 <= sum_i g, the hook's entries being
          nonnegative and 0 on constants; the other 2(n-1) are the step
          pairs.  On the cells x <= z and x >= z of (x, z, ..., z) both sides
          of the sufficient condition are linear and vanish at x = z, so how
          they compare is decided at (0, n) and (n, 0).
        * Partition pairs.  d_n(f(t)) = d_n(t) and g(f(x), f(z)) = g(x, z)
          for every injection f of the points, and both sides are symmetric
          in x, so D depends only on the equality type of (x_1..x_n, z), and
          every (x, z) with x nonconstant has a listed type (see
          ``partition_pairs``).  The pairs x != z of the sufficient condition
          are all of one type.
        """
        hook = self.type_pairs
        line_steps = hook is step_pairs and space.kind == "real-line"
        if hook is not two.type_pairs or self.anchors or two.anchors or not (hook is partition_pairs or line_steps):
            return None
        return self.type_list(space) if two.type_list(space) is not None else None

    def strong_list(self, space: Space, k: int) -> Sequence[tuple[tuple, Point]] | None:
        """The list that decides the strong k-check for every composition of n into k blocks, or None.

        ``properties.check_strong_k_simplex`` folds it for each composition
        c = (n_1..n_k) through the reduced map d_c(v) = d(n_1*v_1, ..., n_k*v_k),
        against the k block sections d_c(section_j(v, z)), which put z in
        place of the j-th block.

        * Partition entries: ``type_list(space, k)``, that is
          ``partition_pairs(space, k, anchors)``.  d_c(f(v)) = d_c(v) for
          every injection f that fixes the anchors still holds, so d_c's
          ratio depends only on which of (v_1..v_k, z) are equal and which
          are anchors, although d_c is not symmetric: a permutation pi of the
          positions moves the composition along, d_c(v) = d_{pi c}(pi v), and
          the sections with it.  Any (v, z) is such a pi away from a listed
          pair, of the composition pi c, and the check folds every
          composition, so together the folds cover every (values, z).
        * Value-set entries, whose distance ``core.value_set_distance`` built
          from f: ``type_list(space, k)``, the hook's arity-k list.
          Expanding v keeps its set of values, so d_c(v) = f(set(v)) = d_k(v),
          d_k the arity-k member, the same f on k arguments; and the j-th
          block section is d_k(section_j(v, z)).  So each composition's
          inequality is the arity-k simplex inequality of d_k, the same for
          every c, and M*_{n,k}(d) = K*_k(d_k).  The hook's docstring proves
          that its arity-k list carries K*_k of d_k, for every k >= 2
          (``gap_pairs`` below 2^p too), so the max of the fold is M*_{n,k}.
        * Every other hooked entry at k = n: ``type_list(space)``.  The only
          composition is (1, ..., 1), so d_c = d, and the strong inequality
          is the simplex inequality that the type list decides.

        The listed pairs are real configurations, so a counterexample is
        genuine.  None for every other entry and k, and wherever
        ``type_list`` is None (off the entry's space kind,
        ``partition_pairs`` past its point limit, ``linear_space_pairs`` from
        k = 6); the check then samples.
        """
        if self.type_pairs is partition_pairs or k == self.arity or isinstance(self.distance, ValueSetDistance):
            return self.type_list(space, k)
        return None

    def __call__(self, *points: Point) -> float:
        return self.distance(*points)


# the most distinct permutations of ``axiom_tuples`` that the identity and
# symmetry checks walk, about as many tuples as they sample at the CLI's default
# budget; ``axiom_tuples`` counts them tuple by tuple and stops at the first past
# it.  Their number grows faster than n!: a partition entry on the line has
# 95,502 at n = 8 and 871,029 at n = 9, a gap entry 47,292 at n = 7 and
# 545,834 at n = 8
AXIOM_PERMUTATION_LIMIT = 100_000


def _gap_tuples(n: int) -> Iterator[tuple]:
    """The nonconstant sorted 0/1-gap tuples of ``CatalogEntry.axiom_tuples``, lazily.

    Their permutations number Fubini(n) - 1: 74, 540, 4,682 and 47,292 at
    n = 4..7 and 545,834 at n = 8, so from n = 8 on the checks sample.
    """
    gaps = (c for c in itertools.product((0.0, 1.0), repeat=n - 1) if any(c))
    return (tuple(itertools.accumulate(c, initial=0.0)) for c in gaps)


def _permutation_count(t: tuple) -> int:
    count = math.factorial(len(t))
    for v in set(t):
        count //= math.factorial(t.count(v))
    return count


def _standard_entry(d: NDistance, type_pairs: Callable, invariant: bool = True) -> CatalogEntry:
    """A standard entry: K*_{n,k} = 1/(k-1) for every k.

    ``invariant`` is both its repetition-invariant and its nonincreasing
    flag.  The witness (x, y, ..., y) with z = y has ratio 1/(n-1).
    """
    return CatalogEntry(
        d, standard=True, repetition_invariant=invariant, nonincreasing=invariant, type_pairs=type_pairs,
        constants={k: 1.0 / (k - 1) for k in range(2, d.arity + 1)},
    )


def _diameter_distance(name: str, n: int, kind: str, g: Callable[[Point, Point], float]) -> NDistance:
    # largest pairwise ground distance among the distinct points
    return value_set_distance(name, n, kind, lambda s: max(itertools.starmap(g, itertools.combinations(s, 2))))


def _largest_gap(s: list) -> float:
    # s is sorted and has two or more points
    return max(map(operator.sub, s[1:], s))


# ---------------------------------------------------------------------------
# the entries


def drastic(n: int) -> CatalogEntry:
    """0 on constant tuples, 1 everywhere else."""

    def ev(t: tuple) -> float:
        return 0.0 if len(set(t)) == 1 else 1.0

    return _standard_entry(NDistance("drastic", n, "any", ev), type_pairs=partition_pairs)


def cardinality(n: int) -> CatalogEntry:
    """Number of distinct arguments minus one."""

    def ev(t: tuple) -> float:
        return float(len(set(t)) - 1)

    return _standard_entry(NDistance("cardinality", n, "any", ev), type_pairs=partition_pairs)


def diameter(n: int, d2: str = "abs") -> CatalogEntry:
    """Largest pairwise ground distance among the arguments."""
    d = _diameter_distance(f"diameter[{d2}]", n, space_kind_for_ground(d2), ground_distance(d2))
    # euclidean: the sup over unit functionals; chebyshev: the max over x and y
    return _standard_entry(d, type_pairs=partition_pairs if d2 == "discrete" else step_pairs)


def sum_based(n: int, d2: str = "abs") -> CatalogEntry:
    """Sum of the ground distances over all unordered argument pairs.

    On every ground, repetition-invariant and nonincreasing exactly for
    n <= 3: (x, x, y) and (x, y, y) both cost 2g(x, y), and identifying two
    of three values x, y, w leaves 2g(x, w) <= g(x, y) + g(y, w) + g(x, w).
    For n >= 4, (x, y, ..., y) costs (n-1)g(x, y), and identifying one of
    its y with x gives the same value set at 2(n-2)g(x, y), which is more.
    """
    g = ground_distance(d2)

    def ev(t: tuple) -> float:
        ts = sorted(t)
        return sum(g(p, q) for p, q in itertools.combinations(ts, 2))

    d = NDistance(f"sum-based[{d2}]", n, space_kind_for_ground(d2), ev)
    # max(|a|, |b|) = (|a + b| + |a - b|)/2: chebyshev is a sum over (x + y)/2 and (x - y)/2,
    # and euclidean an integral over directions (Cauchy-Crofton, see core.step_pairs)
    return _standard_entry(d, invariant=n <= 3, type_pairs=partition_pairs if d2 == "discrete" else step_pairs)


def arithmetic_mean(n: int) -> CatalogEntry:
    """Mean of the arguments minus their minimum (reals only).

    Repetition-invariant and nonincreasing exactly at n = 2, where d is
    |x_1 - x_2|/2 and identifying its two arguments gives 0.  For n >= 3,
    (0, ..., 0, 1) is 1/n, and identifying one of its 0s with its 1 gives
    the same value set at 2/n.
    """

    def ev(t: tuple) -> float:
        ts = sorted(t)
        m = ts[0]
        return sum(x - m for x in ts) / n  # exact 0.0 on constant tuples

    return _standard_entry(NDistance("arithmetic-mean", n, "real-line", ev), invariant=n == 2, type_pairs=step_pairs)


def fermat(n: int, d2: str = "abs") -> CatalogEntry:
    """Minimal summed ground distance from the arguments to one point.

    abs, chebyshev and discrete are standard, K*_{n,k} = 1/(k-1): the
    step-pair fold of ``core.step_pairs`` is exact for abs and chebyshev,
    and the type fold of ``partition_pairs`` for discrete.  For euclidean
    no closed-form best constant is known; the bracket below is the trivial
    lower bound 1/(n-1) and the known upper bound (4n-4)/(3n^2-4n).

    discrete: d(t) = n - mu, mu the largest multiplicity in t.  A section
    raises one multiplicity by at most one, so no section is below d - 1,
    and it is d - 1 only where z has multiplicity mu in t and t_i != z: at
    most n - mu = d positions.  Every other section is at least d.  So any
    k sections sum to at least k*d - min(k, d) >= d*(k-1), the ratio is at
    most 1/(k-1), and (x, y, ..., y) with z = y attains it.

    On every ground, repetition-invariant and nonincreasing exactly for
    n <= 3: two values x, y cost g(x, y) whatever their multiplicities,
    since 2g(p, x) + g(p, y) >= g(x, y), and identifying two of three
    values x, y, w leaves g(x, w) <= g(p, x) + g(p, y) + g(p, w).  At
    n = 4, (x, x, x, y) costs g(x, y) and (x, x, y, y) costs 2g(x, y).
    """

    def ev(t: tuple) -> float:
        return fermat_value(t, d2)

    d = NDistance(f"fermat[{d2}]", n, space_kind_for_ground(d2), ev)
    rep = n <= 3
    if d2 != "euclidean":  # chebyshev: the sum over (x + y)/2 and (x - y)/2
        return _standard_entry(d, invariant=rep, type_pairs=partition_pairs if d2 == "discrete" else step_pairs)
    bounds = (1.0 / (n - 1), (4.0 * n - 4.0) / (3.0 * n * n - 4.0 * n))
    return CatalogEntry(d, standard=None, repetition_invariant=rep, nonincreasing=rep, constant_bounds=bounds)


def line_count(n: int) -> CatalogEntry:
    """Number of lines determined by the distinct argument points.

    For n >= 3 the best constant is bracketed: 1/(n-2+2/n) <= K* < 1/(n-2),
    the upper bound strict.  For n <= 5 the fold over every linear-space
    type (``geometry.linear_space_pairs``) makes it exact: K*_n is the
    lower end, 3/5, 2/5 and 5/17 at n = 3, 4 and 5, and K*_{n,k} =
    (k+1)/(k(k-1)) for k < n (3/2, 2/3 and 5/12).
    """
    d = value_set_distance("line-count", n, "plane", lambda s: float(count_lines(s)))
    # n / (n^2 - 2n + 2) is 1/(n-2+2/n) in one correctly rounded division
    bounds = (n / (n * n - 2 * n + 2), 1.0 / (n - 2)) if n >= 3 else None
    constants = {}
    if n + 1 <= max(LINEAR_SPACE_TYPES):  # where linear_space_pairs reaches
        constants = {k: (k + 1) / (k * (k - 1)) for k in range(2, n)} | {n: n / (n * n - 2 * n + 2)}
    return CatalogEntry(
        d, standard=None, repetition_invariant=True, nonincreasing=True, type_pairs=linear_space_pairs,
        constants=constants, constant_bounds=bounds,
    )


def enclosing_radius(n: int) -> CatalogEntry:
    """Radius of the smallest circle enclosing the argument points.

    Standard, K*_{n,k} = 1/(k-1), exact through the one pair of
    ``circle_pairs`` (its docstring has the proof).
    """
    d = value_set_distance("enclosing-radius", n, "plane", lambda s: smallest_enclosing_circle(s).radius)
    return _standard_entry(d, type_pairs=circle_pairs)


def enclosing_area(n: int) -> CatalogEntry:
    """Area of the smallest circle enclosing the argument points (n >= 3).

    Nonstandard: the best constant is 1/(n - 3/2), and the best partial
    constants are 1/(k - 3/2), exact through the one pair of
    ``circle_pairs`` (its docstring has the proof).
    """
    if n < 3:
        raise ValueError("enclosing-area needs arity n >= 3")

    def area(s: list) -> float:
        r = smallest_enclosing_circle(s).radius
        return math.pi * r * r

    kk = {k: 1.0 / (k - 1.5) for k in range(2, n + 1)}
    d = value_set_distance("enclosing-area", n, "plane", area)
    return CatalogEntry(
        d, standard=False, repetition_invariant=True, nonincreasing=True, type_pairs=circle_pairs, constants=kk,
    )


def chebyshev_diameter(n: int, q: int = 2) -> CatalogEntry:
    """Diameter under the Chebyshev ground distance on R^q, q in {1, 2}."""
    if q not in (1, 2):
        raise ValueError("q must be 1 or 2")
    kind = "real-line" if q == 1 else "plane"
    d = _diameter_distance(f"chebyshev-diameter[q={q}]", n, kind, ground_distance("chebyshev"))
    return _standard_entry(d, type_pairs=step_pairs)


def gap_pairs(space: Space, n: int) -> tuple[tuple[tuple, Point], ...]:
    """The one pair t = (0, 2, ..., 2), z = 1, which carries K*_{n,k} = 2^p/k.

    d is the p-th power of the largest gap of t, p >= 1 real, for every
    n >= 2 (inner-interval is p = 1; below n = 2^p d is no n-distance, but
    the list still carries its constants).  At n = 2, d is |x_1 - x_2|^p
    and the ratio is at most 2^(p-1) = 2^p/2 by the triangle inequality and
    convexity: |z - x|^p + |y - z|^p >= 2^(1-p)|x - y|^p.  For n >= 3 let
    (a, b) be a largest gap of t, of length g:

    * z inside (a, b), with z - a = lambda*g.  A section that keeps a and
      b splits the gap at z, so its largest gap is at least
      max(lambda, 1-lambda)*g >= g/2.  Only the sections that drop the only
      copy of a, or of b, lose the split, and their largest gaps are at
      least b - z = (1-lambda)*g and z - a = lambda*g.  A k-set holds at
      most one of each, and max(lambda, 1-lambda) >= 1/2 and
      lambda^p + (1-lambda)^p >= 2^(1-p) (convexity), so the p-th powers
      of any k sections sum to at least k*g^p/2^p.
    * z outside (a, b).  A section keeps a gap of length at least g
      unless it drops the only copy of a, or of b, from an end of t.  At
      n >= 3 a and b cannot both be single copies at the ends, since no
      point lies strictly between them.  So at most one section loses the
      gap, and the ratio is at most 1/(k-1) <= 2^p/k.

    So K*_{n,k} <= 2^p/k, and the pair attains it: d = 2^p and every
    section's largest gap is 1, so each ratio is the one correctly rounded
    division 2^p/k (2/3 is 0.6666666666666666).  The list depends only on
    n, so it is built once and shared.
    """
    return _gap_pair(n)


@functools.cache
def _gap_pair(n: int) -> tuple[tuple[tuple, Point], ...]:
    return (((0.0,) + (2.0,) * (n - 1), 1.0),)


def circle_pairs(space: Space, n: int) -> tuple[tuple[tuple, Point], ...]:
    """The one pair t = ((0, 0), (1, 0), ..., (1, 0), (2, 0)), z = (1, 0).

    It carries K*_{n,k} of the smallest enclosing circle: 1/(k-1) for its
    radius and 1/(k-3/2) for its area.  Let R be the radius of the circle
    of t, fixed by a support set B of t on its boundary: a diametral pair
    {a, b}, or a triangle {a, b, c} with no obtuse angle and circumradius
    R.  A section that keeps every point of B keeps radius >= R; only the
    sections that drop the only copy of a support point can shrink.

    * Two supports.  The section without a still holds b and z, and the
      one without b holds a and z, so their radii are at least |b - z|/2
      and |a - z|/2, which sum to at least |a - b|/2 = R, and their areas
      sum to at least pi(|a - z|^2 + |b - z|^2)/4 >= pi R^2/2.
    * Three supports.  The section without a holds b and c, so its radius
      is at least |bc|/2 = R sin A, and likewise for b and c.  No angle is
      obtuse, so A + B >= pi/2 and sin A + sin B >= sin A + cos A >= 1,
      sin^2 A + sin^2 B >= 1; with all three, sin A + sin B + sin C >= 2
      (a concave function of the angles, least at (pi/2, pi/2, 0)) and
      sin^2 A + sin^2 B + sin^2 C = 2 + 2 cos A cos B cos C >= 2.

    So any k sections sum to at least (k-1)R, and their areas to at least
    (k-3/2) pi R^2: K*_{n,k} <= 1/(k-1) for the radius and <= 1/(k-3/2)
    for the area.  The pair attains both: d(t) = 1 (area pi), the sections
    that drop (0, 0) or (2, 0) are 1/2 (pi/4), and those that drop a
    midpoint are 1 (pi).  At n = 2 it is t = ((0, 0), (2, 0)).  The radius
    bound is the one correctly rounded division 1/(k-1); the area bound,
    pi over the rounded (k-3/2) pi, may be an ulp off 1/(k-3/2).  The list
    depends only on n, so it is built once and shared.
    """
    return _circle_pair(n)


@functools.cache
def _circle_pair(n: int) -> tuple[tuple[tuple, Point], ...]:
    return ((((0.0, 0.0),) + ((1.0, 0.0),) * (n - 2) + ((2.0, 0.0),), (1.0, 0.0)),)


def partition_pairs(space: Space, n: int, anchors: tuple = ()) -> tuple[tuple[tuple, Point], ...] | None:
    """One (t, z) per equality type of n arguments and a point z, the ``anchors`` marked.

    The type of (t, z) is the partition of the n+1 arguments into blocks of
    equal points, with the block of each anchor marked, up to permutations
    of t.  For each number c_a = 0..n of copies of each anchor a and each
    integer partition of the rest, n - sum c_a = m_1 + ... + m_b,
    m_1 >= ... >= m_b, the list holds the sorted t that holds each anchor
    c_a times and gives the j-th other label m_j times, with z each anchor,
    the label of the first of the b blocks of each distinct size, or the
    next unused label that is no anchor.  Types with more blocks than the
    space has labels do not occur and are left out, and so is a constant t,
    which no ratio counts.  Without anchors that is 10, 16 and 25 pairs at
    n = 4, 5 and 6 on five labels.

    They carry K*_{n,k} of every symmetric d with d(f(t)) = d(t) for every
    injection f of the points that fixes each anchor, applied to each
    argument: such a d sees only which arguments are equal and which are
    anchors.  A section commutes with f, sec_i(f(t), f(z)) = f(sec_i(t, z)),
    so every section is f-invariant too, and permuting t only permutes its
    sections, which leaves the k smallest as a multiset.  So the ratio to
    the k smallest sections depends only on the type.  Every (t, z) has a
    listed type: permute t so that equal points are adjacent and the
    blocks of the other points come in non-increasing size, swap those of
    equal size so that z lies in the first block of its size (or in none),
    and relabel them by the injection onto the other labels in order.  Each
    listed pair is a real configuration, so the max of the fold is
    K*_{n,k}.  It is also the lexicographically smallest sorted
    representative of its type, which an exhaustive enumeration's
    tie-break picks (moving a block onto a smaller unused label, or the
    larger of two blocks onto the smaller label, makes the sorted t
    smaller), so on a finite space the fold gives the enumeration's bound,
    witness and indices.

    The anchors are labels of a finite space; those not on ``space`` are
    dropped, since d sees none of them there.  The other labels are the
    sorted labels of a finite space, 0, 1, ..., n on the line and (0, 0),
    (1, 0), ..., (n, 0) on the plane.  The list is an immutable tuple,
    built once per (labels, n, anchors), or None where its pairs would hold
    more than ``PARTITION_POINT_LIMIT`` points; the walk over the types
    counts them and stops at the first type past the limit, before any
    tuple is built, and the None is kept too.
    """
    if space.kind == "finite":
        anchors = tuple(sorted(set(anchors).intersection(space.labels)))
        labels = sorted(set(space.labels).difference(anchors))
    else:
        anchors, labels = (), [float(i) if space.kind == "real-line" else (float(i), 0.0) for i in range(n + 1)]
    return _partition_pairs(tuple(labels), n, anchors, PARTITION_POINT_LIMIT)


# the most points in the pairs of ``partition_pairs``, about 32 MB of references,
# counted on the walk over the types that builds them; the line passes it from
# n = 37 (120,768 pairs), three labels from n = 251
PARTITION_POINT_LIMIT = 4 * 10**6


def _integer_partitions(n: int, parts: int) -> Iterator[tuple[int, ...]]:
    """The partitions of n into at most ``parts`` parts, largest first part first.

    Each is non-increasing.  The next one lowers by one the last part a_i
    that leaves room for the rest, r, in parts of at most a_i - 1 after it,
    and fills r in greedily.
    """
    a = [n] if n else []
    if len(a) > parts:
        return
    while True:
        yield tuple(a)
        r, i = 1, len(a) - 1
        while i >= 0 and not (1 < a[i] and r <= (a[i] - 1) * (parts - i - 1)):
            r += a[i]
            i -= 1
        if i < 0:
            return
        v = a[i] - 1
        q, m = divmod(r, v)
        a[i:] = [v] * (q + 1) + [m] * (m > 0)


@functools.cache
def _partition_pairs(labels: tuple, n: int, anchors: tuple, limit: int) -> tuple[tuple[tuple, Point], ...] | None:
    types, points = [], 0
    # s points on the anchors, held as a sorted multiset of them; without other labels they hold all n
    for s in range(0 if labels else n, n + 1):
        for held in itertools.combinations_with_replacement(anchors, s):
            for sizes in _integer_partitions(n - s, len(labels)):
                if len(sizes) + len(set(held)) < 2:
                    continue
                # z is each anchor, the first block of each distinct size, or the next unused label
                points += n * (len(anchors) + len(set(sizes)) + (len(sizes) < len(labels)))
                if points > limit:
                    return None
                types.append((held, sizes))
    out = []
    for held, sizes in types:
        b = len(sizes)
        t = tuple(sorted(held + tuple(labels[j] for j, m in enumerate(sizes) for _ in range(m))))
        zs = [labels[j] for j, m in enumerate(sizes) if j == 0 or sizes[j - 1] != m] + list(labels[b:b + 1])
        out.extend((t, z) for z in anchors + tuple(zs))
    return tuple(out)


def _gap_entry(name: str, n: int, p: float, f: Callable[[list], float]) -> CatalogEntry:
    """The p-th power of the largest gap, n >= 2^p: K*_{n,k} = 2^p/k through ``gap_pairs``.

    Repetition-invariant, since the largest gap depends only on the set of
    values.  Standard and nonincreasing exactly at n = 2, where p = 1 and d
    is |x_1 - x_2|: identifying its two arguments gives 0.  For n >= 3 the
    best constant 2^p/n is above 1/(n-1), and identifying the 1 of
    (0, 1, 2, ..., 2), largest gap 1, with its 0 doubles the largest gap.
    """
    return CatalogEntry(
        value_set_distance(name, n, "real-line", f), standard=(n == 2), repetition_invariant=True,
        nonincreasing=(n == 2), type_pairs=gap_pairs, constants={k: 2**p / k for k in range(2, n + 1)},
    )


def largest_inner_interval(n: int) -> CatalogEntry:
    """Largest gap between consecutive sorted arguments.

    Nonstandard for n >= 3: best constant 2/n, best partial constants 2/k,
    exact through the one pair of ``gap_pairs`` (its docstring has the
    proof).  Repetition-invariant, and nonincreasing under identification
    only at n = 2.
    """
    return _gap_entry("inner-interval", n, 1, _largest_gap)


def inner_interval_power(n: int, p: int) -> CatalogEntry:
    """p-th power of the largest inner interval; an n-distance iff n >= 2^p.

    Best partial constants 2^p/k for every k, best constant 2^p/n, exact
    through the one pair of ``gap_pairs`` (its docstring has the proof).
    """
    if p < 1 or not math.isfinite(p):
        raise ValueError(f"p must be finite and at least 1, got {p!r}")
    # n < 2^n.bit_length(), so a larger p needs no power, which could overflow
    if p >= n.bit_length() or n < 2**p:
        raise ValueError(f"not an n-distance for n < 2^p (n={n}, p={p})")
    return _gap_entry(f"inner-interval-power[p={p}]", n, p, lambda s: _largest_gap(s) ** p)


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
