"""Planar primitives behind the geometric n-ary distances.

The smallest enclosing circle uses the randomized incremental construction
(expected linear time).  Input points are deduplicated and sorted before a
fixed-seed shuffle, so every result is a deterministic function of the point
set alone.  That shuffle's permutation depends only on the number of points,
so it is drawn once per length and cached (Welzl 1991 needs a random order,
not a fresh one per call).  An input of two or three distinct points takes
a straight-line path that makes the loop's own calls in its order, and the
loop skips the steps whose outcome is known (its first rebuild, the first
diameter circle of each rebuild, and the rebuilding point itself), so every
result is the float the full construction gives.  A circumcircle that
overflows, which coordinates past ``ENCLOSING_COORD_LIMIT`` can cause,
raises ValueError instead of returning a wrong circle.

The euclidean Fermat value first tests the cheapest data point for
optimality (Vardi & Zhang 2000).  When that fails, up to four points have
closed forms (Fermat-Torricelli for three, Plastria 2006 for four), and
Weiszfeld runs only from five points on.  Up to four points, the pairwise
distances are computed once and serve the costs, the test and the closed form.
Line counts are exact.  When the floating-point orientation test of
Shewchuk (1997), inside the window where its error bound holds, certifies
every triple non-collinear, the count is C(m, 2) for m distinct points.
Otherwise line keys are exact: coordinates are scaled by one power of two
into integers, so near-collinear floats are never merged or split by
rounding.  A line count depends only on the linear space the points
induce, so ``linear_space_pairs`` lists one configuration per type.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from typing import NamedTuple

_SHUFFLE_SEED = 0x5EC0FFEE  # fixed: identical input sets give identical circles
_REL_EPS = 1 + 1e-14  # multiplicative slack for boundary membership tests
_WEISZFELD_TOL = 1e-10  # Weiszfeld stops once a step moves the point less than this
_WEISZFELD_MAX_ITER = 10_000
# Shewchuk's stage-A orientation bound (3 + 16 eps) eps, eps = 2^-53, and the
# window of |l| + |r| in which count_lines trusts it
_ORIENT_ERR = (3.0 + 16.0 * 2.0**-53) * 2.0**-53
_ORIENT_LOW, _ORIENT_HIGH = 2.0**-400, 2.0**400
# coordinates within +-2^340 (about 2.2e102) keep the enclosing circle's cubic terms finite
ENCLOSING_COORD_LIMIT = 2.0**340

GROUND_KINDS = ("abs", "euclidean", "chebyshev", "discrete")


class Circle(NamedTuple):
    center: tuple[float, float]
    radius: float


def smallest_enclosing_circle(points) -> Circle:
    """Minimal-radius circle enclosing all the points (at least one required).

    Coordinates must lie within +-``ENCLOSING_COORD_LIMIT`` = 2^340, about
    2.2e102.  There the circumcircle's cubic terms, at most 12 L^3 for
    coordinates within +-L, stay below 2^1024.  Past about 1e103 they can
    overflow, and the loop would go on from a nan radius to a wrong circle
    (a radius 5% short at 1e155), so a circumcircle that is not finite
    raises ValueError when one of its points lies past the limit.  Within
    it, a not finite circumcircle comes only from nearly collinear points
    and loses to the other candidates as before.  Past about 8.9e307 the
    midpoints overflow too, and the radius comes out inf.

    Each input takes one of three paths, and each returns the floats of
    Welzl's loop on the sorted, shuffled set of distinct points:

    * Two points that differ as floats: their diameter circle, the one call
      the loop makes on them, made with the smaller point first as sorting
      does (the order shows only where an infinite coordinate makes a nan).
    * Three distinct points: sorted into the order a, b, c that
      ``_shuffle_order(3)`` gives, then the loop unrolled, with the same
      calls and comparisons: the diameter circle of b and a; if c falls
      outside it, that of c and a; if b falls outside that,
      ``_circle_two_boundary([a, b], c, b)``.
    * Any other input (repeats, four or more points): the set, sorted and
      shuffled.  One distinct point is the loop's zero-radius start.  From
      two on, the loop runs with the steps whose outcome is known taken
      out.  Its second point always falls outside that start, as the
      distance between distinct points is never <= 0.0, so the loop
      starts from their diameter circle.  When the i-th point p falls
      outside, the circle is rebuilt with p on its boundary: the first
      step, j = 0, always gives the diameter circle of p and the first
      point, which are distinct, and every circle built from then on holds
      p within its radius, which is the largest distance from its center
      to the points that define it, p among them.  So the inner loop
      starts at j = 1 with that circle and stops before j = i, where p
      would be found inside.
    """
    pts = [(float(p[0]), float(p[1])) for p in points]
    m = len(pts)
    if m == 2:
        a, b = pts
        if a != b:
            cx, cy, r = _diameter_circle(a, b) if a < b else _diameter_circle(b, a)
            return Circle((cx, cy), r)
    if m == 3:
        c, a, b = sorted(pts)  # a, b, c: the order of _shuffle_order(3) = (1, 2, 0)
        if c != a != b:
            cx, cy, r = _diameter_circle(b, a)
            if math.hypot(c[0] - cx, c[1] - cy) <= r * _REL_EPS:
                return Circle((cx, cy), r)
            cx, cy, r = _diameter_circle(c, a)
            if math.hypot(b[0] - cx, b[1] - cy) <= r * _REL_EPS:
                return Circle((cx, cy), r)
            cx, cy, r = _circle_two_boundary([a, b], c, b)
            return Circle((cx, cy), r)
    pts = sorted(set(pts))
    if not pts:
        raise ValueError("at least one point required")
    if len(pts) == 1:
        return Circle(pts[0], 0.0)
    pts = [pts[i] for i in _shuffle_order(len(pts))]
    hypot = math.hypot
    cx, cy, r = _diameter_circle(pts[1], pts[0])
    for i in range(2, len(pts)):
        p = pts[i]
        if hypot(p[0] - cx, p[1] - cy) <= r * _REL_EPS:
            continue
        # smallest circle of pts[: i + 1] with p on the boundary
        cx, cy, r = _diameter_circle(p, pts[0])
        for j in range(1, i):
            q = pts[j]
            if hypot(q[0] - cx, q[1] - cy) <= r * _REL_EPS:
                continue
            cx, cy, r = _circle_two_boundary(pts[: j + 1], p, q)
    return Circle((cx, cy), r)


@functools.lru_cache
def _shuffle_order(m: int) -> tuple[int, ...]:
    # the permutation random.Random(_SHUFFLE_SEED).shuffle applies to any m-list
    order = list(range(m))
    random.Random(_SHUFFLE_SEED).shuffle(order)
    return tuple(order)


def _circle_two_boundary(pts: list, p: tuple, q: tuple) -> tuple:
    # smallest circle of pts with both p and q on the boundary; left and right
    # keep the circumcircles whose centers lie farthest along each side of pq
    circ = _diameter_circle(p, q)
    cx, cy, bound = circ[0], circ[1], circ[2] * _REL_EPS
    px, py = p
    dx, dy = q[0] - px, q[1] - py
    left = right = None
    left_d = right_d = 0.0
    for r in pts:
        if math.hypot(r[0] - cx, r[1] - cy) <= bound:
            continue
        cross = dx * (r[1] - py) - dy * (r[0] - px)
        c = _circumcircle(p, q, r)
        if c is None:
            continue
        d = dx * (c[1] - py) - dy * (c[0] - px)
        if cross > 0.0 and (left is None or d > left_d):
            left, left_d = c, d
        elif cross < 0.0 and (right is None or d < right_d):
            right, right_d = c, d
    if left is None and right is None:
        return circ
    if left is None:
        return right
    if right is None:
        return left
    return left if left[2] <= right[2] else right


def _diameter_circle(a: tuple, b: tuple) -> tuple:
    cx = (a[0] + b[0]) / 2.0
    cy = (a[1] + b[1]) / 2.0
    r = max(math.hypot(cx - a[0], cy - a[1]), math.hypot(cx - b[0], cy - b[1]))
    return (cx, cy, r)


def _circumcircle(a: tuple, b: tuple, c: tuple) -> tuple | None:
    # shift toward the bounding-box midpoint to reduce cancellation
    ox = (min(a[0], b[0], c[0]) + max(a[0], b[0], c[0])) / 2.0
    oy = (min(a[1], b[1], c[1]) + max(a[1], b[1], c[1])) / 2.0
    ax, ay = a[0] - ox, a[1] - oy
    bx, by = b[0] - ox, b[1] - oy
    cx, cy = c[0] - ox, c[1] - oy
    d = (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by)) * 2.0
    if d == 0.0:
        return None
    x = ox + ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay) + (cx * cx + cy * cy) * (ay - by)) / d
    y = oy + ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx) + (cx * cx + cy * cy) * (bx - ax)) / d
    r = max(math.hypot(x - p[0], y - p[1]) for p in (a, b, c))
    # r is nan or inf exactly when x or y is; past the limit the cubic terms overflowed
    if not r < math.inf and max(map(abs, (*a, *b, *c))) > ENCLOSING_COORD_LIMIT:
        raise ValueError(f"circumcircle overflows; coordinates must lie within +-{ENCLOSING_COORD_LIMIT:.3g} (2^340)")
    return (x, y, r)


# ---------------------------------------------------------------------------
# line counting


def count_lines(points) -> int:
    """Number of distinct straight lines through pairs of distinct points.

    Sampled points almost never have three on a line, and then every pair
    spans its own line: m distinct points give m(m-1)/2.  Each triple is
    first certified non-collinear in floats by the stage-A orientation
    test of Shewchuk ("Adaptive Precision Floating-Point Arithmetic and
    Fast Robust Geometric Predicates", 1997): with l = (a-c)x (b-c)y,
    r = (a-c)y (b-c)x and s = |l| + |r|, the rounded l - r has the sign of
    the exact determinant whenever |l - r| > (3 + 16 eps) eps s, eps =
    2^-53.  The bound is only used while 2^-400 < s < 2^400, where no
    difference or product overflows and underflow errors are far below
    its slack; nan and inf fall outside the window.

    When any triple is not certified, the count is exact by integer keys.
    Every float is a dyadic rational, so multiplying all coordinates by the
    largest denominator (a power of two) makes them exact integers.  Lines
    then get exact gcd-normalized (a, b, c) keys for ax + by = c, and
    near-collinear points are told apart however close they are.
    """
    pts = {(float(p[0]), float(p[1])) for p in points}
    m = len(pts)
    if m < 2:
        return 0
    for (ax, ay), (bx, by), (cx, cy) in itertools.combinations(pts, 3):
        l = (ax - cx) * (by - cy)
        r = (ay - cy) * (bx - cx)
        s = abs(l) + abs(r)
        if not (_ORIENT_LOW < s < _ORIENT_HIGH and abs(l - r) > _ORIENT_ERR * s):
            break
    else:
        return m * (m - 1) // 2
    ratios = [(x.as_integer_ratio(), y.as_integer_ratio()) for x, y in pts]
    scale = max(max(xd, yd) for (_, xd), (_, yd) in ratios)
    pts = [(xn * (scale // xd), yn * (scale // yd)) for (xn, xd), (yn, yd) in ratios]
    return len({_line_key(p, q) for p, q in itertools.combinations(pts, 2)})


def _line_key(p: tuple, q: tuple) -> tuple:
    # p != q, so a and b are not both 0 and the gcd is positive
    a = q[1] - p[1]
    b = p[0] - q[0]
    c = a * p[0] + b * p[1]
    g = math.gcd(a, b, c)
    if a < 0 or (a == 0 and b < 0):
        g = -g
    return (a // g, b // g, c // g)


# One integer configuration per isomorphism class of linear spaces on m
# points, m = 1..6: 1, 1, 2, 3, 5 and 10 classes.  A configuration is
# written as its points "xy", single-digit coordinates; strings keep the
# module quick to compile.  Each is named by its lines of three or more
# points; every other pair of points is a line.
LINEAR_SPACE_TYPES: dict[int, tuple[str, ...]] = {
    1: ("00",),
    2: ("00 01",),
    3: (
        "00 01 02",  # one line
        "00 01 10",  # triangle
    ),
    4: (
        "00 01 02 03",  # one line
        "00 01 02 10",  # a 3-line
        "00 01 10 11",  # general position
    ),
    5: (
        "00 01 02 03 04",  # one line
        "00 01 02 03 10",  # a 4-line
        "00 01 02 10 20",  # two 3-lines through a point
        "00 01 02 10 11",  # a 3-line
        "00 01 10 11 23",  # general position
    ),
    6: (
        "00 01 02 03 04 05",  # one line
        "00 01 02 03 04 10",  # a 5-line
        "00 01 02 03 10 11",  # a 4-line
        "00 01 02 03 10 20",  # a 4-line and a 3-line through a point
        "00 01 02 10 11 23",  # a 3-line
        "00 01 02 10 11 21",  # two 3-lines through a point
        "00 01 02 10 11 12",  # two disjoint 3-lines
        "00 01 02 10 11 20",  # three 3-lines, a triangle
        "00 01 03 11 22 41",  # four 3-lines, the complete quadrilateral
        "00 01 10 11 23 32",  # general position
    ),
}


def linear_space_pairs(space, n: int) -> tuple[tuple[tuple, tuple], ...] | None:
    """Every (t, z) over ``LINEAR_SPACE_TYPES`` on at most n + 1 points, or None for n >= 6.

    For each configuration P of at least two points, each z in P and each
    sorted multiset t of n points of P with set(t) | {z} = P, the pair
    (t, z) in floats, leaving out the constant t, which no ratio counts.
    They carry K*_{n,k} of line-count for every k:

    * ``count_lines`` of a point set is the number of lines of the linear
      space it induces: its maximal collinear subsets, every pair of
      points lying on exactly one.  The linear space of a subset is the
      restriction of that of P.
    * So d(t), and every section of (t, z), is a function of the labelled
      linear space of the arguments: the map from x_1..x_n, z onto the
      distinct points P, and the linear space of P.
    * Every linear space on m <= 6 points is isomorphic to the one a listed
      P induces (``tests/test_geometry.py`` checks the table against an
      abstract enumeration).  Relabelling (t, z) through the isomorphism
      keeps the labelled linear space, hence the ratio at every k.  The
      ratio does not change under permutations of t (the sections permute
      along), so the sorted multiset suffices.
    * The max over the list is therefore an upper bound on every ratio, and
      each listed pair is a real configuration: it is K*_{n,k}.

    All values are small integers, so every ratio is one correctly rounded
    division.  Seven points admit the Fano plane, which no planar point set
    induces, so from n = 6 on the list would need a realizability test.
    The list depends only on n, so it is built once and shared.
    """
    return _linear_space_pairs(n)


@functools.cache
def _linear_space_pairs(n: int) -> tuple[tuple[tuple, tuple], ...] | None:
    if n + 1 > max(LINEAR_SPACE_TYPES):
        return None
    out = []
    for m in range(2, n + 2):  # one point has only constant t
        for config in LINEAR_SPACE_TYPES[m]:
            pts = tuple((float(x), float(y)) for x, y in config.split())
            for z in pts:
                for t in itertools.combinations_with_replacement(pts, n):
                    if len(set(t) | {z}) == m and t[0] != t[-1]:
                        out.append((t, z))
    return tuple(out)


# ---------------------------------------------------------------------------
# Fermat values (minimal total ground distance to one witness point)


def fermat_value(points, ground: str = "abs") -> float:
    """min over x of the summed ground distance from the points to x.

    * ``abs`` (reals): exact, any median minimizes the sum.
    * ``euclidean`` (plane): the cheapest data point v is returned at once
      when it passes the vertex optimality test |sum over p != v of
      k_p (p - v)/|p - v|| <= k_v (k: multiplicities).  A data point that
      is optimal passes it, and so does the cheapest one.  When it fails,
      inputs of up to four points have closed forms:

      - Two points: both are optimal, so v is returned without the test.
      - Three points: the test fails exactly when every angle is below
        120 degrees (at a vertex of angle a the two unit vectors sum to
        length 2 cos(a/2)).  The minimum is then the Fermat-Torricelli value
        sqrt((a^2 + b^2 + c^2)/2 + 2 sqrt(3) area), a, b, c the sides.
        At a repeated point, (x, x, y) passes at x, since 1 <= 2.
      - Four points: for every x and every pairing {p, q}, {r, s},
        cost(x) >= |pq| + |rs| by the triangle inequality, so the minimum
        is at least the largest pairing sum.  When no data point is
        optimal, the points are distinct and in strictly convex position
        (Plastria, "Four-point Fermat location problems revisited", 2006).
        The optimum is then the crossing of the diagonals, where the cost
        is the sum of the diagonals: the largest pairing sum, returned as
        such.  A repeated point needs no other branch.  With multiplicities
        (2, 1, 1) the doubled point passes, as |u1 + u2| <= 2 for unit
        vectors u1, u2.  With two distinct points, a point of multiplicity
        k >= 2 passes: |(4 - k) u| = 4 - k <= k.

      On every repeated input the closed form is the minimum too (for
      (x, x, y, z) the pairing {x, y}, {x, z} gives cost(x)), and at
      120 degrees or on a flattened quadrilateral it meets the vertex
      cost, so a test that fails by rounding still returns the minimum.

      Up to four points the pairwise distances are computed once, six
      hypot calls for four points, and serve the vertex costs, the vertex
      test and the pairing sum.  Each cost is the left-to-right sum of the
      distances in sorted order; the zero self-distance is skipped, which
      is exact.  From Python 3.12 on, ``sum()`` of floats is compensated,
      which is why the order is stated.  A tie goes to the smallest point.

      From five points on, Weiszfeld iteration with vertex-stall handling:
      it stops when a step moves less than ``_WEISZFELD_TOL`` (1e-10) or
      after ``_WEISZFELD_MAX_ITER`` (10^4) iterations; the best value found
      is returned even if the iteration did not converge.  That value is
      the cost of a real point, so it is an upper bound on the minimum and
      never below it.  In a ratio d(t) / (sum of sections) the numerator
      and every section may each read high, so the ratio's error has no
      known sign: a numerator read high raises it, a denominator read
      high lowers it.
    * ``chebyshev`` (plane): exact via the rotation u = x+y, v = x-y, which
      makes the objective separable into two median problems.
    * ``discrete`` (finite labels): exact, the minimizer is a modal label.
    """
    pts = sorted(points)
    if not pts:
        raise ValueError("at least one point required")
    if ground == "discrete":
        return float(len(pts) - max(Counter(pts).values()))
    if ground == "abs" or (ground in ("chebyshev", "euclidean") and not isinstance(pts[0], tuple)):
        return float(_median_cost(pts))
    if ground == "chebyshev":
        us = sorted(x + y for x, y in pts)
        vs = sorted(x - y for x, y in pts)
        return (_median_cost(us) + _median_cost(vs)) / 2.0
    if ground == "euclidean":
        return _small_fermat(pts) if len(pts) <= 4 else _weiszfeld(pts)
    raise ValueError(f"unknown ground distance: {ground}")


def _median_cost(xs: list) -> float:
    """Summed |x - m| over sorted reals ``xs``, m a median of them."""
    m = xs[(len(xs) - 1) // 2]
    return sum(abs(x - m) for x in xs)


def _runs(equal: tuple) -> tuple:
    """(first index, multiplicity) of each run of sorted points; ``equal[j]``: points j and j + 1 are equal."""
    runs = [[0, 1]]
    for j, same in enumerate(equal, 1):
        if same:
            runs[-1][1] += 1
        else:
            runs.append([j, 1])
    return tuple(map(tuple, runs))


# the runs of three or four sorted points, keyed by which neighbours are equal
_RUNS = {equal: _runs(equal) for r in (2, 3) for equal in itertools.product((False, True), repeat=r)}


def _small_fermat(pts: list) -> float:
    """The euclidean Fermat value of one to four sorted points, from their pairwise distances."""
    m = len(pts)
    if m == 1:
        return 0.0
    hypot = math.hypot
    (ax, ay), (bx, by) = pts[0], pts[1]
    ab = hypot(bx - ax, by - ay)
    if m == 2:
        return ab
    cx, cy = pts[2]
    ac = hypot(cx - ax, cy - ay)
    bc = hypot(cx - bx, cy - by)
    # a zero distance marks equal neighbours: for finite floats x - y == 0 only when x == y
    if m == 3:
        rows = ((0.0, ab, ac), (ab, 0.0, bc), (ac, bc, 0.0))
        costs = (ab + ac, ab + bc, ac + bc)
        runs = _RUNS[ab == 0.0, bc == 0.0]
    else:
        dx, dy = pts[3]
        ad = hypot(dx - ax, dy - ay)
        bd = hypot(dx - bx, dy - by)
        cd = hypot(dx - cx, dy - cy)
        rows = ((0.0, ab, ac, ad), (ab, 0.0, bc, bd), (ac, bc, 0.0, cd), (ad, bd, cd, 0.0))
        costs = (ab + ac + ad, ab + bc + bd, ac + bc + cd, ad + bd + cd)
        runs = _RUNS[ab == 0.0, bc == 0.0, cd == 0.0]
    best = min(costs)
    i = costs.index(best)  # the first of its run: equal points cost the same
    vx, vy = pts[i]
    row = rows[i]
    gx = gy = 0.0  # the vertex test, over the runs in sorted order
    for j, k in runs:
        if j == i:
            kv = k
        else:
            px, py = pts[j]
            gx += k * (px - vx) / row[j]
            gy += k * (py - vy) / row[j]
    if hypot(gx, gy) <= kv:
        return best
    if m == 3:
        squares = (bx - ax) ** 2 + (by - ay) ** 2 + (cx - bx) ** 2 + (cy - by) ** 2 + (cx - ax) ** 2 + (cy - ay) ** 2
        twice_area = abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
        return math.sqrt(squares / 2.0 + math.sqrt(3.0) * twice_area)
    return max(ab + cd, ac + bd, ad + bc)


def _weiszfeld(pts: list) -> float:
    """The euclidean Fermat value of five or more sorted points."""

    def cost(q: tuple) -> float:
        return sum(math.hypot(p[0] - q[0], p[1] - q[1]) for p in pts)

    counts = Counter(pts)
    best, v = min((cost(q), q) for q in counts)  # a tie goes to the smallest point
    # Vardi & Zhang: v is a minimizer iff the unit vectors towards the other
    # points, weighted by multiplicity, sum to a length of at most k_v
    gx = gy = 0.0
    for p, k in counts.items():
        if p != v:
            d = math.hypot(p[0] - v[0], p[1] - v[1])
            gx += k * (p[0] - v[0]) / d
            gy += k * (p[1] - v[1]) / d
    if math.hypot(gx, gy) <= counts[v]:
        return best
    m = len(pts)
    x = (sum(p[0] for p in pts) / m, sum(p[1] for p in pts) / m)
    best = min(best, cost(x))
    for _ in range(_WEISZFELD_MAX_ITER):
        sx = sy = sw = 0.0
        dx = dy = 0.0
        coincident = 0
        for p in pts:
            dist = math.hypot(p[0] - x[0], p[1] - x[1])
            if dist < 1e-12:
                coincident += 1
                continue
            w = 1.0 / dist
            sx += w * p[0]
            sy += w * p[1]
            sw += w
            dx += (p[0] - x[0]) * w
            dy += (p[1] - x[1]) * w
        if sw == 0.0:
            break  # every point coincides with x
        if coincident:
            g = math.hypot(dx, dy)
            if g <= coincident:
                break  # subgradient optimality at a repeated point
            x = (x[0] + 1e-8 * dx / g, x[1] + 1e-8 * dy / g)  # nudge off the stall
        else:
            nxt = (sx / sw, sy / sw)
            moved = math.hypot(nxt[0] - x[0], nxt[1] - x[1])
            x = nxt
            if moved < _WEISZFELD_TOL:
                break
        c = cost(x)
        if c < best:
            best = c
    return min(best, cost(x))


# ---------------------------------------------------------------------------
# ground binary distances


def ground_distance(kind: str):
    """The binary distance behind a ground kind; total on its point kind."""
    if kind == "abs":
        return lambda x, y: abs(x - y)
    if kind == "euclidean":
        return math.dist
    if kind == "chebyshev":
        def cheb(x, y):
            if isinstance(x, tuple):
                return max(abs(x[0] - y[0]), abs(x[1] - y[1]))
            return abs(x - y)

        return cheb
    if kind == "discrete":
        return lambda x, y: 0.0 if x == y else 1.0
    raise ValueError(f"unknown ground distance: {kind}")


def space_kind_for_ground(kind: str) -> str:
    if kind == "abs":
        return "real-line"
    if kind in ("euclidean", "chebyshev"):
        return "plane"
    if kind == "discrete":
        return "finite"
    raise ValueError(f"unknown ground distance: {kind}")
