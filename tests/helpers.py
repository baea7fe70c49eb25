"""Slow reference oracles the fast library code is tested against."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from simplex_lab import core
from simplex_lab.geometry import _REL_EPS, _SHUFFLE_SEED, _circumcircle, _diameter_circle


def brute_circle(points):
    """Smallest enclosing circle by exhaustive search.

    Every minimal circle is either the diameter circle of two points or the
    circumcircle of three, so trying all of them is exact.  O(n^4), fine for
    the handful of points used in tests.  The cover and collinearity slacks
    are relative to the size of the configuration (its radius or largest
    coordinate), so tiny and nearly collinear configurations get their true
    radius.
    """
    pts = list(dict.fromkeys((float(x), float(y)) for x, y in points))
    if not pts:
        raise ValueError("no points")
    if len(pts) == 1:
        return (pts[0][0], pts[0][1], 0.0)
    scale = max(abs(v) for p in pts for v in p)

    def covers(c):
        cx, cy, r = c
        bound = r + 1e-12 * max(r, scale)
        return all(math.hypot(x - cx, y - cy) <= bound for x, y in pts)

    best = None
    for a, b in itertools.combinations(pts, 2):
        cx, cy = (a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0
        c = (cx, cy, math.hypot(a[0] - cx, a[1] - cy))
        if covers(c) and (best is None or c[2] < best[2]):
            best = c
    for a, b, c3 in itertools.combinations(pts, 3):
        d = 2.0 * (a[0] * (b[1] - c3[1]) + b[0] * (c3[1] - a[1]) + c3[0] * (a[1] - b[1]))
        if abs(d) <= 1e-12 * scale * scale:
            continue
        ux = ((a[0] ** 2 + a[1] ** 2) * (b[1] - c3[1])
              + (b[0] ** 2 + b[1] ** 2) * (c3[1] - a[1])
              + (c3[0] ** 2 + c3[1] ** 2) * (a[1] - b[1])) / d
        uy = ((a[0] ** 2 + a[1] ** 2) * (c3[0] - b[0])
              + (b[0] ** 2 + b[1] ** 2) * (a[0] - c3[0])
              + (c3[0] ** 2 + c3[1] ** 2) * (b[0] - a[0])) / d
        cand = (ux, uy, math.hypot(a[0] - ux, a[1] - uy))
        if covers(cand) and (best is None or cand[2] < best[2]):
            best = cand
    return best


def _golden_min(f, lo, hi, iters=60):
    """Minimum value of a convex function on [lo, hi] by golden-section search."""
    r = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - r * (hi - lo), lo + r * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - r * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + r * (hi - lo)
            fd = f(d)
    return min(fc, fd)


def grid_fermat(points, ground="abs", rounds=8):
    """Minimum total ground distance to a free point.

    On the line by grid refinement, good to about 1e-6 after the default
    number of rounds.  In the plane by nested golden-section search over the
    bounding box: the cost is convex, so min over y is convex in x and both
    searches keep the minimizer bracketed.  A grid refined around its best
    point can lose the minimizer when the level sets are long and thin, as
    they are near a data point that is nearly optimal.  Used only to
    cross-check the closed-form and iterative solvers.
    """
    pts = [p for p in points]
    if ground == "abs":
        lo = min(pts) - 1.0
        hi = max(pts) + 1.0

        def cost(z):
            return sum(abs(x - z) for x in pts)

        best_z = lo
        for _ in range(rounds):
            grid = [lo + (hi - lo) * i / 40.0 for i in range(41)]
            best_z = min(grid, key=cost)
            span = (hi - lo) / 40.0
            lo, hi = best_z - span, best_z + span
        return cost(best_z)

    # planar grounds
    if ground == "euclidean":
        def g(p, z):
            return math.hypot(p[0] - z[0], p[1] - z[1])
    elif ground == "chebyshev":
        def g(p, z):
            return max(abs(p[0] - z[0]), abs(p[1] - z[1]))
    else:
        raise ValueError(ground)

    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]

    def column_min(x):
        return _golden_min(lambda y: sum(g(p, (x, y)) for p in pts), min(ys) - 1.0, max(ys) + 1.0)

    return _golden_min(column_min, min(xs) - 1.0, max(xs) + 1.0)


def product_scan(entry, space, k):
    """Best ``(ratio, t, z, indices)`` over every ordered (t, z) of a finite space.

    Independent of ``analysis.scan`` and of the multiset reduction of the
    exhaustive estimates: every tuple of ``itertools.product`` is tried, by
    the rules of ``ordered_scan_by_k``.
    """
    n = entry.arity
    pairs = itertools.product(itertools.product(space.labels, repeat=n), space.labels)
    return ordered_scan_by_k(entry.distance.evaluator, pairs, n)[k]


def ordered_scan_by_k(ev, pairs, n):
    """``{k: best (ratio, t, z, indices)}`` for every k in 2..n, in one pass over ``pairs``.

    The denominator is the ``math.fsum`` of the k smallest sections (ties to
    the lowest positions), degenerate tuples are skipped, and equal ratios
    go to the lexicographically smallest (t, z).  Each candidate's sections
    are evaluated once for all k.
    """
    best = dict.fromkeys(range(2, n + 1))
    for t, z in pairs:
        if len(set(t)) < 2:
            continue
        num = ev(t)
        secs = [ev(t[:i] + (z,) + t[i + 1:]) for i in range(n)]
        order = sorted(range(n), key=lambda j: (secs[j], j))
        for k, b in best.items():
            chosen = sorted(order[:k])
            den = math.fsum(secs[j] for j in chosen)
            r = num / den if den != 0.0 else math.inf
            if b is None or r > b[0] or (r == b[0] and (t, z) < (b[1], b[2])):
                best[k] = (r, t, z, tuple(j + 1 for j in chosen))
    return best


def full_identification_walk(ev, tuples, tol=core.EQUAL_TOL):
    """(walked tuples, first counterexample) of every identification of every tuple.

    ``properties.check_nonincreasing_identification``'s walk written out
    without its value-set shortcut: for each tuple with two or more points,
    every ordered (i, j) with t_i != t_j, in the order of i, then j, puts
    t_j in place of t_i, n(n-1) identifications for n distinct points, and
    the walk stops after the first tuple where one of them raises d by more
    than ``tol``.
    """
    walked, first = [], None
    for t in tuples:
        if len(set(t)) < 2:
            continue
        walked.append(t)
        base = ev(t)
        for i, j in itertools.permutations(range(len(t)), 2):
            if t[i] == t[j]:
                continue
            u = t[:i] + (t[j],) + t[i + 1:]
            after = ev(u)
            if first is None and after > base + tol:
                first = {"tuple": t, "identified": u, "before": base, "after": after}
        if first is not None:
            break
    return walked, first


# ---------------------------------------------------------------------------
# the smallest enclosing circle as a recursion of helpers, the reference for
# the flat loop of geometry.smallest_enclosing_circle: the same operations in
# the same order, so both return the same floats


def reference_circle(points):
    """(center x, center y, radius) by Welzl's construction, one helper per level."""
    pts = sorted({(float(p[0]), float(p[1])) for p in points})
    if not pts:
        raise ValueError("at least one point required")
    random.Random(_SHUFFLE_SEED).shuffle(pts)
    c = None
    for i, p in enumerate(pts):
        if c is None or not _inside(c, p):
            c = _circle_one_boundary(pts[: i + 1], p)
    return c


def _inside(c, p):
    return math.hypot(p[0] - c[0], p[1] - c[1]) <= c[2] * _REL_EPS


def _circle_one_boundary(pts, p):
    # smallest circle of pts with p on the boundary
    c = (p[0], p[1], 0.0)
    for i, q in enumerate(pts):
        if not _inside(c, q):
            if c[2] == 0.0:
                c = _diameter_circle(p, q)
            else:
                c = _circle_two_boundary(pts[: i + 1], p, q)
    return c


def _circle_two_boundary(pts, p, q):
    # smallest circle of pts with both p and q on the boundary
    circ = _diameter_circle(p, q)
    left = None
    right = None
    px, py = p
    qx, qy = q
    for r in pts:
        if _inside(circ, r):
            continue
        cross = _cross(px, py, qx, qy, r[0], r[1])
        c = _circumcircle(p, q, r)
        if c is None:
            continue
        d = _cross(px, py, qx, qy, c[0], c[1])
        if cross > 0.0 and (left is None or d > _cross(px, py, qx, qy, left[0], left[1])):
            left = c
        elif cross < 0.0 and (right is None or d < _cross(px, py, qx, qy, right[0], right[1])):
            right = c
    if left is None and right is None:
        return circ
    if left is None:
        return right
    if right is None:
        return left
    return left if left[2] <= right[2] else right


def _cross(ax, ay, bx, by, px, py):
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


def exact_line_count(points):
    """Number of distinct lines through pairs of distinct points, in ``Fraction``.

    Each line ax + by = c is keyed by its coefficients divided by the first
    nonzero one of (a, b), so equal lines get equal keys.
    """
    pts = [(Fraction(x), Fraction(y)) for x, y in {(float(x), float(y)) for x, y in points}]
    lines = set()
    for (px, py), (qx, qy) in itertools.combinations(pts, 2):
        a, b = qy - py, px - qx
        c = a * px + b * py
        lead = a if a != 0 else b
        lines.add((a / lead, b / lead, c / lead))
    return len(lines)


def linear_spaces(m):
    """Every labelled linear space on the points 0..m-1, as a frozenset of lines.

    A linear space is a family of lines, sets of at least two points, with
    every pair of points on exactly one line.  The line through the
    smallest uncovered pair is chosen in every possible way, so each space
    is built once: 1, 1, 2, 6, 32 and 353 spaces for m = 1..6.
    """
    pairs = list(itertools.combinations(range(m), 2))
    out = []

    def extend(covered, lines):
        a, b = next((p for p in pairs if p not in covered), (None, None))
        if a is None:
            out.append(frozenset(lines))
            return
        free = [c for c in range(m) if c not in (a, b) and (min(a, c), max(a, c)) not in covered
                and (min(b, c), max(b, c)) not in covered]
        for r in range(len(free) + 1):
            for extra in itertools.combinations(free, r):
                line = tuple(sorted((a, b) + extra))
                new = set(itertools.combinations(line, 2))
                if not new & covered:
                    extend(covered | new, lines + [frozenset(line)])

    extend(frozenset(), [])
    return out


def linear_space_class(lines, m):
    """A canonical form of a linear space on 0..m-1 under every relabelling of its points."""
    big = [line for line in lines if len(line) >= 3]
    return min(
        tuple(sorted(tuple(sorted(perm[p] for p in line)) for line in big))
        for perm in itertools.permutations(range(m))
    )


def induced_linear_space(points):
    """The lines of distinct integer points as sets of their indices, by exact collinearity."""
    m = len(points)
    lines = set()
    for i, j in itertools.combinations(range(m), 2):
        (ax, ay), (bx, by) = points[i], points[j]
        lines.add(frozenset(c for c in range(m) if _cross(ax, ay, bx, by, *points[c]) == 0))
    return lines


def sample_pair(space, n, rng):
    """``core.sample_pair`` with one ``space.sample`` call per point of the tuple.

    The reference for the stream: the library draws the same floats with
    one ``rng.random()`` per coordinate.
    """
    t = tuple(space.sample(rng) for _ in range(n))
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


def naive_scan(ev, pairs, k, constant=math.inf, tol=1e-9):
    """``analysis.scan`` written out: (best, first, worst, checked).

    best is the largest (ratio, t, z, indices), equal ratios going to the
    smallest (t, z); the denominator is the ``math.fsum`` of the k smallest
    sections, equal sections going to the lowest positions, and ``inf``
    when that sum overflows.
    """
    best = first = worst = None
    checked = 0
    for t, z in pairs:
        if len(set(t)) < 2:
            continue
        checked += 1
        n = len(t)
        num = ev(t)
        secs = []
        for i in range(n):
            s = list(t)
            s[i] = z
            secs.append(ev(tuple(s)))
        chosen = sorted(sorted(range(n), key=lambda j: (secs[j], j))[:k])
        try:
            den = math.fsum(secs[j] for j in chosen)
        except OverflowError:
            den = math.inf
        r = num / den if den != 0.0 else math.inf
        cand = (r, t, z, tuple(j + 1 for j in chosen))
        if best is None or r > best[0] or (r == best[0] and (t, z) < (best[1], best[2])):
            best = cand
        violation = num - constant * den
        if violation > tol:
            if first is None:
                first = (violation, t, z, num, den)
            if worst is None or violation > worst[0]:
                worst = (violation, t, z, num, den)
    return best, first, worst, checked


def brute_multidistance(family, space):
    """``check_multidistance``'s per-arity verdicts from every (x, z) of an integer grid.

    The grid is {0, 1, 2, 3} on the line and every label of a finite space.
    The triangle bound runs over every x in grid^n with two or more distinct
    points and every z in the grid, the sufficient condition over every
    pair x != z, each with the check's slack ``core.TOL``.
    """
    points = space.labels if space.kind == "finite" else (0.0, 1.0, 2.0, 3.0)
    members = sorted(family, key=lambda m: m.arity)
    g = members[0].distance.evaluator
    out = {}
    for member in members:
        n, ev = member.arity, member.distance.evaluator
        triangle = "pass"
        for t in itertools.product(points, repeat=n):
            if len(set(t)) < 2:
                continue
            lhs = ev(t)
            if any(lhs > sum(g((x, z)) for x in t) + core.TOL for z in points):
                triangle = "fail"
                break
        gaps = [ev((x,) + (z,) * (n - 1)) - g((x, z)) for x, z in itertools.permutations(points, 2)]
        holds = all(gap <= core.TOL for gap in gaps)
        equal = all(abs(gap) <= core.TOL for gap in gaps)
        out[n] = {"triangle": triangle, "sufficient": holds, "sufficient_equality": holds and equal}
    return out


# ---------------------------------------------------------------------------
# the candidate streams as counting generators, the reference for the shared
# head-then-samples body of core.iter_tuples and core.iter_pairs


def iter_tuples(space, n, budget, seed):
    """``core.iter_tuples`` written out: exhaustive, or the structured head then samples."""
    if space.kind == "finite" and space.size**n <= budget:
        yield from space.iter_tuples(n)
        return
    count = 0
    for t in core.structured_tuples(space, n):
        if count >= budget:
            return
        yield t
        count += 1
    rng = random.Random(core.derive_seed(seed, 0))
    while count < budget:
        yield core.sample_tuple(space, n, rng)
        count += 1


def iter_pairs(space, n, budget, seed):
    """``core.iter_pairs`` written out: exhaustive, or the structured head then samples."""
    if space.kind == "finite" and space.size ** (n + 1) <= budget:
        for t in space.iter_tuples(n):
            for z in space.labels:
                yield t, z
        return
    count = 0
    for pair in core.structured_pairs(space, n):
        if count >= budget:
            return
        yield pair
        count += 1
    rng = random.Random(core.derive_seed(seed, 1))
    while count < budget:
        yield core.sample_pair(space, n, rng)
        count += 1
