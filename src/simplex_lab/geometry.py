"""Planar primitives behind the geometric n-ary distances.

The smallest enclosing circle uses the randomized incremental construction
(expected linear time).  Input points are deduplicated and sorted before a
fixed-seed shuffle, so every result is a deterministic function of the point
set alone.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass

_SHUFFLE_SEED = 0x5EC0FFEE  # fixed: identical input sets give identical circles
_REL_EPS = 1 + 1e-14  # multiplicative slack for boundary membership tests

GROUND_KINDS = ("abs", "euclidean", "chebyshev", "discrete")


@dataclass(frozen=True)
class Circle:
    center: tuple[float, float]
    radius: float


def smallest_enclosing_circle(points) -> Circle:
    """Minimal-radius circle enclosing all the points (at least one required)."""
    pts = sorted({(float(p[0]), float(p[1])) for p in points})
    if not pts:
        raise ValueError("at least one point required")
    rng = random.Random(_SHUFFLE_SEED)
    rng.shuffle(pts)
    c = None
    for i, p in enumerate(pts):
        if c is None or not _inside(c, p):
            c = _circle_one_boundary(pts[: i + 1], p)
    return Circle((c[0], c[1]), c[2])


def _inside(c: tuple, p: tuple) -> bool:
    return math.hypot(p[0] - c[0], p[1] - c[1]) <= c[2] * _REL_EPS


def _circle_one_boundary(pts: list, p: tuple) -> tuple:
    # smallest circle of pts with p on the boundary
    c = (p[0], p[1], 0.0)
    for i, q in enumerate(pts):
        if not _inside(c, q):
            if c[2] == 0.0:
                c = _diameter_circle(p, q)
            else:
                c = _circle_two_boundary(pts[: i + 1], p, q)
    return c


def _circle_two_boundary(pts: list, p: tuple, q: tuple) -> tuple:
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
    return (x, y, r)


def _cross(ax: float, ay: float, bx: float, by: float, px: float, py: float) -> float:
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


# ---------------------------------------------------------------------------
# line counting


def count_lines(points) -> int:
    """Number of distinct straight lines through pairs of distinct points.

    Lines get canonical (a, b, c) keys for ax + by = c.  Integer coordinates
    take an exact gcd-normalized path; otherwise keys are unit-normalized and
    rounded, which is robust at the 1e-9 scale used here.
    """
    pts = sorted({(float(p[0]), float(p[1])) for p in points})
    if len(pts) < 2:
        return 0
    return len({_line_key(p, q) for p, q in itertools.combinations(pts, 2)})


def _line_key(p: tuple, q: tuple) -> tuple:
    a = q[1] - p[1]
    b = p[0] - q[0]
    c = a * p[0] + b * p[1]
    if p[0].is_integer() and p[1].is_integer() and q[0].is_integer() and q[1].is_integer():
        ia, ib, ic = int(a), int(b), int(c)
        g = math.gcd(math.gcd(abs(ia), abs(ib)), abs(ic)) or 1
        ia, ib, ic = ia // g, ib // g, ic // g
        if ia < 0 or (ia == 0 and ib < 0):
            ia, ib, ic = -ia, -ib, -ic
        return (ia, ib, ic)
    h = math.hypot(a, b)
    a, b, c = a / h, b / h, c / h
    if a < -1e-12 or (abs(a) <= 1e-12 and b < 0):
        a, b, c = -a, -b, -c
    return (round(a, 9), round(b, 9), round(c, 9))


# ---------------------------------------------------------------------------
# Fermat values (minimal total ground distance to one witness point)


def fermat_value(points, ground: str = "abs") -> float:
    """min over x of the summed ground distance from the points to x.

    * ``abs`` (reals): exact, any median minimizes the sum.
    * ``euclidean`` (plane): Weiszfeld iteration with vertex-stall handling,
      tolerance 1e-10, at most 10^4 iterations; the best value found is
      returned even if the iteration did not converge.
    * ``chebyshev`` (plane): exact via the rotation u = x+y, v = x-y, which
      makes the objective separable into two median problems.
    * ``discrete`` (finite labels): exact, the minimizer is a modal label.
    """
    pts = sorted(points)
    if not pts:
        raise ValueError("at least one point required")
    if ground == "discrete":
        return float(len(pts) - max(Counter(pts).values()))
    if ground == "abs":
        m = pts[(len(pts) - 1) // 2]
        return float(sum(abs(x - m) for x in pts))
    if ground == "chebyshev":
        if not isinstance(pts[0], tuple):
            m = pts[(len(pts) - 1) // 2]
            return float(sum(abs(x - m) for x in pts))
        us = sorted(x + y for x, y in pts)
        vs = sorted(x - y for x, y in pts)
        mu = us[(len(us) - 1) // 2]
        mv = vs[(len(vs) - 1) // 2]
        return (sum(abs(u - mu) for u in us) + sum(abs(v - mv) for v in vs)) / 2.0
    if ground == "euclidean":
        if not isinstance(pts[0], tuple):
            m = pts[(len(pts) - 1) // 2]
            return float(sum(abs(x - m) for x in pts))
        return _weiszfeld(pts)
    raise ValueError(f"unknown ground distance: {ground}")


def _weiszfeld(pts: list, tol: float = 1e-10, max_iter: int = 10_000) -> float:
    def cost(q: tuple) -> float:
        return sum(math.hypot(p[0] - q[0], p[1] - q[1]) for p in pts)

    best = min(cost(p) for p in dict.fromkeys(pts))  # vertex minima
    m = len(pts)
    x = (sum(p[0] for p in pts) / m, sum(p[1] for p in pts) / m)
    best = min(best, cost(x))
    for _ in range(max_iter):
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
            if moved < tol:
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
        return lambda x, y: math.hypot(x[0] - y[0], x[1] - y[1])
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
