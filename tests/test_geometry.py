import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_circle,
    exact_line_count,
    grid_fermat,
    induced_linear_space,
    linear_space_class,
    linear_spaces,
    reference_circle,
    reference_enclosing_circle,
    reference_small_fermat,
)
from simplex_lab import geometry
from simplex_lab.core import CIRCLE_POINTS, Plane
from simplex_lab.geometry import (
    LINEAR_SPACE_TYPES,
    _SHUFFLE_SEED,
    _shuffle_order,
    count_lines,
    fermat_value,
    ground_distance,
    linear_space_pairs,
    smallest_enclosing_circle,
    space_kind_for_ground,
)


def test_circle_known_cases():
    c = smallest_enclosing_circle([(0.0, 0.0)])
    assert c.radius == 0.0
    c = smallest_enclosing_circle([(0.0, 0.0), (2.0, 0.0)])
    assert c.radius == pytest.approx(1.0)
    assert c.center == (pytest.approx(1.0), pytest.approx(0.0))
    # collinear spread: diameter circle of the extremes
    c = smallest_enclosing_circle([(0.0, 0.0), (1.0, 0.0), (4.0, 0.0)])
    assert c.radius == pytest.approx(2.0)
    # unit square: circumradius sqrt(2)/2
    c = smallest_enclosing_circle([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert c.radius == pytest.approx(math.sqrt(2) / 2)
    # duplicated points must not confuse the recursion
    c = smallest_enclosing_circle([(0, 0), (0, 0), (2, 0), (2, 0)])
    assert c.radius == pytest.approx(1.0)


def test_circle_matches_brute_force():
    rng = random.Random(7)
    for trial in range(60):
        pts = [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(rng.randint(1, 8))]
        got = smallest_enclosing_circle(pts)
        want = brute_circle(pts)
        assert got.radius == pytest.approx(want[2], abs=1e-7), (trial, pts)


def test_brute_circle_gets_tiny_and_nearly_collinear_radii():
    # the oracle's cover slack is relative: an absolute 1e-9 accepted the circle of (0, 0) and (1e-10, 0),
    # radius 5e-11, and of the two right points of the second set, radius 0.49999999995
    for pts, radius in (
        ([(0.0, 0.0), (1e-10, 0.0), (0.0, 1e-10)], math.hypot(1e-10, 1e-10) / 2.0),
        ([(2.0, 0.0), (1.0, 0.0), (1.0000000001, 0.0)], 0.5),
    ):
        cx, cy, r = brute_circle(pts)
        got = smallest_enclosing_circle(pts)
        assert r == pytest.approx(radius, rel=1e-12) and got.radius == pytest.approx(r, rel=1e-12)
        assert (cx, cy) == pytest.approx(got.center, rel=1e-12)

def test_circle_is_order_independent():
    pts = [(5, 0), (3, 4), (0, 5), (-3, 4), (1, 1)]
    base = smallest_enclosing_circle(pts)
    rng = random.Random(3)
    for _ in range(10):
        shuffled = pts[:]
        rng.shuffle(shuffled)
        c = smallest_enclosing_circle(shuffled)
        assert (c.center, c.radius) == (base.center, base.radius)


def test_cached_shuffle_order_is_the_seeded_shuffle():
    # the cache is exact only because shuffle's permutation depends on the length alone
    for m in range(1, 9):
        items = [(float(i), -float(i)) for i in range(m)]
        want = items[:]
        random.Random(_SHUFFLE_SEED).shuffle(want)
        assert [items[i] for i in _shuffle_order(m)] == want


_COORD = st.floats(-3, 3, allow_nan=False) | st.integers(-3, 3).map(float)
_POINT = st.tuples(_COORD, _COORD)


@st.composite
def _points_with_repeats(draw, max_size=7):
    pool = draw(st.lists(_POINT, min_size=1, max_size=max_size))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=max_size))


@settings(max_examples=300, deadline=None)
@given(pts=_points_with_repeats())
def test_circle_matches_brute_force_property(pts):
    got = smallest_enclosing_circle(pts)
    want = brute_circle(pts)
    assert got.radius == pytest.approx(want[2], abs=1e-7)
    for x, y in pts:
        assert math.hypot(x - got.center[0], y - got.center[1]) <= got.radius * (1 + 1e-12) + 1e-12


@st.composite
def _near_collinear_points(draw):
    # a, b and 1-5 points on the line ab, each exactly (dyadic data) or up to
    # float rounding, each coordinate optionally moved by 1-2 ulps
    dyadic = st.integers(-64, 64).map(lambda i: i / 16)
    coord = dyadic | st.floats(-3, 3, allow_nan=False)
    a = draw(st.tuples(coord, coord))
    b = draw(st.tuples(coord, coord))
    pts = [a, b]
    for t in draw(st.lists(dyadic | st.floats(-2, 2, allow_nan=False), min_size=1, max_size=5)):
        c = [a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])]
        for i in range(2):
            for _ in range(draw(st.integers(0, 2))):
                c[i] = math.nextafter(c[i], math.inf if draw(st.booleans()) else -math.inf)
        pts.append(tuple(c))
    return pts


_INT_POINT = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def _few_distinct_points(draw):
    # one or two distinct points, float or int, each drawn once or more, in any order
    pool = draw(st.lists(_POINT | _INT_POINT, min_size=1, max_size=2, unique_by=lambda p: (float(p[0]), float(p[1]))))
    return draw(st.permutations(pool + draw(st.lists(st.sampled_from(pool), max_size=4))))


@settings(max_examples=500, deadline=None)
@given(
    pts=st.lists(_POINT, min_size=1, max_size=7)
    | _points_with_repeats()
    | _near_collinear_points()
    | _few_distinct_points()
    | st.lists(_INT_POINT, min_size=1, max_size=7)
)
def test_circle_matches_the_reference_bit_for_bit(pts):
    c = smallest_enclosing_circle(pts)
    got = (c.center[0], c.center[1], c.radius)
    assert [x.hex() for x in got] == [x.hex() for x in reference_circle(pts)]


@st.composite
def _circle_oracle_points(draw):
    # 1-6 points from a pool of at most four, so repeats are common: ints, small-integer
    # floats, or floats in [-2, 2] scaled by one power of ten within the coordinate limit
    scale = 10.0 ** draw(st.integers(-320, 101))
    coord = st.integers(-3, 3) | st.integers(-3, 3).map(float) | st.floats(-2, 2).map(lambda x: x * scale)
    pool = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=4))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))


@settings(max_examples=1000, deadline=None)
@given(pts=_circle_oracle_points(), as_generator=st.booleans())
# three points: the third inside the first diameter circle, the second inside the second,
# the circumcircle, and collinear points whose two-boundary step keeps the diameter circle
@example(pts=[(0, 0), (1, -3), (1, 3)], as_generator=False)
@example(pts=[(0, 0), (2, -1), (2, -0.5)], as_generator=False)
@example(pts=[(0, 0), (1, 2), (2, 0)], as_generator=False)
@example(pts=[(0, 0), (1, 0), (3, 0)], as_generator=False)
# -0.0 and 0.0 are one point, kept as given first
@example(pts=[(-0.0, 0.0), (0.0, 0.0)], as_generator=False)
@example(pts=[(0.0, 1.0), (-0.0, 1.0), (2.0, 3.0)], as_generator=False)
# two equal points past 8.9e307, where their midpoint would overflow
@example(pts=[(1e308, -1e308), (1e308, -1e308)], as_generator=False)
@example(pts=[(0, 0), (2, -1), (2, -0.5)], as_generator=True)
def test_circle_is_the_reference_loop_bit_for_bit(pts, as_generator):
    # each path, two points, three points and the loop, gives the floats of the loop it replaced
    c = smallest_enclosing_circle((p for p in pts) if as_generator else pts)
    want = reference_enclosing_circle(pts)
    assert repr((c.center, c.radius)) == repr((want.center, want.radius))


@pytest.mark.parametrize("scale", [1e102, geometry.ENCLOSING_COORD_LIMIT])
def test_circle_is_correct_up_to_the_coordinate_limit(scale):
    # the circumcircle's cubic terms stay finite within +-2^340
    # (5, 0), (-4, 3) and (-3, -4): an acute triangle, so its circumcircle is the enclosing one
    pts = [(scale * x / 5.0, scale * y / 5.0) for x, y in (CIRCLE_POINTS[0], CIRCLE_POINTS[3], CIRCLE_POINTS[5])]
    c = smallest_enclosing_circle(pts)
    assert c.radius == pytest.approx(scale, rel=1e-12)
    assert c.center == (pytest.approx(0.0, abs=1e-12 * scale), pytest.approx(0.0, abs=1e-12 * scale))


@pytest.mark.parametrize("scale", [1e103, 1e155])
def test_circle_refuses_an_overflowing_circumcircle_past_the_limit(scale):
    # the same triangle: at 1e103 its circumcircle is nan, and at 1e155 the loop
    # went on from the nan to a radius 5% short
    pts = [(scale * x / 5.0, scale * y / 5.0) for x, y in (CIRCLE_POINTS[0], CIRCLE_POINTS[3], CIRCLE_POINTS[5])]
    with pytest.raises(ValueError, match=r"2\^340"):
        smallest_enclosing_circle(pts)


def test_circle_passes_over_an_infinite_circumcircle_within_the_limit():
    # nearly collinear points well within the limit have a circumcircle centered at -inf
    a, b, c = (-1e10, 0.0), (1e10, 0.0), (0.0, 1e-290)
    assert geometry._circumcircle(a, c, b) == (0.0, -math.inf, math.inf)
    assert smallest_enclosing_circle([a, b, c]) == geometry.Circle((0.0, 0.0), 1e10)


def test_circle_points_lie_on_radius_five():
    assert len(CIRCLE_POINTS) == 8
    for x, y in CIRCLE_POINTS:
        assert x * x + y * y == 25
    c = smallest_enclosing_circle(CIRCLE_POINTS)
    assert c.radius == pytest.approx(5.0)
    assert c.center == (pytest.approx(0.0), pytest.approx(0.0))


def test_count_lines():
    assert count_lines([(0, 0), (1, 1)]) == 1
    assert count_lines([(0, 0), (1, 1), (2, 2)]) == 1  # collinear
    assert count_lines([(0, 0), (1, 0), (0, 1)]) == 3
    assert count_lines([(0, 0), (1, 0), (0, 1), (1, 1)]) == 6
    # concyclic points: every pair spans its own line
    assert count_lines(CIRCLE_POINTS) == 28
    # grid with collinear triples: 3x3 grid has 20 lines
    grid = [(i, j) for i in range(3) for j in range(3)]
    assert count_lines(grid) == 20


def test_count_lines_near_collinear_is_exact():
    # 1e-10 off the x-axis is still off it: three lines, not two
    assert count_lines([(0, 0), (1, 1e-10), (2, 0)]) == 3
    assert count_lines([(0.0, 0.0), (0.5, 0.25), (1.0, 0.5)]) == 1


@settings(max_examples=500, deadline=None)
@given(pts=_near_collinear_points() | st.lists(_POINT, min_size=2, max_size=7))
@example(pts=[(0.0, 0.0), (1.0, 1e-10), (2.0, 0.0)])
@example(pts=[(0.1, 0.2), (0.3, 0.6), (0.2, 0.4)])
# collinear in exact arithmetic, yet l - r rounds to 4.5e-13, below the error bound
@example(pts=[(-0.6232787281777048, 3.806884247573966), (15.500012287447294, 16.142821747573965),
              (79.99317634994729, 65.48657174757396)])
def test_count_lines_matches_exact_oracle(pts):
    assert count_lines(pts) == exact_line_count(pts)


@st.composite
def _points_outside_the_certified_window(draw):
    # nonzero integer grid points, some on a common line, some moved by 1-2
    # ulps, then scaled by 2^600 (every nonzero product overflows) or 2^-600
    # (every product underflows to 0), or by 2^1021 with a sign per
    # coordinate, near +-1e308 (differences of opposite signs can overflow,
    # every nonzero product does); scaling by a power of two is exact
    a = draw(st.tuples(st.integers(1, 4), st.integers(1, 4)))
    step = draw(st.tuples(st.integers(-1, 1), st.integers(-1, 1)))
    on_line = [(a[0] + i * step[0], a[1] + i * step[1]) for i in range(draw(st.integers(0, 3)))]
    pool = [p for p in on_line if p[0] and p[1]]
    pts = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=3 - len(pool), max_size=7 - len(pool)))
    pts = [[float(x), float(y)] for x, y in pool + pts]
    for p in pts:
        for i in range(2):
            for _ in range(draw(st.integers(0, 2))):
                p[i] = math.nextafter(p[i], math.inf if draw(st.booleans()) else -math.inf)
    scale = draw(st.sampled_from((2.0**600, 2.0**-600, 2.0**1021)))
    if scale == 2.0**1021:
        sign = st.sampled_from((1.0, -1.0))
        return [(draw(sign) * x * scale, draw(sign) * y * scale) for x, y in pts]
    return [(x * scale, y * scale) for x, y in pts]


@settings(max_examples=300, deadline=None)
@given(pts=_points_outside_the_certified_window())
@example(pts=[(1e308, 1e308), (-1e308, 1e308), (1e308, -1e308)])
@example(pts=[(2.0**600, 2.0**600), (2.0**601, 2.0**601), (3 * 2.0**600, 3 * 2.0**600)])
def test_count_lines_outside_the_certified_window_takes_the_exact_keys(pts):
    with mock.patch.object(geometry, "_line_key", wraps=geometry._line_key) as key:
        got = count_lines(pts)
    if len(set(pts)) >= 3:
        assert key.called
    assert got == exact_line_count(pts)


def test_count_lines_float_and_int_agree():
    pts = [(0, 0), (1, 2), (3, 1), (2, 2)]
    floated = [(x + 0.0, y + 0.0) for x, y in pts]
    assert count_lines(pts) == count_lines(floated)
    # and a rotated copy (floats only) keeps the count
    th = 0.7
    rot = [
        (x * math.cos(th) - y * math.sin(th), x * math.sin(th) + y * math.cos(th))
        for x, y in pts
    ]
    assert count_lines(rot) == count_lines(pts)


def test_fermat_discrete():
    # best z is a modal value: cost n - max multiplicity
    assert fermat_value(("a", "b", "c"), "discrete") == 2.0
    assert fermat_value(("a", "a", "b", "c"), "discrete") == 2.0
    assert fermat_value(("a", "a", "a", "b"), "discrete") == 1.0
    assert fermat_value(("a", "a"), "discrete") == 0.0


def test_fermat_abs_is_median_cost():
    assert fermat_value((0.0, 0.0, 1.0, 1.0), "abs") == pytest.approx(2.0)
    assert fermat_value((0.0, 1.0, 1.0, 1.0), "abs") == pytest.approx(1.0)
    rng = random.Random(11)
    for _ in range(20):
        xs = tuple(rng.uniform(-2, 2) for _ in range(rng.randint(2, 6)))
        assert fermat_value(xs, "abs") == pytest.approx(grid_fermat(xs, "abs"), abs=1e-5)


def test_fermat_euclidean():
    # equilateral triangle, side 1: optimum at the center, total sqrt(3)
    pts = ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2))
    assert fermat_value(pts, "euclidean") == pytest.approx(math.sqrt(3), abs=1e-8)
    # collapsing to a vertex when one point dominates
    pts = ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (1.0, 0.0))
    assert fermat_value(pts, "euclidean") == pytest.approx(1.0, abs=1e-8)
    rng = random.Random(13)
    for _ in range(12):
        pts = tuple((rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(rng.randint(3, 5)))
        assert fermat_value(pts, "euclidean") == pytest.approx(
            grid_fermat(pts, "euclidean"), abs=1e-4
        )


@st.composite
def _fermat_inputs(draw):
    # either free points, or one point carrying at least half the multiplicity
    coord = st.floats(-2, 2, allow_nan=False)
    others = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=5))
    if not draw(st.booleans()):
        return tuple(others)
    v = draw(st.tuples(coord, coord))
    return (v,) * draw(st.integers(len(others), len(others) + 2)) + tuple(others)


@settings(max_examples=100, deadline=None)
@given(pts=_fermat_inputs())
def test_fermat_euclidean_matches_grid_property(pts):
    assert fermat_value(pts, "euclidean") == pytest.approx(grid_fermat(pts, "euclidean"), abs=1e-4)


@settings(max_examples=200, deadline=None)
@given(
    v=st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    others=st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=5),
    extra=st.integers(1, 3),
)
def test_fermat_euclidean_majority_point_is_exact(v, others, extra):
    # a point carrying more than half the multiplicity is the minimizer, and
    # the vertex test returns its cost exactly, without iterating towards it
    v = (float(v[0]), float(v[1]))
    pts = (v,) * (len(others) + extra) + tuple((float(x), float(y)) for x, y in others)
    assert fermat_value(pts, "euclidean") == sum(math.hypot(p[0] - v[0], p[1] - v[1]) for p in sorted(pts))


_COORD = st.floats(-2, 2, allow_nan=False)


def _pairing_sum(pts):
    # the largest |pq| + |rs| over the pairings of four points; no point costs less
    a, b, c, d = pts
    return max(math.dist(a, b) + math.dist(c, d), math.dist(a, c) + math.dist(b, d), math.dist(a, d) + math.dist(b, c))


@settings(max_examples=150, deadline=None)
@given(pts=st.integers(3, 4).flatmap(lambda m: st.lists(st.tuples(_COORD, _COORD), min_size=m, max_size=m, unique=True)))
def test_fermat_euclidean_closed_forms_match_grid_property(pts):
    value = fermat_value(pts, "euclidean")
    assert value == pytest.approx(grid_fermat(pts, "euclidean"), abs=1e-4)
    centroid = (sum(x for x, _ in pts) / len(pts), sum(y for _, y in pts) / len(pts))
    assert value <= sum(math.dist(p, centroid) for p in pts) * (1 + 1e-12)
    # below: the largest pairing sum, or for a triangle half its perimeter
    lower = _pairing_sum(pts) if len(pts) == 4 else sum(map(math.dist, pts, pts[1:] + pts[:1])) / 2
    assert value >= lower * (1 - 1e-12)


@st.composite
def _up_to_four_points(draw):
    # one to four points drawn from a pool of at most four, so repeats are common
    pool = draw(st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=4))
    return tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)))


@settings(max_examples=200, deadline=None)
@given(pts=_up_to_four_points())
@example(pts=((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)))
@example(pts=((0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)))
@example(pts=((0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (2.0, 0.0)))
@example(pts=((0.3, 0.1), (0.3, 0.1), (-0.7, 1.9), (-0.7, 1.9)))
@example(pts=((0.3, 0.1), (-0.7, 1.9)))
def test_fermat_euclidean_never_iterates_up_to_four_points(pts):
    # with no Weiszfeld step allowed, the vertex test and the closed forms alone give the minimum
    with mock.patch.object(geometry, "_WEISZFELD_MAX_ITER", 0):
        value = fermat_value(pts, "euclidean")
    assert value == pytest.approx(grid_fermat(pts, "euclidean"), abs=1e-4)


@st.composite
def _scaled_lattice_points(draw):
    # one to four points from a pool of at most four lattice points, so repeats, collinear
    # triples and ties are common; kept as ints or scaled by one power of ten
    lattice = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
    pool = draw(st.lists(lattice, min_size=1, max_size=4))
    pts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    exponent = draw(st.none() | st.integers(-300, 100))
    if exponent is None:
        return tuple(pts)
    scale = 10.0**exponent
    return tuple((x * scale, y * scale) for x, y in pts)


@settings(max_examples=1000, deadline=None)
@given(pts=_scaled_lattice_points() | _up_to_four_points())
# the middle of a collinear triple with a doubled end: near a tie, the weight 2 decides the vertex test
@example(pts=((2, -2), (2, -2), (-2, 2), (-1, 1)))
# a convex quadrilateral whose diagonals are the pairing {a, d}, {b, c} of the sorted points
@example(pts=((0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0)))
def test_fermat_euclidean_is_the_reference_float_up_to_four_points(pts):
    # the six pairwise distances read once give the float the vertex search and closed forms gave
    assert repr(fermat_value(pts, "euclidean")) == repr(reference_small_fermat(pts))


def test_fermat_euclidean_convex_quadrilateral_is_the_diagonal_sum():
    # Weiszfeld read 2.6639562125071565 here, 3.0e-6 relative above the minimum
    p, q, r, s = (
        (0.9646671056345488, 0.9493415415298865),
        (0.505108173884381, -0.45416117436551473),
        (0.8706689381263921, 0.7625465483284963),
        (0.5258111744191101, -0.37326073267569426),
    )
    value = fermat_value((p, q, r, s), "euclidean")
    assert value == math.dist(q, r) + math.dist(s, p) == _pairing_sum((p, q, r, s))
    assert value == 2.6639482843117097


def test_fermat_euclidean_wide_angle_costs_the_two_sides_at_it():
    # at an angle of at least 120 degrees the vertex is the minimizer
    v, p, q = (0.0, 0.0), (1.0, 0.0), (-0.5, 0.5)  # 135 degrees at v
    assert fermat_value((p, v, q), "euclidean") == math.dist(v, p) + math.dist(v, q)
    # exactly 120 degrees: the vertex and the Torricelli formula agree
    q = (-0.5, math.sqrt(3) / 2)
    assert fermat_value((p, v, q), "euclidean") == pytest.approx(2.0, rel=1e-15)


def test_fermat_chebyshev():
    rng = random.Random(17)
    for _ in range(12):
        pts = tuple((rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(rng.randint(2, 5)))
        assert fermat_value(pts, "chebyshev") == pytest.approx(
            grid_fermat(pts, "chebyshev"), abs=1e-4
        )


def test_ground_distance_table():
    assert ground_distance("abs")(0.25, -0.5) == pytest.approx(0.75)
    assert ground_distance("euclidean")((0, 0), (3, 4)) == pytest.approx(5.0)
    assert ground_distance("chebyshev")((0, 0), (3, 4)) == pytest.approx(4.0)
    assert ground_distance("discrete")("a", "a") == 0.0
    assert ground_distance("discrete")("a", "b") == 1.0
    with pytest.raises((KeyError, ValueError)):
        ground_distance("no-such-ground")
    assert space_kind_for_ground("abs") == "real-line"
    assert space_kind_for_ground("euclidean") == "plane"
    assert space_kind_for_ground("discrete") == "finite"


def test_linear_space_types_cover_every_class_once():
    # the abstract enumeration finds 1, 1, 2, 6, 32, 353 labelled linear spaces
    # on m = 1..6 points, in 1, 1, 2, 3, 5, 10 classes; the table holds one
    # configuration per class, read through exact integer collinearity
    counts = []
    for m, configs in sorted(LINEAR_SPACE_TYPES.items()):
        spaces = linear_spaces(m)
        classes = {linear_space_class(lines, m) for lines in spaces}
        points = [tuple((int(x), int(y)) for x, y in config.split()) for config in configs]
        assert all(len(set(p)) == m for p in points)
        listed = [linear_space_class(induced_linear_space(p), m) for p in points]
        assert len(set(listed)) == len(listed), m  # pairwise non-isomorphic
        assert set(listed) == classes, m
        counts.append((len(spaces), len(classes)))
    assert counts == [(1, 1), (1, 1), (2, 2), (6, 3), (32, 5), (353, 10)]


def test_linear_space_pairs_reach_n_up_to_5():
    # no constant t: the one-point configuration and the two constant t on two points are left out
    assert [len(linear_space_pairs(Plane(), n)) for n in (3, 4, 5)] == [34, 115, 373]
    configs = {frozenset((float(x), float(y)) for x, y in c.split()) for cs in LINEAR_SPACE_TYPES.values() for c in cs}
    for n in (3, 4, 5):
        for t, z in linear_space_pairs(Plane(), n):
            assert list(t) == sorted(t) and frozenset(t + (z,)) in configs
            assert len(set(t)) > 1
    # seven points admit the Fano plane, which no planar set induces
    assert linear_space_pairs(Plane(), 6) is None
