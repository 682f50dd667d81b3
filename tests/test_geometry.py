from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from proxitri.checks import _circumdisk_scan
from proxitri.delaunay import SiteSet, TriMesh
from proxitri.errors import CollinearInput, GeometryError, NonConvexInput, NotCCW
from proxitri.geometry import (
    Orientation,
    Point,
    PointLocation,
    Polygon,
    Segment,
    _circumcenter,
    _incircle_det,
    _line_slice,
    _sign,
    convex_closed_intersection,
    convex_hull,
    is_convex_polygon,
    locate_point,
    orientation,
)

from oracles import (
    candidate_hull_intersection,
    circle_position,
    clip_convex_intersection,
    fraction_closed_intersection,
    fraction_convex_hull,
    fraction_circumcircle,
    fraction_distance_sq,
    fraction_in_circumcircle,
    fraction_line_slice,
    fraction_orientation,
    fraction_segment_intersection,
    reference_polygon,
    reversed_segment,
)

coords = st.fractions(
    min_value=-20, max_value=20, max_denominator=8
)
points = st.builds(Point, coords, coords)
grid_points = st.builds(Point, st.integers(0, 4), st.integers(0, 4))
# A 5 x 5 grid with some thirds between: collinear runs, repeats, spikes,
# bowties, pinches and clockwise rings are common.
ring_coords = st.one_of(st.integers(0, 4), st.integers(0, 12).map(lambda k: Fraction(k, 3)))
ring_points = st.builds(Point, ring_coords, ring_coords)


def P(x, y) -> Point:
    return Point(x, y)


def circumcenter(a: Point, b: Point, c: Point) -> Point:
    return _circumcenter(a.row, b.row, c.row)


def incircle(a: Point, b: Point, c: Point, d: Point) -> int:
    """1, 0 or -1 as d lies inside, on or outside the circle through the
    counterclockwise triple a, b, c."""
    return _sign(_incircle_det(a.row, b.row, c.row, d.row))


class TestCoordinates:
    def test_string_literals_parse_exactly(self):
        p = P("0.1", "1/3")
        assert p.x == Fraction(1, 10)
        assert p.y == Fraction(1, 3)

    @pytest.mark.parametrize(
        "literal, value",
        [("-.5", Fraction(-1, 2)), ("5.", Fraction(5)), ("+3", Fraction(3)), ("5/4", Fraction(5, 4))],
    )
    def test_grammar_literals_accepted(self, literal, value):
        assert P(literal, 0).x == value

    def test_floats_are_rejected(self):
        with pytest.raises(TypeError):
            P(0.5, 1)

    def test_degenerate_segment_rejected(self):
        with pytest.raises(ValueError):
            Segment(P(1, 1), P(1, 1))


class TestOrientation:
    def test_spec_triples(self):
        assert orientation(P(0, 0), P(1, 0), P(0, 1)) is Orientation.CCW
        assert orientation(P(0, 0), P(1, 1), P(2, 2)) is Orientation.COLLINEAR
        assert orientation(P(0, 0), P(0, 1), P(1, 0)) is Orientation.CW

    @given(points, points, points)
    def test_swap_antisymmetry_and_rotation_invariance(self, a, b, c):
        o = orientation(a, b, c)
        swapped = orientation(b, a, c)
        rotated = orientation(b, c, a)
        if o is Orientation.COLLINEAR:
            assert swapped is Orientation.COLLINEAR
        else:
            assert swapped is not o and swapped is not Orientation.COLLINEAR
        assert rotated is o


class TestCircumcircle:
    """The centre of the circle through three rows."""

    def test_right_triangle(self):
        center = circumcenter(P(0, 0), P(4, 0), P(0, 4))
        assert center == P(2, 2)
        assert fraction_distance_sq(center, P(0, 0)) == 8

    def test_bisector_solution(self):
        # perpendicular-bisector equations solved by hand for this triple
        center = circumcenter(P(0, 0), P(2, 0), P(1, 1))
        assert center == P(1, 0)
        assert fraction_distance_sq(center, P(1, 1)) == 1

    def test_collinear_rejected(self):
        with pytest.raises(
            CollinearInput, match=r"^no circumcircle through collinear \(0, 0\), \(1/2, 1\), \(2, 4\)$"
        ):
            circumcenter(P(0, 0), P("1/2", 1), P(2, 4))

    @given(points, points, points)
    def test_center_equidistant(self, a, b, c):
        if orientation(a, b, c) is Orientation.COLLINEAR:
            with pytest.raises(CollinearInput):
                circumcenter(a, b, c)
            return
        center = circumcenter(a, b, c)
        radius_sq = fraction_distance_sq(center, a)
        assert fraction_distance_sq(center, b) == radius_sq
        assert fraction_distance_sq(center, c) == radius_sq


class TestInCircumcircle:
    """The sign of the in-circle determinant on rows."""

    def test_spec_examples(self):
        a, b, c = P(0, 0), P(4, 0), P(0, 4)
        assert incircle(a, b, c, P(1, 1)) == 1
        assert incircle(a, b, c, P(4, 4)) == 0
        assert incircle(a, b, c, P(5, 5)) == -1

    def test_not_ccw_rejected(self):
        # The one circumdisk question `check` asks of a triangle guards its turn.
        sites = SiteSet.of([(0, 0), (0, 4), (4, 0), (1, 1)])
        clockwise = TriMesh(sites, ((0, 1, 2),), frozenset())
        with pytest.raises(NotCCW, match="^triangle 0 is not counterclockwise$"):
            _circumdisk_scan(clockwise, sites.disk)(0)

    @given(points, points, points)
    def test_defining_points_are_on(self, a, b, c):
        if orientation(a, b, c) is not Orientation.CCW:
            return
        for d in (a, b, c):
            assert incircle(a, b, c, d) == 0

    @given(points, points, points, points)
    def test_matches_circumcircle_distance(self, a, b, c, d):
        if orientation(a, b, c) is not Orientation.CCW:
            return
        center = circumcenter(a, b, c)
        assert incircle(a, b, c, d) == circle_position(center, fraction_distance_sq(center, a), d)


class TestSegmentIntersection:
    """The closed-convex kernel on two segments."""

    def test_crossing_diagonals(self):
        got = convex_closed_intersection(
            Segment(P(0, 0), P(2, 2)), Segment(P(0, 2), P(2, 0))
        )
        assert got == P(1, 1)

    def test_collinear_overlap(self):
        got = convex_closed_intersection(
            Segment(P(0, 0), P(2, 0)), Segment(P(1, 0), P(3, 0))
        )
        assert got == Segment(P(1, 0), P(2, 0))

    def test_parallel_disjoint(self):
        assert (
            convex_closed_intersection(Segment(P(0, 0), P(1, 0)), Segment(P(0, 1), P(1, 1)))
            is None
        )

    def test_endpoint_touch(self):
        got = convex_closed_intersection(
            Segment(P(0, 0), P(1, 0)), Segment(P(1, 0), P(2, 5))
        )
        assert got == P(1, 0)

    @given(points, points, points, points)
    def test_symmetry(self, a, b, c, d):
        if a == b or c == d:
            return
        s, t = Segment(a, b), Segment(c, d)
        assert convex_closed_intersection(s, t) == convex_closed_intersection(t, s)

    @given(points, points, points, points)
    def test_witness_lies_on_both(self, a, b, c, d):
        if a == b or c == d:
            return
        s, t = Segment(a, b), Segment(c, d)
        got = convex_closed_intersection(s, t)
        if isinstance(got, Point):
            assert locate_point(got, s) is not PointLocation.EXTERIOR
            assert locate_point(got, t) is not PointLocation.EXTERIOR
        elif isinstance(got, Segment):
            for end in (got.a, got.b):
                assert locate_point(end, s) is not PointLocation.EXTERIOR
                assert locate_point(end, t) is not PointLocation.EXTERIOR


class TestPolygon:
    def test_normalization_canonicalizes(self):
        a = Polygon((P(4, 0), P(0, 4), P(0, 0)))
        b = Polygon((P(0, 0), P(2, 0), P(4, 0), P(0, 4)))  # collinear (2,0) dropped
        assert a == b
        assert a.vertices[0] == P(0, 0)

    def test_clockwise_rejected(self):
        with pytest.raises(ValueError):
            Polygon((P(0, 0), P(0, 4), P(4, 0)))

    def test_self_intersecting_rejected(self):
        with pytest.raises(ValueError):
            Polygon((P(0, 0), P(2, 2), P(2, 0), P(0, 2)))

    def test_degenerate_rejected(self):
        with pytest.raises(CollinearInput):
            Polygon((P(0, 0), P(1, 1), P(2, 2)))

    @given(st.lists(ring_points, min_size=3, max_size=8))
    @settings(max_examples=800, deadline=None)
    def test_matches_reference_construction(self, pts):
        try:
            p = Polygon(tuple(pts))
        except (ValueError, GeometryError) as exc:
            got = (type(exc), str(exc))
        else:
            got = (p.vertices, is_convex_polygon(p))
        assert got == reference_polygon(pts)

    def test_area(self):
        assert Polygon((P(0, 0), P(2, 0), P(2, 2), P(0, 2))).area() == 4

    def test_bounding_box_outside_equality(self):
        a = Polygon((P(0, 0), P("5/2", -1), P(2, 3)))
        box = a.bounding_box()
        assert box == (0, -1, Fraction(5, 2), 3)
        b = Polygon((P(2, 3), P(0, 0), P("5/2", -1)))
        assert a == b and hash(a) == hash(b)


class TestConvexity:
    def test_spec_examples(self):
        assert is_convex_polygon(Polygon((P(0, 0), P(4, 0), P(0, 4))))
        assert not is_convex_polygon(Polygon((P(0, 0), P(4, 0), P(1, 1), P(0, 4))))
        assert is_convex_polygon(Polygon((P(0, 0), P(2, 0), P(2, 2), P(0, 2))))


unit_square = Polygon((P(0, 0), P(2, 0), P(2, 2), P(0, 2)))
shifted_square = Polygon((P(1, 1), P(3, 1), P(3, 3), P(1, 3)))


class TestConvexIntersection:
    def test_axis_aligned_overlap(self):
        got = convex_closed_intersection(unit_square, shifted_square)
        assert got == Polygon((P(1, 1), P(2, 1), P(2, 2), P(1, 2)))

    def test_idempotence(self):
        tri = Polygon((P(0, 0), P(4, 0), P(0, 4)))
        assert convex_closed_intersection(tri, tri) == tri

    def test_disjoint_is_absent(self):
        tri = Polygon((P(0, 0), P(4, 0), P(0, 4)))
        square = Polygon((P(3, 3), P(5, 3), P(5, 5), P(3, 5)))
        assert clip_convex_intersection(tri, square) is None  # oracle agrees
        assert convex_closed_intersection(tri, square) is None

    def test_nonconvex_rejected(self):
        bad = Polygon((P(0, 0), P(4, 0), P(1, 1), P(0, 4)))
        with pytest.raises(NonConvexInput):
            convex_closed_intersection(bad, unit_square)

    def test_touching_edge_is_segment_not_polygon(self):
        right = Polygon((P(2, 0), P(4, 0), P(4, 2), P(2, 2)))
        closed = convex_closed_intersection(unit_square, right)
        assert closed == Segment(P(2, 0), P(2, 2))

    def test_touching_corner_is_point(self):
        corner = Polygon((P(2, 2), P(4, 2), P(4, 4), P(2, 4)))
        assert convex_closed_intersection(unit_square, corner) == P(2, 2)

    @given(st.lists(points, min_size=3, max_size=8), st.lists(points, min_size=3, max_size=8))
    @settings(max_examples=60)
    def test_matches_clipping_oracle(self, pts_a, pts_b):
        hull_a = convex_hull(pts_a)
        hull_b = convex_hull(pts_b)
        if len(hull_a) < 3 or len(hull_b) < 3:
            return
        pa, pb = Polygon(tuple(hull_a)), Polygon(tuple(hull_b))
        got = convex_closed_intersection(pa, pb)
        expected = clip_convex_intersection(pa, pb)
        if isinstance(got, Polygon):
            assert got == expected
            assert is_convex_polygon(got)
        else:
            assert expected is None

    def test_mesh_triangle_pairs_match_oracles(self, corpus, degenerate_corpus):
        """Every triangle pair of the corpus meshes: shared vertices, shared
        edges and collinear hull runs, contacts that random hulls rarely make.
        Only a triangle with itself has a positive-area intersection, which
        the clipping oracle checks; the small-grid property checks it on
        touching pairs."""
        kinds = Counter()
        for entry in corpus + degenerate_corpus:
            polys = [entry.mesh.triangle_polygon(t) for t in range(len(entry.mesh))]
            for a, b in combinations_with_replacement(range(len(polys)), 2):
                got = convex_closed_intersection(polys[a], polys[b])
                assert got == candidate_hull_intersection(polys[a], polys[b])
                if a == b:
                    assert got == clip_convex_intersection(polys[a], polys[b]) == polys[a]
                kinds[type(got).__name__] += 1
        assert kinds["Point"] > 0 and kinds["Segment"] > 0 and kinds["Polygon"] > 0

    @given(st.lists(grid_points, min_size=3, max_size=7), st.lists(grid_points, min_size=3, max_size=7))
    @settings(max_examples=300, deadline=None)
    def test_small_grid_matches_oracles(self, pts_a, pts_b):
        # A 5 x 5 grid makes shared vertices, touching edges and collinear
        # overlaps common.
        hull_a = fraction_convex_hull(pts_a)
        hull_b = fraction_convex_hull(pts_b)
        assume(len(hull_a) >= 3 and len(hull_b) >= 3)
        pa, pb = Polygon(tuple(hull_a)), Polygon(tuple(hull_b))
        got = convex_closed_intersection(pa, pb)
        assert got == candidate_hull_intersection(pa, pb)
        assert convex_closed_intersection(pb, pa) == got
        assert (got if isinstance(got, Polygon) else None) == clip_convex_intersection(pa, pb)

    @given(st.lists(st.one_of(grid_points, points), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_hull_matches_fraction_hull(self, pts):
        assert convex_hull(pts) == fraction_convex_hull(pts)


class TestLocatePoint:
    def test_segment_cases(self):
        seg = Segment(P(0, 0), P(2, 2))
        assert locate_point(P(1, 1), seg) is PointLocation.INTERIOR
        assert locate_point(P(0, 0), seg) is PointLocation.BOUNDARY
        assert locate_point(P(3, 3), seg) is PointLocation.EXTERIOR
        assert locate_point(P(1, 0), seg) is PointLocation.EXTERIOR

    def test_polygon_cases(self):
        tri = Polygon((P(0, 0), P(4, 0), P(0, 4)))
        assert locate_point(P(3, 3), tri) is PointLocation.EXTERIOR
        assert locate_point(P(1, 1), tri) is PointLocation.INTERIOR
        assert locate_point(P(2, 2), tri) is PointLocation.BOUNDARY
        assert locate_point(P(0, 0), tri) is PointLocation.BOUNDARY

    def test_nonconvex_polygon(self):
        poly = Polygon((P(0, 0), P(4, 0), P(1, 1), P(0, 4)))
        assert locate_point(P(2, 2), poly) is PointLocation.EXTERIOR
        assert locate_point(P(1, 1), poly) is PointLocation.BOUNDARY
        assert locate_point(P("0.5", "0.5"), poly) is PointLocation.INTERIOR

    @given(points, points, points)
    def test_segment_interior_is_collinear_non_endpoint(self, a, b, x):
        if a == b:
            return
        seg = Segment(a, b)
        if locate_point(x, seg) is PointLocation.INTERIOR:
            assert x not in (a, b)
            assert orientation(a, b, x) is Orientation.COLLINEAR


# Rationals whose denominators differ from coordinate to coordinate, so the
# homogeneous weight of a point is usually the product of two denominators.
mixed = st.fractions(min_value=-30, max_value=30, max_denominator=60)
mixed_points = st.builds(Point, mixed, mixed)


@st.composite
def points_on_a_line(draw, count: int) -> list[Point]:
    """`count` distinct points a + t*d on one line."""
    a = draw(mixed_points)
    d = draw(mixed_points.filter(lambda p: p != Point(0, 0)))
    ts = draw(
        st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=12),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    return [Point(a.x + t * d.x, a.y + t * d.y) for t in ts]


@st.composite
def triples(draw) -> tuple[Point, Point, Point]:
    if draw(st.booleans()):
        a, b, c = draw(points_on_a_line(3))
    else:
        a, b, c = draw(st.tuples(mixed_points, mixed_points, mixed_points))
    return a, b, c


@st.composite
def cocircular_quadruple(draw) -> list[Point]:
    """Four distinct points exactly on one circle (stereographic form)."""
    cx, cy = draw(mixed), draw(mixed)
    r = draw(st.fractions(min_value=Fraction(1, 10), max_value=30, max_denominator=60))
    ts = draw(
        st.lists(
            st.fractions(min_value=-12, max_value=12, max_denominator=40),
            min_size=4,
            max_size=4,
            unique=True,
        )
    )
    return [Point(cx + r * (1 - t * t) / (1 + t * t), cy + 2 * r * t / (1 + t * t)) for t in ts]


@st.composite
def segment_pairs(draw) -> tuple[Segment, Segment]:
    kind = draw(st.sampled_from(("random", "collinear", "touch", "parallel")))
    if kind == "random":
        a, b, c, d = draw(st.lists(mixed_points, min_size=4, max_size=4, unique=True))
        s, t = Segment(a, b), Segment(c, d)
    elif kind == "collinear":
        # Overlap, containment, end-to-end touch or disjoint on one line.
        pts = draw(points_on_a_line(4))
        i, j = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True))
        s, t = Segment(pts[0], pts[1]), Segment(pts[i], pts[j])
    elif kind == "touch":
        # t starts on s: at an endpoint or inside it.
        a, b, c = draw(st.lists(mixed_points, min_size=3, max_size=3, unique=True))
        u = draw(st.sampled_from((Fraction(0), Fraction(1), Fraction(1, 3), Fraction(5, 7))))
        x = Point(a.x + u * (b.x - a.x), a.y + u * (b.y - a.y))
        if c == x:
            c = Point(c.x + 1, c.y)
        s, t = Segment(a, b), Segment(x, c)
    else:
        a, b, c, d = draw(points_on_a_line(4))
        off = draw(mixed_points.filter(lambda p: p != Point(0, 0)))
        s = Segment(a, b)
        t = Segment(Point(c.x + off.x, c.y + off.y), Point(d.x + off.x, d.y + off.y))
    if draw(st.booleans()):
        t = reversed_segment(t)
    if draw(st.booleans()):
        s, t = t, s
    return s, t


@st.composite
def polygon_and_line(draw) -> tuple[Polygon, int, int, int]:
    """A convex polygon and integer coefficients of a line fa*x + fb*y + fc = 0
    that misses it, crosses it, passes through a vertex or carries an edge."""
    hull = convex_hull(draw(st.lists(mixed_points, min_size=3, max_size=8)))
    assume(len(hull) >= 3)
    poly = Polygon(tuple(hull))
    verts = poly.vertices
    kind = draw(st.sampled_from(("random", "vertex", "edge")))
    if kind == "random":
        fa, fb, fc = (draw(st.integers(-60, 60)) for _ in range(3))
        assume(fa or fb)
        return poly, fa, fb, fc
    i = draw(st.integers(0, len(verts) - 1))
    a = verts[i]
    if kind == "vertex":
        fa, fb = Fraction(draw(st.integers(-9, 9))), Fraction(draw(st.integers(-9, 9)))
        assume(fa or fb)
    else:
        b = verts[(i + 1) % len(verts)]
        fa, fb = b.y - a.y, a.x - b.x
    fc = -(fa * a.x + fb * a.y)
    scale = lcm(fa.denominator, fb.denominator, fc.denominator)
    return poly, int(fa * scale), int(fb * scale), int(fc * scale)


class TestIntegerKernel:
    """The integer predicates agree with the plain Fraction formulas."""

    @settings(max_examples=200, deadline=None)
    @given(triples())
    def test_orientation_matches_reference(self, abc):
        a, b, c = abc
        expected = fraction_orientation(a, b, c)
        assert orientation(a, b, c) is expected

    @settings(max_examples=200, deadline=None)
    @given(triples())
    def test_circumcircle_matches_reference(self, abc):
        a, b, c = abc
        if fraction_orientation(a, b, c) is Orientation.COLLINEAR:
            with pytest.raises(CollinearInput):
                circumcenter(a, b, c)
            return
        center, radius_sq = fraction_circumcircle(a, b, c)
        assert circumcenter(a, b, c) == center
        assert fraction_distance_sq(center, a) == radius_sq

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.lists(mixed_points, min_size=4, max_size=4, unique=True),
            cocircular_quadruple(),
        ),
        st.permutations(range(4)),
    )
    def test_in_circumcircle_matches_reference(self, pts, order):
        a, b, c, d = (pts[i] for i in order)
        if fraction_orientation(a, b, c) is not Orientation.CCW:
            with pytest.raises(NotCCW):
                fraction_in_circumcircle(a, b, c, d)
            return
        expected = fraction_in_circumcircle(a, b, c, d)
        assert incircle(a, b, c, d) == expected
        assert circle_position(*fraction_circumcircle(a, b, c), d) == expected

    def test_cocircular_mixed_denominators_are_on(self):
        # (3/5, 4/5), (5/13, 12/13), (-8/17, 15/17) and (-7/25, -24/25) lie on
        # the unit circle, and every coordinate pair has unrelated denominators.
        a, b, c, d = P("3/5", "4/5"), P("5/13", "12/13"), P("-8/17", "15/17"), P("-7/25", "-24/25")
        assert incircle(a, b, c, d) == fraction_in_circumcircle(a, b, c, d) == 0
        inside = P("-7/25", "-23/25")
        assert incircle(a, b, c, inside) == fraction_in_circumcircle(a, b, c, inside) == 1

    @settings(max_examples=300, deadline=None)
    @given(segment_pairs())
    def test_segment_intersection_matches_reference(self, st_pair):
        s, t = st_pair
        got = convex_closed_intersection(s, t)
        assert got == fraction_segment_intersection(s, t)
        assert got == convex_closed_intersection(t, s)

    def test_touch_returns_the_touching_endpoint(self):
        s = Segment(P("1/3", "1/7"), P("7/3", "15/7"))
        assert convex_closed_intersection(s, Segment(P("4/3", "8/7"), P(5, -1))) == P("4/3", "8/7")
        assert convex_closed_intersection(s, Segment(P(5, -1), P("7/3", "15/7"))) == P("7/3", "15/7")
        assert convex_closed_intersection(Segment(P(0, 2), P(4, 0)), s) == P("92/63", "80/63")

    @settings(max_examples=200, deadline=None)
    @given(polygon_and_line())
    def test_line_slice_matches_reference(self, case):
        poly, fa, fb, fc = case
        assert _line_slice(poly, (fa, fb, fc)) == fraction_line_slice(poly, fa, fb, fc)


KINDS = ("Point", "Segment", "Polygon")


@st.composite
def convex_sets(draw, kind: str):
    """A closed convex set of the kind, with corners on the 5 x 5 grid with
    thirds, where shared corners, touching sides and collinear overlaps
    are common, or anywhere in mixed position."""
    pool = draw(st.sampled_from((ring_points, mixed_points)))
    if kind == "Point":
        return draw(pool)
    if kind == "Segment":
        return Segment(*draw(st.lists(pool, min_size=2, max_size=2, unique=True)))
    hull = fraction_convex_hull(draw(st.lists(pool, min_size=3, max_size=7)))
    assume(len(hull) >= 3)
    return Polygon(tuple(hull))


class TestClosedConvexKernel:
    """convex_closed_intersection on every pair of kinds, against the
    Fraction references."""

    @pytest.mark.parametrize("first", KINDS)
    @pytest.mark.parametrize("second", KINDS)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_fraction_reference(self, first, second, data):
        g = data.draw(convex_sets(first))
        h = data.draw(convex_sets(second))
        got = convex_closed_intersection(g, h)
        assert got == fraction_closed_intersection(g, h)
        assert convex_closed_intersection(h, g) == got
        if isinstance(g, Polygon) and isinstance(h, Polygon):
            assert (got if isinstance(got, Polygon) else None) == clip_convex_intersection(g, h)

    def test_each_contact_kind(self):
        seg = Segment(P(0, 0), P(2, 2))
        assert convex_closed_intersection(P(1, 1), seg) == P(1, 1)
        assert convex_closed_intersection(P(1, 0), seg) is None
        assert convex_closed_intersection(P(2, 2), P(2, 2)) == P(2, 2)
        assert convex_closed_intersection(P(2, 2), P(2, 1)) is None
        assert convex_closed_intersection(P(1, 2), unit_square) == P(1, 2)
        assert convex_closed_intersection(Segment(P(3, 3), P(-1, -1)), unit_square) == Segment(
            P(0, 0), P(2, 2)
        )
        assert convex_closed_intersection(unit_square, Segment(P(2, 3), P(2, 1))) == Segment(
            P(2, 1), P(2, 2)
        )
        assert convex_closed_intersection(unit_square, Segment(P(3, -1), P(1, 3))) == Segment(
            P("3/2", 2), P(2, 1)
        )

    @pytest.mark.parametrize(
        "first, second, message",
        [
            ("bad", "square", "first polygon is not convex"),
            ("square", "bad", "second polygon is not convex"),
            ("bad", "bad", "first polygon is not convex"),
            ("point", "bad", "second polygon is not convex"),
            ("bad", "segment", "first polygon is not convex"),
        ],
    )
    def test_nonconvex_messages(self, first, second, message):
        sets = {
            "bad": Polygon((P(0, 0), P(4, 0), P(1, 1), P(0, 4))),
            "square": unit_square,
            "point": P(1, 1),
            "segment": Segment(P(0, 0), P(1, 1)),
        }
        with pytest.raises(NonConvexInput, match=f"^{message}$"):
            convex_closed_intersection(sets[first], sets[second])
