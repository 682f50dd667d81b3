import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxitri.delaunay import SiteSet, adjacency, triangulate
from proxitri.errors import IndexOutOfRange
from proxitri.geometry import (
    Point,
    PointLocation,
    Polygon,
    Segment,
    is_convex_polygon,
    locate_point,
)
from proxitri.proximity import near, strongly_near_triangles, triangles_near

from oracles import fraction_segment_intersection

coords = st.fractions(min_value=-15, max_value=15, max_denominator=6)
points = st.builds(Point, coords, coords)


def P(x, y):
    return Point(x, y)


class TestNearFar:
    def test_edges_sharing_a_vertex(self):
        pq = Segment(P(0, 0), P(1, 1))
        qr = Segment(P(1, 1), P(2, 0))
        verdict = near(pq, qr)
        assert verdict.is_near
        assert verdict.witness == P(1, 1)

    def test_disjoint_parallel_segments(self):
        assert not near(Segment(P(0, 0), P(1, 0)), Segment(P(0, 1), P(1, 1))).is_near

    def test_reflexive(self):
        seg = Segment(P(0, 0), P(3, 1))
        tri = Polygon((P(0, 0), P(4, 0), P(0, 4)))
        assert near(seg, seg).is_near
        assert near(tri, tri).is_near

    def test_point_set_inputs(self):
        assert near(P(1, 1), Segment(P(0, 0), P(2, 2))).is_near
        assert near([P(5, 5), P(1, 1)], Polygon((P(0, 0), P(4, 0), P(0, 4)))).is_near
        assert not near((P(9, 9),), Polygon((P(0, 0), P(4, 0), P(0, 4)))).is_near

    def test_segment_through_polygon_interior(self):
        tri = Polygon((P(0, 0), P(4, 0), P(0, 4)))
        crossing = Segment(P(-1, 1), P(5, 1))
        verdict = near(crossing, tri)
        assert verdict.is_near
        assert locate_point(verdict.witness, tri) is not PointLocation.EXTERIOR

    def test_overlapping_polygons_witness_region(self):
        a = Polygon((P(0, 0), P(2, 0), P(2, 2), P(0, 2)))
        b = Polygon((P(1, 1), P(3, 1), P(3, 3), P(1, 3)))
        verdict = near(a, b)
        assert verdict.is_near and isinstance(verdict.witness, Polygon)
        assert not verdict.strongly

    def test_edge_sharing_polygons_are_strongly_near(self):
        a = Polygon((P(0, 0), P(2, 0), P(2, 2), P(0, 2)))
        b = Polygon((P(2, 0), P(4, 0), P(4, 2), P(2, 2)))
        verdict = near(a, b)
        assert verdict.strongly
        assert verdict.witness == Segment(P(2, 0), P(2, 2))

    def test_corner_touch_not_strong(self):
        a = Polygon((P(0, 0), P(2, 0), P(2, 2), P(0, 2)))
        b = Polygon((P(2, 2), P(4, 2), P(4, 4), P(2, 4)))
        verdict = near(a, b)
        assert verdict.is_near and not verdict.strongly
        assert verdict.witness == P(2, 2)

    def test_unsupported_types_raise_type_error(self):
        square = Polygon((P(0, 0), P(2, 0), P(2, 2), P(0, 2)))
        for other in ("abc", 3, None):
            with pytest.raises(TypeError, match="unsupported geometry pair"):
                near(other, square)
            with pytest.raises(TypeError, match="unsupported geometry pair"):
                near(square, other)
        with pytest.raises(TypeError, match="unsupported geometry pair"):
            near(P(1, 1), "abc")

    def test_box_disjoint_pairs_are_far(self):
        # Each pair's bounding boxes are disjoint, in x or in y only.
        square = Polygon((P(0, 0), P(2, 0), P(2, 2), P(0, 2)))
        notch = Polygon((P(5, 0), P(9, 0), P(9, 3), P(7, 1), P(5, 3)))
        assert not is_convex_polygon(notch)
        pairs = [
            ((P(0, 0), P(1, 1)), (P(3, 0), P(4, 1))),
            (P(1, 5), [P(0, 0), P(2, 2)]),
            (Segment(P(0, 0), P(1, 1)), Segment(P(2, 0), P(3, 1))),
            (Segment(P(0, 3), P(2, 4)), square),
            (square, Polygon((P(3, 0), P(4, 0), P(4, 1)))),
            (square, notch),
            (notch, Polygon((P(5, 4), P(9, 4), P(7, 6)))),
        ]
        for a, b in pairs:
            for x, y in ((a, b), (b, a)):
                verdict = near(x, y)
                assert not verdict.is_near
                assert verdict.witness is None

    @given(points, points, points, points)
    @settings(max_examples=80)
    def test_symmetry(self, a, b, c, d):
        if a == b or c == d:
            return
        s, t = Segment(a, b), Segment(c, d)
        assert near(s, t).is_near == near(t, s).is_near

    @given(points, points, points, points)
    @settings(max_examples=80)
    def test_mutual_exclusion_and_witness_validity(self, a, b, c, d):
        if a == b or c == d:
            return
        s, t = Segment(a, b), Segment(c, d)
        verdict = near(s, t)
        assert verdict.is_near == (fraction_segment_intersection(s, t) is not None)
        if verdict.is_near and isinstance(verdict.witness, Point):
            assert locate_point(verdict.witness, s) is not PointLocation.EXTERIOR
            assert locate_point(verdict.witness, t) is not PointLocation.EXTERIOR


class TestTriangleRelations:
    def test_figure_pattern_shared_edge(self):
        # two triangles sharing one full edge
        sites = SiteSet.of([(0, 0), (4, 0), (1, 3), (5, 3)])
        mesh = triangulate(sites)
        assert len(mesh) == 2
        assert strongly_near_triangles(mesh, 0, 1)
        assert mesh.has_edge(1, 2)  # the shared edge

    def test_vertex_only_contact_is_not_strong(self):
        # two fans meeting at one vertex only
        sites = SiteSet.of([(0, 0), (2, 0), (1, 1), (0, 2), (2, 2)])
        mesh = triangulate(sites)
        pairs = [
            (t1, t2)
            for t1 in range(len(mesh))
            for t2 in range(len(mesh))
            if t1 < t2 and len(set(mesh.triangles[t1]) & set(mesh.triangles[t2])) == 1
        ]
        assert pairs
        for t1, t2 in pairs:
            assert not strongly_near_triangles(mesh, t1, t2)
            assert triangles_near(mesh, t1, t2)

    def test_same_triangle_rejected_for_strong(self, fan_mesh):
        with pytest.raises(IndexOutOfRange):
            strongly_near_triangles(fan_mesh, 1, 1)

    def test_near_is_reflexive(self, fan_mesh):
        assert triangles_near(fan_mesh, 2, 2)

    def test_distant_components_are_far(self):
        from proxitri.delaunay import TriMesh

        sites = SiteSet.of([(0, 0), (2, 0), (1, 1), (50, 50), (52, 50), (51, 51)])
        scene = TriMesh(sites, ((0, 1, 2), (3, 4, 5)), frozenset())
        assert not triangles_near(scene, 0, 1)
        polys = [scene.triangle_polygon(t) for t in range(2)]
        assert not near(polys[0], polys[1]).is_near

    def test_fan_pairs_all_near(self, fan_mesh):
        for t1 in range(3):
            for t2 in range(3):
                assert triangles_near(fan_mesh, t1, t2)

    def test_strong_implies_near_and_symmetry(self, corpus):
        from itertools import combinations

        for entry in corpus[:5]:
            mesh = entry.mesh
            for t1, t2 in combinations(range(len(mesh)), 2):
                s = strongly_near_triangles(mesh, t1, t2)
                assert s == strongly_near_triangles(mesh, t2, t1)
                if s:
                    assert triangles_near(mesh, t1, t2)

    def test_combinatorial_matches_geometric(self, corpus, degenerate_corpus):
        # Shared vertex indices and the closed intersection agree on
        # nearness, and on strong nearness with the mesh's edge neighbours.
        from itertools import combinations

        for entry in corpus + degenerate_corpus:
            mesh = entry.mesh
            polys = [mesh.triangle_polygon(t) for t in range(len(mesh))]
            for t1, t2 in combinations(range(len(mesh)), 2):
                verdict = near(polys[t1], polys[t2])
                assert triangles_near(mesh, t1, t2) == verdict.is_near
                strong = strongly_near_triangles(mesh, t1, t2)
                assert strong == verdict.strongly == (t2 in adjacency(mesh, t1))
