from fractions import Fraction

import pytest

from proxitri.delaunay import SiteSet
from proxitri.errors import DegenerateIntersection, FrameTooSmall, IndexOutOfRange
from proxitri.geometry import (
    Point,
    PointLocation,
    Polygon,
    Rect,
    Segment,
    bounding_box,
    is_convex_polygon,
    locate_point,
)
from proxitri.proximity import near
from proxitri.render import render_svg
from proxitri.voronoi import closed_cell_intersection, common_vertex, voronoi_diagram

from oracles import (
    composed_common_vertex,
    distance_matching_edges,
    fraction_distance_sq,
    halfplane_cell,
    on_frame_boundary,
)


def outcome(f, *args):
    """f's result, or DegenerateIntersection when f raises it."""
    try:
        return f(*args)
    except DegenerateIntersection:
        return DegenerateIntersection


def sites_of(*coords) -> SiteSet:
    return SiteSet.of(list(coords))


def caller_frame_diagrams(entries):
    """Diagrams under frames a caller passes: each entry's box of sites and
    circumcenters inflated by 1, and three sites in a frame whose corner
    (3, 3) lies on the ray of cells 1 and 2, and in a wider frame."""
    tri = sites_of((0, 0), (2, 0), (0, 2))
    out = [voronoi_diagram(tri, Rect(-1, -1, 3, 3)), voronoi_diagram(tri, Rect(-1, -1, 5, 3))]
    for entry in entries:
        x0, y0, x1, y1 = bounding_box([*entry.sites.points, *entry.diagram.vertices])
        out.append(voronoi_diagram(entry.sites, Rect(x0 - 1, y0 - 1, x1 + 1, y1 + 1)))
    return out


def reaches_frame(diagram, site) -> bool:
    return any(on_frame_boundary(diagram.frame, v) for v in diagram.cell(site).vertices)


class TestConstruction:
    def test_five_site_center_cell(self):
        diagram = voronoi_diagram(sites_of((0, 0), (2, 0), (0, 2), (2, 2), (1, 1)))
        assert diagram.cells[4] == Polygon(
            (Point(1, 0), Point(2, 1), Point(1, 2), Point(0, 1))
        )
        assert not reaches_frame(diagram, 4)
        for q in range(4):
            assert isinstance(closed_cell_intersection(diagram, 4, q), Segment)

    def test_three_site_unbounded_cells(self):
        diagram = voronoi_diagram(sites_of((0, 0), (4, 0), (0, 4)))
        assert diagram.vertices == (Point(2, 2),)
        assert all(reaches_frame(diagram, i) for i in range(3))

    def test_hull_cells_reach_frame(self, corpus, degenerate_corpus):
        # A hull cell is closed on the frame; every other cell's corners are
        # circumcenters, strictly inside it.
        entries = corpus + degenerate_corpus
        for diagram in [e.diagram for e in entries] + caller_frame_diagrams(entries):
            hull = set(diagram.mesh.hull())
            for i in range(len(diagram.sites)):
                assert reaches_frame(diagram, i) == (i in hull)

    def test_frame_too_small(self):
        sites = sites_of((0, 0), (4, 0), (0, 4))
        with pytest.raises(FrameTooSmall):
            voronoi_diagram(sites, Rect(-1, -1, Fraction(3, 2), Fraction(3, 2)))

    def test_frame_must_cover_circumcenters_too(self, corpus, degenerate_corpus):
        # flat triangle: circumcenter far below the site bounding box
        sites = sites_of((0, 0), (4, 0), (2, "0.1"))
        with pytest.raises(FrameTooSmall):
            voronoi_diagram(sites, Rect(-1, -1, 5, 1))
        # The default frame adapts; voronoi_diagram does not check it.
        defaults = [voronoi_diagram(sites)] + [e.diagram for e in corpus + degenerate_corpus]
        for diagram in defaults:
            for p in (*diagram.sites.points, *diagram.vertices):
                assert diagram.frame.contains_strict(p)

    def test_site_interior_to_cell(self, corpus):
        for entry in corpus[:8]:
            for site, cell in zip(entry.sites.points, entry.diagram.cells):
                assert locate_point(site, cell) is PointLocation.INTERIOR

    def test_cells_convex(self, corpus):
        for entry in corpus[:8]:
            for cell in entry.diagram.cells:
                assert is_convex_polygon(cell)

    def test_bounded_vertices_are_circumcenters(self, corpus):
        for entry in corpus[:8]:
            diagram = entry.diagram
            centers = set(diagram.vertices)
            for cell in diagram.cells:
                for v in cell.vertices:
                    if not on_frame_boundary(diagram.frame, v):
                        assert v in centers

    def test_cells_tile_frame(self, corpus):
        for entry in corpus[:6]:
            diagram = entry.diagram
            f = diagram.frame
            frame_area = (f.x1 - f.x0) * (f.y1 - f.y0)
            total = sum(
                (c.area() for c in diagram.cells), start=Fraction(0)
            )
            assert total == frame_area

    def test_matches_halfplane_oracle(self, corpus):
        entries = corpus[:8]
        for diagram in [e.diagram for e in entries] + caller_frame_diagrams(entries):
            for site, cell in enumerate(diagram.cells):
                assert cell == halfplane_cell(diagram.sites, site, diagram.frame)

    def test_lazy_cell_matches_full_build(self, corpus, degenerate_corpus):
        for entry in corpus + degenerate_corpus:
            full = entry.diagram.cells
            lazy = voronoi_diagram(entry.sites)
            for site in reversed(range(len(entry.sites))):
                assert lazy.cell(site) == full[site]
            assert lazy.cells == full

    def test_render_draws_each_edge_once(self, corpus, degenerate_corpus):
        # One dashed line per pair of cells sharing a positive-length edge,
        # counted from the mesh and from the distance-matched edge owners.
        entries = corpus + degenerate_corpus
        for diagram in [e.diagram for e in entries] + caller_frame_diagrams(entries):
            svg = render_svg("voronoi", diagram.mesh, diagram)
            drawn = sum("stroke-dasharray" in line for line in svg.splitlines())
            strong = [
                (p, q) for p, q in diagram.mesh.edges()
                if isinstance(closed_cell_intersection(diagram, p, q), Segment)
            ]
            owned = {
                frozenset((site, owner))
                for site, cell in enumerate(diagram.cells)
                for _, owner in distance_matching_edges(diagram.sites, site, cell)
                if owner is not None
            }
            assert drawn == len(strong) == len(owned)

    def test_nearest_site_property_on_vertices(self, corpus):
        # every cell corner is at least as close to its own site as to others
        for entry in corpus[:6]:
            for own, cell in zip(entry.sites.points, entry.diagram.cells):
                for v in cell.vertices:
                    d_own = fraction_distance_sq(v, own)
                    assert all(
                        fraction_distance_sq(v, other) >= d_own for other in entry.sites.points
                    )


class TestCommonVertex:
    def test_single_triangle(self):
        diagram = voronoi_diagram(sites_of((0, 0), (4, 0), (0, 4)))
        assert common_vertex(diagram, 0, 1, 2) == Point(2, 2)

    def test_fan_outer_cells_share_nothing(self, fan_sites):
        diagram = voronoi_diagram(fan_sites)
        assert common_vertex(diagram, 0, 1, 2) is None

    def test_cocircular_square_degenerates(self):
        diagram = voronoi_diagram(sites_of((0, 0), (2, 0), (2, 2), (0, 2)))
        from itertools import combinations

        for trio in combinations(range(4), 3):
            with pytest.raises(DegenerateIntersection):
                common_vertex(diagram, *trio)

    def test_cocircular_mixed_denominators_degenerate(self):
        # four points of the unit circle, each with its own denominator, plus
        # one outside site: the cells of the four meet at the origin
        diagram = voronoi_diagram(
            sites_of(("3/5", "4/5"), ("5/13", "12/13"), ("-8/17", "15/17"), ("-7/25", "-24/25"), (3, 3))
        )
        on_circle = [tri for tri in diagram.mesh.triangles if 4 not in tri]
        assert on_circle
        for trio in on_circle:
            with pytest.raises(DegenerateIntersection):
                common_vertex(diagram, *trio)

    def test_distinct_indices_required(self, fan_sites):
        diagram = voronoi_diagram(fan_sites)
        with pytest.raises(IndexOutOfRange):
            common_vertex(diagram, 0, 0, 1)

    def test_matches_composed_reference(self, corpus, degenerate_corpus):
        # Each triangle in one of its rotations (so every bisector of it is
        # sliced somewhere), plus a triple whose third cell lies elsewhere:
        # point and segment contacts, the empty answer and both raises.
        kinds = set()
        for entry in corpus + degenerate_corpus:
            diagram = entry.diagram
            n = len(entry.sites)
            for t, (i, j, k) in enumerate(diagram.mesh.triangles):
                trios = [((i, j, k), (j, k, i), (k, i, j))[t % 3]]
                if n > 3:
                    trios.append((i, j, next(s for s in range(n) if s not in (i, j, k))))
                for trio in trios:
                    expected = outcome(composed_common_vertex, diagram, *trio)
                    assert outcome(common_vertex, diagram, *trio) == expected
                    kinds.add(expected if expected is DegenerateIntersection else type(expected))
        assert kinds == {Point, type(None), DegenerateIntersection}

    def test_matches_circumcenters_on_corpus(self, corpus):
        for entry in corpus[:8]:
            diagram = entry.diagram
            for t, (i, j, k) in enumerate(diagram.mesh.triangles):
                assert common_vertex(diagram, i, j, k) == diagram.vertices[t]


class TestStrongNearness:
    def test_pentagon_figure_configuration(self):
        # configuration shaped like the figure: p's cell is a pentagon, the
        # p/q cells share a segment, and edge pr stays far from it
        sites = sites_of(
            ("4.5", "2"),
            ("5.95", "1.55"),
            ("5.35", "3.25"),
            ("3.1", "1.1"),
            ("3.2", "3"),
            ("4.7", "0.5"),
            ("5.9", "0.6"),
        )
        diagram = voronoi_diagram(sites)
        mesh = diagram.mesh
        assert mesh.has_edge(0, 1) and mesh.has_edge(0, 2)
        assert not reaches_frame(diagram, 0)
        assert len(diagram.cells[0].vertices) == 5
        shared = closed_cell_intersection(diagram, 0, 1)
        assert isinstance(shared, Segment)
        # the oracle cells agree on the shared segment
        oracle_p = halfplane_cell(sites, 0, diagram.frame)
        oracle_q = halfplane_cell(sites, 1, diagram.frame)
        for end in (shared.a, shared.b):
            assert locate_point(end, oracle_p) is not PointLocation.EXTERIOR
            assert locate_point(end, oracle_q) is not PointLocation.EXTERIOR

    def test_separated_pair(self):
        diagram = voronoi_diagram(sites_of((0, 0), (2, 0), (4, 0), (2, 1)))
        assert not isinstance(closed_cell_intersection(diagram, 0, 2), Segment)

    @pytest.mark.parametrize("p,q", [(1, 1), (9, 1), (1, 9), (True, 2), (-1, 1)])
    def test_bad_pair_rejected(self, fan_sites, p, q):
        # A site's bisector with itself is the zero line, which every cell
        # corner lies on, so an equal pair would give a bogus segment.
        diagram = voronoi_diagram(fan_sites)
        with pytest.raises(IndexOutOfRange):
            closed_cell_intersection(diagram, p, q)

    def test_duality_with_mesh_edges(self, corpus):
        from itertools import combinations

        for entry in corpus[:8]:
            diagram = entry.diagram
            for p, q in combinations(range(len(entry.sites)), 2):
                shared = closed_cell_intersection(diagram, p, q)
                assert isinstance(shared, Segment) == diagram.mesh.has_edge(p, q)

    def test_near_reads_the_cell_contact(self, corpus, degenerate_corpus):
        # near's witness for two cells is their closed intersection, and it
        # is strong exactly when that is a segment.
        from itertools import combinations

        entries = corpus + degenerate_corpus
        for diagram in [e.diagram for e in entries] + caller_frame_diagrams(entries):
            cells = diagram.cells
            for p, q in combinations(range(len(cells)), 2):
                verdict = near(cells[p], cells[q])
                contact = closed_cell_intersection(diagram, p, q)
                assert verdict.witness == contact
                assert verdict.strongly == isinstance(contact, Segment)

    def test_cocircular_square_diagonals_not_strong(self):
        diagram = voronoi_diagram(sites_of((0, 0), (2, 0), (2, 2), (0, 2)))
        # the mesh carries a tie-break diagonal, but the cells only share a point
        assert diagram.mesh.has_edge(0, 2)
        assert closed_cell_intersection(diagram, 0, 2) == Point(1, 1)
