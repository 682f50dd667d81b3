import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxitri.delaunay import (
    ConstraintSet,
    SiteSet,
    adjacency,
    constrained_triangulate,
    is_locally_delaunay,
    triangulate,
)
from proxitri.errors import (
    AllCollinear,
    ConstraintThroughSite,
    CrossingConstraints,
    DuplicateSite,
    IndexOutOfRange,
    TooFewSites,
    UnknownEdge,
)
from proxitri.generate import generate_sites
from proxitri.geometry import Point, Segment, _det3, _incircle_det, _sign
from proxitri.voronoi import closed_cell_intersection, common_vertex, voronoi_diagram

from conftest import EXACTLY_COCIRCULAR
from oracles import (
    brute_delaunay_triangles,
    edges_of_triangles,
    fraction_circumcircle,
    fraction_in_circumcircle,
    fraction_is_constrained_delaunay_edge,
    fraction_orientation,
    is_constrained_delaunay_edge,
    is_visible,
    mesh_triangle_set,
    random_constraints,
    reference_fan,
    reference_mesh,
    scan_site_inside_circumdisk,
    visibility_oracle,
)

EMPTY = ConstraintSet(())


def sites_of(*coords) -> SiteSet:
    return SiteSet.of(list(coords))


class TestSiteSet:
    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateSite):
            sites_of((0, 0), (1, 1), (0, 0))
        # equal values written differently are one site
        for half in ("0.5", "1/2", "0.50", Fraction(1, 2)):
            with pytest.raises(DuplicateSite, match=r"site \(1/2, 0\) appears at #0 and #2"):
                sites_of(("0.5", 0), (1, 1), (half, 0))

    def test_too_few(self):
        with pytest.raises(TooFewSites):
            triangulate(sites_of((0, 0), (1, 1)))

    def test_all_collinear(self):
        with pytest.raises(AllCollinear):
            triangulate(sites_of((0, 0), (1, 1), (2, 2)))


# Rationals whose denominators differ from site to site.
kernel_coords = st.fractions(min_value=-30, max_value=30, max_denominator=60)
kernel_points = st.builds(Point, kernel_coords, kernel_coords)


@st.composite
def cocircular_quadruples(draw):
    """Four distinct points exactly on one circle, from the stereographic
    parametrization x = cx + r(1-t^2)/(1+t^2), y = cy + 2rt/(1+t^2)."""
    cx = draw(kernel_coords)
    cy = draw(kernel_coords)
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


def assert_kernel_matches_fractions(pts):
    rows = [p.row for p in pts]
    a, b, c, d = pts
    turn = fraction_orientation(a, b, c).value
    assert _sign(_det3(rows[0], rows[1], rows[2])) == turn
    assert _sign(_det3(rows[0], rows[2], rows[1])) == -turn
    if turn == 0:
        return None
    i, j, k = (0, 1, 2) if turn > 0 else (0, 2, 1)
    expected = fraction_in_circumcircle(pts[i], pts[j], pts[k], d)
    assert _sign(_incircle_det(rows[i], rows[j], rows[k], rows[3])) == expected
    return expected


class TestKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(kernel_points, min_size=4, max_size=4, unique=True))
    def test_signs_match_fraction_predicates(self, pts):
        assert_kernel_matches_fractions(pts)

    @settings(max_examples=100, deadline=None)
    @given(cocircular_quadruples())
    def test_cocircular_quadruples_are_on(self, pts):
        assert assert_kernel_matches_fractions(pts) == 0

    def test_homogeneous_form_uses_the_lcm_weight(self):
        # W = lcm(4, 6) = 12, not the product 24; SiteSet.scaled reads the same form
        assert Point("3/4", "-1/6").row == (9, -2, 12)
        assert Point("2/3", 5).row == (2, 15, 3)
        sites = sites_of(("3/4", "-1/6"), ("2/3", 5), (1, 2))
        assert sites.scaled == ((9, -2), (2, 15), (1, 2))
        assert all(sites.rows[i] == sites[i].row for i in range(len(sites)))
        assert sites.scaled == tuple(r[:2] for r in sites.rows)
        assert sites.index_of(Point("0.75", "-1/6")) == 0
        assert sites.index_of(Point("3/4", "1/6")) is None

    @settings(max_examples=200, deadline=None)
    @given(kernel_coords, kernel_coords)
    def test_row_is_canonical(self, x, y):
        p = Point(x, y)
        px, py, pw = p.row
        assert pw > 0 and gcd(px, py, pw) == 1
        assert p.x == x and p.y == y
        assert pw == lcm(x.denominator, y.denominator)

    @settings(max_examples=200, deadline=None)
    @given(kernel_coords, kernel_coords)
    def test_row_constructor_reduces_any_multiple(self, x, y):
        p = Point(x, y)
        px, py, pw = p.row
        for k in (-3, -1, 2):
            q = Point._at(k * px, k * py, k * pw)
            assert q == p and q.row == p.row and hash(q) == hash(p)

    def test_one_value_written_three_ways_is_one_point(self):
        points = [Point("0.5", 1), Point("1/2", 1), Point(Fraction(2, 4), 1)]
        assert all(p == points[0] and p.row == (1, 2, 2) for p in points)
        assert len({hash(p) for p in points}) == 1

    def test_per_site_operands_stay_small(self):
        # a common denominator of these sets would exceed 3000 bits
        for seed in (0, 1):
            rows = [p.row for p in generate_sites(1000, seed, "cocircular")]
            assert max(abs(v).bit_length() for row in rows for v in row) <= 64


class TestTriangulate:
    def test_single_triangle(self):
        mesh = triangulate(sites_of((0, 0), (4, 0), (0, 4)))
        assert mesh.triangles == ((0, 1, 2),)

    def test_fan(self, fan_mesh):
        assert len(fan_mesh) == 3
        for tri in fan_mesh.triangles:
            assert 3 in tri  # all triangles meet the interior site
        # the hull triangle is not Delaunay here
        assert (0, 1, 2) not in fan_mesh.triangles

    def test_fan_matches_brute_force(self, fan_sites, fan_mesh):
        assert mesh_triangle_set(fan_mesh) == brute_delaunay_triangles(fan_sites)

    def test_collinear_runs_are_handled(self):
        # four-site collinear prefix exercises the startup fan
        mesh = triangulate(sites_of((0, 0), (0, 1), (0, 2), (0, 3), (1, 2), (2, 3)))
        sites = mesh.sites
        assert mesh_triangle_set(mesh) == brute_delaunay_triangles(sites)

    def test_degenerate_corpus_against_brute_force(self, degenerate_corpus):
        # Subset, not equality: on a cocircular group the oracle lists the
        # triangles of every triangulation of it.
        for entry in degenerate_corpus:
            mesh = entry.mesh
            n, h = len(mesh.sites), len(mesh.hull())
            assert mesh_triangle_set(mesh) <= brute_delaunay_triangles(entry.sites)
            assert len(mesh) == 2 * n - h - 2

    def test_grid_with_cocircular_ties(self):
        pts = [(x, y) for x in range(4) for y in range(4)]
        mesh = triangulate(SiteSet.of(pts))
        n, h = 16, 12
        assert len(mesh) == 2 * n - h - 2
        assert len(mesh.edges()) == 3 * n - h - 3
        assert all(is_locally_delaunay(mesh, e) for e in mesh.edges())

    def test_square_tie_break_prefers_low_index(self):
        mesh = triangulate(sites_of((0, 0), (2, 0), (2, 2), (0, 2)))
        assert mesh.has_edge(0, 2)
        assert not mesh.has_edge(1, 3)

    def test_determinism_bitwise(self):
        coords = [("0.13", "7.5"), (4, 1), (2, 6), (5, 5), (1, 3)]
        a = triangulate(SiteSet.of(coords))
        b = triangulate(SiteSet.of(coords))
        assert a == b

    def test_empty_circumdisk_property(self, corpus):
        # spot-check a slice of the corpus here; acceptance covers all of it
        for entry in corpus[:10]:
            for t in range(len(entry.mesh)):
                assert scan_site_inside_circumdisk(entry.mesh, t) is None

    def test_circumcenter_is_circumcircle_center(self, corpus, degenerate_corpus):
        for entry in corpus + degenerate_corpus:
            mesh = entry.mesh
            for t in range(len(mesh)):
                assert mesh.circumcenter(t) == fraction_circumcircle(*mesh.triangle_points(t))[0]


class TestHullCoverage:
    def test_triangle_areas_sum_to_hull_area(self, corpus):
        from fractions import Fraction

        from proxitri.geometry import Polygon

        for entry in corpus[:10]:
            mesh = entry.mesh
            hull_poly = Polygon(tuple(mesh.sites[i] for i in mesh.hull()))
            total = sum(
                (mesh.triangle_polygon(t).area() for t in range(len(mesh))),
                start=Fraction(0),
            )
            assert total == hull_poly.area()


class TestAdjacency:
    def test_fan_neighbors(self, fan_mesh):
        for t in range(3):
            assert adjacency(fan_mesh, t) == {x for x in range(3) if x != t}

    def test_single_triangle_none(self):
        mesh = triangulate(sites_of((0, 0), (4, 0), (0, 4)))
        assert adjacency(mesh, 0) == set()

    def test_bad_id(self, fan_mesh):
        with pytest.raises(IndexOutOfRange):
            adjacency(fan_mesh, 99)


class TestEulerCounts:
    def test_corpus_counts(self, corpus):
        for entry in corpus[:20]:
            mesh = entry.mesh
            n = len(mesh.sites)
            h = len(mesh.hull())
            assert len(mesh) == 2 * n - h - 2
            assert len(mesh.edges()) == 3 * n - h - 3


class TestLocallyDelaunay:
    def test_unknown_edge(self, fan_mesh):
        with pytest.raises(UnknownEdge):
            is_locally_delaunay(fan_mesh, (0, 0))

    def test_all_edges_of_delaunay_mesh(self, fan_mesh, degenerate_corpus):
        # the hand-built lattice sets put cocircular apexes across edges
        for mesh in [fan_mesh] + [entry.mesh for entry in degenerate_corpus]:
            assert all(is_locally_delaunay(mesh, e) for e in mesh.edges())

    def test_flipped_diagonal_detected(self):
        # convex quad whose Delaunay diagonal is 0-2; force 1-3 instead
        sites = sites_of((0, 0), (4, 0), (4, 3), (0, "3.5"))
        good = triangulate(sites)
        assert good.has_edge(0, 2)
        from proxitri.delaunay import TriMesh

        bad = TriMesh(sites, ((0, 1, 3), (1, 2, 3)), frozenset())
        assert not is_locally_delaunay(bad, (1, 3))
        assert is_locally_delaunay(bad, (0, 1))  # hull edges always qualify
        # the document computes its flags: only the forced diagonal fails
        from proxitri.io import document_for_mesh

        flags = {(e["a"], e["b"]): e["locally_delaunay"] for e in document_for_mesh(bad)["edges"]}
        assert [e for e, ok in flags.items() if not ok] == [(1, 3)]
        assert len(flags) == 5

    def test_clockwise_triangle_rejected(self):
        from proxitri.delaunay import TriMesh
        from proxitri.errors import NotCCW

        sites = sites_of((0, 0), (4, 0), (4, 3), (0, "3.5"))
        clockwise = TriMesh(sites, ((0, 3, 1), (1, 3, 2)), frozenset())
        with pytest.raises(NotCCW):
            is_locally_delaunay(clockwise, (1, 3))

    def test_cocircular_rectangle_is_locally_delaunay_both_ways(self):
        # all four sites concyclic: either diagonal passes the test exactly
        sites = sites_of((0, 0), (4, 0), (4, 3), (0, 3))
        mesh = triangulate(sites)
        from proxitri.delaunay import TriMesh

        other = TriMesh(sites, ((0, 1, 3), (1, 2, 3)), frozenset())
        for m in (mesh, other):
            assert all(is_locally_delaunay(m, e) for e in m.edges())


class TestDelaunayEdgeAndTriangle:
    def test_fan_edge_via_voronoi(self, fan_sites):
        diagram = voronoi_diagram(fan_sites)
        assert isinstance(closed_cell_intersection(diagram, 0, 3), Segment)

    def test_blocked_pair_is_not_an_edge(self):
        sites = sites_of((0, 0), (2, 0), (4, 0), (2, 1))
        diagram = voronoi_diagram(sites)
        assert not isinstance(closed_cell_intersection(diagram, 0, 2), Segment)

    def test_equal_indices_rejected(self, fan_sites):
        diagram = voronoi_diagram(fan_sites)
        with pytest.raises(IndexOutOfRange):
            closed_cell_intersection(diagram, 1, 1)

    def test_fan_triangles_are_delaunay(self, fan_sites):
        diagram = voronoi_diagram(fan_sites)
        mesh = diagram.mesh
        for t in range(len(mesh)):
            assert common_vertex(diagram, *mesh.triangles[t]) == mesh.circumcenter(t)

    def test_single_triangle_common_vertex(self):
        sites = sites_of((0, 0), (4, 0), (0, 4))
        diagram = voronoi_diagram(sites)
        assert common_vertex(diagram, 0, 1, 2) == diagram.mesh.circumcenter(0)
        assert diagram.vertices[0] == Point(2, 2)

    def test_corrupted_mesh_is_not_delaunay(self):
        # flip the quad diagonal away from the Delaunay one: both triangles
        # then fail the common-vertex characterization
        sites = sites_of((0, 0), (4, 0), (4, 3), (0, "3.5"))
        from proxitri.delaunay import TriMesh

        bad = TriMesh(sites, ((0, 1, 3), (1, 2, 3)), frozenset())
        diagram = voronoi_diagram(sites)
        rows = sites.rows
        assert _incircle_det(rows[0], rows[1], rows[3], rows[2]) > 0
        for t in range(len(bad)):
            assert common_vertex(diagram, *bad.triangles[t]) != bad.circumcenter(t)


class TestVisibility:
    def test_clear_pair(self):
        assert is_visible(sites_of((0, 0), (4, 0), (2, 1)), EMPTY, 0, 1)

    def test_site_blocks(self):
        assert not is_visible(sites_of((0, 0), (4, 0), (2, 0)), EMPTY, 0, 1)

    def test_constraint_blocks(self):
        sites = sites_of((0, 0), (4, 0), (2, 1), (2, -1))
        wall = ConstraintSet.of([(2, 1, 2, -1)])
        assert not is_visible(sites, wall, 0, 1)
        assert is_visible(sites, EMPTY, 0, 1)

    def test_constraint_endpoint_touch_does_not_block(self):
        sites = sites_of((0, 0), (4, 0), (2, 0), (2, 3))
        touch = ConstraintSet.of([(2, 0, 2, 3)])
        # segment 0-3 meets the constraint only at its endpoint (2,0)... which
        # is interior to 0-1 but an endpoint of the constraint
        assert not is_visible(sites, touch, 0, 1)  # blocked by site (2,0) anyway
        assert is_visible(sites, touch, 0, 3)

    def test_same_index_rejected(self):
        with pytest.raises(IndexOutOfRange):
            is_visible(sites_of((0, 0), (4, 0), (2, 1)), EMPTY, 1, 1)

    def test_matches_oracle_randomized(self, corpus):
        import random

        rng = random.Random(7)
        for entry in corpus[:10]:
            n = len(entry.sites)
            for _ in range(10):
                p, q = rng.sample(range(n), 2)
                assert is_visible(entry.sites, EMPTY, p, q) == visibility_oracle(
                    entry.sites, EMPTY, p, q
                )


class TestConstrainedDelaunayEdge:
    def test_constraint_membership_wins(self):
        sites = sites_of((0, 0), (2, 0), (4, 0), (2, 1))
        forced = ConstraintSet.of([(0, 0, 4, 0)])
        assert is_constrained_delaunay_edge(sites, forced, 0, 2)

    def test_covered_pair_fails(self):
        sites = sites_of((0, 0), (2, 0), (4, 0), (2, 1))
        assert not is_constrained_delaunay_edge(sites, EMPTY, 0, 2)

    def test_matches_mesh_edges_without_constraints(self, corpus):
        from itertools import combinations

        for entry in corpus[:4]:
            mesh = entry.mesh
            n = len(entry.sites)
            if n > 12:
                continue
            for p, q in combinations(range(n), 2):
                assert is_constrained_delaunay_edge(
                    entry.sites, EMPTY, p, q
                ) == mesh.has_edge(p, q)

    def test_wall_changes_the_edge_set(self):
        # a wall hides the blocking site, making the long pair an edge again
        sites = sites_of((0, 0), (4, 0), (2, 1), (1, 2), (3, 2))
        wall = ConstraintSet.of([(1, 2, 3, 2)])
        mesh = constrained_triangulate(sites, wall)
        for a, b in mesh.edges():
            if not mesh.is_constrained(a, b):
                assert is_constrained_delaunay_edge(sites, wall, a, b)


def assert_pairs_match_references(sites, constraints):
    n = len(sites)
    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            assert is_visible(sites, constraints, p, q) == visibility_oracle(
                sites, constraints, p, q
            ), (p, q)
            assert is_constrained_delaunay_edge(
                sites, constraints, p, q
            ) == fraction_is_constrained_delaunay_edge(sites, constraints, p, q), (p, q)


def has_four_cocircular(sites: SiteSet) -> bool:
    rows = [p.row for p in sites.points]
    for i, j, k, l in combinations(range(len(rows)), 4):
        turn = _det3(rows[i], rows[j], rows[k])
        if turn and _incircle_det(rows[i], rows[j], rows[k], rows[l]) == 0:
            return True
    return False


class TestConstrainedAgainstReferences:
    """The row predicates against the Fraction references on every ordered
    pair, and the edge test against the constructed mesh."""

    @pytest.mark.parametrize("coords", EXACTLY_COCIRCULAR, ids=["grid", "lattice", "lattice+4"])
    def test_exactly_cocircular_sets(self, coords):
        assert_pairs_match_references(SiteSet.of(coords), EMPTY)

    @pytest.mark.parametrize("distribution", ["grid", "cocircular", "collinear-heavy"])
    def test_random_constraints(self, distribution):
        rng = random.Random(f"references-{distribution}")
        for _ in range(6):
            if distribution == "grid":
                w, h = rng.randint(3, 4), rng.randint(3, 4)
                sites = SiteSet.of([(x, y) for x in range(w) for y in range(h)])
            else:
                n = rng.randint(6, 10)
                sites = SiteSet(tuple(generate_sites(n, rng.randrange(10_000), distribution)))
            constraints = random_constraints(rng, sites, rng.randint(0, 4))
            assert_pairs_match_references(sites, constraints)

    def test_edge_test_matches_constrained_mesh(self):
        # With no four sites cocircular the constrained Delaunay
        # triangulation is unique, so the two must agree in both directions.
        rng = random.Random(2024)
        instances = 0
        for _ in range(40):
            n = rng.randint(5, 12)
            sites = SiteSet(tuple(generate_sites(n, rng.randrange(10_000), "uniform")))
            if has_four_cocircular(sites):
                continue
            constraints = random_constraints(rng, sites, rng.randint(0, 4))
            mesh = constrained_triangulate(sites, constraints)
            for p, q in combinations(range(n), 2):
                assert is_constrained_delaunay_edge(sites, constraints, p, q) == mesh.has_edge(
                    p, q
                ), (p, q)
            instances += 1
        assert instances >= 30


def outcome(build, *args):
    """Triangles and constrained pairs of the mesh build(*args) returns, or
    the type and message of what it raises."""
    try:
        mesh = build(*args)
    except Exception as exc:
        return (type(exc), str(exc))
    return (mesh.triangles, mesh.constrained)


class TestReferenceBuilder:
    """triangulate and constrained_triangulate against reference_mesh, the
    builder that numbers its triangles."""

    def assert_matches(self, rng, sites, most=4):
        constraints = random_constraints(rng, sites, rng.randint(0, most))
        assert outcome(triangulate, sites) == outcome(reference_mesh, sites)
        assert outcome(constrained_triangulate, sites, constraints) == outcome(
            reference_mesh, sites, constraints
        )

    def test_corpora(self, corpus, degenerate_corpus):
        rng = random.Random("reference-corpora")
        for entry in corpus + degenerate_corpus:
            self.assert_matches(rng, entry.sites)

    @pytest.mark.parametrize("distribution", ["uniform", "clustered", "cocircular", "collinear-heavy"])
    def test_distributions(self, distribution):
        rng = random.Random(f"reference-{distribution}")
        runs = [(n, seed) for n in (4, 7, 25, 150) for seed in (1, 2, 3)] + [(2000, 1)]
        for n, seed in runs:
            self.assert_matches(rng, SiteSet(tuple(generate_sites(n, seed, distribution))))

    def test_invalid_inputs(self):
        rng = random.Random("reference-invalid")
        for coords in ([(0, 0), (1, 1)], [(0, 0), (1, 1), (2, 2), (3, 3)]):
            self.assert_matches(rng, SiteSet.of(coords))
        sites = sites_of((0, 0), (2, 0), (4, 0), (4, 4), (0, 4), (2, 3))
        for segments in ([(0, 0, 4, 0)], [(0, 0, 4, 4), (4, 0, 0, 4)], [(0, 0, 9, 9)]):
            constraints = ConstraintSet.of(segments)
            assert outcome(constrained_triangulate, sites, constraints) == outcome(
                reference_mesh, sites, constraints
            )

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_collinear_prefixes(self, k):
        # k sites on a line come first in the sweep, then one apex, which
        # pops one chain whole: upper for an apex above the horizontal
        # line, lower for one below it or right of the vertical line.
        rng = random.Random(f"reference-prefix-{k}")
        horizontal = [(x, 0) for x in range(k)]
        vertical = [(0, y) for y in range(k)]
        runs = [(horizontal, [(k, 1), (k, -1), (k + 3, 2), (k + 3, -2)])]
        runs.append((vertical, [(1, -1), (1, k // 2), (1, k), (3, k + 2)]))
        for line, apexes in runs:
            for apex in apexes:
                for coords in (line + [apex], [apex] + line[::-1], line + [apex, (k + 5, 0)]):
                    self.assert_matches(rng, SiteSet.of(coords))

    @pytest.mark.parametrize(
        "coords",
        [
            # (4, 2) extends the edge (0, 0)-(2, 1) at the end of lower, (6, 3)
            # extends the run further and (7, 0) pops it whole.
            [(0, 0), (0, 4), (2, 1), (4, 2)],
            [(0, 0), (0, 4), (2, 1), (4, 2), (6, 3)],
            [(0, 0), (0, 4), (2, 1), (4, 2), (6, 3), (7, 0)],
            # The mirror image at the end of upper.
            [(0, 0), (0, 4), (2, 3), (4, 2)],
            [(0, 0), (0, 4), (2, 3), (4, 2), (6, 1)],
            [(0, 0), (0, 4), (2, 3), (4, 2), (6, 1), (7, 4)],
        ],
    )
    def test_collinear_runs_at_chain_ends(self, coords):
        rng = random.Random(f"reference-run-{coords}")
        for order in (coords, coords[::-1]):
            self.assert_matches(rng, SiteSet.of(order))

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_all_collinear(self, k):
        rng = random.Random(f"reference-collinear-{k}")
        lines = [[(x, 0) for x in range(k)], [(0, y) for y in range(k)], [(x, x) for x in range(k)]]
        for line in lines:
            for coords in (line, line[::-1]):
                self.assert_matches(rng, SiteSet.of(coords))
                assert outcome(triangulate, SiteSet.of(coords)) == (
                    AllCollinear, "all sites lie on one line"
                )

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=3, max_size=12, unique=True
        ),
        st.randoms(use_true_random=False),
    )
    def test_grid_subsets(self, coords, rng):
        # The 5 x 5 grid has collinear runs and cocircular ties everywhere.
        self.assert_matches(rng, SiteSet.of(coords), most=2)


class TestFan:
    """TriMesh.fan against reference_fan, the walk from sorted incident ids,
    and the edge questions against scans of the triangles."""

    def assert_matches(self, mesh):
        for site in range(len(mesh.sites)):
            ring, spokes = mesh.fan(site)
            ref_ring, ref_spokes = reference_fan(mesh, site)
            incident = [t for t, tri in enumerate(mesh.triangles) if site in tri]
            assert sorted(ring) == incident
            if len(ref_spokes) > len(ref_ring):
                assert (ring, spokes) == (ref_ring, ref_spokes)
            else:
                # A closed fan may start anywhere: compare it as a cycle.
                k = ref_ring.index(ring[0])
                ref = list(zip(ref_ring, ref_spokes))
                assert list(zip(ring, spokes)) == ref[k:] + ref[:k]
                assert len(spokes) == len(ring)

    def test_corpora(self, corpus, degenerate_corpus):
        for entry in corpus + degenerate_corpus:
            self.assert_matches(entry.mesh)

    @pytest.mark.parametrize("distribution", ["uniform", "clustered", "cocircular", "collinear-heavy"])
    def test_distributions(self, distribution):
        runs = [(n, seed) for n in (4, 7, 25, 150) for seed in (1, 2, 3)] + [(2000, 1)]
        for n, seed in runs:
            self.assert_matches(triangulate(SiteSet(tuple(generate_sites(n, seed, distribution)))))

    def test_edge_questions(self, corpus, degenerate_corpus):
        for entry in corpus + degenerate_corpus:
            mesh = entry.mesh
            for t, (i, j, k) in enumerate(mesh.triangles):
                for u, v, w in ((i, j, k), (j, k, i), (k, i, j)):
                    assert mesh.directed_triangle(u, v) == t
                    assert mesh.opposite_vertex(u, v) == w
            assert mesh.edges() == sorted(edges_of_triangles(mesh.triangles))
            for a, b in mesh.edges():
                ids = tuple(t for t, tri in enumerate(mesh.triangles) if a in tri and b in tri)
                assert mesh.edge_triangles(a, b) == mesh.edge_triangles(b, a) == ids

    def test_site_in_no_triangle(self):
        from proxitri.delaunay import TriMesh

        mesh = TriMesh(sites_of((0, 0), (4, 0), (0, 4), (1, 1)), ((0, 1, 2),), frozenset())
        assert mesh.fan(3) == ([], [])
        assert mesh.fan(0) == ([0], [1, 2])
        with pytest.raises(IndexOutOfRange):
            mesh.fan(4)

    def test_walk_that_loops_elsewhere_raises(self):
        from proxitri.delaunay import TriMesh
        from proxitri.errors import GeometryError
        from proxitri.regions import extract_regions

        # (0, 3, 2) turns clockwise: the walk around site 0 visits triangles
        # 0, 1 and 2, then cycles between 1 and 2 without reaching 0 again.
        sites = sites_of((0, 0), (4, 0), (4, 4), (0, 4))
        mesh = TriMesh(sites, ((0, 1, 2), (0, 2, 3), (0, 3, 2)), frozenset())
        with pytest.raises(GeometryError, match="the triangles at site 0 form no fan"):
            mesh.fan(0)
        with pytest.raises(GeometryError):
            extract_regions(mesh)


class TestConstrainedTriangulate:
    def test_forced_diagonal(self):
        sites = sites_of((0, 0), (4, 0), (4, 3), (0, 3))
        mesh = constrained_triangulate(sites, ConstraintSet.of([(0, 0, 4, 3)]))
        assert len(mesh) == 2
        assert mesh.is_constrained(0, 2)

    def test_empty_constraints_equal_plain(self, corpus):
        for entry in corpus[:5]:
            assert constrained_triangulate(entry.sites, EMPTY) == entry.mesh

    def test_crossing_constraints_rejected(self):
        sites = sites_of((0, 0), (4, 0), (4, 4), (0, 4))
        crossing = ConstraintSet.of([(0, 0, 4, 4), (4, 0, 0, 4)])
        with pytest.raises(CrossingConstraints):
            constrained_triangulate(sites, crossing)

    def test_constraint_through_site_rejected(self):
        sites = sites_of((0, 0), (2, 0), (4, 0), (2, 3))
        through = ConstraintSet.of([(0, 0, 4, 0)])
        with pytest.raises(ConstraintThroughSite):
            constrained_triangulate(sites, through)

    @pytest.mark.parametrize(
        "coords, segments, error, message",
        [
            (
                [(0, 0), (2, 0), (4, 0), (2, 3)],
                [(0, 0, 4, 0)],
                ConstraintThroughSite,
                "constraint [(0, 0) - (4, 0)] passes through site #1 (2, 0)",
            ),
            (
                [(0, 0), (4, 0), (4, 4), (0, 4)],
                [(0, 0, 4, 4), (4, 0, 0, 4)],
                CrossingConstraints,
                "constraints [(0, 0) - (4, 4)] and [(4, 0) - (0, 4)] cross at (2, 2)",
            ),
            # An overlap of two distinct constraints always puts an endpoint,
            # a site, inside the other one, and sites are checked first.
            (
                [(0, 0), (2, 0), (4, 0), (6, 0), (3, 3)],
                [(0, 0, 4, 0), (2, 0, 6, 0)],
                ConstraintThroughSite,
                "constraint [(0, 0) - (4, 0)] passes through site #1 (2, 0)",
            ),
            (
                [(0, 0), (4, 0), (4, 3), (0, 3)],
                [(0, 0, 4, 3), (0, 0, 4, 3)],
                CrossingConstraints,
                "constraints [(0, 0) - (4, 3)] and [(0, 0) - (4, 3)] overlap along [(0, 0) - (4, 3)]",
            ),
            (
                [(0, 0), (4, 0), (4, 3), (0, 3)],
                [(0, 0, 4, 3), (4, 3, 0, 0)],
                CrossingConstraints,
                "constraints [(0, 0) - (4, 3)] and [(4, 3) - (0, 0)] overlap along [(0, 0) - (4, 3)]",
            ),
            # An endpoint that is no site is an index that does not resolve.
            (
                [(0, 0), (4, 0), (4, 3), (0, 3)],
                [(4, 0, 5, 5)],
                IndexOutOfRange,
                "constraint endpoint (5, 5) is not a site",
            ),
        ],
        ids=[
            "through-site", "crossing", "collinear-overlap", "duplicate", "reversed-duplicate",
            "stray-endpoint",
        ],
    )
    def test_invalid_constraints_error_and_message(self, coords, segments, error, message):
        with pytest.raises(error) as caught:
            constrained_triangulate(SiteSet.of(coords), ConstraintSet.of(segments))
        assert type(caught.value) is error
        assert str(caught.value) == message

    def test_constraints_present_and_rest_locally_delaunay(self):
        pts = [(x, y) for x in range(5) for y in range(4)]
        sites = SiteSet.of(pts)
        cset = ConstraintSet.of([(0, 0, 4, 3), (0, 2, 2, 3)])
        mesh = constrained_triangulate(sites, cset)
        for seg in cset.segments:
            a = sites.index_of(seg.a)
            b = sites.index_of(seg.b)
            assert mesh.has_edge(a, b) and mesh.is_constrained(a, b)
        assert all(is_locally_delaunay(mesh, e) for e in mesh.edges())

    def test_mesh_immutability_is_preserved(self):
        sites = sites_of((0, 0), (4, 0), (4, 3), (0, 3))
        mesh = constrained_triangulate(sites, ConstraintSet.of([(4, 0, 0, 3)]))
        with pytest.raises(Exception):
            mesh.triangles = ()
