from fractions import Fraction

import pytest

from proxitri.delaunay import SiteSet, TriMesh, adjacency, triangulate
from proxitri.errors import GeometryError, MixedMeshes
from proxitri.geometry import Point, Polygon
from proxitri.proximity import near, triangles_near
from proxitri.regions import (
    Region,
    extract_regions,
    is_region_convex,
    leader_neighborhoods,
    proximal_region_pairs,
    region_common_intersection,
    region_union_polygon,
)

from oracles import (
    all_pairs_proximal_region_pairs,
    brute_maximal_cliques,
    composed_region_common_intersection,
)


def strip_mesh() -> TriMesh:
    """Four triangles in a path: each shares an edge only with its successor."""
    sites = SiteSet.of([(0, 0), (2, 0), (4, 0), (1, 2), (3, 2), (5, 2)])
    mesh = TriMesh(
        sites,
        ((0, 1, 3), (1, 4, 3), (1, 2, 4), (2, 5, 4)),
        frozenset(),
    )
    return mesh


class TestExtractRegions:
    def test_fan_single_region(self, fan_mesh):
        regions = extract_regions(fan_mesh)
        assert [r.members() for r in regions] == [[0, 1, 2]]

    def test_single_triangle(self):
        mesh = triangulate(SiteSet.of([(0, 0), (4, 0), (0, 4)]))
        regions = extract_regions(mesh)
        assert [r.members() for r in regions] == [[0]]

    def test_strip_of_four(self):
        mesh = strip_mesh()
        regions = extract_regions(mesh)
        assert [r.members() for r in regions] == [[0, 1], [1, 2], [2, 3]]

    def test_matches_brute_force_cliques(self, corpus, degenerate_corpus):
        for entry in corpus[:8] + degenerate_corpus:
            mesh = entry.mesh
            adj = {t: adjacency(mesh, t) for t in range(len(mesh))}
            expected = brute_maximal_cliques(adj)
            got = {r.triangles for r in extract_regions(mesh)}
            assert got == expected

    def test_cover(self, corpus):
        for entry in corpus[:8]:
            regions = extract_regions(entry.mesh)
            covered = set()
            for r in regions:
                covered |= r.triangles
            assert covered == set(range(len(entry.mesh)))

    def test_non_clique_rejected(self):
        mesh = strip_mesh()
        with pytest.raises(GeometryError):
            Region(mesh, frozenset({0, 2}))  # no shared edge


class TestProximalPairs:
    def test_strip_pairs(self):
        regions = extract_regions(strip_mesh())
        assert proximal_region_pairs(regions) == [(0, 1), (0, 2), (1, 2)]

    def test_single_region_no_pairs(self, fan_mesh):
        assert proximal_region_pairs(extract_regions(fan_mesh)) == []

    def test_mixed_meshes_rejected(self, fan_mesh):
        other = triangulate(SiteSet.of([(0, 0), (4, 0), (0, 4)]))
        with pytest.raises(MixedMeshes):
            proximal_region_pairs(
                [extract_regions(fan_mesh)[0], extract_regions(other)[0]]
            )

    def test_disconnected_clusters_not_proximal(self):
        sites = SiteSet.of(
            [(0, 0), (2, 0), (1, 1), (100, 100), (102, 100), (101, 101)]
        )
        mesh = triangulate(sites)
        regions = extract_regions(mesh)
        # regions living entirely in different clusters never pair up
        def cluster(r):
            xs = {mesh.sites[i].x for t in r.members() for i in mesh.triangles[t]}
            return min(xs) > 50
        pairs = proximal_region_pairs(regions)
        for i, j in pairs:
            assert cluster(regions[i]) == cluster(regions[j])

    def test_matches_all_pairs(self, corpus, degenerate_corpus):
        for entry in corpus + degenerate_corpus:
            regions = extract_regions(entry.mesh)
            assert proximal_region_pairs(regions) == all_pairs_proximal_region_pairs(regions)


class TestUnionPolygon:
    def test_fan_region_is_hull_triangle(self, fan_mesh):
        region = extract_regions(fan_mesh)[0]
        assert region_union_polygon(region) == Polygon(
            (Point(0, 0), Point(4, 0), Point(0, 4))
        )
        assert is_region_convex(region)

    def test_singleton_region(self, fan_mesh):
        region = Region(fan_mesh, frozenset({0}))
        assert region_union_polygon(region) == fan_mesh.triangle_polygon(0)
        assert is_region_convex(region)

    def test_fan_two_subclique_quadrilateral(self, fan_mesh):
        region = Region(fan_mesh, frozenset({0, 1}))
        poly = region_union_polygon(region)
        assert poly == Polygon((Point(0, 0), Point(4, 0), Point(1, 1), Point(0, 4)))
        assert not is_region_convex(region)

    def test_area_additivity(self, corpus):
        for entry in corpus[:6]:
            mesh = entry.mesh
            for region in extract_regions(mesh):
                union = region_union_polygon(region)
                total = sum(
                    (mesh.triangle_polygon(t).area() for t in region.members()),
                    start=Fraction(0),
                )
                assert union.area() == total


class TestCommonIntersection:
    def test_singleton_is_the_triangle(self, fan_mesh):
        region = Region(fan_mesh, frozenset({0}))
        assert region_common_intersection(region) == fan_mesh.triangle_polygon(0)

    def test_pair_is_shared_edge(self, fan_mesh):
        from proxitri.geometry import Segment

        region = Region(fan_mesh, frozenset({0, 1}))
        got = region_common_intersection(region)
        assert isinstance(got, Segment)
        assert {got.a, got.b} == {Point(0, 0), Point(1, 1)}

    def test_fan_clique_is_apex(self, fan_mesh):
        region = Region(fan_mesh, frozenset({0, 1, 2}))
        assert region_common_intersection(region) == Point(1, 1)

    def test_matches_composed_reference(self, corpus, degenerate_corpus):
        for entry in corpus + degenerate_corpus:
            for region in extract_regions(entry.mesh):
                expected = composed_region_common_intersection(region)
                assert region_common_intersection(region) == expected


class TestLeaderNeighborhoods:
    def test_fan(self, fan_mesh):
        hoods = leader_neighborhoods(fan_mesh)
        assert [(a, sorted(family)) for a, family in hoods.items()] == [
            (0, [1, 2]),
            (1, [0, 2]),
            (2, [0, 1]),
        ]

    def test_single_triangle_empty_family(self):
        mesh = triangulate(SiteSet.of([(0, 0), (4, 0), (0, 4)]))
        hoods = leader_neighborhoods(mesh)
        assert hoods == {0: frozenset()}

    def test_strip_anchor_one(self):
        mesh = strip_mesh()
        hoods = leader_neighborhoods(mesh)
        assert hoods[0] == frozenset({1, 2})  # edge partner plus vertex contact

    def test_scope_restriction(self):
        mesh = strip_mesh()
        scope = Region(mesh, frozenset({0, 1}))
        hoods = leader_neighborhoods(mesh, scope)
        assert [(a, sorted(family)) for a, family in hoods.items()] == [
            (0, [1]),
            (1, [0]),
        ]

    def test_symmetry_and_soundness(self, corpus):
        for entry in corpus[:6]:
            mesh = entry.mesh
            hoods = leader_neighborhoods(mesh)
            for anchor, neighbors in hoods.items():
                for b in neighbors:
                    assert triangles_near(mesh, anchor, b)
                    assert anchor in hoods[b]
                for b in range(len(mesh)):
                    if b != anchor and b not in neighbors:
                        assert not triangles_near(mesh, anchor, b)

    def test_agrees_with_geometric_near(self, corpus):
        for entry in corpus[:3]:
            mesh = entry.mesh
            polys = [mesh.triangle_polygon(t) for t in range(len(mesh))]
            hoods = leader_neighborhoods(mesh)
            for a in range(len(mesh)):
                for b in range(len(mesh)):
                    if a == b:
                        continue
                    assert (b in hoods[a]) == near(polys[a], polys[b]).is_near
