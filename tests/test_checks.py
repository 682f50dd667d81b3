"""The `check` suites against the all-pairs bodies they replaced.

Each failure-path test injects one fault, either by patching a function
in `proxitri.checks` (the all-pairs references in oracles.py read the
same module, so both sides see the fault) or by handing the suites a mesh
with one edge flipped. The records must equal the references' records.
"""

import random
from collections import Counter
from fractions import Fraction
from functools import partial
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxitri import checks
from proxitri.checks import _check_delaunay, _check_dual, _circumdisk_scan, run_checks
from proxitri.delaunay import SiteSet, TriMesh
from proxitri.generate import generate_sites
from proxitri.geometry import (
    Orientation,
    Point,
    _ring_area2,
    bounding_box,
    orientation,
)
from proxitri.regions import extract_regions, region_union_polygon
from proxitri.voronoi import VoronoiDiagram, closed_cell_intersection, voronoi_diagram

from oracles import (
    all_pairs_check_dual,
    all_pairs_check_leader,
    fraction_distance_sq,
    fraction_triangle_area,
    scan_site_inside_circumdisk,
)


def _diagram(n, seed, distribution="uniform"):
    return voronoi_diagram(SiteSet(tuple(generate_sites(n, seed, distribution))))


def _records(results):
    return [(r.name, r.status, r.witness) for r in results]


def _canonical(tri):
    r = tri.index(min(tri))
    return tri[r:] + tri[:r]


def _flip_first_edge(mesh):
    """The mesh with its first flippable interior edge (a, b) swapped for
    the other diagonal (c, d) of its quadrilateral, and both edges."""
    pts = mesh.sites.points
    for a, b in mesh.edges():
        c = mesh.opposite_vertex(a, b)  # (a, b, c) is counterclockwise
        d = mesh.opposite_vertex(b, a)  # (b, a, d) too
        if c is None or d is None:
            continue
        new = ((a, d, c), (d, b, c))
        if all(orientation(*(pts[v] for v in tri)) is Orientation.CCW for tri in new):
            old = {mesh.directed_triangle(a, b), mesh.directed_triangle(b, a)}
            kept = [tri for t, tri in enumerate(mesh.triangles) if t not in old]
            triangles = tuple(sorted(kept + [_canonical(tri) for tri in new]))
            return TriMesh(mesh.sites, triangles, frozenset()), (a, b), tuple(sorted((c, d)))
    raise AssertionError("no flippable edge")


def _with_mesh(monkeypatch, diagram, mesh):
    """Make run_checks see the diagram with its mesh replaced, and the mesh
    alone where a suite reads no diagram."""
    faulty = VoronoiDiagram(diagram.sites, mesh, diagram.frame, diagram.vertices, diagram._cell_of)
    monkeypatch.setattr(checks, "voronoi_diagram", lambda sites, frame=None: faulty)
    monkeypatch.setattr(checks, "triangulate", lambda sites: mesh)
    return faulty


def _patch_families(monkeypatch, edit):
    """Make leader_neighborhoods return the families edit(dict) gives."""
    build = checks.leader_neighborhoods

    def patched(mesh, scope=None):
        hoods = {a: set(family) for a, family in build(mesh, scope).items()}
        edit(hoods)
        return {a: frozenset(family) for a, family in hoods.items()}

    monkeypatch.setattr(checks, "leader_neighborhoods", patched)


def _far_triangle(mesh, a):
    """A triangle whose bounding box is disjoint from triangle a's."""
    ax0, ay0, ax1, ay1 = mesh.triangle_polygon(a).bounding_box()
    for b in range(len(mesh) - 1, -1, -1):
        bx0, by0, bx1, by1 = mesh.triangle_polygon(b).bounding_box()
        if bx1 < ax0 or ax1 < bx0 or by1 < ay0 or ay1 < by0:
            return b
    raise AssertionError("no far triangle")


class TestLeaderFaults:
    @pytest.fixture()
    def diagram(self):
        return _diagram(30, 4)

    def _compare(self, diagram):
        got = _records(run_checks("leader", diagram.sites)[0])
        assert got == _records(all_pairs_check_leader(diagram.mesh))
        return {name: (status, witness) for name, status, witness in got}

    def test_dropped_neighbor(self, monkeypatch, diagram):
        # The pair (a, b) reads only a's family, since a < b.
        a = 7
        b = max(checks.leader_neighborhoods(diagram.mesh)[a])
        assert a < b
        _patch_families(monkeypatch, lambda hoods: hoods[a].discard(b))
        got = self._compare(diagram)
        assert got["leader/symmetry"][0] == "fail"
        assert got["leader/geometric-agreement"] == (
            "fail", f"pair-{a}-{b}:family=False,geometric=True,indices=True"
        )

    @pytest.mark.parametrize("both_ways", [False, True])
    def test_added_far_neighbor(self, monkeypatch, diagram, both_ways):
        # The far pair has disjoint boxes, so only the family claim makes
        # the broad phase visit it.
        a = 3
        b = _far_triangle(diagram.mesh, a)

        def add(hoods):
            hoods[a].add(b)
            if both_ways:
                hoods[b].add(a)

        _patch_families(monkeypatch, add)
        got = self._compare(diagram)
        assert got["leader/symmetry"][0] == ("pass" if both_ways else "fail")
        assert got["leader/geometric-agreement"] == (
            "fail", f"pair-{min(a, b)}-{max(a, b)}:family=True,geometric=False,indices=False"
        )

    def test_triangles_near_drops_a_contact(self, monkeypatch, diagram):
        real = checks.triangles_near
        a, b = 5, min(checks.leader_neighborhoods(diagram.mesh)[5])
        wrong = {(a, b), (b, a)}
        monkeypatch.setattr(
            checks, "triangles_near", lambda mesh, s, t: (s, t) not in wrong and real(mesh, s, t)
        )
        got = self._compare(diagram)
        assert got["leader/geometric-agreement"][0] == "fail"

    def test_triangles_near_claims_a_box_neighbor(self, monkeypatch, diagram):
        # A pair whose boxes meet but which shares no vertex.
        mesh = diagram.mesh
        boxes = checks._overlapping_boxes([mesh.triangle_polygon(t).bounding_box() for t in range(len(mesh))])
        a, b = min(p for p in boxes if not checks.triangles_near(mesh, *p))
        real = checks.triangles_near
        monkeypatch.setattr(
            checks, "triangles_near", lambda m, s, t: {s, t} == {a, b} or real(m, s, t)
        )
        got = self._compare(diagram)
        assert got["leader/geometric-agreement"] == (
            "fail", f"pair-{a}-{b}:family=False,geometric=False,indices=True"
        )


class TestFlippedMesh:
    """A mesh with one Delaunay edge flipped: two triangles are not
    Delaunay, one mesh edge has no cell contact and one cell contact has
    no mesh edge."""

    @pytest.mark.parametrize("n, seed", [(12, 1), (40, 2), (80, 3)])
    def test_empty_circumdisk(self, monkeypatch, n, seed):
        diagram = _diagram(n, seed)
        flipped, _, _ = _flip_first_edge(diagram.mesh)
        _with_mesh(monkeypatch, diagram, flipped)
        got = _records(run_checks("delaunay", diagram.sites)[0])
        expected = _check_delaunay(flipped, partial(scan_site_inside_circumdisk, flipped))
        assert got == _records(expected)
        assert got[0][:2] == ("delaunay/empty-circumdisk", "fail")

    @pytest.mark.parametrize("n, seed", [(12, 1), (40, 2), (80, 3)])
    def test_edge_definition(self, monkeypatch, n, seed):
        diagram = _diagram(n, seed)
        flipped, removed, added = _flip_first_edge(diagram.mesh)
        faulty = _with_mesh(monkeypatch, diagram, flipped)
        got = _records(run_checks("dual", diagram.sites)[0])
        assert got == _records(all_pairs_check_dual(faulty))
        first = min(removed, added)
        assert got == [(
            "dual/edge-definition", "fail",
            f"pair-{first[0]}-{first[1]}:mesh={first == added},voronoi={first == removed}",
        )]

    def test_mesh_edge_without_contact(self, monkeypatch):
        # The cells of a mesh edge lose their contact; every other pair is sound.
        diagram = _diagram(40, 5)
        p, q = diagram.mesh.edges()[len(diagram.mesh.edges()) // 2]
        real = checks.closed_cell_intersection
        monkeypatch.setattr(
            checks, "closed_cell_intersection",
            lambda d, s, t: None if (s, t) == (p, q) else real(d, s, t),
        )
        got = _records(run_checks("dual", diagram.sites)[0])
        assert got == _records(all_pairs_check_dual(diagram))
        assert got == [("dual/edge-definition", "fail", f"pair-{p}-{q}:mesh=True,voronoi=False")]


def test_sound_suites_match_all_pairs(corpus, degenerate_corpus):
    """dual and leader records equal the all-pairs references, including
    the degenerate-skip witnesses of cocircular contacts."""
    skips = 0
    for entry in degenerate_corpus + corpus[::10]:
        dual = _check_dual(entry.diagram, partial(closed_cell_intersection, entry.diagram))
        assert _records(dual) == _records(all_pairs_check_dual(entry.diagram))
        skips += dual[0].status == "degenerate-skip"
    for entry in degenerate_corpus[::4] + corpus[::20]:
        got = _records(checks._check_leader(entry.mesh))
        assert got == _records(all_pairs_check_leader(entry.mesh))
    assert skips > 0


@st.composite
def _box(draw):
    # Few distinct coordinates, so boxes often touch at one shared value.
    x0, x1 = sorted(draw(st.lists(st.fractions(0, 3, max_denominator=2), min_size=2, max_size=2)))
    y0, y1 = sorted(draw(st.lists(st.integers(0, 4), min_size=2, max_size=2)))
    return (x0, y0, x1, y1)


@given(st.lists(_box(), max_size=14))
@settings(max_examples=200, deadline=None)
def test_overlapping_boxes_match_all_pairs(boxes):
    expected = {
        (i, j)
        for i in range(len(boxes))
        for j in range(i + 1, len(boxes))
        if boxes[i][0] <= boxes[j][2] and boxes[j][0] <= boxes[i][2]
        and boxes[i][1] <= boxes[j][3] and boxes[j][1] <= boxes[i][3]
    }
    assert checks._overlapping_boxes(boxes) == expected


def _triple_meshes():
    """For each distribution and seeds 0-2, a random generator and a mesh of
    150 arbitrary counterclockwise triples of 30 sites: not only Delaunay
    triangles, so that many circumdisks hold sites."""
    for distribution in ("uniform", "clustered", "cocircular", "collinear-heavy"):
        for seed in range(3):
            sites = SiteSet(tuple(generate_sites(30, seed, distribution)))
            rng = random.Random(seed)
            triples = set()
            while len(triples) < 150:
                tri = tuple(rng.sample(range(len(sites)), 3))
                if orientation(*(sites[v] for v in tri)) is Orientation.CCW:
                    triples.add(_canonical(tri))
            yield rng, TriMesh(sites, tuple(sorted(triples)), frozenset())


def test_circumdisk_scan_matches_full_scan():
    """The smallest intruder of each circumdisk of arbitrary triples."""
    for _, mesh in _triple_meshes():
        scan = _circumdisk_scan(mesh, mesh.sites.disk)
        got = [scan(t) for t in range(len(mesh))]
        assert got == [scan_site_inside_circumdisk(mesh, t) for t in range(len(mesh))]
        assert any(hit is not None for hit in got)


@pytest.mark.parametrize("distribution", ["uniform", "collinear-heavy"])
def test_all_suites_ask_one_disk_query_per_triangle(monkeypatch, distribution):
    """A triangle's circumdisk intruder and the tie count at its Voronoi
    vertex are one SiteSet.disk query, shared by the suites that read them."""
    asked = []
    disk = SiteSet.disk

    def counted(self, u, p):
        asked.append((u, p))
        return disk(self, u, p)

    monkeypatch.setattr(SiteSet, "disk", counted)
    sites = SiteSet(tuple(generate_sites(200, 1, distribution)))
    results, _ = run_checks("all", sites)
    triangles = len(voronoi_diagram(sites).mesh)
    assert not any(r.failed for r in results)
    assert len(asked) == len(set(asked)) == triangles


def _disk_reference(sites, u, p):
    """SiteSet.disk over every site, on Fraction distances."""
    d = [fraction_distance_sq(u, s) for s in sites.points]
    inside = next((i for i, d_i in enumerate(d) if d_i < d[p]), None)
    return inside, d.count(d[p])


def test_disk_matches_all_sites():
    """The disk query at circumcentres of arbitrary counterclockwise
    triples, at grid points, and at each site with p that site."""
    ties = 0
    for rng, mesh in _triple_meshes():
        sites = mesh.sites
        n = len(sites)
        assert list(sites.order) == sorted(range(n), key=lambda i: (sites[i].x, sites[i].y))
        for t, (i, _, _) in enumerate(mesh.triangles):
            u = mesh.circumcenter(t)
            inside, on = sites.disk(u, i)
            assert inside == scan_site_inside_circumdisk(mesh, t)
            assert on == _disk_reference(sites, u, i)[1]
            ties += on > 3
        x0, y0, x1, y1 = bounding_box(sites.points)
        for a in range(-1, 8):
            for b in range(-1, 8):
                u = Point(x0 + (x1 - x0) * Fraction(a, 6), y0 + (y1 - y0) * Fraction(b, 6))
                p = rng.randrange(n)
                assert sites.disk(u, p) == _disk_reference(sites, u, p)
        for p in range(n):
            assert sites.disk(sites[p], p) == _disk_reference(sites, sites[p], p) == (None, 1)
    assert ties > 0


def test_region_areas_on_integers(corpus, degenerate_corpus):
    for entry in corpus[::5] + degenerate_corpus:
        mesh = entry.mesh
        rows = [p.row for p in mesh.sites.points]
        for region in extract_regions(mesh):
            corners = [[rows[v] for v in mesh.triangles[t]] for t in region.members()]
            scale = lcm(*(w for tri in corners for _, _, w in tri))
            for t, tri in zip(region.members(), corners):
                assert Fraction(_ring_area2(tri, scale), 2 * scale * scale) == fraction_triangle_area(mesh, t)
            poly = region_union_polygon(region)
            twice = _ring_area2([v.row for v in poly.vertices], scale)
            assert Fraction(twice, 2 * scale * scale) == poly.area()


def test_area_additivity_failure(monkeypatch):
    """A union polygon that drops a member triangle fails the area record,
    with the last mismatching region as witness."""
    diagram = _diagram(30, 6)
    mesh = diagram.mesh
    real = region_union_polygon

    def first_triangle_only(region):
        if len(region.triangles) == 1:
            return real(region)
        return mesh.triangle_polygon(region.members()[0])

    monkeypatch.setattr(checks, "region_union_polygon", first_triangle_only)
    results, _ = run_checks("regions", diagram.sites)
    regions = extract_regions(mesh)
    mismatched = [
        idx for idx, region in enumerate(regions)
        if first_triangle_only(region).area()
        != sum(fraction_triangle_area(mesh, t) for t in region.members())
    ]
    assert mismatched
    area = [r for r in results if r.name == "regions/union-area-additivity"]
    assert _records(area) == [
        ("regions/union-area-additivity", "fail", f"region-{mismatched[-1]}:union-area-mismatch")
    ]


def test_broad_phase_work_is_linear(monkeypatch):
    """At n = 200 the all-pairs bodies make T(T - 1)/2 near calls and
    n(n - 1)/2 cell contacts; the broad phase makes a few per triangle
    and per site."""
    diagram = _diagram(200, 1)
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(checks, "near", counted("near", checks.near))
    monkeypatch.setattr(
        checks, "closed_cell_intersection",
        counted("contact", checks.closed_cell_intersection),
    )
    for suite in ("leader", "dual"):
        results, _ = run_checks(suite, diagram.sites)
        assert all(r.status == "pass" for r in results)
    t, n = len(diagram.mesh), len(diagram.sites)
    assert 0 < counts["near"] <= 12 * t
    assert 0 < counts["contact"] <= 12 * n
