"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The shared 100-set corpus comes from the session fixture in
conftest.py (seeds 0..99, n in 4..50, uniform and clustered draws).
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from proxitri.cli import main as cli_main
from proxitri.delaunay import (
    ConstraintSet,
    SiteSet,
    adjacency,
    constrained_triangulate,
    is_locally_delaunay,
    triangulate,
)
from proxitri.errors import DegenerateIntersection
from proxitri.generate import generate_sites
from proxitri.geometry import (
    Point,
    Polygon,
    Segment,
    convex_closed_intersection,
    convex_hull,
    is_convex_polygon,
)
from proxitri.proximity import near
from proxitri.regions import (
    Region,
    extract_regions,
    is_region_convex,
    leader_neighborhoods,
    region_union_polygon,
)
from proxitri.voronoi import closed_cell_intersection, common_vertex, voronoi_diagram

from oracles import (
    brute_delaunay_triangles,
    brute_maximal_cliques,
    edges_of_triangles,
    is_visible,
    mesh_triangle_set,
    random_constraints,
    scan_site_inside_circumdisk,
    visibility_oracle,
)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion:02d}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_01_delaunay_vs_oracle(corpus):
    start = time.monotonic()
    mismatches = 0
    for entry in corpus:
        mesh = triangulate(entry.sites)  # rebuilt here so the timing is honest
        expected = brute_delaunay_triangles(entry.sites)
        if mesh_triangle_set(mesh) != expected:
            mismatches += 1
        if edges_of_triangles(mesh.triangles) != edges_of_triangles(expected):
            mismatches += 1
    elapsed = time.monotonic() - start
    report(
        1,
        mismatches == 0 and elapsed < 60.0,
        f"100 site sets, {mismatches} mismatches, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_edge_definition_duality(corpus):
    mismatches = 0
    pairs = 0
    for entry in corpus:
        mesh, diagram = entry.mesh, entry.diagram
        for p, q in combinations(range(len(entry.sites)), 2):
            pairs += 1
            shared = closed_cell_intersection(diagram, p, q)
            if isinstance(shared, Segment) != mesh.has_edge(p, q):
                mismatches += 1
    report(2, mismatches == 0, f"{pairs} site pairs checked, {mismatches} mismatches")


def test_criterion_03_lemma2_equivalence(corpus):
    bad = 0
    triangles = 0
    for entry in corpus:
        diagram = entry.diagram
        for t, (i, j, k) in enumerate(diagram.mesh.triangles):
            triangles += 1
            if common_vertex(diagram, i, j, k) != diagram.vertices[t]:
                bad += 1
    # cocircular input must surface the degenerate error, not a wrong vertex
    square = voronoi_diagram(SiteSet.of([(0, 0), (2, 0), (2, 2), (0, 2)]))
    degenerate_ok = True
    for trio in combinations(range(4), 3):
        try:
            common_vertex(square, *trio)
            degenerate_ok = False
        except DegenerateIntersection:
            pass
    report(
        3,
        bad == 0 and degenerate_ok,
        f"{triangles} triangles exact-equal; cocircular square surfaces degeneracy",
    )


def test_criterion_04_four_way_equivalence(corpus):
    disagreements = 0
    triangles = 0
    for entry in corpus:
        mesh, diagram = entry.mesh, entry.diagram
        for t, (i, j, k) in enumerate(mesh.triangles):
            triangles += 1
            empty_disk = scan_site_inside_circumdisk(mesh, t) is None
            center_is_vertex = common_vertex(diagram, i, j, k) == diagram.vertices[t]
            pairwise_strong = all(
                isinstance(closed_cell_intersection(diagram, a, b), Segment)
                for a, b in ((i, j), (j, k), (k, i))
            )
            if not (empty_disk == center_is_vertex == pairwise_strong == True):  # noqa: E712
                disagreements += 1
    report(4, disagreements == 0, f"{triangles} triangles, clauses agree everywhere")


def test_criterion_05_convex_intersection_convexity():
    rng = random.Random(505)
    failures = 0
    nonempty = 0
    parse = 0
    for _ in range(1000):
        polys = []
        while len(polys) < 2:
            pts = [
                Point(Fraction(rng.randrange(-60, 61), 4), Fraction(rng.randrange(-60, 61), 4))
                for _ in range(rng.randrange(3, 9))
            ]
            hull = convex_hull(pts)
            if len(hull) >= 3:
                polys.append(Polygon(tuple(hull)))
        parse += 1
        got = convex_closed_intersection(polys[0], polys[1])
        if isinstance(got, Polygon):
            nonempty += 1
            if not is_convex_polygon(got):
                failures += 1
    report(
        5,
        failures == 0 and parse == 1000,
        f"1000 random pairs, {nonempty} nonempty intersections, {failures} convexity failures",
    )


def test_criterion_06_constrained_triangulation():
    violations = 0
    instances = 0
    for seed in range(50):
        rng = random.Random(60_000 + seed)
        n = rng.randint(8, 25)
        sites = SiteSet(tuple(generate_sites(n, 600 + seed, "uniform")))
        constraints = random_constraints(rng, sites, rng.randint(1, 5))
        mesh = constrained_triangulate(sites, constraints)
        instances += 1
        for seg in constraints.segments:
            a = sites.index_of(seg.a)
            b = sites.index_of(seg.b)
            if not (mesh.has_edge(a, b) and mesh.is_constrained(a, b)):
                violations += 1
        for e in mesh.edges():
            if not is_locally_delaunay(mesh, e):
                violations += 1
    report(6, violations == 0, f"{instances} (S,L) instances, {violations} violations")


def test_criterion_07_visibility_vs_oracle():
    rng = random.Random(707)
    mismatches = 0
    for _ in range(200):
        n = rng.randint(6, 20)
        sites = SiteSet(tuple(generate_sites(n, rng.randrange(10_000), "uniform")))
        constraints = random_constraints(rng, sites, rng.randint(0, 4))
        p, q = rng.sample(range(n), 2)
        if is_visible(sites, constraints, p, q) != visibility_oracle(
            sites, constraints, p, q
        ):
            mismatches += 1
    report(7, mismatches == 0, f"200 random visibility queries, {mismatches} mismatches")


def test_criterion_08_region_cliques(corpus):
    violations = 0
    checked = 0
    for entry in corpus:
        mesh = entry.mesh
        assert len(mesh) <= 200
        adj = {t: adjacency(mesh, t) for t in range(len(mesh))}
        expected = brute_maximal_cliques(adj)
        regions = extract_regions(mesh)
        checked += 1
        if {r.triangles for r in regions} != expected:
            violations += 1
        covered = set()
        for r in regions:
            covered |= r.triangles
        if covered != set(range(len(mesh))):
            violations += 1
    report(8, violations == 0, f"{checked} meshes, cliques and cover verified")


HAND_CONVEX = [
    [(0, 0), (4, 0), (0, 4)],
    [(0, 0), (2, 0), (2, 2), (0, 2)],
    [(0, 0), (4, 0), (5, 2), (2, 4)],
    [(0, 0), (6, 0), (6, 1), (3, 3), (0, 1)],
    [(0, 0), (8, 0), (8, 8), (0, 8)],
    [(-2, 0), (0, -2), (2, 0), (0, 2)],
    [(0, 0), (5, 1), (6, 4), (3, 6), (-1, 3)],
    [(0, 0), (3, 0), (4, 2), (3, 4), (0, 4), (-1, 2)],
    [(10, 10), (14, 10), (14, 13)],
    [(0, 0), (2, 0), (3, 2), (2, 4), (0, 4)],
]
HAND_NON_CONVEX = [
    [(0, 0), (4, 0), (1, 1), (0, 4)],  # the fan two-subclique shape
    [(0, 0), (4, 0), (4, 4), (2, 1), (0, 4)],
    [(0, 0), (6, 0), (6, 6), (3, 2), (0, 6)],
    [(0, 0), (5, 0), (5, 5), (4, 1), (0, 5)],
    [(0, 0), (8, 0), (8, 2), (2, 2), (2, 6), (0, 6)],
    [(0, 0), (4, 0), (4, 4), (3, 4), (3, 1), (1, 1), (1, 4), (0, 4)],
    [(0, 0), (10, 0), (10, 3), (5, 1), (0, 3)],
    [(0, 0), (3, 1), (6, 0), (5, 4), (3, 2), (1, 4)],
    [(0, 0), (7, 0), (7, 7), (6, 1), (1, 7)],
    [(0, 0), (9, 0), (5, 2), (9, 4), (0, 4)],
]


def test_criterion_09_region_convexity_checker(fan_mesh):
    errors = 0
    for coords in HAND_CONVEX:
        if not is_convex_polygon(Polygon(tuple(Point(x, y) for x, y in coords))):
            errors += 1
    for coords in HAND_NON_CONVEX:
        if is_convex_polygon(Polygon(tuple(Point(x, y) for x, y in coords))):
            errors += 1
    # the documented two-triangle counterexample, via the region route
    sub = Region(fan_mesh, frozenset({0, 1}))
    if is_region_convex(sub):
        errors += 1
    if region_union_polygon(sub) != Polygon(
        (Point(0, 0), Point(4, 0), Point(1, 1), Point(0, 4))
    ):
        errors += 1
    # the full fan region is convex
    if not is_region_convex(Region(fan_mesh, frozenset({0, 1, 2}))):
        errors += 1
    # cmd_check reports the convex-region fraction
    from proxitri.checks import run_checks

    _, stats = run_checks("regions", fan_mesh.sites)
    fraction_reported = "convex_region_fraction" in stats
    report(
        9,
        errors == 0 and fraction_reported,
        f"20 hand-labeled polygons + documented counterexample, {errors} errors; "
        f"convex fraction stat reported",
    )


def test_criterion_10_leader_neighborhoods(corpus):
    mismatches = 0
    for entry in corpus:
        mesh = entry.mesh
        hoods = leader_neighborhoods(mesh)
        polys = [mesh.triangle_polygon(t) for t in range(len(mesh))]
        for a, b in combinations(range(len(mesh)), 2):
            family = b in hoods[a]
            if family != (a in hoods[b]):
                mismatches += 1
            if family != near(polys[a], polys[b]).is_near:
                mismatches += 1
    report(10, mismatches == 0, f"neighborhood families equal the geometric relation")


def test_criterion_11_determinism(tmp_path):
    import io as _io
    from contextlib import redirect_stderr, redirect_stdout

    def run(*args) -> bytes:
        out, err = _io.StringIO(), _io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(list(args))
        assert code == 0, err.getvalue()
        return out.getvalue().encode()

    identical = True
    for rep in range(3):
        site_path = tmp_path / f"rep{rep}.sites"
        run("gen", "18", "--seed", "21", "--distribution", "clustered",
            "--out", str(site_path), "--quiet")
        tri = run("triangulate", str(site_path))
        chk = run("check", str(site_path), "--suite", "all")
        svg_path = tmp_path / f"rep{rep}.svg"
        run("render", str(site_path), "--what", "overlay", "--out", str(svg_path), "--quiet")
        bundle = (
            site_path.read_bytes(),
            tri,
            chk,
            svg_path.read_bytes(),
        )
        if rep == 0:
            first = bundle
        elif bundle != first:
            identical = False
    report(11, identical, "3 repetitions, byte-identical documents and SVGs")
