"""Executable property checks behind the `check` CLI command.

Each suite turns one structural claim about the constructions into a
pass/fail verdict with a minimal witness on failure. Exactly-degenerate
inputs (four or more cocircular sites) surface as "degenerate-skip"
rather than "fail": the claims are stated for three-cell meeting points
and general-position duals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import combinations
from typing import Callable, Optional

from .choices import SUITES
from .delaunay import SiteSet, TriMesh, adjacency
from .errors import DegenerateIntersection
from .geometry import CirclePosition, Point, Rect, Segment, in_circumcircle, is_convex_polygon
from .io import geometry_literal
from .proximity import near, triangles_near
from .regions import (
    extract_regions,
    leader_neighborhoods,
    region_union_polygon,
)
from .voronoi import (
    VoronoiDiagram,
    cells_strongly_near,
    closed_cell_intersection,
    common_vertex,
    voronoi_diagram,
)


@dataclass
class CheckResult:
    name: str
    status: str  # pass | fail | degenerate-skip
    witness: str = "-"

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def run_checks(
    suite: str,
    sites: SiteSet,
    frame: Optional[Rect] = None,
) -> tuple[list[CheckResult], dict]:
    """Run one suite (or all) against the sites; returns results and stats."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    wanted = SUITES[:-1] if suite == "all" else (suite,)
    diagram = voronoi_diagram(sites, frame)
    mesh = diagram.mesh
    results: list[CheckResult] = []
    stats: dict = {}
    # Per-triangle results that two suites read, computed once per run.
    intruder = cache(partial(_site_inside_circumdisk, mesh))
    vertex = cache(partial(_triangle_vertex, diagram))
    if "delaunay" in wanted:
        results.extend(_check_delaunay(mesh, intruder))
    if "dual" in wanted:
        results.extend(_check_dual(diagram))
    if "lemma2" in wanted:
        results.extend(_check_lemma2(diagram, vertex))
    if "theorem-equivalence" in wanted:
        results.extend(_check_theorem_equivalence(diagram, intruder, vertex))
    if "regions" in wanted:
        region_results, region_stats = _check_regions(mesh)
        results.extend(region_results)
        stats.update(region_stats)
    if "leader" in wanted:
        results.extend(_check_leader(mesh))
    return results, stats


def _site_inside_circumdisk(mesh: TriMesh, t: int) -> Optional[int]:
    """The first site strictly inside triangle t's circumdisk, if any."""
    i, j, k = mesh.triangles[t]
    pts = mesh.sites.points
    for d in range(len(pts)):
        if d in (i, j, k):
            continue
        if in_circumcircle(pts[i], pts[j], pts[k], pts[d]) is CirclePosition.INSIDE:
            return d
    return None


# common_vertex verdict for a triangle whose cells meet four or more at once.
_COCIRCULAR = object()


def _triangle_vertex(diagram: VoronoiDiagram, t: int):
    """The point shared by the closed cells of triangle t's sites (None when
    there is none), or _COCIRCULAR."""
    i, j, k = diagram.mesh.triangles[t]
    try:
        return common_vertex(diagram, i, j, k)
    except DegenerateIntersection:
        return _COCIRCULAR


def _check_delaunay(mesh: TriMesh, intruder: Callable[[int], Optional[int]]) -> list[CheckResult]:
    results = []
    bad = None
    for t in range(len(mesh)):
        hit = intruder(t)
        if hit is not None:
            bad = f"triangle-{t}:site-{hit}-inside"
            break
    results.append(
        CheckResult("delaunay/empty-circumdisk", "fail" if bad else "pass", bad or "-")
    )
    n = len(mesh.sites)
    h = len(mesh.hull())
    t_ok = len(mesh) == 2 * n - h - 2
    e_ok = len(mesh.edges()) == 3 * n - h - 3
    results.append(
        CheckResult(
            "delaunay/euler-counts",
            "pass" if (t_ok and e_ok) else "fail",
            "-" if (t_ok and e_ok) else f"n={n},h={h},t={len(mesh)},e={len(mesh.edges())}",
        )
    )
    return results


def _degenerate_point(diagram: VoronoiDiagram, u: Point) -> bool:
    """True when four or more sites are jointly nearest to u."""
    dists = sorted(
        Fraction((u.x - s.x) ** 2 + (u.y - s.y) ** 2) for s in diagram.sites.points
    )
    return len(dists) >= 4 and dists[0] == dists[3]


def _check_dual(diagram: VoronoiDiagram) -> list[CheckResult]:
    mesh = diagram.mesh
    n = len(diagram.sites)
    bad = None
    degenerate = None
    for p, q in combinations(range(n), 2):
        in_mesh = mesh.has_edge(p, q)
        contact = closed_cell_intersection(diagram, p, q)
        strong = isinstance(contact, Segment)
        if in_mesh == strong:
            continue
        if isinstance(contact, Point) and _degenerate_point(diagram, contact):
            degenerate = f"pair-{p}-{q}:cocircular-contact"
            continue
        bad = f"pair-{p}-{q}:mesh={in_mesh},voronoi={strong}"
        break
    if bad:
        return [CheckResult("dual/edge-definition", "fail", bad)]
    if degenerate:
        return [CheckResult("dual/edge-definition", "degenerate-skip", degenerate)]
    return [CheckResult("dual/edge-definition", "pass")]


def _check_lemma2(diagram: VoronoiDiagram, vertex: Optional[Callable] = None) -> list[CheckResult]:
    vertex = vertex or partial(_triangle_vertex, diagram)
    results = []
    for t in range(len(diagram.mesh)):
        name = f"lemma2/triangle-{t}"
        shared = vertex(t)
        if shared is _COCIRCULAR:
            results.append(CheckResult(name, "degenerate-skip", "cocircular-vertex"))
            continue
        center = diagram.vertices[t]
        if shared == center:
            results.append(CheckResult(name, "pass"))
        else:
            results.append(
                CheckResult(
                    name,
                    "fail",
                    f"circumcenter-{geometry_literal(center)}"
                    f"!=vertex-{geometry_literal(shared)}",
                )
            )
    return results


def _check_theorem_equivalence(
    diagram: VoronoiDiagram, intruder: Callable[[int], Optional[int]], vertex: Callable
) -> list[CheckResult]:
    mesh = diagram.mesh
    results = []
    for t in range(len(mesh)):
        i, j, k = mesh.triangles[t]
        name = f"theorem-equivalence/triangle-{t}"
        empty_disk = intruder(t) is None
        shared = vertex(t)
        if shared is _COCIRCULAR:
            results.append(CheckResult(name, "degenerate-skip", "cocircular-vertex"))
            continue
        center_is_vertex = shared is not None and shared == diagram.vertices[t]
        pairwise_strong = all(
            cells_strongly_near(diagram, a, b) for a, b in ((i, j), (j, k), (k, i))
        )
        if empty_disk == center_is_vertex == pairwise_strong:
            results.append(CheckResult(name, "pass"))
        else:
            results.append(
                CheckResult(
                    name,
                    "fail",
                    f"empty-disk={empty_disk},vertex={center_is_vertex},strong={pairwise_strong}",
                )
            )
    return results


def _check_regions(mesh: TriMesh) -> tuple[list[CheckResult], dict]:
    regions = extract_regions(mesh)
    results = []
    covered: set[int] = set()
    sound = True
    witness = "-"
    for idx, region in enumerate(regions):
        covered |= region.triangles
        members = region.members()
        # Region construction already checks the clique; verify maximality.
        # A triangle sharing an edge with every member shares one with the
        # first, so only that member's edge neighbours can extend the region.
        for t in sorted(adjacency(mesh, members[0])):
            if t in region.triangles:
                continue
            if all(
                len(set(mesh.triangles[t]) & set(mesh.triangles[u])) == 2
                for u in members
            ):
                sound = False
                witness = f"region-{idx}:not-maximal:misses-{t}"
                break
        if not sound:
            break
    results.append(CheckResult("regions/maximal-cliques", "pass" if sound else "fail", witness))
    missing = sorted(set(range(len(mesh))) - covered)
    results.append(
        CheckResult(
            "regions/cover",
            "fail" if missing else "pass",
            "missing-" + ",".join(map(str, missing)) if missing else "-",
        )
    )
    area_ok = True
    area_witness = "-"
    convex = 0
    for idx, region in enumerate(regions):
        poly = region_union_polygon(region)
        total = sum((_triangle_area(mesh, t) for t in region.members()), start=Fraction(0))
        if poly.area() != total:
            area_ok = False
            area_witness = f"region-{idx}:union-area-mismatch"
        if is_convex_polygon(poly):
            convex += 1
    results.append(CheckResult("regions/union-area-additivity", "pass" if area_ok else "fail", area_witness))
    stats = {
        "regions": str(len(regions)),
        "convex_regions": str(convex),
        "convex_region_fraction": str(Fraction(convex, len(regions)) if regions else Fraction(0)),
    }
    return results, stats


def _triangle_area(mesh: TriMesh, t: int) -> Fraction:
    """Area of a (counterclockwise) mesh triangle, from its three corners."""
    a, b, c = mesh.triangle_points(t)
    return ((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)) / 2


def _check_leader(mesh: TriMesh) -> list[CheckResult]:
    hoods = {h.anchor: h.neighbors for h in leader_neighborhoods(mesh)}
    sym_ok = all(
        (a in hoods[b]) == (b in hoods[a])
        for a, b in combinations(range(len(mesh)), 2)
    )
    results = [CheckResult("leader/symmetry", "pass" if sym_ok else "fail")]
    bad = None
    polys = [mesh.triangle_polygon(t) for t in range(len(mesh))]
    for a, b in combinations(range(len(mesh)), 2):
        combinatorial = b in hoods[a]
        geometric = near(polys[a], polys[b]).is_near
        index_near = triangles_near(mesh, a, b)
        if not (combinatorial == geometric == index_near):
            bad = f"pair-{a}-{b}:family={combinatorial},geometric={geometric},indices={index_near}"
            break
    results.append(
        CheckResult("leader/geometric-agreement", "fail" if bad else "pass", bad or "-")
    )
    return results
