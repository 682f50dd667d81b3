"""Executable property checks behind the `check` CLI command.

Each suite turns one structural claim about the constructions into a
pass/fail verdict with a minimal witness on failure. Exactly-degenerate
inputs (four or more cocircular sites) surface as "degenerate-skip"
rather than "fail": the claims are stated for three-cell meeting points
and general-position duals.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from math import lcm
from typing import Callable, Optional, Sequence

from .choices import SUITES
from .delaunay import SiteSet, TriMesh, adjacency, triangulate
from .errors import DegenerateIntersection, NotCCW
from .geometry import (
    Orientation,
    Point,
    Rect,
    Segment,
    _Frozen,
    _ring_area2,
    is_convex_polygon,
    orientation,
)
from .io import geometry_literal
from .proximity import near, strongly_near_triangles, triangles_near
from .regions import (
    extract_regions,
    leader_neighborhoods,
    region_union_polygon,
)
from .voronoi import (
    VoronoiDiagram,
    closed_cell_intersection,
    common_vertex,
    voronoi_diagram,
)


class CheckResult(_Frozen):
    """One verdict record: unlike the geometric values, mutable and unhashable."""

    __slots__ = _fields = ("name", "status", "witness")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, name: str, status: str, witness: str = "-"):
        self.name = name
        self.status = status  # pass | fail | degenerate-skip
        self.witness = witness

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
    # Only the Voronoi suites build the diagram, so only they read the frame.
    if {"dual", "lemma2", "theorem-equivalence"}.intersection(wanted):
        diagram = voronoi_diagram(sites, frame)
        mesh, disk = diagram.mesh, diagram._disk
    else:
        diagram = None
        mesh, disk = triangulate(sites), sites.disk
    results: list[CheckResult] = []
    stats: dict = {}
    # Per-triangle and per-site-pair results that two suites read, computed
    # once per run. Cell contacts are keyed by the ordered pair (p < q). The
    # intruder and the common vertex's tie count of a triangle are one
    # query of the diagram's disk.
    intruder = cache(_circumdisk_scan(mesh, disk))
    vertex = cache(partial(_triangle_vertex, diagram))
    contact = cache(partial(closed_cell_intersection, diagram))
    if "delaunay" in wanted:
        results.extend(_check_delaunay(mesh, intruder))
    if "dual" in wanted:
        results.extend(_check_dual(diagram, contact))
    if "lemma2" in wanted:
        results.extend(_check_lemma2(diagram, vertex))
    if "theorem-equivalence" in wanted:
        results.extend(_check_theorem_equivalence(diagram, intruder, vertex, contact))
    if "regions" in wanted:
        region_results, region_stats = _check_regions(mesh)
        results.extend(region_results)
        stats.update(region_stats)
    if "leader" in wanted:
        results.extend(_check_leader(mesh))
    return results, stats


def _overlapping_boxes(boxes: Sequence[tuple]) -> set[tuple[int, int]]:
    """Index pairs (i < j) whose closed boxes (x0, y0, x1, y1) meet.

    One sort-and-sweep over the x-intervals (Baraff 1992; Cohen et al.
    1995): a box is compared only with the boxes still open at its left
    end, and those pairs are kept when their y-intervals meet too. The
    coordinates are first replaced by their ranks among the distinct
    values on their axis, which keeps every order and tie, so the sweep
    compares small ints and loses no meeting pair.
    """
    x_rank = _ranks([v for box in boxes for v in (box[0], box[2])])
    y_rank = _ranks([v for box in boxes for v in (box[1], box[3])])
    ranked = [(x_rank[x0], y_rank[y0], x_rank[x1], y_rank[y1]) for x0, y0, x1, y1 in boxes]
    pairs: set[tuple[int, int]] = set()
    active: list[tuple[int, int, int, int]] = []  # (x1, y0, y1, index) of the boxes still open
    for i in sorted(range(len(ranked)), key=lambda i: ranked[i][0]):
        x0, y0, x1, y1 = ranked[i]
        active = [box for box in active if box[0] >= x0]
        for _, by0, by1, j in active:
            if by0 <= y1 and y0 <= by1:
                pairs.add((j, i) if j < i else (i, j))
        active.append((x1, y0, y1, i))
    return pairs


def _ranks(values: list) -> dict:
    """Each value's position among the distinct values, in increasing order."""
    return {v: r for r, v in enumerate(sorted(set(values)))}


def _circumdisk_scan(mesh: TriMesh, disk: Callable) -> Callable[[int], Optional[int]]:
    """The function giving, for triangle t, the smallest index of a site
    strictly inside its circumdisk (None when the open disk is empty),
    asked of disk, which is mesh.sites.disk or a cache of it."""

    def scan(t: int) -> Optional[int]:
        if orientation(*mesh.triangle_points(t)) is not Orientation.CCW:
            raise NotCCW(f"triangle {t} is not counterclockwise")
        return disk(mesh.circumcenter(t), mesh.triangles[t][0])[0]

    return scan


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
    e = len(mesh.edges())
    t_ok = len(mesh) == 2 * n - h - 2
    e_ok = e == 3 * n - h - 3
    results.append(
        CheckResult(
            "delaunay/euler-counts",
            "pass" if (t_ok and e_ok) else "fail",
            "-" if (t_ok and e_ok) else f"n={n},h={h},t={len(mesh)},e={e}",
        )
    )
    return results


def _check_dual(diagram: VoronoiDiagram, contact: Callable) -> list[CheckResult]:
    mesh = diagram.mesh
    n = len(diagram.sites)
    bad = None
    degenerate = None
    # Closed cells with disjoint boxes do not meet, so a pair that is
    # neither a box pair nor a mesh edge agrees (no edge, no contact).
    pairs = _overlapping_boxes([diagram.cell(i).bounding_box() for i in range(n)])
    pairs.update(mesh.edges())
    for p, q in sorted(pairs):
        in_mesh = mesh.has_edge(p, q)
        shared = contact(p, q)
        strong = isinstance(shared, Segment)
        if in_mesh == strong:
            continue
        # shared lies in closed cell p, so the sites as far from it as p
        # are its nearest sites.
        if isinstance(shared, Point) and diagram._disk(shared, p)[1] >= 4:
            degenerate = f"pair-{p}-{q}:cocircular-contact"
            continue
        bad = f"pair-{p}-{q}:mesh={in_mesh},voronoi={strong}"
        break
    if bad:
        return [CheckResult("dual/edge-definition", "fail", bad)]
    if degenerate:
        return [CheckResult("dual/edge-definition", "degenerate-skip", degenerate)]
    return [CheckResult("dual/edge-definition", "pass")]


def _check_lemma2(diagram: VoronoiDiagram, vertex: Callable) -> list[CheckResult]:
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
    diagram: VoronoiDiagram,
    intruder: Callable[[int], Optional[int]],
    vertex: Callable,
    contact: Callable,
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
            isinstance(contact(min(a, b), max(a, b)), Segment)
            for a, b in ((i, j), (j, k), (k, i))
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
            if all(strongly_near_triangles(mesh, t, u) for u in members):
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
    rows = mesh.sites.rows
    for idx, region in enumerate(regions):
        poly = region_union_polygon(region)
        # Twice each area times scale^2, on one scale for the whole region.
        corners = [[rows[v] for v in mesh.triangles[t]] for t in region.members()]
        scale = lcm(*(w for tri in corners for _, _, w in tri))
        total = sum(_ring_area2(tri, scale) for tri in corners)
        if _ring_area2([v.row for v in poly.vertices], scale) != total:
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


def _check_leader(mesh: TriMesh) -> list[CheckResult]:
    hoods = leader_neighborhoods(mesh)
    # (a, b) for every family member b of anchor a; a pair that neither
    # family claims is symmetric.
    claimed = {(a, b) for a, family in hoods.items() for b in family if b != a and b in hoods}
    sym_ok = all((b, a) in claimed for a, b in claimed)
    results = [CheckResult("leader/symmetry", "pass" if sym_ok else "fail")]
    bad = None
    polys = [mesh.triangle_polygon(t) for t in range(len(mesh))]
    # Triangles with disjoint boxes share no point and so no vertex: a pair
    # outside the box pairs and the family pairs is false on all three sides.
    pairs = _overlapping_boxes([poly.bounding_box() for poly in polys])
    pairs.update((a, b) if a < b else (b, a) for a, b in claimed)
    for a, b in sorted(pairs):
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
