"""Triangulation regions and neighborhood families.

A region is a set of mesh triangles in which every pair shares a full
edge (a clique of the edge-adjacency graph, which delaunay.adjacency
reads off the mesh's edge map). In a valid triangulation the
maximal regions are read off the mesh in one pass. Three triangles that
pairwise share an edge are exactly the closed fan around a vertex with
exactly three incident triangles (an open hull fan of three is not a
clique), and no four triangles are pairwise adjacent. Every other maximal
region is the pair of triangles on an interior edge that is no spoke of
such a fan, and a triangle with no edge neighbor is a singleton region.
is_region_convex tests the union reading of a region against the claim
that regions are convex polygons. region_common_intersection gives the
intersection reading, which is convex because each closed triangle is:
one fold of geometry's closed convex intersection kernel over the
members. leader_neighborhoods maps each triangle to its Leader family,
the triangles that share a vertex index with it, locally when given a
scope region.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional

from .delaunay import TriMesh, adjacency
from .errors import GeometryError, MixedMeshes, UnionHasHole
from .geometry import (
    Polygon,
    _Frozen,
    convex_closed_intersection,
    is_convex_polygon,
)


class Region(_Frozen):
    """Pairwise edge-adjacent triangle collection from one mesh.

    Construction checks the clique property. Maximality is a property of
    extract_regions output, not of the type: sub-cliques are legal values
    (they are what the union/convexity queries get exercised on).
    """

    __slots__ = _fields = ("mesh", "triangles")

    def __init__(self, mesh: TriMesh, triangles: Iterable[int]):
        object.__setattr__(self, "mesh", mesh)
        object.__setattr__(self, "triangles", frozenset(triangles))
        if not self.triangles:
            raise GeometryError("region needs at least one triangle")
        members = sorted(self.triangles)
        for t in members:
            self.mesh.check_triangle(t)
        for i, t in enumerate(members[:-1]):
            shared = adjacency(self.mesh, t)
            for u in members[i + 1 :]:
                if u not in shared:
                    raise GeometryError(
                        f"triangles {t} and {u} do not share an edge; not a region"
                    )

    def members(self) -> list[int]:
        return sorted(self.triangles)


def extract_regions(mesh: TriMesh) -> list[Region]:
    """All maximal regions of the mesh, deterministically ordered.

    Every triangle belongs to at least one region (a lone triangle is its
    own singleton region).
    """
    cliques: list[frozenset[int]] = []
    hubs: set[int] = set()
    for v in range(len(mesh.sites)):
        ring, spokes = mesh.fan(v)
        if len(ring) == 3 and len(spokes) == 3:
            hubs.add(v)
            cliques.append(frozenset(ring))
    paired: set[int] = set()
    for a, b in mesh.edges():
        tids = mesh.edge_triangles(a, b)
        if len(tids) == 2:
            paired.update(tids)
            if a not in hubs and b not in hubs:
                cliques.append(frozenset(tids))
    cliques.extend(frozenset((t,)) for t in range(len(mesh)) if t not in paired)
    cliques.sort(key=sorted)
    return [Region(mesh, c) for c in cliques]


def proximal_region_pairs(regions: list[Region]) -> list[tuple[int, int]]:
    """Indices of region pairs sharing at least one mesh vertex, sorted."""
    if not regions:
        return []
    mesh = regions[0].mesh
    if any(r.mesh is not mesh and r.mesh != mesh for r in regions):
        raise MixedMeshes("regions come from different meshes")
    at_vertex: dict[int, set[int]] = {}
    for r, region in enumerate(regions):
        for t in region.triangles:
            for v in mesh.triangles[t]:
                at_vertex.setdefault(v, set()).add(r)
    pairs: set[tuple[int, int]] = set()
    for group in at_vertex.values():
        pairs.update(combinations(sorted(group), 2))
    return sorted(pairs)


def region_union_polygon(region: Region) -> Polygon:
    """Outer boundary of the union of the region's triangles.

    Directed triangle edges whose reverse is not used by another member
    are the boundary; chaining them must yield a single loop, otherwise
    the union is not a simple polygon (hole or pinch) and UnionHasHole is
    raised.
    """
    mesh = region.mesh
    members = region.members()
    directed: set[tuple[int, int]] = set()
    for t in members:
        i, j, k = mesh.triangles[t]
        directed.update(((i, j), (j, k), (k, i)))
    boundary = {(u, v): False for (u, v) in directed if (v, u) not in directed}
    nxt: dict[int, list[int]] = {}
    for u, v in boundary:
        nxt.setdefault(u, []).append(v)
    if any(len(vs) > 1 for vs in nxt.values()):
        raise UnionHasHole("union boundary pinches at a vertex")
    start = min(nxt)
    loop = [start]
    cur = nxt[start][0]
    while cur != start:
        loop.append(cur)
        cur = nxt[cur][0]
    if len(loop) != len(boundary):
        raise UnionHasHole("union boundary is not a single loop")
    pts = mesh.sites.points
    return Polygon(tuple(pts[i] for i in loop))


def is_region_convex(region: Region) -> bool:
    """Convexity of the region's union polygon."""
    return is_convex_polygon(region_union_polygon(region))


def region_common_intersection(region: Region):
    """Intersection of the closures of all member triangles.

    The alternative reading of a region as an intersection rather than a
    union: a single triangle yields itself, an edge-sharing pair yields
    the shared edge, and larger cliques collapse to an edge or a vertex.
    Each closed triangle is convex, so the intersection is one fold of
    convex_closed_intersection, stopped at the first empty part. Returns
    a Polygon, Segment, Point, or None.
    """
    mesh = region.mesh
    members = region.members()
    acc = mesh.triangle_polygon(members[0])
    for t in members[1:]:
        acc = convex_closed_intersection(acc, mesh.triangle_polygon(t))
        if acc is None:
            return None
    return acc


def leader_neighborhoods(
    mesh: TriMesh, scope: Optional[Region] = None
) -> dict[int, frozenset[int]]:
    """Near-neighbor family of every triangle (the local topology builder):
    each anchor triangle, in index order, maps to the triangles sharing a
    vertex with it (anchor excluded).

    With a scope region, both the anchors and the neighbor candidates are
    restricted to the region's members.
    """
    if scope is not None and scope.mesh != mesh:
        raise MixedMeshes("scope region belongs to a different mesh")
    anchors = scope.members() if scope is not None else list(range(len(mesh)))
    vert_tris: dict[int, set[int]] = {}
    for t in anchors:
        for v in mesh.triangles[t]:
            vert_tris.setdefault(v, set()).add(t)
    out = {}
    for t in anchors:
        near_set: set[int] = set()
        for v in mesh.triangles[t]:
            near_set |= vert_tris[v]
        near_set.discard(t)
        out[t] = frozenset(near_set)
    return out
