"""Voronoi diagram as the dual of the Delaunay mesh.

Each cell is read off the fan of triangles around its site, as
`TriMesh.fan` walks it: the circumcenters of the fan, walked
counterclockwise, are the cell corners. Hull sites get two outward
bisector rays which are clipped to a bounding frame, so every cell is
represented by a closed convex polygon. Which cells share an edge is
read off the polygons: closed_cell_intersection slices two cells by
their bisector. Whether more than three cells meet at a point is the tie
count of `SiteSet.disk`, which reads the sites in `SiteSet.order`; the
diagram asks it once per circle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from typing import Optional, Sequence

from .delaunay import SiteSet, TriMesh, triangulate
from .errors import DegenerateIntersection, FrameTooSmall, GeometryError, IndexOutOfRange
from .geometry import (
    Point,
    Polygon,
    Rect,
    _Frozen,
    _bisector,
    _det3,
    _line_slice,
    _overlap,
    bounding_box,
)


class VoronoiDiagram(_Frozen):
    """The dual of a Delaunay mesh. Cells are built on first use and
    cached, so a query that reads two cells builds two."""

    # vertices holds the circumcenter of triangle t at index t; _cell_of
    # gives the cell of a site, built once from the mesh, circumcenters and
    # frame that voronoi_diagram made the diagram with. _disk is
    # sites.disk, asked once per circle: a vertex's tie count and its
    # triangle's circumdisk intruder are one query.
    __slots__ = ("sites", "mesh", "frame", "vertices", "_cell_of", "_disk")
    _fields = ("sites", "mesh", "frame", "vertices")

    def __init__(self, sites: SiteSet, mesh: TriMesh, frame: Rect, vertices: tuple, _cell_of):
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "mesh", mesh)
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "_cell_of", _cell_of)
        object.__setattr__(self, "_disk", cache(sites.disk))

    def __reduce__(self):
        return (VoronoiDiagram, (*self._values(), self._cell_of))

    def cell(self, site: int) -> Polygon:
        self.sites.check_index(site)
        return self._cell_of(site)

    @property
    def cells(self) -> tuple[Polygon, ...]:
        """Every cell in site order (builds those not built yet)."""
        return tuple(map(self.cell, range(len(self.sites))))


def default_frame(sites: SiteSet, centers: Sequence[Point]) -> Rect:
    """Bounding box of sites and circumcenters, inflated by twice the sum
    of its side lengths (a rational upper bound on twice the diagonal) so
    clipping never disturbs a bounded intersection."""
    x0, y0, x1, y1 = bounding_box([*sites.points, *centers])
    pad = 2 * ((x1 - x0) + (y1 - y0))
    if pad == 0:
        pad = Fraction(1)
    return Rect(x0 - pad, y0 - pad, x1 + pad, y1 + pad)


def _ray_end(frame: Polygon, a: Point, b: Point) -> Point:
    """Where the a/b bisector leaves the frame strictly left of a -> b.

    The bisector crosses the line ab at the midpoint of a and b, which is
    strictly inside the frame, so exactly one end of its slice is there.
    """
    lo, hi = _line_slice(frame, _bisector(a, b))
    return lo if _det3(a.row, b.row, lo.row) > 0 else hi


def _build_cell(
    mesh: TriMesh,
    centers: Sequence[Point],
    frame: Polygon,
    site: int,
) -> Polygon:
    pts = mesh.sites.points
    ring, spokes = mesh.fan(site)
    if not ring:
        raise GeometryError(f"site {site} has no incident triangle")
    corners = [centers[t] for t in ring]
    if len(spokes) != len(ring):
        p = pts[site]
        # The hull edges at this site run spokes[-1] -> site -> spokes[0]
        # counterclockwise, so the outside is left of spokes[0] -> site and
        # of site -> spokes[-1]; each ray ends on the frame on that side.
        entry = _ray_end(frame, pts[spokes[0]], p)
        exit_pt = _ray_end(frame, p, pts[spokes[-1]])
        # The frame corners passed walking CCW from exit_pt to entry are
        # those strictly right of that chord, one cyclic run taken from its
        # start. Not every corner is there, or the cell would hold the
        # whole frame and the other sites in it.
        x, e = exit_pt.row, entry.row
        box = frame.vertices
        passed = [_det3(x, e, c.row) < 0 for c in box]
        first = passed.index(False)
        walk = [box[i % 4] for i in range(first, first + 4) if passed[i % 4]]
        corners = [entry, *corners, exit_pt, *walk]
    return Polygon(tuple(corners))


def voronoi_diagram(sites: SiteSet, frame: Optional[Rect] = None) -> VoronoiDiagram:
    """Voronoi diagram of the sites, built from the Delaunay dual.

    The frame must strictly contain every site and circumcenter; when
    omitted it is derived from their bounding box, which it contains by
    construction, so only a caller's frame is checked.
    """
    mesh = triangulate(sites)
    centers = tuple(mesh.circumcenter(t) for t in range(len(mesh)))
    if frame is None:
        frame = default_frame(sites, centers)
    else:
        for p in sites.points:
            if not frame.contains_strict(p):
                raise FrameTooSmall(f"site {p} not strictly inside frame")
        for c in centers:
            if not frame.contains_strict(c):
                raise FrameTooSmall(f"circumcenter {c} not strictly inside frame")
    return VoronoiDiagram(
        sites=sites,
        mesh=mesh,
        frame=frame,
        vertices=centers,
        _cell_of=cache(partial(_build_cell, mesh, centers, Polygon(frame.corners()))),
    )


def closed_cell_intersection(diagram: VoronoiDiagram, p: int, q: int):
    """Exact cl(cell p) * cl(cell q) as a closed set.

    Any common point of two distinct cells is equidistant from both sites,
    so the intersection lives on their bisector line; slicing each polygon
    by that line and overlapping the two slices gives the answer in linear
    time. Returns None, a Point, or a Segment; raises IndexOutOfRange
    unless p and q are two distinct site indices.
    """
    diagram.sites.check_index(p)
    diagram.sites.check_index(q)
    if p == q:
        raise IndexOutOfRange("cell intersection needs two distinct cells")
    return _bisector_overlap(diagram, p, q)


def _bisector_overlap(diagram: VoronoiDiagram, p: int, q: int, *more: int):
    """Common part of the closed cells of p, q and more on the p/q bisector."""
    line = _bisector(diagram.sites[p], diagram.sites[q])
    return _overlap(_line_slice(diagram.cell(c), line) for c in (p, q, *more))


def common_vertex(diagram: VoronoiDiagram, p: int, q: int, r: int) -> Optional[Point]:
    """The single point shared by the closures of three cells, if any.

    Returns None when the closed cells have no common point. Raises
    DegenerateIntersection when the meeting point is a cocircular Voronoi
    vertex where four or more cells meet, or (impossible for distinct
    sites, but checked) when the intersection is larger than a point.
    """
    for idx in (p, q, r):
        diagram.sites.check_index(idx)
    if len({p, q, r}) != 3:
        raise IndexOutOfRange("common vertex query needs three distinct cells")
    # cl(p) * cl(q) lies on the p/q bisector, so slicing all three cells by
    # that line loses nothing.
    u = _bisector_overlap(diagram, p, q, r)
    if u is None:
        return None
    if not isinstance(u, Point):
        raise DegenerateIntersection(
            f"cells {p}, {q}, {r} share more than a point: {u}"
        )
    tied = diagram._disk(u, p)[1]
    if tied > 3:
        raise DegenerateIntersection(
            f"{tied} cocircular cells meet at {u}; no three-cell vertex"
        )
    return u
