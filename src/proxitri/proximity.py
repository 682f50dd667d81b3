"""Nearness relations on closed planar sets.

Two sets are near when their closures intersect, far otherwise; a
verdict is near exactly when it carries a witness, a common part of the
two closures, so far is `not near(a, b).is_near`. Two segments, and two
convex polygons, meet in geometry's one kernel,
`convex_closed_intersection`. Two convex polygons are strongly near when
their closed intersection is a positive-length segment; `near` flags it,
and the CLI decides strong nearness of triangles and of cells that way.
`strongly_near_triangles` is the index form (two shared vertices),
equal to it on every mesh that `triangulate` builds.
All computation is exact; there is no tolerance parameter anywhere.
"""

from __future__ import annotations

from typing import Optional, Union

from .delaunay import TriMesh
from .errors import IndexOutOfRange
from .geometry import (
    Point,
    PointLocation,
    Polygon,
    Segment,
    _Frozen,
    _row_order,
    convex_closed_intersection,
    is_convex_polygon,
    locate_point,
)

GeometrySet = Union[Point, Segment, Polygon, tuple, frozenset, list]


class ProximityVerdict(_Frozen):
    """Near when it carries a witness (a part the two closures share),
    far when the witness is None."""

    __slots__ = _fields = ("witness", "strongly")

    def __init__(self, witness: Union[None, Point, Segment, Polygon] = None, strongly=False):
        if strongly and not isinstance(witness, Segment):
            raise ValueError("a strong verdict's witness is a shared edge segment")
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "strongly", strongly)

    @property
    def is_near(self) -> bool:
        return self.witness is not None


_FAR = ProximityVerdict()
# What near() compares once point collections become sorted tuples.
_KINDS = (tuple, Segment, Polygon)


def _as_points(g) -> Optional[tuple[Point, ...]]:
    if isinstance(g, Point):
        return (g,)
    if isinstance(g, (tuple, list, frozenset, set)):
        items = tuple(g)
        if not all(isinstance(p, Point) for p in items):
            raise TypeError("point sets must contain only Points")
        if not items:
            raise ValueError("empty point set has no proximity relation")
        return tuple(sorted(items, key=lambda p: _row_order(p.row)))
    return None


def near(a: GeometrySet, b: GeometrySet) -> ProximityVerdict:
    """Closure-intersection verdict with a witness.

    Accepts points, point collections, segments and polygons (polygons are
    closed regions: boundary plus interior). The strong flag is set when
    both arguments are convex polygons touching along a positive-length
    common edge with disjoint interiors.
    """
    pa = _as_points(a)
    pb = _as_points(b)
    ga = pa if pa is not None else a
    gb = pb if pb is not None else b
    if not (isinstance(ga, _KINDS) and isinstance(gb, _KINDS)):
        raise TypeError(f"unsupported geometry pair {type(a).__name__}/{type(b).__name__}")
    if pa is not None:
        return _points_near(pa, gb)
    if pb is not None:
        return _points_near(pb, ga)
    if isinstance(ga, Segment) and isinstance(gb, Segment):
        hit = convex_closed_intersection(ga, gb)
        if hit is None:
            return _FAR
        return ProximityVerdict(hit)
    if isinstance(ga, Segment) and isinstance(gb, Polygon):
        return _segment_polygon_near(ga, gb)
    if isinstance(ga, Polygon) and isinstance(gb, Segment):
        return _segment_polygon_near(gb, ga)
    return _polygons_near(ga, gb)


def _points_near(pts: tuple[Point, ...], other) -> ProximityVerdict:
    for p in pts:
        if isinstance(other, tuple):
            if p in other:
                return ProximityVerdict(p)
        elif locate_point(p, other) is not PointLocation.EXTERIOR:
            return ProximityVerdict(p)
    return _FAR


def _segment_polygon_near(seg: Segment, poly: Polygon) -> ProximityVerdict:
    for end in (seg.a, seg.b):
        if locate_point(end, poly) is not PointLocation.EXTERIOR:
            return ProximityVerdict(end)
    for edge in poly.edges():
        hit = convex_closed_intersection(seg, edge)
        if hit is not None:
            return ProximityVerdict(hit)
    return _FAR


def _polygons_near(p: Polygon, q: Polygon) -> ProximityVerdict:
    if is_convex_polygon(p) and is_convex_polygon(q):
        inter = convex_closed_intersection(p, q)
        if inter is None:
            return _FAR
        return ProximityVerdict(inter, strongly=isinstance(inter, Segment))
    # General simple polygons: find some witness of closure contact.
    for v in p.vertices:
        if locate_point(v, q) is not PointLocation.EXTERIOR:
            return ProximityVerdict(v)
    for v in q.vertices:
        if locate_point(v, p) is not PointLocation.EXTERIOR:
            return ProximityVerdict(v)
    for e in p.edges():
        for f in q.edges():
            hit = convex_closed_intersection(e, f)
            if hit is not None:
                return ProximityVerdict(hit)
    return _FAR


def triangles_near(mesh: TriMesh, t1: int, t2: int) -> bool:
    """Closure contact of two mesh triangles, decided from shared indices.

    Reflexive: a triangle is near itself.
    """
    a = set(mesh.check_triangle(t1))
    b = set(mesh.check_triangle(t2))
    return bool(a & b)


def strongly_near_triangles(mesh: TriMesh, t1: int, t2: int) -> bool:
    """True when two distinct triangles share a full mesh edge."""
    a = set(mesh.check_triangle(t1))
    b = set(mesh.check_triangle(t2))
    if t1 == t2:
        raise IndexOutOfRange("strong proximity needs two distinct triangles")
    return len(a & b) == 2
