"""Independent brute-force oracles used to cross-check the library.

Each oracle takes a different computational route from the code it
verifies: circumcenters come from a linear solve rather than an in-circle
determinant, cells come from half-plane clipping rather than the Delaunay
dual walk, cell edge owners from distance matching rather than fan
spokes, and visibility from parametric intersection rather than
point-location classification. The fraction_* references are the plain
Fraction formulas that geometry's integer sign kernel replaces (for
constrained Delaunay edges, bisector bounds rather than one in-circle
sign per side; for the closed convex intersection, every contact of two
sides rather than proper crossings only), and the
composed_* references build three-cell and region intersections edge by
edge instead of slicing along one line. FractionMapper is render's screen
transform on Fractions, which the integer-row mapper replaces. The
all_pairs_* checks are the `check` suite bodies that visit every pair,
which the sort-and-sweep broad phase replaces; they reach the library
through the `proxitri.checks` module, so a fault patched into it reaches
them as well. reference_polygon is Polygon construction as separate
passes over Points (normalise, area sign, convexity, all edge pairs
through fraction_segment_intersection), which the one pass over integer rows
replaces. reference_mesh is the mesh builder that keeps numbered
triangles beside a directed edge -> triangle map, which the one directed
edge -> apex map replaces. It also keeps the old sweep, whose hull is one
circular list searched for the arc a new site sees, which the two
monotone hull chains replace. all_pairs_proximal_region_pairs tests every
pair of regions, which the per-vertex index replaces. reference_fan walks
a site's fan from its sorted incident triangles with a rotation scan per
triangle, which TriMesh.fan's start spoke and directed-edge map replace.
is_visible and is_constrained_delaunay_edge decide visibility and
constrained Delaunay edges (Chew 1989) pair by pair on the integer rows,
with the same blocker predicate as constraint validation; the tests
compare constrained_triangulate with them, and them with the
visibility_oracle and fraction_* references.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Optional, Sequence

from proxitri import checks
from proxitri.checks import CheckResult
from proxitri.delaunay import (
    ConstraintSet,
    SiteSet,
    TriMesh,
    _Ends,
    _blocked,
    _edge_key,
    _incircle_perturbed,
    _resolve_constraints,
    _validate_constraints,
)
from proxitri.errors import (
    AllCollinear,
    CollinearInput,
    ConstraintThroughSite,
    CrossingConstraints,
    DegenerateIntersection,
    GeometryError,
    IndexOutOfRange,
    MixedMeshes,
    NonConvexInput,
    NotCCW,
    TooFewSites,
)
from proxitri.geometry import (
    Homogeneous,
    Orientation,
    Point,
    PointLocation,
    Polygon,
    Rect,
    Segment,
    _det3,
    _incircle_det,
    _line_point,
    _row_order,
    convex_closed_intersection,
    is_convex_polygon,
    locate_point,
)
from proxitri.render import STYLE
from proxitri.voronoi import closed_cell_intersection


def brute_delaunay_triangles(sites: SiteSet) -> set[tuple[int, int, int]]:
    """All CCW triples whose open circumdisk is empty of other sites.

    O(n^4): the circumcenter of each candidate triple comes from solving
    the two perpendicular-bisector equations (Cramer), and containment is
    an integer comparison of cross-multiplied squared distances, all over
    coordinates scaled by the common denominator of every site.
    """
    denom = 1
    for p in sites.points:
        denom = lcm(denom, p.x.denominator, p.y.denominator)
    sc = [(int(p.x * denom), int(p.y * denom)) for p in sites.points]
    n = len(sc)
    out = set()
    for i, j, k in combinations(range(n), 3):
        ax, ay = sc[i]
        bx, by = sc[j]
        cx, cy = sc[k]
        turn = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if turn == 0:
            continue
        # 2(b-a).u = |b|^2-|a|^2 ; 2(c-a).u = |c|^2-|a|^2
        a1, b1 = 2 * (bx - ax), 2 * (by - ay)
        c1 = bx * bx + by * by - ax * ax - ay * ay
        a2, b2 = 2 * (cx - ax), 2 * (cy - ay)
        c2 = cx * cx + cy * cy - ax * ax - ay * ay
        det = a1 * b2 - a2 * b1
        ux = c1 * b2 - c2 * b1  # center = (ux/det, uy/det)
        uy = a1 * c2 - a2 * c1
        r2 = (ax * det - ux) ** 2 + (ay * det - uy) ** 2
        empty = True
        for s in range(n):
            if s in (i, j, k):
                continue
            sx, sy = sc[s]
            if (sx * det - ux) ** 2 + (sy * det - uy) ** 2 < r2:
                empty = False
                break
        if empty:
            tri = (i, j, k) if turn > 0 else (i, k, j)
            out.add(tri)
    return out


def _fraction_key(p: Point) -> tuple[Fraction, Fraction]:
    """Lexicographic sort key on the Fraction coordinates, not the rows."""
    return (p.x, p.y)


def _fraction_cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def fraction_distance_sq(a: Point, b: Point) -> Fraction:
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + dy * dy


def fraction_orientation(a: Point, b: Point, c: Point) -> Orientation:
    d = _fraction_cross(a, b, c)
    if d > 0:
        return Orientation.CCW
    if d < 0:
        return Orientation.CW
    return Orientation.COLLINEAR


def fraction_circumcircle(a: Point, b: Point, c: Point) -> tuple[Point, Fraction]:
    """Centre and squared radius of the circle through a, b, c, from the
    closed-form solve of the two perpendicular-bisector equations."""
    d = 2 * _fraction_cross(a, b, c)
    if d == 0:
        raise CollinearInput("collinear")
    sa = a.x * a.x + a.y * a.y
    sb = b.x * b.x + b.y * b.y
    sc = c.x * c.x + c.y * c.y
    ux = (sa * (b.y - c.y) + sb * (c.y - a.y) + sc * (a.y - b.y)) / d
    uy = (sa * (c.x - b.x) + sb * (a.x - c.x) + sc * (b.x - a.x)) / d
    return Point(ux, uy), (a.x - ux) ** 2 + (a.y - uy) ** 2


def fraction_in_circumcircle(a: Point, b: Point, c: Point, d: Point) -> int:
    """1, 0 or -1 as d lies inside, on or outside the circle through the
    counterclockwise triple a, b, c: the sign of the lifted determinant."""
    if fraction_orientation(a, b, c) is not Orientation.CCW:
        raise NotCCW("not counterclockwise")
    adx, ady = a.x - d.x, a.y - d.y
    bdx, bdy = b.x - d.x, b.y - d.y
    cdx, cdy = c.x - d.x, c.y - d.y
    det = (
        (adx * adx + ady * ady) * (bdx * cdy - bdy * cdx)
        - (bdx * bdx + bdy * bdy) * (adx * cdy - ady * cdx)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - ady * bdx)
    )
    return (det > 0) - (det < 0)


def circle_position(center: Point, radius_sq: Fraction, p: Point) -> int:
    """1, 0 or -1 as p lies inside, on or outside a circle, from its
    squared distance to the centre and the squared radius."""
    d = fraction_distance_sq(p, center)
    return (d < radius_sq) - (d > radius_sq)


def reversed_segment(s: Segment) -> Segment:
    return Segment(s.b, s.a)


def fraction_segment_intersection(s: Segment, t: Segment):
    """None, the Point of a single contact, or the Segment of an overlap,
    from the parametric solve of the two carrier lines."""
    r_x, r_y = s.b.x - s.a.x, s.b.y - s.a.y
    q_x, q_y = t.b.x - t.a.x, t.b.y - t.a.y
    denom = r_x * q_y - r_y * q_x
    if denom == 0:
        if _fraction_cross(s.a, s.b, t.a) != 0:
            return None
        pts = sorted([s.a, s.b], key=_fraction_key)
        qts = sorted([t.a, t.b], key=_fraction_key)
        lo = max(pts[0], qts[0], key=_fraction_key)
        hi = min(pts[1], qts[1], key=_fraction_key)
        if _fraction_key(lo) > _fraction_key(hi):
            return None
        if lo == hi:
            return lo
        return Segment(lo, hi)
    w_x, w_y = t.a.x - s.a.x, t.a.y - s.a.y
    t_par = (w_x * q_y - w_y * q_x) / denom
    u_par = (w_x * r_y - w_y * r_x) / denom
    if 0 <= t_par <= 1 and 0 <= u_par <= 1:
        return Point(s.a.x + t_par * r_x, s.a.y + t_par * r_y)
    return None


def fraction_line_slice(poly: Polygon, fa, fb, fc):
    """Extreme points of a convex polygon on the line fa*x + fb*y + fc = 0,
    ordered along the line, or None when the line misses it."""
    verts = poly.vertices
    n = len(verts)
    vals = [fa * v.x + fb * v.y + fc for v in verts]
    hits = []
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        va, vb = vals[i], vals[(i + 1) % n]
        if va == 0:
            hits.append(a)
        if (va > 0 > vb) or (va < 0 < vb):
            t = va / (va - vb)
            hits.append(Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
    if not hits:
        return None
    return (min(hits, key=_fraction_key), max(hits, key=_fraction_key))


def segment_polygon_closed(seg: Segment, poly: Polygon):
    """Closed intersection of a segment with a convex polygon, from the
    segment's ends inside it and its Fraction contacts with every polygon
    edge."""
    candidates: set[Point] = set()
    for end in (seg.a, seg.b):
        if locate_point(end, poly) is not PointLocation.EXTERIOR:
            candidates.add(end)
    for edge in poly.edges():
        hit = fraction_segment_intersection(seg, edge)
        if isinstance(hit, Point):
            candidates.add(hit)
        elif isinstance(hit, Segment):
            candidates.add(hit.a)
            candidates.add(hit.b)
    if not candidates:
        return None
    ordered = sorted(candidates, key=_fraction_key)
    lo, hi = ordered[0], ordered[-1]
    if lo == hi:
        return lo
    return Segment(lo, hi)


def composed_common_vertex(diagram, p: int, q: int, r: int):
    """common_vertex as the closed p/q contact met with cell r (a point
    contact located in it, a segment contact cut by its edges), with the
    cocircular tie counted on Fraction distances."""
    first = closed_cell_intersection(diagram, p, q)
    if first is None:
        return None
    third = diagram.cell(r)
    if isinstance(first, Point):
        result = first if locate_point(first, third) is not PointLocation.EXTERIOR else None
    else:
        result = segment_polygon_closed(first, third)
    if result is None:
        return None
    if not isinstance(result, Point):
        raise DegenerateIntersection(f"cells {p}, {q}, {r} share {result}")
    d = fraction_distance_sq(result, diagram.sites[p])
    if sum(fraction_distance_sq(result, s) == d for s in diagram.sites.points) > 3:
        raise DegenerateIntersection(f"cocircular cells meet at {result}")
    return result


def composed_region_common_intersection(region):
    """Intersection of a region's closed triangles, folded pairwise with
    fraction_closed_intersection, locate_point and segment_polygon_closed."""
    mesh = region.mesh
    members = region.members()
    acc = mesh.triangle_polygon(members[0])
    for t in members[1:]:
        poly = mesh.triangle_polygon(t)
        if acc is None:
            return None
        if isinstance(acc, Point):
            if locate_point(acc, poly) is PointLocation.EXTERIOR:
                return None
        elif isinstance(acc, Segment):
            acc = segment_polygon_closed(acc, poly)
        else:
            acc = fraction_closed_intersection(acc, poly)
    return acc


def fraction_quantize(value: Fraction) -> str:
    """Two-decimal rendering of a Fraction, rounded half to even on the
    reduced quotient."""
    scaled = value * 100
    n = scaled.numerator
    d = scaled.denominator
    q, r = divmod(n, d)
    if 2 * r > d or (2 * r == d and q % 2):
        q += 1
    sign = "-" if q < 0 else ""
    q = abs(q)
    return f"{sign}{q // 100}.{q % 100:02d}"


class FractionMapper:
    """render's world to screen transform evaluated on Fractions, point by
    point (the integer-row mapper must agree with it)."""

    def __init__(self, x0, y0, x1, y1):
        margin = Fraction(STYLE["margin"])
        width = Fraction(STYLE["width"]) - 2 * margin
        height = Fraction(STYLE["height"]) - 2 * margin
        span_x = x1 - x0
        span_y = y1 - y0
        if span_x == 0:
            span_x = Fraction(1)
        if span_y == 0:
            span_y = Fraction(1)
        self.scale = min(width / span_x, height / span_y)
        self.x0 = x0
        self.y1 = y1
        self.margin = margin

    def point(self, p) -> tuple[str, str]:
        sx = self.margin + (p.x - self.x0) * self.scale
        sy = self.margin + (self.y1 - p.y) * self.scale
        return (fraction_quantize(sx), fraction_quantize(sy))


def mesh_triangle_set(mesh) -> set[tuple[int, int, int]]:
    return set(mesh.triangles)


def edges_of_triangles(triangles) -> set[tuple[int, int]]:
    out = set()
    for i, j, k in triangles:
        for u, v in ((i, j), (j, k), (k, i)):
            out.add((u, v) if u < v else (v, u))
    return out


def on_frame_boundary(frame: Rect, p: Point) -> bool:
    """Whether p lies on one of the frame's four sides."""
    on_x = p.x in (frame.x0, frame.x1) and frame.y0 <= p.y <= frame.y1
    on_y = p.y in (frame.y0, frame.y1) and frame.x0 <= p.x <= frame.x1
    return on_x or on_y


def halfplane_cell(sites: SiteSet, i: int, frame: Rect) -> Polygon:
    """Voronoi cell as the frame clipped by every bisector half-plane
    (Sutherland-Hodgman), the defining formula with no mesh involved."""
    p = sites[i]
    ring: list[Point] = list(frame.corners())
    for j in range(len(sites)):
        if j == i:
            continue
        q = sites[j]
        # keep f(x) <= 0 with f(x) = 2(q-p).x - (|q|^2 - |p|^2)
        fa = 2 * (q.x - p.x)
        fb = 2 * (q.y - p.y)
        fc = p.x * p.x + p.y * p.y - q.x * q.x - q.y * q.y
        ring = _clip(ring, fa, fb, fc)
        if not ring:
            break
    return Polygon(tuple(ring))


def distance_matching_edges(
    sites: SiteSet, site: int, polygon: Polygon
) -> tuple[tuple[Segment, Optional[int]], ...]:
    """Each cell edge with its owner, found by distance matching.

    An edge belongs to the site that is exactly as far from each of its
    endpoints as the cell's own site is: the two sites' bisector carries
    it. Only one site can qualify (the mirror image of the cell's site in
    that line), and an edge no site owns is labelled None (frame).
    """
    p = sites[site]
    out = []
    for seg in polygon.edges():
        da = fraction_distance_sq(seg.a, p)
        db = fraction_distance_sq(seg.b, p)
        owner = None
        for q, pt in enumerate(sites.points):
            if (
                q != site
                and fraction_distance_sq(seg.a, pt) == da
                and fraction_distance_sq(seg.b, pt) == db
            ):
                owner = q
                break
        out.append((seg, owner))
    return tuple(out)


def _clip(ring: list[Point], fa, fb, fc) -> list[Point]:
    out: list[Point] = []
    n = len(ring)
    for idx in range(n):
        cur = ring[idx]
        nxt = ring[(idx + 1) % n]
        f_cur = fa * cur.x + fb * cur.y + fc
        f_nxt = fa * nxt.x + fb * nxt.y + fc
        if f_cur <= 0:
            out.append(cur)
        if (f_cur < 0 < f_nxt) or (f_nxt < 0 < f_cur):
            t = f_cur / (f_cur - f_nxt)
            out.append(
                Point(cur.x + t * (nxt.x - cur.x), cur.y + t * (nxt.y - cur.y))
            )
    # drop consecutive duplicates introduced by on-boundary vertices
    dedup: list[Point] = []
    for p in out:
        if not dedup or dedup[-1] != p:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def clip_convex_intersection(p: Polygon, q: Polygon):
    """Half-plane-clipping route to the convex polygon intersection.

    Returns a Polygon with positive area or None; degenerate contact
    counts as empty, where convex_closed_intersection returns a Point or
    Segment.
    """
    ring = list(p.vertices)
    for idx in range(len(q.vertices)):
        a = q.vertices[idx]
        b = q.vertices[(idx + 1) % len(q.vertices)]
        # keep the left side of a->b: -cross(b-a, x-a) <= 0
        fa = b.y - a.y
        fb = -(b.x - a.x)
        fc = -(fa * a.x + fb * a.y)
        ring = _clip(ring, fa, fb, fc)
        if not ring:
            return None
    area2 = Fraction(0)
    for idx in range(len(ring)):
        u = ring[idx]
        v = ring[(idx + 1) % len(ring)]
        area2 += u.x * v.y - v.x * u.y
    if area2 <= 0:
        return None
    return Polygon(tuple(ring))


def site_strictly_between(p: Point, q: Point, w: Point) -> bool:
    """Collinearity plus open-interval projection, via dot products."""
    cross = (q.x - p.x) * (w.y - p.y) - (q.y - p.y) * (w.x - p.x)
    if cross != 0:
        return False
    dot = (w.x - p.x) * (q.x - p.x) + (w.y - p.y) * (q.y - p.y)
    full = (q.x - p.x) ** 2 + (q.y - p.y) ** 2
    return 0 < dot < full


def segments_cross_interiors(a1: Point, a2: Point, b1: Point, b2: Point) -> bool:
    """Parametric solve: do the open segments share a point interior to both?"""
    rx, ry = a2.x - a1.x, a2.y - a1.y
    sx, sy = b2.x - b1.x, b2.y - b1.y
    denom = rx * sy - ry * sx
    wx, wy = b1.x - a1.x, b1.y - a1.y
    if denom == 0:
        if wx * ry - wy * rx != 0:
            return False  # parallel, different lines
        # collinear: positive-length overlap shares interior points
        def param(pt: Point) -> Fraction:
            if rx != 0:
                return (pt.x - a1.x) / rx
            return (pt.y - a1.y) / ry

        lo = min(param(b1), param(b2))
        hi = max(param(b1), param(b2))
        return max(lo, Fraction(0)) < min(hi, Fraction(1))
    t = (wx * sy - wy * sx) / denom
    u = (wx * ry - wy * rx) / denom
    return 0 < t < 1 and 0 < u < 1


def visibility_oracle(
    sites: SiteSet, constraints: ConstraintSet, p: int, q: int
) -> bool:
    a, b = sites[p], sites[q]
    for w in range(len(sites)):
        if w in (p, q):
            continue
        if site_strictly_between(a, b, sites[w]):
            return False
    pair = frozenset((a, b))
    for c in constraints.segments:
        if frozenset((c.a, c.b)) == pair:
            continue
        if segments_cross_interiors(a, b, c.a, c.b):
            return False
    return True


def fraction_visible_from_open_edge(
    sites: SiteSet, constraints: ConstraintSet, p: int, q: int, w: int
) -> bool:
    """Site w seen from some interior point of pq, on Fractions: critical
    parameters from a parametric line solve, one sampled viewpoint inside
    each subinterval, each sight line tested by the parametric oracles."""
    a = sites[p]
    b = sites[q]
    wp = sites[w]
    dx = b.x - a.x
    dy = b.y - a.y

    def line_param(g: Point, h: Point):
        # Parameter t of line(g, h) meeting line(a, b), if unique.
        gx = h.x - g.x
        gy = h.y - g.y
        denom = gx * dy - gy * dx
        if denom == 0:
            return None
        return ((a.y - g.y) * gx - (a.x - g.x) * gy) / -denom

    lines = [(wp, site) for s, site in enumerate(sites.points) if s not in (p, q, w)]
    lines += [(wp, end) for c in constraints.segments for end in (c.a, c.b) if end != wp]
    lines += [(c.a, c.b) for c in constraints.segments]
    crits = {Fraction(0), Fraction(1)}
    for g, h in lines:
        t = line_param(g, h)
        if t is not None and 0 <= t <= 1:
            crits.add(t)
    ordered = sorted(crits)
    others = [sites[s] for s in range(len(sites)) if s not in (p, q, w)]
    for t0, t1 in zip(ordered, ordered[1:]):
        t = (t0 + t1) / 2
        x = Point(a.x + t * dx, a.y + t * dy)
        if x == wp:
            continue
        if any(site_strictly_between(x, wp, site) for site in others):
            continue
        if any(segments_cross_interiors(x, wp, c.a, c.b) for c in constraints.segments):
            continue
        return True
    return False


def fraction_is_constrained_delaunay_edge(
    sites: SiteSet, constraints: ConstraintSet, p: int, q: int
) -> bool:
    """Constrained Delaunay edge test on Fractions: each visible site off
    the line pq bounds the centre of a circle through p and q to a
    half-line of the bisector, and the edge exists when the bounds meet."""
    a = sites[p]
    b = sites[q]
    if any(frozenset((c.a, c.b)) == frozenset((a, b)) for c in constraints.segments):
        return True
    if not visibility_oracle(sites, constraints, p, q):
        return False
    mx = (a.x + b.x) / 2
    my = (a.y + b.y) / 2
    nx = -(b.y - a.y)
    ny = b.x - a.x
    lower = None  # need center parameter >= lower
    upper = None  # need center parameter <= upper
    for w in range(len(sites)):
        if w in (p, q):
            continue
        wp = sites[w]
        rel_x = a.x - wp.x
        rel_y = a.y - wp.y
        alpha = 2 * (nx * rel_x + ny * rel_y)
        if alpha == 0:
            continue  # on the line pq: inside no circle through p and q unless between them
        if not fraction_visible_from_open_edge(sites, constraints, p, q, w):
            continue
        beta = 2 * (mx * rel_x + my * rel_y) + wp.x * wp.x + wp.y * wp.y - a.x * a.x - a.y * a.y
        s_w = -beta / alpha
        if alpha > 0:
            lower = s_w if lower is None else max(lower, s_w)
        else:
            upper = s_w if upper is None else min(upper, s_w)
    return lower is None or upper is None or lower <= upper


def is_visible(
    sites: SiteSet, constraints: ConstraintSet, p: int, q: int
) -> bool:
    """Mutual visibility of two sites.

    Blocked by any third site in the open segment pq, and by any other
    constraint that shares a point interior to both it and pq.
    """
    sites.check_index(p)
    sites.check_index(q)
    if p == q:
        raise IndexOutOfRange("visibility query needs two distinct sites")
    rows = sites.rows
    a, b = rows[p], rows[q]
    ends = [(c.a.row, c.b.row) for c in constraints.segments]
    return _blocked(a, b, rows, [e for e in ends if e != (a, b) and e != (b, a)]) is None


def _visible_from_open_edge(
    a: Homogeneous, b: Homogeneous, w: Homogeneous, rows: Sequence[Homogeneous], ends: list[_Ends]
) -> bool:
    """True when the site row w, off the line ab, can be seen from at least
    one point of the open segment ab.

    The blocked parameter set along ab changes only at finitely many
    critical parameters (alignments of the viewpoint with w and a site or
    constraint endpoint, and crossings of constraint carrier lines), so
    sampling one exact rational point inside each induced subinterval
    decides the existential. The line through g and h meets ab at the
    parameter f(a) / (f(a) - f(b)), f the affine function that _det3(g, h, .)
    takes times the row weight.
    """
    aw = a[2]
    bw = b[2]
    lines = [(w, s) for s in rows if s != w]
    lines += [(w, e) for pair in ends for e in pair if e != w]
    lines += ends
    crits = {Fraction(0), Fraction(1)}
    for g, h in lines:
        fa = _det3(g, h, a) * bw  # f(a) and f(b) times one positive constant
        fb = _det3(g, h, b) * aw
        if fa != fb and (fa <= 0 <= fb or fb <= 0 <= fa):
            crits.add(Fraction(fa, fa - fb))
    ordered = sorted(crits)
    for t0, t1 in zip(ordered, ordered[1:]):
        t = (t0 + t1) / 2  # the viewpoint a + t (b - a)
        x = _line_point(t.numerator * aw, (t.numerator - t.denominator) * bw, a, b)
        if _blocked(x.row, w, rows, ends) is None:
            return True
    return False


def is_constrained_delaunay_edge(
    sites: SiteSet, constraints: ConstraintSet, p: int, q: int
) -> bool:
    """Membership of pq in the constrained Delaunay triangulation.

    Either pq is itself a constraint, or p and q see each other and some
    circle through them has no site strictly inside that is visible from
    the open segment pq (sites on the line pq never are). On each side of
    p->q, the visible site whose circle through p and q holds no other
    visible site of that side bounds every such circle, so one exists
    exactly when the right-side pick is not strictly inside the circle
    through p, q and the left-side pick.
    """
    sites.check_index(p)
    sites.check_index(q)
    if p == q:
        raise IndexOutOfRange("edge query needs two distinct sites")
    rows = sites.rows
    a, b = rows[p], rows[q]
    ends = [(c.a.row, c.b.row) for c in constraints.segments]
    if (a, b) in ends or (b, a) in ends:
        return True
    if _blocked(a, b, rows, ends) is not None:
        return False
    left = right = None
    for w in rows:
        turn = _det3(a, b, w)
        if turn > 0:
            replaces = left is None or _incircle_det(a, b, left, w) > 0
        elif turn < 0:
            replaces = right is None or _incircle_det(b, a, right, w) > 0
        else:
            continue
        # An invisible site never changes a pick, so only a site that would
        # replace its side's pick needs the visibility test.
        if replaces and _visible_from_open_edge(a, b, w, rows, ends):
            if turn > 0:
                left = w
            else:
                right = w
    return left is None or right is None or _incircle_det(a, b, left, right) <= 0


def random_constraints(rng, sites: SiteSet, most: int) -> ConstraintSet:
    """Up to `most` random site-to-site constraints that pass through no
    site, cross or overlap no earlier one and repeat none."""
    chosen: list[Segment] = []
    n = len(sites)
    attempts = 0
    while len(chosen) < most and attempts < 200:
        attempts += 1
        a, b = rng.sample(range(n), 2)
        seg = Segment(sites[a], sites[b])
        if any(
            locate_point(sites[w], seg) is PointLocation.INTERIOR
            for w in range(n)
            if w not in (a, b)
        ):
            continue
        crossing = False
        for other in chosen:
            hit = fraction_segment_intersection(seg, other)
            if isinstance(hit, Segment):
                crossing = True
            elif isinstance(hit, Point):
                if (
                    locate_point(hit, seg) is PointLocation.INTERIOR
                    and locate_point(hit, other) is PointLocation.INTERIOR
                ):
                    crossing = True
        if crossing or any({seg.a, seg.b} == {o.a, o.b} for o in chosen):
            continue
        chosen.append(seg)
    return ConstraintSet(tuple(chosen))


def brute_maximal_cliques(adjacency: dict[int, set[int]]) -> set[frozenset[int]]:
    """Exhaustive clique growth then maximality filter."""
    frontier = {frozenset((v,)) for v in adjacency}
    every = set(frontier)
    while frontier:
        grown = set()
        for clique in frontier:
            for v in adjacency:
                if v not in clique and all(v in adjacency[u] for u in clique):
                    grown.add(clique | {v})
        grown -= every
        every |= grown
        frontier = grown
    return {c for c in every if not any(c < other for other in every)}


def fraction_convex_hull(points) -> list[Point]:
    """Monotone chain over the points sorted by their Fraction keys."""
    pts = sorted(set(points), key=_fraction_key)
    if len(pts) <= 2:
        return pts
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and fraction_orientation(lower[-2], lower[-1], p) is not Orientation.CCW:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and fraction_orientation(upper[-2], upper[-1], p) is not Orientation.CCW:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        return [pts[0], pts[-1]]
    return hull


def reference_polygon(points):
    """Polygon construction as separate passes: (vertices, convex) of the
    polygon the points make, or (exception type, message) when they make
    none.

    Zero turns are dropped one at a time, each time the lowest-indexed one
    of the ring left, and the ring is rotated to its smallest (x, y).
    The shoelace area on Fractions must be positive. A ring with every
    turn left whose edge directions wrap once is simple; any other ring
    must have adjacent edges meeting only at their shared vertex and
    other edges not at all.
    """
    vs = list(points)
    changed = True
    while changed and len(vs) >= 3:
        changed = False
        for i in range(len(vs)):
            if fraction_orientation(vs[i - 1], vs[i], vs[(i + 1) % len(vs)]) is Orientation.COLLINEAR:
                del vs[i]
                changed = True
                break
    n = len(vs)
    if n < 3:
        return CollinearInput, "polygon degenerates to fewer than 3 vertices"
    start = min(range(n), key=lambda i: _fraction_key(vs[i]))
    vs = vs[start:] + vs[:start]
    if sum(a.x * b.y - b.x * a.y for a, b in zip(vs, vs[1:] + vs[:1])) <= 0:
        return ValueError, "polygon boundary must be counterclockwise"
    turns = [fraction_orientation(vs[i - 2], vs[i - 1], vs[i]) for i in range(n)]
    convex = Orientation.CW not in turns
    dirs = [(b.x - a.x, b.y - a.y) for a, b in zip(vs, vs[1:] + vs[:1])]
    lower = [dy < 0 or (dy == 0 and dx < 0) for dx, dy in dirs]
    if all(t is Orientation.CCW for t in turns) and sum(lower[i - 1] and not lower[i] for i in range(n)) == 1:
        return tuple(vs), convex
    edges = [Segment(vs[i], vs[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            hit = fraction_segment_intersection(edges[i], edges[j])
            if j == i + 1:
                ok = hit == vs[j]
            elif i == 0 and j == n - 1:
                ok = hit == vs[0]
            else:
                ok = hit is None
            if not ok:
                return ValueError, "polygon boundary self-intersects"
    return tuple(vs), convex


def candidate_hull_intersection(p: Polygon, q: Polygon):
    """Closed intersection of two convex polygons as the hull of every
    vertex located in the other polygon and every edge-edge contact.

    The edge contacts come from the kernel under test,
    convex_closed_intersection, on two segments: taking them from
    fraction_segment_intersection roughly doubles the time of the mesh
    triangle pair tests. The location and the hull stay independent."""
    if not is_convex_polygon(p) or not is_convex_polygon(q):
        raise NonConvexInput("not convex")
    px0, py0, px1, py1 = p.bounding_box()
    qx0, qy0, qx1, qy1 = q.bounding_box()
    if px1 < qx0 or qx1 < px0 or py1 < qy0 or qy1 < py0:
        return None
    candidates: set[Point] = set()
    for v in p.vertices:
        if locate_point(v, q) is not PointLocation.EXTERIOR:
            candidates.add(v)
    for v in q.vertices:
        if locate_point(v, p) is not PointLocation.EXTERIOR:
            candidates.add(v)
    for e in p.edges():
        for f in q.edges():
            hit = convex_closed_intersection(e, f)
            if isinstance(hit, Point):
                candidates.add(hit)
            elif isinstance(hit, Segment):
                candidates.add(hit.a)
                candidates.add(hit.b)
    if not candidates:
        return None
    hull = fraction_convex_hull(candidates)
    if len(hull) == 1:
        return hull[0]
    if len(hull) == 2:
        return Segment(hull[0], hull[1])
    return Polygon(tuple(hull))


def _fraction_corners_and_sides(g):
    if isinstance(g, Point):
        return [g], []
    if isinstance(g, Segment):
        return [g.a, g.b], [g]
    return list(g.vertices), g.edges()


def _fraction_contains(g, p: Point) -> bool:
    """p lies in the closed set g, on Fraction cross and dot products."""
    if isinstance(g, Point):
        return p == g
    if isinstance(g, Segment):
        dot = (g.a.x - p.x) * (g.b.x - p.x) + (g.a.y - p.y) * (g.b.y - p.y)
        return fraction_orientation(g.a, g.b, p) is Orientation.COLLINEAR and dot <= 0
    return all(fraction_orientation(e.a, e.b, p) is not Orientation.CW for e in g.edges())


def fraction_closed_intersection(g, h):
    """Closed intersection of two closed convex sets (Point, Segment or
    convex Polygon) on Fractions: the hull of each set's corners that lie
    in the other and of every contact of two sides, with the collinear
    overlaps of fraction_segment_intersection in place of the proper
    crossings alone."""
    g_corners, g_sides = _fraction_corners_and_sides(g)
    h_corners, h_sides = _fraction_corners_and_sides(h)
    candidates = {v for v in g_corners if _fraction_contains(h, v)}
    candidates |= {v for v in h_corners if _fraction_contains(g, v)}
    for e in g_sides:
        for f in h_sides:
            hit = fraction_segment_intersection(e, f)
            if isinstance(hit, Point):
                candidates.add(hit)
            elif isinstance(hit, Segment):
                candidates |= {hit.a, hit.b}
    if not candidates:
        return None
    hull = fraction_convex_hull(candidates)
    if len(hull) == 1:
        return hull[0]
    if len(hull) == 2:
        return Segment(hull[0], hull[1])
    return Polygon(tuple(hull))


def scan_site_inside_circumdisk(mesh, t: int):
    """The first site, in index order over every site, strictly inside
    triangle t's circumdisk, or None."""
    i, j, k = mesh.triangles[t]
    rows = mesh.sites.rows
    for d in range(len(rows)):
        if d in (i, j, k):
            continue
        if _incircle_det(rows[i], rows[j], rows[k], rows[d]) > 0:
            return d
    return None


def _nearest_tied(diagram, u: Point) -> bool:
    """Four or more sites jointly nearest to u, on sorted Fraction distances."""
    dists = sorted(fraction_distance_sq(u, s) for s in diagram.sites.points)
    return len(dists) >= 4 and dists[0] == dists[3]


def all_pairs_check_dual(diagram) -> list[CheckResult]:
    """dual/edge-definition over every site pair."""
    mesh = diagram.mesh
    bad = None
    degenerate = None
    for p, q in combinations(range(len(diagram.sites)), 2):
        in_mesh = mesh.has_edge(p, q)
        contact = checks.closed_cell_intersection(diagram, p, q)
        strong = isinstance(contact, Segment)
        if in_mesh == strong:
            continue
        if isinstance(contact, Point) and _nearest_tied(diagram, contact):
            degenerate = f"pair-{p}-{q}:cocircular-contact"
            continue
        bad = f"pair-{p}-{q}:mesh={in_mesh},voronoi={strong}"
        break
    if bad:
        return [CheckResult("dual/edge-definition", "fail", bad)]
    if degenerate:
        return [CheckResult("dual/edge-definition", "degenerate-skip", degenerate)]
    return [CheckResult("dual/edge-definition", "pass")]


def all_pairs_check_leader(mesh) -> list[CheckResult]:
    """leader/symmetry and leader/geometric-agreement over every triangle pair."""
    hoods = checks.leader_neighborhoods(mesh)
    sym_ok = all(
        (a in hoods[b]) == (b in hoods[a]) for a, b in combinations(range(len(mesh)), 2)
    )
    results = [CheckResult("leader/symmetry", "pass" if sym_ok else "fail")]
    bad = None
    polys = [mesh.triangle_polygon(t) for t in range(len(mesh))]
    for a, b in combinations(range(len(mesh)), 2):
        combinatorial = b in hoods[a]
        geometric = checks.near(polys[a], polys[b]).is_near
        index_near = checks.triangles_near(mesh, a, b)
        if not (combinatorial == geometric == index_near):
            bad = f"pair-{a}-{b}:family={combinatorial},geometric={geometric},indices={index_near}"
            break
    results.append(
        CheckResult("leader/geometric-agreement", "fail" if bad else "pass", bad or "-")
    )
    return results


def fraction_triangle_area(mesh, t: int) -> Fraction:
    """Area of a counterclockwise mesh triangle on Fractions."""
    a, b, c = mesh.triangle_points(t)
    return ((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)) / 2


def all_pairs_proximal_region_pairs(regions) -> list[tuple[int, int]]:
    """Indices of region pairs sharing a mesh vertex, testing every pair."""
    if not regions:
        return []
    mesh = regions[0].mesh
    if any(r.mesh is not mesh and r.mesh != mesh for r in regions):
        raise MixedMeshes("regions come from different meshes")
    vertex_sets = []
    for r in regions:
        verts: set[int] = set()
        for t in r.members():
            verts.update(mesh.triangles[t])
        vertex_sets.append(verts)
    pairs = []
    for i in range(len(regions)):
        for j in range(i + 1, len(regions)):
            if vertex_sets[i] & vertex_sets[j]:
                pairs.append((i, j))
    return pairs


# ---------------------------------------------------------------------------
# reference_mesh: the lexicographic sweep, Lawson flips and constraint
# insertion on a builder that numbers its triangles.


class _ReferenceBuilder:
    def __init__(self, sites: SiteSet):
        self.rows = [p.row for p in sites.points]
        self.tris: dict[int, tuple[int, int, int]] = {}
        self.edge: dict[tuple[int, int], int] = {}  # directed edge -> tid
        self.constrained: set[tuple[int, int]] = set()
        self._next = 0

    def add(self, i: int, j: int, k: int) -> int:
        tid = self._next
        self._next += 1
        self.tris[tid] = (i, j, k)
        for u, v in ((i, j), (j, k), (k, i)):
            if (u, v) in self.edge:
                raise GeometryError(f"directed edge {u}->{v} claimed twice")
            self.edge[(u, v)] = tid
        return tid

    def remove(self, tid: int) -> None:
        i, j, k = self.tris.pop(tid)
        for u, v in ((i, j), (j, k), (k, i)):
            del self.edge[(u, v)]

    def apex(self, u: int, v: int) -> Optional[int]:
        """Third vertex of the triangle containing directed edge (u, v)."""
        tid = self.edge.get((u, v))
        if tid is None:
            return None
        tri = self.tris[tid]
        for r in range(3):
            if tri[r] == u:
                return tri[(r + 2) % 3]
        return None

    def legalize(self, seed_edges) -> None:
        queue = deque(seed_edges)
        while queue:
            u, v = queue.popleft()
            t1 = self.edge.get((u, v))
            t2 = self.edge.get((v, u))
            if t1 is None or t2 is None:
                continue
            if _edge_key(u, v) in self.constrained:
                continue
            c = self.apex(u, v)
            d = self.apex(v, u)
            if _incircle_perturbed(self.rows, u, v, c, d) > 0:
                self.remove(t1)
                self.remove(t2)
                self.add(u, d, c)
                self.add(d, v, c)
                queue.extend(((u, d), (d, v), (v, c), (c, u)))


def _reference_sweep(sites: SiteSet) -> _ReferenceBuilder:
    n = len(sites)
    if n < 3:
        raise TooFewSites(f"need at least 3 sites, got {n}")
    builder = _ReferenceBuilder(sites)
    rows = builder.rows
    order = sorted(range(n), key=lambda i: _row_order(rows[i]))
    chain = [order[0], order[1]]
    k = 2
    while k < n and _det3(rows[chain[0]], rows[chain[1]], rows[order[k]]) == 0:
        chain.append(order[k])
        k += 1
    if k == n:
        raise AllCollinear("all sites lie on one line")
    apex = order[k]
    if _det3(rows[chain[0]], rows[chain[-1]], rows[apex]) > 0:
        for a, b in zip(chain, chain[1:]):
            builder.add(a, b, apex)
        hull = chain + [apex]
    else:
        for a, b in zip(chain, chain[1:]):
            builder.add(b, a, apex)
        hull = list(reversed(chain)) + [apex]
    for p in order[k + 1 :]:
        _reference_hull_insert(builder, hull, p)
    return builder


def _reference_hull_insert(builder: _ReferenceBuilder, hull: list[int], p: int) -> None:
    rows = builder.rows
    m = len(hull)

    def visible(i: int) -> bool:
        return _det3(rows[hull[i % m]], rows[hull[(i + 1) % m]], rows[p]) < 0

    if visible(m - 1):
        first = m - 1
    elif visible(m - 2):
        first = m - 2
    else:
        raise GeometryError(f"no hull edge visible from site {p}")
    last = first
    while last - first < m - 1 and visible(last + 1):
        last += 1
    while last - first < m - 1 and visible(first - 1):
        first -= 1
    if last - first == m - 1:
        raise GeometryError(f"every hull edge is visible from site {p}")
    start = first % m
    count = last - first + 1
    seeds = []
    for t in range(count):
        u, v = hull[(start + t) % m], hull[(start + t + 1) % m]
        builder.add(v, u, p)
        seeds.append((u, v))
    i = (start + count) % m
    new_hull = []
    while True:
        new_hull.append(hull[i])
        if i == start:
            break
        i = (i + 1) % m
    hull[:] = new_hull + [p]
    builder.legalize(seeds)


def _reference_insert_constraint(builder: _ReferenceBuilder, a: int, b: int) -> None:
    rows = builder.rows
    key = _edge_key(a, b)
    if (a, b) in builder.edge or (b, a) in builder.edge:
        builder.constrained.add(key)
        return
    entry = None
    for (u, x), tid in builder.edge.items():
        if u != a:
            continue
        y = builder.apex(a, x)
        if _det3(rows[a], rows[x], rows[b]) > 0 and _det3(rows[a], rows[y], rows[b]) < 0:
            entry = (tid, x, y)
            break
    if entry is None:
        raise GeometryError(f"could not route constraint {a}-{b} through the mesh")
    tid, right, left = entry
    dead = {tid}
    upper = [left]
    lower = [right]
    while True:
        if _edge_key(right, left) in builder.constrained:
            raise CrossingConstraints(
                f"constraint {a}-{b} crosses constrained edge {right}-{left}"
            )
        far = builder.edge.get((left, right))
        if far is None:
            raise GeometryError(f"constraint walk {a}-{b} fell off the mesh")
        dead.add(far)
        z = builder.apex(left, right)
        if z == b:
            break
        oz = _det3(rows[a], rows[b], rows[z])
        if oz == 0:
            raise ConstraintThroughSite(f"constraint {a}-{b} passes through site #{z}")
        if oz > 0:
            upper.append(z)
            left = z
        else:
            lower.append(z)
            right = z
    for t in dead:
        builder.remove(t)
    new_edges: list[tuple[int, int]] = []
    _reference_cavity(builder, a, b, upper, new_edges)
    _reference_cavity(builder, b, a, list(reversed(lower)), new_edges)
    builder.constrained.add(key)
    builder.legalize(new_edges)


def _reference_cavity(builder: _ReferenceBuilder, a: int, b: int, chain: list[int], new_edges):
    if not chain:
        return
    c = 0
    for j in range(1, len(chain)):
        if _incircle_perturbed(builder.rows, a, b, chain[c], chain[j]) > 0:
            c = j
    builder.add(a, b, chain[c])
    new_edges.extend(((a, chain[c]), (chain[c], b)))
    _reference_cavity(builder, a, chain[c], chain[:c], new_edges)
    _reference_cavity(builder, chain[c], b, chain[c + 1 :], new_edges)


def reference_mesh(sites: SiteSet, constraints: Optional[ConstraintSet] = None) -> TriMesh:
    """triangulate (no constraints) or constrained_triangulate on the
    numbered-triangle builder; raises what they raise."""
    pairs = []
    if constraints is not None:
        pairs = _resolve_constraints(sites, constraints)
        _validate_constraints(sites, constraints, pairs)
    builder = _reference_sweep(sites)
    for a, b in pairs:
        _reference_insert_constraint(builder, a, b)
    tris = []
    for tri in builder.tris.values():
        r = tri.index(min(tri))
        tris.append((tri[r], tri[(r + 1) % 3], tri[(r + 2) % 3]))
    tris.sort()
    mesh = TriMesh(sites, tuple(tris), frozenset(builder.constrained))
    for a, b in pairs:
        if not mesh.has_edge(a, b):
            raise GeometryError(f"constraint {a}-{b} missing from mesh")
    return mesh


def reference_fan(mesh: TriMesh, site: int) -> tuple[list[int], list[int]]:
    """Fan of triangles around a site in CCW order, with its spokes.

    Triangle ring[i] is (site, spokes[i], spokes[i + 1]) up to rotation,
    indices taken cyclically. A closed fan has one spoke per triangle; an
    open (hull) fan has one more, and its first and last spokes are the
    site's hull neighbors.
    """
    mesh.sites.check_index(site)
    tids = tuple(t for t, tri in enumerate(mesh.triangles) if site in tri)
    if not tids:
        raise GeometryError(f"site {site} has no incident triangle")

    def rotation(tid: int) -> tuple[int, int]:
        i, j, k = mesh.triangles[tid]
        if i == site:
            return (j, k)
        if j == site:
            return (k, i)
        return (i, j)

    # Open fans start where the incoming directed edge has no mate.
    start = None
    for tid in sorted(tids):
        a, _ = rotation(tid)
        if mesh.directed_triangle(a, site) is None:
            start = tid
            break
    if start is None:
        start = min(tids)
    ring = [start]
    spokes = [rotation(start)[0]]
    while True:
        _, b = rotation(ring[-1])
        nxt = mesh.directed_triangle(site, b)
        if nxt == start:
            return ring, spokes
        spokes.append(b)
        if nxt is None:
            return ring, spokes
        ring.append(nxt)
