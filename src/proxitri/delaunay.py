"""Delaunay and constrained Delaunay triangulation over exact coordinates.

Construction is a sweep over `SiteSet.order`, the site indices in
lexicographic order, followed by Lawson edge flips. The hull of the
partial mesh is kept as two monotone chains, lower and upper, both ending
at the site swept last; each new site is joined to the hull edges it
strictly sees, which it pops off the chain ends. While it is
built, the mesh is one map from each directed edge (u, v) of each
counterclockwise triangle (u, v, w) to its apex w: the one question a
flip or a constraint walk asks. Flip decisions use an in-circle predicate
that never reports a tie: exactly cocircular quadruples are resolved by a
symbolic perturbation that favors the lower site index, so the produced
mesh is canonical and identical runs are bit-for-bit reproducible.

The predicates are geometry's determinants on the one number form of a
point, its canonical integer row: site i is `sites.rows[i]` =
`sites[i].row` = (X_i, Y_i, W_i), W_i the lcm of the site's own two
reduced denominators, so operand sizes stay those of the individual
sites instead of growing with the lcm of every denominator in the set. `SiteSet.disk` answers which sites lie inside or
on a circle from the run of `SiteSet.order` whose x is near its centre.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Iterable, Optional, Sequence

from .errors import (
    AllCollinear,
    ConstraintThroughSite,
    CrossingConstraints,
    DuplicateSite,
    GeometryError,
    IndexOutOfRange,
    NotCCW,
    TooFewSites,
    UnknownEdge,
)
from .geometry import (
    Homogeneous,
    Point,
    Polygon,
    Segment,
    _Frozen,
    _circumcenter,
    _det3,
    _incircle_det,
    _lex_less,
    _on_segment,
    _row_order,
    _sign,
    convex_closed_intersection,
)

class SiteSet(_Frozen):
    """Ordered, duplicate-free collection of sites.

    Insertion order is retained: it is the tie-break authority for
    cocircular configurations and therefore part of the value.
    """

    # Entry i of rows is site i's stored row points[i].row, gathered once
    # for every layer to read; rows are canonical, so _index (row -> index)
    # finds duplicates. order holds the site indices in lexicographic (x, y)
    # order, so also in x order.
    __slots__ = ("points", "rows", "order", "_index")
    _fields = ("points",)

    def __init__(self, points: Iterable[Point]):
        pts = tuple(points)
        object.__setattr__(self, "points", pts)
        seen: dict[Homogeneous, int] = {}
        for i, p in enumerate(pts):
            if not isinstance(p, Point):
                raise TypeError(f"site #{i} is not a Point")
            first = seen.setdefault(p.row, i)
            if first != i:
                raise DuplicateSite(f"site {p} appears at #{first} and #{i}")
        rows = tuple(seen)  # keys in site order
        object.__setattr__(self, "rows", rows)
        order = sorted(range(len(rows)), key=lambda i: _row_order(rows[i]))
        object.__setattr__(self, "order", tuple(order))
        object.__setattr__(self, "_index", seen)

    @property
    def scaled(self) -> tuple[tuple[int, int], ...]:
        """Each site's integer numerators (X_i, Y_i) over its W_i."""
        return tuple(r[:2] for r in self.rows)

    @classmethod
    def of(cls, coords: Iterable[tuple]) -> "SiteSet":
        return cls(tuple(Point(x, y) for x, y in coords))

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    def index_of(self, p: Point) -> Optional[int]:
        return self._index.get(p.row)

    def check_index(self, i: int) -> int:
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < len(self.points):
            raise IndexOutOfRange(f"site index {i!r} out of range 0..{len(self.points) - 1}")
        return i

    def disk(self, u: Point, p: int) -> tuple[Optional[int], int]:
        """Where the sites lie against the circle centred at u through site p:
        the smallest index of a site strictly inside (None when there is
        none), and the number of sites on the circle.

        Site i is at squared distance N_i / (W_u^2 W_i^2) from u, with the
        integer N_i = |W_u (X_i, Y_i) - W_i (X_u, Y_u)|^2, so it is inside,
        on or outside as N_i W_p^2 is <, = or > N_p W_i^2. A site inside or
        on has (x - u_x)^2 <= r^2; in x order those sites form one run, as
        the test is monotone on each side of u_x, and a bisection on each
        side finds an end of it. Only the run is tested.
        """
        ux, uy, uw = u.row
        rows, order = self.rows, self.order

        def dist(i: int) -> tuple[int, int]:
            x, y, w = rows[i]
            dx = x * uw - ux * w
            dy = y * uw - uy * w
            return dx * dx + dy * dy, w * w

        n_p, w_p2 = dist(p)

        def in_run(i: int) -> bool:
            x, _, w = rows[i]
            dx = x * uw - ux * w
            return dx * dx * w_p2 <= n_p * w * w

        # Bisections on a boolean key: the first position where it is True.
        mid = bisect_left(order, True, key=lambda i: rows[i][0] * uw >= ux * rows[i][2])
        lo = bisect_left(order, True, 0, mid, key=in_run)
        hi = bisect_left(order, True, mid, key=lambda i: not in_run(i))
        inside, on = None, 0
        for i in order[lo:hi]:
            n_i, w_i2 = dist(i)
            lhs, rhs = n_i * w_p2, n_p * w_i2
            if lhs < rhs:
                inside = i if inside is None else min(inside, i)
            elif lhs == rhs:
                on += 1
        return inside, on


class ConstraintSet(_Frozen):
    """Segments that a constrained triangulation must contain as edges."""

    __slots__ = _fields = ("segments",)

    def __init__(self, segments: Iterable[Segment]):
        object.__setattr__(self, "segments", tuple(segments))

    @classmethod
    def of(cls, coords: Iterable[tuple]) -> "ConstraintSet":
        return cls(
            tuple(Segment(Point(x1, y1), Point(x2, y2)) for x1, y1, x2, y2 in coords)
        )

    def __len__(self) -> int:
        return len(self.segments)


# ---------------------------------------------------------------------------
# Symbolically perturbed in-circle test over the site rows.


def _incircle_perturbed(rows: Sequence[Homogeneous], i: int, j: int, k: int, l: int) -> int:
    """In-circle test that never answers "on".

    Cocircular quadruples are decided as if every site's paraboloid lift
    were lowered by an infinitesimal that shrinks with the site index, so
    the lowest-indexed site wins the tie deterministically. The expansion
    of the perturbed determinant reduces each tie to an orientation sign
    of the three remaining rows.
    """
    s = _sign(_incircle_det(rows[i], rows[j], rows[k], rows[l]))
    if s:
        return s
    quad = (i, j, k, l)
    for site in sorted(quad):
        r = quad.index(site)
        others = [rows[quad[x]] for x in range(4) if x != r]
        m = _sign(_det3(*others))
        if m:
            return m if r % 2 == 1 else -m
    raise GeometryError("perturbed in-circle test on degenerate quadruple")


# ---------------------------------------------------------------------------
# Mutable builder used during construction, frozen into TriMesh at the end.


class _MeshBuilder:
    """apex[(u, v)] = w for each directed edge of each CCW triangle (u, v, w)."""

    def __init__(self, sites: SiteSet):
        self.rows = sites.rows
        self.apex: dict[tuple[int, int], int] = {}
        self.constrained: set[tuple[int, int]] = set()

    def add(self, i: int, j: int, k: int) -> None:
        apex = self.apex
        for u, v, w in ((i, j, k), (j, k, i), (k, i, j)):
            if (u, v) in apex:
                raise GeometryError(f"directed edge {u}->{v} claimed twice")
            apex[(u, v)] = w

    def remove(self, i: int, j: int, k: int) -> None:
        apex = self.apex
        del apex[(i, j)], apex[(j, k)], apex[(k, i)]

    def legalize(self, seed_edges: Iterable[tuple[int, int]]) -> None:
        apex = self.apex
        queue = deque(seed_edges)
        while queue:
            u, v = queue.popleft()
            c = apex.get((u, v))
            d = apex.get((v, u))
            if c is None or d is None:
                continue  # hull edge or edge gone stale
            if _edge_key(u, v) in self.constrained:
                continue
            if _incircle_perturbed(self.rows, u, v, c, d) > 0:
                self.remove(u, v, c)
                self.remove(v, u, d)
                self.add(u, d, c)
                self.add(d, v, c)
                queue.extend(((u, d), (d, v), (v, c), (c, u)))


def _edge_key(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def _build_delaunay(sites: SiteSet) -> _MeshBuilder:
    """Lexicographic sweep with Lawson flips after each site.

    The hull is two monotone chains, both running left to right and
    ending at the site swept last, with the mesh left of `lower` and right
    of `upper`. A new site pops the chain-end edges it strictly sees and
    is joined to each. A site on the line of a chain edge stays on the
    chain, so collinear hull sites stay hull vertices, and a collinear
    prefix stays on both chains until a site off its line pops one whole.
    """
    n = len(sites)
    if n < 3:
        raise TooFewSites(f"need at least 3 sites, got {n}")
    builder = _MeshBuilder(sites)
    rows = builder.rows
    lower: list[int] = []
    upper: list[int] = []
    for p in sites.order:
        seeds = []
        while len(lower) > 1 and _det3(rows[lower[-2]], rows[lower[-1]], rows[p]) < 0:
            v = lower.pop()
            builder.add(v, lower[-1], p)
            seeds.append((lower[-1], v))
        while len(upper) > 1 and _det3(rows[upper[-2]], rows[upper[-1]], rows[p]) > 0:
            u = upper.pop()
            builder.add(upper[-1], u, p)
            seeds.append((u, upper[-1]))
        lower.append(p)
        upper.append(p)
        builder.legalize(seeds)
    if not builder.apex:
        raise AllCollinear("all sites lie on one line")
    return builder


# ---------------------------------------------------------------------------
# Frozen mesh.


class TriMesh(_Frozen):
    """Immutable indexed triangle mesh.

    Triangles are CCW index triples, each rotated so its smallest vertex
    comes first and listed in sorted order, so equal meshes serialize to
    equal bytes. Every edge, fan and hull question reads one derived map,
    directed edge (u, v) -> id of the triangle that holds it, plus one
    start spoke per site; neither takes part in equality.
    """

    __slots__ = ("sites", "triangles", "constrained", "_tri_of", "_spoke")
    _fields = ("sites", "triangles", "constrained")

    def __init__(self, sites: SiteSet, triangles: tuple, constrained: frozenset):
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "triangles", triangles)
        object.__setattr__(self, "constrained", constrained)
        tri_of: dict[tuple[int, int], int] = {}
        for tid, (i, j, k) in enumerate(triangles):
            tri_of[(i, j)] = tri_of[(j, k)] = tri_of[(k, i)] = tid
        # A site's fan starts at its outgoing hull edge, whose reverse has
        # no triangle; an interior site's fan may start at any spoke.
        spoke = {u: v for u, v in tri_of}
        spoke.update((u, v) for u, v in tri_of if (v, u) not in tri_of)
        object.__setattr__(self, "_tri_of", tri_of)
        object.__setattr__(self, "_spoke", spoke)

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.triangles)

    def check_triangle(self, t: int) -> tuple[int, int, int]:
        if not isinstance(t, int) or isinstance(t, bool) or not 0 <= t < len(self.triangles):
            raise IndexOutOfRange(f"triangle id {t!r} out of range 0..{len(self.triangles) - 1}")
        return self.triangles[t]

    def triangle_points(self, t: int) -> tuple[Point, Point, Point]:
        i, j, k = self.check_triangle(t)
        pts = self.sites.points
        return (pts[i], pts[j], pts[k])

    def triangle_polygon(self, t: int) -> Polygon:
        return Polygon(self.triangle_points(t))

    def circumcenter(self, t: int) -> Point:
        rows = self.sites.rows
        i, j, k = self.check_triangle(t)
        return _circumcenter(rows[i], rows[j], rows[k])

    def edges(self) -> list[tuple[int, int]]:
        tri_of = self._tri_of
        return sorted(
            (u, v) if u < v else (v, u) for u, v in tri_of if u < v or (v, u) not in tri_of
        )

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self._tri_of or (j, i) in self._tri_of

    def edge_triangles(self, i: int, j: int) -> tuple[int, ...]:
        s, t = self._tri_of.get((i, j)), self._tri_of.get((j, i))
        if s is None or t is None:
            if s is None and t is None:
                raise UnknownEdge(f"no mesh edge between sites {i} and {j}")
            return (t,) if s is None else (s,)
        return (s, t) if s < t else (t, s)

    def is_constrained(self, i: int, j: int) -> bool:
        return _edge_key(i, j) in self.constrained

    def directed_triangle(self, u: int, v: int) -> Optional[int]:
        return self._tri_of.get((u, v))

    def opposite_vertex(self, u: int, v: int) -> Optional[int]:
        """Apex of the triangle containing directed edge (u, v), if any."""
        tid = self._tri_of.get((u, v))
        if tid is None:
            return None
        i, j, k = self.triangles[tid]
        return i + j + k - u - v

    def fan(self, site: int) -> tuple[list[int], list[int]]:
        """Fan of triangles around a site in CCW order, with its spokes.

        Triangle ring[i] is (site, spokes[i], spokes[i + 1]) up to rotation,
        indices taken cyclically. A closed fan has one spoke per triangle; an
        open (hull) fan has one more, and its first and last spokes are the
        site's hull neighbors. A site in no triangle has the fan ([], []).
        The walk takes at most one step per triangle: on a hand-built mesh
        whose triangles at the site cycle without returning to the start,
        it raises GeometryError.
        """
        a = self._spoke.get(self.sites.check_index(site))
        if a is None:
            return [], []
        tri_of = self._tri_of
        start = tri_of[(site, a)]
        ring = [start]
        spokes = [a]
        for _ in self.triangles:
            i, j, k = self.triangles[ring[-1]]
            b = i + j + k - site - spokes[-1]
            nxt = tri_of.get((site, b))
            if nxt == start:
                return ring, spokes
            spokes.append(b)
            if nxt is None:
                return ring, spokes
            ring.append(nxt)
        raise GeometryError(f"the triangles at site {site} form no fan")

    def hull(self) -> list[int]:
        """Hull site indices in CCW order (collinear hull sites retained)."""
        outgoing = {u: v for u, v in self._spoke.items() if (v, u) not in self._tri_of}
        if not outgoing:
            return []
        start = min(outgoing)
        cycle = [start]
        cur = outgoing[start]
        while cur != start:
            cycle.append(cur)
            cur = outgoing[cur]
        return cycle


def adjacency(mesh: TriMesh, t: int) -> set[int]:
    """Triangle ids sharing a full edge with t."""
    i, j, k = mesh.check_triangle(t)
    across = (mesh.directed_triangle(v, u) for u, v in ((i, j), (j, k), (k, i)))
    return {s for s in across if s is not None}


def _freeze(sites: SiteSet, builder: _MeshBuilder) -> TriMesh:
    # Each triangle once, from the directed edge that leaves its smallest
    # vertex: that is already the rotation TriMesh lists.
    tris = sorted((u, v, w) for (u, v), w in builder.apex.items() if u < v and u < w)
    return TriMesh(sites, tuple(tris), frozenset(builder.constrained))


def triangulate(sites: SiteSet) -> TriMesh:
    """Delaunay triangulation of the site set.

    Every triangle's open circumdisk contains no site; exactly cocircular
    groups are resolved deterministically in favor of lower site indices.
    """
    return _freeze(sites, _build_delaunay(sites))


# ---------------------------------------------------------------------------
# Constrained triangulation.

_Ends = tuple[Homogeneous, Homogeneous]


def _open_segments_meet(a: Homogeneous, b: Homogeneous, c: Homogeneous, d: Homogeneous) -> bool:
    """The open segments ab and cd share a point: they cross properly, or
    they lie on one line and overlap along a positive length."""
    d1 = _det3(a, b, c)
    d2 = _det3(a, b, d)
    if d1 == 0 and d2 == 0:
        if _lex_less(b, a):
            a, b = b, a
        if _lex_less(d, c):
            c, d = d, c
        return _lex_less(a, d) and _lex_less(c, b)
    if not (d1 > 0 > d2 or d1 < 0 < d2):
        return False
    d3 = _det3(c, d, a)
    d4 = _det3(c, d, b)
    return d3 > 0 > d4 or d3 < 0 < d4


def _blocked(
    a: Homogeneous, b: Homogeneous, rows: Sequence[Homogeneous], ends: Sequence[_Ends]
) -> Optional[int]:
    """Position of the first blocker of the open segment ab, counting rows
    and then ends, or None: a row inside the open segment (rows are
    canonical, so equal rows are equal points), or an end pair whose open
    segment shares a point with it."""
    for k, s in enumerate(rows):
        if s != a and s != b and _on_segment(s, a, b):
            return k
    for k, (c, d) in enumerate(ends, len(rows)):
        if _open_segments_meet(a, b, c, d):
            return k
    return None


def _resolve_constraints(
    sites: SiteSet, constraints: ConstraintSet
) -> list[tuple[int, int]]:
    pairs = []
    for seg in constraints.segments:
        a = sites.index_of(seg.a)
        b = sites.index_of(seg.b)
        if a is None or b is None:
            raise IndexOutOfRange(f"constraint endpoint {seg.a if a is None else seg.b} is not a site")
        pairs.append((a, b))
    return pairs


def _validate_constraints(
    sites: SiteSet, constraints: ConstraintSet, pairs: Sequence[tuple[int, int]]
) -> None:
    segs = constraints.segments
    rows = sites.rows
    ends = [(rows[a], rows[b]) for a, b in pairs]
    for seg, (a, b) in zip(segs, ends):
        s = _blocked(a, b, rows, ())
        if s is not None:
            raise ConstraintThroughSite(f"constraint {seg} passes through site #{s} {sites[s]}")
    for i, (a, b) in enumerate(ends):
        j = _blocked(a, b, (), ends[i + 1 :])
        if j is not None:
            other = segs[i + 1 + j]
            hit = convex_closed_intersection(segs[i], other)
            how = "overlap along" if isinstance(hit, Segment) else "cross at"
            raise CrossingConstraints(f"constraints {segs[i]} and {other} {how} {hit}")


def _insert_constraint(builder: _MeshBuilder, a: int, b: int) -> None:
    rows = builder.rows
    apex = builder.apex
    key = _edge_key(a, b)
    if (a, b) in apex or (b, a) in apex:
        builder.constrained.add(key)
        return

    # Find the triangle at a whose wedge contains the direction of b.
    entry = None
    for (u, x), y in apex.items():
        if u == a and _det3(rows[a], rows[x], rows[b]) > 0 > _det3(rows[a], rows[y], rows[b]):
            entry = (x, y)
            break
    if entry is None:
        raise GeometryError(f"could not route constraint {a}-{b} through the mesh")

    right, left = entry  # right of a->b, left of a->b
    dead = [(a, right, left)]
    upper = [left]
    lower = [right]
    while True:
        if _edge_key(right, left) in builder.constrained:
            raise CrossingConstraints(
                f"constraint {a}-{b} crosses constrained edge {right}-{left}"
            )
        z = apex.get((left, right))
        if z is None:
            raise GeometryError(f"constraint walk {a}-{b} fell off the mesh")
        dead.append((left, right, z))
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

    for tri in dead:
        builder.remove(*tri)
    new_edges: list[tuple[int, int]] = []
    _retriangulate_cavity(builder, a, b, upper, new_edges)
    _retriangulate_cavity(builder, b, a, list(reversed(lower)), new_edges)
    builder.constrained.add(key)
    builder.legalize(new_edges)


def _retriangulate_cavity(
    builder: _MeshBuilder,
    a: int,
    b: int,
    chain: list[int],
    new_edges: list[tuple[int, int]],
) -> None:
    """Fill one side of a constraint cavity; chain vertices lie strictly
    left of a->b and run along the old cavity boundary from a to b."""
    if not chain:
        return
    c = 0
    for j in range(1, len(chain)):
        if _incircle_perturbed(builder.rows, a, b, chain[c], chain[j]) > 0:
            c = j
    builder.add(a, b, chain[c])
    new_edges.extend(((a, chain[c]), (chain[c], b)))
    _retriangulate_cavity(builder, a, chain[c], chain[:c], new_edges)
    _retriangulate_cavity(builder, chain[c], b, chain[c + 1 :], new_edges)


def constrained_triangulate(sites: SiteSet, constraints: ConstraintSet) -> TriMesh:
    """Triangulation of the sites containing every constraint as an edge.

    All non-constrained edges come out locally Delaunay, which pins the
    result down to the constrained Delaunay triangulation (up to the same
    cocircular tie-break as triangulate).
    """
    pairs = _resolve_constraints(sites, constraints)
    _validate_constraints(sites, constraints, pairs)
    builder = _build_delaunay(sites)
    for a, b in pairs:
        _insert_constraint(builder, a, b)
    mesh = _freeze(sites, builder)
    for a, b in pairs:
        if not mesh.has_edge(a, b):  # pragma: no cover - construction guarantees it
            raise GeometryError(f"constraint {a}-{b} missing from mesh")
    return mesh


# ---------------------------------------------------------------------------
# Edge status.


def is_locally_delaunay(mesh: TriMesh, edge: tuple[int, int]) -> bool:
    """Empty-circle status of one edge.

    Hull and constrained edges qualify by definition; an interior edge
    qualifies when the apex across it is not strictly inside the other
    triangle's circumcircle. Exactly cocircular apexes qualify.
    """
    i, j = edge
    tids = mesh.edge_triangles(i, j)  # raises UnknownEdge
    if len(tids) == 1 or mesh.is_constrained(i, j):
        return True
    c = mesh.opposite_vertex(i, j)
    d = mesh.opposite_vertex(j, i)
    rows = mesh.sites.rows
    hi, hj, hc, hd = rows[i], rows[j], rows[c], rows[d]
    # The in-circle sign is meaningless unless (i, j, c) turns left, which a
    # hand-built mesh does not guarantee.
    if _det3(hi, hj, hc) <= 0:
        raise NotCCW(f"triangle {i}, {j}, {c} is not counterclockwise")
    return _incircle_det(hi, hj, hc, hd) <= 0
