"""Exact planar primitives.

Coordinates are arbitrary-precision rationals (`fractions.Fraction`).
Floats are rejected at the boundary so binary rounding error can never
leak into a construction.

Every sign test is decided on integers, with no tolerance anywhere. A
point is stored as one integer form, its canonical homogeneous row
`Point.row` = (X, Y, W): x = X / W and y = Y / W with W > 0 and
gcd(X, Y, W) = 1, so W is the lcm of the reduced denominators. Each
predicate is a determinant whose rows are scaled by positive weights,
which leaves its sign unchanged; the Delaunay construction uses the same
orientation and in-circle determinants on the same rows. A circle is
never built: `_incircle_det` places a fourth row against the circle
through three rows, and `_circumcenter` gives its centre. A line is an
integer triple (a, b, c) whose value at (X, Y, W) is aX + bY + cW, W
times the affine value, so it has the same sign. A constructed point
(segment crossing, circumcenter, line slice) is an integer row divided
by its gcd. Fractions are built only to print a coordinate or hand one
to a caller. One kernel, convex_closed_intersection, meets any two
closed convex sets (Point, Segment, convex Polygon): the hull of each
set's corners in the other and the proper crossings of their sides.

The value classes, here and in the modules that import this one, are slotted
classes on one `_Frozen` base with written-out methods, so building them
at import generates no code and loads no `inspect`.
"""

from __future__ import annotations

import re
import sys
from enum import Enum
from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

from .errors import CollinearInput, InputError, NonConvexInput

CoordinateInput = Union[Fraction, int, str]
_LITERAL = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+|\.[0-9]*)?|\.[0-9]+)")


def as_coord(value: CoordinateInput) -> Fraction:
    """Coerce a coordinate to an exact rational.

    Accepts ints, Fractions and signed decimal or p/q literals in ASCII
    digits ("-1.25", ".5", "5/4"): no exponent, which Fraction would expand
    first ("1e9999999"), and no "_", which Fraction takes only on 3.11+.
    Floats are rejected: pass the literal as a string instead.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a coordinate")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _LITERAL.fullmatch(value):
            raise ValueError(f"bad coordinate literal {value!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad coordinate literal {value!r}") from exc
    if isinstance(value, float):
        raise TypeError(
            f"float coordinate {value!r} rejected; pass a decimal string for exactness"
        )
    raise TypeError(f"cannot use {type(value).__name__} as a coordinate")


class Orientation(Enum):
    CCW = 1
    COLLINEAR = 0
    CW = -1


class PointLocation(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


class _Frozen:
    """Immutable value: equal to another of its class with equal `_fields`,
    hashed, shown and pickled by those fields alone. A subclass declares
    every slot, cache slots included, and sets each once in `__init__`
    through object.__setattr__."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, self._values())


class Point(_Frozen):
    """A point stored as its canonical integer row (X, Y, W): x = X / W,
    y = Y / W, W > 0 and gcd(X, Y, W) = 1. Equal points have equal rows,
    and x and y are Fractions built on each read."""

    __slots__ = ("row",)
    _fields = ("x", "y")

    def __init__(self, x: CoordinateInput, y: CoordinateInput):
        x = as_coord(x)
        y = as_coord(y)
        xd = x.denominator
        yd = y.denominator
        # W = lcm(xd, yd) is canonical: each prime power of W divides one
        # reduced denominator fully, and that numerator is prime to it.
        w = lcm(xd, yd)
        object.__setattr__(self, "row", (x.numerator * (w // xd), y.numerator * (w // yd), w))

    @classmethod
    def _at(cls, x: int, y: int, w: int) -> Point:
        """The point (x / w, y / w) of an integer row with w != 0."""
        g = gcd(x, y, w)
        if w < 0:
            g = -g
        p = object.__new__(cls)
        object.__setattr__(p, "row", (x // g, y // g, w // g))
        return p

    @property
    def x(self) -> Fraction:
        return Fraction(self.row[0], self.row[2])

    @property
    def y(self) -> Fraction:
        return Fraction(self.row[1], self.row[2])

    def __eq__(self, other):
        if other.__class__ is Point:
            return self.row == other.row
        return NotImplemented

    def __hash__(self):
        return hash(self.row)

    def __str__(self) -> str:
        return f"({_fraction_str(self.x)}, {_fraction_str(self.y)})"


def _int_str(n: int) -> str:
    """str(n); an integer with more digits than the interpreter converts
    (sys.get_int_max_str_digits()) is an InputError."""
    try:
        return str(n)
    except ValueError:
        pass
    n = abs(n)
    digits = int((n.bit_length() - 1) * 0.30102999566398120)  # <= log10(n)
    while 10**digits <= n:
        digits += 1
    limit = sys.get_int_max_str_digits()
    raise InputError(
        f"cannot print a {digits}-digit coordinate integer: the interpreter "
        f"converts at most {limit} digits (sys.get_int_max_str_digits())"
    )


def _fraction_str(v: Fraction) -> str:
    """str(v), through _int_str."""
    num = _int_str(v.numerator)
    return num if v.denominator == 1 else f"{num}/{_int_str(v.denominator)}"


class Segment(_Frozen):
    __slots__ = _fields = ("a", "b")

    def __init__(self, a: Point, b: Point):
        if a == b:
            raise ValueError(f"degenerate segment at {a}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __str__(self) -> str:
        return f"[{self.a} - {self.b}]"


# ---------------------------------------------------------------------------
# Integer sign kernel.

Homogeneous = tuple[int, int, int]


def _sign(value: int) -> int:
    return (value > 0) - (value < 0)


def _det3(a: Homogeneous, b: Homogeneous, c: Homogeneous) -> int:
    """The 3x3 determinant of rows (X, Y, W): W_a W_b W_c times the cross
    product of a->b and a->c, so its sign is the turn of (a, b, c)."""
    ax, ay, aw = a
    bx, by, bw = b
    cx, cy, cw = c
    return ax * (by * cw - bw * cy) - ay * (bx * cw - bw * cx) + aw * (bx * cy - by * cx)


def _incircle_det(a: Homogeneous, b: Homogeneous, c: Homogeneous, d: Homogeneous) -> int:
    """In-circle determinant; positive when d is strictly inside the circle
    through the CCW triple (a, b, c).

    Rows are translated to d: (adx, ady) = W_a W_d (a - d), and the lifted
    determinant is taken times the positive W_a^2 W_b^2 W_c^2 W_d^4.
    """
    dx, dy, dw = d
    ax, ay, aw = a
    bx, by, bw = b
    cx, cy, cw = c
    adx = ax * dw - dx * aw
    ady = ay * dw - dy * aw
    bdx = bx * dw - dx * bw
    bdy = by * dw - dy * bw
    cdx = cx * dw - dx * cw
    cdy = cy * dw - dy * cw
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    return (
        alift * (bw * cw) * (bdx * cdy - bdy * cdx)
        - blift * (aw * cw) * (adx * cdy - ady * cdx)
        + clift * (aw * bw) * (adx * bdy - ady * bdx)
    )


def _between(p: Homogeneous, a: Homogeneous, b: Homogeneous) -> bool:
    """For p on the line through a and b: p lies on the closed segment ab.

    The dot product (a - p).(b - p) is taken times W_a W_b W_p^2 > 0.
    """
    px, py, pw = p
    ax, ay, aw = a
    bx, by, bw = b
    return (ax * pw - px * aw) * (bx * pw - px * bw) + (ay * pw - py * aw) * (by * pw - py * bw) <= 0


def _line_point(fa: int, fb: int, a: Homogeneous, b: Homogeneous) -> Point:
    """Where the segment ab crosses the zero line of an affine function f.

    fa and fb are W_a f(a) and W_b f(b), both times one positive constant,
    and have opposite signs. The crossing (f(a) b - f(b) a) / (f(a) - f(b))
    is then one integer row.
    """
    ax, ay, aw = a
    bx, by, bw = b
    return Point._at(fa * bx - fb * ax, fa * by - fb * ay, fa * bw - fb * aw)


def _turn(o: Point, a: Point, b: Point) -> int:
    """Sign of the turn (o, a, b): 1 left, -1 right, 0 collinear."""
    return _sign(_det3(o.row, a.row, b.row))


_ORIENTATIONS = (Orientation.COLLINEAR, Orientation.CCW, Orientation.CW)


def orientation(a: Point, b: Point, c: Point) -> Orientation:
    """Exact turn direction of the triple (a, b, c)."""
    return _ORIENTATIONS[_turn(a, b, c)]


def _circumcenter(a: Homogeneous, b: Homogeneous, c: Homogeneous) -> Point:
    """Center of the circle through the rows a, b, c.

    Raises CollinearInput when no finite circle exists.
    """
    ax, ay, aw = a
    bx, by, bw = b
    cx, cy, cw = c
    # B = W_a W_b (b - a) and C = W_a W_c (c - a); k = B x C has the sign of the turn.
    bdx = bx * aw - ax * bw
    bdy = by * aw - ay * bw
    cdx = cx * aw - ax * cw
    cdy = cy * aw - ay * cw
    k = bdx * cdy - bdy * cdx
    if k == 0:
        a, b, c = (Point._at(*r) for r in (a, b, c))
        raise CollinearInput(f"no circumcircle through collinear {a}, {b}, {c}")
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    # center - a = (nx, ny) / (2 W_a W_b W_c k)
    nx = cw * cdy * blift - bw * bdy * clift
    ny = bw * bdx * clift - cw * cdx * blift
    e = 2 * bw * cw * k
    return Point._at(ax * e + nx, ay * e + ny, aw * e)


def _on_segment(p: Homogeneous, a: Homogeneous, b: Homogeneous) -> bool:
    """Row p lies on the closed segment ab (a != b)."""
    return _det3(a, b, p) == 0 and _between(p, a, b)


class Polygon(_Frozen):
    """Simple polygon with counterclockwise boundary.

    Construction reads each vertex's integer row once and decides
    everything on those rows. Zero turns (collinear or repeated vertices)
    are dropped, lowest index first, and the cycle is rotated so the
    lexicographically smallest vertex comes first, giving a canonical
    representative for equality tests. The turn signs left give the
    convexity verdict. A ring whose turns are all left and whose edge
    directions wind once is simple and counterclockwise; any other ring
    must have positive area, and no two non-adjacent edges may meet as
    closed segments.
    """

    # _convex, no boundary turn is right, is the verdict of
    # is_convex_polygon().
    __slots__ = ("vertices", "_convex")
    _fields = ("vertices",)

    def __init__(self, vertices: Sequence[Point]):
        verts = list(vertices)
        n = len(verts)
        if n >= 3:
            rows = [v.row for v in verts]
            turns = [_det3(rows[i - 1], rows[i], rows[(i + 1) % n]) for i in range(n)]
            while n >= 3 and 0 in turns:
                # Deleting a vertex changes the turns of its two neighbours only.
                i = turns.index(0)
                del verts[i], rows[i], turns[i]
                n -= 1
                if n >= 3:
                    turns[i - 1] = _det3(rows[i - 2], rows[i - 1], rows[i % n])
                    i %= n
                    turns[i] = _det3(rows[i - 1], rows[i], rows[(i + 1) % n])
        if n < 3:
            raise CollinearInput("polygon degenerates to fewer than 3 vertices")
        start = 0
        for i in range(1, n):
            if _lex_less(rows[i], rows[start]):
                start = i
        object.__setattr__(self, "vertices", tuple(verts[start:] + verts[:start]))
        convex = all(t > 0 for t in turns)
        object.__setattr__(self, "_convex", convex)
        if convex and _winds_once(rows):
            return
        if _ring_area2(rows, lcm(*(w for _, _, w in rows))) <= 0:
            raise ValueError("polygon boundary must be counterclockwise")
        # Adjacent edges turn at their shared vertex, so they meet only
        # there; edge i is tested against the edges after it but not next
        # to it (edge n - 1 is next to edge 0).
        for i in range(n - 2):
            a, b = rows[i], rows[i + 1]
            for j in range(i + 2, n if i else n - 1):
                if _segments_meet(a, b, rows[j], rows[(j + 1) % n]):
                    raise ValueError("polygon boundary self-intersects")

    def edges(self) -> list[Segment]:
        v = self.vertices
        return [Segment(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]

    def area(self) -> Fraction:
        rows = [v.row for v in self.vertices]
        scale = lcm(*(w for _, _, w in rows))
        return Fraction(_ring_area2(rows, scale), 2 * scale * scale)

    def bounding_box(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return bounding_box(self.vertices)

    def __str__(self) -> str:
        return "[" + ", ".join(str(p) for p in self.vertices) + "]"


def _ring_area2(rows: Sequence[Homogeneous], scale: int) -> int:
    """Twice the signed area of the closed ring of rows, times scale^2;
    every weight must divide scale."""
    total = 0
    n = len(rows)
    for i in range(n):
        px, py, pw = rows[i]
        qx, qy, qw = rows[(i + 1) % n]
        total += (px * qy - qx * py) * (scale // pw) * (scale // qw)
    return total


def _lex_less(a: Homogeneous, b: Homogeneous) -> bool:
    """Lexicographic (x, y) order of two rows: a.x < b.x, or a.x == b.x
    and a.y < b.y, cross-multiplied by the positive weights."""
    ax, ay, aw = a
    bx, by, bw = b
    left = ax * bw
    right = bx * aw
    return left < right or (left == right and ay * bw < by * aw)


def _winds_once(rows: Sequence[Homogeneous]) -> bool:
    """For a ring that turns left at every vertex: its edge directions
    wrap the full circle exactly once (which rules out doubly-wound star
    rings), so it is simple and counterclockwise."""
    n = len(rows)
    lower = []  # edge i points into the lower half-plane of directions
    for i in range(n):
        ax, ay, aw = rows[i]
        bx, by, bw = rows[(i + 1) % n]
        dy = by * aw - ay * bw  # W_a W_b (b - a)
        lower.append(dy < 0 or (dy == 0 and bx * aw < ax * bw))
    return sum(lower[i - 1] and not lower[i] for i in range(n)) == 1


def _segments_meet(a: Homogeneous, b: Homogeneous, c: Homogeneous, d: Homogeneous) -> bool:
    """The closed segments ab and cd (a != b, c != d) share a point."""
    d1 = _det3(a, b, c)
    d2 = _det3(a, b, d)
    if d1 == 0 and d2 == 0:
        # On one line, two intervals meet when one holds an end of the other.
        return _between(c, a, b) or _between(d, a, b) or _between(a, c, d)
    if (d1 > 0 and d2 > 0) or (d1 < 0 and d2 < 0):
        return False
    d3 = _det3(c, d, a)
    d4 = _det3(c, d, b)
    return not ((d3 > 0 and d4 > 0) or (d3 < 0 and d4 < 0))


def is_convex_polygon(p: Polygon) -> bool:
    """True when no boundary turn is clockwise (no reflex vertex). The
    verdict is decided when the polygon is built."""
    return p._convex


# Sort key for distinct rows; equal rows never meet, since they are equal points.
_row_order = cmp_to_key(lambda a, b: -1 if _lex_less(a, b) else 1)


def convex_hull(points: Iterable[Point]) -> list[Point]:
    """Extreme points of the input, counterclockwise (monotone chain).

    Collinear boundary points are dropped. Returns fewer than 3 points for
    degenerate inputs.
    """
    # Rows are canonical, so equal rows are equal points.
    by_row = {p.row: p for p in points}
    rows = sorted(by_row, key=_row_order)
    if len(rows) <= 2:
        return [by_row[r] for r in rows]
    lower: list[Homogeneous] = []
    for r in rows:
        while len(lower) >= 2 and _det3(lower[-2], lower[-1], r) <= 0:
            lower.pop()
        lower.append(r)
    upper: list[Homogeneous] = []
    for r in reversed(rows):
        while len(upper) >= 2 and _det3(upper[-2], upper[-1], r) <= 0:
            upper.pop()
        upper.append(r)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:  # all input points collinear
        hull = [rows[0], rows[-1]]
    return [by_row[r] for r in hull]


def locate_point(p: Point, g: Union[Segment, Polygon]) -> PointLocation:
    """Exact closure/interior/exterior verdict for p against g.

    For a Segment, INTERIOR means strictly between the endpoints on the
    carrier line; the endpoints are the boundary.
    """
    if isinstance(g, Segment):
        if p == g.a or p == g.b:
            return PointLocation.BOUNDARY
        if _on_segment(p.row, g.a.row, g.b.row):
            return PointLocation.INTERIOR
        return PointLocation.EXTERIOR
    hp = p.row
    py, pw = hp[1], hp[2]
    hs = [v.row for v in g.vertices]
    above = [y * pw > py * w for _, y, w in hs]  # vertex strictly above p
    n = len(hs)
    inside = False
    for i in range(n):
        j = (i + 1) % n
        side = _det3(hs[i], hs[j], hp)
        if side == 0 and _between(hp, hs[i], hs[j]):
            return PointLocation.BOUNDARY
        # An edge crossing the horizontal through p toggles when p lies
        # left of it, taken with the edge pointing upward.
        if above[i] != above[j] and (side > 0 if above[j] else side < 0):
            inside = not inside
    return PointLocation.INTERIOR if inside else PointLocation.EXTERIOR


# ---------------------------------------------------------------------------
# Lines (integer triples, valued on the rows as the module docstring says)
# and closed intersections along them.

Line = tuple[int, int, int]
Interval = tuple[Point, Point]  # closed; ends in _lex_less order


def _bisector(p: Point, q: Point) -> Line:
    """The bisector 2(q - p) . x = |q|^2 - |p|^2 of p and q, times
    W_p^2 W_q^2; positive on q's side."""
    px, py, pw = p.row
    qx, qy, qw = q.row
    return (
        2 * pw * qw * (qx * pw - px * qw),
        2 * pw * qw * (qy * pw - py * qw),
        (px * px + py * py) * qw * qw - (qx * qx + qy * qy) * pw * pw,
    )


def _line_slice(poly: Polygon, line: Line) -> Optional[Interval]:
    """Closed intersection of a convex polygon with a line: its extreme
    contact points (equal for a single-point touch), or None when the line
    misses the polygon."""
    fa, fb, fc = line
    verts = poly.vertices
    n = len(verts)
    homs = [v.row for v in verts]
    vals = [fa * x + fb * y + fc * w for x, y, w in homs]
    lo = hi = None
    for i in range(n):
        j = (i + 1) % n
        va, vb = vals[i], vals[j]
        if va == 0:
            hit = verts[i]
        elif (va > 0 > vb) or (va < 0 < vb):
            hit = _line_point(va, vb, homs[i], homs[j])
        else:
            continue
        row = hit.row
        if lo is None:
            lo, lo_row, hi, hi_row = hit, row, hit, row
        elif _lex_less(row, lo_row):
            lo, lo_row = hit, row
        elif _lex_less(hi_row, row):
            hi, hi_row = hit, row
    if lo is None:
        return None
    return (lo, hi)


def _overlap(intervals: Iterable[Optional[Interval]]) -> Union[None, Point, Segment]:
    """Common part of closed intervals on one line (None for an empty
    one, which ends the scan): None, a Point or a Segment."""
    lo = hi = None
    for interval in intervals:
        if interval is None:
            return None
        a, b = interval
        if lo is None or _lex_less(lo.row, a.row):
            lo = a
        if hi is None or _lex_less(b.row, hi.row):
            hi = b
    lo_row = lo.row
    hi_row = hi.row
    if _lex_less(hi_row, lo_row):
        return None
    if lo_row == hi_row:
        return lo
    return Segment(lo, hi)


ClosedIntersection = Union[None, Point, Segment, Polygon]
ConvexSet = Union[Point, Segment, Polygon]


def _corners(g: ConvexSet, which: str) -> tuple[Sequence[Point], list[Homogeneous], list]:
    """A closed convex set's corners, their rows and its sides as row
    pairs: a Point is one corner with no side, a Segment two corners with
    one side, a convex Polygon its ring."""
    if isinstance(g, Polygon):
        if not g._convex:
            raise NonConvexInput(f"{which} polygon is not convex")
        rows = [v.row for v in g.vertices]
        return g.vertices, rows, list(zip(rows, rows[1:] + rows[:1]))
    if isinstance(g, Segment):
        rows = [g.a.row, g.b.row]
        return (g.a, g.b), rows, [tuple(rows)]
    return (g,), [g.row], []


def convex_closed_intersection(p: ConvexSet, q: ConvexSet) -> ClosedIntersection:
    """Intersection of two closed convex sets: Points, Segments or convex
    Polygons.

    The result can be empty (None), a single Point, a positive-length
    Segment, or a Polygon with positive area. Raises NonConvexInput when
    a Polygon argument has a reflex vertex.
    """
    p_set = _corners(p, "first")
    q_set = _corners(q, "second")
    # The corners of the intersection: each set's corners that lie in the
    # other closed set, and proper crossings of two sides. A touch or
    # collinear overlap of two sides ends at a corner lying on the other
    # side, which the corner loop keeps.
    candidates: list[Point] = []
    for (corners, rows, _), (_, other, sides) in ((p_set, q_set), (q_set, p_set)):
        if len(other) > 2:  # in a ring: left of or on every side
            for v, r in zip(corners, rows):
                if all(_det3(a, b, r) >= 0 for a, b in sides):
                    candidates.append(v)
        elif len(other) == 2:
            candidates += [v for v, r in zip(corners, rows) if _on_segment(r, *other)]
        else:
            candidates += [v for v, r in zip(corners, rows) if r == other[0]]
    for ea, eb in p_set[2]:
        for fa, fb in q_set[2]:
            d1 = _det3(ea, eb, fa)
            d2 = _det3(ea, eb, fb)
            if (d1 > 0 > d2) or (d1 < 0 < d2):
                d3 = _det3(fa, fb, ea)
                d4 = _det3(fa, fb, eb)
                if (d3 > 0 > d4) or (d3 < 0 < d4):
                    candidates.append(_line_point(d3, d4, ea, eb))
    if not candidates:
        return None
    hull = convex_hull(candidates)
    if len(hull) == 1:
        return hull[0]
    if len(hull) == 2:
        return Segment(hull[0], hull[1])
    return Polygon(tuple(hull))


class Rect(_Frozen):
    """Axis-aligned rectangle, used as the Voronoi clip frame."""

    __slots__ = _fields = ("x0", "y0", "x1", "y1")

    def __init__(self, x0, y0, x1, y1):  # each a CoordinateInput
        for name, value in zip(self._fields, (x0, y0, x1, y1)):
            object.__setattr__(self, name, as_coord(value))
        if self.x0 >= self.x1 or self.y0 >= self.y1:
            raise ValueError("rectangle must have positive width and height")

    def contains_strict(self, p: Point) -> bool:
        # Each bound against X / W or Y / W, cross-multiplied by W > 0.
        x, y, w = p.row
        x0, y0, x1, y1 = self.x0, self.y0, self.x1, self.y1
        return (
            x0.numerator * w < x * x0.denominator
            and x * x1.denominator < x1.numerator * w
            and y0.numerator * w < y * y0.denominator
            and y * y1.denominator < y1.numerator * w
        )

    def corners(self) -> tuple[Point, Point, Point, Point]:
        """Counterclockwise from the lower-left corner."""
        return (
            Point(self.x0, self.y0),
            Point(self.x1, self.y0),
            Point(self.x1, self.y1),
            Point(self.x0, self.y1),
        )


def bounding_box(points: Sequence[Point]) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(min x, min y, max x, max y) of a nonempty point collection.

    The extremes are found on the rows, cross-multiplied by the weights,
    and only those four coordinates become Fractions.
    """
    x0 = x1 = y0 = y1 = points[0].row
    for p in points:
        r = p.row
        x, y, w = r
        if x * x0[2] < x0[0] * w:
            x0 = r
        elif x * x1[2] > x1[0] * w:
            x1 = r
        if y * y0[2] < y0[1] * w:
            y0 = r
        elif y * y1[2] > y1[1] * w:
            y1 = r
    return (
        Fraction(x0[0], x0[2]),
        Fraction(y0[1], y0[2]),
        Fraction(x1[0], x1[2]),
        Fraction(y1[1], y1[2]),
    )
