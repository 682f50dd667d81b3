"""Deterministic SVG rendering of meshes, diagrams and regions.

Follows the usual figure conventions for this domain: solid triangulation
edges, dotted Voronoi edges, filled site dots, open circumcenter dots.
Every styling constant lives in one table and coordinates are quantized
through exact integer rounding, so a given input renders to identical
bytes on every run.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .choices import WHAT_CHOICES
from .delaunay import TriMesh
from .geometry import Homogeneous, Point, _lex_less, bounding_box

if TYPE_CHECKING:
    from .voronoi import VoronoiDiagram

STYLE = {
    "width": 640,
    "height": 640,
    "margin": 24,
    "background": "#ffffff",
    "edge_color": "#000000",
    "edge_width": "1.5",
    "constrained_color": "#aa0000",
    "constrained_width": "2.5",
    "voronoi_color": "#333333",
    "voronoi_width": "1.2",
    "voronoi_dash": "2 4",
    "site_radius": "3.5",
    "site_fill": "#000000",
    "vertex_radius": "3.5",
    "vertex_fill": "#ffffff",
    "vertex_stroke": "#000000",
    "frame_color": "#999999",
    "frame_width": "1",
    "region_palette": (
        "#bcd9ea", "#f9d4a0", "#c4e3b2", "#e6c3de",
        "#f3b8b0", "#d8d5ef", "#ffe9a8", "#c8e8e4",
    ),
    "region_stroke": "#555555",
}


def _two_decimals(num: int, den: int) -> str:
    """num / den (den > 0) rounded half to even on the exact remainder,
    printed as hundredths."""
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    sign = "-" if q < 0 else ""
    q = abs(q)
    return f"{sign}{q // 100}.{q % 100:02d}"


class _Mapper:
    """World to screen transform with y flip.

    For a point with integer row (X, Y, W), 100 times its screen x is
    (kx X + cx W) / (dx W) and 100 times its screen y is
    (cy W - ky Y) / (dy W), so each coordinate is one integer rounding with
    no gcd. Each distinct row is mapped once per transform.
    """

    def __init__(self, x0, y0, x1, y1):
        margin = STYLE["margin"]
        span_x = x1 - x0 or Fraction(1)
        span_y = y1 - y0 or Fraction(1)
        scale = 100 * min(
            (STYLE["width"] - 2 * margin) / span_x, (STYLE["height"] - 2 * margin) / span_y
        )
        off_x = 100 * margin - x0 * scale
        off_y = 100 * margin + y1 * scale
        k, kd = scale.numerator, scale.denominator
        self._x = (k * off_x.denominator, off_x.numerator * kd, kd * off_x.denominator)
        self._y = (k * off_y.denominator, off_y.numerator * kd, kd * off_y.denominator)
        self._mapped: dict[Homogeneous, tuple[str, str]] = {}

    def point(self, p) -> tuple[str, str]:
        h = p.row
        xy = self._mapped.get(h)
        if xy is None:
            x, y, w = h
            kx, cx, dx = self._x
            ky, cy, dy = self._y
            xy = self._mapped[h] = (
                _two_decimals(kx * x + cx * w, dx * w),
                _two_decimals(cy * w - ky * y, dy * w),
            )
        return xy


def _line(m: _Mapper, a, b, color, width, dash: str = "") -> str:
    x1, y1 = m.point(a)
    x2, y2 = m.point(b)
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
        f'stroke="{color}" stroke-width="{width}"{dash_attr}/>'
    )


def _polygon_el(m: _Mapper, vertices, fill, stroke, width, dash: str = "") -> str:
    pts = " ".join(",".join(m.point(v)) for v in vertices)
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polygon points="{pts}" fill="{fill}" stroke="{stroke}" '
        f'stroke-width="{width}"{dash_attr}/>'
    )


def _circle(m: _Mapper, p, radius, fill, stroke: str = "") -> str:
    cx, cy = m.point(p)
    stroke_attr = f' stroke="{stroke}" stroke-width="1"' if stroke else ""
    return f'<circle cx="{cx}" cy="{cy}" r="{radius}" fill="{fill}"{stroke_attr}/>'


def _svg(body: list[str]) -> str:
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{STYLE["width"]}" height="{STYLE["height"]}" '
        f'viewBox="0 0 {STYLE["width"]} {STYLE["height"]}">'
    )
    rect = (
        f'<rect x="0" y="0" width="{STYLE["width"]}" height="{STYLE["height"]}" '
        f'fill="{STYLE["background"]}"/>'
    )
    return "\n".join([head, rect] + body + ["</svg>"]) + "\n"


def _mesh_elements(m: _Mapper, mesh: TriMesh) -> list[str]:
    pts, rows = mesh.sites.points, mesh.sites.rows
    body = []
    for tri in mesh.triangles:
        # Start at the lexicographically smallest corner, where a Polygon's
        # canonical ring starts.
        first = 0
        for r in (1, 2):
            if _lex_less(rows[tri[r]], rows[tri[first]]):
                first = r
        ring = [pts[tri[(first + r) % 3]] for r in range(3)]
        body.append(_polygon_el(m, ring, "none", STYLE["edge_color"], STYLE["edge_width"]))
    for a, b in sorted(mesh.constrained):
        body.append(
            _line(
                m,
                mesh.sites[a],
                mesh.sites[b],
                STYLE["constrained_color"],
                STYLE["constrained_width"],
            )
        )
    return body


def _site_elements(m: _Mapper, mesh: TriMesh) -> list[str]:
    return [
        _circle(m, p, STYLE["site_radius"], STYLE["site_fill"])
        for p in mesh.sites.points
    ]


def _voronoi_elements(m: _Mapper, diagram: VoronoiDiagram) -> list[str]:
    # Reduced coordinates make the row of a point unique.
    centers: dict[Homogeneous, Point] = {}
    for v in diagram.vertices:
        centers.setdefault(v.row, v)
    body = []
    # Circumcenters lie strictly inside the frame, so a cell edge with a
    # circumcenter end lies on a bisector, not on the frame. The two cells on
    # it build its ends as the same points, so its row pair identifies it;
    # the first cell to reach it sets its direction.
    drawn: set[frozenset[Homogeneous]] = set()
    for cell in diagram.cells:
        ring = cell.vertices
        for a, b in zip(ring, ring[1:] + ring[:1]):
            ra, rb = a.row, b.row
            key = frozenset((ra, rb))
            if key in drawn or (ra not in centers and rb not in centers):
                continue
            drawn.add(key)
            body.append(
                _line(
                    m,
                    a,
                    b,
                    STYLE["voronoi_color"],
                    STYLE["voronoi_width"],
                    STYLE["voronoi_dash"],
                )
            )
    for v in centers.values():
        body.append(
            _circle(
                m, v, STYLE["vertex_radius"], STYLE["vertex_fill"], STYLE["vertex_stroke"]
            )
        )
    return body


def render_svg(
    what: str,
    mesh: TriMesh,
    diagram: Optional[VoronoiDiagram] = None,
) -> str:
    """Render one view to an SVG string; see WHAT_CHOICES."""
    if what not in WHAT_CHOICES:
        raise ValueError(f"unknown render target {what!r}")
    if what in ("voronoi", "overlay"):
        if diagram is None:
            raise ValueError(f"{what} rendering needs a Voronoi diagram")
        # View covers sites and Voronoi vertices; cell edges that run to the
        # clip frame leave the canvas, which reads as unbounded rays.
        x0, y0, x1, y1 = bounding_box(mesh.sites.points + diagram.vertices)
        pad = max(x1 - x0, y1 - y0, Fraction(1)) * Fraction(3, 20)
        m = _Mapper(x0 - pad, y0 - pad, x1 + pad, y1 + pad)
        # corners() already runs CCW from the lexicographically smallest corner.
        frame_el = _polygon_el(
            m,
            diagram.frame.corners(),
            "none",
            STYLE["frame_color"],
            STYLE["frame_width"],
        )
    else:
        x0, y0, x1, y1 = bounding_box(mesh.sites.points)
        pad = max(x1 - x0, y1 - y0, Fraction(1)) / 20
        m = _Mapper(x0 - pad, y0 - pad, x1 + pad, y1 + pad)
        frame_el = None

    body: list[str] = []
    if what == "delaunay":
        body += _mesh_elements(m, mesh)
        body += _site_elements(m, mesh)
    elif what == "voronoi":
        body.append(frame_el)
        body += _voronoi_elements(m, diagram)
        body += _site_elements(m, mesh)
    elif what == "overlay":
        body.append(frame_el)
        body += _mesh_elements(m, mesh)
        body += _voronoi_elements(m, diagram)
        body += _site_elements(m, mesh)
    elif what == "regions":
        from .regions import extract_regions, region_union_polygon

        palette = STYLE["region_palette"]
        for idx, region in enumerate(extract_regions(mesh)):
            body.append(
                _polygon_el(
                    m,
                    region_union_polygon(region).vertices,
                    palette[idx % len(palette)],
                    STYLE["region_stroke"],
                    "1",
                )
            )
        body += _mesh_elements(m, mesh)
        body += _site_elements(m, mesh)
    return _svg(body)
