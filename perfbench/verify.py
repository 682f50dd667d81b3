"""Independent checks of proxitri CLI outputs.

Nothing here imports proxitri: documents and SVGs are parsed with this
file's own code, and geometry is decided with exact integer determinants
over per-site homogeneous coordinates (x = X/W, y = Y/W with W > 0).
That is a different arithmetic from the program's global common
denominator, so a shared bug cannot hide itself.
"""

from __future__ import annotations

import hashlib
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

SITES_HEADER = "proxitri-sites 1"
DOCUMENT_HEADER = "proxitri-document 1"
# render.py draws sites as filled dots with no stroke; circumcenters carry one.
SITE_DOT_FILL = "#000000"


class OutputError(Exception):
    """A job's output is malformed or wrong."""


def digest(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Parsing.


def parse_sites(text: str) -> list[tuple[Fraction, Fraction]]:
    sites = []
    header = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header:
            if line != SITES_HEADER:
                raise OutputError(f"site file header is {line!r}")
            header = True
            continue
        x, y = line.split()
        sites.append((Fraction(x), Fraction(y)))
    if not header:
        raise OutputError("site file has no header")
    return sites


def _records(text: str) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0].strip() != DOCUMENT_HEADER:
        raise OutputError("document header missing")
    return [line.split() for line in lines[1:] if line.strip()]


@dataclass
class Mesh:
    sites: list[tuple[Fraction, Fraction]]
    triangles: list[tuple[int, int, int]]
    edges: dict[tuple[int, int], bool]  # (a, b) with a < b -> locally-delaunay flag

    def triangle_digest(self) -> str:
        return digest("".join(f"{i} {j} {k}\n" for i, j, k in self.triangles))


def parse_mesh_document(text: str) -> Mesh:
    sites: list[tuple[Fraction, Fraction]] = []
    triangles: list[tuple[int, int, int]] = []
    edges: dict[tuple[int, int], bool] = {}
    try:
        for rec in _records(text):
            kind = rec[0]
            if kind == "site" and len(rec) == 4:
                if int(rec[1]) != len(sites):
                    raise OutputError("site records out of order")
                sites.append((Fraction(rec[2]), Fraction(rec[3])))
            elif kind == "triangle" and len(rec) == 5:
                if int(rec[1]) != len(triangles):
                    raise OutputError("triangle records out of order")
                triangles.append((int(rec[2]), int(rec[3]), int(rec[4])))
            elif kind == "edge" and len(rec) == 5:
                a, b = int(rec[1]), int(rec[2])
                if rec[3] != "plain" or rec[4] not in ("locally-delaunay", "not-locally-delaunay"):
                    raise OutputError(f"bad edge flags {rec[3:]}")
                edges[(min(a, b), max(a, b))] = rec[4] == "locally-delaunay"
            else:
                raise OutputError(f"unexpected record {' '.join(rec[:2])}")
    except (ValueError, ZeroDivisionError) as exc:
        raise OutputError(f"unparsable document: {exc}") from None
    return Mesh(sites, triangles, edges)


# ---------------------------------------------------------------------------
# Exact integer predicates.

Homogeneous = tuple[int, int, int]


def homogeneous(p: tuple[Fraction, Fraction]) -> Homogeneous:
    x, y = p
    w = lcm(x.denominator, y.denominator)
    return (x.numerator * (w // x.denominator), y.numerator * (w // y.denominator), w)


def orient(a: Homogeneous, b: Homogeneous, c: Homogeneous) -> int:
    """Positive when a, b, c turn counterclockwise."""
    (ax, ay, aw), (bx, by, bw), (cx, cy, cw) = a, b, c
    det = ax * (by * cw - bw * cy) - ay * (bx * cw - bw * cx) + aw * (bx * cy - by * cx)
    return (det > 0) - (det < 0)


def _det3(m: list[list[int]]) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def incircle(a: Homogeneous, b: Homogeneous, c: Homogeneous, d: Homogeneous) -> int:
    """Positive when d is strictly inside the circle through the CCW a, b, c.

    Rows are (x, y, x^2 + y^2, 1) scaled by W^2 > 0, which keeps the sign.
    """
    rows = [[x * w, y * w, x * x + y * y, w * w] for x, y, w in (a, b, c, d)]
    det = 0
    for col in range(4):
        minor = [[r[k] for k in range(4) if k != col] for r in rows[1:]]
        term = rows[0][col] * _det3(minor)
        det += -term if col % 2 else term
    return (det > 0) - (det < 0)


# ---------------------------------------------------------------------------
# Per-command checks. Each raises OutputError with a short reason.


def check_triangulation(mesh: Mesh, sites: list[tuple[Fraction, Fraction]]) -> None:
    """Valid Delaunay triangulation of exactly these sites."""
    if mesh.sites != sites:
        raise OutputError("document sites differ from the input file")
    n = len(sites)
    pts = [homogeneous(p) for p in sites]
    directed: dict[tuple[int, int], int] = {}
    for t, (i, j, k) in enumerate(mesh.triangles):
        if not all(0 <= v < n for v in (i, j, k)):
            raise OutputError(f"triangle {t} has an index out of range")
        if orient(pts[i], pts[j], pts[k]) <= 0:
            raise OutputError(f"triangle {t} is not counterclockwise")
        for u, v, w in ((i, j, k), (j, k, i), (k, i, j)):
            if (u, v) in directed:
                raise OutputError(f"directed edge {u}-{v} used twice")
            directed[(u, v)] = w
    boundary = [(u, v) for (u, v) in directed if (v, u) not in directed]
    b = len(boundary)
    undirected = {(min(u, v), max(u, v)) for u, v in directed}
    if len(mesh.triangles) != 2 * n - b - 2 or len(undirected) != 3 * n - b - 3:
        raise OutputError(
            f"Euler counts fail: n={n} b={b} T={len(mesh.triangles)} E={len(undirected)}"
        )
    if set(mesh.edges) != undirected:
        raise OutputError("edge records differ from the triangles' edges")
    for u, v in boundary:  # the boundary must be the convex hull
        if any(orient(pts[u], pts[v], pts[w]) < 0 for w in range(n)):
            raise OutputError(f"boundary edge {u}-{v} is not a hull edge")
    for (u, v), c in directed.items():
        d = directed.get((v, u))
        if d is not None and u < v and incircle(pts[u], pts[v], pts[c], pts[d]) > 0:
            raise OutputError(f"edge {u}-{v} fails the empty-circle test")
    if not all(mesh.edges.values()):
        raise OutputError("an edge is flagged not-locally-delaunay")


def check_svg(text: str, n_sites: int) -> None:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise OutputError(f"SVG does not parse: {exc}") from None
    if not root.tag.endswith("svg"):
        raise OutputError(f"root element is {root.tag}")
    dots = sum(
        1
        for el in root.iter()
        if el.tag.endswith("circle")
        and el.get("fill") == SITE_DOT_FILL
        and el.get("stroke") is None
    )
    if dots != n_sites:
        raise OutputError(f"SVG has {dots} site dots for {n_sites} sites")


def check_query(text: str, relation: str, a: str, b: str, expected: bool) -> None:
    recs = _records(text)
    if len(recs) != 1 or recs[0][0] != "query" or len(recs[0]) != 6:
        raise OutputError("expected exactly one query record")
    _, rel, ra, rb, verdict, _witness = recs[0]
    if (rel, ra, rb) != (relation, a, b):
        raise OutputError(f"query record echoes {rel} {ra} {rb}")
    if verdict != ("true" if expected else "false"):
        raise OutputError(f"{relation} {a} {b} answered {verdict}")


def check_records(text: str) -> list[tuple[str, str, str]]:
    """(name, status, witness) of every check record; no record may fail."""
    out = []
    for rec in _records(text):
        if rec[0] == "stat":
            continue
        if rec[0] != "check" or len(rec) != 4:
            raise OutputError(f"unexpected record {' '.join(rec[:2])}")
        if rec[2] not in ("pass", "degenerate-skip"):
            raise OutputError(f"check {rec[1]} reports {rec[2]}")
        out.append((rec[1], rec[2], rec[3]))
    if not out:
        raise OutputError("check document has no records")
    return out


def check_records_digest(records) -> str:
    return digest("".join(f"{name} {status} {witness}\n" for name, status, witness in records))


def shared_vertices(mesh: Mesh, t1: int, t2: int) -> int:
    return len(set(mesh.triangles[t1]) & set(mesh.triangles[t2]))


def nearest_neighbor(sites: list[tuple[Fraction, Fraction]], a: int) -> int:
    """Lowest-index site nearest to site a. The circle on that pair as
    diameter holds no other site, so their Voronoi cells share an edge."""
    ax, ay = sites[a]
    best = None
    for i, (x, y) in enumerate(sites):
        if i == a:
            continue
        d = (x - ax) ** 2 + (y - ay) ** 2
        if best is None or d < best[0]:
            best = (d, i)
    return best[1]
