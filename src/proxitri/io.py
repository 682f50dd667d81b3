"""File formats: site files, constraint files, result documents.

Coordinates travel as exact literals end to end. Site files hold decimal
literals; documents serialize every coordinate as a canonical rational
literal ("5/4", "3"), which the same parser reads back, so serialization
round-trips losslessly. The default document rendering is a flat,
versioned, line-oriented text format; a json rendering of the identical
model is available behind the --format flag. parse_document reads either
rendering back to that model and checks record syntax only; no function
here rebuilds a mesh from a document.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Union

from .errors import ParseError
from .geometry import (
    Homogeneous,
    Point,
    Polygon,
    Rect,
    Segment,
    _fraction_str,
    _int_str,
    as_coord,
)

if TYPE_CHECKING:
    from .delaunay import ConstraintSet, SiteSet, TriMesh

SITES_HEADER = "proxitri-sites 1"
DOCUMENT_HEADER = "proxitri-document 1"
SCHEMA = "proxitri-document/1"


def coord_literal(value: Fraction) -> str:
    """Canonical exact literal: decimal when the denominator allows it,
    otherwise a rational p/q literal. An integer in it with more digits
    than the interpreter converts is an InputError."""
    den = value.denominator
    if den == 1:
        return _int_str(value.numerator)
    d = den
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return _fraction_str(value)
    k = max(twos, fives)
    scaled = abs(value.numerator) * 10**k // den
    sign = "-" if value.numerator < 0 else ""
    digits = _int_str(scaled).rjust(k + 1, "0")
    return f"{sign}{digits[:-k]}.{digits[-k:]}"


def parse_coord(text: str, path: str = "", line: int = 0) -> Fraction:
    try:
        return as_coord(text)
    except ValueError:
        raise ParseError(f"bad coordinate literal {text!r}", path, line) from None


# ---------------------------------------------------------------------------
# Site and constraint files.


def format_site_file(points: list[Point], comment: str = "") -> str:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(SITES_HEADER)
    for p in points:
        lines.append(f"{coord_literal(p.x)} {coord_literal(p.y)}")
    return "\n".join(lines) + "\n"


def parse_site_file(text: str, path: str = "") -> SiteSet:
    from .delaunay import SiteSet

    points: list[Point] = []
    seen: dict[Homogeneous, int] = {}
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != SITES_HEADER:
                raise ParseError(
                    f"expected header {SITES_HEADER!r}, found {line!r}", path, lineno
                )
            header_seen = True
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected two coordinates, found {len(parts)}", path, lineno)
        p = Point(parse_coord(parts[0], path, lineno), parse_coord(parts[1], path, lineno))
        row = p.row
        if row in seen:
            raise ParseError(
                f"duplicate site {p} (first at line {seen[row]})", path, lineno
            )
        seen[row] = lineno
        points.append(p)
    if not header_seen:
        raise ParseError("empty site file (missing header)", path, 0)
    return SiteSet(tuple(points))


def parse_constraint_file(text: str, path: str = "") -> ConstraintSet:
    from .delaunay import ConstraintSet

    segments: list[Segment] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(f"expected four coordinates, found {len(parts)}", path, lineno)
        coords = [parse_coord(t, path, lineno) for t in parts]
        try:
            segments.append(Segment(Point(coords[0], coords[1]), Point(coords[2], coords[3])))
        except ValueError as exc:
            raise ParseError(str(exc), path, lineno) from None
    return ConstraintSet(tuple(segments))


def parse_frame(text: str) -> Rect:
    parts = text.split(",")
    if len(parts) != 4:
        raise ParseError(f"frame needs x0,y0,x1,y1; got {text!r}")
    x0, y0, x1, y1 = (parse_coord(t.strip()) for t in parts)
    try:
        return Rect(x0, y0, x1, y1)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


# ---------------------------------------------------------------------------
# Geometry literals used for witnesses inside documents.


def geometry_literal(g: Union[Point, Segment, Polygon, None]) -> str:
    if g is None:
        return "-"
    if isinstance(g, Point):
        return f"point({coord_literal(g.x)},{coord_literal(g.y)})"
    if isinstance(g, Segment):
        return (
            f"segment({coord_literal(g.a.x)},{coord_literal(g.a.y)};"
            f"{coord_literal(g.b.x)},{coord_literal(g.b.y)})"
        )
    if isinstance(g, Polygon):
        body = ";".join(f"{coord_literal(p.x)},{coord_literal(p.y)}" for p in g.vertices)
        return f"polygon({body})"
    raise TypeError(f"cannot serialize {type(g).__name__} as geometry")


def parse_geometry_literal(text: str) -> Union[Point, Segment, Polygon, None]:
    if text == "-":
        return None
    kind, _, body = text.partition("(")
    if not body.endswith(")"):
        raise ParseError(f"bad geometry literal {text!r}")
    body = body[:-1]
    pts = []
    for token in body.split(";"):
        x, _, y = token.partition(",")
        pts.append(Point(parse_coord(x), parse_coord(y)))
    if kind == "point" and len(pts) == 1:
        return pts[0]
    if kind == "segment" and len(pts) == 2:
        return Segment(pts[0], pts[1])
    if kind == "polygon" and len(pts) >= 3:
        return Polygon(tuple(pts))
    raise ParseError(f"bad geometry literal {text!r}")


# ---------------------------------------------------------------------------
# Result document model <-> text.


def _point_pair(p: Point) -> list[str]:
    return [coord_literal(p.x), coord_literal(p.y)]


def document_for_mesh(mesh: TriMesh) -> dict:
    """Model with sites, triangles and per-edge flags; the locally-Delaunay
    flag of each edge is computed here by is_locally_delaunay."""
    from .delaunay import is_locally_delaunay

    model: dict = {"schema": SCHEMA}
    model["sites"] = [_point_pair(p) for p in mesh.sites.points]
    if mesh.constrained:
        model["constraints"] = [list(e) for e in sorted(mesh.constrained)]
    model["triangles"] = [list(t) for t in mesh.triangles]
    model["edges"] = [
        {
            "a": a,
            "b": b,
            "constrained": mesh.is_constrained(a, b),
            "locally_delaunay": is_locally_delaunay(mesh, (a, b)),
        }
        for (a, b) in mesh.edges()
    ]
    return model


def render_document(model: dict, fmt: str = "document") -> str:
    if fmt == "json-like":
        import json

        return json.dumps(model, indent=2, sort_keys=True) + "\n"
    if fmt != "document":
        raise ValueError(f"unknown format {fmt!r}")
    out = [DOCUMENT_HEADER]
    for i, (x, y) in enumerate(model.get("sites", [])):
        out.append(f"site {i} {x} {y}")
    for a, b in model.get("constraints", []):
        out.append(f"constraint {a} {b}")
    for t, (i, j, k) in enumerate(model.get("triangles", [])):
        out.append(f"triangle {t} {i} {j} {k}")
    for e in model.get("edges", []):
        flags = "constrained" if e["constrained"] else "plain"
        ld = "locally-delaunay" if e["locally_delaunay"] else "not-locally-delaunay"
        out.append(f"edge {e['a']} {e['b']} {flags} {ld}")
    for q in model.get("queries", []):
        verdict = "true" if q["verdict"] else "false"
        out.append(
            f"query {q['relation']} {q['a']} {q['b']} {verdict} {q['witness']}"
        )
    for c in model.get("checks", []):
        out.append(f"check {c['name']} {c['status']} {c['witness']}")
    for key in sorted(model.get("stats", {})):
        out.append(f"stat {key} {model['stats'][key]}")
    return "\n".join(out) + "\n"


def parse_document(text: str, path: str = "") -> dict:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        import json

        try:
            model = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed JSON: {exc.msg}", path, exc.lineno) from None
        if model.get("schema") != SCHEMA:
            raise ParseError(f"unsupported schema {model.get('schema')!r}", path)
        return model
    model: dict = {"schema": SCHEMA}
    lines = text.splitlines()
    if not lines or lines[0].strip() != DOCUMENT_HEADER:
        raise ParseError(f"expected header {DOCUMENT_HEADER!r}", path, 1)
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        try:
            _parse_document_line(model, kind, parts[1:])
        except (ValueError, IndexError, KeyError):
            raise ParseError(f"malformed {kind} record", path, lineno) from None
    return model


# Field count of each text record after its kind. Every field is a single
# token, so a longer record would silently lose data.
_RECORD_FIELDS = {
    "site": 3,
    "constraint": 2,
    "triangle": 4,
    "edge": 4,
    "query": 5,
    "check": 3,
    "stat": 2,
}


def _parse_document_line(model: dict, kind: str, args: list[str]) -> None:
    if kind not in _RECORD_FIELDS:
        raise ValueError(f"unknown record {kind}")
    if len(args) != _RECORD_FIELDS[kind]:
        raise ValueError(f"{kind} record needs {_RECORD_FIELDS[kind]} fields")
    if kind == "site":
        idx = int(args[0])
        sites = model.setdefault("sites", [])
        if idx != len(sites):
            raise ValueError("site records out of order")
        sites.append([args[1], args[2]])
    elif kind == "constraint":
        model.setdefault("constraints", []).append([int(args[0]), int(args[1])])
    elif kind == "triangle":
        idx = int(args[0])
        tris = model.setdefault("triangles", [])
        if idx != len(tris):
            raise ValueError("triangle records out of order")
        tris.append([int(args[1]), int(args[2]), int(args[3])])
    elif kind == "edge":
        model.setdefault("edges", []).append(
            {
                "a": int(args[0]),
                "b": int(args[1]),
                "constrained": {"constrained": True, "plain": False}[args[2]],
                "locally_delaunay": {
                    "locally-delaunay": True,
                    "not-locally-delaunay": False,
                }[args[3]],
            }
        )
    elif kind == "query":
        model.setdefault("queries", []).append(
            {
                "relation": args[0],
                "a": args[1],
                "b": args[2],
                "verdict": {"true": True, "false": False}[args[3]],
                "witness": args[4],
            }
        )
    elif kind == "check":
        model.setdefault("checks", []).append(
            {"name": args[0], "status": args[1], "witness": args[2]}
        )
    elif kind == "stat":
        model.setdefault("stats", {})[args[0]] = args[1]
