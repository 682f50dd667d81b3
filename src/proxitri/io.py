"""File formats: site files, constraint files, result documents.

Coordinates travel as exact literals end to end. Site files hold decimal
literals; documents serialize every coordinate as a canonical rational
literal ("5/4", "3"), which the same parser reads back, so serialization
round-trips losslessly. The default document rendering is a flat,
versioned, line-oriented text format; a json rendering of the identical
model is available behind the --format flag.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .delaunay import ConstraintSet, SiteSet, TriMesh, is_locally_delaunay
from .errors import GeometryError, NotCCW, ParseError, UnknownEdge
from .geometry import Homogeneous, Point, Polygon, Rect, Segment, _det3, _hom, as_coord

SITES_HEADER = "proxitri-sites 1"
DOCUMENT_HEADER = "proxitri-document 1"
SCHEMA = "proxitri-document/1"


def coord_literal(value: Fraction) -> str:
    """Canonical exact literal: decimal when the denominator allows it,
    otherwise a rational p/q literal."""
    den = value.denominator
    if den == 1:
        return str(value.numerator)
    d = den
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{value.numerator}/{value.denominator}"
    k = max(twos, fives)
    scaled = abs(value.numerator) * 10**k // den
    sign = "-" if value.numerator < 0 else ""
    digits = str(scaled).rjust(k + 1, "0")
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
        row = _hom(p)
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


def mesh_from_document(model: dict) -> TriMesh:
    """Rebuild a mesh, rejecting triangles that name a missing site
    (IndexOutOfRange), do not turn counterclockwise (NotCCW), or repeat a
    directed edge (GeometryError), a boundary that cannot be the convex
    hull of a triangulated site set (GeometryError), a constrained pair
    that is not a mesh edge (UnknownEdge), constraint records that name
    other pairs than the constrained edge flags (GeometryError), and edge
    records other than one per mesh edge with its locally-Delaunay flag
    (UnknownEdge for a record naming no mesh edge, else GeometryError).
    Before any of these, a malformed record raises ParseError."""
    _check_record_shapes(model)
    sites = SiteSet(tuple(Point(x, y) for x, y in model["sites"]))
    triangles = tuple(tuple(t) for t in model.get("triangles", []))
    directed: set[tuple[int, int]] = set()
    for t, tri in enumerate(triangles):
        for i in tri:
            sites.check_index(i)
        i, j, k = tri
        if _det3(sites.rows[i], sites.rows[j], sites.rows[k]) <= 0:
            raise NotCCW(f"triangle {t} ({i}, {j}, {k}) is not counterclockwise")
        for edge in ((i, j), (j, k), (k, i)):
            if edge in directed:
                raise GeometryError(f"directed edge {edge[0]}->{edge[1]} appears twice")
            directed.add(edge)
    _check_boundary(sites, triangles, directed)
    edges = model.get("edges", [])
    flagged = {tuple(sorted((e["a"], e["b"]))) for e in edges if e.get("constrained")}
    listed = {tuple(sorted(c)) for c in model.get("constraints", [])}
    if "edges" in model and "constraints" in model and flagged != listed:
        raise GeometryError("constraint records and constrained edge flags name different pairs")
    mesh = TriMesh(sites, triangles, frozenset(flagged | listed))
    for a, b in sorted(mesh.constrained):
        if not mesh.has_edge(a, b):
            raise UnknownEdge(f"constrained pair {a}-{b} is not a mesh edge")
    if "edges" in model:
        _check_edge_records(mesh, edges)
    return mesh


def _is_site_index(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_record_shapes(model: dict) -> None:
    """Sites are coordinate pairs, triangles index triples, constraints
    pairs of integer site indices, and edge records hold integer site
    indices "a" and "b"; any other record raises ParseError naming it."""
    if "sites" not in model:
        raise ParseError("document has no site records")
    for kind, size in (("site", 2), ("triangle", 3), ("constraint", 2)):
        for k, rec in enumerate(model.get(kind + "s", [])):
            if not isinstance(rec, (list, tuple)) or len(rec) != size:
                raise ParseError(f"{kind} record {k} {rec!r} needs {size} fields")
    for k, rec in enumerate(model.get("constraints", [])):
        if not all(map(_is_site_index, rec)):
            raise ParseError(f"constraint record {k} {rec!r} needs integer site indices")
    for k, rec in enumerate(model.get("edges", [])):
        if not isinstance(rec, dict) or not all(_is_site_index(rec.get(f)) for f in "ab"):
            raise ParseError(f"edge record {k} {rec!r} needs integer site indices a and b")


def _check_edge_records(mesh: TriMesh, records: list) -> None:
    """The records name each mesh edge exactly once, each flagged as
    is_locally_delaunay decides it, so re-rendering writes them back."""
    seen: set[tuple[int, int]] = set()
    for e in records:
        a, b = e["a"], e["b"]
        if not mesh.has_edge(a, b):
            raise UnknownEdge(f"edge record {a}-{b} is not a mesh edge")
        key = (a, b) if a < b else (b, a)
        if key in seen:
            raise GeometryError(f"edge {a}-{b} has more than one record")
        seen.add(key)
        if e.get("locally_delaunay") != is_locally_delaunay(mesh, key):
            raise GeometryError(f"edge record {a}-{b} has the wrong locally-Delaunay flag")
    for a, b in mesh.edges():
        if (a, b) not in seen:
            raise GeometryError(f"mesh edge {a}-{b} has no edge record")


def _check_boundary(sites: SiteSet, triangles: tuple, directed: set) -> None:
    """A triangulation of n sites whose boundary (its unmated directed
    edges) has b edges has T = 2n - b - 2 triangles (Euler), and its
    boundary is the convex hull, so no boundary vertex turns right;
    collinear boundary sites are allowed."""
    outgoing: dict[int, list[int]] = {}
    for u, v in directed:
        if (v, u) not in directed:
            outgoing.setdefault(u, []).append(v)
    b = sum(map(len, outgoing.values()))
    if len(triangles) != 2 * len(sites) - b - 2:
        raise GeometryError(
            f"{len(triangles)} triangles with {b} boundary edges on {len(sites)} sites; "
            f"a triangulation has {2 * len(sites) - b - 2}"
        )
    for u, vs in outgoing.items():
        for v in vs:
            for w in outgoing.get(v, ()):
                if _det3(sites.rows[u], sites.rows[v], sites.rows[w]) < 0:
                    raise GeometryError(f"boundary turns right at site {v} ({u}, {v}, {w})")


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
