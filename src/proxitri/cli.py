"""Command-line interface.

Subcommands: gen | triangulate | check | render | query. Exit status is 0
for success / all checks passing, 1 for geometry or property failures,
and 2 for usage or I/O problems. All output is a deterministic function
of the input bytes, flags and seed.

Building the parser loads no computational module: each command imports
the modules it runs in its own body, so a short job does not pay to load
(and, without cached bytecode, compile) the ones it never calls.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import __version__
from .choices import DISTRIBUTIONS, SUITES, WHAT_CHOICES
from .errors import GeometryError, InputError, ParseError, UnknownSelector, UnwritablePath


def _add_global_options(parser, suppress: bool) -> None:
    # The same options hang off the main parser and (with SUPPRESS defaults)
    # off every subparser, so they are accepted in either position.
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument(
        "--frame",
        metavar="X0,Y0,X1,Y1",
        default=d,
        help="clip frame for Voronoi cells (default: inflated bounding box); "
        "use --frame=... when x0 is negative",
    )
    parser.add_argument(
        "--seed", type=int, default=d if suppress else 0, help="RNG seed (default 0)"
    )
    parser.add_argument(
        "--format",
        choices=("document", "json-like"),
        default=d if suppress else "document",
        help="result document rendering",
    )
    if suppress:
        parser.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS)
    else:
        parser.add_argument("--quiet", action="store_true", help="suppress status notes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxitri",
        description="Exact Delaunay/Voronoi constructions, proximity queries and property checks.",
    )
    parser.add_argument("--version", action="version", version=f"proxitri {__version__}")
    _add_global_options(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_options(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a site file", parents=[common])
    p_gen.add_argument("count", type=int, help="number of sites (>= 3)")
    p_gen.add_argument("--distribution", choices=DISTRIBUTIONS, default="uniform")
    p_gen.add_argument("--out", required=True, help="output path ('-' for stdout)")

    p_tri = sub.add_parser("triangulate", parents=[common], help="triangulate a site file")
    p_tri.add_argument("input", help="site file")
    p_tri.add_argument("--constraints", help="constraint segment file")
    p_tri.add_argument("--out", help="output path (default stdout)")

    p_check = sub.add_parser("check", parents=[common], help="run property-check suites")
    p_check.add_argument("input", help="site file")
    p_check.add_argument("--suite", choices=SUITES, default="all")
    p_check.add_argument("--out", help="output path (default stdout)")

    p_render = sub.add_parser("render", parents=[common], help="render an SVG figure")
    p_render.add_argument("input", help="site file")
    p_render.add_argument("--what", choices=WHAT_CHOICES, required=True)
    p_render.add_argument("--out", required=True, help="SVG output path")

    p_query = sub.add_parser("query", parents=[common], help="evaluate a proximity relation")
    p_query.add_argument("input", help="site file")
    p_query.add_argument("relation", choices=("near", "far", "strong"))
    p_query.add_argument("a", help="selector: t:<id> | e:<i>-<j> | v:<site>")
    p_query.add_argument("b", help="selector: t:<id> | e:<i>-<j> | v:<site>")
    return parser


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text ({exc.reason})", path) from None


def _write_output(path: Optional[str], text: str, quiet: bool) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UnwritablePath(f"cannot write {path}: {exc}") from exc
    if not quiet:
        print(f"wrote {path}", file=sys.stderr)


def cmd_gen(args) -> int:
    from .generate import generate_sites
    from .io import format_site_file

    points = generate_sites(args.count, args.seed, args.distribution)
    comment = f"gen n={args.count} seed={args.seed} distribution={args.distribution}"
    _write_output(args.out, format_site_file(points, comment), args.quiet)
    return 0


def cmd_triangulate(args) -> int:
    from .delaunay import constrained_triangulate, triangulate
    from .io import document_for_mesh, parse_constraint_file, parse_site_file, render_document

    sites = parse_site_file(_read_text(args.input), args.input)
    if args.constraints:
        constraints = parse_constraint_file(_read_text(args.constraints), args.constraints)
        mesh = constrained_triangulate(sites, constraints)
    else:
        mesh = triangulate(sites)
    model = document_for_mesh(mesh)
    _write_output(args.out, render_document(model, args.format), args.quiet)
    return 0


def cmd_check(args) -> int:
    from .checks import run_checks
    from .io import SCHEMA, parse_site_file, render_document

    sites = parse_site_file(_read_text(args.input), args.input)
    results, stats = run_checks(args.suite, sites, args.frame)
    model = {
        "schema": SCHEMA,
        "checks": [
            {"name": r.name, "status": r.status, "witness": r.witness} for r in results
        ],
    }
    if stats:
        model["stats"] = stats
    _write_output(args.out, render_document(model, args.format), args.quiet)
    return 1 if any(r.failed for r in results) else 0


def cmd_render(args) -> int:
    from .delaunay import triangulate
    from .io import parse_site_file
    from .render import render_svg

    sites = parse_site_file(_read_text(args.input), args.input)
    if args.what in ("voronoi", "overlay"):
        from .voronoi import voronoi_diagram

        diagram = voronoi_diagram(sites, args.frame)
        svg = render_svg(args.what, diagram.mesh, diagram)
    else:
        svg = render_svg(args.what, triangulate(sites))
    _write_output(args.out, svg, args.quiet)
    return 0


def _parse_selector(selector: str) -> tuple[str, list[int]]:
    kind, _, rest = selector.partition(":")
    if kind not in ("t", "e", "v"):
        raise UnknownSelector(f"unknown selector kind in {selector!r}")
    # An id is ASCII digits only: int() would also take a sign, "_",
    # whitespace and other digits, and the query record must echo the
    # selector as one token.
    ids = rest.partition("-")[::2] if kind == "e" else (rest,)
    if not all(s.isascii() and s.isdigit() for s in ids):
        raise UnknownSelector(f"cannot resolve selector {selector!r}: ids are ASCII digits")
    return kind, [int(s) for s in ids]


def _resolve_selector(selector: str, kind: str, ids: list[int], mesh, diagram):
    from .geometry import Segment

    try:
        if kind == "t":
            return ("t", mesh.triangle_polygon(ids[0]), ids[0])
        if kind == "e":
            i, j = ids
            if not mesh.has_edge(i, j):
                raise UnknownSelector(f"{selector}: no mesh edge {i}-{j}")
            return ("e", Segment(mesh.sites[i], mesh.sites[j]), (i, j))
        return ("v", diagram.cell(ids[0]), ids[0])
    except (ValueError, IndexError, GeometryError) as exc:
        raise UnknownSelector(f"cannot resolve selector {selector!r}: {exc}") from exc


def cmd_query(args) -> int:
    from .delaunay import triangulate
    from .io import SCHEMA, geometry_literal, parse_site_file, render_document
    from .proximity import near

    # Selector syntax needs no mesh, so a typo fails before the build.
    parsed_a, parsed_b = _parse_selector(args.a), _parse_selector(args.b)
    sites = parse_site_file(_read_text(args.input), args.input)
    # Only cell selectors read the Voronoi diagram; triangle and edge
    # selectors need the mesh alone.
    if "v" in (parsed_a[0], parsed_b[0]):
        from .voronoi import voronoi_diagram

        diagram = voronoi_diagram(sites, args.frame)
        mesh = diagram.mesh
    else:
        diagram = None
        mesh = triangulate(sites)
    kind_a, geom_a, ref_a = _resolve_selector(args.a, *parsed_a, mesh, diagram)
    kind_b, geom_b, ref_b = _resolve_selector(args.b, *parsed_b, mesh, diagram)

    if args.relation == "strong":
        if kind_a != kind_b or kind_a == "e":
            raise UnknownSelector(
                "strong proximity is defined for triangle or cell pairs only"
            )
        if ref_a == ref_b:
            raise UnknownSelector("strong proximity needs two distinct triangles or cells")
    # Triangles and cells are convex polygons: they are strongly near when
    # their closed intersection is a segment, which is the witness.
    result = near(geom_a, geom_b)
    if args.relation == "strong":
        verdict = result.strongly
        witness = result.witness if verdict else None
    else:
        verdict = result.is_near if args.relation == "near" else not result.is_near
        witness = result.witness

    model = {
        "schema": SCHEMA,
        "queries": [
            {
                "relation": args.relation,
                "a": args.a,
                "b": args.b,
                "verdict": verdict,
                "witness": geometry_literal(witness),
            }
        ],
    }
    _write_output(None, render_document(model, args.format), args.quiet)
    return 0


COMMANDS = {
    "gen": cmd_gen,
    "triangulate": cmd_triangulate,
    "check": cmd_check,
    "render": cmd_render,
    "query": cmd_query,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    try:
        # Every command takes --frame, so a malformed one is a usage error
        # even where no Voronoi diagram is built; args.frame becomes a Rect.
        if args.frame is not None:
            from .io import parse_frame

            args.frame = parse_frame(args.frame)
        return COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
