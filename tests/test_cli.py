import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import import_module
from pathlib import Path
from time import perf_counter

import pytest

import proxitri
from proxitri.cli import main
from proxitri.errors import InputError
from proxitri.geometry import Point
from proxitri.io import parse_document, parse_site_file, render_document


def run_cli(*args) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


FAN = "proxitri-sites 1\n0 0\n4 0\n0 4\n1 1\n"
COLLINEAR = "proxitri-sites 1\n0 0\n1 1\n2 2\n"
SQUARE = "proxitri-sites 1\n0 0\n2 0\n2 2\n0 2\n"


@pytest.fixture()
def fan_file(tmp_path):
    path = tmp_path / "fan.sites"
    path.write_text(FAN)
    return str(path)


class TestGen:
    def test_creates_parseable_file(self, tmp_path):
        out = tmp_path / "g.sites"
        code, _, _ = run_cli("gen", "10", "--seed", "4", "--out", str(out), "--quiet")
        assert code == 0
        sites = parse_site_file(out.read_text())
        assert len(sites) == 10

    def test_gen_to_stdout(self):
        code, out, _ = run_cli("gen", "3", "--out", "-", "--quiet")
        assert code == 0
        assert len(parse_site_file(out)) == 3

    def test_bad_count_is_usage_error(self, tmp_path):
        code, _, err = run_cli("gen", "2", "--out", str(tmp_path / "x"))
        assert code == 2
        assert "3" in err

    def test_deterministic_for_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("gen", "12", "--seed", "9", "--distribution", "clustered", "--out", str(a), "--quiet")
        run_cli("gen", "12", "--seed", "9", "--distribution", "clustered", "--out", str(b), "--quiet")
        assert a.read_bytes() == b.read_bytes()


class TestTriangulate:
    def test_fan_document(self, fan_file):
        code, out, _ = run_cli("triangulate", fan_file)
        assert code == 0
        model = parse_document(out)
        assert len(model["triangles"]) == 3
        assert all(e["locally_delaunay"] for e in model["edges"])

    def test_json_format(self, fan_file):
        code, out, _ = run_cli("--format", "json-like", "triangulate", fan_file)
        assert code == 0
        assert parse_document(out)["triangles"]

    def test_constrained_run(self, tmp_path):
        sites = tmp_path / "r.sites"
        sites.write_text("proxitri-sites 1\n0 0\n4 0\n4 3\n0 3\n")
        cons = tmp_path / "r.cons"
        cons.write_text("4 0 0 3\n")
        code, out, _ = run_cli("triangulate", str(sites), "--constraints", str(cons))
        assert code == 0
        model = parse_document(out)
        assert [e for e in model["edges"] if e["constrained"]] == [
            {"a": 1, "b": 3, "constrained": True, "locally_delaunay": True}
        ]

    def test_constraint_endpoint_must_be_a_site(self, tmp_path):
        sites = tmp_path / "s.sites"
        sites.write_text("proxitri-sites 1\n0 0\n4 0\n4 3\n0 3\n")
        cons = tmp_path / "s.cons"
        cons.write_text("0 0 9 9\n")
        code, _, err = run_cli("triangulate", str(sites), "--constraints", str(cons))
        assert code == 1
        assert "not a site" in err

    @pytest.mark.parametrize(
        "site_lines, constraint_lines, expected",
        [
            (
                "0 0\n4 0\n4 3\n0 3\n",
                "0 0 4 3\n4 0 0 3\n",
                "error: CrossingConstraints: constraints [(0, 0) - (4, 3)] and "
                "[(4, 0) - (0, 3)] cross at (2, 3/2)\n",
            ),
            (
                "0 0\n2 0\n4 0\n2 3\n",
                "0 0 4 0\n",
                "error: ConstraintThroughSite: constraint [(0, 0) - (4, 0)] passes "
                "through site #1 (2, 0)\n",
            ),
            (
                "0 0\n4 0\n4 3\n0 3\n",
                "4 0 5 5\n",
                "error: IndexOutOfRange: constraint endpoint (5, 5) is not a site\n",
            ),
        ],
        ids=["crossing", "through-site", "stray-endpoint"],
    )
    def test_invalid_constraints_exit_1(self, tmp_path, site_lines, constraint_lines, expected):
        sites = tmp_path / "bad.sites"
        sites.write_text("proxitri-sites 1\n" + site_lines)
        cons = tmp_path / "bad.cons"
        cons.write_text(constraint_lines)
        code, out, err = run_cli("triangulate", str(sites), "--constraints", str(cons))
        assert (code, out, err) == (1, "", expected)

    def test_collinear_exit_code(self, tmp_path):
        bad = tmp_path / "c.sites"
        bad.write_text(COLLINEAR)
        code, _, err = run_cli("triangulate", str(bad))
        assert code == 1
        assert "AllCollinear" in err

    @pytest.mark.parametrize("literal", ["1e5000", "1e10000000"])
    def test_exponent_literal_is_usage_error(self, tmp_path, literal):
        path = tmp_path / "exp.sites"
        path.write_text(f"proxitri-sites 1\n0 {literal}\n1 0\n0 1\n")
        start = perf_counter()
        code, out, err = run_cli("triangulate", str(path))
        assert perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == f"error: {path}:2: bad coordinate literal {literal!r}\n"

    @pytest.mark.parametrize("which", ["sites", "constraints"])
    def test_non_utf8_file_is_usage_error(self, tmp_path, which):
        sites = tmp_path / "r.sites"
        sites.write_text("proxitri-sites 1\n0 0\n4 0\n4 3\n0 3\n")
        cons = tmp_path / "r.cons"
        cons.write_text("4 0 0 3\n")
        bad = sites if which == "sites" else cons
        bad.write_bytes(bad.read_bytes() + b"# \xff\n")
        code, out, err = run_cli("triangulate", str(sites), "--constraints", str(cons))
        assert (code, out) == (2, "")
        assert "Traceback" not in err
        assert err.startswith(f"error: {bad}:0: not UTF-8 text")

    def test_missing_file_distinct_exit(self, tmp_path):
        code, _, _ = run_cli("triangulate", str(tmp_path / "nope.sites"))
        assert code == 2


class TestCheck:
    def test_all_suites_pass_on_fan(self, fan_file):
        code, out, _ = run_cli("check", fan_file, "--suite", "all")
        assert code == 0
        model = parse_document(out)
        statuses = {c["status"] for c in model["checks"]}
        assert statuses == {"pass"}
        assert "convex_region_fraction" in model["stats"]

    def test_lemma2_pass_counts(self, fan_file):
        code, out, _ = run_cli("check", fan_file, "--suite", "lemma2")
        model = parse_document(out)
        lemma = [c for c in model["checks"] if c["name"].startswith("lemma2/")]
        assert code == 0 and len(lemma) == 3
        assert all(c["status"] == "pass" for c in lemma)

    def test_square_degenerate_skip_not_fail(self, tmp_path):
        path = tmp_path / "sq.sites"
        path.write_text(SQUARE)
        code, out, _ = run_cli("check", str(path), "--suite", "lemma2")
        assert code == 0
        model = parse_document(out)
        statuses = [c["status"] for c in model["checks"]]
        assert "degenerate-skip" in statuses
        assert "fail" not in statuses

    def test_dual_suite(self, fan_file):
        code, out, _ = run_cli("check", fan_file, "--suite", "dual")
        assert code == 0
        model = parse_document(out)
        assert model["checks"] == [
            {"name": "dual/edge-definition", "status": "pass", "witness": "-"}
        ]


class TestRender:
    def test_overlay_svg_structure(self, fan_file, tmp_path):
        out = tmp_path / "fan.svg"
        code, _, _ = run_cli("render", fan_file, "--what", "overlay", "--out", str(out), "--quiet")
        assert code == 0
        svg = out.read_text()
        assert svg.startswith("<svg ") or svg.startswith("<svg\n")
        assert 'version="1.1"' in svg
        assert "xlink" not in svg and "href" not in svg  # no external references
        # 3 triangle outlines + frame; 6 dotted voronoi edges
        assert svg.count("<polygon") == 4
        assert svg.count("stroke-dasharray") == 6

    def test_single_triangle_voronoi(self, tmp_path):
        path = tmp_path / "t.sites"
        path.write_text("proxitri-sites 1\n0 0\n4 0\n0 4\n")
        out = tmp_path / "t.svg"
        code, _, _ = run_cli("render", str(path), "--what", "voronoi", "--out", str(out), "--quiet")
        assert code == 0
        svg = out.read_text()
        assert svg.count("<line") == 3  # three dotted rays
        assert svg.count('fill="#ffffff" stroke="#000000"') == 1  # open vertex dot

    def test_regions_shading(self, tmp_path):
        path = tmp_path / "s.sites"
        path.write_text("proxitri-sites 1\n0 0\n2 0\n4 0\n1 2\n3 2\n5 2\n")
        out = tmp_path / "s.svg"
        code, _, _ = run_cli("render", str(path), "--what", "regions", "--out", str(out), "--quiet")
        assert code == 0
        svg = out.read_text()
        fills = [l for l in svg.splitlines() if "<polygon" in l and 'fill="#' in l]
        assert len(fills) >= 3

    def test_byte_determinism(self, fan_file, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run_cli("render", fan_file, "--what", "overlay", "--out", str(a), "--quiet")
        run_cli("render", fan_file, "--what", "overlay", "--out", str(b), "--quiet")
        assert a.read_bytes() == b.read_bytes()


class TestQuery:
    def test_strong_triangles(self, fan_file):
        code, out, _ = run_cli("query", fan_file, "strong", "t:0", "t:1")
        assert code == 0
        q = parse_document(out)["queries"][0]
        assert q["verdict"] is True
        assert q["witness"].startswith("segment(")

    def test_near_edges_share_vertex(self, fan_file):
        code, out, _ = run_cli("query", fan_file, "near", "e:0-1", "e:1-3")
        assert code == 0
        q = parse_document(out)["queries"][0]
        assert q["verdict"] is True
        assert q["witness"] == "point(4,0)"

    def test_far_self_is_false(self, fan_file):
        code, out, _ = run_cli("query", fan_file, "far", "t:0", "t:0")
        assert code == 0
        assert parse_document(out)["queries"][0]["verdict"] is False

    def test_cell_pair(self, fan_file):
        code, out, _ = run_cli("query", fan_file, "strong", "v:0", "v:3")
        assert code == 0
        assert parse_document(out)["queries"][0]["verdict"] is True

    def test_cell_pair_builds_only_its_cells(self, fan_file, monkeypatch):
        import proxitri.voronoi

        built = []
        build = proxitri.voronoi._build_cell

        def counting_build(mesh, centers, frame, site):
            built.append(site)
            return build(mesh, centers, frame, site)

        monkeypatch.setattr(proxitri.voronoi, "_build_cell", counting_build)
        code, _, _ = run_cli("query", fan_file, "strong", "v:0", "v:3")
        assert code == 0
        assert sorted(built) == [0, 3]

    def test_unknown_selector(self, fan_file):
        code, _, err = run_cli("query", fan_file, "near", "t:99", "t:0")
        assert code == 2
        code, _, _ = run_cli("query", fan_file, "near", "e:0-2", "t:0")
        assert code == 0  # 0-2 is a hull edge of the fan mesh
        code, _, _ = run_cli("query", fan_file, "near", "e:1-2", "t:0")
        assert code == 0
        code, _, _ = run_cli("query", fan_file, "near", "x:1", "t:0")
        assert code == 2

    def test_negative_cell_selector_rejected(self, fan_file):
        # an id is ASCII digits; int() alone would accept most of these
        for selector in ("v:-1", "t: 0", "t:0\n", "t:1_0", "t:+0", "e:0- 1", "v:\t0"):
            for relation in ("near", "strong"):
                code, out, err = run_cli("query", fan_file, relation, selector, "v:3")
                assert code == 2
                assert out == ""
                assert repr(selector) in err

    def test_triangle_selectors_build_no_voronoi_diagram(self, fan_file, monkeypatch):
        import proxitri.voronoi

        def no_diagram(*args, **kwargs):
            raise AssertionError("voronoi_diagram called for t: selectors")

        monkeypatch.setattr(proxitri.voronoi, "voronoi_diagram", no_diagram)
        code, out, _ = run_cli("query", fan_file, "near", "t:0", "t:1")
        assert code == 0
        assert out == "proxitri-document 1\nquery near t:0 t:1 true segment(0,0;1,1)\n"
        # each selector is one token, so the record parses back unchanged
        assert render_document(parse_document(out)) == out

    def test_strong_mixed_kinds_unsupported(self, fan_file):
        code, _, err = run_cli("query", fan_file, "strong", "t:0", "v:1")
        assert code == 2
        assert "triangle or cell" in err
        # one triangle or one cell twice is a usage error as well
        for selector in ("t:1", "v:2"):
            code, out, err = run_cli("query", fan_file, "strong", selector, selector)
            assert code == 2
            assert out == ""
            assert "two distinct triangles or cells" in err

    def test_witness_too_long_to_print_is_usage_error(self, tmp_path):
        # Each literal is legal, but the shared edge of cells 0 and 1 ends
        # at a point with a 4503-digit integer in a coordinate.
        d = "1" + "0" * 1500
        path = tmp_path / "big.sites"
        path.write_text(f"proxitri-sites 1\n0 0\n{d} 1/3\n1/7 {d}\n{d} {d}7\n")
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        code, out, err = run_cli("query", str(path), "strong", "v:0", "v:1")
        if not limit or limit >= 4503:
            assert code == 0 and out.startswith("proxitri-document 1")
            return
        assert code == 2 and out == "" and "Traceback" not in err
        assert "4503-digit coordinate integer" in err and f"at most {limit} digits" in err
        with pytest.raises(InputError, match=f"{limit + 1}-digit"):
            str(Point._at(10**limit, 1, 1))


class TestGlobalFlags:
    def test_frame_flag(self, fan_file):
        code, out, _ = run_cli("--frame=-20,-20,20,20", "check", fan_file, "--suite", "lemma2")
        assert code == 0

    def test_frame_too_small_is_geometry_error(self, fan_file):
        code, _, err = run_cli("--frame", "0,0,4,4", "check", fan_file, "--suite", "lemma2")
        assert code == 1
        assert "FrameTooSmall" in err

    @pytest.mark.parametrize("suite", ["leader", "regions", "delaunay"])
    def test_mesh_suites_read_no_frame(self, tmp_path, suite):
        # The frame (0,0)-(1,1) holds no site strictly inside; only the
        # Voronoi suites read it.
        path = tmp_path / "tri.sites"
        path.write_text("proxitri-sites 1\n0 0\n2 0\n0 2\n")
        framed = run_cli("check", str(path), "--suite", suite, "--frame=0,0,1,1")
        assert framed == run_cli("check", str(path), "--suite", suite)
        assert framed[0] == 0
        code, _, err = run_cli("check", str(path), "--suite", "lemma2", "--frame=0,0,1,1")
        assert code == 1 and "FrameTooSmall" in err

    def test_flags_after_subcommand(self, fan_file):
        code, _, _ = run_cli("check", fan_file, "--suite", "dual", "--frame=-20,-20,20,20")
        assert code == 0

    @pytest.mark.parametrize("frame", ["garbage", "1,2", "", "0,0,0,1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "5", "--out", "-"],
            ["triangulate", "{sites}"],
            ["render", "{sites}", "--what", "delaunay", "--out", "{tmp}/d.svg"],
            ["render", "{sites}", "--what", "regions", "--out", "{tmp}/r.svg"],
            ["query", "{sites}", "near", "t:0", "e:0-1"],
            ["check", "{sites}", "--suite", "leader"],
            ["query", "{sites}", "strong", "v:0", "v:1"],
        ],
        ids=["gen", "triangulate", "render-delaunay", "render-regions", "query-t-e", "check", "query-v"],
    )
    def test_malformed_frame_is_usage_error(self, tmp_path, fan_file, argv, frame):
        args = [a.format(sites=fan_file, tmp=tmp_path) for a in argv]
        code, out, err = run_cli(*args, f"--frame={frame}")
        assert (code, out) == (2, "")
        if frame == "0,0,0,1":
            assert err == "error: rectangle must have positive width and height\n"
        else:
            assert err == f"error: frame needs x0,y0,x1,y1; got {frame!r}\n"
        assert not list(tmp_path.glob("*.svg"))

    def test_seed_range_enforced(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli("--seed", "-1", "gen", "5", "--out", str(tmp_path / "x"))


SRC = Path(__file__).resolve().parents[1] / "src"

# Runs `main` on argv[2:] in a fresh interpreter, then writes its exit code
# and the names in sys.modules, one a line, to the file argv[1].
_FOOTPRINT = """
import sys
from proxitri.cli import main
try:
    code = main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
with open(sys.argv[1], "w") as fh:
    fh.write("\\n".join([str(code), *sys.modules]))
"""


def fresh_python(tmp_path, *args) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        check=True,
    )


# Standard modules a command should load only when it uses them.
STDLIB_WATCHED = {"json", "dataclasses", "inspect"}


def footprint(tmp_path, *argv) -> tuple[int, set[str]]:
    """Exit code of one CLI run in a fresh interpreter, and the proxitri
    submodules (short names) plus the STDLIB_WATCHED modules it loaded."""
    listing = tmp_path / "modules.txt"
    fresh_python(tmp_path, "-c", _FOOTPRINT, str(listing), *argv)
    code, *modules = listing.read_text().split("\n")
    return int(code), {
        m.removeprefix("proxitri.")
        for m in modules
        if m.startswith("proxitri.") or m in STDLIB_WATCHED
    }


COMPUTATIONAL = {
    "checks", "delaunay", "generate", "geometry", "io", "proximity", "regions", "render", "voronoi",
}

# The names `proxitri` exports: those it exported when its __init__
# imported every submodule, less the wrappers and modes no command ran.
EXPORTS = {
    "delaunay": (
        "ConstraintSet SiteSet TriMesh adjacency constrained_triangulate "
        "is_locally_delaunay triangulate"
    ),
    "errors": (
        "AllCollinear BadCount CollinearInput ConstraintThroughSite CrossingConstraints "
        "DegenerateIntersection DuplicateSite FrameTooSmall GeometryError IndexOutOfRange "
        "InputError MixedMeshes NonConvexInput NotCCW ParseError TooFewSites UnionHasHole "
        "UnknownEdge UnknownSelector UnwritablePath"
    ),
    "geometry": (
        "Orientation Point PointLocation Polygon Rect Segment convex_closed_intersection "
        "convex_hull is_convex_polygon locate_point orientation"
    ),
    "proximity": "ProximityVerdict near",
    "regions": (
        "Region extract_regions is_region_convex leader_neighborhoods "
        "proximal_region_pairs region_common_intersection region_union_polygon"
    ),
    "voronoi": "VoronoiDiagram common_vertex default_frame voronoi_diagram",
}
# Exported until the library dropped them; each must now be missing.
REMOVED = (
    "CellEdge CircumCircle CirclePosition LeaderNeighborhood Relation VoronoiCell "
    "cells_strongly_near circumcircle connected_components convex_polygon_intersection "
    "distance_sq far in_circumcircle is_constrained_delaunay_edge is_delaunay_edge "
    "is_delaunay_triangle is_visible segment_intersection strongly_near_triangles "
    "triangles_near"
)
SUBMODULES = COMPUTATIONAL | {"choices", "cli", "errors"}


class TestImportFootprint:
    @pytest.mark.parametrize(
        "argv,unloaded",
        [
            (["--version"], COMPUTATIONAL),
            (
                ["gen", "24", "--out", "g.sites"],
                {"checks", "delaunay", "proximity", "regions", "voronoi", "render"},
            ),
            (["triangulate", "{sites}"], {"checks", "proximity", "regions", "voronoi", "render"}),
            (
                ["query", "{sites}", "near", "t:0", "t:1"],
                {"voronoi", "regions", "checks", "render", "generate"},
            ),
            (
                ["query", "{sites}", "far", "e:0-1", "e:1-3"],
                {"voronoi", "regions", "checks", "render", "generate"},
            ),
            (
                ["query", "{sites}", "strong", "t:0", "t:1"],
                {"voronoi", "regions", "checks", "render", "generate"},
            ),
            (
                ["render", "{sites}", "--what", "delaunay", "--out", "d.svg"],
                {"regions", "proximity", "voronoi", "checks", "generate"},
            ),
            (
                ["render", "{sites}", "--what", "regions", "--out", "r.svg"],
                {"checks", "generate", "proximity"},
            ),
            (
                ["query", "{sites}", "strong", "v:0", "v:1"],
                {"regions", "checks", "render", "generate"},
            ),
        ],
        ids=[
            "version", "gen", "triangulate", "query-t", "query-e", "query-strong-t",
            "render-delaunay", "render-regions", "query-v",
        ],
    )
    def test_command_leaves_modules_unloaded(self, tmp_path, fan_file, argv, unloaded):
        code, loaded = footprint(tmp_path, *(a.format(sites=fan_file) for a in argv))
        assert code == 0
        assert not loaded & (unloaded | STDLIB_WATCHED)

    def test_json_and_every_module_load_when_used(self, tmp_path, fan_file):
        # the probe sees what a command loads: check runs every module, and
        # the value classes it builds need neither dataclasses nor inspect
        code, loaded = footprint(tmp_path, "--format", "json-like", "check", fan_file)
        assert code == 0
        assert loaded >= (COMPUTATIONAL - {"generate", "render"}) | {"json"}
        assert not loaded & {"dataclasses", "inspect"}

    def test_import_proxitri_loads_no_submodule(self, tmp_path):
        done = fresh_python(
            tmp_path,
            "-c",
            "import sys, proxitri; print(sorted(m for m in sys.modules if m.startswith('proxitri.')))",
        )
        assert done.stdout == "[]\n"

    def test_every_old_export_resolves(self):
        for module, names in EXPORTS.items():
            for name in names.split():
                assert getattr(proxitri, name) is getattr(import_module(f"proxitri.{module}"), name)
                assert name in proxitri.__all__ and name in dir(proxitri)
        assert set(proxitri.__all__) == {name for names in EXPORTS.values() for name in names.split()}
        for module in SUBMODULES:
            assert getattr(proxitri, module) is import_module(f"proxitri.{module}")
        for name in ["no_such_name", *REMOVED.split()]:
            with pytest.raises(AttributeError):
                getattr(proxitri, name)
        assert not hasattr(proxitri.io, "mesh_from_document")

    @staticmethod
    def _readme_tour() -> str:
        readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
        return readme.partition("\n## Library tour\n")[2].partition("\n## ")[0]

    def test_readme_library_tour_names_every_export(self):
        tour = self._readme_tour()
        assert [name for name in proxitri.__all__ if f"`{name}`" not in tour] == []

    def test_readme_library_tour_runs(self):
        code = self._readme_tour().partition("```python\n")[2].partition("```")[0]
        namespace: dict = {}
        exec(code, namespace)
        assert namespace["mesh"].triangles == ((0, 1, 3), (0, 3, 2), (1, 2, 3))
        (shared_edge,) = [line for line in code.splitlines() if "# True: they share a full edge" in line]
        assert eval(shared_edge.partition("#")[0], namespace) is True
        assert namespace["verdict"].witness == Point(1, 1)

    def test_star_import(self):
        namespace: dict = {}
        exec("from proxitri import *", namespace)
        for names in EXPORTS.values():
            for name in names.split():
                assert namespace[name] is getattr(proxitri, name)
