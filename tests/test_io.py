from fractions import Fraction
from functools import partial

import pytest

from proxitri.checks import _check_lemma2, _check_regions, _triangle_vertex
from proxitri.choices import DISTRIBUTIONS
from proxitri.cli import main
from proxitri.delaunay import SiteSet, TriMesh, triangulate
from proxitri.errors import ParseError
from proxitri.generate import generate_sites
from proxitri.geometry import Point, Polygon, Segment
from proxitri.io import (
    SCHEMA,
    coord_literal,
    document_for_mesh,
    format_site_file,
    geometry_literal,
    parse_constraint_file,
    parse_document,
    parse_frame,
    parse_geometry_literal,
    parse_site_file,
    render_document,
)
from proxitri.regions import Region
from proxitri.voronoi import VoronoiDiagram, voronoi_diagram

from oracles import fraction_distance_sq


class TestCoordLiterals:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (Fraction(5), "5"),
            (Fraction(-3), "-3"),
            (Fraction(5, 4), "1.25"),
            (Fraction(-1, 8), "-0.125"),
            (Fraction(1, 10), "0.1"),
            (Fraction(1, 3), "1/3"),
        ],
    )
    def test_rendering(self, value, expected):
        assert coord_literal(value) == expected
        assert Fraction(expected) == value  # always parses back exactly


class TestSiteFiles:
    def test_round_trip(self):
        points = generate_sites(12, 3, "uniform")
        text = format_site_file(points, "demo")
        sites = parse_site_file(text)
        assert sites.points == tuple(points)

    def test_comments_and_blanks_ignored(self):
        text = "# heading\n\nproxitri-sites 1\n# note\n0 0\n\n1 2.5\n"
        sites = parse_site_file(text)
        assert sites.points == (Point(0, 0), Point(1, "2.5"))

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_site_file("0 0\n1 1\n")

    def test_duplicate_reports_line(self):
        text = "proxitri-sites 1\n0 0\n1 1\n0 0\n"
        with pytest.raises(ParseError) as err:
            parse_site_file(text, "x.sites")
        assert "x.sites:4" in str(err.value)
        # equal values written differently are one site
        for half in ("0.5", "1/2", "0.50", Fraction(1, 2)):
            text = f"proxitri-sites 1\n0.5 0\n1 1\n{half} 0\n"
            with pytest.raises(ParseError) as err:
                parse_site_file(text, "x.sites")
            assert str(err.value) == "x.sites:4: duplicate site (1/2, 0) (first at line 2)"

    def test_bad_literal_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_site_file("proxitri-sites 1\n0 zero\n")
        assert ":2" in str(err.value)

    @pytest.mark.parametrize("literal", ["1e3", "1E3", "-2.5e-1", "1e5000", "1e10000000"])
    def test_exponent_literal_rejected(self, literal):
        with pytest.raises(ParseError, match="bad coordinate literal") as err:
            parse_site_file(f"proxitri-sites 1\n0 {literal}\n")
        assert ":2" in str(err.value)
        with pytest.raises(ValueError):
            Point(literal, 0)

    # Fraction takes "_" only on Python 3.11+ and non-ASCII digits on every
    # version; the grammar rejects both on every version, as it does a
    # decimal numerator and a bare point.
    @pytest.mark.parametrize("literal", ["1_000", "1_0.5", "1/2_0", "١٢", "１", "1.5/2", "."])
    def test_literal_outside_grammar_rejected(self, literal):
        with pytest.raises(ParseError, match="bad coordinate literal") as err:
            parse_site_file(f"proxitri-sites 1\n0 0\n{literal} 1\n")
        assert ":3:" in str(err.value)
        with pytest.raises(ValueError):
            Point(literal, 0)

    def test_long_plain_literal_rejected(self):
        with pytest.raises(ParseError, match="bad coordinate literal"):
            parse_site_file("proxitri-sites 1\n0 " + "1" * 5000 + "\n")

    def test_constraint_file(self):
        cs = parse_constraint_file("# c\n0 0 4 3\n1 1 2 2\n")
        assert len(cs) == 2
        assert cs.segments[0] == Segment(Point(0, 0), Point(4, 3))

    def test_frame_spec(self):
        rect = parse_frame("-1,-2.5,10,20")
        assert (rect.x0, rect.y0, rect.x1, rect.y1) == (
            Fraction(-1),
            Fraction(-5, 2),
            Fraction(10),
            Fraction(20),
        )
        with pytest.raises(ParseError):
            parse_frame("1,2,3")


class TestGeometryLiterals:
    @pytest.mark.parametrize(
        "geom",
        [
            None,
            Point("0.5", 2),
            Segment(Point(0, 0), Point("1.5", "2.25")),
            Polygon((Point(0, 0), Point(4, 0), Point(0, 4))),
        ],
    )
    def test_round_trip(self, geom):
        assert parse_geometry_literal(geometry_literal(geom)) == geom


def assert_document_is_lossless(mesh: TriMesh) -> None:
    """Both renderings of the mesh's document parse back to the identical
    model, and the model holds the mesh's sites, triangles and constrained
    pairs (as constraint records and as edge flags)."""
    doc = document_for_mesh(mesh)
    for fmt in ("document", "json-like"):
        assert parse_document(render_document(doc, fmt)) == doc
    assert doc["triangles"] == [list(t) for t in mesh.triangles]
    assert SiteSet.of(doc["sites"]) == mesh.sites
    flagged = [[e["a"], e["b"]] for e in doc["edges"] if e["constrained"]]
    expected = [list(e) for e in sorted(mesh.constrained)]
    assert doc.get("constraints", []) == flagged == expected


class TestDocuments:
    def build_model(self):
        sites = SiteSet.of([(0, 0), (4, 0), (0, 4), (1, 1)])
        mesh = triangulate(sites)
        model = document_for_mesh(mesh)
        model["queries"] = [
            {
                "relation": "strong",
                "a": "t:0",
                "b": "t:1",
                "verdict": True,
                "witness": geometry_literal(Segment(Point(0, 0), Point(1, 1))),
            }
        ]
        model["checks"] = [{"name": "demo/x", "status": "pass", "witness": "-"}]
        model["stats"] = {"convex_region_fraction": "1"}
        return mesh, model

    def test_document_round_trip(self):
        _, model = self.build_model()
        text = render_document(model, "document")
        assert text.startswith("proxitri-document 1\n")
        assert parse_document(text) == model

    def test_json_round_trip(self):
        _, model = self.build_model()
        text = render_document(model, "json-like")
        assert parse_document(text) == model

    def test_mesh_reconstruction(self):
        mesh, _ = self.build_model()
        assert_document_is_lossless(mesh)

    def test_constrained_mesh_reconstruction(self):
        from proxitri.delaunay import ConstraintSet, constrained_triangulate

        sites = SiteSet.of([(0, 0), (4, 0), (4, 3), (0, 3)])
        mesh = constrained_triangulate(sites, ConstraintSet.of([(4, 0, 0, 3)]))
        assert mesh.constrained == {(1, 3)}
        assert_document_is_lossless(mesh)

    def test_every_triangulation_round_trips(self, corpus, degenerate_corpus):
        # Includes collinear hull runs (collinear-heavy) and cocircular sets.
        for entry in corpus + degenerate_corpus:
            assert_document_is_lossless(entry.mesh)

    def test_malformed_json_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_document('{"schema": "proxitri-document/1",\n "sites": [}', "doc.json")
        assert info.value.path == "doc.json"
        assert info.value.line == 2

    def test_schema_mismatch_rejected(self):
        with pytest.raises(ParseError):
            parse_document('{"schema": "other/9"}')
        with pytest.raises(ParseError):
            parse_document("unexpected 1\n")


class TestCheckWitnesses:
    def round_trip(self, results):
        model = {
            "schema": SCHEMA,
            "checks": [
                {"name": r.name, "status": r.status, "witness": r.witness} for r in results
            ],
        }
        assert parse_document(render_document(model)) == model

    def test_lemma2_failure_on_flipped_diagonal(self):
        # the quad's non-Delaunay diagonal: neither triangle's circumcenter
        # is a vertex of the true diagram
        sites = SiteSet.of([(0, 0), (4, 0), (4, 3), (0, "3.5")])
        bad = TriMesh(sites, ((0, 1, 3), (1, 2, 3)), frozenset())
        diagram = voronoi_diagram(sites)
        centers = tuple(bad.circumcenter(t) for t in range(len(bad)))
        faulty = VoronoiDiagram(sites, bad, diagram.frame, centers, diagram._cell_of)
        results = _check_lemma2(faulty, partial(_triangle_vertex, faulty))
        assert [r.status for r in results] == ["fail", "fail"]
        assert results[0].witness == "circumcenter-point(2,1.75)!=vertex--"
        self.round_trip(results)

    def test_regions_cover_failure(self, fan_mesh, monkeypatch):
        # extract_regions covers every triangle of any mesh, so a stub that
        # keeps only triangle 0 stands in for a faulty extraction
        monkeypatch.setattr(
            "proxitri.checks.extract_regions", lambda mesh: [Region(mesh, {0})]
        )
        results, _ = _check_regions(fan_mesh)
        cover = [r for r in results if r.name == "regions/cover"]
        assert cover[0].status == "fail" and cover[0].witness == "missing-1,2"
        self.round_trip(results)

    @pytest.mark.parametrize(
        ("kept", "witness"),
        [({0}, "region-0:not-maximal:misses-1"), ({1, 2}, "region-0:not-maximal:misses-0")],
    )
    def test_regions_maximality_failure(self, fan_mesh, monkeypatch, kept, witness):
        # the fan's three triangles share edges pairwise, so any smaller
        # region misses a triangle; the witness names the lowest one
        monkeypatch.setattr(
            "proxitri.checks.extract_regions", lambda mesh: [Region(mesh, kept)]
        )
        results, _ = _check_regions(fan_mesh)
        maximal = [r for r in results if r.name == "regions/maximal-cliques"]
        assert maximal[0].status == "fail" and maximal[0].witness == witness
        self.round_trip(results)

    @pytest.mark.parametrize(
        "record",
        [
            "check demo/x fail circumcenter-(1, 2)",
            "query near t:0 t:1 true point(1,2) extra",
            "triangle 0 0 1 2 3",
            "stat regions 5 extra",
        ],
    )
    def test_extra_tokens_rejected(self, record):
        with pytest.raises(ParseError):
            parse_document(f"proxitri-document 1\n{record}\n")


class TestGenerator:
    def test_deterministic(self):
        a = generate_sites(20, 5, "clustered")
        b = generate_sites(20, 5, "clustered")
        assert a == b

    def test_distinct_points(self):
        for dist in ("uniform", "clustered", "cocircular", "collinear-heavy"):
            pts = generate_sites(24, 11, dist)
            assert len(set(pts)) == 24

    def test_cocircular_mode_places_exact_circle_points(self):
        from proxitri.generate import COCIRCULAR_CENTER, COCIRCULAR_RADIUS

        pts = generate_sites(8, 7, "cocircular")
        center = Point(*COCIRCULAR_CENTER)
        on_circle = [
            p for p in pts if fraction_distance_sq(p, center) == COCIRCULAR_RADIUS**2
        ]
        assert len(on_circle) >= 4

    def test_collinear_heavy_triangulates(self):
        sites = SiteSet(tuple(generate_sites(15, 3, "collinear-heavy")))
        mesh = triangulate(sites)
        assert len(mesh) > 0

    def test_bad_count(self):
        from proxitri.errors import BadCount

        with pytest.raises(BadCount):
            generate_sites(2, 0, "uniform")

    def test_count_beyond_the_distribution_rejected(self):
        from proxitri.errors import BadCount

        # 1001 distinct circle parameters: n // 2 of them fit up to n = 2003
        assert len(generate_sites(2003, 0, "cocircular")) == 2003
        with pytest.raises(BadCount):
            generate_sites(2004, 0, "cocircular")
        # three lines of 10001 grid points each, plus the apex
        with pytest.raises(BadCount):
            generate_sites(3 * 10_001 + 2, 0, "collinear-heavy")

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    def test_small_counts_write_exactly_n_sites(self, distribution, capsys):
        # cocircular promises four sites on its circle, so three is a usage
        # error with no output rather than a fourth site
        for n in range(3, 13):
            code = main(["gen", str(n), "--distribution", distribution, "--out", "-"])
            out = capsys.readouterr().out
            if distribution == "cocircular" and n < 4:
                assert (code, out) == (2, "")
            else:
                assert code == 0
                assert len(parse_site_file(out)) == n

    def test_collinear_heavy_capacity_counts_shared_points_once(self):
        from proxitri.generate import _grid_points_on_lines

        F = Fraction
        for lines in (
            [(F(0), F(1)), (F(2), F(-1)), (F(1), F(0))],  # all three meet at (1, 1)
            [(F(1), F(1)), (F(1), F(1)), (F(3), F(-1))],  # a repeated line
        ):
            grid = [F(k, 100) for k in range(100 * 100 + 1)]
            points = {(x, a + b * x) for a, b in lines for x in grid}
            assert _grid_points_on_lines(lines) == len(points)
