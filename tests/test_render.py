import hashlib
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from proxitri.delaunay import ConstraintSet, SiteSet, constrained_triangulate, triangulate
from proxitri.generate import generate_sites
from proxitri.geometry import Point
from proxitri.render import WHAT_CHOICES, _Mapper, render_svg
from proxitri.voronoi import voronoi_diagram

from conftest import EXACTLY_COCIRCULAR
from oracles import FractionMapper

CONSTRAINED_SITES = [(0, 0), (6, 0), (6, 5), (0, 5), (1, 2), (5, 3), (3, 1), (3, 4)]
CONSTRAINED_SEGMENTS = [(1, 2, 5, 3)]


def render_inputs():
    """(sites, mesh) per pinned input; the constrained mesh is drawn with
    the Voronoi diagram of its unconstrained sites."""
    out = {}
    for name, distribution in (("uniform", "uniform"), ("collinear", "collinear-heavy")):
        sites = SiteSet(tuple(generate_sites(20, 3, distribution)))
        out[name] = (sites, None)
    out["lattice"] = (SiteSet.of(EXACTLY_COCIRCULAR[0]), None)
    sites = SiteSet.of(CONSTRAINED_SITES)
    out["constrained"] = (sites, constrained_triangulate(sites, ConstraintSet.of(CONSTRAINED_SEGMENTS)))
    return out


def render_all(sites, mesh, what):
    if what in ("voronoi", "overlay"):
        diagram = voronoi_diagram(sites)
        return render_svg(what, mesh or diagram.mesh, diagram)
    return render_svg(what, mesh or triangulate(sites))


# SHA-256 of each SVG, recorded from the Fraction screen mapping. Integer
# mapping, corner order and edge deduplication must leave every byte as is.
PINNED = {
    "uniform/delaunay": "9212e9371689e0cbc2c0fe51719b4972206d659e6334cb87a913232fa90842e8",
    "uniform/voronoi": "129428e53ebd2aa9438bf46224958b12bd92bd773f561f71320a4ecb1bd4fc28",
    "uniform/overlay": "b7ba41901718cd78231793ae66c9d68c99e5f96ac8386fde775ed8515c8537f9",
    "uniform/regions": "484f08418f8bb8cdc5680dec9ac61343ec17d30e02b06c299307ebbf747d1876",
    "collinear/delaunay": "2334ca5a799d69cbb10c720e7a816368ff72353b6ec66f74ec05be49f3212a23",
    "collinear/voronoi": "7a4a6d5fa430f5a39a89a2475cebc278724f5bb75c5a8e8c1dac94a23795990d",
    "collinear/overlay": "6fe13cd6097d457c7bb4600aaabfdb04cb95e155a5c17d26121b278dd3164c73",
    "collinear/regions": "e431175f50287dfbf6b0e0d485be7f38ff976d84332c94cf528dcb883e0345e8",
    "lattice/delaunay": "891ed0c68f2329f3f6d5655a3c04d839857ba63bee6b6ba4e29e2790e917592e",
    "lattice/voronoi": "d7a880c6d3dbc1555ba17d27833556c765d338a8d28cd5e7e32dd9b285b50b56",
    "lattice/overlay": "9906a3a3903aa42836fae9fcf0eff01439dbf757b53c6191e269d0dea31699c1",
    "lattice/regions": "63b945d97d5f45dcd09affe42028326db84e465f6b736e34f6ca9f87c7b05ecc",
    "constrained/delaunay": "8efd990501460e1d630985a3725dd03c14c7349e52607362a455b4f33fbb4bd2",
    "constrained/voronoi": "5b78bbe435d8d9d4b0ebe628aca773aacf81c7cbfec1e7e825e3af85fc08fc72",
    "constrained/overlay": "54fd2657a4dd0dbf910f126971efdf7b3db676eac22239540524318cb1088d39",
    "constrained/regions": "55c4bfd90ca08e6625938454f8cf6e1eeddb8aab7c3bbe8ca212163858ca8d1d",
}


class TestPinnedBytes:
    @pytest.mark.parametrize("name", ["uniform", "collinear", "lattice", "constrained"])
    @pytest.mark.parametrize("what", WHAT_CHOICES)
    def test_svg_digest(self, name, what):
        sites, mesh = render_inputs()[name]
        svg = render_all(sites, mesh, what)
        assert hashlib.sha256(svg.encode()).hexdigest() == PINNED[f"{name}/{what}"]

    def test_constrained_edge_is_drawn(self):
        sites, mesh = render_inputs()["constrained"]
        assert render_svg("delaunay", mesh).count('stroke="#aa0000"') == 1


rationals = st.builds(Fraction, st.integers(-(10**9), 10**9), st.integers(1, 10**6))
spans = st.builds(Fraction, st.integers(0, 10**9), st.integers(1, 10**6))


class TestMapper:
    @given(rationals, rationals, spans, spans, st.lists(st.tuples(rationals, rationals), max_size=6))
    def test_matches_fraction_mapper(self, x0, y0, w, h, coords):
        box = (x0, y0, x0 + w, y0 + h)
        m, ref = _Mapper(*box), FractionMapper(*box)
        # corners of the box, and points anywhere (negative screen values too)
        for x, y in [(x0, y0), (x0 + w, y0 + h), *coords]:
            p = Point(x, y)
            assert m.point(p) == ref.point(p)

    @given(st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6), st.integers(1, 50))
    def test_half_even_ties(self, i, j, k):
        # A 592-unit box maps one world unit to one pixel from the margin,
        # so x = (2i + 1) / 200 lands exactly on a .xx5 tie; the k/k form
        # gives the point a second, unreduced denominator to cancel.
        box = (Fraction(0), Fraction(0), Fraction(592), Fraction(592))
        m, ref = _Mapper(*box), FractionMapper(*box)
        p = Point(Fraction((2 * i + 1) * k, 200 * k), Fraction(2 * j + 1, 200 * 3))
        assert m.point(p) == ref.point(p)

    def test_hand_computed_ties(self):
        m = _Mapper(Fraction(0), Fraction(0), Fraction(592), Fraction(592))
        # 24 + 0.005 -> 24.00 (even), 24 + 0.015 -> 24.02, 24 - 24.125 -> -0.12
        assert m.point(Point(Fraction(1, 200), 592))[0] == "24.00"
        assert m.point(Point(Fraction(3, 200), 592))[0] == "24.02"
        assert m.point(Point(Fraction(-24125, 1000), 592))[0] == "-0.12"
