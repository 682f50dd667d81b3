"""The contract of the eleven value classes: equality and hash by their
compared fields (a Point's by its row), immutability, and pickle / copy
round trips. Cache slots (a Voronoi diagram's cells and disk answers)
take no part in any of these."""

import copy
import pickle

import pytest

from proxitri.checks import CheckResult
from proxitri.delaunay import ConstraintSet, SiteSet, TriMesh, triangulate
from proxitri.geometry import Point, Polygon, Rect, Segment
from proxitri.proximity import ProximityVerdict
from proxitri.regions import Region
from proxitri.voronoi import VoronoiDiagram, voronoi_diagram

FAN = [(0, 0), (4, 0), (0, 4), (1, 1)]


def _sites():
    return SiteSet(points=[Point(x, y) for x, y in FAN])


def _diagram():
    d = voronoi_diagram(_sites())
    return VoronoiDiagram(
        sites=d.sites, mesh=d.mesh, frame=d.frame, vertices=d.vertices, _cell_of=d._cell_of
    )


# class -> (a factory that builds a fresh value, its compared fields); the
# factories pass every argument by its public name.
VALUES = {
    Point: (lambda: Point(x=1, y="1/2"), ("x", "y")),
    Segment: (lambda: Segment(a=Point(0, 0), b=Point(1, 2)), ("a", "b")),
    Polygon: (lambda: Polygon(vertices=(Point(4, 0), Point(0, 4), Point(0, 0))), ("vertices",)),
    Rect: (lambda: Rect(x0=0, y0="-1/2", x1=4, y1=3), ("x0", "y0", "x1", "y1")),
    SiteSet: (_sites, ("points",)),
    ConstraintSet: (
        lambda: ConstraintSet(segments=[Segment(Point(0, 0), Point(1, 1))]),
        ("segments",),
    ),
    TriMesh: (lambda: triangulate(_sites()), ("sites", "triangles", "constrained")),
    VoronoiDiagram: (_diagram, ("sites", "mesh", "frame", "vertices")),
    Region: (lambda: Region(mesh=triangulate(_sites()), triangles={0, 1}), ("mesh", "triangles")),
    ProximityVerdict: (
        lambda: ProximityVerdict(witness=Segment(Point(0, 0), Point(1, 1)), strongly=True),
        ("witness", "strongly"),
    ),
    CheckResult: (
        lambda: CheckResult(name="lemma2/triangle-0", status="pass"),
        ("name", "status", "witness"),
    ),
}
FROZEN = [cls for cls in VALUES if cls is not CheckResult]
PICKLED = [cls for cls in VALUES if cls is not VoronoiDiagram]


def _fields(value, names):
    return tuple(getattr(value, name) for name in names)


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_equal_values_compare_equal(cls):
    make, names = VALUES[cls]
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert _fields(a, names) == _fields(b, names)
    assert a != object() and a != _fields(a, names)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_hash_is_the_hash_of_the_compared_fields(cls):
    make, names = VALUES[cls]
    a, b = make(), make()
    # A Point compares its canonical row, so it hashes the row.
    compared = a.row if cls is Point else _fields(a, names)
    assert hash(a) == hash(b) == hash(compared)
    assert len({a, b}) == 1


def test_filled_cache_slots_take_no_part():
    filled, fresh = _diagram(), _diagram()
    shown = (hash(fresh), repr(fresh))
    filled.cells
    filled._disk(filled.vertices[0], 0)
    for cache in ("_cell_of", "_disk"):
        assert getattr(filled, cache).cache_info().currsize > 0
        assert getattr(fresh, cache).cache_info().currsize == 0
    assert filled == fresh and (hash(filled), repr(filled)) == shown == (hash(fresh), repr(fresh))


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    make, names = VALUES[cls]
    value = make()
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == make()


@pytest.mark.parametrize("cls", PICKLED, ids=lambda cls: cls.__name__)
def test_pickle_and_deepcopy_round_trip(cls):
    make, names = VALUES[cls]
    value = make()
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(twin) is cls and twin == value
        assert _fields(twin, names) == _fields(value, names)


def test_diagram_copies_share_cell_cache():
    # The cell cache is a closure, so the diagram does not pickle; copies
    # keep it and build the same cells.
    diagram = _diagram()
    for twin in (copy.deepcopy(diagram), copy.copy(diagram)):
        assert twin == diagram
        assert twin.cells == diagram.cells


def test_check_result_stays_mutable_and_unhashable():
    record = CheckResult("delaunay/euler-counts", "pass")
    assert record.witness == "-"
    record.status, record.witness = "fail", "n=4,h=3,t=2,e=5"
    assert record == CheckResult("delaunay/euler-counts", "fail", "n=4,h=3,t=2,e=5")
    with pytest.raises(TypeError):
        hash(record)


def test_repr_names_the_compared_fields():
    assert repr(Point(1, "1/2")) == "Point(x=Fraction(1, 1), y=Fraction(1, 2))"
    assert repr(ProximityVerdict()) == "ProximityVerdict(witness=None, strongly=False)"
    assert repr(CheckResult("a", "pass")) == "CheckResult(name='a', status='pass', witness='-')"
    assert repr(_diagram()).startswith("VoronoiDiagram(sites=SiteSet(points=(Point(x=")
    assert "_cell_of" not in repr(_diagram()) and "_convex" not in repr(VALUES[Polygon][0]())
