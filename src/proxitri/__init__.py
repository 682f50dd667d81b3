"""Exact 2D Delaunay/Voronoi toolkit with proximity relations.

Constructs Delaunay and constrained Delaunay triangulations and their
Voronoi duals over exact rational coordinates, evaluates near/far/strongly
near relations with witnesses, extracts pairwise edge-adjacent triangle
regions, and ships a CLI for generation, checking, querying and rendering.

Importing the package loads no submodule. Each name in `__all__`, and each
submodule reached as an attribute, is imported on first access (PEP 562),
so a CLI command loads only the modules it runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "delaunay": (
        "ConstraintSet",
        "SiteSet",
        "TriMesh",
        "adjacency",
        "constrained_triangulate",
        "is_locally_delaunay",
        "triangulate",
    ),
    "errors": (
        "AllCollinear",
        "BadCount",
        "CollinearInput",
        "ConstraintThroughSite",
        "CrossingConstraints",
        "DegenerateIntersection",
        "DuplicateSite",
        "FrameTooSmall",
        "GeometryError",
        "IndexOutOfRange",
        "InputError",
        "MixedMeshes",
        "NonConvexInput",
        "NotCCW",
        "ParseError",
        "TooFewSites",
        "UnionHasHole",
        "UnknownEdge",
        "UnknownSelector",
        "UnwritablePath",
    ),
    "geometry": (
        "Orientation",
        "Point",
        "PointLocation",
        "Polygon",
        "Rect",
        "Segment",
        "convex_closed_intersection",
        "convex_hull",
        "is_convex_polygon",
        "locate_point",
        "orientation",
    ),
    "proximity": (
        "ProximityVerdict",
        "near",
        "strongly_near_triangles",
        "triangles_near",
    ),
    "regions": (
        "Region",
        "extract_regions",
        "is_region_convex",
        "leader_neighborhoods",
        "proximal_region_pairs",
        "region_common_intersection",
        "region_union_polygon",
    ),
    "voronoi": (
        "VoronoiDiagram",
        "common_vertex",
        "default_frame",
        "voronoi_diagram",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (
    "checks", "choices", "cli", "delaunay", "errors", "generate",
    "geometry", "io", "proximity", "regions", "render", "voronoi",
)

__all__ = list(_ORIGIN)


def __getattr__(name: str):
    # Not cached in the package namespace: each access reads the submodule's
    # current binding, as `from .module import name` in a function body does.
    if name in _ORIGIN:
        return getattr(_import_module(f".{_ORIGIN[name]}", __name__), name)
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
