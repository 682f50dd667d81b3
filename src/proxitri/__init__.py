"""Exact 2D Delaunay/Voronoi toolkit with proximity relations.

Constructs Delaunay and constrained Delaunay triangulations and their
Voronoi duals over exact rational coordinates, evaluates near/far/strongly
near relations with witnesses, extracts pairwise edge-adjacent triangle
regions, and ships a CLI for generation, checking, querying and rendering.
"""

from .delaunay import (
    ConstraintSet,
    SiteSet,
    TriMesh,
    adjacency,
    constrained_triangulate,
    is_constrained_delaunay_edge,
    is_delaunay_edge,
    is_delaunay_triangle,
    is_locally_delaunay,
    is_visible,
    triangulate,
)
from .errors import (
    AllCollinear,
    BadCount,
    CollinearInput,
    ConstraintThroughSite,
    CrossingConstraints,
    DegenerateIntersection,
    DuplicateSite,
    FrameTooSmall,
    GeometryError,
    IndexOutOfRange,
    InputError,
    MixedMeshes,
    NonConvexInput,
    NotCCW,
    ParseError,
    TooFewSites,
    UnionHasHole,
    UnknownEdge,
    UnknownSelector,
    UnwritablePath,
)
from .geometry import (
    CirclePosition,
    CircumCircle,
    Orientation,
    Point,
    PointLocation,
    Polygon,
    Rect,
    Segment,
    circumcircle,
    convex_closed_intersection,
    convex_hull,
    convex_polygon_intersection,
    distance_sq,
    in_circumcircle,
    is_convex_polygon,
    locate_point,
    orientation,
    segment_intersection,
)
from .proximity import (
    ProximityVerdict,
    Relation,
    far,
    near,
    strongly_near_triangles,
    triangles_near,
)
from .regions import (
    LeaderNeighborhood,
    Region,
    connected_components,
    extract_regions,
    is_region_convex,
    leader_neighborhoods,
    proximal_region_pairs,
    region_common_intersection,
    region_union_polygon,
)
from .voronoi import (
    CellEdge,
    VoronoiCell,
    VoronoiDiagram,
    cells_strongly_near,
    common_vertex,
    default_frame,
    voronoi_diagram,
)

__version__ = "0.1.0"
