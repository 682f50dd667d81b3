"""Exception hierarchy shared across the package.

Geometry errors (exit code 1 territory in the CLI) all derive from
GeometryError; input/usage problems derive from InputError.
"""


class GeometryError(Exception):
    """Base for errors raised by geometric constructions and queries."""


class CollinearInput(GeometryError):
    """Three collinear points where a proper triangle was required."""


class NotCCW(GeometryError):
    """A point triple that had to be counterclockwise was not."""


class NonConvexInput(GeometryError):
    """A polygon argument failed the convexity requirement."""


class TooFewSites(GeometryError):
    """Fewer than three sites were supplied for triangulation."""


class AllCollinear(GeometryError):
    """All sites lie on one line; no triangulation exists."""


class DuplicateSite(GeometryError):
    """The same point appears twice in a site set."""


class IndexOutOfRange(GeometryError):
    """A site/triangle/edge index does not resolve (a constraint endpoint
    that is not a site among them), or indices coincide where distinct
    ones are required."""


class UnknownEdge(GeometryError):
    """An edge query named a vertex pair that is not a mesh edge."""


class CrossingConstraints(GeometryError):
    """Two constraint segments intersect in their interiors."""


class ConstraintThroughSite(GeometryError):
    """A constraint segment passes through a third site's interior."""


class FrameTooSmall(GeometryError):
    """The clip frame does not strictly contain every site and circumcenter."""


class DegenerateIntersection(GeometryError):
    """Four or more Voronoi cells meet where exactly three were expected
    (cocircular sites)."""


class MixedMeshes(GeometryError):
    """Regions from different meshes were combined in one query."""


class UnionHasHole(GeometryError):
    """A region's triangle union is not simply connected."""


class InputError(Exception):
    """Base for file-format and CLI usage errors (exit code 2 territory)."""


class ParseError(InputError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, message: str, path: str = "", line: int = 0):
        self.path = path
        self.line = line
        where = f"{path}:{line}: " if path or line else ""
        super().__init__(f"{where}{message}")


class BadCount(InputError):
    """Site generation asked for fewer than three points, or for more
    distinct points than the distribution can draw."""


class UnwritablePath(InputError):
    """An output path could not be written."""


class UnknownSelector(InputError):
    """A query selector does not resolve against the mesh/diagram."""
