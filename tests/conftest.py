import random
from dataclasses import dataclass

import pytest

from proxitri.delaunay import SiteSet, TriMesh, triangulate
from proxitri.generate import generate_sites
from proxitri.voronoi import VoronoiDiagram, voronoi_diagram


def corpus_params(seed: int) -> tuple[int, str]:
    """Deterministic (n, distribution) for one corpus seed."""
    rng = random.Random(10_000 + seed)
    n = rng.randint(4, 50)
    distribution = "uniform" if seed % 2 == 0 else "clustered"
    return n, distribution


@dataclass
class CorpusEntry:
    seed: int
    sites: SiteSet
    mesh: TriMesh
    diagram: VoronoiDiagram


CORPUS_SIZE = 100


@pytest.fixture(scope="session")
def corpus() -> list[CorpusEntry]:
    """The 100 seeded random site sets shared by the acceptance criteria."""
    entries = []
    for seed in range(CORPUS_SIZE):
        n, distribution = corpus_params(seed)
        sites = SiteSet(tuple(generate_sites(n, seed, distribution)))
        mesh = triangulate(sites)
        diagram = voronoi_diagram(sites)
        entries.append(CorpusEntry(seed=seed, sites=sites, mesh=mesh, diagram=diagram))
    return entries


# The twelve integer points on the circle x^2 + y^2 = 25.
LATTICE_CIRCLE = [
    (5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3),
    (-5, 0), (-4, -3), (-3, -4), (0, -5), (3, -4), (4, -3),
]
EXACTLY_COCIRCULAR = [
    [(i, j) for i in range(5) for j in range(5)],
    LATTICE_CIRCLE,
    LATTICE_CIRCLE + [(12, 1), (-1, 12), (-12, -1), (1, -12)],
]


@pytest.fixture(scope="session")
def degenerate_corpus() -> list[CorpusEntry]:
    """Seeded cocircular and collinear-heavy site sets of 12 to 60 sites,
    plus hand-built sets whose Delaunay triangles share circumcenters.

    The generated sets bring collinear hull runs; their cocircular sites
    rarely span an empty circle, so the hand-built sets (seed -1) supply
    the repeated fan circumcenters that cell construction deduplicates.
    """
    entries = []
    for distribution in ("cocircular", "collinear-heavy"):
        for seed in range(10):
            n = random.Random(20_000 + seed).randint(12, 60)
            sites = SiteSet(tuple(generate_sites(n, seed, distribution)))
            diagram = voronoi_diagram(sites)
            entries.append(CorpusEntry(seed=seed, sites=sites, mesh=diagram.mesh, diagram=diagram))
    for coords in EXACTLY_COCIRCULAR:
        diagram = voronoi_diagram(SiteSet.of(coords))
        entries.append(
            CorpusEntry(seed=-1, sites=diagram.sites, mesh=diagram.mesh, diagram=diagram)
        )
    return entries


@pytest.fixture()
def fan_sites() -> SiteSet:
    return SiteSet.of([(0, 0), (4, 0), (0, 4), (1, 1)])


@pytest.fixture()
def fan_mesh(fan_sites) -> TriMesh:
    return triangulate(fan_sites)
