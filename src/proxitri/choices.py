"""Names the CLI offers as choices, defined once for the library and the CLI.

They live apart from the modules that act on them (`checks`, `generate`,
`render`), so building the CLI's parser loads none of those modules.
"""

SUITES = ("delaunay", "dual", "lemma2", "theorem-equivalence", "regions", "leader", "all")

DISTRIBUTIONS = ("uniform", "clustered", "cocircular", "collinear-heavy")

WHAT_CHOICES = ("delaunay", "voronoi", "overlay", "regions")
