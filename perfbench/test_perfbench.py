"""Tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench -p "test_*.py"

Run from the root of a source checkout. The determinism test runs the CLI
and the traced replay twice on one small seed and needs a few seconds.
"""

from __future__ import annotations

import shutil
import sys
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import verify  # noqa: E402

TINY = (
    run.Input("uniform", 14, run.GENERAL_JOBS),
    run.Input("cocircular", 12, run.COCIRCULAR_JOBS + ("check",)),
)


def _document(sites, triangles) -> str:
    lines = [verify.DOCUMENT_HEADER]
    lines += [f"site {i} {x} {y}" for i, (x, y) in enumerate(sites)]
    lines += [f"triangle {t} {i} {j} {k}" for t, (i, j, k) in enumerate(triangles)]
    edges = sorted({(min(a, b), max(a, b)) for tri in triangles for a, b in zip(tri, tri[1:] + tri[:1])})
    lines += [f"edge {a} {b} plain locally-delaunay" for a, b in edges]
    return "\n".join(lines) + "\n"


class PredicateTest(unittest.TestCase):
    def test_incircle_sign(self):
        h = [verify.homogeneous((Fraction(x), Fraction(y))) for x, y in ((0, 0), (1, 0), (0, 1))]
        inside = verify.homogeneous((Fraction(1, 3), Fraction(1, 3)))
        on = verify.homogeneous((Fraction(1), Fraction(1)))
        outside = verify.homogeneous((Fraction(2), Fraction(2)))
        self.assertEqual(verify.orient(*h), 1)
        self.assertEqual(verify.incircle(*h, inside), 1)
        self.assertEqual(verify.incircle(*h, on), 0)
        self.assertEqual(verify.incircle(*h, outside), -1)

    def test_only_the_delaunay_diagonal_passes(self):
        sites = [(Fraction(x), Fraction(y)) for x, y in ((0, 0), (4, 0), (4, 4), (0, 3))]
        good = _document(sites, [(0, 1, 3), (1, 2, 3)])
        bad = _document(sites, [(0, 1, 2), (0, 2, 3)])
        verify.check_triangulation(verify.parse_mesh_document(good), sites)
        with self.assertRaises(verify.OutputError):
            verify.check_triangulation(verify.parse_mesh_document(bad), sites)

    def test_missing_triangle_fails_euler(self):
        sites = [(Fraction(x), Fraction(y)) for x, y in ((0, 0), (4, 0), (4, 4), (0, 3))]
        doc = _document(sites, [(0, 1, 3)])
        with self.assertRaises(verify.OutputError):
            verify.check_triangulation(verify.parse_mesh_document(doc), sites)


class DeterminismTest(unittest.TestCase):
    def _traced_run(self, work: Path):
        if work.exists():
            shutil.rmtree(work)
        (work / "out").mkdir(parents=True)
        _, corpus = run.setup(TINY, 3, work)
        jobs, site_lists = run.build_jobs(TINY, 3, "tiny", corpus, work / "out")
        checker = run.Checker(TINY, 3, site_lists)
        m = run.measure(jobs, checker, 0.0)
        layer = run.per_layer_metrics(jobs, m, checker, work / "spans.tsv.gz")
        self.assertEqual(m.failures, [])
        counts = {k: v for k, v in layer.items() if run.PER_LAYER[k] == "count"}
        digests = {j: d for j, (d, _) in checker.seen.items()}
        return counts, digests

    def test_counts_and_outputs_repeat_exactly(self):
        base = run.WORK / "test"
        try:
            first = self._traced_run(base / "a")
            second = self._traced_run(base / "b")
        finally:
            shutil.rmtree(base, ignore_errors=True)
        self.assertEqual(set(first[0]), {k for k, u in run.PER_LAYER.items() if u == "count"})
        self.assertGreater(first[0]["geometry.orientation_calls"], 0)
        self.assertGreater(first[0]["checks.records"], 0)
        self.assertEqual(first, second)


if __name__ == "__main__":
    unittest.main()
