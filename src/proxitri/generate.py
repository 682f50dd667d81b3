"""Seeded random site generation for test corpora.

All distributions are deterministic functions of (n, seed, distribution).
Coordinates are exact decimals on a fine grid; the adversarial modes place
points exactly cocircular (rational parametrization of a circle) or in
heavy collinear runs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from .choices import DISTRIBUTIONS
from .errors import BadCount
from .geometry import Point

# Cocircular mode puts points exactly on this circle, at the parameters
# t = k / 100 for integer k in _CIRCLE_K.
COCIRCULAR_CENTER = (Fraction(50), Fraction(50))
COCIRCULAR_RADIUS = Fraction(25)
_CIRCLE_K = range(-500, 501)

# Collinear-heavy mode draws x = k / 100 for integer k in _LINE_K.
_LINE_K = range(0, 100 * 100 + 1)


def _grid(rng: random.Random, lo: int, hi: int, scale: int = 10**4) -> Fraction:
    return Fraction(rng.randrange(lo * scale, hi * scale + 1), scale)


def generate_sites(n: int, seed: int, distribution: str) -> list[Point]:
    if n < 3:
        raise BadCount(f"need at least 3 sites, requested {n}")
    if distribution not in DISTRIBUTIONS:
        raise BadCount(f"unknown distribution {distribution!r}")
    rng = random.Random(seed)
    make = {
        "uniform": _uniform,
        "clustered": _clustered,
        "cocircular": _cocircular,
        "collinear-heavy": _collinear_heavy,
    }[distribution]
    return make(rng, n)


def _fill_distinct(rng: random.Random, n: int, draw, start: list[Point]) -> list[Point]:
    points = list(start)
    seen = {p.row for p in points}  # rows are canonical: equal rows, equal points
    while len(points) < n:
        p = draw(rng)
        if p.row not in seen:
            seen.add(p.row)
            points.append(p)
    return points


def _uniform_point(rng: random.Random) -> Point:
    return Point(_grid(rng, 0, 100), _grid(rng, 0, 100))


def _uniform(rng: random.Random, n: int) -> list[Point]:
    return _fill_distinct(rng, n, _uniform_point, [])


def _clustered(rng: random.Random, n: int) -> list[Point]:
    k = max(1, n // 8)
    centers = [(_grid(rng, 10, 90, 100), _grid(rng, 10, 90, 100)) for _ in range(k)]

    def draw(r: random.Random) -> Point:
        cx, cy = centers[r.randrange(k)]
        return Point(
            cx + Fraction(r.randrange(-30000, 30001), 10**4),
            cy + Fraction(r.randrange(-30000, 30001), 10**4),
        )

    return _fill_distinct(rng, n, draw, [])


def _cocircular(rng: random.Random, n: int) -> list[Point]:
    """At least four sites exactly on one circle, rest uniform.

    Rational points on the circle come from the stereographic
    parametrization x = r(1-t^2)/(1+t^2), y = 2rt/(1+t^2), which is
    injective over rational t.
    """
    if n < 4:
        raise BadCount(f"cocircular mode draws at least 4 sites, requested {n}")
    on_circle = max(4, n // 2)
    if on_circle > len(_CIRCLE_K):
        raise BadCount(
            f"cocircular mode draws at most {2 * len(_CIRCLE_K) + 1} sites, requested {n}"
        )
    cx, cy = COCIRCULAR_CENTER
    r = COCIRCULAR_RADIUS
    ts: set[Fraction] = set()
    while len(ts) < on_circle:
        ts.add(Fraction(rng.randrange(_CIRCLE_K.start, _CIRCLE_K.stop), 100))
    points = []
    for t in sorted(ts):
        den = 1 + t * t
        points.append(Point(cx + r * (1 - t * t) / den, cy + 2 * r * t / den))
    return _fill_distinct(rng, n, _uniform_point, points)


def _collinear_heavy(rng: random.Random, n: int) -> list[Point]:
    """Most sites on a few shared lines; one apex keeps the set 2D."""
    lines = []
    for _ in range(3):
        a = _grid(rng, 0, 100, 100)
        b = Fraction(rng.randrange(-200, 201), 100)
        lines.append((a, b))

    def draw_on_line(r: random.Random) -> Point:
        a, b = lines[r.randrange(len(lines))]
        x = Fraction(r.randrange(_LINE_K.start, _LINE_K.stop), 100)
        return Point(x, a + b * x)

    def off_all_lines(p: Point) -> bool:
        return all(p.y != a + b * p.x for a, b in lines)

    apex = _uniform_point(rng)
    while not off_all_lines(apex):
        apex = _uniform_point(rng)
    available = _grid_points_on_lines(lines) + 1
    if n > available:
        raise BadCount(
            f"collinear-heavy mode draws at most {available} sites for this seed, requested {n}"
        )
    return _fill_distinct(rng, n, draw_on_line, [apex])


def _grid_points_on_lines(lines: list[tuple[Fraction, Fraction]]) -> int:
    """Number of distinct points (x, a + b x), x = k / 100 with k in _LINE_K,
    on the union of the lines y = a + b x."""
    distinct = set(lines)
    meets: dict[tuple[Fraction, Fraction], set] = {}
    for (a1, b1), (a2, b2) in combinations(distinct, 2):
        if b1 == b2:
            continue  # parallel
        x = (a2 - a1) / (b1 - b2)
        k = 100 * x
        if k.denominator == 1 and k.numerator in _LINE_K:
            meets.setdefault((x, a1 + b1 * x), set()).update(((a1, b1), (a2, b2)))
    return len(_LINE_K) * len(distinct) - sum(len(on) - 1 for on in meets.values())
