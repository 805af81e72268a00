"""Seeded random instances: rational metric spaces, weighted trees, and
molecules.

All randomness in the package flows through explicit random.Random
instances so reports are byte-reproducible from a seed.  Distances come
from shortest-path closures of random rational weights, which keeps
triangle inequalities exact and denominators small.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .cyclespace import EdgeVector
from .graphs import Edge, TwoPoleGraph
from .metric import MetricSpace, Molecule, validate_metric
from .rational import ZERO


def random_rational(rng: random.Random, lo: int = 1, hi: int = 9,
                    max_den: int = 4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_metric_space(rng: random.Random, n: int) -> MetricSpace:
    """Shortest-path closure of a random complete rational weight matrix.

    The weights are random_rational(rng, 2, 12, 3) draws, whose denominators
    divide 6, so the closure runs on integers over 6; validate_metric gets
    the distances as Fractions, one object per distinct value.
    """
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = random_rational(rng, 2, 12, 3)
            d[i][j] = d[j][i] = w.numerator * (6 // w.denominator)
    for k, dk in enumerate(d):
        for di in d:
            dik = di[k]
            di[:] = map(min, di, map(dik.__add__, dk))
    frac = {x: Fraction(x, 6) for x in set().union(*d)}
    return validate_metric([list(map(frac.__getitem__, row)) for row in d])


def random_tree(rng: random.Random, n_edges: int) -> TwoPoleGraph:
    """Random weighted tree: vertex i attaches to a random earlier vertex."""
    n = n_edges + 1
    vertices = tuple(f"v{i}" for i in range(n))
    edges = []
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append(Edge(f"e{i}", f"v{j}", f"v{i}", random_rational(rng)))
    return TwoPoleGraph(vertices, tuple(edges), f"v{n - 1}", "v0")


def random_molecule(rng: random.Random, points, size: int | None = None) -> Molecule:
    """Zero-sum molecule with small rational coefficients."""
    points = list(points)
    if size is None:
        size = rng.randint(2, max(2, len(points)))
    size = min(size, len(points))
    chosen = rng.sample(points, size)
    coeffs: dict[str, Fraction] = {}
    for p in chosen[:-1]:
        coeffs[p] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    coeffs[chosen[-1]] = -sum(coeffs.values(), start=ZERO)
    return Molecule(coeffs)


def random_edge_vector(rng: random.Random, graph: TwoPoleGraph,
                       density: float = 0.7):
    coeffs = {}
    for e in graph.edges:
        if rng.random() < density:
            coeffs[e.id] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return EdgeVector(graph, coeffs)
