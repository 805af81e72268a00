"""Finite pointed metric spaces, molecules, and Lipschitz functions.

A molecule is a finitely supported real function on the points summing to
zero; these are the elements whose transportation norm the rest of the
package computes.  Coefficients are Fractions.  A metric space holds its
distances as integer rows over one least common denominator, the only
form the library's loops read; Fractions of distances are made only at
the boundary (``MetricSpace.d``, ``dist``, ``diameter`` and ``to_json``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import add
from typing import Mapping

from .errors import ResourceLimit, ValidationError
from .rational import ZERO, json_key, num_from_json, num_to_json, to_fraction

POINT_CAP = 5000    # points of a graph metric: 25 million distances


@dataclass(frozen=True)
class MetricSpace:
    """Finite metric space with an optional distinguished basepoint.

    d(points[i], points[j]) = rows[i][j] / den exactly, with den the least
    common denominator of the distances, so every comparison of sums and
    ratios of distances runs on integers.
    """

    points: tuple[str, ...]
    den: int
    rows: tuple[tuple[int, ...], ...]
    basepoint: str | None = None

    @cached_property
    def index(self) -> dict[str, int]:
        """Point -> its index in points."""
        return {p: i for i, p in enumerate(self.points)}

    def d(self, p: str, q: str) -> Fraction:
        return Fraction(self.rows[self.index[p]][self.index[q]], self.den)

    def distances_from(self, p: str) -> dict[str, int]:
        """Point -> its integer distance from p, over den."""
        return dict(zip(self.points, self.rows[self.index[p]]))

    @cached_property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        """The distance matrix as Fractions, one object per distinct value."""
        frac = {x: Fraction(x, self.den) for x in set().union(*self.rows)}
        return tuple(tuple(map(frac.__getitem__, row)) for row in self.rows)

    @cached_property
    def diameter(self) -> Fraction:
        return Fraction(max(map(max, self.rows)), self.den)

    def to_json(self) -> dict:
        out = {
            "points": list(self.points),
            "dist": [[num_to_json(x) for x in row] for row in self.dist],
        }
        if self.basepoint is not None:
            out["basepoint"] = self.basepoint
        return out

    @staticmethod
    def from_json(obj: dict) -> "MetricSpace":
        points = [str(p) for p in json_key(obj, "points", list)]
        dist = [[num_from_json(x) for x in row] for row in json_key(obj, "dist", list, list)]
        return validate_metric(dist, points=points, basepoint=obj.get("basepoint"))


def validate_metric(dist, points=None, basepoint=None) -> MetricSpace:
    """Check the metric axioms and return the validated space.

    Reads the entries as Fractions and then as integers over their least
    common denominator, on which every check runs.  Reports the first
    violated axiom: squareness, zero diagonal, symmetry, positivity off the
    diagonal, then an exhaustive triangle scan, which reports the first
    (i, j, k) in index order with d(i, j) > d(i, k) + d(k, j).
    """
    n = len(dist)
    fracs = [[to_fraction(x) for x in row] for row in dist]
    for row in fracs:
        if len(row) != n:
            raise ValidationError("distance matrix is not square")
    if points is None:
        points = [f"p{i}" for i in range(n)]
    if len(points) != n:
        raise ValidationError("points list does not match matrix size")
    den = lcm(*{x.denominator for row in fracs for x in row})
    rows = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in fracs)
    for i in range(n):
        if rows[i][i] != 0:
            raise ValidationError(f"nonzero diagonal entry at {points[i]}")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise ValidationError(f"dist({points[i]},{points[j]}) != dist({points[j]},{points[i]})")
            if rows[i][j] < 0:
                raise ValidationError(f"negative distance at ({points[i]},{points[j]})")
            if rows[i][j] == 0:
                raise ValidationError(f"zero distance between distinct points {points[i]}, {points[j]}")
    # by the symmetry checked above d(k, j) = d(j, k), and a violated
    # (j, i, k) comes before (i, j, k) when j < i, so only i < j is scanned
    for i, ri in enumerate(rows):
        for j in range(i + 1, n):
            rj = rows[j]
            if min(map(add, ri, rj)) < ri[j]:
                k = next(k for k in range(n) if ri[j] > ri[k] + rj[k])
                raise ValidationError(f"triangle inequality fails on "
                                      f"({points[i]}, {points[j]}, {points[k]})")
    if basepoint is not None and basepoint not in points:
        raise ValidationError(f"basepoint {basepoint!r} not among points")
    return MetricSpace(tuple(points), den, rows, basepoint)


@dataclass(frozen=True)
class Molecule:
    """Zero-sum finitely supported function on the points of a space."""

    coeffs: Mapping[str, Fraction]

    def __post_init__(self):
        clean = {p: to_fraction(v) for p, v in self.coeffs.items() if v != 0}
        object.__setattr__(self, "coeffs", clean)
        total = sum(clean.values(), start=ZERO)
        if total != 0:
            raise ValidationError(f"molecule coefficients sum to {total}, not 0")

    def __add__(self, other: "Molecule") -> "Molecule":
        out = dict(self.coeffs)
        for p, v in other.coeffs.items():
            out[p] = out.get(p, ZERO) + v
        return Molecule(out)

    def __neg__(self) -> "Molecule":
        return Molecule({p: -v for p, v in self.coeffs.items()})

    def __sub__(self, other: "Molecule") -> "Molecule":
        return self + (-other)

    def scale(self, c) -> "Molecule":
        c = to_fraction(c)
        return Molecule({p: c * v for p, v in self.coeffs.items()})

    def to_json(self) -> dict:
        return {"coeffs": {p: num_to_json(v) for p, v in sorted(self.coeffs.items())}}

    @staticmethod
    def from_json(obj: dict) -> "Molecule":
        coeffs = json_key(obj, "coeffs", dict)
        return Molecule({p: num_from_json(v) for p, v in coeffs.items()})


@dataclass(frozen=True)
class LipschitzFunction:
    """Real function on the points; value at the basepoint must be 0 if set."""

    values: Mapping[str, Fraction]
    basepoint: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", {p: to_fraction(v) for p, v in self.values.items()})
        if self.basepoint is not None and self.values.get(self.basepoint, ZERO) != 0:
            raise ValidationError("Lipschitz function must vanish at the basepoint")

    def __call__(self, p: str) -> Fraction:
        return self.values[p]

    def to_json(self) -> dict:
        out = {"values": {p: num_to_json(v) for p, v in sorted(self.values.items())}}
        if self.basepoint is not None:
            out["basepoint"] = self.basepoint
        return out


def graph_metric(g) -> MetricSpace:
    """Shortest-path metric of a two-pole graph, ignoring edge directions.

    BFS per source on integer levels for unit weights, Dijkstra otherwise,
    on the integer weights over their least common denominator; the rows
    are then divided by their common factor with that denominator, which
    leaves the least common denominator of the distances.  Raises
    ResourceLimit before any row is built on more than POINT_CAP points.
    """
    verts = list(g.vertices)
    n = len(verts)
    if n > POINT_CAP:
        raise ResourceLimit(f"graph metric on {n:,} points exceeds the {POINT_CAP:,}-point cap")
    idx = {v: i for i, v in enumerate(verts)}
    weights = [to_fraction(e.weight) for e in g.edges]
    unit = all(w == 1 for w in weights)
    den = lcm(*(w.denominator for w in weights))
    adj: list[list[tuple[int, int]]] = [[] for _ in verts]
    for e, w in zip(g.edges, weights):
        iw = w.numerator * (den // w.denominator)
        adj[idx[e.tail]].append((idx[e.head], iw))
        adj[idx[e.head]].append((idx[e.tail], iw))
    rows = []
    for s in range(n):
        d = [None] * n
        if unit:
            d[s] = 0
            frontier = [s]
            level = 0
            while frontier:
                level += 1
                nxt = []
                for u in frontier:
                    for v, _ in adj[u]:
                        if d[v] is None:
                            d[v] = level
                            nxt.append(v)
                frontier = nxt
        else:
            heap = [(0, s)]
            while heap:
                du, u = heapq.heappop(heap)
                if d[u] is not None:
                    continue
                d[u] = du
                for v, w in adj[u]:
                    if d[v] is None:
                        heapq.heappush(heap, (du + w, v))
        if None in d:
            missing = verts[d.index(None)]
            raise ValidationError(f"vertex {missing!r} unreachable from {verts[s]!r}")
        rows.append(tuple(d))
    common = gcd(den, *set().union(*rows)) if den > 1 else 1
    if common > 1:
        den //= common
        rows = [tuple(x // common for x in row) for row in rows]
    return MetricSpace(tuple(verts), den, tuple(rows), basepoint=g.bottom)
