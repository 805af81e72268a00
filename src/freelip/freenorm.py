"""Transportation norm of molecules: primal plans, dual Lipschitz
certificates, and the exact coordinate isometry on weighted trees.

The norm of a molecule is the optimal value of the balanced transportation
problem between its positive and negative parts over the metric; by
duality it equals the maximal pairing with a 1-Lipschitz function
vanishing at the basepoint.  Both are computed exactly: the network
simplex of simplex.transportation, on one arc per (positive, negative)
point pair, gives the value, an optimal plan and the potentials from which
the certificate is read.  Costs are the metric's integer distance rows,
and the certificate is taken on them; a Fraction is made only for a
returned value.  Tree norms sum integers over the weights' and the
masses' common denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import simplex
from .cyclespace import spanning_tree
from .errors import NotATree, SolverFailure, ValidationError
from .graphs import TwoPoleGraph
from .metric import LipschitzFunction, MetricSpace, Molecule
from .rational import ZERO, num_to_json


@dataclass(frozen=True)
class TransportPlan:
    """List of (source, sink, mass) moves realizing a molecule."""

    moves: tuple[tuple[str, str, Fraction], ...]
    cost: Fraction

    def to_json(self) -> dict:
        return {
            "moves": [[p, q, num_to_json(m)] for p, q, m in self.moves],
            "cost": num_to_json(self.cost),
        }


@dataclass(frozen=True)
class DualCertificate:
    f: LipschitzFunction
    value: Fraction

    def to_json(self) -> dict:
        return {"f": self.f.to_json(), "value": num_to_json(self.value)}


def _split(m: Molecule):
    pos = sorted((p, v) for p, v in m.coeffs.items() if v > 0)
    neg = sorted((p, -v) for p, v in m.coeffs.items() if v < 0)
    return pos, neg


def _transport(space: MetricSpace, m: Molecule):
    """(sources, sinks, value, plan matrix, (u, v)) of m's transportation
    problem; only the support matters, since the optimal coupling moves
    mass between support points directly (triangle inequality).  The costs
    are the metric's integer rows over its denominator, and so are the
    potentials u, v."""
    index = space.index
    for p in m.coeffs:
        if p not in index:
            raise ValidationError(f"molecule point {p!r} not in the space")
    pos, neg = _split(m)
    sources = [p for p, _ in pos]
    sinks = [q for q, _ in neg]
    cols = [index[q] for q in sinks]
    rows = space.rows
    cost = [list(map(rows[index[p]].__getitem__, cols)) for p in sources]
    supply = [v for _, v in pos]
    demand = [v for _, v in neg]
    value, plan, potentials = simplex.transportation(cost, supply, demand, space.den)
    return sources, sinks, value, plan, potentials


def ae_norm(space: MetricSpace, m: Molecule):
    """Transportation norm of a molecule and an optimal plan, exactly."""
    sources, sinks, value, plan, _ = _transport(space, m)
    if not sources:
        return ZERO, TransportPlan((), ZERO)
    moves = tuple(   # a truth test: the simplex certified the plan >= 0
        (sources[i], sinks[j], plan[i][j])
        for i in range(len(sources))
        for j in range(len(sinks))
        if plan[i][j]
    )
    return value, TransportPlan(moves, value)


def lip_dual(space: MetricSpace, m: Molecule,
             basepoint: str | None = None) -> DualCertificate:
    """Optimal 1-Lipschitz certificate: maximize sum f(p) m(p), f(O) = 0.

    Solves m's transportation problem once and takes the c-transform of the
    sink potentials, f(x) = min_j (d(x, t_j) - v_j), over every point,
    shifted to vanish at the basepoint.  A minimum of 1-Lipschitz functions
    is 1-Lipschitz, and u_i + v_j <= d(s_i, t_j) gives <f, m> >= sum a_i u_i
    + sum b_j v_j, the optimal cost; weak duality makes it equal.  The
    c-transform runs on the integer rows and potentials over the metric's
    denominator, and the equality is checked exactly on the Fraction values.
    """
    if basepoint is None:
        basepoint = space.basepoint or space.points[0]
    elif basepoint not in space.index:
        raise ValidationError(f"basepoint {basepoint!r} not in the space")
    _, sinks, value, _, (_, v) = _transport(space, m)
    if sinks:
        cols = [space.index[t] for t in sinks]
        f = [min(row[k] - vj for k, vj in zip(cols, v)) for row in space.rows]
    else:
        f = [0] * len(space.points)
    shift = f[space.index[basepoint]]
    values = {p: Fraction(fx - shift, space.den) for p, fx in zip(space.points, f)}
    pairing = sum((c * values[p] for p, c in m.coeffs.items()), start=ZERO)
    if pairing != value:
        raise SolverFailure(f"dual certificate pairs to {pairing}, primal value is {value}")
    return DualCertificate(LipschitzFunction(values, basepoint=basepoint), pairing)


# ---------------------------------------------------------------------------
# Weighted trees
# ---------------------------------------------------------------------------

def _check_tree(t: TwoPoleGraph):
    if len(t.edges) != len(t.vertices) - 1:
        raise NotATree(f"{len(t.edges)} edges on {len(t.vertices)} vertices")


def _subtree_masses(t: TwoPoleGraph, m: Molecule):
    """(parent_edge, sub, den): sub[v] / den is the molecule's net mass in
    the subtree hanging below v, in integers over the least common
    denominator of its coefficients.  ValidationError names a point of m
    outside the tree."""
    _check_tree(t)
    parent, parent_edge = spanning_tree(t)
    den = lcm(*(c.denominator for c in m.coeffs.values()))
    sub = dict.fromkeys(parent, 0)
    for p, c in m.coeffs.items():
        if p not in sub:
            raise ValidationError(f"molecule point {p!r} not in the tree")
        sub[p] = c.numerator * (den // c.denominator)
    for v in reversed(parent):  # BFS order reversed: children before parents
        p = parent[v]
        if p is not None:
            sub[p] += sub[v]
    return parent_edge, sub, den


def tree_isometry(t: TwoPoleGraph, m: Molecule) -> dict[str, Fraction]:
    """Image of a molecule under the edge-coordinate isometry of a tree.

    Coordinate at edge f = w(f) times the net molecule mass in the subtree
    hanging below f; the l1 norm of the image equals the transportation
    norm exactly.
    """
    parent_edge, sub, den = _subtree_masses(t, m)
    return {e.id: e.weight * Fraction(sub[v], den) for v, e in parent_edge.items()}


def tree_norm(t: TwoPoleGraph, m: Molecule) -> Fraction:
    """l1 norm of tree_isometry(t, m): sum over edges of |w_e W_e| with W_e
    the integer subtree masses, over the weights' and the masses' common
    denominators."""
    parent_edge, sub, den = _subtree_masses(t, m)
    wden = lcm(*(e.weight.denominator for e in parent_edge.values()))
    total = sum(abs(e.weight.numerator * (wden // e.weight.denominator) * sub[v])
                for v, e in parent_edge.items())
    return Fraction(total, wden * den)
