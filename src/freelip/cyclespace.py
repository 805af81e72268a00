"""Cycle spaces of oriented graphs: signed indicators, fundamental bases,
the boundary map to molecules, quotient norms, and greedy cycle packing.

The edge space carries the l1 norm; the quotient of it by the cycle space
is isometric to the free space over the graph's vertices, which is the
identity the quotient-norm tests certify.  A quotient norm is computed as
a min-cost flow on the graph's own edges (a simplex.FlowNetwork, the same
network simplex as the transportation norms, on two opposite arcs per
edge), posed on integers: edge scales and divergence each over one common
denominator.  The simplex checks its optimal vertex potentials, a
1-Lipschitz function attaining the value, as its certificate.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from . import linalg, simplex
from .errors import ValidationError
from .graphs import TwoPoleGraph
from .metric import Molecule
from .rational import ONE, ZERO, json_key, num_from_json, num_to_json


_MINUS_ONE = -ONE


def _check_edge_ids(graph: TwoPoleGraph, coeffs: dict) -> None:
    known = graph.edge_by_id
    if not coeffs.keys() <= known.keys():
        eid = next(e for e in coeffs if e not in known)
        raise ValidationError(f"unknown edge id {eid!r}")


@dataclass(frozen=True)
class EdgeVector:
    """Rational-valued function on the edge set of a fixed graph."""

    graph: TwoPoleGraph
    coeffs: dict[str, Fraction]

    def __post_init__(self):
        _check_edge_ids(self.graph, self.coeffs)
        object.__setattr__(self, "coeffs", {
            eid: v if type(v) is Fraction else Fraction(v)
            for eid, v in self.coeffs.items() if v})

    @classmethod
    def of_nonzero(cls, graph: TwoPoleGraph, coeffs: dict[str, Fraction]) -> "EdgeVector":
        """The vector with these coefficients, taken as they are: the caller
        guarantees that every value is a nonzero Fraction.  The edge ids are
        still checked against the graph (ValidationError otherwise)."""
        _check_edge_ids(graph, coeffs)
        vec = object.__new__(cls)
        object.__setattr__(vec, "graph", graph)
        object.__setattr__(vec, "coeffs", coeffs)
        return vec

    def __add__(self, other: "EdgeVector") -> "EdgeVector":
        if other.graph is not self.graph and other.graph != self.graph:
            raise ValidationError("edge vectors live on different graphs")
        out = dict(self.coeffs)
        for eid, v in other.coeffs.items():
            out[eid] = out.get(eid, ZERO) + v
        return EdgeVector(self.graph, out)

    def __neg__(self) -> "EdgeVector":
        return EdgeVector(self.graph, {e: -v for e, v in self.coeffs.items()})

    def __sub__(self, other: "EdgeVector") -> "EdgeVector":
        return self + (-other)

    def scale(self, c) -> "EdgeVector":
        c = Fraction(c)
        return EdgeVector(self.graph, {e: c * v for e, v in self.coeffs.items()})

    def l1(self) -> Fraction:
        return sum((abs(v) for v in self.coeffs.values()), start=ZERO)

    def get(self, eid: str) -> Fraction:
        return self.coeffs.get(eid, ZERO)

    def dense(self) -> list[Fraction]:
        out = [ZERO] * len(self.graph.edges)
        for eid, v in self.coeffs.items():
            out[self.graph.edge_order[eid]] = v
        return out

    def permute(self, edge_map: dict[str, str]) -> "EdgeVector":
        """Image under the isometry induced by an edge bijection g:
        (g.x)(e) = x(g^{-1} e), i.e. the value at e moves to edge_map[e],
        or stays if e is unlisted (ValidationError if two values meet)."""
        out = {edge_map.get(e, e): v for e, v in self.coeffs.items()}
        if len(out) != len(self.coeffs):
            raise ValidationError("edge map sends two support edges to one edge")
        return EdgeVector(self.graph, out)

    def to_json(self) -> dict:
        return {"coeffs": {e: num_to_json(v) for e, v in sorted(self.coeffs.items())}}

    @staticmethod
    def from_json(graph: TwoPoleGraph, obj: dict) -> "EdgeVector":
        coeffs = json_key(obj, "coeffs", dict)
        return EdgeVector(graph, {e: num_from_json(v) for e, v in coeffs.items()})


@dataclass(frozen=True)
class CycleBasis:
    """A scaled cycle basis z_1..z_mu of a graph's cycle space (see
    quotient_norm).

    quotient_norm checks a basis once per basis and graph object: the first
    call with an x on the graph of the basis's vectors keeps the checked
    edge scales and the simplex.FlowNetwork built on them (_checked_data),
    and an x on any other graph object, even an equal one, is checked and
    gets a network of its own on every call.  This is sound because
    CycleBasis and EdgeVector are frozen, nothing in the library mutates
    EdgeVector.coeffs, a network depends only on the graph's edges and the
    scales and no solve changes it, and the simplex still certifies every
    value.  A basis that fails stores nothing; the stored data enters
    neither equality nor the hash.
    """

    vectors: tuple[EdgeVector, ...]

    def __len__(self):
        return len(self.vectors)

    @cached_property
    def _checked_data(self) -> tuple:
        """_flow_data of the graph of the first vector under this basis's
        checked edge scales (ValidationError if the basis fails)."""
        g = self.vectors[0].graph
        return _flow_data(g, _edge_scales(g, self))


def signed_indicator(cycle_edges: list[str], g: TwoPoleGraph) -> EdgeVector:
    """Signed indicator of a closed walk given as a sequence of edge ids.

    +1 where the walk direction agrees with the graph orientation, -1 where
    it disagrees.  The walk orientation is fixed by the first edge's own
    direction when that chains up, otherwise by its reverse.
    """
    if len(cycle_edges) < 3:
        raise ValidationError("a cycle needs at least three edges")
    if len(set(cycle_edges)) != len(cycle_edges):
        raise ValidationError("repeated edge in cycle")
    edges = []
    for eid in cycle_edges:
        e = g.edge_by_id.get(eid)
        if e is None:
            raise ValidationError(f"unknown edge id {eid!r}")
        edges.append(e)

    def chain(start):
        signs = {}
        cur = start
        for e in edges:
            if cur == e.tail:
                signs[e.id] = ONE
                cur = e.head
            elif cur == e.head:
                signs[e.id] = _MINUS_ONE
                cur = e.tail
            else:
                return None
        return signs if cur == start else None

    signs = chain(edges[0].tail) or chain(edges[0].head)
    if signs is None:
        raise ValidationError("edge sequence is not a closed walk")
    return EdgeVector(g, signs)


def boundary(x: EdgeVector) -> Molecule:
    """Net inflow minus outflow at each vertex; kernel = cycle space."""
    coeffs: dict[str, Fraction] = {}
    for eid, v in x.coeffs.items():
        e = x.graph.edge_by_id[eid]
        coeffs[e.head] = coeffs.get(e.head, ZERO) + v
        coeffs[e.tail] = coeffs.get(e.tail, ZERO) - v
    return Molecule(coeffs)


def spanning_tree(g: TwoPoleGraph):
    """Deterministic BFS tree from the bottom; returns (parent, parent_edge),
    both in BFS order."""
    parent = {g.bottom: None}
    parent_edge = {}
    frontier = [g.bottom]
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.adjacency[u]:
                if w not in parent:
                    parent[w] = u
                    parent_edge[w] = g.edge_by_pair[frozenset((u, w))]
                    nxt.append(w)
        frontier = nxt
    return parent, parent_edge


def fundamental_cycle_basis(g: TwoPoleGraph) -> CycleBasis:
    """One cycle per non-tree edge of a BFS spanning tree.

    Each basis vector is +1 on its non-tree edge and +-1 along the tree
    path closing it, the signs of its walk in fundamental_cycles_as_walks,
    so the vectors are independent by construction and there are exactly
    |E| - |V| + 1 of them.
    """
    return CycleBasis(tuple(
        EdgeVector.of_nonzero(g, {eid: ONE if sign > 0 else _MINUS_ONE for eid, sign in walk})
        for walk in fundamental_cycles_as_walks(g)))


def fundamental_cycles_as_walks(g: TwoPoleGraph) -> Iterator[list[tuple[str, int]]]:
    """The fundamental cycles as ordered closed edge walks of (edge id, sign)
    pairs, one at a time, in the order of their non-tree edges.

    Each walk starts with its non-tree edge, traversed tail to head, and
    closes through the tree: head up to the least common ancestor, then
    down to the tail.  A sign is +1 where the walk runs along the edge's
    orientation and -1 where it runs against it, as signed_indicator gives
    them.
    """
    parent, parent_edge = spanning_tree(g)
    tree_ids = {e.id for e in parent_edge.values()}
    depth = {g.bottom: 0}
    for v, u in parent.items():         # BFS order: parents come first
        if u is not None:
            depth[v] = depth[u] + 1

    for e in g.edges:
        if e.id in tree_ids:
            continue
        # climb from the deeper end until the two ends meet at the common
        # ancestor, so each walk costs its own length, not the tree depth;
        # the walk leaves a on its way up and enters b on its way down
        up, down = [], []
        a, b = e.head, e.tail
        while a != b:
            if depth[a] >= depth[b]:
                f = parent_edge[a]
                up.append((f.id, 1 if f.tail == a else -1))
                a = parent[a]
            else:
                f = parent_edge[b]
                down.append((f.id, 1 if f.head == b else -1))
                b = parent[b]
        yield [(e.id, 1)] + up + down[::-1]


def mu(g: TwoPoleGraph) -> int:
    """Dimension of the cycle space of a connected graph."""
    return len(g.edges) - len(g.vertices) + 1


def _edge_scales(g: TwoPoleGraph, z: CycleBasis) -> dict[str, tuple[int, int]]:
    """The per-edge scales d_e of a scaled cycle basis, checked, as
    (numerator, denominator) pairs in lowest terms.

    d_e is the common |z_i[e]| over the z_i that touch e; every D^-1 z_i
    must be a cycle (zero boundary) and the D^-1 z_i must be mu(g)
    independent vectors, checked by their +-1 restriction to the non-tree
    edges of the BFS tree (a signed identity on the fundamental basis),
    by one forward elimination (linalg.echelon).
    Raises ValidationError otherwise.
    """
    if len(z.vectors) != mu(g):
        raise ValidationError(f"basis has {len(z.vectors)} vectors, the cycle space "
                              f"has dimension {mu(g)}")
    edge_by_id = g.edge_by_id
    tree = {e.id for e in spanning_tree(g)[1].values()}
    scale: dict[str, tuple[int, int]] = {}
    chords = []
    for v in z.vectors:
        if v.graph is not g and v.graph != g:
            raise ValidationError("basis vector lives on a different graph")
        net: dict[str, int] = {}
        row = {}
        for eid, c in v.coeffs.items():
            num, den = c.numerator, c.denominator
            s = 1 if num > 0 else -1
            d = (s * num, den)
            if scale.setdefault(eid, d) != d:
                raise ValidationError(f"basis vectors disagree on the scale of edge {eid!r}")
            e = edge_by_id[eid]
            net[e.head] = net.get(e.head, 0) + s
            net[e.tail] = net.get(e.tail, 0) - s
            if eid not in tree:
                row[eid] = s
        if any(net.values()):
            raise ValidationError("basis vector is not a scaled cycle")
        chords.append(row)
    if linalg.echelon(chords)[1]:
        raise ValidationError("basis vectors are linearly dependent")
    return scale


def _flow_data(g: TwoPoleGraph, scale: dict[str, tuple[int, int]]) -> tuple:
    """(network, ends, lden, nums, dens), indexed by g.edge_order: each edge
    as a (tail, head) pair of vertex indices, its scale d_e (1 where scale
    has none) as nums[i] / dens[i] in lowest terms, and the
    simplex.FlowNetwork of these edges at the integer lengths d_e lden."""
    vidx = {v: i for i, v in enumerate(g.vertices)}
    ends = [(vidx[e.tail], vidx[e.head]) for e in g.edges]
    nums, dens = [1] * len(ends), [1] * len(ends)
    order = g.edge_order
    for eid, (n, d) in scale.items():
        nums[order[eid]], dens[order[eid]] = n, d
    lden = lcm(*dens)
    network = simplex.FlowNetwork(len(vidx), ends, [n * (lden // d) for n, d in zip(nums, dens)])
    return network, ends, lden, nums, dens


def quotient_norm(x: EdgeVector, z: CycleBasis | None = None) -> Fraction:
    """Distance from x to span(z) in l1: min_c ||x - sum c_i z_i||_1, exactly.

    z is a scaled cycle basis: z_i = D y_i for independent cycles y_1..y_mu
    and a diagonal D of edge scales d_e > 0 (checked by _edge_scales; d_e = 1
    on edges no z_i touches).  The default is the fundamental basis, D = I.
    Then span(z) = D Z(G), and the distance is the least cost
    sum d_e |f_e| of an edge flow f with boundary(f) = boundary(D^-1 x): one
    network simplex (simplex.FlowNetwork.min_cost_flow), given the d_e and
    the divergence as integers over one common denominator each.  It certifies
    the value with its optimal vertex potentials phi, |phi(head) -
    phi(tail)| <= d_e on every edge and <boundary(D^-1 x), phi> = value,
    and raises SolverFailure otherwise.  For D = I this is the
    transportation norm of boundary(x) on the graph metric.

    The basis check and the network run once per basis and graph object:
    when x lives on the graph object of z's vectors, the scales checked and
    the FlowNetwork built at the first such call are reused
    (CycleBasis._checked_data), and any other graph object is checked and
    gets a network on every call, as z=None does.  This is sound because
    CycleBasis and EdgeVector are frozen, nothing in the library mutates
    EdgeVector.coeffs, the network depends only on the graph's edges and
    the scales and no solve changes it, and the potential certificate above
    is still checked on every call.  A basis that fails raises
    ValidationError on every call.
    """
    g = x.graph
    if z is None:
        data = _flow_data(g, {})
    elif z.vectors and z.vectors[0].graph is g:
        data = z._checked_data
    else:
        data = _flow_data(g, _edge_scales(g, z))
    network, ends, lden, nums, dens = data
    # x_e / d_e = p / q
    order = g.edge_order
    terms = []
    for eid, v in x.coeffs.items():
        i = order[eid]
        terms.append((i, v.numerator * dens[i], v.denominator * nums[i]))
    dden = lcm(*(q for _, _, q in terms))
    div = [0] * len(g.vertices)
    for i, p, q in terms:
        t, h = ends[i]
        f = p * (dden // q)
        div[h] += f
        div[t] -= f
    return network.min_cost_flow(div)[0] / (lden * dden)


def _shortest_cycle_through(g_adj, edge, by_pair):
    """Shortest cycle through `edge` in the residual graph, as an edge id list."""
    u, v = edge.tail, edge.head
    # BFS from u to v avoiding the edge itself
    parent = {u: None}
    frontier = [u]
    while frontier and v not in parent:
        nxt = []
        for a in frontier:
            for b in sorted(g_adj.get(a, ())):
                if b == v and a == u:
                    continue  # skip the direct edge
                if b not in parent:
                    parent[b] = a
                    nxt.append(b)
        frontier = nxt
    if v not in parent:
        return None
    ids = [edge.id]
    cur = v
    while parent[cur] is not None:
        ids.append(by_pair[frozenset((cur, parent[cur]))].id)
        cur = parent[cur]
    return ids


def greedy_cycle_packing(g: TwoPoleGraph) -> list[list[str]]:
    """Edge-disjoint cycles by repeated shortest-cycle extraction.

    Deterministic: among shortest cycles the one through the
    lexicographically smallest edge id wins.  The count is a lower bound on
    the maximum packing; disjoint supports make the spanned subspace an
    isometric, 1-complemented copy of l1 of that dimension.
    """
    adj = {v: set(ws) for v, ws in g.adjacency.items()}
    by_pair = dict(g.edge_by_pair)
    alive = {e.id: e for e in g.edges}
    cycles = []
    while True:
        best = None
        for eid in sorted(alive):
            e = alive[eid]
            ids = _shortest_cycle_through(adj, e, by_pair)
            if ids is not None and (best is None or len(ids) < len(best)):
                best = ids
                if len(best) == 3:
                    break
        if best is None:
            return cycles
        cycles.append(best)
        for eid in best:
            e = alive.pop(eid)
            adj[e.tail].discard(e.head)
            adj[e.head].discard(e.tail)
            del by_pair[frozenset((e.tail, e.head))]


def up_down_decomposition(cycle_edges: list[str], g: TwoPoleGraph) -> bool:
    """Check that a cycle is one ascending and one descending run.

    Walking the cycle, the agreement pattern with the toward-top orientation
    must form exactly two contiguous sign blocks.
    """
    vec = signed_indicator(cycle_edges, g)
    signs = [vec.coeffs[eid] for eid in cycle_edges]
    changes = sum(1 for a, b in zip(signs, signs[1:] + signs[:1]) if a != b)
    return changes == 2
