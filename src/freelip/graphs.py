"""Two-pole directed graphs, edge-substitution composition, and the
recursive diamond / multibranching / Laakso families.

Vertex and edge identifiers of composed graphs are slash-joined paths that
record the recursion, so the copy of the base graph that evolved from a
given edge is addressable by its id prefix.  With this naming the
composition is literally associative (equal vertex and edge id sets), and
the single-edge graph is a two-sided unit.

Every TwoPoleGraph is validated on construction, in this order: distinct
vertex names, distinct poles that are vertices; then per edge, in edge
order, no self-loop, known endpoints, a new edge id and no parallel edge
(in either direction); then connectivity; then that every weight is a
positive int or Fraction.  The checks run on integer vertex indices: one
vertex -> index dict, one set of pair keys i n + j (i < j) and a
union-find on a list of ints.  There is no unchecked constructor; a
composed family pays for the check once per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import ResourceLimit, ValidationError
from .metric import graph_metric
from .rational import json_key, num_from_json, num_to_json

EDGE_CAP = 10 ** 6              # edges of a composed or generated graph
AUTOMORPHISM_VERTEX_CAP = 40    # automorphism search backtracks on base graphs only


def join_id(prefix: str, name: str) -> str:
    if not prefix:
        return name
    if not name:
        return prefix
    return f"{prefix}/{name}"


_WEIGHT_TYPES = frozenset((int, Fraction))


@dataclass(frozen=True, slots=True)
class Edge:
    id: str
    tail: str
    head: str
    weight: Fraction = Fraction(1)


@dataclass(frozen=True)
class TwoPoleGraph:
    """A connected graph with two distinct poles and directed, weighted
    edges, checked on construction as the module docstring says."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    top: str
    bottom: str

    def __post_init__(self):
        n = len(self.vertices)
        index = dict(zip(self.vertices, range(n)))
        if len(index) != n:
            raise ValidationError("duplicate vertex names")
        if self.top == self.bottom:
            raise ValidationError("top and bottom must differ")
        if self.top not in index or self.bottom not in index:
            raise ValidationError("poles must be vertices")
        seen_ids = set()
        seen_pairs = set()
        parent = list(index.values())
        components = n
        get = index.get
        weight, bad_weight = 1, None    # the last weight object tested; 1 is valid
        for e in self.edges:
            eid, tail, head = e.id, e.tail, e.head
            if tail == head:
                raise ValidationError(f"self-loop at {tail!r}")
            i = get(tail)
            j = get(head)
            if i is None or j is None:
                raise ValidationError(f"edge {eid!r} has unknown endpoint")
            if eid in seen_ids:
                raise ValidationError(f"duplicate edge id {eid!r}")
            pair = i * n + j if i < j else j * n + i
            if pair in seen_pairs:
                raise ValidationError(f"parallel edge between {tail!r} and {head!r}")
            seen_ids.add(eid)
            seen_pairs.add(pair)
            # union-find with path halving
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            while parent[j] != j:
                parent[j] = j = parent[parent[j]]
            if i != j:
                parent[i] = j
                components -= 1
            # compose copies the base's weight objects, so a run of edges
            # sharing one object is tested once
            if e.weight is not weight:
                weight = e.weight
                if bad_weight is None and (type(weight) not in _WEIGHT_TYPES
                                           or weight.numerator <= 0):
                    bad_weight = e
        if components != 1:
            raise ValidationError("graph is not connected")
        if bad_weight is not None:
            raise ValidationError(f"edge {bad_weight.id!r} has weight {bad_weight.weight!r}; "
                                  "weights must be positive ints or Fractions")

    @cached_property
    def edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def edge_by_pair(self) -> dict[frozenset, Edge]:
        return {frozenset((e.tail, e.head)): e for e in self.edges}

    @cached_property
    def edge_order(self) -> dict[str, int]:
        """Edge id -> coordinate index used by every matrix in the package."""
        return {e.id: i for i, e in enumerate(self.edges)}

    @cached_property
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        adj = {v: [] for v in self.vertices}
        for e in self.edges:
            adj[e.tail].append(e.head)
            adj[e.head].append(e.tail)
        return {v: tuple(sorted(ws)) for v, ws in adj.items()}

    @property
    def interior_vertices(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if v not in (self.top, self.bottom))

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [
                {"id": e.id, "tail": e.tail, "head": e.head, "weight": num_to_json(e.weight)}
                for e in self.edges
            ],
            "top": self.top,
            "bottom": self.bottom,
        }

    @staticmethod
    def from_json(obj: dict) -> "TwoPoleGraph":
        edges = tuple(
            Edge(str(json_key(e, "id")), str(json_key(e, "tail")), str(json_key(e, "head")),
                 _weight_from_json(e.get("weight", 1)))
            for e in json_key(obj, "edges", list)
        )
        return TwoPoleGraph(tuple(str(v) for v in json_key(obj, "vertices", list)), edges,
                            str(json_key(obj, "top")), str(json_key(obj, "bottom")))


def _weight_from_json(w):
    """An int or "p/q" string weight as a Fraction; any other JSON value (a
    float, a bool, null) as it is, for the constructor to reject."""
    return num_from_json(w) if type(w) in (int, str) else w


def single_edge() -> TwoPoleGraph:
    """B_0: one directed edge from bottom to top; unit of the composition."""
    return TwoPoleGraph(("bottom", "top"), (Edge("", "bottom", "top"),), "top", "bottom")


def compose(h: TwoPoleGraph, g: TwoPoleGraph) -> TwoPoleGraph:
    """Replace every directed edge uv of h by a copy of g (bottom at u, top at v).

    Edge ids of the result are join(h edge id, g edge id); interior vertices
    of the copy on edge e are named join(e.id, vertex).  |E| multiplies.
    """
    if len(h.edges) * len(g.edges) > EDGE_CAP:
        raise ResourceLimit("composition would exceed the edge cap")
    vertices = list(h.vertices)
    edges = []
    g_interior = [v for v in g.vertices if v not in (g.top, g.bottom)]
    for he in h.edges:
        vmap = {g.bottom: he.tail, g.top: he.head}
        for w in g_interior:
            name = join_id(he.id, w)
            vmap[w] = name
            vertices.append(name)
        for ge in g.edges:
            edges.append(Edge(join_id(he.id, ge.id), vmap[ge.tail], vmap[ge.head], ge.weight))
    # canonical ordering makes the associativity identity literal equality
    vertices.sort()
    edges.sort(key=lambda e: e.id)
    return TwoPoleGraph(tuple(vertices), tuple(edges), h.top, h.bottom)


def recursive_family(base: TwoPoleGraph, n: int) -> TwoPoleGraph:
    """n-fold composition power of the base, starting from the single edge."""
    if n < 0:
        raise ValidationError("level must be >= 0")
    if len(base.edges) ** n > EDGE_CAP:
        raise ResourceLimit(f"|E| = {len(base.edges)}^{n} exceeds the edge cap")
    g = single_edge()
    for _ in range(n):
        g = compose(g, base)
    return g


# ---------------------------------------------------------------------------
# Base graphs and named families
# ---------------------------------------------------------------------------

def diamond_base() -> TwoPoleGraph:
    """Unit square with poles at opposite corners; edge ids are the Haar
    quarters tl, bl, br, tr (counterclockwise from the top vertex)."""
    return TwoPoleGraph(
        ("bottom", "top", "l", "r"),
        (
            Edge("tl", "l", "top"),
            Edge("bl", "bottom", "l"),
            Edge("br", "bottom", "r"),
            Edge("tr", "r", "top"),
        ),
        "top", "bottom",
    )


def k2n_base(k: int) -> TwoPoleGraph:
    """K_{2,k} pattern: k independent length-2 paths from bottom to top."""
    if k < 2:
        raise ValidationError("branching k must be >= 2")
    vertices = ["bottom", "top"] + [f"m{j}" for j in range(1, k + 1)]
    edges = []
    for j in range(1, k + 1):
        edges.append(Edge(f"p{j}d", "bottom", f"m{j}"))
        edges.append(Edge(f"p{j}u", f"m{j}", "top"))
    return TwoPoleGraph(tuple(vertices), tuple(edges), "top", "bottom")


def laakso_base() -> TwoPoleGraph:
    """The 6-edge Laakso pattern: stems at both poles around a 4-cycle."""
    return TwoPoleGraph(
        ("bottom", "u", "x", "y", "w", "top"),
        (
            Edge("b", "bottom", "u"),
            Edge("x1", "u", "x"),
            Edge("x2", "x", "w"),
            Edge("y1", "u", "y"),
            Edge("y2", "y", "w"),
            Edge("t", "w", "top"),
        ),
        "top", "bottom",
    )


def diamond(n: int) -> TwoPoleGraph:
    return recursive_family(diamond_base(), n)


def multidiamond(n: int, k: int) -> TwoPoleGraph:
    return recursive_family(k2n_base(k), n)


def laakso(n: int) -> TwoPoleGraph:
    return recursive_family(laakso_base(), n)


def path(n: int) -> TwoPoleGraph:
    """Path with n edges; bottom at v0, top at vn."""
    if n < 1:
        raise ValidationError("path needs at least one edge")
    vertices = tuple(f"v{i}" for i in range(n + 1))
    edges = tuple(Edge(f"e{i}", f"v{i}", f"v{i+1}") for i in range(n))
    return TwoPoleGraph(vertices, edges, f"v{n}", "v0")


def star(n: int) -> TwoPoleGraph:
    """Star K_{1,n} with the hub as bottom and the first leaf as top."""
    if n < 1:
        raise ValidationError("star needs at least one leaf")
    vertices = ("c",) + tuple(f"v{i}" for i in range(1, n + 1))
    edges = tuple(Edge(f"e{i}", "c", f"v{i}") for i in range(1, n + 1))
    return TwoPoleGraph(vertices, edges, "v1", "c")


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------

def automorphism_search(g: TwoPoleGraph, constraint: str):
    """All undirected-graph automorphisms with a pole constraint.

    constraint: 'fix-poles' maps each pole to itself, 'swap-poles' exchanges
    them.  Plain backtracking with degree/pole-distance pruning; intended
    for the small base graphs, capped at AUTOMORPHISM_VERTEX_CAP vertices.
    """
    if constraint not in ("fix-poles", "swap-poles"):
        raise ValidationError(f"unknown constraint {constraint!r}")
    if len(g.vertices) > AUTOMORPHISM_VERTEX_CAP:
        raise ResourceLimit(
            f"automorphism search capped at {AUTOMORPHISM_VERTEX_CAP} vertices")

    space = graph_metric(g)
    adj = {v: set(g.adjacency[v]) for v in g.vertices}
    to_top = space.distances_from(g.top)
    to_bottom = space.distances_from(g.bottom)

    def profile(v, swapped):
        dt, db = to_top[v], to_bottom[v]
        return (len(adj[v]), (db, dt) if swapped else (dt, db))

    swapped = constraint == "swap-poles"
    verts = sorted(g.vertices)
    profiles = {v: profile(v, False) for v in verts}
    targets = {v: profile(v, swapped) for v in verts}

    sigma: dict[str, str] = {}
    used: set[str] = set()
    if swapped:
        sigma[g.top], sigma[g.bottom] = g.bottom, g.top
    else:
        sigma[g.top], sigma[g.bottom] = g.top, g.bottom
    used.update((g.top, g.bottom))
    rest = [v for v in verts if v not in (g.top, g.bottom)]
    found = []

    def consistent(v, w):
        for u in sigma:
            if (u in adj[v]) != (sigma[u] in adj[w]):
                return False
        return True

    def backtrack(i):
        if i == len(rest):
            found.append(dict(sigma))
            return
        v = rest[i]
        for w in verts:
            if w in used or profiles[w] != targets[v]:
                continue
            if not consistent(v, w):
                continue
            sigma[v] = w
            used.add(w)
            backtrack(i + 1)
            del sigma[v]
            used.discard(w)

    backtrack(0)
    found.sort(key=lambda m: tuple(m[v] for v in verts))
    return found

