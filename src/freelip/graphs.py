"""Two-pole directed graphs, edge-substitution composition, and the
recursive diamond / multibranching / Laakso families.

Vertex and edge identifiers of composed graphs are slash-joined paths that
record the recursion, so the copy of the base graph that evolved from a
given edge is addressable by its id prefix.  With this naming the
composition is literally associative (equal vertex and edge id sets), and
the single-edge graph is a two-sided unit.
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


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str
    weight: Fraction = Fraction(1)


@dataclass(frozen=True)
class TwoPoleGraph:
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    top: str
    bottom: str

    def __post_init__(self):
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValidationError("duplicate vertex names")
        if self.top == self.bottom:
            raise ValidationError("top and bottom must differ")
        if self.top not in vset or self.bottom not in vset:
            raise ValidationError("poles must be vertices")
        seen_ids = set()
        seen_pairs = set()
        for e in self.edges:
            if e.tail == e.head:
                raise ValidationError(f"self-loop at {e.tail!r}")
            if e.tail not in vset or e.head not in vset:
                raise ValidationError(f"edge {e.id!r} has unknown endpoint")
            if e.id in seen_ids:
                raise ValidationError(f"duplicate edge id {e.id!r}")
            pair = frozenset((e.tail, e.head))
            if pair in seen_pairs:
                raise ValidationError(f"parallel edge between {e.tail!r} and {e.head!r}")
            seen_ids.add(e.id)
            seen_pairs.add(pair)
        # connectivity (undirected)
        adj = {v: [] for v in self.vertices}
        for e in self.edges:
            adj[e.tail].append(e.head)
            adj[e.head].append(e.tail)
        seen = {self.bottom}
        stack = [self.bottom]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(self.vertices):
            raise ValidationError("graph is not connected")

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
                 num_from_json(e.get("weight", 1)))
            for e in json_key(obj, "edges")
        )
        return TwoPoleGraph(tuple(str(v) for v in json_key(obj, "vertices")), edges,
                            str(json_key(obj, "top")), str(json_key(obj, "bottom")))


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

