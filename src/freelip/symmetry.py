"""Cycle-preserving edge bijections, over which the paper averages
projections (Grunbaum 1960, Rudin 1962); they need not be graph
automorphisms.  A bijection is the map of the edges it moves (edge id ->
image id, unlisted edges fixed; moved_edges checks it), and it acts on
operators, held as integer rows over one denominator, through its index
map s: s[i] is the coordinate of the image of coordinate i.  For the
permutation matrix g with its 1 at (s(i), i), g^{-1} P g has the entries
P[s(i)][s(j)], so commuting and group averages are re-indexings of P and
no matrix is built here.
"""

from __future__ import annotations

import itertools
from operator import add, mul

from . import linalg
from .cyclespace import fundamental_cycle_basis
from .errors import ResourceLimit, ValidationError
from .graphs import TwoPoleGraph

GROUP_CAP = 10 ** 6             # elements of a generated group


def edge_map_from_vertex_map(g: TwoPoleGraph, sigma: dict[str, str]) -> dict[str, str]:
    """Induced bijection on edge ids (undirected: endpoint images looked up)."""
    out = {}
    for e in g.edges:
        img = g.edge_by_pair.get(frozenset((sigma[e.tail], sigma[e.head])))
        if img is None:
            raise ValidationError("vertex map is not a graph automorphism")
        out[e.id] = img.id
    return out


def moved_edges(g: TwoPoleGraph, emap: dict[str, str], kind: str = "edge map") -> dict[str, str]:
    """The edges that an edge map moves, with their images.  ValidationError,
    naming the map as kind, unless its keys are edge ids of g and it
    permutes them."""
    if not emap.keys() <= g.edge_by_id.keys() or set(emap.values()) != emap.keys():
        raise ValidationError(f"{kind} is not a bijection of the graph's edge ids")
    return {e: f for e, f in emap.items() if e != f}


def index_map(graph: TwoPoleGraph, emap: dict[str, str]) -> list:
    """The index map of an edge map over graph.edge_order, order[e] ->
    order[emap[e]]; ValidationError unless it is an edge bijection."""
    order = graph.edge_order
    perm = list(range(len(graph.edges)))
    for eid, img in moved_edges(graph, emap).items():
        perm[order[eid]] = order[img]
    return perm


def fixing_pole_swaps(b: TwoPoleGraph, swaps):
    """The edge maps of the pole swaps in swaps (automorphism_search's vertex
    maps of b) that fix every fundamental cycle of b, lazily, in order."""
    basis = fundamental_cycle_basis(b).vectors
    for sigma in swaps:
        emap = edge_map_from_vertex_map(b, sigma)
        if all(z.permute(emap) == z for z in basis):
            yield emap


def vertical_automorphism(profile, n: int) -> dict[str, str]:
    """Edge bijection of the level-n graph of a recursive.profile_base: the
    base pole swap applied coordinatewise to every id segment."""
    if n < 0:
        raise ValidationError("level must be >= 0")
    vmap = profile.vertical_edges
    return {"/".join(ids): "/".join(vmap[seg] for seg in ids)
            for ids in itertools.product(sorted(vmap), repeat=n)}


def invariance_generators(profile, n: int, graph: TwoPoleGraph) -> dict[str, dict[str, str]]:
    """Named edge bijections of the level-n graph, each the map of the
    edges it moves: the vertical automorphism "v", then every nontrivial
    horizontal i inside every copy at every depth, "h<i>" at depth 1 and
    "h<i>@<prefix>" in the copy at that prefix.  Raises ValidationError
    unless graph's edge ids are the level-n ids of the profile's base."""
    b = profile.graph
    vertical = vertical_automorphism(profile, n)
    if vertical.keys() != graph.edge_by_id.keys():
        raise ValidationError(f"graph's edge ids are not the level-{n} ids of the base")
    gens = {"v": {e: f for e, f in vertical.items() if e != f}}
    nontrivial = [s for s in profile.horizontals if any(s[v] != v for v in b.vertices)]
    base_ids = sorted(e.id for e in b.edges)
    for gi, sigma in enumerate(nontrivial):
        moved = moved_edges(b, edge_map_from_vertex_map(b, sigma))
        for depth in range(1, n + 1):
            suffixes = ["".join("/" + seg for seg in tail)
                        for tail in itertools.product(base_ids, repeat=n - depth)]
            for prefix in itertools.product(base_ids, repeat=depth - 1):
                stem = "".join(seg + "/" for seg in prefix)
                gens[f"h{gi}@{stem[:-1]}" if stem else f"h{gi}"] = {
                    stem + e + suf: stem + f + suf for e, f in moved.items() for suf in suffixes}
    return gens


def commutes(num: list, s) -> bool:
    """Whether the square matrix num commutes with the permutation matrix of
    index map s, that is num[s(i)][s(j)] = num[i][j] for all i, j."""
    return all([src[sj] for sj in s] == row for row, src in zip(num, (num[si] for si in s)))


def check_invariant(num: list, graph: TwoPoleGraph, gens: dict) -> None:
    """ValidationError names the first of gens (name -> edge map) that the
    square matrix num on graph's edges does not commute with."""
    for name, emap in gens.items():
        if not commutes(num, index_map(graph, emap)):
            raise ValidationError(f"projection does not commute with generator {name}")


def closure(maps: list) -> list:
    """The group that index maps of one length generate, as tuples in
    breadth-first order from the identity, each new element a times every
    generator g (the map i -> a(g(i))).  ValidationError for no maps,
    ResourceLimit past GROUP_CAP elements."""
    if not maps:
        raise ValidationError("a group closure needs at least one generator")
    ident = tuple(range(len(maps[0])))
    seen = {ident: None}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in maps:
                prod = tuple(a[gi] for gi in g)
                if prod not in seen:
                    if len(seen) >= GROUP_CAP:
                        raise ResourceLimit(f"group closure exceeds cap {GROUP_CAP}")
                    seen[prod] = None
                    nxt.append(prod)
        frontier = nxt
    return list(seen)


def average(num: list, den: int, elements: list, generators: list | None = None) -> tuple:
    """(A, den |G|): the Grunbaum-Rudin average (1/|G|) sum g^{-1} P g of
    P = num / den over the index maps of a group's elements, A the sum of
    the re-indexed copies of num: a projection onto range(P), of no larger
    l1 norm, commuting with every element, when P is a projection
    (ValidationError otherwise) and every element maps range(P) onto itself
    (ValidationError otherwise; checking the generators, when given,
    is enough).  Both run on one fraction-free elimination of num^T, whose
    rows v_t span range(P) with E at their pivots q_t and 0 at the others':
    num v_t = den v_t, and E w = sum_t w[q_t] v_t for w = g^{-1} v_t (g^{-1}
    keeps range(P) exactly when g does).  ValidationError unless num is
    square and of the elements' size."""
    n = len(num)
    if any(len(row) != n for row in num):
        raise ValidationError("P is not square")
    if any(len(s) != n for s in elements):
        raise ValidationError(f"group element is not {n} x {n}")
    basis, pivots, scale = linalg.gauss_jordan(zip(*num), n)
    if any([sum(map(mul, row, v)) for row in num] != [den * x for x in v] for v in basis):
        raise ValidationError("P is not a projection")
    for s in elements if generators is None else generators:
        for v in basis:
            w = [v[si] for si in s]
            combo = [0] * n
            for q, r in zip(pivots, basis):
                c = w[q]
                if c:
                    combo = [a + c * x for a, x in zip(combo, r)]
            if combo != [scale * x for x in w]:
                raise ValidationError("a group element moves the range of P")
    acc = [[0] * n for _ in range(n)]
    for s in elements:
        for acc_row, si in zip(acc, s):
            src = num[si]
            acc_row[:] = map(add, acc_row, [src[sj] for sj in s])
    return acc, den * len(elements)
