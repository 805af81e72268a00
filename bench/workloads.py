"""The four benchmark workloads.

``setup(seed)`` builds a workload's inputs through freelip's public API
(graphs, metrics, cycle bases, base profiles, seeded random instances) and
returns a pool of rounds.  Every round holds the same sequence of claim
slots; in the seeded workloads each round draws fresh instances of the
same shapes (point counts, support sizes, supply/demand splits), in the
fixed-input workloads every round is the same.  A claim's ``run`` makes
only the program calls that certify it; its ``check`` verifies the result
with bench/checks.py and never calls the program's solvers.

Rounds are kept to a few seconds and no claim to more than about 1.5 s on
the reference machine, so that a run holds many samples of every slot and
the per-slot medians in run.py can drop the ones a burst of machine noise
slowed down.  Instances whose single call takes longer are left out; the
README lists them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from freelip import (cyclespace, embeddings, freenorm, graphs, haar_system, metric,
                     projections, recursive)

import checks


@dataclass
class Claim:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


# ---------------------------------------------------------------------------
# Seeded instance generators (the program receives only their outputs)
# ---------------------------------------------------------------------------

def random_metric(rng, n):
    """Shortest-path closure of random weights in {2/3, ..., 12}, computed
    in sixths as integers, then validated as a metric by the program."""
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = 6 * rng.randint(2, 12) // rng.randint(1, 3)
    for k in range(n):
        dk = d[k]
        for row in d:
            dik = row[k]
            for j in range(n):
                if dik + dk[j] < row[j]:
                    row[j] = dik + dk[j]
    return metric.validate_metric([[Fraction(x, 6) for x in row] for row in d],
                                  points=[f"p{i:02d}" for i in range(n)])


def random_molecule(rng, points, n_sources, n_sinks):
    """Molecule with exactly n_sources positive and n_sinks negative points;
    masses are multiples of 1/q for a random q, so denominators stay small."""
    chosen = rng.sample(list(points), n_sources + n_sinks)
    q = rng.choice((1, 2, 3, 4, 6))
    supply = [rng.randint(1, 8) for _ in range(n_sources)]
    demand = [1] * n_sinks
    spare = sum(supply) - n_sinks
    while spare < 0:
        supply[rng.randrange(n_sources)] += 1
        spare += 1
    for _ in range(spare):
        demand[rng.randrange(n_sinks)] += 1
    coeffs = {p: Fraction(v, q) for p, v in zip(chosen, supply)}
    coeffs.update({p: Fraction(-v, q) for p, v in zip(chosen[n_sources:], demand)})
    return metric.Molecule(coeffs)


def flow_with_boundary(rng, graph, molecule, basis):
    """A random edge vector whose boundary is the molecule: the spanning-tree
    flow of the molecule plus a random rational combination of cycles."""
    adjacency: dict = {v: [] for v in graph.vertices}
    for e in graph.edges:
        adjacency[e.tail].append((e.head, e))
        adjacency[e.head].append((e.tail, e))
    parent_edge = {graph.bottom: None}
    order = [graph.bottom]
    for u in order:
        for w, e in adjacency[u]:
            if w not in parent_edge:
                parent_edge[w] = e
                order.append(w)
    below = {v: molecule.coeffs.get(v, Fraction(0)) for v in graph.vertices}
    x: dict = {}
    for v in reversed(order[1:]):
        e = parent_edge[v]
        x[e.id] = below[v] if e.head == v else -below[v]
        below[e.tail if e.head == v else e.head] += below[v]
    for z in basis.vectors:
        if rng.random() < 0.5:
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for eid, v in z.coeffs.items():
                x[eid] = x.get(eid, Fraction(0)) + c * v
    return cyclespace.EdgeVector(graph, x)


def metric_graph(space):
    """The weighted graph of the pairs (p, q) with no point r strictly
    between them (d(p,r) + d(r,q) > d(p,q)); its shortest-path metric is
    the space's, so transport on the space is min-cost flow on it."""
    pts = list(space.points)
    n = len(pts)
    d = [[int(6 * x) for x in row] for row in space.dist]  # distances are sixths
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if all(d[i][k] + d[k][j] != d[i][j] for k in range(n) if k not in (i, j)):
                edges.append(graphs.Edge(f"{pts[i]}-{pts[j]}", pts[i], pts[j], space.dist[i][j]))
    return graphs.TwoPoleGraph(tuple(pts), tuple(edges), pts[-1], pts[0])


def weighted(graph, vector):
    """Scale each coordinate by its edge weight, so the plain l1 quotient
    norm becomes the weighted one."""
    w = {e.id: e.weight for e in graph.edges}
    return cyclespace.EdgeVector(graph, {eid: w[eid] * v for eid, v in vector.coeffs.items()})


# ---------------------------------------------------------------------------
# transport-large
# ---------------------------------------------------------------------------

TRANSPORT_ROUNDS = 16
# One round's slots: boundary molecules on graphs as (graph, sources, sinks),
# then full-support molecules on random rational metric spaces as (points,
# also certified by lip_dual).  lip_dual on the graphs is left out: see README.
TRANSPORT_GRAPHS = (("L2", 12, 12), ("D23", 10, 10), ("D3", 10, 10))
TRANSPORT_SPACES = ((16, True), (18, False), (20, False))


def transport_claim(name, space, molecule, x, basis, with_dual):
    def run():
        value, plan = freenorm.ae_norm(space, molecule)
        qvalue = cyclespace.quotient_norm(x, basis)
        cert = freenorm.lip_dual(space, molecule) if with_dual else None
        return value, plan, qvalue, cert

    def check(result):
        value, plan, qvalue, cert = result
        checks.check_plan(space, molecule, value, plan)
        checks.check_quotient(qvalue, value)
        if cert is not None:
            checks.check_dual(space, molecule, cert, value)

    return Claim(name, run, check)


def setup_transport(seed):
    rng = random.Random(f"transport-large/{seed}")
    families = {"L2": graphs.laakso(2), "D23": graphs.multidiamond(2, 3), "D3": graphs.diamond(3)}
    fixed = {name: (g, metric.graph_metric(g), cyclespace.fundamental_cycle_basis(g))
             for name, g in families.items()}
    rounds = []
    for _ in range(TRANSPORT_ROUNDS):
        claims = []
        for name, ns, nd in TRANSPORT_GRAPHS:
            g, space, basis = fixed[name]
            m = random_molecule(rng, space.points, ns, nd)
            x = flow_with_boundary(rng, g, m, basis)
            claims.append(transport_claim(name, space, m, x, basis, False))
        for n, dual in TRANSPORT_SPACES:
            space = random_metric(rng, n)
            g = metric_graph(space)
            basis = cyclespace.fundamental_cycle_basis(g)
            wbasis = cyclespace.CycleBasis(tuple(weighted(g, z) for z in basis.vectors))
            m = random_molecule(rng, space.points, n // 2, n - n // 2)
            x = weighted(g, flow_with_boundary(rng, g, m, basis))
            claims.append(transport_claim(f"rand{n}", space, m, x, wbasis, dual))
        rounds.append(claims)
    return rounds


# ---------------------------------------------------------------------------
# embedding-many
# ---------------------------------------------------------------------------

EMBEDDING_ROUNDS = 8
HALF_DIM_SIZES = tuple(range(4, 17))
HALF_DIM_PER_SIZE = 2
# random weighted trees per round: (edges, trees, molecules per tree, support size)
TREES = ((6, 2, 3, 5), (10, 2, 3, 8), (14, 2, 3, 10))
STAGE_NETS = ((2, 1), (3, 1), (3, 2))


def random_tree(rng, n_edges):
    """Vertex i attaches to a random earlier vertex with a rational weight."""
    edges = [graphs.Edge(f"e{i}", f"v{rng.randrange(i)}", f"v{i}",
                         Fraction(rng.randint(1, 9), rng.randint(1, 4)))
             for i in range(1, n_edges + 1)]
    vertices = tuple(f"v{i}" for i in range(n_edges + 1))
    return graphs.TwoPoleGraph(vertices, tuple(edges), vertices[-1], vertices[0])


def tree_claim(name, tree, space, m):
    def run():
        return freenorm.tree_norm(tree, m), freenorm.ae_norm(space, m)

    def check(result):
        tree_value, (value, plan) = result
        checks.check_plan(space, m, value, plan)
        checks.check_tree_norm(tree_value, value)

    return Claim(name, run, check)


def setup_embedding(seed):
    rng = random.Random(f"embedding-many/{seed}")
    fixed = []
    for n in (1, 2, 3):
        space = metric.graph_metric(graphs.diamond(n))
        fixed.append(Claim(f"diamond-top-{n}",
                           lambda n=n: embeddings.diamond_top_level(n),
                           lambda rep, n=n, space=space: checks.check_diamond_top(space, rep, n)))
    for n, m in STAGE_NETS:
        g = graphs.diamond(n)
        space = metric.graph_metric(g)
        ys = sorted(set(g.vertices) - set(embeddings.diamond_stage_net(n, m)))
        fixed.append(Claim(
            f"stage-net-{n}-{m}",
            lambda space=space, ys=ys: embeddings.large_embedding(space, ys),
            lambda rep, space=space, c=2 ** (n - m): checks.check_embedding(space, rep, max_c=c)))
    rounds = []
    for _ in range(EMBEDDING_ROUNDS):
        claims = list(fixed)
        for n in HALF_DIM_SIZES:
            for i in range(HALF_DIM_PER_SIZE):
                space = random_metric(rng, n)
                claims.append(Claim(f"half-dim-{n}.{i}",
                                    lambda space=space: embeddings.half_dim_embedding(space),
                                    lambda rep, space=space: checks.check_half_dim(space, rep)))
        for n_edges, count, per_tree, support in TREES:
            for i in range(count):
                t = random_tree(rng, n_edges)
                space = metric.graph_metric(t)
                for j in range(per_tree):
                    m = random_molecule(rng, t.vertices, support // 2, support - support // 2)
                    claims.append(tree_claim(f"tree-{n_edges}.{i}.{j}", t, space, m))
        rounds.append(claims)
    return rounds


# ---------------------------------------------------------------------------
# haar-growth (fixed inputs; the seed does not change them)
# ---------------------------------------------------------------------------

SPAN_LEVELS = (1, 2, 3)    # n = 4 is one 13-17 s call: see README
BM_LEVELS = (1, 2)         # n = 3 is one 2-4 s call: see README
MULTIBRANCH = ((1, 3), (2, 3), (1, 4))
HAAR_WITNESS_LEVELS = (1, 2, 3, 4, 5)
# largest witness r per base; Laakso's r = 5 is one 1-2 s call: see README
WITNESS_MAX_R = {"square": 5, "k23": 5, "laakso": 4}


def witness_level_r2(alpha):
    """Level of the r = 2 witness: 2 + the least t with 1 / 2^t < alpha / 4."""
    t = 1
    while Fraction(1, 2 ** t) >= alpha / 4:
        t += 1
    return 2 + t


def setup_haar(seed):
    claims = []
    for n in SPAN_LEVELS:
        g = graphs.diamond(n)

        def check_span(ok, g=g, n=n):
            checks.require(ok is True, f"even-level span check failed at n = {n}")
            checks.require(len(g.edges) - len(g.vertices) + 1 == (4 ** n - 1) // 3,
                           "cycle dimension != number of even-level Haar functions")

        claims.append(Claim(f"span-{n}", lambda n=n, g=g: haar_system.verify_even_level_span(n, g),
                            check_span))
    for n in BM_LEVELS:
        claims.append(Claim(f"bm-{n}", lambda n=n: haar_system.diamond_bm_bounds(n),
                            lambda b, n=n: checks.check_bm_bounds(n, b)))
    for n, k in MULTIBRANCH:
        n_vertices = len(graphs.multidiamond(n, k).vertices)
        claims.append(Claim(f"multibranch-{n}-{k}",
                            lambda n=n, k=k: haar_system.multibranch_analysis(n, k),
                            lambda r, n=n, k=k, nv=n_vertices: checks.check_multibranch(n, k, r, nv)))
    for n in HAAR_WITNESS_LEVELS:
        claims.append(Claim(f"haar-witness-{n}", lambda n=n: haar_system.haar_witness_bound(n),
                            lambda res, n=n: checks.check_haar_witness(n, res)))
    for name, base in (("square", graphs.diamond_base()), ("k23", graphs.k2n_base(3)),
                       ("laakso", graphs.laakso_base())):
        prof = recursive.profile_base(base)
        flat = graphs.recursive_family(base, witness_level_r2(prof.alpha))
        for r in range(1, WITNESS_MAX_R[name] + 1):
            def run(prof=prof, r=r, flat=flat):
                w = recursive.witness(prof, r)
                if r != 2:
                    return w, None
                return w, (w.c_vector.materialize(flat), w.sum_vector.materialize(flat))

            def check(result, alpha=prof.alpha, r=r):
                w, materialized = result
                checks.check_growth_witness(w, alpha, r, materialized)

            claims.append(Claim(f"witness-{name}-{r}", run, check))
    return [claims]


# ---------------------------------------------------------------------------
# projection (fixed inputs; the seed does not change them)
# ---------------------------------------------------------------------------

MIN_PROJ_FLOAT = ("D1", "L1", "D2", "L2")   # D3 is one 6-9 s, 1.5 GB call: see README
MIN_PROJ_EXACT = ("D1", "L1")
GROUP_ORDER_D2 = 64


def setup_projection(seed):
    families = {"D1": graphs.diamond(1), "L1": graphs.laakso(1),
                "D2": graphs.diamond(2), "L2": graphs.laakso(2)}
    built = {name: (g, [z.dense() for z in cyclespace.fundamental_cycle_basis(g).vectors])
             for name, g in families.items()}
    claims = []

    def min_proj_claim(name, mode):
        g, cols = built[name]

        def run():
            p_orth = projections.orthogonal_projection(cols)
            lam, p = projections.minimal_projection_lp(cols, len(g.edges), mode=mode)
            return p_orth, lam, p

        def check(result):
            p_orth, lam, p = result
            checks.check_symmetric(p_orth, "orthogonal P")
            checks.check_cycle_projection(p_orth, g, cols, "orthogonal P")
            checks.check_min_projection(lam, p, g, cols, checks.l1_operator_norm(p_orth),
                                        exact=mode == "exact")

        return Claim(f"min-proj-{mode}-{name}", run, check)

    for name in MIN_PROJ_FLOAT:
        claims.append(min_proj_claim(name, "float"))
    for name in MIN_PROJ_EXACT:
        claims.append(min_proj_claim(name, "exact"))

    profiles = {"D2": recursive.profile_base(graphs.diamond_base()),
                "L2": recursive.profile_base(graphs.laakso_base())}
    for name, prof in profiles.items():
        g, cols = built[name]
        n_base = len(prof.graph.edges)

        def run(g=g, cols=cols, prof=prof):
            return recursive.annihilation_check(projections.orthogonal_projection(cols), prof, 2, g)

        def check(rep, n_base=n_base):
            checks.require(rep["all_annihilated"] and not rep["failures"],
                           "an invariant projection does not annihilate every c-type vector")
            checks.require(rep["c_type_count"] == n_base + 1,
                           f"{rep['c_type_count']} c-type vectors, expected {n_base + 1}")

        claims.append(Claim(f"annihilation-{name}", run, check))

    g, cols = built["D2"]
    gens = [recursive.edge_map_matrix(g, emap) for _, emap
            in sorted(recursive.invariance_generators(profiles["D2"], 2, g).items())]

    def run_average():
        group = projections.generate_group(gens)
        _, p = projections.minimal_projection_lp(cols, len(g.edges))
        return group, p, projections.average_projection(p, group)

    def check_average(result):
        group, p, avg = result
        checks.check_group(group, gens, GROUP_ORDER_D2)
        checks.check_cycle_projection(avg, g, cols, "average")
        checks.check_average(avg, p, group)

    claims.append(Claim("group-average-D2", run_average, check_average))

    l2, l2_cols = built["L2"]

    def check_nonunique(res):
        p, p_orth = res["projection"], res["orthogonal"]
        checks.check_cycle_projection(p, l2, l2_cols)
        checks.check_symmetric(p_orth, "orthogonal P")
        checks.check_cycle_projection(p_orth, l2, l2_cols, "orthogonal P")
        checks.require(p != p_orth, "invariant projection equals the orthogonal one")
        checks.require(len(res["invariant_under"]) == 8, "expected 8 invariance generators")

    claims.append(Claim("laakso-nonunique", lambda: recursive.laakso_nonunique_projection(),
                        check_nonunique))
    return [claims]


WORKLOADS = {
    "transport-large": setup_transport,
    "embedding-many": setup_embedding,
    "haar-growth": setup_haar,
    "projection": setup_projection,
}
