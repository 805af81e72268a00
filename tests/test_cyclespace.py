import random
import time
from fractions import Fraction as F

import pytest

from hypothesis import given, settings, strategies as st

from freelip import cyclespace, simplex
from freelip.cyclespace import (CycleBasis, EdgeVector, boundary,
                                fundamental_cycle_basis,
                                fundamental_cycles_as_walks, greedy_cycle_packing,
                                mu, quotient_norm, signed_indicator, spanning_tree,
                                up_down_decomposition)
from freelip.errors import NotACycle, SolverFailure, ValidationError
from freelip.graphs import Edge, TwoPoleGraph, diamond, k2n_base, laakso, multidiamond, path
from freelip.metric import graph_metric
from freelip.freenorm import ae_norm
from freelip.randgen import random_edge_vector, random_molecule
from freelip.simplex import min_l1_combination

import oracles
from oracles import flow_norm

RNG_SEED = 777


def test_signed_indicator_diamond_outer_cycle():
    g = diamond(1)
    vec = signed_indicator(["tl", "bl", "br", "tr"], g)
    # one ascending and one descending pair, walked around the square
    assert vec.coeffs["tl"] == vec.coeffs["bl"]
    assert vec.coeffs["br"] == vec.coeffs["tr"] == -vec.coeffs["tl"]
    assert abs(vec.coeffs["tl"]) == 1


def test_signed_indicator_reversal_negates():
    g = diamond(1)
    walk = ["tl", "bl", "br", "tr"]
    vec = signed_indicator(walk, g)
    rev = signed_indicator(list(reversed(walk)), g)
    assert rev == -vec


@pytest.mark.parametrize("value", [F(1), F(0), 0])
def test_edge_vector_rejects_an_unknown_id(value):
    with pytest.raises(ValidationError, match="unknown edge id 'xx'"):
        EdgeVector(diamond(1), {"tl": F(1), "xx": value})


def test_edge_vector_names_the_first_unknown_id():
    g = diamond(1)
    with pytest.raises(ValidationError, match="'zz'$"):
        EdgeVector(g, {"tl": 1, "zz": 1, "bl": 1, "aa": 1})
    with pytest.raises(ValidationError, match="'aa'$"):
        EdgeVector(g, {"aa": 0, "tl": 1, "zz": 1})


def test_edge_vector_drops_zeros_and_makes_fractions():
    vec = EdgeVector(diamond(1), {"tl": 2, "bl": 0, "br": F(0), "tr": F(-1, 3)})
    assert vec.coeffs == {"tl": F(2), "tr": F(-1, 3)}
    assert [type(v) for v in vec.coeffs.values()] == [F, F]


def test_trusted_constructor_matches_the_checked_one():
    g = diamond(2)
    d = {e.id: F(i - 7, 3) for i, e in enumerate(reversed(g.edges)) if i != 7}
    vec = EdgeVector.of_nonzero(g, dict(d))
    want = EdgeVector(g, d)
    assert vec == want and list(vec.coeffs) == list(want.coeffs)
    with pytest.raises(ValidationError, match="unknown edge id 'xx'"):
        EdgeVector.of_nonzero(g, {"tl/tl": F(1), "xx": F(1)})


def test_permute_to_an_unknown_edge_raises():
    vec = EdgeVector(diamond(1), {"tl": F(1), "bl": F(2)})
    assert vec.permute({"tl": "bl", "bl": "tl"}).coeffs == {"bl": 1, "tl": 2}
    with pytest.raises(ValidationError, match="'nowhere'"):
        vec.permute({"tl": "bl", "bl": "nowhere"})


def test_permute_keeps_unlisted_edges_and_rejects_collisions():
    vec = EdgeVector(diamond(1), {"tl": F(1), "bl": F(2), "br": F(3)})
    assert vec.permute({"tl": "tr", "tr": "tl"}).coeffs == {"tr": 1, "bl": 2, "br": 3}
    with pytest.raises(ValidationError, match="two support edges"):
        vec.permute({"tl": "bl", "bl": "bl", "tr": "tr", "br": "br"})
    with pytest.raises(ValidationError, match="two support edges"):
        vec.permute({"tl": "br"})


def test_signed_indicator_laakso_central_cycle():
    g = laakso(1)
    vec = signed_indicator(["x1", "x2", "y2", "y1"], g)
    assert set(vec.coeffs) == {"x1", "x2", "y1", "y2"}  # stems untouched
    assert vec.get("b") == 0 and vec.get("t") == 0
    assert vec.coeffs["x1"] == vec.coeffs["x2"] == -vec.coeffs["y1"]


def test_signed_indicator_rejects_non_cycles():
    g = diamond(1)
    with pytest.raises(NotACycle):
        signed_indicator(["tl", "bl"], g)
    with pytest.raises(NotACycle):
        signed_indicator(["tl", "bl", "br"], g)  # open walk
    with pytest.raises(NotACycle):
        signed_indicator(["tl", "tl", "bl", "br"], g)


def test_fundamental_basis_tree_is_empty():
    assert len(fundamental_cycle_basis(path(5)).vectors) == 0


def test_fundamental_basis_diamond_two():
    basis = fundamental_cycle_basis(diamond(2))
    assert len(basis.vectors) == 16 - 12 + 1 == 5
    dense = [v.dense() for v in basis.vectors]
    assert oracles.fraction_rank(dense) == 5
    for v in basis.vectors:
        assert not boundary(v).coeffs


def test_fundamental_basis_diamond_one_spans_outer_cycle():
    g = diamond(1)
    basis = fundamental_cycle_basis(g)
    assert len(basis.vectors) == 1
    outer = signed_indicator(["tl", "bl", "br", "tr"], g)
    assert oracles.fraction_rank([basis.vectors[0].dense(), outer.dense()]) == 1


def _every_other_edge_reversed(g):
    edges = tuple(Edge(e.id, e.head, e.tail, e.weight) if k % 2 else e
                  for k, e in enumerate(g.edges))
    return TwoPoleGraph(g.vertices, edges, g.top, g.bottom)


@pytest.mark.parametrize("g", [
    diamond(3), laakso(2), multidiamond(2, 3), path(4),
    _every_other_edge_reversed(diamond(2)), _every_other_edge_reversed(laakso(1)),
], ids=["d3", "l2", "m23", "path", "d2-mixed", "l1-mixed"])
def test_fundamental_walk_signs_are_the_signed_indicators(g):
    # the basis vectors are read from the walks' signs, and those signs are
    # signed_indicator's for the same walk, on upward and mixed orientations
    walks = list(fundamental_cycles_as_walks(g))
    basis = fundamental_cycle_basis(g).vectors
    assert len(walks) == len(basis) == mu(g)
    for walk, z in zip(walks, basis):
        assert z == signed_indicator([eid for eid, _ in walk], g)
        assert z.coeffs == dict(walk)
        assert not boundary(z).coeffs


def test_boundary_of_single_edge():
    g = diamond(1)
    m = boundary(EdgeVector(g, {"bl": F(1)}))  # bl: bottom -> l
    assert m.coeffs == {"l": F(1), "bottom": F(-1)}


def test_boundary_kills_cycles_and_preserves_zero_mass():
    rng = random.Random(RNG_SEED)
    g = diamond(2)
    for vec in fundamental_cycle_basis(g).vectors:
        assert not boundary(vec).coeffs
    for _ in range(10):
        x = random_edge_vector(rng, g)
        assert sum(boundary(x).coeffs.values(), start=F(0)) == 0


def test_quotient_norm_of_cycle_is_zero():
    g = diamond(1)
    vec = signed_indicator(["tl", "bl", "br", "tr"], g)
    assert quotient_norm(vec) == 0


def test_quotient_norm_zero_vector():
    assert quotient_norm(EdgeVector(diamond(1), {})) == 0


def test_quotient_norm_single_edge_matches_boundary_norm():
    g = diamond(1)
    space = graph_metric(g)
    x = EdgeVector(g, {"tl": F(1)})
    q = quotient_norm(x)
    oracle = ae_norm(space, boundary(x))[0]
    assert q == oracle == flow_norm(g, boundary(x))


@pytest.mark.parametrize("g", [diamond(1), diamond(2), laakso(1), k2n_base(3)])
def test_quotient_identity_random_vectors(g):
    rng = random.Random(RNG_SEED + hash(len(g.edges)) % 100)
    space = graph_metric(g)
    basis = fundamental_cycle_basis(g)
    for _ in range(8):
        x = random_edge_vector(rng, g)
        assert quotient_norm(x, basis) == ae_norm(space, boundary(x))[0]


def _random_graph(rng, n, extra, prefix="v"):
    """Random connected graph: a random tree on n vertices plus up to
    `extra` chords, each edge randomly oriented."""
    vs = [f"{prefix}{i}" for i in range(n)]
    pairs = [(rng.randrange(i), i) for i in range(1, n)]
    for _ in range(extra):
        a, b = rng.sample(range(n), 2)
        if (a, b) not in pairs and (b, a) not in pairs:
            pairs.append((a, b))
    edges = [Edge(f"{prefix}e{k}", vs[a], vs[b]) if rng.random() < 0.5
             else Edge(f"{prefix}e{k}", vs[b], vs[a]) for k, (a, b) in enumerate(pairs)]
    return vs, edges


FAMILIES = {"d1": diamond(1), "d2": diamond(2), "l1": laakso(1), "l2": laakso(2),
            "d23": multidiamond(2, 3), "p5": path(5)}
KINDS = sorted(FAMILIES) + ["random", "tree", "bridged"]


def _graph(kind, rng):
    if kind in FAMILIES:
        return FAMILIES[kind]
    if kind == "random":
        vs, edges = _random_graph(rng, rng.randint(3, 12), rng.randint(0, 14))
    elif kind == "tree":
        vs, edges = _random_graph(rng, rng.randint(2, 10), 0)
    else:  # two random graphs joined by a bridge, each maybe with pendant edges
        va, ea = _random_graph(rng, rng.randint(3, 7), rng.randint(1, 6), "a")
        vb, eb = _random_graph(rng, rng.randint(3, 7), rng.randint(1, 6), "b")
        vs, edges = va + vb, ea + eb + [Edge("bridge", rng.choice(va), rng.choice(vb))]
    return TwoPoleGraph(tuple(vs), tuple(edges), vs[-1], vs[0])


def _random_tree_basis(rng, g):
    """Fundamental cycles of a random spanning tree (Kruskal on a shuffled
    edge order), so not of the BFS tree that quotient_norm checks against."""
    comp = {v: v for v in g.vertices}

    def find(v):
        while comp[v] != v:
            v = comp[v]
        return v

    edges = list(g.edges)
    rng.shuffle(edges)
    adj = {v: [] for v in g.vertices}
    chords = []
    for e in edges:
        a, b = find(e.tail), find(e.head)
        if a == b:
            chords.append(e)
        else:
            comp[a] = b
            adj[e.tail].append((e.head, e, 1))
            adj[e.head].append((e.tail, e, -1))
    vectors = []
    for c in chords:   # +1 on the chord, then back from its head to its tail
        step = {c.head: None}
        stack = [c.head]
        while stack:
            u = stack.pop()
            for w, e, s in adj[u]:
                if w not in step:
                    step[w] = (u, e, s)
                    stack.append(w)
        coeffs, w = {c.id: 1}, c.tail
        while w != c.head:
            w, e, s = step[w]
            coeffs[e.id] = s
        vectors.append(EdgeVector(g, coeffs))
    return CycleBasis(tuple(vectors))


def _dense_value(x, basis):
    return min_l1_combination(x.dense(), [z.dense() for z in basis.vectors])[0]


def _weighted_basis(rng, g):
    """The cycles of a random spanning tree, each scaled by one positive
    rational per edge: z_i = D y_i, as the benchmark's weighted bases."""
    d = {e.id: F(rng.randint(1, 9), rng.randint(1, 4)) for e in g.edges}
    return CycleBasis(tuple(EdgeVector(g, {e: d[e] * v for e, v in y.coeffs.items()})
                            for y in _random_tree_basis(rng, g).vectors))


@given(st.integers(0, 10 ** 6), st.sampled_from(KINDS))
@settings(max_examples=60, deadline=None)
def test_quotient_norm_matches_dense_and_flow_oracles(seed, kind):
    rng = random.Random(seed)
    g = _graph(kind, rng)
    basis = fundamental_cycle_basis(g)
    x = random_edge_vector(rng, g)
    value = quotient_norm(x)
    assert value == quotient_norm(x, basis) == _dense_value(x, basis)
    assert value == flow_norm(g, boundary(x))


@given(st.integers(0, 10 ** 6), st.sampled_from(KINDS))
@settings(max_examples=60, deadline=None)
def test_quotient_norm_weighted_basis_matches_dense(seed, kind):
    # the benchmark's weighted bases: z_i = D y_i for positive rational edge
    # scales D, here over the cycles of a random spanning tree
    rng = random.Random(seed)
    g = _graph(kind, rng)
    basis = _weighted_basis(rng, g)
    x = random_edge_vector(rng, g)
    assert quotient_norm(x, basis) == _dense_value(x, basis)
    assert quotient_norm(EdgeVector(g, {}), basis) == 0
    cycle = EdgeVector(g, {})
    for z in basis.vectors:
        cycle = cycle + z.scale(F(rng.randint(-3, 3), rng.randint(1, 3)))
    assert quotient_norm(cycle, basis) == 0
    assert quotient_norm(x + cycle, basis) == quotient_norm(x, basis)


@given(st.integers(0, 10 ** 6), st.sampled_from(KINDS))
@settings(max_examples=40, deadline=None)
def test_min_cost_flow_returns_a_feasible_flow_and_its_certificate(seed, kind):
    rng = random.Random(seed)
    g = _graph(kind, rng)
    vidx = {v: i for i, v in enumerate(g.vertices)}
    ends = [(vidx[e.tail], vidx[e.head]) for e in g.edges]
    lengths = [F(rng.randint(1, 6), rng.randint(1, 3)) for _ in ends]
    div = [F(0)] * len(vidx)
    for v, c in random_molecule(rng, list(vidx)).coeffs.items():
        div[vidx[v]] = c
    value, (flow, fden), (phi, pden) = simplex.min_cost_flow(ends, lengths, div)
    assert all(type(x) is int for x in flow + phi)
    flow = [F(f, fden) for f in flow]
    phi = [F(p, pden) for p in phi]
    net = [F(0)] * len(vidx)
    for (t, h), f in zip(ends, flow):
        net[h] += f
        net[t] -= f
    assert net == div
    assert sum(d * abs(f) for d, f in zip(lengths, flow)) == value
    assert all(abs(phi[h] - phi[t]) <= d for (t, h), d in zip(ends, lengths))
    assert sum(b * p for b, p in zip(div, phi)) == value


def test_flow_kernel_bland_pricing_agrees(monkeypatch):
    # first-negative entering from the first pivot on; sparse vectors leave
    # many zero-flow tree edges, so degenerate pivots occur
    monkeypatch.setattr(simplex, "_BLAND_AFTER", 0)
    rng = random.Random(RNG_SEED + 9)
    for kind in KINDS:
        for _ in range(3):
            g = _graph(kind, rng)
            x = random_edge_vector(rng, g, density=0.3)
            assert quotient_norm(x) == _dense_value(x, fundamental_cycle_basis(g))


@pytest.mark.parametrize("g", [diamond(2), laakso(2), multidiamond(2, 3)])
def test_quotient_norm_rejects_bases_that_are_not_scaled_cycle_bases(g):
    x = random_edge_vector(random.Random(RNG_SEED), g)
    zs = list(fundamental_cycle_basis(g).vectors)
    with pytest.raises(ValidationError, match="dimension"):
        quotient_norm(x, CycleBasis(tuple(zs[1:])))
    z0 = zs[0]
    broken = EdgeVector(g, dict(list(z0.coeffs.items())[1:]))
    with pytest.raises(ValidationError, match="not a scaled cycle"):
        quotient_norm(x, CycleBasis((broken, *zs[1:])))
    with pytest.raises(ValidationError, match="dependent"):
        quotient_norm(x, CycleBasis((zs[1], *zs[1:])))
    # double z_i on an edge that another basis vector also crosses
    i, e = next((i, e) for i, z in enumerate(zs) for e in z.coeffs
                if any(e in w.coeffs for w in zs if w is not z))
    bad = EdgeVector(g, {**zs[i].coeffs, e: 2 * zs[i].coeffs[e]})
    with pytest.raises(ValidationError, match="scale"):
        quotient_norm(x, CycleBasis((*zs[:i], bad, *zs[i + 1:])))


@pytest.mark.parametrize("corrupt,message", [
    (lambda phi: [0] * len(phi), "attain"),
    (lambda phi: [2 * p for p in phi], "Lipschitz")])
def test_quotient_norm_checks_the_potential_certificate(monkeypatch, corrupt, message):
    # zero potentials are feasible but pair to 0; doubled ones overshoot
    # the length of a tree edge
    real = simplex._network_simplex
    monkeypatch.setattr(simplex, "_network_simplex", lambda *a: corrupt(real(*a)))
    with pytest.raises(SolverFailure, match=message):
        quotient_norm(EdgeVector(diamond(1), {"tl": F(1)}))


def _count_checks(monkeypatch):
    """The graphs that _edge_scales is called with, in order."""
    checked = []
    real = cyclespace._edge_scales
    monkeypatch.setattr(cyclespace, "_edge_scales",
                        lambda g, z: checked.append(g) or real(g, z))
    return checked


def test_a_basis_is_checked_once_per_graph_object(monkeypatch):
    checked = _count_checks(monkeypatch)
    g = diamond(2)
    basis = fundamental_cycle_basis(g)
    x = random_edge_vector(random.Random(RNG_SEED), g)
    value = quotient_norm(x, basis)
    assert all(quotient_norm(x, basis) == value for _ in range(4))
    assert checked == [g]
    # an equal but distinct graph object is checked on every call
    g2 = diamond(2)
    assert g2 == g and g2 is not g
    x2 = EdgeVector(g2, x.coeffs)
    assert quotient_norm(x2, basis) == quotient_norm(x2, basis) == value
    assert len(checked) == 3 and checked[1] is checked[2] is g2
    assert quotient_norm(x, basis) == value and len(checked) == 3


def _rejected_bases(g):
    zs = list(fundamental_cycle_basis(g).vectors)
    z0 = zs[0]
    broken = EdgeVector(g, dict(list(z0.coeffs.items())[1:]))
    return [("dependent", CycleBasis((zs[1], *zs[1:]))),
            ("dimension", CycleBasis(tuple(zs[1:]))),
            ("not a scaled cycle", CycleBasis((broken, *zs[1:])))]


@pytest.mark.parametrize("case", range(3))
def test_a_rejected_basis_raises_on_every_call(monkeypatch, case):
    checked = _count_checks(monkeypatch)
    g = diamond(2)
    message, basis = _rejected_bases(g)[case]
    x = random_edge_vector(random.Random(RNG_SEED), g)
    for calls in (1, 2):
        with pytest.raises(ValidationError, match=message):
            quotient_norm(x, basis)
        assert len(checked) == calls


def test_a_checked_basis_still_rejects_a_vector_on_another_graph():
    g = diamond(2)
    basis = fundamental_cycle_basis(g)
    rng = random.Random(RNG_SEED)
    quotient_norm(random_edge_vector(rng, g), basis)
    for other in (laakso(1), multidiamond(2, 3)):
        x = random_edge_vector(rng, other)
        for _ in range(2):
            with pytest.raises(ValidationError):
                quotient_norm(x, basis)


def test_use_does_not_change_basis_equality_or_hash():
    g = diamond(2)
    basis, fresh = fundamental_cycle_basis(g), fundamental_cycle_basis(g)
    with pytest.raises(TypeError):  # EdgeVector holds a dict
        hash(basis)
    quotient_norm(random_edge_vector(random.Random(RNG_SEED), g), basis)
    assert basis == fresh and fresh == basis and repr(basis) == repr(fresh)
    with pytest.raises(TypeError):
        hash(basis)
    # the empty basis of a tree hashes, and hashes the same after use
    tree = path(5)
    empty = CycleBasis(())
    before = hash(empty)
    quotient_norm(random_edge_vector(random.Random(RNG_SEED), tree), empty)
    assert hash(empty) == before == hash(CycleBasis(())) and empty == CycleBasis(())


def test_a_reused_basis_agrees_with_dense_and_fresh_bases():
    rng = random.Random(RNG_SEED + 34)
    for k in range(200):
        g = _graph(KINDS[k % len(KINDS)], rng)
        basis = _weighted_basis(rng, g)
        x, y = random_edge_vector(rng, g), random_edge_vector(rng, g)
        first = quotient_norm(x, basis)
        quotient_norm(y, basis)
        assert first == quotient_norm(x, basis) == _dense_value(x, basis)
        fresh = CycleBasis(tuple(EdgeVector(g, dict(z.coeffs)) for z in basis.vectors))
        assert fresh == basis and quotient_norm(x, fresh) == first


def _flow_problem(x, basis):
    """(ends, lengths, divergence) of x's quotient norm under a scaled
    basis, read off the vectors as they are: d_e = |z_i[e]| (1 on edges no
    z_i touches), and boundary(D^-1 x) by vertex index."""
    g = x.graph
    vidx = {v: i for i, v in enumerate(g.vertices)}
    d = {e.id: F(1) for e in g.edges}
    for z in basis.vectors:
        d.update((e, abs(c)) for e, c in z.coeffs.items())
    div = [F(0)] * len(vidx)
    for eid, v in x.coeffs.items():
        e = g.edge_by_id[eid]
        div[vidx[e.head]] += v / d[eid]
        div[vidx[e.tail]] -= v / d[eid]
    return [(vidx[e.tail], vidx[e.head]) for e in g.edges], [d[e.id] for e in g.edges], div


def test_a_stored_network_agrees_with_fresh_and_full_walk_solves(monkeypatch):
    # three calls through one basis's stored network, against a network
    # built for the one solve and against the full-walk loop on it
    rng = random.Random(RNG_SEED + 35)
    solved = []
    for k in range(210):
        g = _graph(KINDS[k % len(KINDS)], rng)
        basis = _weighted_basis(rng, g)
        x, y = random_edge_vector(rng, g), random_edge_vector(rng, g)
        values = [quotient_norm(x, basis), quotient_norm(y, basis), quotient_norm(x, basis)]
        assert values[0] == values[2]
        for v, value in zip((x, y), values):
            problem = _flow_problem(v, basis)
            assert simplex.min_cost_flow(*problem)[0] == value
            solved.append((problem, value))
    monkeypatch.setattr(simplex, "_network_simplex", oracles.full_walk_network_simplex)
    assert all(simplex.min_cost_flow(*problem)[0] == value for problem, value in solved)
    assert sum(1 for _, value in solved if value) > 300


def test_a_stored_network_is_never_used_for_an_equal_graph(monkeypatch):
    built, solves = [], []

    class Recorded(simplex.FlowNetwork):
        __slots__ = ()

        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

        def min_cost_flow(self, divergence):
            solves.append(self)
            return super().min_cost_flow(divergence)

    monkeypatch.setattr(simplex, "FlowNetwork", Recorded)
    g = diamond(2)
    basis = fundamental_cycle_basis(g)
    x = random_edge_vector(random.Random(RNG_SEED), g)
    value = quotient_norm(x, basis)
    assert quotient_norm(x, basis) == quotient_norm(x, basis) == value
    stored = built[0]
    assert built == [stored] and solves == [stored] * 3
    g2 = diamond(2)
    assert g2 == g and g2 is not g
    x2 = EdgeVector(g2, x.coeffs)
    for calls in (1, 2):
        assert quotient_norm(x2, basis) == value
        assert len(built) == 1 + calls and solves[-1] is built[-1] is not stored
    assert quotient_norm(x, basis) == value and solves[-1] is stored and len(built) == 3
    # without a basis, each call builds its own network
    assert quotient_norm(x) == quotient_norm(x) == value
    assert len(built) == 5 and stored not in solves[-2:]


def _bouquet(k):
    """k triangles c -> a_i -> b_i -> c sharing the vertex c, their signed
    indicators, and positive rational edge scales.  The BFS tree from c
    holds the edges at c, so the chords are the edges a_i -> b_i."""
    vs = ["c"] + [f"{p}{i}" for i in range(k) for p in "ab"]
    edges = [Edge(f"{p}{i}", t, h) for i in range(k)
             for p, t, h in (("ca", "c", f"a{i}"), ("ab", f"a{i}", f"b{i}"),
                             ("bc", f"b{i}", "c"))]
    g = TwoPoleGraph(tuple(vs), tuple(edges), vs[-1], "c")
    triangles = [signed_indicator([f"ca{i}", f"ab{i}", f"bc{i}"], g) for i in range(k)]
    d = {e.id: F(j % 4 + 1, j % 3 + 1) for j, e in enumerate(edges)}
    return g, triangles, lambda y: EdgeVector(g, {e: d[e] * v for e, v in y.coeffs.items()})


def test_scaled_basis_independent_over_q_but_not_mod_2_is_accepted():
    # chord rows (1, 1) and (1, -1): determinant -2
    g, (t0, t1), scaled = _bouquet(2)
    basis = CycleBasis((scaled(t0 + t1), scaled(t0 - t1)))
    rng = random.Random(RNG_SEED)
    for _ in range(5):
        x = random_edge_vector(rng, g)
        assert quotient_norm(x, basis) == _dense_value(x, basis)


def test_scaled_basis_dependent_through_a_non_unit_multiplier_is_rejected():
    # (t0 + t1 + t2) + (t0 - t1 - t2) = 2 t0, and no two of the three are
    # proportional
    g, (t0, t1, t2), scaled = _bouquet(3)
    basis = CycleBasis((scaled(t0 + t1 + t2), scaled(t0 - t1 - t2), scaled(t0)))
    x = EdgeVector(g, {"ab0": 1, "bc1": F(-2, 3)})
    with pytest.raises(ValidationError, match="dependent"):
        quotient_norm(x, basis)
    ok = CycleBasis((scaled(t0 + t1 + t2), scaled(t0 - t1 - t2), scaled(t2)))
    assert quotient_norm(x, ok) == _dense_value(x, ok)


def test_scaled_basis_on_a_different_graph_is_rejected():
    _, (t0,), scaled = _bouquet(1)
    with pytest.raises(ValidationError, match="different graph"):
        quotient_norm(EdgeVector(diamond(1), {"tl": 1}), CycleBasis((scaled(t0),)))


def _tree_flow(g, mass):
    """The edge vector carrying the molecule `mass` down the BFS tree, so
    that its boundary is the molecule."""
    parent, parent_edge = spanning_tree(g)
    below = {v: mass.get(v, F(0)) for v in g.vertices}
    x = {}
    for v in reversed(parent):
        if parent[v] is not None:
            e = parent_edge[v]
            x[e.id] = below[v] if e.head == v else -below[v]
            below[parent[v]] += below[v]
    return EdgeVector(g, x)


def test_quotient_norm_reach(monkeypatch):
    # a D_5 boundary of 150 + 150 rational masses: 1,024 edges, a few
    # hundred pivots
    g = diamond(5)
    rng = random.Random(RNG_SEED)
    points = rng.sample(g.vertices, 300)
    mass = {p: F(rng.randint(1, 9), rng.randint(1, 4)) for p in points[:150]}
    sinks = [rng.randint(1, 9) for _ in range(150)]
    scale = sum(mass.values()) / sum(sinks)
    mass.update({p: -w * scale for p, w in zip(points[150:], sinks)})
    x = _tree_flow(g, mass)
    assert boundary(x).coeffs == mass
    start = time.perf_counter()
    value = quotient_norm(x)
    assert time.perf_counter() - start < 0.5
    monkeypatch.setattr(simplex, "_network_simplex", oracles.full_walk_network_simplex)
    assert quotient_norm(x) == value


def test_quotient_norm_pivots_on_a_diamond_six_vector(monkeypatch):
    # the D_6 reach instance: its pivot count is pinned, so a change to the
    # pivot rules shows here
    x = random_edge_vector(random.Random(0), diamond(6))
    steps = []
    pivot = simplex._tree_pivot

    def recording(*args):
        steps.append(pivot(*args))
        return steps[-1]

    monkeypatch.setattr(simplex, "_tree_pivot", recording)
    assert quotient_norm(x) == F(19963, 6)
    assert len(steps) == 1931


def test_mu_values():
    assert mu(diamond(2)) == 5
    assert mu(path(6)) == 0
    for n in (1, 2, 3):
        assert mu(diamond(n)) == (4 ** n - 1) // 3
    for g in (diamond(2), laakso(2), multidiamond(2, 3), path(6)):
        assert mu(g) == len(fundamental_cycle_basis(g).vectors)


def test_greedy_packing_diamond_one():
    assert len(greedy_cycle_packing(diamond(1))) == 1


def test_greedy_packing_tree_empty():
    assert greedy_cycle_packing(path(4)) == []


def test_greedy_packing_diamond_two_disjoint():
    cycles = greedy_cycle_packing(diamond(2))
    assert len(cycles) >= 4
    seen: set[str] = set()
    for cyc in cycles:
        assert not (seen & set(cyc))
        seen.update(cyc)
    # support Gram matrix is diagonal
    g = diamond(2)
    vecs = [signed_indicator(c, g) for c in cycles]
    for i, a in enumerate(vecs):
        for b in vecs[i + 1:]:
            assert not (set(a.coeffs) & set(b.coeffs))


@pytest.mark.parametrize("g", [diamond(2), laakso(2), multidiamond(2, 3)])
def test_packed_cycles_decompose_up_down(g):
    for cyc in greedy_cycle_packing(g):
        assert up_down_decomposition(cyc, g)
    for walk in fundamental_cycles_as_walks(g):
        assert up_down_decomposition([eid for eid, _ in walk], g)


def test_greedy_packing_deterministic():
    a = greedy_cycle_packing(laakso(2))
    b = greedy_cycle_packing(laakso(2))
    assert a == b
