import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from freelip.errors import ValidationError
from freelip.embeddings import (diamond_stage_net, diamond_top_level,
                                half_dim_embedding, interpolation_constant,
                                large_embedding, mod_p_selection, mst_parents,
                                projection_norm)
from freelip.graphs import Edge, TwoPoleGraph, diamond, laakso, multidiamond, path, star
from freelip.metric import MetricSpace, graph_metric, validate_metric
from freelip.randgen import random_metric_space
from oracles import (fraction_graph_metric, kruskal_half_dim_embedding, kruskal_mst,
                     transport_projection_norm, tree_sides)

RNG_SEED = 2718


def _tree_pairs(space, parent):
    pts = space.points
    return {frozenset((pts[u], pts[parent[u]])) for u in range(1, len(pts))}


def test_mst_parents_three_points():
    space = validate_metric([[0, 1, 1], [1, 0, 2], [1, 2, 0]], points=["a", "b", "c"])
    assert mst_parents(space) == ([0, 0, 0], [0, 1, 1])


def test_mst_parents_two_points():
    space = validate_metric([[0, 3], [3, 0]], points=["p", "q"])
    assert mst_parents(space) == ([0, 0], [0, 1])


def test_mst_parents_needs_two_points():
    with pytest.raises(ValidationError, match="need at least two points"):
        mst_parents(validate_metric([[0]]))


def test_mst_shortest_edge_property():
    rng = random.Random(RNG_SEED)
    for _ in range(60):
        space = random_metric_space(rng, rng.randint(3, 12))
        parent, _ = mst_parents(space)
        incident = {p: [] for p in space.points}
        for pair in _tree_pairs(space, parent):
            p, q = pair
            incident[p].append(space.d(p, q))
            incident[q].append(space.d(p, q))
        for p in space.points:
            shortest = min(space.d(p, q) for q in space.points if q != p)
            assert shortest in incident[p]


def _reversed_names(space):
    """The same rows with names whose order reverses the index order."""
    n = len(space.points)
    return MetricSpace(tuple(f"r{n - i:05d}" for i in range(n)), space.den, space.rows)


_TIE_HEAVY = [diamond(3), laakso(2), multidiamond(2, 5), path(9), star(7)]


@cache
def _differential_spaces():
    rng = random.Random(RNG_SEED + 7)
    spaces = [random_metric_space(rng, rng.randint(2, 24)) for _ in range(300)]
    graphs = [graph_metric(g) for g in _TIE_HEAVY]
    spaces += graphs + [_reversed_names(space) for space in graphs]
    spaces.append(validate_metric([[0, 3], [3, 0]], points=["q", "p"]))
    return spaces


def test_mst_parents_match_the_kruskal_oracle():
    # names such as p10 < p2 sort apart from their indices, and the graph
    # metrics tie on most distances, so the tie rule is exercised
    for space in _differential_spaces():
        parent, depth = mst_parents(space)
        assert _tree_pairs(space, parent) == {frozenset((e.tail, e.head))
                                              for e in kruskal_mst(space).edges}
        assert depth[0] == 0
        assert all(depth[u] == depth[parent[u]] + 1 for u in range(1, len(depth)))
        side0, _ = tree_sides(kruskal_mst(space))
        assert side0 == {p for p, h in zip(space.points, depth) if h % 2 == 0}


def test_half_dim_matches_the_kruskal_oracle():
    for space in _differential_spaces():
        assert half_dim_embedding(space) == kruskal_half_dim_embedding(space)


_D6_REACH = """
import re, resource
from freelip.embeddings import half_dim_embedding
from freelip.graphs import diamond
from freelip.metric import graph_metric
rep = half_dim_embedding(graph_metric(diamond(6)))
try:
    with open("/proc/self/status") as f:
        peak_kb = int(re.search(r"VmHWM:\\s*(\\d+) kB", f.read()).group(1))
except OSError:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(rep.k, rep.c_constant, rep.proj_norm, peak_kb // 1024)
"""


def test_half_dim_embedding_reach_on_diamond_six():
    # the pair list of sorted insertion alone took D_6 past 500 MB; Prim's
    # tree peaks at about 75 MB.  The child reads its peak as VmHWM where
    # there is one: on Linux a child's ru_maxrss starts from the peak of the
    # process that started it, here the test runner.
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", _D6_REACH], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    k, c, norm, rss_mb = proc.stdout.split()
    assert (k, c, norm) == ("2048", "1", "1")
    assert int(rss_mb) < 100, f"{rss_mb} MB peak RSS"


def test_half_dim_three_point_example():
    space = validate_metric([[0, 1, 1], [1, 0, 2], [1, 2, 0]], points=["a", "b", "c"])
    rep = half_dim_embedding(space)
    assert rep.ys == ["b", "c"]
    assert rep.c_constant == 1      # (1 + 1) / d(b, c) = 1
    assert rep.proj_norm == 1
    assert rep.lower_eq == rep.upper_eq == 1


def test_half_dim_two_points():
    space = validate_metric([[0, 3], [3, 0]])
    rep = half_dim_embedding(space)
    assert rep.k == 1 and rep.c_constant == 1 and rep.proj_norm == 1


def test_half_dim_random_spaces():
    rng = random.Random(RNG_SEED + 1)
    for _ in range(15):
        n = rng.randint(4, 20)
        space = random_metric_space(rng, n)
        rep = half_dim_embedding(space)
        assert rep.k >= n // 2
        assert rep.c_constant <= 2
        assert F(1, 2) <= rep.lower_eq <= rep.upper_eq == 1
        assert rep.proj_norm <= 2
        # no partner is selected, so f_i(u_j) = d_i 1_{y_i}((1_{y_j} - 1_{x_j}) / d_j)
        # is the identity matrix: the coordinates are biorthogonal
        assert not set(rep.partners.values()) & set(rep.ys)


def test_large_embedding_single_point():
    space = validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]], points=["a", "b", "c"])
    rep = large_embedding(space, ["a"])
    assert rep.c_constant == 1 and rep.k == 1


def test_large_embedding_needs_complement():
    space = validate_metric([[0, 1], [1, 0]])
    with pytest.raises(ValidationError, match="selected set must have a nonempty complement"):
        large_embedding(space, list(space.points))


def test_large_matches_half_dim_on_mst_side():
    rng = random.Random(RNG_SEED + 3)
    space = random_metric_space(rng, 9)
    half = half_dim_embedding(space)
    large = large_embedding(space, half.ys)
    assert large.c_constant == half.c_constant <= 2
    assert large.d_values == half.d_values


def test_mod_p_path():
    ys = mod_p_selection(path(4), 2)
    assert ys == ["v0", "v2", "v4"]
    assert len(ys) >= 5 * (2 - 1) // 2


def test_mod_p_guards():
    with pytest.raises(ValidationError):
        mod_p_selection(path(4), 1)
    with pytest.raises(ValidationError, match=r"p = 5 exceeds diameter \+ 1 = 3"):
        mod_p_selection(path(2), 5)


def test_mod_p_diamond():
    g = diamond(2)
    space = graph_metric(g)
    ys = mod_p_selection(g, 2)
    assert len(ys) >= len(g.vertices) * 1 // 2  # n (p-1)/p with p = 2
    rep = large_embedding(space, ys)
    assert rep.c_constant <= 8  # 4p
    assert all(v <= 4 for v in rep.d_values.values())  # d_i <= 2p


def _fraction_mod_p(g, p):
    """mod_p_selection as a Fraction scan of the oracle's distance rows."""
    verts = list(g.vertices)
    dist = fraction_graph_metric(g)
    diam = max(max(row) for row in dist)
    origin = min(v for v, row in zip(verts, dist) if max(row) == diam)
    classes = {i: [] for i in range(p)}
    for v, x in zip(verts, dist[verts.index(origin)]):
        classes[int(x) % p].append(v)
    drop = min(range(p), key=lambda i: (len(classes[i]), i))
    return sorted(v for i in range(p) if i != drop for v in classes[i])


def _reweighted(g, weights):
    return TwoPoleGraph(g.vertices, tuple(Edge(e.id, e.tail, e.head, w)
                                          for e, w in zip(g.edges, weights)), g.top, g.bottom)


def test_mod_p_matches_a_fraction_scan_on_integer_graphs():
    rng = random.Random(RNG_SEED + 11)
    graphs = [path(6), diamond(2), diamond(3), laakso(1)]
    graphs += [_reweighted(g, [F(rng.randint(1, 4)) for _ in g.edges]) for g in graphs]
    for g in graphs:
        for p in range(2, 5):
            if p <= max(max(row) for row in fraction_graph_metric(g)) + 1:
                assert mod_p_selection(g, p) == _fraction_mod_p(g, p)


def test_mod_p_rejects_fractional_distances():
    # floor(d) mod p on half-unit distances is no distance residue
    g = _reweighted(path(4), [F(1, 2)] * 4)
    with pytest.raises(ValidationError, match="integer distances; these have denominator 2"):
        mod_p_selection(g, 2)
    # integral weights given as Fractions keep integer distances
    g = _reweighted(path(4), [F(2)] * 4)
    assert mod_p_selection(g, 3) == _fraction_mod_p(g, 3) == ["v0", "v1", "v3", "v4"]


def test_nearest_partners_match_a_fraction_tuple_scan():
    # the first name among the nearest, by Fraction distances and names
    rng = random.Random(RNG_SEED + 12)
    for _ in range(20):
        space = random_metric_space(rng, rng.randint(3, 14))
        ys = sorted(rng.sample(space.points, rng.randint(1, len(space.points) - 1)))
        rest = sorted(set(space.points) - set(ys))
        rep = large_embedding(space, ys)
        for y in ys:
            best = min(rest, key=lambda z: (space.d(y, z), z))
            assert rep.partners[y] == best and rep.d_values[y] == space.d(y, best)
        half = half_dim_embedding(space)
        other = sorted(set(space.points) - set(half.ys))
        for y in half.ys:
            best = min(other, key=lambda z: (space.d(y, z), z))
            assert half.partners[y] == best and half.d_values[y] == space.d(y, best)


@pytest.mark.parametrize("n", [1, 2])
def test_diamond_top_level_exact(n):
    rep = diamond_top_level(n)
    assert rep.k == 2 * 4 ** (n - 1)
    assert rep.c_constant == 1
    assert rep.proj_norm == 1
    assert rep.lower_eq == 1
    assert all(v == 1 for v in rep.d_values.values())


def test_diamond_top_level_pairwise_separation():
    g = diamond(2)
    space = graph_metric(g)
    rep = diamond_top_level(2)
    for i, y in enumerate(rep.ys):
        for z in rep.ys[i + 1:]:
            assert space.d(y, z) >= 2


@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (3, 2)])
def test_diamond_anm_and_net(n, m):
    g = diamond(n)
    net = diamond_stage_net(n, m)
    space = graph_metric(g)
    # covering radius of the stage net
    assert max(min(space.d(v, t) for t in net) for v in g.vertices) <= 2 ** (n - m - 1)
    rep_net = large_embedding(space, sorted(set(g.vertices) - set(net)))
    assert rep_net.c_constant <= 2 ** (n - m)


def test_interpolation_constant_floor():
    space = validate_metric([[0, 5, 5], [5, 0, 5], [5, 5, 0]], points=["a", "b", "c"])
    assert interpolation_constant(space, ["a", "b"], {"a": F(1), "b": F(1)}) == 1


def _closed_metric(weights, n):
    """Shortest-path closure of a symmetric weight list, validated."""
    d = [[F(0)] * n for _ in range(n)]
    it = iter(weights)
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = next(it)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return validate_metric(d)


# mixed denominators, so a kernel that forgot the common denominator fails
weight = st.builds(F, st.integers(1, 30), st.sampled_from((1, 2, 3, 5, 7, 12)))


@st.composite
def selections(draw):
    """A random rational metric, a random selection and a partner map that
    mixes unselected partners, selected ones, shared ones and y itself."""
    n = draw(st.integers(2, 8))
    space = _closed_metric(draw(st.lists(weight, min_size=n * (n - 1) // 2,
                                         max_size=n * (n - 1) // 2)), n)
    pts = list(space.points)
    ys = draw(st.lists(st.sampled_from(pts), unique=True, max_size=n))
    partners = {}
    for y in ys:
        kind = draw(st.sampled_from(("any", "self", "selected", "shared")))
        if kind == "self":
            partners[y] = y
        elif kind == "selected":
            partners[y] = draw(st.sampled_from(ys))
        elif kind == "shared" and partners:
            partners[y] = next(iter(partners.values()))
        else:
            partners[y] = draw(st.sampled_from(pts))
    return space, ys, partners


@given(selections())
@settings(max_examples=150, deadline=None)
def test_projection_norm_matches_transport_oracle(case):
    space, ys, partners = case
    assert projection_norm(space, ys, partners) == transport_projection_norm(space, ys, partners)


def _graph_selections():
    rng = random.Random(RNG_SEED + 4)
    for n in (1, 2, 3):
        g = diamond(n)
        space = graph_metric(g)
        rep = diamond_top_level(n)
        yield pytest.param(space, rep.ys, rep.partners, id=f"D{n}-top")
        rep = half_dim_embedding(space)
        yield pytest.param(space, rep.ys, rep.partners, id=f"D{n}-half")
        pts = list(space.points)
        ys = rng.sample(pts, len(pts) // 2)
        yield pytest.param(space, ys, {y: rng.choice(pts) for y in ys}, id=f"D{n}-random")
    for n, m in ((2, 1), (3, 1), (3, 2)):
        g = diamond(n)
        space = graph_metric(g)
        rep = large_embedding(space, sorted(set(g.vertices) - set(diamond_stage_net(n, m))))
        yield pytest.param(space, rep.ys, rep.partners, id=f"net-{n}-{m}")


@pytest.mark.parametrize("space,ys,partners", list(_graph_selections()))
def test_projection_norm_matches_transport_oracle_on_diamonds(space, ys, partners):
    assert projection_norm(space, ys, partners) == transport_projection_norm(space, ys, partners)


def test_interpolation_constant_matches_fraction_recomputation():
    rng = random.Random(RNG_SEED + 5)
    for _ in range(40):
        n = rng.randint(2, 10)
        weights = [F(rng.randint(1, 30), rng.choice((1, 2, 3, 5, 7, 12)))
                   for _ in range(n * (n - 1) // 2)]
        space = _closed_metric(weights, n)
        ys = rng.sample(list(space.points), rng.randint(1, n))
        d_values = {y: F(rng.randint(0, 20), rng.choice((1, 2, 4, 9, 11))) for y in ys}
        expected = max([F(1)] + [(d_values[a] + d_values[b]) / space.d(a, b)
                                 for i, a in enumerate(ys) for b in ys[i + 1:]])
        assert interpolation_constant(space, ys, d_values) == expected


def test_diamond_level_four_embeddings_within_budget():
    start = time.perf_counter()
    top = diamond_top_level(4)
    g = diamond(4)
    space = graph_metric(g)
    net = large_embedding(space, sorted(set(g.vertices) - set(diamond_stage_net(4, 2))))
    assert time.perf_counter() - start < 5.0
    assert top.k == 128 and top.proj_norm == 1 and top.c_constant == 1
    assert net.proj_norm == 3 and net.c_constant == 3


def _abc():
    return validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]], points=["a", "b", "c"])


def test_selected_point_outside_the_space_is_rejected():
    space = _abc()
    with pytest.raises(ValidationError):
        projection_norm(space, ["z"], {"z": "a"})
    with pytest.raises(ValidationError):
        large_embedding(space, ["z"])
    with pytest.raises(ValidationError):
        interpolation_constant(space, ["z"], {"z": F(1)})


def test_selected_point_without_partner_is_rejected():
    space = _abc()
    with pytest.raises(ValidationError):
        projection_norm(space, ["a", "b"], {"a": "c"})
    with pytest.raises(ValidationError):
        interpolation_constant(space, ["a", "b"], {"a": F(1)})  # no d value for b


def test_partner_outside_the_space_is_rejected():
    space = _abc()
    with pytest.raises(ValidationError):
        projection_norm(space, ["a"], {"a": "z"})


def test_duplicate_selected_points_are_rejected():
    space = _abc()
    with pytest.raises(ValidationError):
        interpolation_constant(space, ["a", "a"], {"a": F(1)})
    with pytest.raises(ValidationError):
        large_embedding(space, ["a", "a"])
    with pytest.raises(ValidationError):
        projection_norm(space, ["a", "a"], {"a": "b"})
