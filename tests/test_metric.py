import random
from fractions import Fraction as F
from math import lcm
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from freelip.errors import (AsymmetryError, DisconnectedGraph, ResourceLimit,
                            TriangleViolation, ValidationError, ZeroOffDiagonal)
from freelip.graphs import (Edge, TwoPoleGraph, diamond, k2n_base, laakso,
                            multidiamond, single_edge)
from freelip.metric import MetricSpace, Molecule, graph_metric, validate_metric
from freelip.randgen import random_metric_space, random_tree
from oracles import elementary_molecule, fraction_graph_metric, fraction_random_metric_space


def test_random_metric_space_matches_the_fraction_closure():
    # the integer closure over 6 draws the same numbers and gives the same
    # space as Floyd-Warshall on Fractions
    for seed in range(150):
        a, b = random.Random(seed), random.Random(seed)
        n = 2 + seed % 20
        assert random_metric_space(a, n) == fraction_random_metric_space(b, n)
        assert a.getstate() == b.getstate()


def test_two_point_matrix_is_valid():
    space = validate_metric([[0, 3], [3, 0]])
    assert space.d("p0", "p1") == 3
    assert space.diameter == 3


def test_asymmetric_matrix_rejected():
    with pytest.raises(AsymmetryError):
        validate_metric([[0, 1], [2, 0]])


def test_triangle_violation_reports_triple():
    # 3 > 1 + 1; confirmed by scanning all triples by hand
    bad = [[0, 1, 3], [1, 0, 1], [3, 1, 0]]
    with pytest.raises(TriangleViolation) as err:
        validate_metric(bad)
    p, q, r = err.value.triple
    names = ["p0", "p1", "p2"]
    d = {n: row for n, row in zip(names, bad)}
    i, j, k = names.index(p), names.index(q), names.index(r)
    assert bad[i][j] > bad[i][k] + bad[k][j]


def test_zero_off_diagonal_and_nonzero_diagonal():
    with pytest.raises(ZeroOffDiagonal):
        validate_metric([[0, 0], [0, 0]])
    with pytest.raises(ValidationError):
        validate_metric([[1, 2], [2, 0]])


def test_negative_distance_rejected():
    with pytest.raises(ValidationError):
        validate_metric([[0, -1], [-1, 0]])


def test_graph_metric_diamond():
    space = graph_metric(diamond(1))
    assert space.diameter == 2
    assert space.d("top", "bottom") == 2


def test_graph_metric_laakso_height():
    space = graph_metric(laakso(1))
    assert space.d("top", "bottom") == 4


def test_graph_metric_single_edge():
    space = graph_metric(single_edge())
    assert space.d("top", "bottom") == 1


@pytest.mark.parametrize("g", [diamond(2), laakso(1), k2n_base(4)])
def test_family_metrics_satisfy_axioms(g):
    space = graph_metric(g)
    validate_metric([list(row) for row in space.dist], points=list(space.points))


def test_elementary_molecule():
    m = elementary_molecule("p", "q")
    assert m.coeffs == {"p": F(1), "q": F(-1)}
    assert sum(m.coeffs.values()) == 0
    assert not (m + elementary_molecule("q", "p")).coeffs


def test_molecule_rejects_nonzero_sum():
    with pytest.raises(ValidationError):
        Molecule({"a": F(1), "b": F(1)})


coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@given(st.lists(coeff, min_size=1, max_size=6), coeff)
@settings(max_examples=40, deadline=None)
def test_molecule_arithmetic_keeps_zero_sum(values, scalar):
    pts = [f"p{i}" for i in range(len(values) + 1)]
    coeffs = dict(zip(pts, values))
    coeffs[pts[-1]] = -sum(values)
    m = Molecule(coeffs)
    n = m.scale(scalar) + m
    assert sum(n.coeffs.values(), start=F(0)) == 0


def test_space_json_roundtrip():
    rng = random.Random(3)
    space = random_metric_space(rng, 5)
    space = validate_metric(space.dist, points=space.points, basepoint="p2")
    again = MetricSpace.from_json(space.to_json())
    assert again == space


def test_molecule_json_roundtrip():
    m = Molecule({"a": F(3, 2), "b": F(-1, 2), "c": F(-1)})
    assert Molecule.from_json(m.to_json()) == m


def _first_triangle_violation(d):
    """(i, j, k) of the first d(i, j) > d(i, k) + d(k, j) in index order,
    by a plain Fraction scan, or None."""
    n = len(d)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if d[i][j] > d[i][k] + d[k][j]:
                    return i, j, k
    return None


def test_triangle_scan_reports_the_first_violated_triple():
    rng = random.Random(11)
    raised = 0
    for _ in range(150):
        n = rng.randint(3, 9)
        d = [list(row) for row in random_metric_space(rng, n).dist]
        for _ in range(rng.randint(0, 3)):  # symmetric, positive corruptions
            i, j = rng.sample(range(n), 2)
            d[i][j] = d[j][i] = d[i][j] * F(rng.randint(1, 7), rng.choice((1, 2, 3, 5)))
        expected = _first_triangle_violation(d)
        if expected is None:
            validate_metric(d)
            continue
        with pytest.raises(TriangleViolation) as err:
            validate_metric(d)
        assert err.value.triple == tuple(f"p{i}" for i in expected)
        raised += 1
    assert raised > 50


def _random_weighted_graph(rng, n):
    """A random tree on n vertices plus random chords, with weights of mixed
    denominators (some of them 1, so the graph is not unit-weight)."""
    verts = tuple(f"v{i}" for i in range(n))
    pairs = {(rng.randrange(i), i) for i in range(1, n)}
    pairs |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 2 * n))}
    edges = tuple(Edge(f"e{i}-{j}", f"v{i}", f"v{j}",
                       F(rng.randint(1, 30), rng.choice((1, 1, 2, 3, 5, 7, 12))))
                  for i, j in sorted(pairs))
    return TwoPoleGraph(verts, edges, verts[-1], verts[0])


def _metric_cases():
    for n in (1, 2, 3, 4):
        yield pytest.param(diamond(n), id=f"diamond-{n}")
    for n in (1, 2):
        yield pytest.param(laakso(n), id=f"laakso-{n}")
    yield pytest.param(multidiamond(2, 3), id="multidiamond-2-3")
    rng = random.Random(314)
    for i in range(6):
        yield pytest.param(random_tree(rng, rng.randint(1, 15)), id=f"tree-{i}")
    for i in range(6):
        yield pytest.param(_random_weighted_graph(rng, rng.randint(2, 14)), id=f"graph-{i}")


@pytest.mark.parametrize("g", list(_metric_cases()))
def test_graph_metric_matches_fraction_oracle(g):
    space = graph_metric(g)
    assert space.points == g.vertices and space.basepoint == g.bottom
    assert space.dist == fraction_graph_metric(g)
    entries = [x for row in space.dist for x in row]
    assert all(type(x) is F for x in entries)
    # one Fraction object per distinct distance value
    assert len({id(x) for x in entries}) == len(set(entries))
    # den is the least common denominator of the distances
    assert space.den == lcm(*(x.denominator for x in entries))
    assert all(type(x) is int for row in space.rows for x in row)
    assert space == validate_metric(space.dist, points=space.points, basepoint=g.bottom)
    assert MetricSpace.from_json(space.to_json()) == space


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_graph_metric_matches_fraction_oracle_on_random_weights(seed):
    # mixed denominators, and weights that are all multiples of a common
    # fraction (so the rows share a factor with the weights' denominator)
    rng = random.Random(seed)
    g = _random_weighted_graph(rng, rng.randint(2, 10))
    if rng.random() < 0.5:
        c = F(rng.randint(1, 4), rng.randint(1, 6))
        g = TwoPoleGraph(g.vertices, tuple(Edge(e.id, e.tail, e.head, c * rng.randint(1, 3))
                                           for e in g.edges), g.top, g.bottom)
    space = graph_metric(g)
    dist = fraction_graph_metric(g)
    assert space.dist == dist
    assert space.den == lcm(*(x.denominator for row in dist for x in row))
    assert all(space.d(p, q) == dist[i][j] for i, p in enumerate(space.points)
               for j, q in enumerate(space.points))
    assert space.diameter == max(max(row) for row in dist)
    assert MetricSpace.from_json(space.to_json()) == space


def test_graph_metric_divides_out_a_denominator_no_distance_has():
    # the 7/3 edge is never a shortest path, so the weights' denominator 3
    # is not the distances'
    g = TwoPoleGraph(("a", "b", "c"), (Edge("ab", "a", "b", F(1)), Edge("bc", "b", "c", F(1)),
                                       Edge("ac", "a", "c", F(7, 3))), "c", "a")
    space = graph_metric(g)
    assert space.den == 1 and space.rows == ((0, 1, 2), (1, 0, 1), (2, 1, 0))
    assert space == validate_metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]], points=["a", "b", "c"],
                                    basepoint="a")


def test_validate_metric_reads_the_least_common_denominator():
    space = validate_metric([[0, F(1, 2), F(5, 6)], [F(1, 2), 0, F(2, 3)],
                             [F(5, 6), F(2, 3), 0]], points=["a", "b", "c"])
    assert space.den == 6 and space.rows == ((0, 3, 5), (3, 0, 4), (5, 4, 0))
    assert space.d("a", "c") == F(5, 6) and space.diameter == F(5, 6)
    # integral Fraction and float entries read as integers over den 1
    space = validate_metric([[F(0), 2.0], [F(2), 0]])
    assert space.den == 1 and space.rows == ((0, 2), (2, 0))


def test_graph_metric_refuses_too_many_points_before_building_a_row(monkeypatch):
    import freelip.metric as metric

    monkeypatch.setattr(metric, "POINT_CAP", 8)
    assert graph_metric(diamond(1)).den == 1     # 4 points
    with pytest.raises(ResourceLimit, match="12 points exceeds the 8-point cap"):
        graph_metric(diamond(2))                 # 12 points
    # the cap is checked first: a graph whose every vertex is unreachable
    # raises it, not DisconnectedGraph
    g = SimpleNamespace(vertices=tuple(f"v{i}" for i in range(9)), bottom="v0", edges=())
    with pytest.raises(ResourceLimit):
        graph_metric(g)


@pytest.mark.parametrize("weight", [F(1), F(3, 2)], ids=["bfs", "dijkstra"])
def test_graph_metric_disconnected_message_matches_oracle(weight):
    # TwoPoleGraph rejects disconnected graphs, so a plain record stands in
    g = SimpleNamespace(vertices=("a", "b", "c"), bottom="a",
                        edges=(Edge("e", "a", "b", weight),))
    with pytest.raises(DisconnectedGraph) as expected:
        fraction_graph_metric(g)
    with pytest.raises(DisconnectedGraph) as got:
        graph_metric(g)
    assert str(got.value) == str(expected.value) == "vertex 'c' unreachable from 'a'"
