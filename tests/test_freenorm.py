import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from freelip import simplex
from freelip.cyclespace import boundary
from freelip.errors import ValidationError
from freelip.freenorm import ae_norm, lip_dual, tree_norm
from freelip.graphs import Edge, TwoPoleGraph, diamond, laakso, multidiamond, path
from freelip.metric import Molecule, graph_metric, validate_metric
from freelip.randgen import random_edge_vector, random_metric_space, random_molecule, random_tree

from oracles import (clipped_witness_value, dense_transport, elementary_molecule, flow_norm,
                     fraction_graph_metric, north_west, plan_is_valid, tree_isometry)

RNG_SEED = 4242


def test_two_point_norm_forced_by_witness():
    space = validate_metric([[0, 3], [3, 0]], points=["p", "q"])
    m = elementary_molecule("p", "q")
    value, plan = ae_norm(space, m)
    assert value == 3
    assert plan_is_valid(space, m, plan)


def test_zero_molecule_has_zero_norm():
    space = validate_metric([[0, 3], [3, 0]])
    value, plan = ae_norm(space, Molecule({}))
    assert value == 0 and plan.moves == ()


def test_diamond_pole_to_pole_transport():
    g = diamond(1)
    space = graph_metric(g)
    m = elementary_molecule("top", "bottom")
    value, plan = ae_norm(space, m)
    assert value == 2
    assert plan_is_valid(space, m, plan)
    assert flow_norm(g, m) == 2  # independent edge-flow LP


def test_dual_certificate_two_point():
    space = validate_metric([[0, 3], [3, 0]], points=["p", "q"])
    cert = lip_dual(space, elementary_molecule("p", "q"))
    assert cert.value == 3
    assert cert.f("p") - cert.f("q") == 3


def test_dual_matches_primal_on_diamond():
    space = graph_metric(diamond(1))
    m = elementary_molecule("top", "bottom")
    assert lip_dual(space, m).value == ae_norm(space, m)[0] == 2


def test_dual_rejects_an_unknown_basepoint_before_solving(monkeypatch):
    def unreached(*args):
        raise AssertionError("the transportation problem was solved")

    monkeypatch.setattr(simplex, "transportation", unreached)
    space = validate_metric([[0, 3], [3, 0]], points=["p", "q"])
    with pytest.raises(ValidationError, match="basepoint 'zz' not in the space"):
        lip_dual(space, elementary_molecule("p", "q"), basepoint="zz")


def test_exact_duality_gap_zero_random():
    rng = random.Random(RNG_SEED)
    for _ in range(15):
        space = random_metric_space(rng, rng.randint(3, 8))
        # half the molecules leave the last point outside their support
        m = random_molecule(rng, space.points[:-1] if rng.random() < 0.5 else space.points)
        primal, plan = ae_norm(space, m)
        assert plan_is_valid(space, m, plan)
        for base in space.points:
            cert = lip_dual(space, m, basepoint=base)
            f = cert.f.values
            assert primal == cert.value == sum(v * f[p] for p, v in m.coeffs.items())
            assert set(f) == set(space.points) and f[base] == 0
            for p in space.points:
                for q in space.points:
                    assert abs(f[p] - f[q]) <= space.d(p, q)


def test_dual_value_matches_dense_dual_lp():
    # the n(n-1)-row Lipschitz LP is the reference for the c-transform value
    rng = random.Random(RNG_SEED + 6)
    for _ in range(6):
        space = random_metric_space(rng, rng.randint(3, 6))
        m = random_molecule(rng, space.points)
        weights = [m.coeffs.get(p, F(0)) for p in space.points]
        value, _ = simplex.lipschitz_dual([list(r) for r in space.dist], weights, 0)
        assert lip_dual(space, m, basepoint=space.points[0]).value == value


def test_dual_value_is_basepoint_independent():
    rng = random.Random(RNG_SEED + 2)
    space = random_metric_space(rng, 6)
    m = random_molecule(rng, space.points)
    values = {lip_dual(space, m, basepoint=p).value for p in space.points[:3]}
    assert len(values) == 1


def test_elementary_norm_equals_distance_clipped_witness():
    rng = random.Random(RNG_SEED + 3)
    space = random_metric_space(rng, 7)
    for p in space.points:
        for q in space.points:
            if p == q:
                continue
            lower = clipped_witness_value(space, p, q)
            value, _ = ae_norm(space, elementary_molecule(p, q))
            assert lower == space.d(p, q) == value


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.fractions(min_value=-4, max_value=4, max_denominator=5))
@settings(max_examples=20, deadline=None)
def test_norm_scale_equivariance(seed, c):
    rng = random.Random(seed)
    space = random_metric_space(rng, 5)
    m = random_molecule(rng, space.points)
    assert ae_norm(space, m.scale(c))[0] == abs(c) * ae_norm(space, m)[0]


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=20, deadline=None)
def test_norm_triangle_inequality(seed):
    rng = random.Random(seed)
    space = random_metric_space(rng, 6)
    m1 = random_molecule(rng, space.points)
    m2 = random_molecule(rng, space.points)
    assert ae_norm(space, m1 + m2)[0] <= ae_norm(space, m1)[0] + ae_norm(space, m2)[0]


def test_dense_simplex_int_and_fraction_rows_agree():
    # min x0 + 3 x1 + 2 x2  s.t.  x0 + x1 + x2 = 4,  x0 - x2 = -1,  x >= 0
    a_int = [[1, 1, 1], [1, 0, -1]]
    a_frac = [[F(x) for x in row] for row in a_int]
    b, c = [4, -1], [1, 3, 2]
    copies = [list(row) for row in a_int], [list(row) for row in a_frac]
    from_int = simplex.solve_standard_exact(a_int, b, c)
    from_frac = simplex.solve_standard_exact(a_frac, b, c)
    assert from_int == from_frac == (F(13, 2), [F(3, 2), F(0), F(5, 2)])
    assert (a_int, a_frac) == copies
    # a supplied basis (x2 for the sign-flipped second row) pivots in place too
    assert simplex.solve_standard_exact(a_int, b, c, basis=[0, 2]) == from_int
    assert (a_int, a_frac) == copies


# --- tree transportation kernel against the dense simplex ------------------

def _over_one_den(cost):
    """Integer rows and their denominator den for a rational cost matrix."""
    den = lcm(*(F(c).denominator for row in cost for c in row))
    return [[int(c * den) for c in row] for row in cost], den


def _check_kernel(cost, supply, demand):
    """Tree kernel value equals the dense simplex's; its plan has the right
    marginals and its integer potentials are feasible and tight on the plan."""
    icost, den = _over_one_den(cost)
    value, plan, (u, v) = simplex.transportation(icost, supply, demand, den)
    assert value == dense_transport(cost, supply, demand)[0]
    ns, nd = len(supply), len(demand)
    assert [sum(row) for row in plan] == list(supply)
    assert [sum(plan[i][j] for i in range(ns)) for j in range(nd)] == list(demand)
    assert sum(plan[i][j] * cost[i][j] for i in range(ns) for j in range(nd)) == value
    assert all(type(x) is int for x in u + v)
    for i in range(ns):
        for j in range(nd):
            assert plan[i][j] >= 0 and u[i] + v[j] <= icost[i][j]
            if plan[i][j]:
                assert u[i] + v[j] == icost[i][j]
    return value, plan


def _composition(total, cuts):
    bounds = [0] + sorted(set(cuts)) + [total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


@st.composite
def transport_instances(draw):
    """Small instances; masses share a total and split it at random cut
    points, so equal partial sums (a row and a column that run out
    together) are common, and costs come from a few values, so ties are
    too."""
    ns = draw(st.integers(1, 5))
    total = draw(st.integers(max(ns, 2), 8))
    cuts = st.integers(1, total - 1)
    supply = _composition(total, draw(st.sets(cuts, min_size=ns - 1, max_size=ns - 1)))
    demand = _composition(total, draw(st.sets(cuts, max_size=4)))
    scale = draw(st.sampled_from([F(1), F(1, 3), F(5, 6)]))
    values = draw(st.lists(st.fractions(0, 4, max_denominator=2), min_size=1, max_size=3))
    cost = [[draw(st.sampled_from(values)) for _ in demand] for _ in supply]
    return cost, [scale * a for a in supply], [scale * b for b in demand]


@given(transport_instances())
@settings(max_examples=150, deadline=None)
def test_tree_kernel_matches_dense_simplex(instance):
    _check_kernel(*instance)


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from(["d1", "d2", "l1", "m13", "p5"]))
@settings(max_examples=25, deadline=None)
def test_tree_kernel_matches_flow_oracle_on_graphs(seed, name):
    g = {"d1": diamond(1), "d2": diamond(2), "l1": laakso(1),
         "m13": multidiamond(1, 3), "p5": path(5)}[name]
    space = graph_metric(g)
    m = random_molecule(random.Random(seed), g.vertices)
    value, plan = ae_norm(space, m)
    assert plan_is_valid(space, m, plan)
    assert value == flow_norm(g, m)


def test_tree_kernel_least_cost_row_and_column_run_out_together():
    # cells (2, 2) and (0, 1) each use up a row and a column at once: the
    # start closes only the row, and the two columns left open later take
    # the zero cells (1, 2) and (1, 1), so the basis stays a spanning tree
    cost = [[3, 1, 2], [1, 3, 2], [2, 2, 0]]
    flow, tree = simplex._least_cost([c for row in cost for c in row], [1, 1, 1], [1, 1, 1])
    assert tree == [8, 1, 3, 5, 4]
    assert flow == [0, 1, 0, 1, 0, 0, 0, 0, 1]
    value, plan = _check_kernel(cost, [1, 1, 1], [1, 1, 1])
    assert value == 2
    _check_kernel(cost, [F(1, 2), F(3, 2), 1], [F(1, 2), F(1, 2), 2])


def test_tree_kernel_tied_costs():
    cost = [[2] * 4 for _ in range(3)]
    value, _ = _check_kernel(cost, [1, 2, 3], [F(3, 2)] * 4)
    assert value == 12


def test_tree_kernel_single_row_and_column():
    value, plan = _check_kernel([[1, F(1, 2), 3]], [F(5, 2)], [1, F(1, 2), 1])
    assert value == F(17, 4) and plan == [[1, F(1, 2), 1]]
    value, plan = _check_kernel([[1], [2], [F(1, 3)]], [1, 1, 3], [5])
    assert value == 4 and plan == [[1], [1], [3]]
    space = validate_metric([[0, 1, 2], [1, 0, 3], [2, 3, 0]], points=["a", "b", "c"])
    for m in (Molecule({"a": 2, "b": -1, "c": -1}), Molecule({"a": -2, "b": 1, "c": 1})):
        value, plan = ae_norm(space, m)
        assert value == 3 and plan_is_valid(space, m, plan)


def test_tree_kernel_zero_step_pivot(monkeypatch):
    # from the least-cost start the first pivot moves no flow, the next does
    steps = []
    pivot = simplex._tree_pivot

    def recording(*args):
        steps.append(pivot(*args))
        return steps[-1]

    monkeypatch.setattr(simplex, "_tree_pivot", recording)
    value, plan = _check_kernel([[1, 4, 1], [1, 2, 2], [0, 0, 4]], [1, 1, 1], [1, 1, 1])
    assert value == 2 and plan == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    assert steps[0] == 0 and max(steps) > 0


def test_least_cost_start_pivots_on_a_diamond_boundary(monkeypatch):
    # one random boundary molecule of D_4 (146 points): its pivot count
    # from the least-cost start is pinned, and the north-west reference
    # start needs more on the same problem
    g = diamond(4)
    space = graph_metric(g)
    m = boundary(random_edge_vector(random.Random(1), g))
    assert len(m.coeffs) == 146
    steps = []
    pivot = simplex._tree_pivot

    def recording(*args):
        steps.append(pivot(*args))
        return steps[-1]

    monkeypatch.setattr(simplex, "_tree_pivot", recording)
    value = ae_norm(space, m)[0]
    least_cost = len(steps)
    steps.clear()
    monkeypatch.setattr(simplex, "_least_cost",
                        lambda icost, supply, demand: north_west(supply, demand))
    assert ae_norm(space, m)[0] == value == F(611, 3)
    assert least_cost == 48 < len(steps)


def test_tree_kernel_bland_pricing_agrees(monkeypatch):
    monkeypatch.setattr(simplex, "_BLAND_AFTER", 0)
    rng = random.Random(RNG_SEED + 7)
    for _ in range(30):
        ns, nd = rng.randint(1, 5), rng.randint(1, 5)
        supply = [F(rng.randint(1, 4)) for _ in range(ns)]
        demand = [F(rng.randint(1, 4)) for _ in range(nd)]
        demand = [b * sum(supply) / sum(demand) for b in demand]
        cost = [[F(rng.randint(0, 3)) for _ in range(nd)] for _ in range(ns)]
        _check_kernel(cost, supply, demand)


# --- trees ----------------------------------------------------------------

def test_tree_isometry_two_edge_path():
    t = path(2)
    m = elementary_molecule("v0", "v2")
    image = tree_isometry(t, m)
    assert sorted(abs(v) for v in image.values()) == [1, 1]
    assert tree_norm(t, m) == 2 == ae_norm(graph_metric(t), m)[0]


def test_tree_isometry_single_weighted_edge():
    t = TwoPoleGraph(("u", "v"), (Edge("e", "u", "v", F(5)),), "v", "u")
    m = elementary_molecule("u", "v")
    assert tree_isometry(t, m) == {"e": F(5)} or tree_isometry(t, m) == {"e": F(-5)}
    assert tree_norm(t, m) == 5


def test_tree_isometry_matches_lp_on_random_trees():
    rng = random.Random(RNG_SEED + 4)
    for _ in range(25):
        t = random_tree(rng, 10)
        space = graph_metric(t)
        for _ in range(4):
            m = random_molecule(rng, t.vertices)
            assert tree_norm(t, m) == ae_norm(space, m)[0]


@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_tree_norm_matches_transport_on_fractional_trees(seed, n_edges):
    # weights with denominators up to 4, masses with denominators up to 3;
    # the tree's distances are checked against the Fraction oracle, and
    # the dual certificate pairs to the primal value on them
    rng = random.Random(seed)
    t = random_tree(rng, n_edges)
    space = graph_metric(t)
    dist = fraction_graph_metric(t)
    assert space.dist == dist
    m = random_molecule(rng, t.vertices)
    value = ae_norm(space, m)[0]
    assert tree_norm(t, m) == value == sum(map(abs, tree_isometry(t, m).values()))
    cert = lip_dual(space, m)
    f = [cert.f.values[p] for p in space.points]
    assert cert.value == value == sum(v * cert.f.values[p] for p, v in m.coeffs.items())
    assert all(abs(f[i] - f[j]) <= dist[i][j] for i in range(len(f)) for j in range(len(f)))


def test_tree_norm_rejects_mass_outside_the_tree():
    t = TwoPoleGraph(("a", "b"), (Edge("e", "a", "b", F(2)),), "b", "a")
    m = Molecule({"a": 1, "zz": -1})
    for call in (tree_norm, tree_isometry):
        with pytest.raises(ValidationError, match="molecule point 'zz' not in the tree"):
            call(t, m)
    assert tree_norm(t, Molecule({"a": 1, "b": -1})) == 2


def test_not_a_tree_raises():
    for call in (tree_norm, tree_isometry):
        with pytest.raises(ValidationError, match="4 edges on 4 vertices"):
            call(diamond(1), elementary_molecule("top", "bottom"))


def test_tree_witness_pairs_with_matching_molecule():
    # a molecule spread over the edges pairs with its 1-Lipschitz dual
    # certificate to sum |a_e| w(e), the tree isometry's l1 norm
    rng = random.Random(RNG_SEED + 5)
    t = random_tree(rng, 6)
    signs = {e.id: rng.choice((1, -1)) for e in t.edges}
    coeffs: dict[str, F] = {}
    total = F(0)
    for e in t.edges:
        a = F(rng.randint(1, 4)) * signs[e.id]
        coeffs[e.head] = coeffs.get(e.head, F(0)) + a
        coeffs[e.tail] = coeffs.get(e.tail, F(0)) - a
        total += abs(a) * e.weight
    m = Molecule(coeffs)
    space = graph_metric(t)
    cert = lip_dual(space, m, basepoint="v0")
    f = cert.f.values
    assert all(abs(f[p] - f[q]) <= space.d(p, q) for p in space.points for q in space.points)
    assert sum(v * f[p] for p, v in m.coeffs.items()) == total == tree_norm(t, m)
