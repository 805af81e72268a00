"""The dense two-phase simplex against brute-force vertex enumeration, the
error paths and integer certificate of the network simplex's two entry
points, and its pivot-by-pivot updates against the full-walk loop."""

import itertools
import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from freelip import simplex
from freelip.errors import SolverFailure, ValidationError
from freelip.simplex import FlowNetwork, solve_standard_exact, transportation

import oracles


def _solve_on(a, b, cols):
    """x >= 0 supported on cols with a x = b, if the columns are independent
    and that x exists; None otherwise.  Gauss-Jordan on [a_cols | b]."""
    rows = [[F(row[j]) for j in cols] + [F(rhs)] for row, rhs in zip(a, b)]
    rank = 0
    for col in range(len(cols)):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            return None  # dependent columns
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = [x / rows[rank][col] for x in rows[rank]]
        rows = [top if r == rank else [x - row[col] * y for x, y in zip(row, top)]
                for r, row in enumerate(rows)]
        rank += 1
    if any(row[-1] for row in rows[rank:]):
        return None  # inconsistent
    x = [F(0)] * len(a[0])
    for r, j in enumerate(cols):
        x[j] = rows[r][-1]
    return x if min(x, default=0) >= 0 else None


def _vertices(a, b):
    """Every basic feasible solution of a x = b, x >= 0."""
    n = len(a[0])
    for size in range(min(len(a), n) + 1):
        for cols in itertools.combinations(range(n), size):
            x = _solve_on(a, b, cols)
            if x is not None:
                yield x


def brute_force(a, b, c):
    """("infeasible" | "unbounded" | "optimal", value).  A feasible LP is
    unbounded iff some vertex d of {a d = 0, sum d = 1, d >= 0} has c d < 0."""
    def dot(u):
        return sum(ci * ui for ci, ui in zip(c, u))

    values = [dot(x) for x in _vertices(a, b)]
    if not values:
        return "infeasible", None
    rays = _vertices([list(row) for row in a] + [[1] * len(c)], [0] * len(a) + [1])
    if any(dot(d) < 0 for d in rays):
        return "unbounded", None
    return "optimal", min(values)


def test_phase_one_prices_out_its_artificial_basis():
    # phase 1 used to start the artificials at reduced cost -1 and return -2
    # at x = (-1, 0, 1, 0)
    a = [[2, -1, -2, 0], [2, -1, -1, 0]]
    assert solve_standard_exact(a, [-4, -3], [3, 0, 1, 1]) == (1, [0, 2, 1, 0])


@st.composite
def small_lps(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    entries = st.integers(-3, 3)
    a = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m))
    c = draw(st.lists(entries, min_size=n, max_size=n))
    return a, b, c


@given(small_lps())
@example(([[2, -1, -2, 0], [2, -1, -1, 0]], [-4, -3], [3, 0, 1, 1]))   # optimal
@example(([[1, 1], [1, 1]], [1, 2], [1, 1]))                           # infeasible
@example(([[1, -1, 0], [0, 0, 1]], [-1, 2], [-1, 0, 0]))               # unbounded
@settings(max_examples=400, deadline=None)
def test_solve_standard_exact_matches_vertex_enumeration(lp):
    a, b, c = lp
    status, value = brute_force(a, b, c)
    if status != "optimal":
        with pytest.raises(SolverFailure):
            solve_standard_exact(a, b, c)
        return
    got, x = solve_standard_exact(a, b, c)
    assert got == value
    assert min(x) >= 0
    assert all(sum(aij * xj for aij, xj in zip(row, x)) == rhs for row, rhs in zip(a, b))
    assert sum(ci * xi for ci, xi in zip(c, x)) == value


# --- network simplex error paths ---------------------------------------------

def _unreached(*args):
    raise AssertionError("the network simplex ran")


def test_transportation_rejects_an_unbalanced_problem():
    with pytest.raises(SolverFailure, match="unbalanced"):
        transportation([[1, 2]], [2], [1, F(1, 2)])


def test_min_cost_flow_rejects_a_divergence_that_does_not_sum_to_zero():
    with pytest.raises(SolverFailure, match="sum to zero"):
        FlowNetwork(2, [(0, 1)], [1]).min_cost_flow([1, F(-1, 2)])


def test_min_cost_flow_rejects_disconnected_ends():
    with pytest.raises(SolverFailure, match="connected"):
        FlowNetwork(4, [(0, 1), (2, 3)], [1, 1]).min_cost_flow([-1, 1, 0, 0])


def test_min_cost_flow_rejects_a_negative_length_before_pivoting(monkeypatch):
    # the pair of opposite arcs of edge 1 is a negative cycle: the flow
    # would be unbounded, and no pivot is tried
    monkeypatch.setattr(simplex, "_network_simplex", _unreached)
    with pytest.raises(ValidationError, match=r"edge 1 \(1, 2\) has negative length -1"):
        FlowNetwork(3, [(0, 1), (1, 2), (0, 2)], [1, -1, 1]).min_cost_flow([-1, 0, 1])


def test_transportation_rejects_a_cost_read_across(monkeypatch):
    # a 1 x 2 cost for two supplies and one demand would be read as 2 x 1
    monkeypatch.setattr(simplex, "_network_simplex", _unreached)
    with pytest.raises(ValidationError, match="not 2 x 1"):
        transportation([[1, 5]], [1, 1], [2])


def test_transportation_rejects_a_cost_with_a_row_missing(monkeypatch):
    monkeypatch.setattr(simplex, "_network_simplex", _unreached)
    with pytest.raises(ValidationError, match="not 2 x 1"):
        transportation([[1]], [1, 1], [2])


@pytest.mark.parametrize("lengths", [[1, 1], [1, 1, 1, 1]], ids=["fewer", "more"])
def test_min_cost_flow_rejects_a_length_count_other_than_the_edge_count(monkeypatch, lengths):
    monkeypatch.setattr(simplex, "_network_simplex", _unreached)
    with pytest.raises(ValidationError, match=f"3 edges but {len(lengths)} lengths"):
        FlowNetwork(3, [(0, 1), (1, 2), (0, 2)], lengths).min_cost_flow([-1, 0, 1])


@pytest.mark.parametrize("end", [3, -1])
def test_min_cost_flow_rejects_an_end_outside_the_vertices(monkeypatch, end):
    # -1 would otherwise index the last vertex
    monkeypatch.setattr(simplex, "_network_simplex", _unreached)
    with pytest.raises(ValidationError, match=rf"edge 2 \(1, {end}\) has an end outside 0..2"):
        FlowNetwork(3, [(0, 1), (1, 2), (1, end)], [1, 1, 1]).min_cost_flow([-1, 0, 1])


def test_a_network_needs_a_vertex():
    # FlowNetwork(0, [], []) ended in an IndexError on the BFS root
    with pytest.raises(ValidationError, match="at least one vertex"):
        FlowNetwork(0, [], [])


def test_a_network_rejects_a_divergence_of_another_size(monkeypatch):
    network = FlowNetwork(3, [(0, 1), (1, 2)], [1, 2])
    assert network.min_cost_flow([-1, 0, 1])[0] == 3
    monkeypatch.setattr(simplex, "_network_simplex", _unreached)
    with pytest.raises(ValidationError, match="2 entries for 3 vertices"):
        network.min_cost_flow([-1, 1])


SOLVES = [
    # the least-cost start takes the zero cells (0, 0) and (1, 1), which
    # leaves row 2 the cell (2, 2) at 3: a plan of cost 3 against the optimum 2
    lambda: transportation([[0, 0, 3], [0, 0, 1], [1, 4, 3]], [1, 1, 1], [1, 1, 1]),
    # the BFS start routes every unit over a length-10 edge from vertex 0
    lambda: FlowNetwork(5, [(0, 2), (0, 3), (0, 4), (0, 1), (1, 2), (2, 3), (3, 4)],
                        [10, 10, 10, 1, 1, 1, 1]).min_cost_flow([-4, 1, 1, 1, 1]),
]
SOLVE_IDS = ["transportation", "min_cost_flow"]


@pytest.mark.parametrize("solve", SOLVES, ids=SOLVE_IDS)
def test_network_simplex_iteration_limit(monkeypatch, solve):
    steps = []
    pivot = simplex._tree_pivot

    def recording(*args):
        steps.append(pivot(*args))
        return steps[-1]

    monkeypatch.setattr(simplex, "_tree_pivot", recording)
    solve()
    assert len(steps) >= 2
    monkeypatch.setattr(simplex, "_MAX_ITER", 1)
    with pytest.raises(SolverFailure, match="iteration limit"):
        solve()


@pytest.mark.parametrize("corrupt", [
    lambda phi: [2 * p for p in phi],
    # the last node is a sink, entered by a tree arc that now prices at -1
    lambda phi: phi[:-1] + [phi[-1] + 1],
], ids=["doubled", "shifted"])
@pytest.mark.parametrize("solve", SOLVES, ids=SOLVE_IDS)
def test_network_simplex_potentials_are_certified(monkeypatch, solve, corrupt):
    real = simplex._network_simplex
    monkeypatch.setattr(simplex, "_network_simplex", lambda *a: corrupt(real(*a)))
    with pytest.raises(SolverFailure, match="Lipschitz"):
        solve()


def _detour(flow):
    # one more unit round the opposite arcs of edge 0 keeps the balance and
    # the potentials feasible, but the flow no longer costs what they pair to
    flow[0] += 1
    flow[1] += 1


def _extra_unit(flow):
    flow[0] += 1


def _negative(flow):
    flow[flow.index(0)] = -1


@pytest.mark.parametrize("corrupt,message", [
    (_detour, "attain"), (_extra_unit, "balance"), (_negative, "negative")])
def test_network_simplex_flow_is_certified(monkeypatch, corrupt, message):
    real = simplex._network_simplex

    def corrupted(n, tails, heads, cost, flow, tree, outs, ins):
        phi = real(n, tails, heads, cost, flow, tree, outs, ins)
        corrupt(flow)
        return phi

    monkeypatch.setattr(simplex, "_network_simplex", corrupted)
    with pytest.raises(SolverFailure, match=message):
        SOLVES[1]()


# --- pivot-by-pivot updates against the full-walk loop ----------------------

def _random_transportation(rng):
    """Small integer or rational problems; zero masses and equal costs make
    degenerate and tied pivots."""
    ns, nd = rng.randint(1, 7), rng.randint(1, 7)
    supply = [rng.randint(0, 5) for _ in range(ns)]
    demand = [rng.randint(0, 5) for _ in range(nd)]
    gap = sum(supply) - sum(demand)
    if gap > 0:
        demand[-1] += gap
    else:
        supply[-1] -= gap
    cost = [[rng.choice((rng.randint(0, 4), F(rng.randint(0, 9), rng.randint(1, 4))))
             for _ in range(nd)] for _ in range(ns)]
    den = lcm(*(F(c).denominator for row in cost for c in row))
    transportation([[int(c * den) for c in row] for row in cost], supply, demand, den)


def _random_min_cost_flow(rng):
    """A random tree plus chords, zero lengths among them, and a sparse
    divergence on at most three pairs of vertices."""
    n = rng.randint(2, 12)
    ends = [(rng.randrange(i), i) for i in range(1, n)]
    ends += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 16))]
    rng.shuffle(ends)
    div = [0] * n
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(range(n), 2)
        q = F(rng.randint(1, 6), rng.randint(1, 3))
        div[a] += q
        div[b] -= q
    FlowNetwork(n, ends, [rng.randint(0, 5) for _ in ends]).min_cost_flow(div)


def _transport_problem(rng):
    """(icost, supply, demand, den) of up to 7 x 7 cells: masses with zeros
    and denominators 1-3, and integer costs from a few values over a
    denominator, so degenerate starts and tied cells are common."""
    ns, nd = rng.randint(1, 7), rng.randint(1, 7)
    supply = [F(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(ns)]
    demand = [F(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(nd)]
    gap = sum(supply) - sum(demand)
    if gap > 0:
        demand[-1] += gap
    else:
        supply[-1] -= gap
    values = [rng.randint(0, 9) for _ in range(rng.randint(1, 4))]
    icost = [[rng.choice(values) for _ in range(nd)] for _ in range(ns)]
    return icost, supply, demand, rng.randint(1, 4)


def _is_spanning_start(flow, tree, supply, demand):
    """ns + nd - 1 arcs joining every row and column node with no cycle,
    flows >= 0 on them and 0 elsewhere, and the given marginals."""
    ns, nd = len(supply), len(demand)
    root = list(range(ns + nd))

    def find(u):
        while root[u] != u:
            root[u] = root[root[u]]
            u = root[u]
        return u

    for a in tree:
        i, j = find(a // nd), find(ns + a % nd)
        if i == j:
            return False
        root[i] = j
    return (len(tree) == ns + nd - 1 and min(flow) >= 0
            and all(f == 0 for a, f in enumerate(flow) if a not in tree)
            and [sum(flow[i * nd:(i + 1) * nd]) for i in range(ns)] == supply
            and [sum(flow[j::nd]) for j in range(nd)] == demand)


def test_least_cost_start_matches_the_north_west_reference(monkeypatch):
    # every start is a feasible spanning tree, and both starts reach the
    # same certified value
    rng = random.Random(32)
    problems = [_transport_problem(rng) for _ in range(3000)]
    for icost, supply, demand, _ in problems:
        masses, _ = simplex._scaled(supply + demand)
        ns = len(supply)
        flow, tree = simplex._least_cost([c for row in icost for c in row],
                                         masses[:ns], masses[ns:])
        assert _is_spanning_start(flow, tree, masses[:ns], masses[ns:])
    values = [transportation(*p)[0] for p in problems]
    monkeypatch.setattr(simplex, "_least_cost",
                        lambda icost, supply, demand: oracles.north_west(supply, demand))
    assert [transportation(*p)[0] for p in problems] == values
    assert sum(1 for v in values if v) > 2000


def test_each_pivot_shifts_one_side_of_its_cut(monkeypatch):
    # cost = reduced + phi(head) - phi(tail) stays put on every arc through
    # every pivot, whichever side moved; the rest moves (phi[0] changes)
    # in some pivots, and the returned potentials have phi[0] = 0
    moves = {"subtree": 0, "rest": 0}
    pivot = simplex._tree_pivot

    def checking(tails, heads, flow, adj, outs, ins, parent, parc, depth, phi, reduced, a_in):
        def costs():
            return [r + phi[h] - phi[t] for t, h, r in zip(tails, heads, reduced)]

        before, phi0 = costs(), phi[0]
        theta = pivot(tails, heads, flow, adj, outs, ins, parent, parc, depth, phi, reduced, a_in)
        assert costs() == before and reduced[a_in] == 0
        moves["rest" if phi[0] != phi0 else "subtree"] += 1
        return theta

    monkeypatch.setattr(simplex, "_tree_pivot", checking)
    real = simplex._network_simplex

    def normalised(*args):
        phi = real(*args)
        assert phi[0] == 0
        return phi

    monkeypatch.setattr(simplex, "_network_simplex", normalised)
    rng = random.Random(35)
    for _ in range(300):
        _random_transportation(rng)
        _random_min_cost_flow(rng)
    assert moves["subtree"] > 100 and moves["rest"] > 100


@pytest.mark.parametrize("bland_after,cases", [(2000, 1000), (3, 500), (0, 500)])
def test_network_simplex_matches_the_full_walk_loop(monkeypatch, bland_after, cases):
    # Dantzig pricing throughout, a switch to first-negative after three
    # pivots, and first-negative from the start
    monkeypatch.setattr(simplex, "_BLAND_AFTER", bland_after)
    monkeypatch.setattr(oracles, "_BLAND_AFTER", bland_after)
    pivots = []
    for module, name in ((simplex, "_tree_pivot"), (oracles, "_full_walk_tree_pivot")):
        def counting(*args, pivot=getattr(module, name), tag=len(pivots)):
            pivots[tag] += 1
            return pivot(*args)

        pivots.append(0)
        monkeypatch.setattr(module, name, counting)
    real = simplex._network_simplex
    seen = []

    def both(n, tails, heads, cost, flow, tree, outs, ins):
        oracle_flow = list(flow)
        pivots[:] = [0, 0]
        phi = real(n, tails, heads, cost, flow, tree, outs, ins)
        assert phi == oracles.full_walk_network_simplex(n, tails, heads, cost, oracle_flow, tree,
                                                        outs, ins)
        assert flow == oracle_flow
        assert pivots[0] == pivots[1]
        seen.append(pivots[0])
        return phi

    monkeypatch.setattr(simplex, "_network_simplex", both)
    rng = random.Random(20 + bland_after)
    for _ in range(cases):
        _random_transportation(rng)
        _random_min_cost_flow(rng)
    assert len(seen) == 2 * cases and sum(seen) > 2 * cases
