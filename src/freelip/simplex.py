"""Linear programming kernels: exact rational simplex methods.

- Network simplex (``_network_simplex``): the primal network simplex of
  Ahuja, Magnanti and Orlin (*Network Flows*, 1993) and Orlin (1997) on
  integer arcs with flow >= 0, from a feasible spanning tree.  One tree
  walk finds the node potentials and reduced costs; each pivot prices
  with Dantzig's rule (the first negative arc after ``_BLAND_AFTER``
  pivots, so it terminates), pivots round one tree cycle, re-hangs the
  subtree that the leaving arc cuts off and updates the potentials and
  reduced costs on the side of that cut with fewer nodes (*Network Flows*
  §11.5).  Its two entry points run on integers, differ only in their
  arcs and their start tree, and check the optimal flow and potentials
  once from scratch in those integers: ``transportation`` has one arc per
  (supply, demand) cell and the least-cost start (``_least_cost``), takes
  integer costs over one denominator (a metric's rows) and returns the
  value, the plan and the integer potentials from which
  ``freenorm.lip_dual`` reads its 1-Lipschitz certificate; its per-node
  arc lists are ranges, since arc i nd + j joins row i to column j.
  ``FlowNetwork`` has two opposite arcs per graph edge and the BFS
  spanning tree carrying its forced flow, for the quotient norms of
  ``cyclespace.quotient_norm``, and returns its value with the integer
  flow and potentials (the certificate) over their denominators.  A
  network is built once, from the edges and lengths alone: its arcs,
  their scaled costs, its per-node arc lists and its start tree depend
  on nothing else, and no solve changes them, so one network serves
  every divergence on its graph (``cyclespace.CycleBasis`` keeps one per
  checked basis).
- Dense simplex (``solve_standard_exact``): two-phase primal simplex over
  Fractions with the same pricing rules.  No library LP runs on it any
  more: the minimal projection LP of ``projections`` is solved by HiGHS
  and its vertex certified exactly there.  The tests use it as the
  reference for both network entry points, through
  ``min_l1_combination`` (the dense quotient-norm LP, which no library
  path calls) and ``tests/oracles.py``, and for the exact minimal
  projection constant, on the LP's dense standard form.

``lipschitz_dual`` is the n(n-1)-row Kantorovich dual LP, kept as the
tests' reference for the value of ``lip_dual``; no library path calls it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import lcm
from operator import not_, sub

from .errors import SolverFailure, ValidationError

ZERO = Fraction(0)
ONE = Fraction(1)

_BLAND_AFTER = 2000
_MAX_ITER = 200000


def _pivot(rows, cost, basis, r, c):
    piv = rows[r][c]
    if piv != 1:
        inv = ONE / piv
        rows[r] = [x * inv if x else x for x in rows[r]]
    prow = rows[r]
    for i, row in enumerate(rows):
        if i != r and row[c]:
            f = row[c]
            rows[i] = [x - f * y if y else x for x, y in zip(row, prow)]
    if cost[c]:
        f = cost[c]
        cost[:] = [x - f * y if y else x for x, y in zip(cost, prow)]
    basis[r] = c


def _price_out(cost, rows, basis):
    """Reduced costs: subtract from cost each basic column's cost times its row."""
    for i, bi in enumerate(basis):
        if cost[bi]:
            f = cost[bi]
            cost = [x - f * y if y else x for x, y in zip(cost, rows[i])]
    return cost


def _run_simplex(rows, cost, basis, ncols):
    """Minimize; rows are [coeffs..., rhs], cost is [reduced costs..., -value]."""
    it = 0
    while True:
        it += 1
        if it > _MAX_ITER:
            raise SolverFailure("simplex iteration limit exceeded")
        entering = -1
        if it <= _BLAND_AFTER:
            best = ZERO
            for j in range(ncols):
                if cost[j] < best:
                    best = cost[j]
                    entering = j
        else:
            for j in range(ncols):
                if cost[j] < 0:
                    entering = j
                    break
        if entering < 0:
            return
        leaving = -1
        best_ratio = None
        for i, row in enumerate(rows):
            a = row[entering]
            if a > 0:
                ratio = row[-1] / a
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[i] < basis[leaving]
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise SolverFailure("LP is unbounded")
        _pivot(rows, cost, basis, leaving, entering)


def solve_standard_exact(a, b, c, basis=None):
    """min c.x  s.t.  a x = b, x >= 0, exactly over Q.

    Entries of a, b and c are ints or Fractions; a is not modified.
    Returns (optimal value, x as list of Fractions).  A known feasible
    basis (one column index per row, after rows with negative rhs are sign
    flipped) skips phase 1.  Raises SolverFailure if infeasible or
    unbounded, and if the returned x fails a x = b, x >= 0 exactly.
    """
    m = len(a)
    n = len(c)
    rows = []
    for i in range(m):
        rhs = Fraction(b[i])
        if rhs < 0:
            rows.append([-x for x in a[i]] + [-rhs])
        else:
            rows.append([*a[i], rhs])

    if basis is not None:
        basis = list(basis)
        cost = [ZERO] * (n + 1)
        for i in range(m):
            if rows[i][basis[i]] == 0:
                raise SolverFailure("supplied basis is singular")
            _pivot(rows, cost, basis, i, basis[i])
        if any(row[-1] < 0 for row in rows):
            raise SolverFailure("supplied basis is infeasible")
    else:
        # Phase 1: artificial variable per row.
        total = n + m
        for i, row in enumerate(rows):
            art = [ZERO] * m
            art[i] = ONE
            rows[i] = row[:n] + art + [row[-1]]
        basis = [n + i for i in range(m)]
        cost = _price_out([ZERO] * n + [ONE] * m + [ZERO], rows, basis)
        _run_simplex(rows, cost, basis, total)
        if -cost[-1] != 0:
            raise SolverFailure("LP infeasible (phase 1 optimum nonzero)")

        # Drive remaining artificials out of the basis where possible.
        for i in range(m):
            if basis[i] >= n:
                piv_col = next((j for j in range(n) if rows[i][j] != 0), None)
                if piv_col is not None:
                    _pivot(rows, cost, basis, i, piv_col)
        keep = [i for i in range(m) if basis[i] < n]  # rows with basic artificial are redundant
        rows = [rows[i][:n] + [rows[i][-1]] for i in keep]
        basis = [basis[i] for i in keep]

    # Phase 2.
    cost = _price_out([Fraction(x) for x in c] + [ZERO], rows, basis)
    _run_simplex(rows, cost, basis, n)
    x = [ZERO] * n
    for i, bi in enumerate(basis):
        x[bi] = rows[i][-1]
    support = [(j, v) for j, v in enumerate(x) if v]
    if any(v < 0 for _, v in support) or any(
            sum((a[i][j] * v for j, v in support), start=ZERO) != b[i] for i in range(m)):
        raise SolverFailure("simplex returned a point that violates a x = b, x >= 0")
    return -cost[-1], x


# ---------------------------------------------------------------------------
# Network simplex on a spanning-tree basis
# ---------------------------------------------------------------------------

def _scaled(values):
    """Integers n_k and one denominator q with values[k] = n_k / q, for
    rationals (ints or Fractions)."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _tree_pivot(tails, heads, flow, adj, outs, ins, parent, parc, depth, phi, reduced, a_in):
    """Bring arc a_in into the tree; return the step theta (0 if degenerate).

    Flow runs along a_in and back from its head to its tail on the tree
    path: it rises on the path arcs oriented along that cycle and falls on
    the others.  Among the falling arcs at the minimum flow the smallest
    index leaves, so with first-negative entering this is Bland's rule.
    The leaving arc cuts a subtree off from node 0, which is re-hung from
    the end of a_in inside it.  So that a_in prices at 0, one side of the
    cut shifts its potentials, the subtree by the reduced cost delta of
    a_in or the rest by -delta, whichever has fewer nodes, and the reduced
    costs of the arcs with exactly one end in that side shift with them.
    Either side gives the same reduced costs, so the pivots do not depend
    on the choice; the potentials differ by a constant, which
    _network_simplex takes off when it returns.
    """
    rising, falling = [], []
    a, b = heads[a_in], tails[a_in]
    while a != b:
        if depth[a] >= depth[b]:
            arc, a = parc[a], parent[a]
            if tails[arc] == a:
                falling.append((flow[arc], arc, True))
            else:
                rising.append(arc)
        else:
            arc, b = parc[b], parent[b]
            if tails[arc] == b:
                rising.append(arc)
            else:
                falling.append((flow[arc], arc, False))
    theta, leave, head_side = min(falling)
    for arc in rising:
        flow[arc] += theta
    for _, arc, _ in falling:
        flow[arc] -= theta
    flow[a_in] = theta
    adj[tails[leave]].remove(leave)
    adj[heads[leave]].remove(leave)
    adj[tails[a_in]].append(a_in)
    adj[heads[a_in]].append(a_in)
    # the subtree below the leaving arc holds a_in's head iff that arc was
    # on the head's side of the cycle
    r = reduced[a_in]
    if head_side:
        top, p, delta = heads[a_in], tails[a_in], r
    else:
        top, p, delta = tails[a_in], heads[a_in], -r
    parent[top], parc[top], depth[top] = p, a_in, depth[p] + 1
    moved = [top]
    for u in moved:
        du, pu = depth[u] + 1, parc[u]
        for arc in adj[u]:
            if arc != pu:
                w = tails[arc] + heads[arc] - u
                parent[w], parc[w], depth[w] = u, arc, du
                moved.append(w)
    n = len(phi)
    fixed = [True] * n
    for u in moved:
        fixed[u] = False
    if 2 * len(moved) > n:
        moved = list(compress(range(n), fixed))
        fixed = list(map(not_, fixed))
        delta = -delta
    for u in moved:
        phi[u] += delta
        for arc in outs[u]:
            if fixed[heads[arc]]:
                reduced[arc] += delta
        for arc in ins[u]:
            if fixed[tails[arc]]:
                reduced[arc] -= delta
    return theta


def _network_simplex(n, tails, heads, cost, flow, tree, outs, ins):
    """Min-cost flow on nodes 0..n-1 from a feasible spanning tree; returns
    the optimal potentials phi and leaves the optimal flow in flow.

    Arc a runs tails[a] -> heads[a] at integer cost[a] and carries
    flow[a] >= 0, zero off the n - 1 tree arcs listed in tree; outs[v] and
    ins[v] are the arcs with tail v and with head v, as any sequences (the
    caller's network fixes them, so they are not rebuilt here).  One tree
    walk from node 0 finds the potentials, phi(head) - phi(tail) = cost on
    every tree arc, and the reduced costs cost - phi(head) + phi(tail) of
    every arc; each pivot (_tree_pivot) then updates them on the smaller
    side of its cut, and the potentials are returned with phi[0] = 0.  The
    most negative arc enters (the first at a tie), or after _BLAND_AFTER
    pivots the first negative one, which with _tree_pivot's leaving rule
    cannot cycle.  The costs must admit no negative cycle.
    """
    adj = [[] for _ in range(n)]
    for a in tree:
        adj[tails[a]].append(a)
        adj[heads[a]].append(a)
    phi = [None] * n
    parent = [-1] * n
    parc = [-1] * n
    depth = [0] * n
    phi[0] = 0
    stack = [0]
    while stack:
        u = stack.pop()
        for a in adj[u]:
            h = heads[a]
            w = tails[a] if h == u else h
            if phi[w] is None:
                phi[w] = phi[u] + cost[a] if w == h else phi[u] - cost[a]
                parent[w], parc[w], depth[w] = u, a, depth[u] + 1
                stack.append(w)
    reduced = [c - phi[h] + phi[t] for t, h, c in zip(tails, heads, cost)]
    it = 0
    while True:
        it += 1
        if it > _MAX_ITER:
            raise SolverFailure("network simplex iteration limit exceeded")
        if it > _BLAND_AFTER:
            a_in = next((a for a, r in enumerate(reduced) if r < 0), None)
        else:
            best = min(reduced, default=0)
            a_in = reduced.index(best) if best < 0 else None
        if a_in is None:
            p0 = phi[0]
            return [p - p0 for p in phi]
        _tree_pivot(tails, heads, flow, adj, outs, ins, parent, parc, depth, phi, reduced, a_in)


def _least_cost(icost, supply, demand):
    """Least-cost start (Dantzig's matrix minimum; Ahuja, Magnanti and Orlin,
    *Network Flows*, ch. 11): the flows of arcs i nd + j and a spanning tree
    of ns + nd - 1 of them.

    The cells are scanned by cost, ties by index.  A cell whose row and
    column are both open takes min(remaining supply, remaining demand) and
    closes one line: its row when the row is used up and is not the last
    open row, otherwise its column, whose demand the balanced masses have
    then used up.  A cell closes a line the later cells never use again,
    so the taken cells form no cycle, and the last one closes the last
    column.
    """
    ns, nd = len(supply), len(demand)
    ra, rb = list(supply), list(demand)
    row_open, col_open = [True] * ns, [True] * nd
    rows_left, size = ns, ns + nd - 1
    flow, tree = [0] * (ns * nd), []
    for a in sorted(range(ns * nd), key=icost.__getitem__):
        i, j = divmod(a, nd)
        if row_open[i] and col_open[j]:
            q = min(ra[i], rb[j])
            flow[a] = q
            tree.append(a)
            ra[i] -= q
            rb[j] -= q
            if ra[i] == 0 and rows_left > 1:
                row_open[i] = False
                rows_left -= 1
            else:
                col_open[j] = False
            if len(tree) == size:
                return flow, tree


def _certified(tails, heads, cost, flow, phi, div):
    """sum cost[a] flow[a], once flow and phi are checked from scratch.

    The flow must be >= 0 with inflow minus outflow div[v] at every node,
    every arc must price at cost - phi(head) + phi(tail) >= 0, and sum_v
    div[v] phi(v) must equal the flow's cost; by weak duality both are then
    optimal.  Raises SolverFailure otherwise.
    """
    net = [0] * len(div)
    total = 0
    for t, h, c, f in zip(tails, heads, cost, flow):
        if f:
            if f < 0:
                raise SolverFailure("network simplex flow is negative")
            net[h] += f
            net[t] -= f
            total += c * f
    if net != div:
        raise SolverFailure("network simplex flow breaks the node balance")
    if min([c - phi[h] + phi[t] for t, h, c in zip(tails, heads, cost)], default=0) < 0:
        raise SolverFailure("network simplex potentials break an arc's Lipschitz bound")
    if sum(d * p for d, p in zip(div, phi) if d) != total:
        raise SolverFailure("network simplex potentials do not attain the flow's cost")
    return total


def transportation(cost, supply, demand, den=1):
    """Balanced transportation: min sum c[i][j] p[i][j] with given marginals.

    The cost of cell (i, j) is c[i][j] = cost[i][j] / den for integers
    cost[i][j], as a metric's rows over its denominator give them; supply
    and demand are ints or Fractions.  Returns (value, plan, (u, v)): the
    value is a Fraction, plan a dense ns x nd matrix of Fractions, and u, v
    optimal integer potentials over den, u_i + v_j <= cost[i][j] with
    equality wherever the plan is positive.  Runs the network simplex on
    the masses scaled to integers: arc i nd + j from row i to column
    ns + j, from the least-cost start tree, with u = -phi(rows) and v =
    phi(columns); plan and potentials are certified in those integers
    (_certified).  Row i's arcs are range(i nd, (i + 1) nd) and column j's
    range(j, ns nd, nd), so no per-node arc list is built.  A cost that is
    not ns x nd raises ValidationError.
    """
    ns, nd = len(supply), len(demand)
    if len(cost) != ns or any(len(row) != nd for row in cost):
        raise ValidationError(f"cost is not {ns} x {nd}: one row per supply, one column per demand")
    masses, mden = _scaled(list(supply) + list(demand))
    if sum(masses[:ns]) != sum(masses[ns:]):
        raise SolverFailure("unbalanced transportation problem")
    if not ns or not nd:
        return ZERO, [[] for _ in range(ns)], ([0] * ns, [0] * nd)
    icost = [c for row in cost for c in row]
    flow, tree = _least_cost(icost, masses[:ns], masses[ns:])
    tails = [i for i in range(ns) for _ in range(nd)]
    heads = [ns + j for _ in range(ns) for j in range(nd)]
    outs = [range(i * nd, (i + 1) * nd) for i in range(ns)] + [()] * nd
    ins = [()] * ns + [range(j, ns * nd, nd) for j in range(nd)]
    phi = _network_simplex(ns + nd, tails, heads, icost, flow, tree, outs, ins)
    total = _certified(tails, heads, icost, flow, phi, [-m for m in masses[:ns]] + masses[ns:])
    plan = [[Fraction(f, mden) if f else ZERO for f in flow[i * nd:(i + 1) * nd]]
            for i in range(ns)]
    return Fraction(total, den * mden), plan, ([-p for p in phi[:ns]], phi[ns:])


class FlowNetwork:
    """A connected graph as a min-cost-flow network, built once for any
    number of divergences (``min_cost_flow``).

    n is the vertex count, ends[e] = (tail, head) are vertex indices
    0..n-1 and lengths[e] >= 0 are ints or Fractions, one per edge; a
    mismatch in count, an end outside 0..n-1 or a negative length raises
    ValidationError, a disconnected graph SolverFailure.  The network keeps
    what the network simplex needs that does not depend on the divergence:
    edge e as arcs 2e (tail -> head) and 2e + 1 (head -> tail) in tails,
    heads and arc_cost, at the lengths scaled to integers over their common
    denominator cden; each vertex's out-arcs and in-arcs (outs, ins); and
    the BFS spanning tree of vertex 0 from which every solve starts, as the
    vertices after 0 in reverse BFS order (climb) and each one's edge to its
    parent (up).  All of it is tuples and nothing changes it after
    construction, so one network serves every solve on its graph; each
    solve still certifies its own flow and potentials.
    """

    __slots__ = ("n", "cden", "tails", "heads", "arc_cost", "outs", "ins", "climb", "up")

    def __init__(self, n, ends, lengths):
        if n < 1:
            raise ValidationError("a flow network needs at least one vertex")
        if len(lengths) != len(ends):
            raise ValidationError(f"{len(ends)} edges but {len(lengths)} lengths")
        vertices = range(n)
        for e, (t, h) in enumerate(ends):
            if t not in vertices or h not in vertices:
                raise ValidationError(f"edge {e} {(t, h)} has an end outside 0..{n - 1}")
        for e, length in enumerate(lengths):
            if length < 0:
                raise ValidationError(f"edge {e} {tuple(ends[e])} has negative length {length}")
        adj = [[] for _ in range(n)]
        for e, (t, h) in enumerate(ends):
            adj[t].append(e)
            adj[h].append(e)
        seen = [False] * n
        seen[0] = True
        order, up = [0], [-1] * n
        for u in order:
            for e in adj[u]:
                w = ends[e][0] + ends[e][1] - u
                if not seen[w]:
                    seen[w], up[w] = True, e
                    order.append(w)
        if len(order) != n:
            raise SolverFailure("min-cost flow needs a connected graph")
        cost, self.cden = _scaled(list(lengths))
        self.n = n
        self.tails = tuple(v for t, h in ends for v in (t, h))
        self.heads = tuple(v for t, h in ends for v in (h, t))
        self.arc_cost = tuple(c for c in cost for _ in range(2))
        outs = [[] for _ in range(n)]
        ins = [[] for _ in range(n)]
        for a, (t, h) in enumerate(zip(self.tails, self.heads)):
            outs[t].append(a)
            ins[h].append(a)
        self.outs = tuple(map(tuple, outs))
        self.ins = tuple(map(tuple, ins))
        self.climb = tuple(order[:0:-1])
        self.up = tuple(up)

    def min_cost_flow(self, divergence):
        """min sum_e lengths[e] |f_e| over edge flows f with the given
        divergence[v] (inflow minus outflow, ints or Fractions summing to
        zero, one per vertex; ValidationError for another count).

        Returns (value, (flow, fden), (phi, pden)): the value is a
        Fraction; edge e carries flow[e] / fden from tail to head (head to
        tail when negative), over the divergence's common denominator fden;
        and the vertex potentials phi[v] / pden, over the lengths' common
        denominator pden = cden, satisfy |phi(head) - phi(tail)| <=
        lengths[e] with sum_v divergence[v] phi(v) = value, which
        certifies the optimum.  Runs the network simplex on the problem
        scaled to integers from the BFS tree, whose flow the divergence
        forces, and certifies flow and potentials in those integers
        (_certified).
        """
        if len(divergence) != self.n:
            raise ValidationError(f"divergence has {len(divergence)} entries for "
                                  f"{self.n} vertices")
        div, dden = _scaled(list(divergence))
        if sum(div):
            raise SolverFailure("divergence does not sum to zero")
        tails, heads, arc_cost, up = self.tails, self.heads, self.arc_cost, self.up
        # the BFS tree's flow is forced; each tree edge enters as the arc along it
        flow, tree = [0] * len(tails), []
        below = list(div)
        for w in self.climb:
            arc = 2 * up[w]
            t, h = tails[arc], heads[arc]
            f = below[w] if h == w else -below[w]   # inflow to w's subtree
            below[t + h - w] += below[w]
            arc += f < 0
            flow[arc] = abs(f)
            tree.append(arc)
        phi = _network_simplex(self.n, tails, heads, arc_cost, flow, tree, self.outs, self.ins)
        total = _certified(tails, heads, arc_cost, flow, phi, div)
        return (Fraction(total, self.cden * dden), (list(map(sub, flow[::2], flow[1::2])), dden),
                (phi, self.cden))


def min_l1_combination(x, zcols):
    """min over c of || x - sum_i c_i z_i ||_1, as a dense exact LP.

    zcols: list of column vectors, all of the same length as x.
    Returns (value, coefficients c).  The tests' reference for
    ``FlowNetwork.min_cost_flow``: no library path calls it.
    """
    m = len(x)
    k = len(zcols)
    if k == 0:
        return sum(abs(Fraction(v)) for v in x), []
    nvar = 2 * k + 2 * m  # c+, c-, u, v with x - Zc = u - v
    a = []
    for i in range(m):
        row = [ZERO] * nvar
        for j in range(k):
            zij = zcols[j][i]
            row[j] = zij
            row[k + j] = -zij
        row[2 * k + i] = ONE
        row[2 * k + m + i] = -ONE
        a.append(row)
    cvec = [ZERO] * (2 * k) + [ONE] * (2 * m)
    # u_i (or v_i when the rhs is negative) is an immediate feasible basis
    start = [2 * k + i if Fraction(x[i]) >= 0 else 2 * k + m + i for i in range(m)]
    val, sol = solve_standard_exact(a, list(x), cvec, basis=start)
    return val, [sol[j] - sol[k + j] for j in range(k)]


def lipschitz_dual(dist, weights, base):
    """max sum_p weights[p] f[p]  s.t.  f 1-Lipschitz w.r.t. dist, f[base] = 0.

    dist: n x n matrix, weights: length-n vector summing to zero.
    Returns (value, f values as a list).  Reference formulation only, one
    row per ordered pair: ``freenorm.lip_dual`` reads its certificate off
    the transportation potentials instead.
    """
    n = len(weights)
    vs = [i for i in range(n) if i != base]
    pos = {v: j for j, v in enumerate(vs)}
    pairs = [(p, q) for p in range(n) for q in range(n) if p != q]
    nf = len(vs)
    nvar = 2 * nf + len(pairs)  # f+, f-, slack per ordered pair
    a = []
    b = []
    for s, (p, q) in enumerate(pairs):
        row = [ZERO] * nvar
        if p != base:
            j = pos[p]
            row[j] = ONE
            row[nf + j] = -ONE
        if q != base:
            j = pos[q]
            row[j] -= ONE
            row[nf + j] += ONE
        row[2 * nf + s] = ONE
        a.append(row)
        b.append(dist[p][q])
    cvec = [ZERO] * nvar
    for v in vs:
        j = pos[v]
        cvec[j] = -weights[v]
        cvec[nf + j] = weights[v]
    # f = 0 with all slacks basic is feasible (distances are nonnegative)
    start = [2 * nf + s for s in range(len(pairs))]
    val, sol = solve_standard_exact(a, b, cvec, basis=start)
    f = [ZERO] * n
    for v in vs:
        f[v] = sol[pos[v]] - sol[nf + pos[v]]
    return -val, f
