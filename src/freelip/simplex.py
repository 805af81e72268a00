"""Linear programming kernels: exact rational simplex methods.

- Tree transport (``transportation``): the transportation
  simplex of Dantzig on a spanning-tree basis, in the network-simplex form
  of Orlin.  A north-west-corner start, u-v potentials from one tree walk
  per pivot, Dantzig pricing with a Bland fallback after ``_BLAND_AFTER``
  pivots (so it terminates), and an O(ns + nd) cycle pivot.  It runs on the
  problem scaled to integers and returns the value, the plan and the
  optimal potentials, from which ``freenorm.lip_dual`` reads its
  1-Lipschitz certificate.
- Edge flow (``min_cost_flow``): the network simplex on a graph's own
  edges (Ahuja, Magnanti and Orlin, *Network Flows*, 1993), for the
  quotient norms of ``cyclespace.quotient_norm``.  Each edge carries flow
  either way at its length, so the BFS spanning tree is a feasible start;
  the same integer scaling, pricing rules and tree-walk potentials as the
  transport, and the optimal potentials are the dual certificate.
- Dense simplex (``solve_standard_exact``): two-phase primal simplex over
  Fractions with the same pricing rules, for the LPs without network
  structure, the exact minimal projection LP in ``projections``.  The
  tests use it as the reference for both network kernels, through
  ``min_l1_combination`` (the dense quotient-norm LP, which no library
  path calls) and ``tests/oracles.py``.

``lipschitz_dual`` is the n(n-1)-row Kantorovich dual LP, kept as the
tests' reference for the value of ``lip_dual``; no library path calls it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import SolverFailure

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
# Transportation simplex on a spanning-tree basis
# ---------------------------------------------------------------------------

def _scaled(values):
    """Integers n_k and one denominator q with values[k] = n_k / q, for
    rationals (ints or Fractions)."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _north_west(supply, demand, x, row_adj, col_adj):
    """North-west-corner start: a staircase of ns + nd - 1 cells.

    When a row and a column run out together only the row advances, so the
    next cell carries a zero flow and the basis stays a spanning tree.
    """
    ns, nd = len(supply), len(demand)
    i = j = 0
    ra, rb = supply[0], demand[0]
    while True:
        q = min(ra, rb)
        x[i, j] = q
        row_adj[i].append(j)
        col_adj[j].append(i)
        ra -= q
        rb -= q
        if i == ns - 1 and j == nd - 1:
            return
        if (ra == 0 and i < ns - 1) or j == nd - 1:
            i += 1
            ra = supply[i]
        else:
            j += 1
            rb = demand[j]


def _potentials(cost, row_adj, col_adj):
    """u_i + v_j = c_ij on every tree cell, with u_0 = 0, by one tree walk.

    Nodes are rows 0..ns-1 and columns ns..ns+nd-1; also returns each
    node's parent and depth in the tree rooted at row 0.
    """
    ns, nd = len(row_adj), len(col_adj)
    u = [None] * ns
    v = [None] * nd
    parent = [-1] * (ns + nd)
    depth = [0] * (ns + nd)
    u[0] = 0
    stack = [0]
    while stack:
        node = stack.pop()
        d = depth[node] + 1
        if node < ns:
            ui, row = u[node], cost[node]
            for j in row_adj[node]:
                if v[j] is None:
                    v[j] = row[j] - ui
                    parent[ns + j], depth[ns + j] = node, d
                    stack.append(ns + j)
        else:
            j = node - ns
            vj = v[j]
            for i in col_adj[j]:
                if u[i] is None:
                    u[i] = cost[i][j] - vj
                    parent[i], depth[i] = node, d
                    stack.append(i)
    return u, v, parent, depth


def _cycle_pivot(x, row_adj, col_adj, parent, depth, p, q):
    """Bring cell (p, q) into the tree; return the step theta (0 if degenerate).

    The tree path from column q to row p closes a cycle with (p, q); flow
    rises on (p, q) and every second path cell, falls on the others.  Among
    the falling cells at the minimum flow the smallest (i, j) leaves.
    """
    ns = len(row_adj)
    a, b = p, ns + q
    up_a, up_b = [], []
    while a != b:
        if depth[a] >= depth[b]:
            up_a.append((a, parent[a]))
            a = parent[a]
        else:
            up_b.append((b, parent[b]))
            b = parent[b]
    path = [(r, c - ns) if r < ns else (c, r - ns) for r, c in up_b + up_a[::-1]]
    falling, rising = path[0::2], path[1::2]
    theta, leave = min((x[cell], cell) for cell in falling)
    x[p, q] = theta
    for cell in rising:
        x[cell] += theta
    for cell in falling:
        x[cell] -= theta
    del x[leave]
    li, lj = leave
    row_adj[li].remove(lj)
    col_adj[lj].remove(li)
    row_adj[p].append(q)
    col_adj[q].append(p)
    return theta


def _entering(cost, u, v, first):
    """Cell of the most negative reduced cost c_ij - u_i - v_j, or of the
    first negative one in row-major order; None at optimality."""
    best, enter = 0, None
    for i, row in enumerate(cost):
        ui = u[i]
        for j, (cij, vj) in enumerate(zip(row, v)):
            r = cij - ui - vj
            if r < best:
                if first:
                    return i, j
                best, enter = r, (i, j)
    return enter


def _tree_transport(cost, supply, demand):
    """Transportation simplex over integers: (plan cells, u, v) at optimum.

    Dantzig pricing over all ns * nd reduced costs c_ij - u_i - v_j; after
    _BLAND_AFTER pivots the first negative cell enters instead, which with
    the smallest-cell leaving rule is Bland's rule and cannot cycle.
    """
    ns, nd = len(supply), len(demand)
    x = {}
    row_adj = [[] for _ in range(ns)]
    col_adj = [[] for _ in range(nd)]
    _north_west(supply, demand, x, row_adj, col_adj)
    it = 0
    while True:
        u, v, parent, depth = _potentials(cost, row_adj, col_adj)
        it += 1
        if it > _MAX_ITER:
            raise SolverFailure("transportation simplex iteration limit exceeded")
        enter = _entering(cost, u, v, first=it > _BLAND_AFTER)
        if enter is None:
            return x, u, v
        _cycle_pivot(x, row_adj, col_adj, parent, depth, *enter)


def transportation(cost, supply, demand):
    """Balanced transportation: min sum c[i][j] p[i][j] with given marginals.

    cost, supply and demand are ints or Fractions.  Returns (value, plan,
    (u, v)): plan is a dense ns x nd matrix and u, v are optimal
    potentials, u_i + v_j <= c[i][j] with equality wherever the plan is
    positive, all Fractions.  Runs the tree simplex on the problem scaled
    to integers.
    """
    ns, nd = len(supply), len(demand)
    masses, mden = _scaled(list(supply) + list(demand))
    if sum(masses[:ns]) != sum(masses[ns:]):
        raise SolverFailure("unbalanced transportation problem")
    if not ns or not nd:
        return ZERO, [[] for _ in range(ns)], ([ZERO] * ns, [ZERO] * nd)
    flat, cden = _scaled([c for row in cost for c in row])
    icost = [flat[i * nd:(i + 1) * nd] for i in range(ns)]
    x, u, v = _tree_transport(icost, masses[:ns], masses[ns:])
    plan = [[ZERO] * nd for _ in range(ns)]
    total = 0
    for (i, j), flow in x.items():
        if flow:
            plan[i][j] = Fraction(flow, mden)
            total += flow * icost[i][j]
    return (Fraction(total, cden * mden), plan,
            ([Fraction(ui, cden) for ui in u], [Fraction(vj, cden) for vj in v]))


# ---------------------------------------------------------------------------
# Network simplex on a graph's own edges
# ---------------------------------------------------------------------------

def _flow_potentials(ends, cost, sign, tree_adj):
    """phi(head) - phi(tail) = sign_e c_e on every tree edge, phi(0) = 0,
    by one tree walk; also each vertex's parent, parent edge and depth."""
    n = len(tree_adj)
    phi = [None] * n
    parent = [-1] * n
    pedge = [-1] * n
    depth = [0] * n
    phi[0] = 0
    stack = [0]
    while stack:
        u = stack.pop()
        for e in tree_adj[u]:
            t, h = ends[e]
            w = h if t == u else t
            if phi[w] is None:
                step = sign[e] * cost[e]
                phi[w] = phi[u] + step if w == h else phi[u] - step
                parent[w], pedge[w], depth[w] = u, e, depth[u] + 1
                stack.append(w)
    return phi, parent, pedge, depth


def _edge_entering(ends, cost, phi, first):
    """Edge of the most negative reduced cost c_e - |phi(h) - phi(t)|, or
    the first negative one; None at optimality.  Tree edges price at 0."""
    best, enter = 0, None
    for e, ((t, h), c) in enumerate(zip(ends, cost)):
        r = c - abs(phi[h] - phi[t])
        if r < best:
            if first:
                return e
            best, enter = r, e
    return enter


def _edge_pivot(ends, sign, flow, tree_adj, parent, pedge, depth, phi, e_in):
    """Bring edge e_in into the tree, oriented up the potential.

    Flow runs round the cycle e_in + tree path: it rises on the tree edges
    oriented along the cycle and falls on the others.  Among the falling
    edges at the minimum flow the smallest arc index 2e (+1 if oriented
    head to tail) leaves, so with first-negative entering this is Bland's
    rule.  A zero-flow tree edge keeps its orientation, so pushing against
    it is a degenerate step.
    """
    t, h = ends[e_in]
    u, v = (t, h) if phi[h] > phi[t] else (h, t)   # flow enters along u -> v
    rising, falling = [], []
    a, b = v, u   # the cycle closes v -> ... -> u through the tree
    while a != b:
        if depth[a] >= depth[b]:
            e, x, a = pedge[a], a, parent[a]
        else:
            e, x, b = pedge[b], parent[b], parent[b]
        (rising if (ends[e][0] == x) == (sign[e] > 0) else falling).append(e)
    theta, arc = min((flow[e], 2 * e + (sign[e] < 0)) for e in falling)
    leave = arc // 2
    for e in rising:
        flow[e] += theta
    for e in falling:
        flow[e] -= theta
    lt, lh = ends[leave]
    tree_adj[lt].remove(leave)
    tree_adj[lh].remove(leave)
    tree_adj[t].append(e_in)
    tree_adj[h].append(e_in)
    sign[leave], flow[leave] = 0, 0
    sign[e_in], flow[e_in] = (1 if u == t else -1), theta


def min_cost_flow(ends, lengths, divergence):
    """min sum_e lengths[e] |f_e| over edge flows f with the given divergence.

    ends[e] = (tail, head) are vertex indices 0..n-1 of a connected graph,
    lengths are positive and divergence[v] (inflow minus outflow, summing
    to zero) are ints or Fractions.  Returns (value, flow, phi): f_e > 0
    runs tail to head, and the vertex potentials phi satisfy
    |phi(head) - phi(tail)| <= lengths[e] with sum_v divergence[v] phi(v)
    = value, which certifies the optimum.  Runs the network simplex on the
    problem scaled to integers, from the BFS spanning tree of vertex 0.
    """
    n, m = len(divergence), len(ends)
    div, dden = _scaled(list(divergence))
    if sum(div):
        raise SolverFailure("divergence does not sum to zero")
    cost, cden = _scaled(list(lengths))
    adj = [[] for _ in range(n)]
    for e, (t, h) in enumerate(ends):
        adj[t].append(e)
        adj[h].append(e)
    # BFS tree; its flow is forced, each edge oriented along its flow
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
    sign, flow = [0] * m, [0] * m
    tree_adj = [[] for _ in range(n)]
    below = list(div)
    for w in reversed(order[1:]):
        e = up[w]
        t, h = ends[e]
        f = below[w] if h == w else -below[w]   # inflow to w's subtree
        below[t + h - w] += below[w]
        sign[e], flow[e] = (1 if f >= 0 else -1), abs(f)
        tree_adj[t].append(e)
        tree_adj[h].append(e)
    it = 0
    while True:
        phi, parent, pedge, depth = _flow_potentials(ends, cost, sign, tree_adj)
        it += 1
        if it > _MAX_ITER:
            raise SolverFailure("network simplex iteration limit exceeded")
        e_in = _edge_entering(ends, cost, phi, first=it > _BLAND_AFTER)
        if e_in is None:
            break
        _edge_pivot(ends, sign, flow, tree_adj, parent, pedge, depth, phi, e_in)
    total = sum(c * f for c, f in zip(cost, flow))
    return (Fraction(total, cden * dden),
            [Fraction(s * f, dden) for s, f in zip(sign, flow)],
            [Fraction(p, cden) for p in phi])


def min_l1_combination(x, zcols):
    """min over c of || x - sum_i c_i z_i ||_1, as a dense exact LP.

    zcols: list of column vectors, all of the same length as x.
    Returns (value, coefficients c).  The tests' reference for
    ``min_cost_flow``: no library path calls it.
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
