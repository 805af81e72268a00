"""Independent checks of the outputs the benchmark's workloads certify.

Nothing here calls into freelip's solvers.  Each check recomputes what it
needs from the inputs with plain Python and Fractions and raises
CheckError on the first mismatch.  Inputs are read through their public
fields only (``space.points``, ``space.dist``, ``graph.edges``,
``molecule.coeffs``, ``plan.moves``, ``f.values``...).
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class CheckError(Exception):
    """An output of the program failed an independent check."""


def require(ok, message):
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Transport: plans, dual certificates, quotient identity
# ---------------------------------------------------------------------------

def _dist(space):
    index = {p: i for i, p in enumerate(space.points)}
    return lambda p, q: space.dist[index[p]][index[q]]


def check_plan(space, molecule, value, plan):
    """The plan moves exactly the molecule's positive part onto its negative
    part, and its cost sum(mass * d) equals both the plan's and the value."""
    d = _dist(space)
    out: dict = {}
    inflow: dict = {}
    cost = ZERO
    for p, q, mass in plan.moves:
        require(mass > 0, f"non-positive mass {mass} on move {p}->{q}")
        out[p] = out.get(p, ZERO) + mass
        inflow[q] = inflow.get(q, ZERO) + mass
        cost += mass * d(p, q)
    for p, v in molecule.coeffs.items():
        if v > 0:
            require(out.get(p, ZERO) == v and p not in inflow,
                    f"supply at {p}: shipped {out.get(p, ZERO)}, expected {v}")
        else:
            require(inflow.get(p, ZERO) == -v and p not in out,
                    f"demand at {p}: received {inflow.get(p, ZERO)}, expected {-v}")
    require(set(out) | set(inflow) <= set(molecule.coeffs),
            "plan moves mass at a point outside the molecule's support")
    require(cost == plan.cost, f"plan cost {cost} != reported plan cost {plan.cost}")
    require(cost == value, f"plan cost {cost} != reported value {value}")


def check_dual(space, molecule, certificate, primal_value):
    """f is 1-Lipschitz on every pair, vanishes at its basepoint, and pairs
    with the molecule to the primal value: weak duality then proves that
    both the plan and f are optimal."""
    f = certificate.f.values
    pts = list(space.points)
    require(set(f) == set(pts), "certificate is not defined on every point")
    base = certificate.f.basepoint
    require(base is not None and f[base] == 0, "certificate does not vanish at its basepoint")
    d = _dist(space)
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            require(abs(f[p] - f[q]) <= d(p, q),
                    f"certificate is not 1-Lipschitz on ({p}, {q})")
    pairing = sum((v * f[p] for p, v in molecule.coeffs.items()), start=ZERO)
    require(pairing == certificate.value, f"<f, m> = {pairing} != reported {certificate.value}")
    require(pairing == primal_value, f"<f, m> = {pairing} != primal value {primal_value}")


def boundary_coeffs(graph, coeffs):
    """Net inflow at each vertex of an edge vector given as {edge id: value}."""
    edges = {e.id: e for e in graph.edges}
    out: dict = {}
    for eid, v in coeffs.items():
        e = edges[eid]
        out[e.head] = out.get(e.head, ZERO) + v
        out[e.tail] = out.get(e.tail, ZERO) - v
    return {p: v for p, v in out.items() if v != 0}


def check_quotient(quotient_value, transport_value):
    """The quotient identity: the edge-space quotient norm of x equals the
    transportation norm of its boundary, exactly."""
    require(quotient_value == transport_value,
            f"quotient norm {quotient_value} != transport norm {transport_value}")


def check_tree_norm(tree_value, transport_value):
    require(tree_value == transport_value,
            f"tree norm {tree_value} != transport norm {transport_value}")


# ---------------------------------------------------------------------------
# Embeddings (result (1))
# ---------------------------------------------------------------------------

def check_embedding(space, report, max_c=None):
    """Recompute partners, their minimality, the interpolation constant and
    the bounds 1 <= ||P|| <= C that follow from them.

    For a pair with both points selected, ||P(d_p - d_q)|| <= d_p + d_q;
    with only p selected, ||P(d_p - d_q)|| = d_p <= d(p, q) because q lies
    in the complement.  Hence ||P|| <= max(C, 1) = C, and the pair
    (y, partner(y)) is fixed by P, so ||P|| >= 1.
    """
    d = _dist(space)
    ys = list(report.ys)
    selected = set(ys)
    require(len(selected) == len(ys) == report.k, "selected set size mismatch")
    complement = [p for p in space.points if p not in selected]
    require(complement, "selected set has an empty complement")
    for y in ys:
        x = report.partners[y]
        require(x in complement, f"partner of {y} is not in the complement")
        nearest = min(d(y, z) for z in complement)
        require(d(y, x) == nearest, f"partner of {y} is not a nearest complement point")
        require(report.d_values[y] == nearest, f"d-value of {y} is wrong")
    c = ONE
    for i, yi in enumerate(ys):
        for yj in ys[i + 1:]:
            c = max(c, (report.d_values[yi] + report.d_values[yj]) / d(yi, yj))
    require(report.c_constant == c, f"interpolation constant {report.c_constant} != {c}")
    require(report.lower_eq == 1 / c and report.upper_eq == 1, "equivalence bounds are wrong")
    if max_c is not None:
        require(c <= max_c, f"interpolation constant {c} exceeds {max_c}")
    if report.proj_norm is not None:
        require(1 <= report.proj_norm <= c,
                f"projection norm {report.proj_norm} outside [1, C = {c}]")


def check_half_dim(space, report):
    n = len(space.points)
    require(2 * report.k >= n, f"selected {report.k} of {n} points, fewer than half")
    check_embedding(space, report, max_c=2)


def check_diamond_top(space, report, n):
    require(report.k == 2 * 4 ** (n - 1), f"k = {report.k}, expected {2 * 4 ** (n - 1)}")
    check_embedding(space, report, max_c=1)
    require(report.proj_norm == 1, f"projection norm {report.proj_norm}, expected 1")


# ---------------------------------------------------------------------------
# Exact matrices
# ---------------------------------------------------------------------------

def mat_mul(a, b):
    cols = list(zip(*b))
    out = []
    for row in a:
        nz = [(j, x) for j, x in enumerate(row) if x]
        out.append([sum((x * col[j] for j, x in nz), start=ZERO) for col in cols])
    return out


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v) if x and y), start=ZERO) for row in a]


def l1_operator_norm(p):
    return max(sum((abs(x) for x in col), start=ZERO) for col in zip(*p))


def check_idempotent(p, label="P"):
    require(mat_mul(p, p) == p, f"{label}^2 != {label}")


def check_symmetric(p, label="P"):
    require(all(p[i][j] == p[j][i] for i in range(len(p)) for j in range(i)),
            f"{label} is not symmetric")


def check_cycle_basis(graph, basis_cols):
    """The columns are a basis of the cycle space of a connected graph: each
    has zero boundary, each is the only one nonzero on some edge (so they
    are independent), and there are |E| - |V| + 1 of them."""
    m = len(graph.edges)
    require(len(basis_cols) == m - len(graph.vertices) + 1, "basis size != |E| - |V| + 1")
    ids = [e.id for e in graph.edges]
    for j, z in enumerate(basis_cols):
        require(len(z) == m, "basis vector has the wrong length")
        require(not boundary_coeffs(graph, {ids[i]: z[i] for i in range(m) if z[i]}),
                f"basis vector {j} is not a cycle")
        require(any(z[i] and not any(w[i] for k, w in enumerate(basis_cols) if k != j)
                    for i in range(m)), f"basis vector {j} has no private edge")


def check_cycle_projection(p, graph, basis_cols, label="P"):
    """P is an exact projection onto the cycle space Z: P fixes a basis of
    Z and every column of P has zero boundary, i.e. lies in Z.  Together
    these give P^2 = P exactly (P e_j lies in Z, which P fixes) without a
    dense product of matrices whose entries can carry thousand-digit
    denominators."""
    m = len(graph.edges)
    require(len(p) == m and all(len(row) == m for row in p), f"{label} has the wrong shape")
    check_cycle_basis(graph, basis_cols)
    for z in basis_cols:
        require(mat_vec(p, z) == list(z), f"{label} does not fix a basis vector")
    ids = [e.id for e in graph.edges]
    for j in range(m):
        col = {ids[i]: p[i][j] for i in range(m) if p[i][j]}
        require(not boundary_coeffs(graph, col), f"column {j} of {label} leaves the cycle space")


def check_min_projection(lam, p, graph, basis_cols, orth_norm, exact):
    check_cycle_projection(p, graph, basis_cols)
    norm = l1_operator_norm(p)
    if exact:
        require(norm == lam, f"||P||_1 = {norm} != exact lambda {lam}")
    else:
        require(abs(float(norm) - lam) <= 1e-6, f"||P||_1 = {float(norm)} != lambda {lam}")
    require(1 - 1e-9 <= lam <= float(orth_norm) + 1e-9,
            f"lambda {lam} outside [1, ||orthogonal||_1 = {float(orth_norm)}]")


def as_permutation(g):
    """Index map i -> g(i) of a permutation matrix with a 1 at (g(i), i)."""
    n = len(g)
    perm = [None] * n
    for r, row in enumerate(g):
        ones = [c for c, x in enumerate(row) if x]
        require(len(ones) == 1 and row[ones[0]] == 1, "group element is not a permutation matrix")
        perm[ones[0]] = r
    require(sorted(perm) == list(range(n)), "group element is not a permutation matrix")
    return tuple(perm)


def check_group(elements, generators, order):
    """The elements are distinct permutations, contain the identity and are
    closed under composition with every generator."""
    perms = {as_permutation(g) for g in elements}
    require(len(perms) == len(elements) == order,
            f"group has {len(perms)} distinct elements, expected {order}")
    n = len(generators[0])
    require(tuple(range(n)) in perms, "group lacks the identity")
    gens = [as_permutation(g) for g in generators]
    for a in perms:
        for g in gens:
            require(tuple(a[g[i]] for i in range(n)) in perms, "group is not closed")


def commutes_with_permutation(p, perm):
    """P G = G P for the permutation matrix G with G[g(i)][i] = 1."""
    n = len(p)
    return all(p[perm[i]][perm[j]] == p[i][j] for i in range(n) for j in range(n))


def check_average(avg, p, elements):
    """The group average commutes with every element and has l1 norm no
    larger than its input."""
    for g in elements:
        require(commutes_with_permutation(avg, as_permutation(g)),
                "average does not commute with a group element")
    require(l1_operator_norm(avg) <= l1_operator_norm(p), "averaging increased the norm")


# ---------------------------------------------------------------------------
# Haar system and the norm-growth witnesses (result (2))
# ---------------------------------------------------------------------------

def mean_abs(values):
    return sum((abs(v) for v in values), start=ZERO) / len(values)


def haar_witness_values(n):
    """Cell values of f = h_0 + sum_k 2^k h_{2^k} (k < 2n-1) and of its
    even-level part Qf, built directly from the Haar definitions."""
    resolution = 2 * n - 1
    cells = 2 ** resolution
    f = [ONE] * cells
    qf = [ZERO] * cells
    for k in range(resolution):
        block = cells // 2 ** k
        half = block // 2
        for t in range(block):
            term = Fraction(2 ** k) * (1 if t < half else -1)
            f[t] += term
            if k % 2 == 0:
                qf[t] += term
    return f, qf


def check_haar_witness(n, result):
    f, nf, qf, nqf = result
    want_f, want_qf = haar_witness_values(n)
    require(list(f.values) == want_f and list(qf.values) == want_qf,
            "witness vectors differ from the Haar construction")
    require(nf == mean_abs(want_f) == 1, f"||f||_1 = {nf}, expected 1")
    require(nqf == mean_abs(want_qf), f"||Qf||_1 = {nqf} != recomputed {mean_abs(want_qf)}")
    require(nqf >= Fraction(2 * n + 1, 3), f"||Qf||_1 = {nqf} below (2n+1)/3")


def check_bm_bounds(n, b):
    lower = Fraction(2 * n + 1, 3)
    require(b["lower"] == lower, f"lower bound {b['lower']} != (2n+1)/3")
    require(lower <= b["exact_orth_norm"], "lower bound exceeds the orthogonal projection norm")
    require(b["upper"] == b["t_norm"] * b["tinv_norm"], "upper != ||T|| ||T^-1||")
    require(lower <= b["upper"] <= 4 * n + 4, f"upper bound {b['upper']} outside [lower, 4n+4]")


def multibranch_witness_values(n, k):
    """h_0 + (1/2) sum_i (2k)^i h_{i,1}: the paper's formula for P e_1."""
    cells = (2 * k) ** n
    vals = [ONE] * cells
    for i in range(1, n + 1):
        block = cells // (2 * k) ** i
        for t in range(2 * block):
            vals[t] += Fraction((2 * k) ** i, 2) * (1 if t < block else -1)
    return vals


def check_multibranch(n, k, r, n_vertices):
    cells = (2 * k) ** n
    want = multibranch_witness_values(n, k)
    require(r["witness_formula_matches"] and list(r["witness_vector"].values) == want,
            "witness vector differs from the paper formula")
    value = mean_abs(want)
    require(r["witness_value"] == value, f"witness value {r['witness_value']} != {value}")
    lower = Fraction((k - 1) * n, 2 * k)
    require(r["bm_lower"] == lower and value >= lower, "witness value below (1 - 1/k) n/2")
    require(r["bm_upper"] is None or lower <= r["bm_upper"] <= 4 * n + 4,
            f"upper bound {r['bm_upper']} outside [lower, 4n+4]")
    require(r["cycle_dim"] == cells - n_vertices + 1, "cycle dimension != |E| - |V| + 1")
    require(r["cycle_dim"] + len(r["cut_basis"]) == cells, "cut + cycle dimensions != |E|")
    check_idempotent(r["projection"])
    check_symmetric(r["projection"])


def check_growth_witness(w, alpha, r, materialized=None):
    """||C + A|| = 1 and ||C|| >= 1 + alpha (r-1)/2; with the materialized
    flat vectors, their l1 norms must equal the dynamic-program norms."""
    require(w.norm_sum == 1, f"||C + A|| = {w.norm_sum}, expected 1")
    bound = 1 + alpha * (r - 1) / 2
    require(w.norm_c >= bound, f"||C|| = {w.norm_c} below 1 + alpha (r-1)/2 = {bound}")
    if materialized is not None:
        c_flat, sum_flat = materialized
        c_l1 = sum((abs(v) for v in c_flat.coeffs.values()), start=ZERO)
        s_l1 = sum((abs(v) for v in sum_flat.coeffs.values()), start=ZERO)
        require(c_l1 == w.norm_c, f"materialized ||C|| = {c_l1} != DP norm {w.norm_c}")
        require(s_l1 == w.norm_sum, f"materialized ||C + A|| = {s_l1} != DP norm {w.norm_sum}")
