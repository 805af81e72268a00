"""Operator norms on l1/linf, orthogonal and minimal projections onto
subspaces of the edge space, group averaging, and Banach-Mazur bound
assembly.

Matrices act on coordinates indexed by a fixed basis order (edge ids or
grid cells).  Orthogonal projections and averages are exact over Q.  The
minimal-projection LP is built once, as sparse rows in exact rationals:
HiGHS solves it in floats and the achieving operator is then repaired to
an exact rational projection, or the exact simplex solves it over Q.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from . import linalg
from .errors import (GroupClosureOverflow, NotInvariantSubspace, ResourceLimit,
                     SingularGram, SolverFailure, ValidationError)
from .rational import ZERO

GROUP_CAP = 10 ** 6             # elements of a generated group
MAX_LP_NONZEROS = 10 ** 5        # of a minimal-projection LP: D_3's has 35,596, L_3's 284,584


@dataclass
class ProjectionReport:
    operator: list                      # exact rational matrix
    range_basis: list                   # column vectors spanning the range
    norm_l1: Fraction
    norm_linf: Fraction
    is_projection: bool
    invariant_under: list = field(default_factory=list)
    label: str = ""

    def to_json(self) -> dict:
        from .rational import num_to_json
        return {
            "label": self.label,
            "dim": len(self.operator),
            "rank": len(self.range_basis),
            "norm_l1": num_to_json(self.norm_l1),
            "norm_linf": num_to_json(self.norm_linf),
            "is_projection": self.is_projection,
            "invariant_under": list(self.invariant_under),
            "operator": [[num_to_json(x) for x in row] for row in self.operator],
        }


def l1_norm(p) -> Fraction:
    """Operator norm l1 -> l1: maximum column absolute sum."""
    if not p:
        return ZERO
    return max(linalg.column_abs_sums(p))


def linf_norm(p) -> Fraction:
    """Operator norm linf -> linf: maximum row absolute sum."""
    if not p:
        return ZERO
    return max(linalg.row_abs_sums(p))


def orthogonal_projection(basis_cols: list) -> list:
    """P = B (B^T B)^{-1} B^T in exact rationals; basis given as columns.

    The formula is scale-invariant in the inner product, so the same matrix
    is the orthogonal projection for both the counting and the normalized
    (mean) inner products used on dyadic grids.
    """
    if not basis_cols:
        raise SingularGram("empty basis")
    m = len(basis_cols[0])
    b = [[col[i] for col in basis_cols] for i in range(m)]  # m x k
    bt = linalg.transpose(b)
    gram = linalg.mat_mul(bt, b)
    try:
        x = linalg.solve(gram, bt)  # k x m
    except SingularGram:
        raise SingularGram("basis columns are linearly dependent")
    return linalg.mat_mul(b, x)


def orthogonal_index(vectors: list[dict]) -> dict:
    """{coordinate: [(vector index, value)]} over sparse vectors, each a
    map {coordinate: value}, after checking that every vector is nonzero
    and every <w, w'> is 0 (ValidationError otherwise).

    Orthogonality is checked coordinate by coordinate, each adding
    w[t] w'[t] to the pairs of vectors that meet on it, so the check costs
    the pairs of vectors per coordinate rather than all pairs of vectors.
    """
    at: dict = {}
    pairs: dict[tuple[int, int], int] = {}
    for i, w in enumerate(vectors):
        if not w:
            raise ValidationError("cut vectors must be nonzero")
        for t, x in w.items():
            here = at.setdefault(t, [])
            for j, y in here:
                pairs[j, i] = pairs.get((j, i), 0) + x * y
            here.append((i, x))
    if any(pairs.values()):
        raise ValidationError("cut vectors are not pairwise orthogonal")
    return at


def _index_map(g, n: int) -> tuple:
    """The index map s of a permutation matrix g, s[i] = g(i) where g has
    its 1 at (g(i), i); ValidationError unless g is an n x n permutation
    matrix."""
    if len(g) != n or any(len(row) != n for row in g):
        raise ValidationError(f"group element is not {n} x {n}")
    s = [None] * n
    for r, row in enumerate(g):
        for c, x in enumerate(row):
            if x:
                if x != 1 or s[c] is not None:
                    raise ValidationError("group element is not a permutation matrix")
                s[c] = r
    if None in s or len(set(s)) != n:
        raise ValidationError("group element is not a permutation matrix")
    return tuple(s)


def check_invariance(p, g) -> bool:
    """Whether P g = g P exactly, for a permutation matrix g.

    With s the index map of g this reads P[s(i)][s(j)] = P[i][j].  Raises
    ValidationError unless g is a permutation matrix of P's size.
    """
    n = len(p)
    s = _index_map(g, n)
    if any(len(row) != n for row in p):
        raise ValidationError("P is not square")
    return all(p[si][sj] == x for row, si in zip(p, s) for x, sj in zip(row, s))


def permutation_matrix(perm: list[int]) -> list:
    """Matrix of the isometry f -> f o g^{-1} for an index bijection g.

    perm[i] = g(i); the matrix has a 1 at (g(i), i).
    """
    n = len(perm)
    m = linalg.zeros(n, n)
    for i, gi in enumerate(perm):
        m[gi][i] = Fraction(1)
    return m


def generate_group(generators: list) -> list:
    """Closure of a set of permutation matrices under multiplication.

    The closure runs breadth first on index maps (the product a g has the
    map i -> a(g(i))), starting from the identity and multiplying each new
    element by every generator on the right; the elements are returned as
    permutation matrices in that order.  Raises ValidationError for an
    empty set or a generator that is not a permutation matrix of the first
    one's size, and GroupClosureOverflow past GROUP_CAP elements.
    """
    if not generators:
        raise ValidationError("generate_group needs at least one generator")
    n = len(generators[0])
    gens = [_index_map(g, n) for g in generators]
    ident = tuple(range(n))
    seen = {ident: None}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                prod = tuple(a[gi] for gi in g)
                if prod not in seen:
                    if len(seen) >= GROUP_CAP:
                        raise GroupClosureOverflow(f"group closure exceeds cap {GROUP_CAP}")
                    seen[prod] = None
                    nxt.append(prod)
        frontier = nxt
    return [permutation_matrix(s) for s in seen]


def average_projection(p: list, group_elements: list) -> list:
    """Grunbaum-Rudin average (1/|G|) sum g^{-1} P g over permutation
    matrices g.

    With s the index map of g, (g^{-1} P g)[i][j] = P[s(i)][s(j)], so the
    average is a sum of re-indexed copies of P, taken in integers over P's
    common denominator.  P must be a projection (it fixes the echelon basis
    of its range, read from one rref of P^T; ValidationError otherwise)
    and each element must map range(P) onto itself (NotInvariantSubspace
    otherwise: each permuted basis vector must equal the combination of
    the basis that its pivot coordinates prescribe).  Elements that are
    not permutation matrices of P's size raise ValidationError.  The
    caller must pass a full group; then the average is a projection onto
    the same range, has no larger l1 norm, and commutes with every
    element.
    """
    if not group_elements:
        raise ValidationError("average_projection needs at least one group element")
    n = len(p)
    if any(len(row) != n for row in p):
        raise ValidationError("P is not square")
    maps = [_index_map(g, n) for g in group_elements]
    echelon, pivots = linalg.rref(linalg.transpose(p))
    basis = echelon[:len(pivots)]
    if any(linalg.mat_vec(p, v) != v for v in basis):
        raise ValidationError("P is not a projection")
    for s in maps:
        for v in basis:
            w = [ZERO] * n
            for i, x in enumerate(v):
                w[s[i]] = x
            combo = [ZERO] * n
            for q, r in zip(pivots, basis):
                c = w[q]
                if c:
                    combo = [a + c * x if x else a for a, x in zip(combo, r)]
            if combo != w:
                raise NotInvariantSubspace("a group element moves the range of P")
    den = math.lcm(*(x.denominator for row in p for x in row))
    scaled = [[x.numerator * (den // x.denominator) for x in row] for row in p]
    acc = [[0] * n for _ in range(n)]
    for s in maps:
        for acc_row, si in zip(acc, s):
            src = scaled[si]
            acc_row[:] = [a + src[sj] for a, sj in zip(acc_row, s)]
    count = den * len(maps)
    return [[Fraction(x, count) for x in row] for row in acc]


def cycle_projection_certificate(graph, p) -> tuple[bool, bool]:
    """(P z = z for every fundamental cycle z of graph, every column of P
    has zero boundary), for P on graph's edge coordinates.

    Together the two prove that P is a projection onto the cycle space Z:
    range P lies in Z and P fixes a basis of Z, so P fixes range P, that is
    P^2 = P and range P = Z.  Both run over the cycles' supports and P's
    columns, with no matrix product.  ValidationError unless P is square on
    the edges.
    """
    from .cyclespace import EdgeVector, boundary, fundamental_cycle_basis

    if len(p) != len(graph.edges) or any(len(row) != len(p) for row in p):
        raise ValidationError("P is not square on the graph's edges")
    order = graph.edge_order
    fixes = all(sum((row[order[e]] * v for e, v in z.coeffs.items()), start=ZERO) == target
                for z in fundamental_cycle_basis(graph).vectors
                for row, target in zip(p, z.dense()))
    in_z = all(boundary(EdgeVector(graph, {e.id: row[j] for e, row in zip(graph.edges, p)}))
               .is_zero() for j in range(len(p)))
    return fixes, in_z


# ---------------------------------------------------------------------------
# Minimal projections
# ---------------------------------------------------------------------------

def _min_proj_rows(bcols: list):
    """The minimal-projection LP  min t  s.t.  A B = I,  |(B A)_ij| <= s_ij,
    sum_i s_ij <= t,  as sparse rows in exact rationals.

    Variables: A (k x m, free) at l m + j, s (m x m, >= 0) at k m + i m + j,
    and t (>= 0) last.  Returns (eq, rhs, entry, colsum), each row a list of
    (variable, coefficient) pairs in increasing variable order: the k^2
    rows of A B = I with their right-hand sides, the 2m^2 rows
    +-(B A)_ij - s_ij <= 0 in (i, j, +/-) order, and the m rows
    sum_i s_ij - t <= 0.  With N = nnz(B) the LP has
    kN + 2m(N + m) + m(m + 1) nonzeros; ResourceLimit is raised before any
    row is built when that exceeds MAX_LP_NONZEROS.
    """
    m = len(bcols[0])
    k = len(bcols)
    nnz = sum(1 for col in bcols for x in col if x)
    size = k * nnz + 2 * m * (nnz + m) + m * (m + 1)
    if size > MAX_LP_NONZEROS:
        raise ResourceLimit(f"minimal projection LP for m = {m}, k = {k} has "
                            f"{size:,} nonzeros (cap {MAX_LP_NONZEROS:,})")
    na = k * m
    col_nz = [[(j, Fraction(x)) for j, x in enumerate(col) if x] for col in bcols]
    row_nz = [[(l, Fraction(col[i])) for l, col in enumerate(bcols) if col[i]]
              for i in range(m)]
    eq, rhs = [], []
    for l in range(k):
        for lp, nz in enumerate(col_nz):
            eq.append([(l * m + j, x) for j, x in nz])
            rhs.append(Fraction(int(l == lp)))
    entry = []
    for i, nz in enumerate(row_nz):
        for j in range(m):
            s_ij = (na + i * m + j, Fraction(-1))
            entry.append([(l * m + j, x) for l, x in nz] + [s_ij])
            entry.append([(l * m + j, -x) for l, x in nz] + [s_ij])
    t = na + m * m
    colsum = [[(na + i * m + j, Fraction(1)) for i in range(m)] + [(t, Fraction(-1))]
              for j in range(m)]
    return eq, rhs, entry, colsum


def _csr(rows: list, n: int):
    """A scipy CSR matrix of float64 entries from sparse rows over n columns."""
    return csr_matrix(([float(x) for row in rows for _, x in row],
                       [v for row in rows for v, _ in row],
                       [0, *itertools.accumulate(len(row) for row in rows)]),
                      shape=(len(rows), n))


def _rationalize_projection(bcols: list, a_float: list) -> list:
    """Repair a float left inverse A to an exact one and return P = B A.

    Round A entrywise, then subtract (A B - I) (B^T B)^{-1} B^T, which
    restores A B = I exactly without moving A far.
    """
    m = len(bcols[0])
    k = len(bcols)
    b = [[col[i] for col in bcols] for i in range(m)]
    a_rat = [[Fraction(x).limit_denominator(10 ** 9) for x in row] for row in a_float]
    err = linalg.mat_sub(linalg.mat_mul(a_rat, b), linalg.identity(k))
    bt = linalg.transpose(b)
    gram_inv_bt = linalg.solve(linalg.mat_mul(bt, b), bt)
    a_fixed = linalg.mat_sub(a_rat, linalg.mat_mul(err, gram_inv_bt))
    if not linalg.mat_eq(linalg.mat_mul(a_fixed, b), linalg.identity(k)):
        raise SolverFailure("the repaired left inverse A does not satisfy A B = I exactly")
    return linalg.mat_mul(b, a_fixed)


def minimal_projection_lp(basis_cols: list, ambient_dim: int, mode: str = "float"):
    """Relative projection constant of span(basis) in l1^m and an optimal P.

    Both modes solve the LP of _min_proj_rows.  mode='float' hands its rows
    to HiGHS as sparse matrices, repairs the achieving operator to an exact
    rational projection P and checks that ||P||_1 is within 1e-6 of the
    float optimum lambda.  mode='exact' solves the same rows, in standard
    form, with the exact simplex: lambda is a Fraction and ||P||_1 = lambda.
    That form is dense, (k^2 + m + 2m^2) rows by (2km + m^2 + 1 + m + 2m^2)
    columns, and every cell is stored, so ResourceLimit is raised before
    any dense row is built when its cells exceed MAX_LP_NONZEROS.
    Returns (lambda, P).
    """
    if not basis_cols or len(basis_cols[0]) != ambient_dim:
        raise ValidationError("basis does not match the ambient dimension")
    m = ambient_dim
    k = len(basis_cols)
    na = k * m
    nv = na + m * m + 1
    eq, rhs, entry, colsum = _min_proj_rows(basis_cols)
    if mode == "exact":
        from .simplex import solve_standard_exact

        # A = A+ - A-; columns A+, A-, s, t, then one slack per inequality row
        ineq = colsum + entry
        ncols = na + nv + len(ineq)
        cells = (len(eq) + len(ineq)) * ncols
        if cells > MAX_LP_NONZEROS:
            raise ResourceLimit(f"exact minimal projection LP for m = {m}, k = {k} has "
                                f"{cells:,} dense cells (cap {MAX_LP_NONZEROS:,})")
        rows = []
        for r, row in enumerate(eq + ineq):
            dense = [ZERO] * ncols
            for v, x in row:
                if v < na:
                    dense[v], dense[na + v] = x, -x
                else:
                    dense[na + v] = x
            if r >= len(eq):
                dense[na + nv + r - len(eq)] = Fraction(1)
            rows.append(dense)
        cost = [ZERO] * len(rows[0])
        cost[na + nv - 1] = Fraction(1)
        lam, x = solve_standard_exact(rows, rhs + [ZERO] * len(ineq), cost)
        a = [[x[l * m + j] - x[na + l * m + j] for j in range(m)] for l in range(k)]
        b = [[col[i] for col in basis_cols] for i in range(m)]
        return lam, linalg.mat_mul(b, a)
    ub = entry + colsum
    res = linprog([0.0] * (nv - 1) + [1.0], A_ub=_csr(ub, nv), b_ub=[0.0] * len(ub),
                  A_eq=_csr(eq, nv), b_eq=[float(x) for x in rhs],
                  bounds=[(None, None)] * na + [(0, None)] * (nv - na), method="highs")
    if not res.success:
        raise SolverFailure(f"minimal projection LP failed: {res.message}")
    lam = float(res.fun)
    p = _rationalize_projection(basis_cols, [[res.x[l * m + j] for j in range(m)]
                                            for l in range(k)])
    if abs(float(l1_norm(p)) - lam) > 1e-6:
        raise SolverFailure("rationalized projection norm drifted from the LP optimum")
    return lam, p


# ---------------------------------------------------------------------------
# Banach-Mazur bound assembly
# ---------------------------------------------------------------------------

def bm_upper_via_basis_map(graph, cut_vectors: list, generators: list):
    """(||T|| ||T^{-1}||, ||T||, ||T^{-1}||) for the coset basis map on
    l1(E)/Z(graph).

    cut_vectors are EdgeVectors on graph.  They must be nonzero, pairwise
    orthogonal and gradients (w_e = psi(head) - psi(tail) for a vertex
    potential psi, which is what being orthogonal to Z means; one walk down
    the BFS tree per vector finds psi), so that together they span a
    complement of Z.  Each w_i is normalized by its quotient norm
    q_i = quotient_norm(w_i), and T sends the coset of w_i / q_i to the
    i-th unit vector of l1.  Every basis coset then has quotient norm 1,
    so ||T^{-1}|| = 1.  The quotient map sends the l1 unit ball onto the
    quotient unit ball, so ||T|| is the max over edges e of
    ||T e_e||_1 = sum_i |w_i[e]| q_i / <w_i, w_i>, read off the vectors.
    The values do not change when all vectors are rescaled together, so
    grid cells may carry the counting or the mean norm alike.

    generators are edge bijections (edge id -> image id), such as the
    cycle-preserving bijections of recursive.invariance_generators; they
    need not be graph automorphisms.  A bijection sigma with
    sigma(Z) = Z is an l1 isometry that maps Z onto itself, so it keeps
    quotient norms, <w, w> and orthogonality to Z.  When sigma w = +-w'
    for two cut vectors, exactly and not only up to a factor, w and w'
    join one orbit (union-find), and the quotient norm and the gradient
    check run once per orbit.  Every generator must be a bijection of the
    edge ids that maps each cut vector to +- a cut vector and every
    fundamental cycle to a zero-boundary vector; ValidationError otherwise.
    """
    from .cyclespace import _spanning_tree, fundamental_cycle_basis, quotient_norm

    # Each vector as (d, integers over d) with d the lcm of its denominators:
    # a bijection keeps d, so sigma w = +-w' exactly when the pairs agree.
    keyed = []
    for w in cut_vectors:
        if w.graph is not graph and w.graph != graph:
            raise ValidationError("cut vector lives on a different graph")
        den = math.lcm(*(v.denominator for v in w.coeffs.values()))
        keyed.append((den, {e: v.numerator * (den // v.denominator) for e, v in w.coeffs.items()}))
    cuts_at = orthogonal_index([w for _, w in keyed])   # nonzero, pairwise orthogonal

    index = {}                          # the cut vectors and their negatives
    for i, (den, w) in enumerate(keyed):
        index[den, frozenset(w.items())] = i
        index[den, frozenset((e, -v) for e, v in w.items())] = i
    root = list(range(len(cut_vectors)))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    # sigma fixes every cycle and cut vector that meets no edge it moves,
    # so only those that do are mapped and checked.
    edge_ids = set(graph.edge_by_id)
    cycles = [{e: int(v) for e, v in z.coeffs.items()}     # signed indicators
              for z in fundamental_cycle_basis(graph).vectors]
    cycles_at: dict[str, list[int]] = {}
    for c, z in enumerate(cycles):
        for e in z:
            cycles_at.setdefault(e, []).append(c)
    for sigma in generators:
        if set(sigma) != edge_ids or set(sigma.values()) != edge_ids:
            raise ValidationError("generator is not a bijection of the graph's edge ids")
        moved = [e for e, f in sigma.items() if e != f]
        for i in {i for e in moved for i, _ in cuts_at.get(e, ())}:
            den, w = keyed[i]
            j = index.get((den, frozenset((sigma[e], v) for e, v in w.items())))
            if j is None:
                raise ValidationError("generator maps a cut vector to no cut vector up to sign")
            a, b = find(i), find(j)
            root[max(a, b)] = min(a, b)
        for c in {c for e in moved for c in cycles_at.get(e, ())}:
            net: dict[str, int] = {}
            for e, v in cycles[c].items():
                f = graph.edge_by_id[sigma[e]]
                net[f.head] = net.get(f.head, 0) + v
                net[f.tail] = net.get(f.tail, 0) - v
            if any(net.values()):
                raise ValidationError("generator does not map the cycle space onto itself")

    parent_edge = _spanning_tree(graph)[1]
    tree = {e.id for e in parent_edge.values()}
    chords = [e for e in graph.edges if e.id not in tree]

    def is_gradient(w):
        psi = {graph.bottom: ZERO}
        for v, e in parent_edge.items():   # BFS order: parents come first
            psi[v] = psi[e.tail] + w.get(e.id) if e.head == v else psi[e.head] - w.get(e.id)
        return all(w.get(e.id) == psi[e.head] - psi[e.tail] for e in chords)

    q = {}                              # orbit root -> quotient norm of the root
    sums = {}
    for i, w in enumerate(cut_vectors):
        r = find(i)
        if r not in q:
            if not is_gradient(cut_vectors[r]):
                raise ValidationError("T does not vanish on the cycle space")
            q[r] = quotient_norm(cut_vectors[r])
        scale = q[r] / sum((v * v for v in w.coeffs.values()), start=ZERO)
        for e, v in w.coeffs.items():
            sums[e] = sums.get(e, ZERO) + abs(v) * scale
    t_norm = max(sums.values(), default=ZERO)
    return t_norm, t_norm, Fraction(1)
