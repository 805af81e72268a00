"""Operator norms on l1/linf, orthogonal and minimal projections onto
subspaces of the edge space, group closure and averaging on permutation
matrices (read into freelip.symmetry's index maps), and Banach-Mazur
bound assembly.

Matrices act on coordinates indexed by a fixed basis order (edge ids or
grid cells).  The exact projection algebra runs on integer matrices over
one denominator, with linalg's kernel: a rational matrix is read as
integer rows N over the lcm d of its denominators, linear systems go
through its fraction-free eliminations (dense Gauss-Jordan, or a sparse
echelon form), and Fractions are made only for a returned matrix, one per
distinct numerator.  The
minimal-projection LP is posed on merged coordinates, one per class of
proportional nonzero rows of the basis, which keeps the projection
constant; it is built in split form as sparse matrices and solved by
HiGHS in floats, and the vertex it returns is then certified over Q, by
an exact solve of its active primal system and of the complementary
dual, so the projection constant it reports is exact and proven optimal.
The projection is lifted back to the full coordinates and checked there.
When the classes are as many as the basis vectors, the subspace is all of
the class-constant vectors and needs no LP.  numpy and scipy are imported
only inside the LP, so every other path runs on the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import add, sub

from . import cyclespace, linalg, symmetry
from .errors import ResourceLimit, SolverFailure, ValidationError
from .linalg import RHS
from .rational import ZERO, num_to_json

MAX_LP_NONZEROS = 10 ** 5        # of a merged minimal-projection LP: L_3's 40,049, D_4's 150,438


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
    return max((sum(map(abs, col), start=ZERO) for col in zip(*p)), default=ZERO)


def linf_norm(p) -> Fraction:
    """Operator norm linf -> linf: maximum row absolute sum."""
    return max((sum(map(abs, row), start=ZERO) for row in p), default=ZERO)


# ---------------------------------------------------------------------------
# Integer matrices over one denominator
# ---------------------------------------------------------------------------

def _integer_basis(basis_cols: list) -> list:
    """B as m rows of k integers: each basis column scaled by the lcm of its
    denominators, which changes neither its span nor the projections onto it.
    ValidationError unless the columns are nonempty and of one length."""
    if len({len(col) for col in basis_cols}) > 1:
        raise ValidationError("basis columns have different lengths")
    if not basis_cols[0]:
        raise ValidationError("basis columns are empty")
    cols = [linalg.integer_rows([col])[0][0] for col in basis_cols]
    return [list(row) for row in zip(*cols)]


def orthogonal_rows(basis_cols: list) -> tuple:
    """The orthogonal projection P = B (B^T B)^{-1} B^T onto the span of the
    basis columns, as (N, d) with P = N / d, N integer rows and
    gcd(d, N) = 1.

    With B read as m integer rows (_integer_basis), one fraction-free
    Gauss-Jordan elimination of [B^T B | B^T] gives
    det(B^T B) (B^T B)^{-1} B^T, and B times that, divided by the gcd of
    its entries and the determinant, is N over d.  The formula is
    scale-invariant in the inner product, so the same matrix is the
    orthogonal projection for both the counting and the normalized (mean)
    inner products used on dyadic grids.  Raises ValidationError for an
    empty or dependent basis and for columns of different lengths.
    """
    if not basis_cols:
        raise ValidationError("empty basis")
    b = _integer_basis(basis_cols)
    m, k = len(b), len(b[0])
    nz = [[(l, c) for l, c in enumerate(row) if c] for row in b]
    gram = [[0] * k for _ in range(k)]
    for row in nz:
        for l, c in row:
            g = gram[l]
            for lp, cp in row:
                g[lp] += c * cp
    aug = [g + [row[l] for row in b] for l, g in enumerate(gram)]
    x, pivots, det = linalg.gauss_jordan(aug, k)
    if pivots != list(range(k)):
        raise ValidationError("basis columns are linearly dependent")
    x = [row[k:] for row in x]
    num = []
    for row in nz:
        acc = [0] * m
        for l, c in row:
            acc = [a + c * y for a, y in zip(acc, x[l])]
        num.append(acc)
    g = math.gcd(det, *chain.from_iterable(num))
    return [[v // g for v in row] for row in num], det // g


def orthogonal_projection(basis_cols: list) -> list:
    """orthogonal_rows as an exact rational matrix."""
    return linalg.fractions(*orthogonal_rows(basis_cols))


def orthogonal_index(vectors: list[dict]) -> dict:
    """{coordinate: [(vector index, value)]} over sparse vectors, each a
    map {coordinate: value}, after checking that every vector is nonzero
    and every <w, w'> is 0 (ValidationError otherwise).

    Orthogonality is checked coordinate by coordinate, each adding
    w[t] w'[t] to the pairs of vectors that meet on it, so the check costs
    the pairs of vectors per coordinate rather than all pairs of vectors.
    Each vector's dot products with the earlier ones are summed in a map of
    its own, checked and dropped before the next vector.
    """
    if not all(vectors):
        raise ValidationError("cut vectors must be nonzero")
    at: dict = {}
    for i, w in enumerate(vectors):
        dots: dict[int, int] = {}       # j -> <w_j, w_i> so far, j < i
        for t, x in w.items():
            here = at.setdefault(t, [])
            for j, y in here:
                dots[j] = dots.get(j, 0) + x * y
            here.append((i, x))
        if any(dots.values()):
            raise ValidationError("cut vectors are not pairwise orthogonal")
    return at


def _index_map(g, n: int) -> tuple:
    """The index map s of a permutation matrix g, s[i] = g(i) where g has
    its 1 at (g(i), i); ValidationError unless g is an n x n permutation
    matrix.  Each row is searched for its 1 and counted for its zeros by
    list methods, which compare integer entries without a Python call."""
    if len(g) != n or any(len(row) != n for row in g):
        raise ValidationError(f"group element is not {n} x {n}")
    s = [None] * n
    for r, row in enumerate(g):
        try:
            c = row.index(1)
        except ValueError:
            raise ValidationError("group element is not a permutation matrix") from None
        if row.count(0) != n - 1 or s[c] is not None:
            raise ValidationError("group element is not a permutation matrix")
        s[c] = r
    return tuple(s)


def permutation_matrix(perm: list[int]) -> list:
    """Matrix of the isometry f -> f o g^{-1} for an index bijection g, with
    integer entries 0 and 1.

    perm[i] = g(i); the matrix has a 1 at (g(i), i).
    """
    n = len(perm)
    m = [[0] * n for _ in range(n)]
    for i, gi in enumerate(perm):
        m[gi][i] = 1
    return m


def generate_group(generators: list) -> list:
    """symmetry.closure of permutation matrices, returned as matrices in its
    order; ValidationError for an empty set or a generator that is not a
    permutation matrix of the first one's size."""
    if not generators:
        raise ValidationError("generate_group needs at least one generator")
    n = len(generators[0])
    return [permutation_matrix(s) for s in symmetry.closure([_index_map(g, n) for g in generators])]


def average_projection(p: list, group_elements: list) -> list:
    """symmetry.average of P over the permutation matrices of a full group,
    as a Fraction matrix; ValidationError for no elements, a P that is not
    square, or an element that is not a permutation matrix of P's size."""
    if not group_elements:
        raise ValidationError("average_projection needs at least one group element")
    maps = [_index_map(g, len(p)) for g in group_elements]
    return linalg.fractions(*symmetry.average(*linalg.integer_rows(p), maps))


def cycle_projection_certificate(graph, num: list, den: int) -> tuple[bool, bool]:
    """(P z = z for every fundamental cycle z of graph, every column of P
    has zero boundary), for P = num / den on graph's edge coordinates,
    given as integer rows over one denominator (linalg.integer_rows).

    Together the two prove that P is a projection onto the cycle space Z:
    range P lies in Z and P fixes a basis of Z, so P fixes range P, that is
    P^2 = P and range P = Z.  N z = den z is checked on each cycle scaled to
    integers, over its support, and the boundary of every column is summed
    row by row into one integer vector per vertex, with no matrix product.
    ValidationError unless P is square on the edges.
    """
    if len(num) != len(graph.edges) or any(len(row) != len(num) for row in num):
        raise ValidationError("P is not square on the graph's edges")
    order = graph.edge_order
    cols = list(zip(*num))
    fixes = True
    for z in cyclespace.fundamental_cycle_basis(graph).vectors:
        zd = math.lcm(*(v.denominator for v in z.coeffs.values()))
        zi = {order[e]: v.numerator * (zd // v.denominator) for e, v in z.coeffs.items()}
        image = [0] * len(num)
        for j, c in zi.items():
            image = [a + c * x for a, x in zip(image, cols[j])]
        if any(image[j] != den * zi.get(j, 0) for j in range(len(num))):
            fixes = False
            break
    net = {v: [0] * len(num) for v in graph.vertices}
    for e, row in zip(graph.edges, num):
        net[e.head] = list(map(add, net[e.head], row))
        net[e.tail] = list(map(sub, net[e.tail], row))
    return fixes, not any(chain.from_iterable(net.values()))


# ---------------------------------------------------------------------------
# Minimal projections
# ---------------------------------------------------------------------------

_PATTERN_TOL = 1e-7  # a float value, or a float gap to a bound, below it reads as zero


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on each call, so that only a process
    that solves a minimal-projection LP loads numpy and scipy."""
    from scipy.optimize import linprog as highs

    return highs(*args, **kwargs)


def _min_proj_rows(b: list):
    """The minimal-projection LP in split form,  min t  s.t.  A B = I,
    (B A)_ij - P+_ij + P-_ij = 0,  sum_i (P+_ij + P-_ij) <= t,  for B given
    as m integer rows (minimal_projection_lp passes the merged rows B'), as
    scipy CSR matrices (A_ub, A_eq).

    Variables: A (k x m, free) at l m + j, P+ and P- (m x m, >= 0) at
    k m + i m + j and k m + m^2 + i m + j, and t (>= 0) last.  A_eq has the
    k^2 rows (A B)_ll' = [l = l'] in (l, l') order and then the m^2 entry
    rows in (i, j) order; A_ub has the m column-sum rows.  Every feasible
    point has t >= ||B A||_1, and P = B A with A B = I is feasible with
    P+ = max(P, 0), P- = max(-P, 0) and t = ||P||_1, so the optimum is
    lambda; the LP has m^2 + k^2 + m rows where bounding |B A| entrywise by
    slacks takes 2m^2 + k^2 + m.  With
    N = nnz(B) it has kN + mN + 4m^2 + m nonzeros; ResourceLimit is raised
    before any matrix is built when that exceeds MAX_LP_NONZEROS.
    """
    m, k = len(b), len(b[0])
    size = (k + m) * sum(map(bool, chain.from_iterable(b))) + 4 * m * m + m
    if size > MAX_LP_NONZEROS:
        raise ResourceLimit(f"minimal projection LP on m = {m} merged coordinates, k = {k} has "
                            f"{size:,} nonzeros (cap {MAX_LP_NONZEROS:,})")
    import numpy as np
    from scipy.sparse import csr_matrix

    bm = np.array(b, dtype=float)
    bi, bl = np.nonzero(bm)
    bv = bm[bi, bl]
    na, mm, kk, j = k * m, m * m, k * k, np.arange(m)
    q = np.arange(mm)                       # the entry (i, j) at i m + j
    l = np.repeat(np.arange(k), len(bi))
    ones = np.ones(mm)
    a_eq = csr_matrix((np.concatenate([np.tile(bv, k), np.repeat(bv, m), -ones, ones]),
                       (np.concatenate([l * k + np.tile(bl, k), kk + (bi[:, None] * m + j).ravel(),
                                        kk + q, kk + q]),
                        np.concatenate([l * m + np.tile(bi, k), (bl[:, None] * m + j).ravel(),
                                        na + q, na + mm + q]))),
                      shape=(kk + mm, na + 2 * mm + 1))
    a_ub = csr_matrix((np.concatenate([ones, ones, -np.ones(m)]),
                       (np.concatenate([q % m, q % m, j]),
                        np.concatenate([na + q, na + mm + q, np.full(m, na + 2 * mm)]))),
                      shape=(m, na + 2 * mm + 1))
    return a_ub, a_eq


def _rational(x: float) -> Fraction:
    """A float read as the nearby rational of denominator at most 10^6."""
    r = round(x)
    return Fraction(r) if abs(x - r) <= 1e-12 else Fraction(x).limit_denominator(10 ** 6)


def _solve_rows(rows: list, guess) -> tuple:
    """An exact solution of rows, each a map {variable: integer coefficient}
    with its right-hand side under RHS, over the variables
    0 .. len(guess) - 1, as (N, D): variable v takes N[v] / D, with N a list
    of integers and D > 0.

    Forward elimination is linalg.echelon.  A variable that no pivot fixes
    takes guess[v] (a float), rationalized; back substitution then runs on
    integers over one denominator, which grows only when a value needs it.
    SolverFailure if the rows are inconsistent.
    """
    pivots, rest = linalg.echelon(rows)
    if any(rest):
        raise SolverFailure("the active constraints of the LP vertex are inconsistent")
    made = {v for v, _ in pivots}
    fixed = {v: _rational(g) for v, g in enumerate(guess) if v not in made}
    den = math.lcm(*(f.denominator for f in fixed.values()))
    num = [0] * len(guess)
    for v, f in fixed.items():
        num[v] = f.numerator * (den // f.denominator)
    for v, r in reversed(pivots):
        c = r.get(RHS, 0) * den - sum(y * num[x] for x, y in r.items() if x != v and x != RHS)
        grow = abs(r[v]) // math.gcd(c, r[v])
        if grow > 1:
            den, c = den * grow, c * grow
            num = [x * grow for x in num]
        num[v] = c // r[v]
    return num, den


def _min_proj_primal(b: list, x) -> tuple:
    """The exact vertex of the minimal-projection LP on which HiGHS's
    solution x lies, as (N, d, T): A = N / d for an integer k x m matrix N,
    and t = T / d.

    x gives the pattern of P = B A: its zero entries, the signs sigma_ij of
    the others, and the set J of columns whose l1 norm reaches t.  The
    active system  A B = I,  P_ij = 0 on the zeros,  sum_i sigma_ij P_ij = t
    for j in J  is then solved exactly over (A, t); unknowns it leaves free
    take their values in x.
    """
    import numpy as np

    m, k = len(b), len(b[0])
    na = k * m
    p_f = np.asarray(b, dtype=float) @ np.asarray(x[:na]).reshape(k, m)
    sign = np.where(np.abs(p_f) <= _PATTERN_TOL, 0, np.sign(p_f)).astype(int).T.tolist()
    at_t = (np.abs(p_f).sum(axis=0) >= x[-1] - _PATTERN_TOL).tolist()
    rows_b = [[(l, c) for l, c in enumerate(row) if c] for row in b]
    rows = []
    for j, (sign_j, at_t_j) in enumerate(zip(sign, at_t)):      # sign_j[i] of P_ij
        rows += [{l * m + j: c for l, c in row} for row, si in zip(rows_b, sign_j) if row and not si]
        if at_t_j:
            coef = {}
            for row, si in zip(rows_b, sign_j):
                for l, c in row if si else ():
                    coef[l * m + j] = coef.get(l * m + j, 0) + si * c
            rows.append({**{v: c for v, c in coef.items() if c}, na: -1})
    for l in range(k):
        for lp in range(k):
            row = {l * m + j: b[j][lp] for j in range(m) if b[j][lp]}
            rows.append({**row, RHS: 1} if l == lp else row)
    num, d = _solve_rows(rows, [*x[:na], x[-1]])
    return [num[l * m:(l + 1) * m] for l in range(k)], d, num[na]


def _min_proj_dual(b: list, pn: list, d: int, marg_eq, marg_ub) -> tuple:
    """A dual certificate (Y, mu, w, D) that no projection onto span B has a
    smaller l1 norm than P = B A, where pn = B N with A = N / d, so that
    lam = ||P||_1 = max_j sum_i |pn_ij| / d.

    Y (k x k), mu (one entry per column) and w (m x m, its column w_j on
    column j of P) are integers over the common denominator D.  They
    satisfy B^T w_j = Y^T b_j for every row b_j of B, |w_ij| <= mu_j,
    mu >= 0, sum mu = D and tr Y = lam D.  For any projection P' = B A'
    onto span B (so A' B = I), dividing by D,
        tr Y = tr (Y A' B) = sum_j <Y^T b_j, A' e_j> = sum_j <w_j, P' e_j>
             <= sum_j mu_j ||P' e_j||_1 <= ||P'||_1,
    so lam is the minimum.  Complementary slackness fixes the support:
    mu_j = 0 and w_j = 0 unless ||P e_j||_1 = lam, and w_ij = sign(P_ij) mu_j
    wherever P_ij != 0.  The remaining unknowns (Y, mu_j and w_ij on the
    zeros of P) are solved for exactly, from those equations and from the
    inequalities mu_j >= 0 and |w_ij| <= mu_j that HiGHS's dual values
    meet with equality, taken as equations; unknowns still free take
    HiGHS's dual values: Y from marg_eq on the rows A B = I, w_ij from
    -marg_eq on the entry rows of P_ij and mu_j from -marg_ub on the
    column-sum rows.  SolverFailure unless every
    condition above holds exactly.
    """
    m, k = len(b), len(b[0])
    norms = [sum(abs(row[j]) for row in pn) for j in range(m)]
    top = max(norms)
    cols_b = [[(i, row[l]) for i, row in enumerate(b) if row[l]] for l in range(k)]
    guess = [marg_eq[lp * k + l] for l in range(k) for lp in range(k)]   # Y_ll' at l k + l'
    mu, w = {}, {}                  # column j -> index of mu_j; (i, j) -> index of w_ij
    for j in range(m):
        if norms[j] == top:
            mu[j] = len(guess)
            guess.append(-marg_ub[j])
            for i, row in enumerate(b):
                if not pn[i][j] and any(row):
                    w[i, j] = len(guess)
                    guess.append(-marg_eq[k * k + i * m + j])
    # The dual inequalities tight at HiGHS's vertex come first: they are
    # short, and eliminating them first keeps the longer rows short.
    rows = [{v: 1} for v in mu.values() if guess[v] <= _PATTERN_TOL]
    rows += [{v: 1, mu[j]: -1 if guess[v] >= 0 else 1} for (i, j), v in w.items()
             if abs(guess[v]) >= guess[mu[j]] - _PATTERN_TOL]
    rows.append({**{v: 1 for v in mu.values()}, RHS: 1})
    for j in range(m):
        for l in range(k):
            row = {lp * k + l: -c for lp, c in enumerate(b[j]) if c}
            if j in mu:
                c = sum(c if pn[i][j] > 0 else -c for i, c in cols_b[l] if pn[i][j])
                if c:
                    row[mu[j]] = c
                row.update((w[i, j], c) for i, c in cols_b[l] if (i, j) in w)
            if row:
                rows.append(row)
    num, den = _solve_rows(rows, guess)
    y = [num[l * k:(l + 1) * k] for l in range(k)]
    mus = [num[mu[j]] if j in mu else 0 for j in range(m)]
    ww = [[0] * m for _ in range(m)]
    for j in mu:
        for i in range(m):
            ww[i][j] = num[w[i, j]] if (i, j) in w else ((pn[i][j] > 0) - (pn[i][j] < 0)) * mus[j]
    if not (min(mus) >= 0 and sum(mus) == den
            and sum(y[l][l] for l in range(k)) * d == top * den
            and all(abs(ww[i][j]) <= mus[j] for i, j in w)
            and all(sum(c * ww[i][j] for i, c in cols_b[l])
                    == sum(c * y[lp][l] for lp, c in enumerate(b[j]) if c)
                    for j in range(m) for l in range(k))):
        raise SolverFailure("the dual of the minimal projection LP does not certify lambda")
    return y, mus, ww, den


def _merge_rows(b: list) -> tuple:
    """The rows of B merged by proportionality, as (B', cls, s, w).

    Each nonzero integer row b_i is s_i r_c, with r_c its class's row
    divided by the gcd of its entries and signed so that its first nonzero
    entry is positive; classes are numbered in order of first appearance.
    B' has the row w_c r_c for class c, with w_c = sum of |s_i| over the
    class; cls[i] = c and s[i] = s_i, or None and 0 for a zero row, and
    w[c] = w_c.
    """
    index: dict = {}                # r_c -> c
    weight = []
    cls, s = [], []
    for row in b:
        g = math.gcd(*row)
        if not g:
            cls.append(None)
            s.append(0)
            continue
        if next(x for x in row if x) < 0:
            g = -g
        c = index.setdefault(tuple(x // g for x in row), len(index))
        if c == len(weight):
            weight.append(0)
        weight[c] += abs(g)
        cls.append(c)
        s.append(g)
    return [[w * x for x in r] for r, w in zip(index, weight)], cls, s, weight


def minimal_projection_lp(basis_cols: list, ambient_dim: int, mode: str = "float"):
    """Relative projection constant lambda of Z = span(basis) in l1^m,
    with a projection P onto Z of l1 norm lambda, both exact.

    The LP runs on merged coordinates.  With the rows of B merged by
    _merge_rows (b_i = s_i r_c, B' with rows w_c r_c, m' classes), let
    J : l1^m' -> l1^m send y to J(y)_i = s_i y_c / w_c (0 on zero rows)
    and E : l1^m -> l1^m' send x to E(x)_c = sum over i in c of
    sign(s_i) x_i.  J is an isometry, ||E|| <= 1, E J = I and B = J B',
    so Z = J(Z') for Z' = span B'.  For a projection P onto Z, E P J is a
    projection onto Z' of norm at most ||P||; for a projection P' onto Z',
    J P' E is a projection onto Z of norm at most ||P'||.  So
    lambda(Z) = lambda(Z'), and P' = B' A' lifts to P = B A with A = A' E,
    that is A_lj = sign(s_j) A'_l,c(j), 0 on zero rows.

    When m' = k and B' has rank k (exactly checked), Z' is all of l1^m'
    (every 1-dimensional Z is such), so lambda = 1 and P = J E with no LP.
    Otherwise HiGHS solves the LP of _min_proj_rows on B', and the vertex
    it returns is certified in exact arithmetic, as in Applegate, Cook,
    Dash and Espinoza, "Exact solutions to linear programming problems"
    (2007): _min_proj_primal solves the vertex's active system over Q, and
    _min_proj_dual solves the complementary dual over Q and checks that it
    proves no projection onto Z' has a smaller norm.  The lifted A B = I
    and ||B A||_1 = t are checked exactly on the full B.  A vertex that
    fails any check raises SolverFailure, as does a dependent basis; there
    is no fallback.  Returns (lambda, P), lambda a float in mode 'float'
    and a Fraction in mode 'exact'.
    """
    if not basis_cols or any(len(col) != ambient_dim for col in basis_cols):
        raise ValidationError("basis does not match the ambient dimension")
    b = _integer_basis(basis_cols)
    bm, cls, s, weight = _merge_rows(b)
    m, k, mm = len(b), len(b[0]), len(bm)
    sign = [(x > 0) - (x < 0) for x in s]
    if mm <= k:
        if mm < k or len(linalg.gauss_jordan(bm, k)[1]) < k:
            raise SolverFailure("the basis columns are linearly dependent")
        # P = J E: P_ij = s_i sign(s_j) / w_c when i and j are both in class c
        den = math.lcm(*weight)
        num = [[si * sj * (den // weight[ci]) if ci is not None and ci == cj else 0
                for cj, sj in zip(cls, sign)] for ci, si in zip(cls, s)]
        lam = Fraction(1)
        return (lam if mode == "exact" else float(lam)), linalg.fractions(num, den)
    import numpy as np

    a_ub, a_eq = _min_proj_rows(bm)
    nv = a_eq.shape[1]
    bounds = np.zeros((nv, 2))
    bounds[:, 1] = np.inf
    bounds[:k * mm, 0] = -np.inf                # A' is free
    res = linprog(np.r_[np.zeros(nv - 1), 1.0], A_ub=a_ub, b_ub=np.zeros(mm),
                  A_eq=a_eq, b_eq=np.r_[np.eye(k).ravel(), np.zeros(mm * mm)],
                  bounds=bounds, method="highs")
    if not res.success:
        raise SolverFailure(f"minimal projection LP failed: {res.message}")
    n, d, t = _min_proj_primal(bm, res.x)
    pm = [[sum(c * n[l][j] for l, c in enumerate(row) if c) for j in range(mm)] for row in bm]
    _min_proj_dual(bm, pm, d, res.eqlin.marginals, res.ineqlin.marginals)
    # The lift, checked on the full B: A = A' E, and P = B A read off the
    # m x m' product B A' by the column map j -> sign(s_j) (B A')_i,c(j).
    a = [[sj * row[c] if sj else 0 for c, sj in zip(cls, sign)] for row in n]
    rows_b = [[(l, c) for l, c in enumerate(row) if c] for row in b]
    ab = [[0] * k for _ in range(k)]
    for row_a, row_ab in zip(a, ab):
        for aj, row in zip(row_a, rows_b):
            if aj:
                for lp, c in row:
                    row_ab[lp] += aj * c
    if any(ab[l][lp] != d * (l == lp) for l in range(k) for lp in range(k)):
        raise SolverFailure("the exact vertex does not satisfy A B = I")
    pn = []
    for row in rows_b:
        acc = [0] * mm
        for l, c in row:
            acc = [x + c * y for x, y in zip(acc, n[l])]
        pn.append([sj * acc[c] if sj else 0 for c, sj in zip(cls, sign)])
    if max(sum(abs(row[j]) for row in pn) for j in range(m)) != t:
        raise SolverFailure("the exact vertex has ||B A||_1 != t")
    lam = Fraction(t, d)
    return (lam if mode == "exact" else float(lam)), linalg.fractions(pn, d)


# ---------------------------------------------------------------------------
# Banach-Mazur bound assembly
# ---------------------------------------------------------------------------

def bm_upper_via_basis_map(graph, cut_vectors: list[dict[str, int]]):
    """(||T|| ||T^{-1}||, ||T||, ||T^{-1}||) for the coset basis map on
    l1(E)/Z(graph).

    cut_vectors are sparse integer vectors on graph's edges, each a map
    {edge id: nonzero int}; ValidationError for an unknown edge id or an
    entry that is not a nonzero int.  One pass per call certifies that
    they span a complement of Z: they are nonzero and pairwise orthogonal
    (orthogonal_index), so independent; each has zero dot product with
    every fundamental cycle, read through the orthogonal_index map, so each
    is orthogonal to Z; and there are |E| - dim Z of them.
    ValidationError otherwise.  Each w_i is normalized by its quotient norm
    q_i, and T sends the coset of w_i / q_i to the i-th unit vector of l1.
    Every basis coset then has quotient norm 1, so ||T^{-1}|| = 1.  The
    quotient map sends the l1 unit ball onto the quotient unit ball, so
    ||T|| is the max over edges e of
    ||T e_e||_1 = sum_i |w_i[e]| q_i / <w_i, w_i>, read off the vectors.
    The terms do not change when a vector is rescaled, so integer vectors
    lose nothing, and grid cells may carry the counting or the mean norm
    alike.

    A vector with constant magnitude c on its support needs no solve.  The
    quotient norm is q(w) = max <w, y> over y orthogonal to Z with
    ||y||_inf <= 1, and y = w / c is such a y, with <w, y> = ||w||_1; as
    q(w) <= ||w||_1 always, q(w) = ||w||_1 = c |supp w|.  Its term in
    ||T e_e||_1 is then c (c |supp w|) / (c^2 |supp w|) = 1 on every edge
    of its support, so with such vectors alone ||T|| is the largest number
    of cut vectors that meet one edge.  Any other vector goes to
    cyclespace.quotient_norm as an EdgeVector.
    """
    edge_ids = graph.edge_by_id.keys()
    for w in cut_vectors:
        if not w.keys() <= edge_ids:
            raise ValidationError("cut vector names an edge that is not in the graph")
        if not all(type(v) is int and v for v in w.values()):
            raise ValidationError("cut vector entries must be nonzero ints")
    cuts_at = orthogonal_index(cut_vectors)     # nonzero, pairwise orthogonal
    # T z = 0: the +-1 signed walk of each fundamental cycle meets no cut vector
    for walk in cyclespace.fundamental_cycles_as_walks(graph):
        dots: dict[int, int] = {}
        for e, sign in walk:
            for i, x in cuts_at.get(e, ()):
                dots[i] = dots.get(i, 0) + sign * x
        if any(dots.values()):
            raise ValidationError("nonzero cycle image: T does not vanish on the cycle space")
    dim_z = cyclespace.mu(graph)
    if len(cut_vectors) != len(graph.edges) - dim_z:
        raise ValidationError(f"{len(cut_vectors)} cut vectors cannot span a complement of the "
                              f"cycle space: it needs |E| - dim Z = {len(graph.edges) - dim_z}")

    sums: dict[str, int | Fraction] = {}
    for w in cut_vectors:
        c = abs(next(iter(w.values())))
        if all(abs(v) == c for v in w.values()):
            for e in w:
                sums[e] = sums.get(e, 0) + 1
        else:                           # |w[e]| q(w) / <w, w>
            q = cyclespace.quotient_norm(cyclespace.EdgeVector(graph, w))
            scale = q / sum(v * v for v in w.values())
            for e, v in w.items():
                sums[e] = sums.get(e, 0) + abs(v) * scale
    t_norm = Fraction(max(sums.values(), default=0))
    return t_norm, t_norm, Fraction(1)
