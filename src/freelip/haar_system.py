"""Haar-system machinery for binary and multibranching diamond graphs.

Edge spaces of diamond graphs are identified with step functions on (0,1]:
the edge that evolved through quarters q_1...q_n sits on the cell with
base-4 digits q_1...q_n, carrying the L1-normalized indicator scaled by
4^n.  Under this identification the cycle space is the span of the even
Haar levels, and the cut space (h_0 and the odd levels) is its orthogonal
complement.

A step function is held as integer numerators over one common denominator
(DyadicVector), and the arithmetic here runs on those integers.  The Haar
transform is a sparse pass of pairwise sums and differences with no
division.  The cut vectors are pairwise orthogonal (checked by
projections.orthogonal_index on their numerators), so the orthogonal
projection onto their span is P = sum w w^T / <w, w>: it is applied
vector by vector without forming P, and the one dense P that is returned
is an integer sum of outer products over the lcm of the <w, w>.
Fractions are built only for returned values; there is no float path.

The Banach-Mazur upper bounds solve no LP.  Every cut vector used here
is +-1 on its support, so it is its own dual certificate: its quotient
norm on l1(E)/Z is its l1 norm, and ||T|| is the largest number of cut
vectors that meet one edge (projections.bm_upper_via_basis_map, which
also certifies that the vectors span a complement of the cycle space).
The cut vectors of the upper bounds keep one format from the grid to
that count: sparse integer maps, {cell: value} on the grid and
{edge id: value} on the graph, relabelled cell by cell, so no Fraction
is built for them.  The diamond ones are read straight from their cell
blocks, with no dense grid tuple.
haar() builds dense grids, so it is capped at HAAR_CELL_CAP cells.

The projection constant of the cycle space needs no group enumeration:
one reflection per pair of Haar functions shows that the Grunbaum-Rudin
average of every projection onto it is the orthogonal one, whose norm
is one column (haar_witness_bound has the proof).

The even/odd Haar levels also show up as quasi-greedy subsequences of the
Haar basis in L1; that direction is documentation only, nothing here
computes it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import mul

from . import projections
from .cyclespace import EdgeVector, fundamental_cycle_basis, mu
from .errors import ResourceLimit, ValidationError
from .graphs import TwoPoleGraph, diamond, multidiamond

QUARTER = {"tl": 0, "bl": 1, "br": 2, "tr": 3}
MULTIBRANCH_CELL_CAP = 4096     # grid cells of D_{n,k}: (2k)^n
HAAR_CELL_CAP = 4 ** 9          # grid cells of haar(): D_9's 4^9, haar_witness_bound(9)'s 2^17
_BRANCH_SEGMENT = re.compile(r"p([1-9][0-9]*)([du])")


@dataclass(frozen=True)
class DyadicVector:
    """Piecewise-constant function on (0,1] as cell values on a uniform grid:
    cell t holds nums[t] / den, kept in lowest terms with den > 0.

    l1 and inner are the discrete versions of the integral norm and inner
    product: means over the cells.  values gives the cell values as
    Fractions.
    """

    nums: tuple[int, ...]
    den: int = 1

    def __post_init__(self):
        if self.den < 1:
            raise ValidationError("denominator must be positive")
        common = gcd(self.den, *self.nums)
        if common > 1:
            object.__setattr__(self, "nums", tuple(x // common for x in self.nums))
            object.__setattr__(self, "den", self.den // common)

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    def __len__(self):
        return len(self.nums)

    def _same_grid(self, other: "DyadicVector"):
        if len(other) != len(self):
            raise ValidationError(f"resolution mismatch: {len(self)} and {len(other)} cells")

    def l1(self) -> Fraction:
        return Fraction(sum(map(abs, self.nums)), self.den * len(self))

    def inner(self, other: "DyadicVector") -> Fraction:
        self._same_grid(other)
        return Fraction(sum(map(mul, self.nums, other.nums)), self.den * other.den * len(self))

    def _combine(self, other: "DyadicVector", sign: int) -> "DyadicVector":
        self._same_grid(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        return DyadicVector(tuple(a * x + b * y for x, y in zip(self.nums, other.nums)), den)

    def __add__(self, other: "DyadicVector") -> "DyadicVector":
        return self._combine(other, 1)

    def __sub__(self, other: "DyadicVector") -> "DyadicVector":
        return self._combine(other, -1)

    def scale(self, c) -> "DyadicVector":
        c = Fraction(c)
        return DyadicVector(tuple(c.numerator * x for x in self.nums), self.den * c.denominator)


def _support(nums) -> dict[int, int]:
    """{cell: value} over the nonzero entries of an integer sequence."""
    return dict(zip(compress(range(len(nums)), nums), compress(nums, nums)))


def haar(i: int, resolution: int) -> DyadicVector:
    """The i-th Haar function on a grid of 2**resolution cells.

    h_0 is the constant 1; h_{2^n + j} is +1 on the left half and -1 on the
    right half of the j-th dyadic interval of length 2^{-n}, so h_i sits on
    level i.bit_length() - 1.  ValidationError for a negative index or
    resolution, ResourceLimit past HAAR_CELL_CAP cells.
    """
    if i < 0:
        raise ValidationError(f"Haar index {i} is negative")
    if resolution < 0:
        raise ValidationError(f"resolution {resolution} is negative")
    cells = 2 ** resolution
    if cells > HAAR_CELL_CAP:
        raise ResourceLimit(f"Haar grid of 2^{resolution} cells exceeds the cap {HAAR_CELL_CAP}")
    if i == 0:
        return DyadicVector((1,) * cells)
    level = i.bit_length() - 1
    if level + 1 > resolution:
        raise ValidationError(f"h_{i} needs resolution >= {level + 1}")
    block = cells // 2 ** level
    half = block // 2
    start = (i - 2 ** level) * block
    vals = [0] * cells
    vals[start:start + half] = [1] * half
    vals[start + half:start + block] = [-1] * half
    return DyadicVector(tuple(vals))


def haar_coefficients(v: DyadicVector) -> dict[int, Fraction]:
    """Expansion of a step function in the (orthogonal) Haar system.

    Returns {flat index: coefficient} over the nonzero coefficients, with
    v = sum c_i h_i; the grid must have power-of-two size.
    """
    resolution = len(v).bit_length() - 1
    if 2 ** resolution != len(v):
        raise ValidationError("grid size must be a power of two")
    return _haar_transform(_support(v.nums), v.den, resolution)


def _haar_transform(cur: dict[int, int], den: int, resolution: int) -> dict[int, Fraction]:
    """haar_coefficients of the step function {cell: numerator} / den on
    2**resolution cells.

    Fast sparse transform on the integer numerators: one pass of pairwise
    sums and differences per level over the nonzero blocks, with no
    division.  After s passes a block holds the numerator sum of its 2^s
    cells, so two sibling blocks differ by 2^(s+1) den times the
    coefficient of the Haar function on their union.
    """
    coeffs: dict[int, Fraction] = {}
    for s in range(resolution):
        first = 2 ** (resolution - 1 - s)   # flat index of the first h_i on this level
        sums: dict[int, int] = {}
        diffs: dict[int, int] = {}
        for t, x in cur.items():
            j = t >> 1
            sums[j] = sums.get(j, 0) + x
            diffs[j] = diffs.get(j, 0) + (-x if t & 1 else x)
        for j, d in diffs.items():
            if d:
                coeffs[first + j] = Fraction(d, den << (s + 1))
        cur = {j: x for j, x in sums.items() if x}
    if cur:
        coeffs[0] = Fraction(cur[0], den << resolution)
    return coeffs


class _OrthogonalFamily:
    """Grid vectors by their integer numerators, as sparse maps
    {cell: value}, checked nonzero and pairwise orthogonal
    (projections.orthogonal_index), and the orthogonal projection
    P = sum w w^T / <w, w> onto their span, used without forming P.
    P does not change when a vector is rescaled, so the numerators stand
    for the vectors.
    """

    def __init__(self, vectors: list[DyadicVector]):
        self.vectors = [_support(w.nums) for w in vectors]
        self.at = projections.orthogonal_index(self.vectors)
        self.norms = [sum(x * x for x in w.values()) for w in self.vectors]
        self.den = lcm(*self.norms)

    def dots(self, x: dict) -> dict[int, int]:
        """{i: <w_i, x>} for the vectors w_i that meet the support of x."""
        out: dict[int, int] = {}
        for t, v in x.items():
            for i, y in self.at.get(t, ()):
                out[i] = out.get(i, 0) + v * y
        return out

    def project(self, x: dict, size: int) -> tuple[tuple[int, ...], int]:
        """(numerators, denominator) of P x = sum <w, x> w / <w, w>, over
        the lcm of the <w, w>, on a grid of size cells."""
        acc = [0] * size
        for i, c in self.dots(x).items():
            f = c * (self.den // self.norms[i])
            for t, y in self.vectors[i].items():
                acc[t] += f * y
        return tuple(acc), self.den

    def matrix(self, size: int) -> tuple[list, Fraction]:
        """(P as a dense Fraction matrix, its max absolute row sum), built
        as an integer sum of outer products over the lcm of the <w, w>.
        P is symmetric, so the row sum is its linf and its l1 norm."""
        rows = [[0] * size for _ in range(size)]
        for w, norm in zip(self.vectors, self.norms):
            f = self.den // norm
            items = list(w.items())
            for a, x in items:
                row, fx = rows[a], f * x
                for b, y in items:
                    row[b] += fx * y
        frac = {x: Fraction(x, self.den) for x in {x for row in rows for x in row}}
        p = [[frac[x] for x in row] for row in rows]
        return p, Fraction(max(sum(map(abs, row)) for row in rows), self.den)


def _cells(x: EdgeVector, cell) -> dict[int, int]:
    """An edge vector as {grid cell: integer numerator} over the lcm of its
    denominators, so up to a positive factor; edge e sits on cell(e.id)."""
    den = lcm(*(c.denominator for c in x.coeffs.values()))
    return {cell(eid): c.numerator * (den // c.denominator) for eid, c in x.coeffs.items()}


def _on_edges(g: TwoPoleGraph, supports: list[dict[int, int]], cell) -> list[dict[str, int]]:
    """Sparse integer grid vectors {cell: value} as sparse integer edge
    vectors {edge id: value} of g: edge e takes the value of cell(e.id)."""
    edge_at = {cell(e.id): e.id for e in g.edges}
    return [{edge_at[t]: x for t, x in w.items()} for w in supports]


# ---------------------------------------------------------------------------
# Binary diamond identification
# ---------------------------------------------------------------------------

def diamond_cell_index(edge_id: str, n: int) -> int:
    """Cell of an edge of D_n: base-4 digits are the quarter labels."""
    parts = edge_id.split("/") if edge_id else []
    if len(parts) != n:
        raise ValidationError(f"edge id {edge_id!r} is not at level {n}")
    idx = 0
    for seg in parts:
        q = QUARTER.get(seg)
        if q is None:
            raise ValidationError(f"edge id {edge_id!r}: segment {seg!r} is not a quarter")
        idx = 4 * idx + q
    return idx


def verify_even_level_span(n: int, graph: TwoPoleGraph | None = None) -> bool:
    """Exact span equality of graph Z(D_n) and the even Haar levels.

    The fundamental cycle vectors are independent by construction and there
    are exactly as many as even-level Haar functions, so equality follows
    from every cycle image having Haar coefficients on the even levels
    only, none on h_0 or an odd level (one sparse transform per image, read
    for its support only).  The even levels 0, 2, ..., 2n-2 hold
    1 + 4 + ... + 4^(n-1) = (4^n - 1)/3 functions.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    g = graph if graph is not None else diamond(n)
    basis = fundamental_cycle_basis(g)
    if len(basis.vectors) != (4 ** n - 1) // 3:
        return False

    def cell(eid):
        return diamond_cell_index(eid, n)

    return all(i > 0 and (i.bit_length() - 1) % 2 == 0   # h_i lies on level bit_length - 1
               for vec in basis.vectors
               for i in _haar_transform(_cells(vec, cell), 1, 2 * n))


# ---------------------------------------------------------------------------
# The projection lower bounds
# ---------------------------------------------------------------------------

def haar_witness_bound(n: int):
    """The Andrew witness: f sums the first L1-normalized Haar function of
    each level through 2n-2, plus h_0.

    Returns (f, ||f||_1, Qf, ||Qf||_1) with Q the orthogonal projection onto
    Y, the span of the even levels 0, 2, ..., 2n-2 (the cycle space of D_n,
    verify_even_level_span); ||f||_1 = 1 exactly and
    ||Qf||_1 = (2n+1)/3 + (1 - 4^(1-n))/9 (checked by the haar-witness
    claim).  f is the L1-normalized indicator of cell 0, so ||Qf||_1 is the
    column ||Q e_0||_1, on this grid of 2^(2n-1) cells or on the 4^n cells
    of D_n alike (Y is constant on sibling cells).  It is
    lambda(Y) = lambda(Z(D_n)), the least norm of a projection onto Y:

    The reflection g_i (i >= 1) swaps the two halves of supp h_i; it is an
    isometry of L1 and of L2, negates h_i and fixes every h_j whose support
    contains or misses supp h_i, since h_j is constant on each half.  It
    maps each level onto itself up to signs, so it keeps Y and commutes
    with Q.  The g_i are transitive on cells, so every column of Q has the
    norm of column 0, and ||Q|| = ||Qf||_1.  Let P be a projection onto Y,
    and A its Grunbaum-Rudin average over the group of the g_i: a
    projection onto Y with ||A|| <= ||P||, commuting with every g_i.
    T = A - Q kills Y, maps Y^perp into Y and commutes with the g_i.  Take
    h_k on an even level and h_j = h_0 or on an odd level; dyadic supports
    are nested or disjoint.  If supp h_k lies inside supp h_j or misses
    it, g_k negates h_k and fixes h_j, so g_k T h_j = T g_k h_j = T h_j and
    <T h_j, h_k> = <g_k T h_j, g_k h_k> = -<T h_j, h_k> = 0.  Otherwise
    supp h_j lies inside supp h_k, and g_j does the same with the roles
    swapped.  So T = 0: the average of every projection onto Y is Q, and
    ||P|| >= ||Q||.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    resolution = 2 * n - 1
    f = haar(0, resolution)
    qf = DyadicVector((0,) * 2 ** resolution)
    for k in range(2 * n - 1):
        term = haar(2 ** k, resolution).scale(2 ** k)
        f = f + term
        if k % 2 == 0:
            qf = qf + term
    return f, f.l1(), qf, qf.l1()


def _diamond_cut_supports(n: int) -> list[dict[int, int]]:
    """h_0 and the Haar functions of the odd levels 1, 3, ..., 2n-1 on the
    4^n cells of D_n, as sparse maps {cell: +-1} read off their cell
    blocks: level 2k-1 is +1 on a run of 4^n / 4^k cells and -1 on the
    next, over the whole grid."""
    cells = 4 ** n
    out = [dict.fromkeys(range(cells), 1)]
    for k in range(1, n + 1):
        half = cells >> 2 * k
        for start in range(0, cells, 2 * half):
            w = dict.fromkeys(range(start, start + half), 1)
            w.update(dict.fromkeys(range(start + half, start + 2 * half), -1))
            out.append(w)
    return out


def diamond_bm_bounds(n: int, include_upper: bool = True):
    """Certified Banach-Mazur bounds for LF(D_n) against l1 of its dimension.

    lower: (2n+1)/3, certified by the exact Linf norm of the orthogonal
    projection P onto the cut space (h_0 and the odd levels), read off its
    column at cell 0 without building P.
    upper: ||T|| ||T^-1|| = ||T|| = n + 1 for the coset basis of h_0 and
    the odd-level h_i on the edges of D_n, each normalized to quotient norm
    1 (bm_upper_via_basis_map).  Each is +-1 on its support, so its own
    values certify that its quotient norm is its l1 norm, and each adds 1 to
    ||T e_e||_1 on every edge e it meets: h_0 and one function of each odd
    level meet every edge, so ||T|| = n + 1, below the paper's 4n + 4.  The
    normalization is the paper's scaling 2^(2k-1) on level 2k-1 and 1 on h_0
    (tested for n <= 3).
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    cells = 4 ** n
    # ||P||_inf = ||P e_0||_1: the reflections map each h_j to +-h_k on j's level, are transitive
    # on cells; P = P^T.  P e_0 only needs the cut vectors with w[0] != 0: h_0 and the first
    # h_i of each odd level.  The l1 mean of P (cells e_0) is the sum of |P e_0|.
    first = _OrthogonalFamily([haar(i, 2 * n)
                               for i in [0] + [2 ** (2 * k - 1) for k in range(1, n + 1)]])
    exact_cut_norm = DyadicVector(*first.project({0: cells}, cells)).l1()
    lower = Fraction(2 * n + 1, 3)
    if exact_cut_norm < lower:
        raise ValidationError("cut projection norm fell below the paper bound")
    upper = t_norm = tinv_norm = None
    if include_upper:
        g = diamond(n)
        upper, t_norm, tinv_norm = projections.bm_upper_via_basis_map(
            g, _on_edges(g, _diamond_cut_supports(n), lambda eid: diamond_cell_index(eid, n)))
    return {"lower": lower, "exact_orth_norm": exact_cut_norm,
            "upper": upper, "t_norm": t_norm, "tinv_norm": tinv_norm}


# ---------------------------------------------------------------------------
# Multibranching diamonds
# ---------------------------------------------------------------------------

def multibranch_cell_index(edge_id: str, n: int, k: int) -> int:
    """Cell of an edge of D_{n,k}: base-2k digits, path j descending edge
    at digit 2j-2 and ascending edge at digit 2j-1.  Each segment must be
    p<j>d or p<j>u with 1 <= j <= k (ValidationError otherwise)."""
    parts = edge_id.split("/") if edge_id else []
    if len(parts) != n:
        raise ValidationError(f"edge id {edge_id!r} is not at level {n}")
    idx = 0
    for seg in parts:
        m = _BRANCH_SEGMENT.fullmatch(seg)
        if m is None or int(m[1]) > k:
            raise ValidationError(f"edge id {edge_id!r}: segment {seg!r} is not "
                                  f"p<j>d or p<j>u with 1 <= j <= {k}")
        j = int(m[1])
        digit = 2 * j - 2 if m[2] == "d" else 2 * j - 1
        idx = 2 * k * idx + digit
    return idx


def multibranch_cut_basis(n: int, k: int) -> list[DyadicVector]:
    """h_0 together with the Linf-normalized difference vectors h_{i,j}."""
    cells = (2 * k) ** n
    out = [DyadicVector((1,) * cells)]
    for i in range(1, n + 1):
        block = cells // (2 * k) ** i
        for j in range(1, (2 * k) ** i // 2 + 1):
            vals = [0] * cells
            start = (2 * j - 2) * block
            vals[start:start + block] = [1] * block
            vals[start + block:start + 2 * block] = [-1] * block
            out.append(DyadicVector(tuple(vals)))
    return out


def multibranch_analysis(n: int, k: int) -> dict:
    """Cut-space projection data and Banach-Mazur bounds for D_{n,k}.

    The cut vectors are checked pairwise orthogonal on the grid, by sparse
    integer dot products.  On the edges of D_{n,k}, bm_upper_via_basis_map
    certifies in one pass over the fundamental cycles that every cycle image
    is orthogonal to every cut vector, and that the cut vectors are
    |E| - dim Z in number.  The fundamental cycles are independent, and so
    are the orthogonal cut vectors; being orthogonal, the two spans meet
    only in 0 and fill the edge space, so they are orthogonal complements
    and P = sum w w^T / <w, w> over the cut vectors is the orthogonal
    projection that kills the cycle space.  The same call returns the upper
    bound ||T|| ||T^-1|| = ||T|| of the cut basis normalized to quotient
    norm 1.  Every cut vector is +-1 on its support, so it certifies its
    own quotient norm, its l1 norm, and ||T|| is the largest number of cut
    vectors that meet one edge, with no LP.  On binary diamonds that
    normalization is the paper's 2^(2k-1) scaling of level 2k-1 (tested
    for n <= 3).  Evaluates P on the first edge vector (the paper's
    witness) as sum w[0] w / <w, w> and certifies the (1 - 1/k) n/2 lower
    bound.  The dense P is returned too, built once as an integer sum of
    outer products.
    """
    if n < 1 or k < 2:
        raise ValidationError("need n >= 1 and k >= 2")
    cells = (2 * k) ** n
    if cells > MULTIBRANCH_CELL_CAP:
        raise ResourceLimit(f"grid of {cells} cells exceeds the cap")
    cut = multibranch_cut_basis(n, k)
    family = _OrthogonalFamily(cut)
    g = multidiamond(n, k)
    bm_upper, _, _ = projections.bm_upper_via_basis_map(
        g, _on_edges(g, family.vectors, lambda eid: multibranch_cell_index(eid, n, k)))

    pe1 = DyadicVector(*family.project({0: cells}, cells))   # e_1 L1-normalized: cells at cell 0
    # paper formula: P e_{n,1} = h_0 + (1/2) sum (2k)^i h_{i,1}
    formula = cut[0]
    offset = 1
    for i in range(1, n + 1):
        formula = formula + cut[offset].scale(Fraction((2 * k) ** i, 2))
        offset += (2 * k) ** i // 2
    witness_value = pe1.l1()
    bm_lower = Fraction((k - 1) * n, 2 * k)
    if witness_value < bm_lower:
        raise ValidationError("witness value fell below the paper bound")

    p, linf_bound = family.matrix(cells)
    return {
        "cut_basis": cut,
        "projection": p,
        "witness_vector": pe1,
        "witness_formula_matches": pe1 == formula,
        "witness_value": witness_value,
        "linf_bound": linf_bound,
        "bm_lower": bm_lower,
        "bm_upper": bm_upper,
        "cycle_dim": mu(g),
    }
