"""Haar-system machinery for binary and multibranching diamond graphs.

Edge spaces of diamond graphs are identified with step functions on (0,1]:
the edge that evolved through quarters q_1...q_n sits on the cell with
base-4 digits q_1...q_n, carrying the L1-normalized indicator scaled by
4^n.  Under this identification the cycle space is the span of the even
Haar levels, projections become exact rational matrices on cell values,
and the Banach-Mazur bounds reduce to finitely many quotient norms, each
one min-cost flow on the graph.

Everything here runs in exact rationals; there is no float path.

The even/odd Haar levels also show up as quasi-greedy subsequences of the
Haar basis in L1; that direction is documentation only, nothing here
computes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg, projections
from .cyclespace import EdgeVector, fundamental_cycle_basis
from .errors import ResolutionTooCoarse, ResourceLimit, ValidationError
from .graphs import TwoPoleGraph, diamond, multidiamond
from .rational import ZERO

QUARTER = {"tl": 0, "bl": 1, "br": 2, "tr": 3}
MULTIBRANCH_CELL_CAP = 4096     # grid cells of D_{n,k}: (2k)^n


@dataclass(frozen=True)
class DyadicVector:
    """Piecewise-constant function on (0,1] as cell values on a uniform grid.

    l1 and inner are the discrete versions of the integral norm and inner
    product: means over the cells.
    """

    values: tuple[Fraction, ...]

    def __len__(self):
        return len(self.values)

    def l1(self) -> Fraction:
        return sum((abs(v) for v in self.values), start=ZERO) / len(self.values)

    def inner(self, other: "DyadicVector") -> Fraction:
        if len(other) != len(self):
            raise ValidationError("resolution mismatch")
        n = len(self.values)
        return sum((a * b for a, b in zip(self.values, other.values)), start=ZERO) / n

    def __add__(self, other: "DyadicVector") -> "DyadicVector":
        return DyadicVector(tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "DyadicVector") -> "DyadicVector":
        return DyadicVector(tuple(a - b for a, b in zip(self.values, other.values)))

    def scale(self, c) -> "DyadicVector":
        c = Fraction(c)
        return DyadicVector(tuple(c * v for v in self.values))


def haar(i: int, resolution: int) -> DyadicVector:
    """The i-th Haar function on a grid of 2**resolution cells.

    h_0 is the constant 1; h_{2^n + j} is +1 on the left half and -1 on the
    right half of the j-th dyadic interval of length 2^{-n}, so h_i sits on
    level i.bit_length() - 1.
    """
    if i < 0:
        raise ValidationError(f"Haar index {i} is negative")
    cells = 2 ** resolution
    if i == 0:
        return DyadicVector((Fraction(1),) * cells)
    level = i.bit_length() - 1
    if level + 1 > resolution:
        raise ResolutionTooCoarse(f"h_{i} needs resolution >= {level + 1}")
    block = cells // 2 ** level
    half = block // 2
    vals = [ZERO] * cells
    start = (i - 2 ** level) * block
    for t in range(start, start + half):
        vals[t] = Fraction(1)
    for t in range(start + half, start + block):
        vals[t] = Fraction(-1)
    return DyadicVector(tuple(vals))


def level_indices(level: int) -> list[int]:
    """Flat indices of H_level (with H_{-1} = {h_0})."""
    if level == -1:
        return [0]
    return list(range(2 ** level, 2 ** (level + 1)))


def haar_coefficients(v: DyadicVector) -> dict[int, Fraction]:
    """Expansion of a step function in the (orthogonal) Haar system.

    Returns {flat index: coefficient} with v = sum c_i h_i; the grid must
    have power-of-two size.  Fast transform: one pairwise
    average/difference pass per level.
    """
    n = len(v)
    resolution = n.bit_length() - 1
    if 2 ** resolution != n:
        raise ValidationError("grid size must be a power of two")
    coeffs: dict[int, Fraction] = {}
    cur = list(v.values)
    level = resolution - 1
    while len(cur) > 1:
        nxt = []
        for j in range(0, len(cur), 2):
            avg = (cur[j] + cur[j + 1]) / 2
            diff = (cur[j] - cur[j + 1]) / 2
            if diff:
                coeffs[2 ** level + j // 2] = diff
            nxt.append(avg)
        cur = nxt
        level -= 1
    if cur[0]:
        coeffs[0] = cur[0]
    return coeffs


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
        idx = 4 * idx + QUARTER[seg]
    return idx


def graph_to_dyadic(x: EdgeVector, n: int) -> DyadicVector:
    """Edge vector on D_n -> step function (cell value 4^n times coefficient)."""
    cells = 4 ** n
    vals = [ZERO] * cells
    for eid, c in x.coeffs.items():
        vals[diamond_cell_index(eid, n)] = Fraction(cells) * c
    return DyadicVector(tuple(vals))


def verify_even_level_span(n: int, graph: TwoPoleGraph | None = None) -> bool:
    """Exact span equality of graph Z(D_n) and the even Haar levels.

    The fundamental cycle vectors are independent by construction and there
    are exactly as many as even-level Haar functions, so equality follows
    from every cycle image having Haar coefficients on the even levels
    only, none on h_0 or an odd level (one fast transform per image).  The
    even levels 0, 2, ..., 2n-2 hold 1 + 4 + ... + 4^(n-1) = (4^n - 1)/3
    functions.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    g = graph if graph is not None else diamond(n)
    basis = fundamental_cycle_basis(g)
    if len(basis.vectors) != (4 ** n - 1) // 3:
        return False
    return all(i > 0 and (i.bit_length() - 1) % 2 == 0   # h_i lies on level bit_length - 1
               for vec in basis.vectors
               for i in haar_coefficients(graph_to_dyadic(vec, n)))


# ---------------------------------------------------------------------------
# Andrew averaging and the projection lower bounds
# ---------------------------------------------------------------------------

def g_isometry(i: int, resolution: int) -> list:
    """Permutation matrix swapping the two halves of supp h_i (i >= 1)."""
    if i < 1:
        raise ValidationError("g_i is defined for i >= 1")
    cells = 2 ** resolution
    level = i.bit_length() - 1
    if level + 1 > resolution:
        raise ResolutionTooCoarse(f"g_{i} needs resolution >= {level + 1}")
    block = cells // 2 ** level
    half = block // 2
    start = (i - 2 ** level) * block
    perm = list(range(cells))
    for t in range(start, start + half):
        perm[t], perm[t + half] = perm[t + half], perm[t]
    return projections.permutation_matrix(perm)


def level_span_vectors(levels, resolution: int) -> list[DyadicVector]:
    out = []
    for lev in sorted(levels):
        out.extend(haar(i, resolution) for i in level_indices(lev))
    return out


def orthogonal_projection_matrix(vectors: list[DyadicVector]) -> list:
    return projections.orthogonal_projection([list(v.values) for v in vectors])


def andrew_lower_bound(levels, resolution: int, projection: list | None = None):
    """L1 norm of the orthogonal projection onto span of the given Haar levels.

    This is a certified lower bound on the L1 norm of every projection onto
    that span.  With a concrete projection supplied, the full reflection
    group is enumerated and the projection's average over it is confirmed
    to equal the orthogonal projection.
    """
    p_y = orthogonal_projection_matrix(level_span_vectors(levels, resolution))
    averaged = None
    if projection is not None:
        gens = [g_isometry(i, resolution) for i in range(1, 2 ** resolution)]
        averaged = projections.average_projection(projection, projections.generate_group(gens))
        if not linalg.mat_eq(averaged, p_y):
            raise ValidationError("group average differs from the orthogonal projection")
    return projections.l1_norm(p_y), p_y, averaged


def haar_witness_bound(n: int):
    """The Andrew witness: f sums the first L1-normalized Haar function of
    each level through 2n-2, plus h_0.

    Returns (f, ||f||_1, Qf, ||Qf||_1) with Q the orthogonal projection onto
    the even levels; ||f||_1 = 1 exactly and ||Qf||_1 >= (2n+1)/3.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    resolution = 2 * n - 1
    f = haar(0, resolution)
    qf = DyadicVector((ZERO,) * 2 ** resolution)
    for k in range(2 * n - 1):
        term = haar(2 ** k, resolution).scale(2 ** k)
        f = f + term
        if k % 2 == 0:
            qf = qf + term
    return f, f.l1(), qf, qf.l1()


def _on_edges(g: TwoPoleGraph, vectors: list[DyadicVector], cell) -> list[EdgeVector]:
    """Grid vectors as edge vectors of g: edge e takes the value of cell(e.id)."""
    cells = [(e.id, cell(e.id)) for e in g.edges]
    return [EdgeVector(g, {eid: v.values[c] for eid, c in cells}) for v in vectors]


def diamond_bm_bounds(n: int, include_upper: bool = True):
    """Certified Banach-Mazur bounds for LF(D_n) against l1 of its dimension.

    lower: (2n+1)/3, certified by the exact Linf norm of the orthogonal
    projection P onto the cut space (h_0 and the odd levels), read off its
    column at cell 0 without building P.
    upper: ||T|| ||T^-1|| = ||T|| (= n + 1 for n <= 4; at most 4n + 4) for
    the coset basis of h_0 and the odd-level h_i, mapped to the edges of
    D_n and each normalized to quotient norm 1 (bm_upper_via_basis_map).
    That normalization is the paper's scaling 2^(2k-1) on level 2k-1 and 1
    on h_0 (tested for n <= 3).
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    # ||P||_inf = ||P e_0||_1: g_isometry maps each h_j to +-h_k on j's level, is transitive on cells; P = P^T
    pe0 = [ZERO] * 4 ** n   # P e_0 = sum of w[0] w / <w, w> over the cut vectors w with w[0] != 0
    for i in [0] + [2 ** (2 * k - 1) for k in range(1, n + 1)]:
        w = haar(i, 2 * n).values
        weight = w[0] / sum(x * x for x in w)
        pe0 = [p + weight * x for p, x in zip(pe0, w)]
    exact_cut_norm = sum(map(abs, pe0))
    lower = Fraction(2 * n + 1, 3)
    if exact_cut_norm < lower:
        raise ValidationError("cut projection norm fell below the paper bound")
    upper = t_norm = tinv_norm = None
    if include_upper:
        g = diamond(n)
        cut_vecs = level_span_vectors([-1] + [2 * k - 1 for k in range(1, n + 1)], 2 * n)
        upper, t_norm, tinv_norm = projections.bm_upper_via_basis_map(
            g, _on_edges(g, cut_vecs, lambda eid: diamond_cell_index(eid, n)))
    return {"lower": lower, "exact_orth_norm": exact_cut_norm,
            "upper": upper, "t_norm": t_norm, "tinv_norm": tinv_norm}


# ---------------------------------------------------------------------------
# Multibranching diamonds
# ---------------------------------------------------------------------------

def multibranch_cell_index(edge_id: str, n: int, k: int) -> int:
    """Cell of an edge of D_{n,k}: base-2k digits, path j descending edge
    at digit 2j-2 and ascending edge at digit 2j-1."""
    parts = edge_id.split("/") if edge_id else []
    if len(parts) != n:
        raise ValidationError(f"edge id {edge_id!r} is not at level {n}")
    idx = 0
    for seg in parts:
        j = int(seg[1:-1])
        digit = 2 * j - 2 if seg.endswith("d") else 2 * j - 1
        idx = 2 * k * idx + digit
    return idx


def multibranch_graph_to_dyadic(x: EdgeVector, n: int, k: int) -> DyadicVector:
    cells = (2 * k) ** n
    vals = [ZERO] * cells
    for eid, c in x.coeffs.items():
        vals[multibranch_cell_index(eid, n, k)] = Fraction(cells) * c
    return DyadicVector(tuple(vals))


def multibranch_cut_basis(n: int, k: int) -> list[DyadicVector]:
    """h_0 together with the Linf-normalized difference vectors h_{i,j}."""
    cells = (2 * k) ** n
    out = [DyadicVector((Fraction(1),) * cells)]
    for i in range(1, n + 1):
        block = cells // (2 * k) ** i
        for j in range(1, (2 * k) ** i // 2 + 1):
            vals = [ZERO] * cells
            start = (2 * j - 2) * block
            for t in range(start, start + block):
                vals[t] = Fraction(1)
            for t in range(start + block, start + 2 * block):
                vals[t] = Fraction(-1)
            out.append(DyadicVector(tuple(vals)))
    return out


def _apply(p: list, v: DyadicVector) -> tuple:
    """P v for a dense matrix P, summing only over the nonzero entries of v."""
    nz = [(j, x) for j, x in enumerate(v.values) if x]
    return tuple(sum((row[j] * x for j, x in nz), start=ZERO) for row in p)


def multibranch_analysis(n: int, k: int, include_upper: bool = True) -> dict:
    """Cut-space projection data and Banach-Mazur bounds for D_{n,k}.

    Builds the orthogonal projection onto the cut space, evaluates it on
    the first edge vector (the paper's witness), certifies the
    (1 - 1/k) n/2 lower bound, cross-validates the cut space as the
    orthogonal complement of the graph cycle space, and (optionally, it is
    the expensive part) computes the upper bound ||T|| ||T^-1|| = ||T|| of
    the cut basis normalized to quotient norm 1 (bm_upper_via_basis_map).
    On binary diamonds that normalization is the paper's 2^(2k-1) scaling
    of level 2k-1 (tested for n <= 3).
    """
    if n < 1 or k < 2:
        raise ValidationError("need n >= 1 and k >= 2")
    cells = (2 * k) ** n
    if cells > MULTIBRANCH_CELL_CAP:
        raise ResourceLimit(f"grid of {cells} cells exceeds the cap")
    cut = multibranch_cut_basis(n, k)
    p = orthogonal_projection_matrix(cut)
    g = multidiamond(n, k)
    cycle_imgs = [multibranch_graph_to_dyadic(v, n, k)
                  for v in fundamental_cycle_basis(g).vectors]
    if len(cycle_imgs) + len(cut) != cells:
        raise ValidationError("cut + cycle dimensions do not fill the edge space")
    # The fundamental cycles are independent, and so are the orthogonal cut
    # vectors.  Once P fixes every cut vector and kills every cycle image, no
    # vector lies in both spans, so together they are a basis on which P^2 = P.
    # With P symmetric the cycle images are then orthogonal to the cut space.
    if not linalg.is_symmetric(p) or any(_apply(p, w) != w.values for w in cut):
        raise ValidationError("cut projection failed idempotence/self-adjointness")
    if any(any(_apply(p, z)) for z in cycle_imgs):
        raise ValidationError("cycle image not orthogonal to the cut space")

    e1 = [ZERO] * cells
    e1[0] = Fraction(cells)
    pe1 = DyadicVector(tuple(linalg.mat_vec(p, e1)))
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

    bm_upper = None
    if include_upper:
        bm_upper, _, _ = projections.bm_upper_via_basis_map(
            g, _on_edges(g, cut, lambda eid: multibranch_cell_index(eid, n, k)))
    return {
        "cut_basis": cut,
        "projection": p,
        "witness_vector": pe1,
        "witness_formula_matches": pe1.values == formula.values,
        "witness_value": witness_value,
        "linf_bound": projections.linf_norm(p),
        "bm_lower": bm_lower,
        "bm_upper": bm_upper,
        "cycle_dim": len(cycle_imgs),
    }
