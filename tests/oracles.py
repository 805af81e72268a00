"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: the dense transport
oracle runs the generic two-phase simplex on the bipartite formulation
rather than the network simplex, the flow oracle computes transportation norms
on graphs from an edge-flow LP, the clipped-cone witness certifies
elementary-molecule norms with no LP at all, the dense span check
takes inner products with h_0 and the odd Haar levels instead of running
the fast Haar transform, the Fraction Haar transform averages and halves
Fraction cell values instead of summing integer numerators, the dense
cut projections solve the Gram system of the cut vectors for
B (B^T B)^-1 B^T and apply it as a matrix instead of summing
w w^T / <w, w>, the all-vectors Banach-Mazur bound solves one quotient
norm per cut vector, and the orbit bound one per orbit of cut vectors
under edge bijections, where the library solves none for a cut vector of
constant magnitude, the dense group oracles multiply and invert
whole Fraction matrices instead of composing index maps, and the transport
projection norm solves one transportation problem per elementary molecule
instead of reading the two-matching closed form, the Fraction graph
metric adds Fractions in its searches instead of integers over a common
denominator, the tensor-vector l1 norm and flattening multiply
Fraction states and entries instead of integer ones kept up to a factor,
idempotence is one dense product P P, the orthogonal projection is the
Fraction formula B (B^T B)^-1 B^T from dense products and a Gram solve
instead of a fraction-free elimination on integers, the cycle-projection
certificate and the annihilation images are dense Fraction products
instead of sums of integer columns, and the minimal-projection LP is
written out twice, as the dense float64 rows of its split form for HiGHS
and as a dense standard form over Q, each with its own loops instead of
index arrays for sparse matrices; the two-phase simplex on the standard
form is the reference for the exact projection constant, which the
library reads from a HiGHS vertex certified by exact primal and dual
solves; the merge of proportional basis rows scales each row by
Fraction ratios to its first nonzero entry instead of dividing by gcds;
the Fraction rref, rank, solve and inverse run Gauss-Jordan elimination
on Fractions, dividing each pivot row by its pivot, instead of the
fraction-free integer elimination of freelip.linalg, so the orthogonal
projection and group-average oracles built on them share no elimination
code with the library;
the full-walk network simplex finds the potentials by walking the
whole tree and prices every arc afresh on every pivot, instead of
updating both on the subtree that moves;
the north-west-corner start fills the transportation staircase row by
row with no look at the costs, instead of scanning the cells by cost;
and the full invariance generators map every edge id of the graph, one
split and join per edge, instead of listing only the edges that each
generator moves;
the Kruskal minimum spanning tree sorts every pair of points by
(distance, name, name) and joins them by union-find into a graph of
Fraction-weighted edges, whose two sides a breadth-first walk colours,
instead of growing the tree by Prim's algorithm on the integer rows and
reading the sides from the depth parity;
the two-pole graph validator checks edges on vertex names, with one
frozenset per endpoint pair and a depth-first search over an adjacency
dict of lists, instead of integer pair keys and a union-find on vertex
indices;
and the random metric space closes its Fraction weights by a
Floyd-Warshall on Fractions instead of on integers over 6.

The Haar reflections and level spans are kept here only: the library
proves the averaging lemma (haar_system.haar_witness_bound's docstring)
instead of enumerating the reflection group, and the tests check its
steps on small grids.  integer_maps turns edge vectors into the integer
maps that bm_upper_via_basis_map takes, while the Banach-Mazur oracles
stay on edge vectors.
"""

import heapq
import itertools
from fractions import Fraction
from math import lcm

import numpy as np

from freelip import cyclespace, haar_system, linalg
from freelip.cyclespace import EdgeVector, boundary, fundamental_cycle_basis, spanning_tree
from freelip.embeddings import large_embedding
from freelip.errors import (DisconnectedGraph, GroupClosureOverflow, NotInvariantSubspace,
                            ResolutionTooCoarse, SingularGram, SolverFailure, ValidationError)
from freelip.freenorm import ae_norm
from freelip.metric import MetricSpace, Molecule, validate_metric
from freelip.rational import to_fraction
from freelip.graphs import Edge, TwoPoleGraph, diamond, multidiamond
from freelip.recursive import c_type_vectors, edge_map_matrix
from freelip.projections import orthogonal_index
from freelip.symmetry import (edge_map_from_vertex_map, invariance_generators, moved_edges,
                              vertical_automorphism)
from freelip.simplex import solve_standard_exact

ZERO = Fraction(0)
ONE = Fraction(1)


def mat_vec(a: list, v: list) -> list:
    """The product of a dense matrix and a vector, in Fractions."""
    return [sum((x * y for x, y in zip(row, v) if x and y), start=ZERO) for row in a]


def mat_add(a: list, b: list) -> list:
    """Entrywise sum of two matrices of the same shape."""
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def fraction_rref(a: list) -> tuple:
    """Reduced row echelon form by Gauss-Jordan elimination on Fractions,
    dividing each pivot row by its pivot; returns (R, pivot column indices)."""
    r = [list(row) for row in a]
    m = len(r)
    n = len(r[0]) if m else 0
    pivots = []
    row = 0
    for col in range(n):
        pivot_row = None
        for i in range(row, m):
            if r[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        r[row], r[pivot_row] = r[pivot_row], r[row]
        pv = r[row][col]
        r[row] = [x / pv for x in r[row]]
        for i in range(m):
            if i != row and r[i][col] != 0:
                f = r[i][col]
                r[i] = [x - f * y for x, y in zip(r[i], r[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    return r, pivots


def fraction_rank(a: list) -> int:
    """The number of pivots of fraction_rref(a)."""
    if not a:
        return 0
    return len(fraction_rref(a)[1])


def fraction_solve(a: list, b: list) -> list:
    """X with a X = b for a square nonsingular a, read off fraction_rref of
    [a | b] (SingularGram otherwise)."""
    n = len(a)
    k = len(b[0])
    aug = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    r, pivots = fraction_rref(aug)
    if pivots[:n] != list(range(n)):
        raise SingularGram("matrix is singular")
    return [row[n:n + k] for row in r[:n]]


def fraction_inverse(a: list) -> list:
    """fraction_solve(a, I)."""
    return fraction_solve(a, linalg.identity(len(a)))


def dense_transport(cost, supply, demand):
    """Balanced transportation as a dense LP for the two-phase simplex.

    One variable per cell, one row per supply and per demand except the
    last (redundant); returns (value, dense plan).
    """
    ns, nd = len(supply), len(demand)
    nvar = ns * nd
    a = []
    b = []
    for i in range(ns):
        row = [ZERO] * nvar
        for j in range(nd):
            row[i * nd + j] = ONE
        a.append(row)
        b.append(supply[i])
    for j in range(nd - 1):
        row = [ZERO] * nvar
        for i in range(ns):
            row[i * nd + j] = ONE
        a.append(row)
        b.append(demand[j])
    cvec = [cost[i][j] for i in range(ns) for j in range(nd)]
    value, x = solve_standard_exact(a, b, cvec)
    return value, [[x[i * nd + j] for j in range(nd)] for i in range(ns)]


def flow_norm(g: TwoPoleGraph, m: Molecule) -> Fraction:
    """min sum |y_e| over edge flows with boundary m (exact LP).

    Independent of the transportation formulation: variables live on the
    graph's edges, constraints on its vertices.
    """
    verts = list(g.vertices)
    edges = list(g.edges)
    n, k = len(verts), len(edges)
    vidx = {v: i for i, v in enumerate(verts)}
    nvar = 2 * k  # y+, y-
    rows = []
    rhs = []
    for v in verts[:-1]:  # last vertex row is redundant (total mass 0)
        row = [ZERO] * nvar
        for j, e in enumerate(edges):
            if e.head == v:
                row[j] += 1
                row[k + j] -= 1
            if e.tail == v:
                row[j] -= 1
                row[k + j] += 1
        rows.append(row)
        rhs.append(m.coeffs.get(v, ZERO))
    cost = [Fraction(1)] * nvar
    value, _ = solve_standard_exact(rows, rhs, cost)
    return value


def clipped_witness_value(space: MetricSpace, p: str, q: str) -> Fraction:
    """Pair the molecule 1_p - 1_q with f = max(d(p,q) - d(., p), 0).

    The function is 1-Lipschitz, so the pairing certifies the norm from
    below; it evaluates to d(p, q).
    """
    dpq = space.d(p, q)
    f = {x: max(dpq - space.d(x, p), ZERO) for x in space.points}
    # check 1-Lipschitz explicitly
    pts = list(space.points)
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            assert abs(f[a] - f[b]) <= space.d(a, b)
    return f[p] - f[q]


def plan_is_valid(space: MetricSpace, m: Molecule, plan) -> bool:
    """Moves must realize the molecule: net outflow equals the coefficient."""
    net = {p: ZERO for p in space.points}
    cost = ZERO
    for p, q, mass in plan.moves:
        if mass <= 0:
            return False
        net[p] += mass
        net[q] -= mass
        cost += mass * space.d(p, q)
    for p in space.points:
        if net[p] != m.coeffs.get(p, ZERO):
            return False
    return cost == plan.cost


def fraction_haar_coefficients(values) -> dict:
    """Haar expansion {flat index: coefficient} of Fraction cell values on
    a grid of 2^R cells: one pass of pairwise averages and half
    differences per level, finest first."""
    coeffs = {}
    cur = [Fraction(v) for v in values]
    level = len(cur).bit_length() - 2
    while len(cur) > 1:
        nxt = []
        for j in range(0, len(cur), 2):
            diff = (cur[j] - cur[j + 1]) / 2
            if diff:
                coeffs[2 ** level + j // 2] = diff
            nxt.append((cur[j] + cur[j + 1]) / 2)
        cur = nxt
        level -= 1
    if cur[0]:
        coeffs[0] = cur[0]
    return coeffs


def graph_to_dyadic(x: EdgeVector, n: int) -> haar_system.DyadicVector:
    """Edge vector on D_n -> its grid vector of 4^n cells, the cell of an
    edge holding 4^n times its coefficient, built from Fractions."""
    return _dense_cells(x, 4 ** n, lambda eid: haar_system.diamond_cell_index(eid, n))


def multibranch_graph_to_dyadic(x: EdgeVector, n: int, k: int) -> haar_system.DyadicVector:
    """Edge vector on D_{n,k} -> its grid vector of (2k)^n cells."""
    return _dense_cells(x, (2 * k) ** n,
                        lambda eid: haar_system.multibranch_cell_index(eid, n, k))


def _dense_cells(x, cells, cell):
    vals = [ZERO] * cells
    for eid, c in x.coeffs.items():
        vals[cell(eid)] = cells * c
    den = lcm(*(v.denominator for v in vals))
    return haar_system.DyadicVector(tuple(int(v * den) for v in vals), den)


def fraction_orthogonal_projection(basis_cols) -> list:
    """B (B^T B)^-1 B^T over Fractions for the given columns of B, by dense
    products and one Gram solve (SingularGram for dependent columns)."""
    b = [[Fraction(col[i]) for col in basis_cols] for i in range(len(basis_cols[0]))]
    bt = linalg.transpose(b)
    return linalg.mat_mul(b, fraction_solve(linalg.mat_mul(bt, b), bt))


def dense_orthogonal_projection(vectors) -> list:
    """B (B^T B)^-1 B^T for the grid vectors as the columns of B."""
    return fraction_orthogonal_projection([v.values for v in vectors])


def dense_linf(p) -> Fraction:
    """Max absolute row sum of a dense matrix."""
    return max(sum((abs(x) for x in row), start=ZERO) for row in p)


def all_vectors_bm_upper(graph, cut_vectors) -> Fraction:
    """max_e sum_w |w[e]| q(w) / <w, w> with one quotient norm per cut
    vector (no symmetry reduction and no checks)."""
    from freelip.cyclespace import quotient_norm

    sums = {}
    for w in cut_vectors:
        scale = quotient_norm(w) / sum((v * v for v in w.coeffs.values()), start=ZERO)
        for e, v in w.coeffs.items():
            sums[e] = sums.get(e, ZERO) + abs(v) * scale
    return max(sums.values())


def orbit_bm_upper(graph, cut_vectors, generators) -> tuple:
    """(||T|| ||T^-1||, ||T||, ||T^-1||) for the coset basis map, with one
    quotient norm per orbit of cut vectors under edge bijections.

    The reference for freelip.projections.bm_upper_via_basis_map.  The cut
    vectors must be nonzero, pairwise orthogonal and gradients (one walk
    down the BFS tree per orbit finds the potential).  generators are edge
    bijections given by the edges they move, such as the cycle-preserving
    bijections of symmetry.invariance_generators.  When sigma w = +-w' for
    two cut vectors, exactly and not only up to a factor, w and w' join one
    orbit (union-find), and the quotient norm and the gradient check run
    once per orbit.  Every generator must be an edge bijection
    (symmetry.moved_edges) that maps each cut vector to +- a cut vector and
    every fundamental cycle to a zero-boundary vector; ValidationError
    otherwise.  Nothing checks that the vectors span a complement of Z.
    """
    # Each vector as (d, integers over d) with d the lcm of its denominators:
    # a bijection keeps d, so sigma w = +-w' exactly when the pairs agree.
    keyed = []
    for w in cut_vectors:
        if w.graph is not graph and w.graph != graph:
            raise ValidationError("cut vector lives on a different graph")
        den = lcm(*(v.denominator for v in w.coeffs.values()))
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

    # Per generator sigma, only what meets the edges it moves is checked.
    # sigma fixes a cut vector w with w[sigma e] = w[e] on every moved edge
    # e of supp w; only the other cut vectors are mapped.  A fundamental
    # cycle z has zero boundary, so sigma z has the boundary of sigma z - z,
    # the sum of z[e] (boundary(sigma e) - boundary(e)) over the moved edges.
    cycles_at: dict[str, list[tuple[int, int]]] = {}      # edge -> [(cycle, sign)]
    for c, z in enumerate(fundamental_cycle_basis(graph).vectors):
        for e, v in z.coeffs.items():
            cycles_at.setdefault(e, []).append((c, int(v)))
    for sigma in generators:
        moved = moved_edges(graph, sigma, "generator")
        for i in {i for e, f in moved.items()
                  for i, x in cuts_at.get(e, ()) if keyed[i][1].get(f) != x}:
            den, w = keyed[i]
            j = index.get((den, frozenset((moved.get(e, e), v) for e, v in w.items())))
            if j is None:
                raise ValidationError("generator maps a cut vector to no cut vector up to sign")
            a, b = find(i), find(j)
            root[max(a, b)] = min(a, b)
        net: dict[tuple[int, str], int] = {}            # (cycle, vertex) -> boundary
        for e, f in moved.items():
            src, dst = graph.edge_by_id[e], graph.edge_by_id[f]
            for c, v in cycles_at.get(e, ()):
                for vertex, sign in ((dst.head, v), (dst.tail, -v), (src.head, -v), (src.tail, v)):
                    net[c, vertex] = net.get((c, vertex), 0) + sign
        if any(net.values()):
            raise ValidationError("generator does not map the cycle space onto itself")

    parent_edge = spanning_tree(graph)[1]
    tree = {e.id for e in parent_edge.values()}
    chords = [e for e in graph.edges if e.id not in tree]

    def is_gradient(w):                 # on the integer form of a vector
        psi = {graph.bottom: 0}
        for v, e in parent_edge.items():   # BFS order: parents come first
            psi[v] = psi[e.tail] + w.get(e.id, 0) if e.head == v else psi[e.head] - w.get(e.id, 0)
        return all(w.get(e.id, 0) == psi[e.head] - psi[e.tail] for e in chords)

    # With w_i = W_i / d_i, ||T e_e||_1 = sum_i |W_i[e]| q_i d_i / <W_i, W_i>;
    # the vectors of an orbit share d_i, <W_i, W_i> and q_i.
    scale = {}                          # orbit root -> q_r d_r / <W_r, W_r>
    for i in range(len(keyed)):
        r = find(i)
        if r not in scale:
            den, w = keyed[r]
            if not is_gradient(w):
                raise ValidationError("T does not vanish on the cycle space")
            scale[r] = cyclespace.quotient_norm(cut_vectors[r]) * den / sum(v * v for v in w.values())
    sums = {}
    for i, (_, w) in enumerate(keyed):
        for e, v in w.items():
            sums[e] = sums.get(e, ZERO) + abs(v) * scale[find(i)]
    t_norm = max(sums.values(), default=ZERO)
    return t_norm, t_norm, ONE


def on_edges(graph, vectors, cell) -> list:
    """Grid vectors as edge vectors: edge e takes the value of cell(e.id)."""
    cells = {e.id: cell(e.id) for e in graph.edges}
    return [EdgeVector(graph, {e: values[t] for e, t in cells.items()})
            for values in (v.values for v in vectors)]


def integer_maps(vectors) -> list:
    """Edge vectors as the sparse integer maps {edge id: value} that
    bm_upper_via_basis_map takes: each one's values over the lcm of its
    denominators, so up to a positive factor."""
    out = []
    for w in vectors:
        den = lcm(*(v.denominator for v in w.coeffs.values()))
        out.append({e: int(v * den) for e, v in w.coeffs.items()})
    return out


def level_indices(level: int) -> list[int]:
    """Flat indices of H_level (with H_{-1} = {h_0})."""
    if level == -1:
        return [0]
    return list(range(2 ** level, 2 ** (level + 1)))


def level_span_vectors(levels, resolution: int) -> list:
    """The Haar functions of the given levels (-1 for h_0) on 2^resolution
    cells, level by level."""
    return [haar_system.haar(i, resolution) for lev in sorted(levels) for i in level_indices(lev)]


def reflection(i: int, resolution: int) -> list:
    """Index map of the Haar reflection g_i (i >= 1) on 2^resolution cells,
    which swaps the two halves of supp h_i: it negates h_i and fixes the
    h_j whose supports contain it or miss it.  ValidationError for i < 1,
    ResolutionTooCoarse unless h_i lives on the grid."""
    if i < 1:
        raise ValidationError("g_i is defined for i >= 1")
    level = i.bit_length() - 1
    if level + 1 > resolution:
        raise ResolutionTooCoarse(f"g_{i} needs resolution >= {level + 1}")
    block = 2 ** (resolution - level)
    half = block // 2
    start = (i - 2 ** level) * block
    perm = list(range(2 ** resolution))
    for t in range(start, start + half):
        perm[t], perm[t + half] = perm[t + half], perm[t]
    return perm


def diamond_cut_vectors(n: int) -> list:
    """h_0 and the odd Haar levels 1, 3, ..., 2n-1 on 4^n cells."""
    return level_span_vectors([-1] + [2 * k - 1 for k in range(1, n + 1)], 2 * n)


def fraction_cut_column_norm(n: int) -> Fraction:
    """sum |P e_0| for the orthogonal projection P onto the cut space of
    D_n, as the Fraction sum of w[0] w / <w, w> over every cut vector."""
    col = [ZERO] * 4 ** n
    for w in diamond_cut_vectors(n):
        vals = w.values
        if vals[0]:
            weight = vals[0] / sum(x * x for x in vals)
            col = [c + weight * x for c, x in zip(col, vals)]
    return sum((abs(c) for c in col), start=ZERO)


def dense_multibranch_analysis(n: int, k: int) -> dict:
    """The multibranch data by the dense projection: P fixes the cut
    vectors and kills the cycle images, P e_1 is a matrix-vector product,
    and the upper bound runs one quotient norm per cut vector."""
    cells = (2 * k) ** n
    cut = haar_system.multibranch_cut_basis(n, k)
    p = dense_orthogonal_projection(cut)
    g = multidiamond(n, k)
    cycle_imgs = [multibranch_graph_to_dyadic(v, n, k)
                  for v in fundamental_cycle_basis(g).vectors]
    assert all(mat_vec(p, list(w.values)) == list(w.values) for w in cut)
    assert not any(any(mat_vec(p, list(z.values))) for z in cycle_imgs)
    e1 = [ZERO] * cells
    e1[0] = Fraction(cells)
    pe1 = mat_vec(p, e1)
    cell = lambda eid: haar_system.multibranch_cell_index(eid, n, k)   # noqa: E731
    return {
        "cut_basis": [list(w.values) for w in cut],
        "projection": p,
        "witness_vector": pe1,
        "witness_value": sum((abs(x) for x in pe1), start=ZERO) / cells,
        "linf_bound": dense_linf(p),
        "bm_lower": Fraction((k - 1) * n, 2 * k),
        "bm_upper": all_vectors_bm_upper(g, on_edges(g, cut, cell)),
        "cycle_dim": len(cycle_imgs),
    }


def even_level_span_dense(n: int) -> bool:
    """Span equality of Z(D_n) and the even Haar levels, densely.

    The cycle basis has (4^n - 1)/3 vectors, as many as the even levels, so
    equality holds when every cycle image is orthogonal to h_0 and to every
    odd-level Haar function on the grid of 4^n cells.
    """
    basis = fundamental_cycle_basis(diamond(n))
    if len(basis.vectors) != (4 ** n - 1) // 3:
        return False
    complement = [haar_system.haar(0, 2 * n)]
    for k in range(1, n + 1):
        complement.extend(haar_system.haar(i, 2 * n)
                          for i in level_indices(2 * k - 1))
    return all(graph_to_dyadic(vec, n).inner(h) == 0
               for vec in basis.vectors for h in complement)


def dense_commutes(p, g) -> bool:
    """P g = g P by two dense matrix products."""
    return linalg.mat_mul(p, g) == linalg.mat_mul(g, p)


def fraction_cycle_certificate(graph, p) -> tuple[bool, bool]:
    """(P z = z for every fundamental cycle z, every column of P has zero
    boundary) by dense Fraction products and one boundary per column."""
    fixes = all(mat_vec(p, z.dense()) == z.dense() for z in fundamental_cycle_basis(graph).vectors)
    in_z = all(not boundary(EdgeVector(graph, {e.id: row[j] for e, row in zip(graph.edges, p)})).coeffs
               for j in range(len(p)))
    return fixes, in_z


def full_invariance_generators(profile, n: int, graph: TwoPoleGraph) -> dict:
    """The invariance generators as full {edge id: image} maps over every
    edge of graph: the vertical automorphism, then every nontrivial
    horizontal applied to the id segment at each depth of every edge whose
    earlier segments spell the copy's prefix."""
    b = profile.graph
    gens = {"v": vertical_automorphism(profile, n)}
    nontrivial = [s for s in profile.horizontals if any(s[v] != v for v in b.vertices)]
    base_ids = sorted(e.id for e in b.edges)
    for gi, sigma in enumerate(nontrivial):
        emap = edge_map_from_vertex_map(b, sigma)
        for depth in range(1, n + 1):
            for prefix in itertools.product(*([base_ids] * (depth - 1))):
                pref = "/".join(prefix)

                def apply(eid, emap=emap, depth=depth, pref=pref):
                    segs = eid.split("/")
                    if "/".join(segs[:depth - 1]) != pref:
                        return eid
                    segs[depth - 1] = emap[segs[depth - 1]]
                    return "/".join(segs)

                name = f"h{gi}@{pref}" if pref else f"h{gi}"
                gens[name] = {e.id: apply(e.id) for e in graph.edges}
    return gens


def dense_annihilation_failures(p, profile, n, graph):
    """None if P fails to commute with an invariance generator (two dense
    products each), else the indices of the c-type vectors that P, as a
    dense Fraction product, does not send to 0."""
    for emap in invariance_generators(profile, n, graph).values():
        if not dense_commutes(p, edge_map_matrix(graph, emap)):
            return None
    return [i for i, f in enumerate(c_type_vectors(profile, n, graph)) if any(mat_vec(p, f.dense()))]


def dense_generate_group(generators: list, cap: int) -> list:
    """Breadth-first closure of exact matrices under multiplication on the
    right by each generator, starting from the identity."""
    def key(mat):
        return tuple(tuple(row) for row in mat)

    ident = linalg.identity(len(generators[0]))
    seen = {key(ident): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in generators:
                prod = linalg.mat_mul(a, g)
                k = key(prod)
                if k not in seen:
                    if len(seen) >= cap:
                        raise GroupClosureOverflow(f"group closure exceeds cap {cap}")
                    seen[k] = prod
                    nxt.append(prod)
        frontier = nxt
    return list(seen.values())


def dense_average_projection(p: list, group_elements: list) -> list:
    """(1/|G|) sum g^{-1} P g with dense products and inverses, after
    checking P g P = g P for every element."""
    for g in group_elements:
        gp = linalg.mat_mul(g, p)
        if linalg.mat_mul(p, gp) != gp:
            raise NotInvariantSubspace("a group element moves the range of P")
    acc = linalg.zeros(len(p), len(p))
    for g in group_elements:
        acc = mat_add(acc, linalg.mat_mul(fraction_inverse(g), linalg.mat_mul(p, g)))
    count = Fraction(len(group_elements))
    return [[x / count for x in row] for row in acc]


def elementary_molecule(p: str, q: str) -> Molecule:
    """The molecule with +1 at p and -1 at q, for distinct points."""
    return Molecule({p: Fraction(1), q: Fraction(-1)})


def kruskal_mst(space: MetricSpace) -> TwoPoleGraph:
    """Minimum spanning tree by sorted edge insertion (union-find), pairs
    ordered by (distance, points[i], points[j]) with i < j."""
    pts = list(space.points)
    dist, den = space.rows, space.den
    pairs = sorted(
        (dist[i][j], p, pts[j], i, j)
        for i, p in enumerate(pts) for j in range(i + 1, len(pts))
    )
    root = {p: p for p in pts}

    def find(p):
        while root[p] != p:
            root[p] = root[root[p]]
            p = root[p]
        return p

    edges = []
    for _, p, q, i, j in pairs:
        rp, rq = find(p), find(q)
        if rp != rq:
            root[rp] = rq
            edges.append(Edge(f"{p}--{q}", p, q, Fraction(dist[i][j], den)))
            if len(edges) == len(pts) - 1:
                break
    return TwoPoleGraph(tuple(pts), tuple(edges), pts[-1], pts[0])


def tree_sides(tree: TwoPoleGraph) -> tuple[set, set]:
    """The two colour classes of a tree, the first holding vertices[0], by
    a breadth-first walk."""
    color = {tree.vertices[0]: 0}
    frontier = [tree.vertices[0]]
    while frontier:
        nxt = []
        for u in frontier:
            for w in tree.adjacency[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    nxt.append(w)
        frontier = nxt
    side0 = {v for v, c in color.items() if c == 0}
    return side0, set(color) - side0


def kruskal_half_dim_embedding(space: MetricSpace):
    """half_dim_embedding's selection on the Kruskal tree: the larger side,
    at a tie the one holding the least name, with nearest partners on the
    other side."""
    side0, side1 = tree_sides(kruskal_mst(space))
    if len(side0) > len(side1) or (len(side0) == len(side1) and min(side0) < min(side1)):
        return large_embedding(space, sorted(side0))
    return large_embedding(space, sorted(side1))


def transport_projection_norm(space: MetricSpace, ys, partners) -> Fraction:
    """max over pairs p, q of ||P(1_p - 1_q)|| / d(p, q), one exact
    transportation simplex per image; P m is the sum over selected points
    y of m(y) (1_y - 1_{partner(y)})."""
    selected = set(ys)
    best = ZERO
    pts = list(space.points)
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            image: dict = {}
            for y, v in ((p, ONE), (q, -ONE)):
                if y in selected:
                    x = partners[y]
                    image[y] = image.get(y, ZERO) + v
                    image[x] = image.get(x, ZERO) - v
            value, _ = ae_norm(space, Molecule(image))
            best = max(best, value / space.d(p, q))
    return best


def fraction_graph_metric(g) -> tuple[tuple[Fraction, ...], ...]:
    """Shortest-path distance rows of a graph, in vertex order, ignoring
    edge directions, with Fraction distances throughout: BFS adds 1 to
    Fraction levels for unit weights, and Dijkstra pushes Fraction keys
    through its heap otherwise."""
    verts = list(g.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    adj = [[] for _ in verts]
    unit = True
    for e in g.edges:
        w = to_fraction(e.weight)
        if w != 1:
            unit = False
        adj[idx[e.tail]].append((idx[e.head], w))
        adj[idx[e.head]].append((idx[e.tail], w))
    n = len(verts)
    dist = [[None] * n for _ in range(n)]
    for s in range(n):
        d = [None] * n
        if unit:
            d[s] = ZERO
            frontier = [s]
            while frontier:
                nxt = []
                for u in frontier:
                    for v, _ in adj[u]:
                        if d[v] is None:
                            d[v] = d[u] + 1
                            nxt.append(v)
                frontier = nxt
        else:
            heap = [(ZERO, s)]
            while heap:
                du, u = heapq.heappop(heap)
                if d[u] is not None:
                    continue
                d[u] = du
                for v, w in adj[u]:
                    if d[v] is None:
                        heapq.heappush(heap, (du + w, v))
        if any(x is None for x in d):
            missing = verts[d.index(None)]
            raise DisconnectedGraph(f"vertex {missing!r} unreachable from {verts[s]!r}")
        dist[s] = d
    return tuple(tuple(row) for row in dist)


def fraction_tensor_l1(tv) -> Fraction:
    """l1 norm of a TensorVector by a level-wise DP over Fraction states:
    each state is every term's product so far, counted once per prefix of
    edges that reaches it, with no rescaling or merging of columns."""
    if not tv.terms:
        return ZERO
    nedges = len(tv.base.edges)
    states = {tuple(c for c, _ in tv.terms): 1}
    for pos in range(tv.level):
        cols = [tuple(fs[pos][e] for _, fs in tv.terms) for e in range(nedges)]
        nxt = {}
        for state, count in states.items():
            for col in cols:
                ns = tuple(s * c for s, c in zip(state, col))
                if any(ns):
                    nxt[ns] = nxt.get(ns, 0) + count
        states = nxt
    total = ZERO
    for state, count in states.items():
        total += count * abs(sum(state))
    return total


def fraction_tensor_materialize(tv, graph: TwoPoleGraph) -> EdgeVector:
    """Flat edge vector of a TensorVector, expanding each term prefix by
    prefix in Fractions and summing the terms entry by entry."""
    ids = sorted(e.id for e in tv.base.edges)
    coeffs = {}
    for c, fs in tv.terms:
        partial = {"": c}
        for factor in fs:
            nxt = {}
            for prefix, v in partial.items():
                for i, eid in enumerate(ids):
                    if factor[i] and v:
                        nxt[f"{prefix}/{eid}" if prefix else eid] = v * factor[i]
            partial = nxt
        for eid, v in partial.items():
            coeffs[eid] = coeffs.get(eid, ZERO) + v
    return EdgeVector(graph, {k: v for k, v in coeffs.items() if v != 0})


def is_idempotent(a) -> bool:
    """P P = P by one dense product."""
    return linalg.mat_mul(a, a) == a


def dense_min_proj_split_rows(bcols: list):
    """(A_ub, b_ub, A_eq, b_eq, bounds) of the split-form LP min t s.t.
    A B = I, (B A)_ij - P+_ij + P-_ij = 0, sum_i (P+_ij + P-_ij) <= t, as
    dense float64 arrays over the variables A (k x m, free), P+ and P-
    (m x m, >= 0) and t (>= 0)."""
    m = len(bcols[0])
    k = len(bcols)
    bmat = np.array([[float(col[i]) for col in bcols] for i in range(m)])
    na = k * m
    plus, minus, t = na, na + m * m, na + 2 * m * m
    nv = t + 1
    rows_eq, rhs_eq = [], []
    for l in range(k):
        for lp in range(k):
            row = np.zeros(nv)
            for j in range(m):
                row[l * m + j] = bmat[j][lp]
            rows_eq.append(row)
            rhs_eq.append(1.0 if l == lp else 0.0)
    for i in range(m):
        for j in range(m):
            row = np.zeros(nv)
            for l in range(k):
                row[l * m + j] = bmat[i][l]
            row[plus + i * m + j] = -1.0
            row[minus + i * m + j] = 1.0
            rows_eq.append(row)
            rhs_eq.append(0.0)
    rows_ub = []
    for j in range(m):
        row = np.zeros(nv)
        for i in range(m):
            row[plus + i * m + j] = 1.0
            row[minus + i * m + j] = 1.0
        row[t] = -1.0
        rows_ub.append(row)
    bounds = [(-np.inf, np.inf)] * na + [(0.0, np.inf)] * (nv - na)
    return (np.array(rows_ub), np.zeros(m), np.array(rows_eq), np.array(rhs_eq),
            np.array(bounds))


def dense_min_proj_standard_form(bcols: list):
    """(a, b, c) of the same LP in standard form over Q: A = A+ - A-,
    columns A+, A-, s, t, a slack per column-sum row, then a slack per
    entry row; rows A B = I, the column sums, then the entry rows."""
    m = len(bcols[0])
    k = len(bcols)
    b = [[col[i] for col in bcols] for i in range(m)]
    na = k * m
    ns = m * m
    nv = 2 * na + ns + 1 + m
    a_rows, rhs = [], []
    for l in range(k):
        for lp in range(k):
            row = [ZERO] * nv
            for j in range(m):
                row[l * m + j] = b[j][lp]
                row[na + l * m + j] = -b[j][lp]
            a_rows.append(row)
            rhs.append(Fraction(1 if l == lp else 0))
    extra = []
    for i in range(m):
        for j in range(m):
            for sign in (1, -1):
                row = [ZERO] * nv
                for l in range(k):
                    row[l * m + j] = sign * b[i][l]
                    row[na + l * m + j] = -sign * b[i][l]
                row[2 * na + i * m + j] = Fraction(-1)
                extra.append(row)
    for j in range(m):
        row = [ZERO] * nv
        for i in range(m):
            row[2 * na + i * m + j] = Fraction(1)
        row[2 * na + ns] = Fraction(-1)
        row[2 * na + ns + 1 + j] = Fraction(1)
        a_rows.append(row)
        rhs.append(ZERO)
    n_extra = len(extra)
    final_rows = [row + [ZERO] * n_extra for row in a_rows]
    for idx, row in enumerate(extra):
        slack = [ZERO] * n_extra
        slack[idx] = Fraction(1)
        final_rows.append(row + slack)
    cost = [ZERO] * (nv + n_extra)
    cost[2 * na + ns] = Fraction(1)
    return final_rows, rhs + [ZERO] * n_extra, cost


def merged_rows(b: list) -> tuple:
    """(rows, cls, s, w) for the m rows b of a basis: the nonzero rows
    grouped by the ray they span, in order of first appearance.  Row b_i is
    s_i r_c, with r_c the primitive integer vector on its ray whose first
    nonzero entry is positive; w_c is the sum of |s_i| over class c, and
    class c's row is w_c r_c.  cls[i] is None and s[i] is 0 on a zero
    row."""
    rays, rows, w, cls, s = {}, [], [], [], []
    for row in b:
        row = [Fraction(x) for x in row]
        lead = next((x for x in row if x), None)
        if lead is None:
            cls.append(None)
            s.append(ZERO)
            continue
        unit = [x / lead for x in row]
        den = lcm(*(x.denominator for x in unit))
        ray = tuple(int(x * den) for x in unit)    # primitive: unit has a 1
        c = rays.setdefault(ray, len(rays))
        if c == len(w):
            w.append(ZERO)
        w[c] += abs(lead / den)
        cls.append(c)
        s.append(lead / den)
    return [[wc * x for x in ray] for ray, wc in zip(rays, w)], cls, s, w


def north_west(supply, demand):
    """North-west-corner start for simplex.transportation, which ignores the
    costs: the flows of arcs i nd + j and the staircase of ns + nd - 1 tree
    arcs.

    When a row and a column run out together only the row advances, so the
    next cell carries a zero flow and the basis stays a spanning tree.
    """
    ns, nd = len(supply), len(demand)
    flow, tree = [0] * (ns * nd), []
    i = j = 0
    ra, rb = supply[0], demand[0]
    while True:
        q = min(ra, rb)
        flow[i * nd + j] = q
        tree.append(i * nd + j)
        ra -= q
        rb -= q
        if i == ns - 1 and j == nd - 1:
            return flow, tree
        if (ra == 0 and i < ns - 1) or j == nd - 1:
            i += 1
            ra = supply[i]
        else:
            j += 1
            rb = demand[j]


# The network simplex with a whole-tree walk and a full pricing pass on every
# pivot.  Same pricing and leaving rules as simplex._network_simplex, so the
# same pivots; the tests set _BLAND_AFTER here and there together.
_BLAND_AFTER = 2000
_MAX_ITER = 200000


def _full_walk_tree_pivot(tails, heads, flow, adj, parent, parc, depth, a_in):
    """Bring arc a_in into the tree; return the step theta (0 if degenerate).

    Flow runs along a_in and back from its head to its tail on the tree
    path: it rises on the path arcs oriented along that cycle and falls on
    the others.  Among the falling arcs at the minimum flow the smallest
    index leaves, so with first-negative entering this is Bland's rule.
    """
    rising, falling = [], []
    a, b = heads[a_in], tails[a_in]
    while a != b:
        if depth[a] >= depth[b]:
            arc, x, a = parc[a], a, parent[a]
        else:
            arc, x, b = parc[b], parent[b], parent[b]
        (rising if tails[arc] == x else falling).append(arc)
    theta, leave = min((flow[arc], arc) for arc in falling)
    for arc in rising:
        flow[arc] += theta
    for arc in falling:
        flow[arc] -= theta
    flow[a_in] = theta
    adj[tails[leave]].remove(leave)
    adj[heads[leave]].remove(leave)
    adj[tails[a_in]].append(a_in)
    adj[heads[a_in]].append(a_in)
    return theta


def full_walk_network_simplex(n, tails, heads, cost, flow, tree, outs, ins):
    """Min-cost flow on nodes 0..n-1 from a feasible spanning tree; returns
    the optimal potentials phi and leaves the optimal flow in flow.

    Arc a runs tails[a] -> heads[a] at integer cost[a] and carries
    flow[a] >= 0, zero off the n - 1 tree arcs listed in tree.  Each pivot
    finds phi(head) - phi(tail) = cost on every tree arc, phi[0] = 0, by one
    tree walk, and prices every arc at cost - phi(head) + phi(tail): the
    most negative enters (the first at a tie), or after _BLAND_AFTER pivots
    the first negative one, which with _tree_pivot's leaving rule cannot
    cycle.  The costs must admit no negative cycle.  It reads no per-node
    arc lists; outs and ins, those of simplex._network_simplex, are only
    checked to list each node's out-arcs and in-arcs in increasing order.
    """
    expect_outs, expect_ins = [[] for _ in range(n)], [[] for _ in range(n)]
    for a, (t, h) in enumerate(zip(tails, heads)):
        expect_outs[t].append(a)
        expect_ins[h].append(a)
    if list(map(list, outs)) != expect_outs or list(map(list, ins)) != expect_ins:
        raise AssertionError("outs and ins do not list each node's arcs")
    adj = [[] for _ in range(n)]
    for a in tree:
        adj[tails[a]].append(a)
        adj[heads[a]].append(a)
    arcs = list(zip(tails, heads, cost))
    it = 0
    while True:
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
        it += 1
        if it > _MAX_ITER:
            raise SolverFailure("network simplex iteration limit exceeded")
        reduced = [c - phi[h] + phi[t] for t, h, c in arcs]
        if it > _BLAND_AFTER:
            a_in = next((a for a, r in enumerate(reduced) if r < 0), None)
        else:
            best = min(reduced, default=0)
            a_in = reduced.index(best) if best < 0 else None
        if a_in is None:
            return phi
        _full_walk_tree_pivot(tails, heads, flow, adj, parent, parc, depth, a_in)


def validate_two_pole_graph(vertices, edges, top, bottom) -> None:
    """The two-pole graph checks on vertex names, in the library's order;
    raises ValidationError with the library's message (weights unchecked)."""
    vset = set(vertices)
    if len(vset) != len(vertices):
        raise ValidationError("duplicate vertex names")
    if top == bottom:
        raise ValidationError("top and bottom must differ")
    if top not in vset or bottom not in vset:
        raise ValidationError("poles must be vertices")
    seen_ids = set()
    seen_pairs = set()
    for e in edges:
        if e.tail == e.head:
            raise ValidationError(f"self-loop at {e.tail!r}")
        if e.tail not in vset or e.head not in vset:
            raise ValidationError(f"edge {e.id!r} has unknown endpoint")
        if e.id in seen_ids:
            raise ValidationError(f"duplicate edge id {e.id!r}")
        pair = frozenset((e.tail, e.head))
        if pair in seen_pairs:
            raise ValidationError(f"parallel edge between {e.tail!r} and {e.head!r}")
        seen_ids.add(e.id)
        seen_pairs.add(pair)
    adj = {v: [] for v in vertices}
    for e in edges:
        adj[e.tail].append(e.head)
        adj[e.head].append(e.tail)
    seen = {bottom}
    stack = [bottom]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != len(vertices):
        raise ValidationError("graph is not connected")


def fraction_random_metric_space(rng, n: int) -> MetricSpace:
    """randgen.random_metric_space with its closure run on Fractions."""
    d = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = Fraction(rng.randint(2, 12), rng.randint(1, 3))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return validate_metric(d)
