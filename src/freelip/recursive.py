"""Structure theory of recursive two-pole families: base-graph profiles,
the seven admissibility conditions, annihilation checks for invariant
projections, the norm-growth witness construction, and the non-unique
invariant projection on the level-2 Laakso graph.

Witness vectors live on graphs whose edge count grows like |E(B)|^n, far
past what a dense vector can hold, so they are kept as short sums of
elementary tensor products of base-graph vectors (one factor per recursion
level).  Exact l1 norms of such sums come from a level-by-level dynamic
program over integer coefficient states: coefficients and each level's
factors are scaled over their common denominators, equal columns of a
level are merged, and each state is kept up to a positive integer factor
(divided by its gcd, the gcd moved into its weight), with one division by
the total scale at the end.  TensorVector.l1 runs it on any sum, with one
state coordinate per term; witness runs it on two coordinates, the sum of
the C terms and the C + A term, over all its rounds in one pass.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul

from . import linalg, projections, symmetry
from .cyclespace import (EdgeVector, fundamental_cycle_basis, fundamental_cycles_as_walks,
                         up_down_decomposition)
from .errors import ResourceLimit, ValidationError
from .graphs import TwoPoleGraph, automorphism_search, laakso, laakso_base, recursive_family
from .metric import graph_metric
from .rational import ZERO, num_to_json
from .symmetry import invariance_generators

GEODESIC_CAP = 10 ** 5          # bottom-top paths enumerated per base graph
MATERIALIZE_CAP = 2 * 10 ** 5
WITNESS_LEVEL_CAP = 40          # recursion depth of the witness vectors


# ---------------------------------------------------------------------------
# Base-graph profile
# ---------------------------------------------------------------------------

@dataclass
class BaseGraphProfile:
    graph: TwoPoleGraph
    height: int                       # bottom-top distance D
    geodesic_count: int               # K
    delta: EdgeVector                 # averaged geodesic indicator, norm 1
    c: EdgeVector                     # signed delta: + on top half, - on bottom half
    d: EdgeVector                     # (1/D) 1_p - delta for the maximizing geodesic
    alpha: Fraction                   # ||d||_1
    vertical_edges: dict              # induced edge bijection
    horizontals: list[dict]           # all pole-fixing vertex automorphisms


def enumerate_geodesics(g: TwoPoleGraph) -> list[list[str]]:
    """All bottom-top geodesics as edge-id walks (distance-pruned DFS)."""
    space = graph_metric(g)
    level = space.distances_from(g.top)
    step = space.den
    out: list[list[str]] = []

    def extend(v, walk):
        if v == g.top:
            out.append(list(walk))
            if len(out) > GEODESIC_CAP:
                raise ResourceLimit("geodesic enumeration cap exceeded")
            return
        for w in g.adjacency[v]:
            if level[w] == level[v] - step:
                walk.append(g.edge_by_pair[frozenset((v, w))].id)
                extend(w, walk)
                walk.pop()

    extend(g.bottom, [])
    out.sort()
    return out


def profile_base(b: TwoPoleGraph) -> BaseGraphProfile:
    """Compute D, K, delta, c, d, alpha and the distinguished automorphisms."""
    space = graph_metric(b)
    height = space.d(b.bottom, b.top)
    if height % 2 != 0:
        raise ValidationError(f"bottom-top distance {height} is odd")
    geos = enumerate_geodesics(b)
    k = len(geos)

    coeffs: dict[str, Fraction] = {}
    unit = Fraction(1, height * k)
    for walk in geos:
        for eid in walk:
            coeffs[eid] = coeffs.get(eid, ZERO) + unit
    delta = EdgeVector(b, coeffs)
    uncovered = [e.id for e in b.edges if e.id not in coeffs]
    if uncovered:
        raise ValidationError(f"edges not on any bottom-top geodesic: {uncovered}")

    half = height // 2 * space.den
    level = space.distances_from(b.bottom)
    c_coeffs = {}
    for eid, v in coeffs.items():
        e = b.edge_by_id[eid]
        c_coeffs[eid] = v if level[e.tail] >= half else -v
    c_vec = EdgeVector(b, c_coeffs)

    vertical_edges = next(symmetry.fixing_pole_swaps(b, automorphism_search(b, "swap-poles")),
                          None)
    if vertical_edges is None:
        raise ValidationError("no pole swap fixes the cycle space pointwise")

    horizontals = automorphism_search(b, "fix-poles")

    best = None
    inv_height = Fraction(1, height)
    for walk in geos:
        w = {eid: -v for eid, v in coeffs.items()}
        for eid in walk:
            w[eid] = w.get(eid, ZERO) + inv_height
        vec = EdgeVector(b, w)
        key = (-vec.l1(), tuple(walk))
        if best is None or key < best[0]:
            best = (key, vec)
    d_vec = best[1]
    alpha = d_vec.l1()
    if alpha == 0:
        raise ValidationError("only one bottom-top geodesic; d(B) vanishes")
    return BaseGraphProfile(b, height, k, delta, c_vec, d_vec, alpha,
                            vertical_edges, horizontals)


def _all_bottom_top_paths(g: TwoPoleGraph):
    """All simple bottom-top paths (any length), as vertex lists."""
    out = []

    def extend(v, seen, walk):
        if v == g.top:
            out.append(list(walk))
            if len(out) > GEODESIC_CAP:
                raise ResourceLimit("path enumeration cap exceeded")
            return
        for w in g.adjacency[v]:
            if w not in seen:
                seen.add(w)
                walk.append(w)
                extend(w, seen, walk)
                walk.pop()
                seen.discard(w)

    extend(g.bottom, {g.bottom}, [g.bottom])
    return out


def check_conditions(b: TwoPoleGraph) -> dict:
    """Per-item report on the seven base-graph conditions.

    Each entry carries a boolean and, where useful, a witness or
    counterexample.
    """
    space = graph_metric(b)
    height = space.d(b.bottom, b.top)
    report: dict[str, dict] = {}

    paths = _all_bottom_top_paths(b)
    lengths = sorted({len(p) - 1 for p in paths})
    geos = enumerate_geodesics(b)
    covered = {eid for walk in geos for eid in walk}
    item1_ok = lengths == [height] and height % 2 == 0 and len(covered) == len(b.edges)
    report["1_even_geodesics"] = {
        "ok": item1_ok,
        "height": height,
        "path_lengths": lengths,
        "uncovered_edges": sorted(e.id for e in b.edges if e.id not in covered),
    }

    to_top = space.distances_from(b.top)
    oriented = all(to_top[e.head] < to_top[e.tail] for e in b.edges)
    walks = fundamental_cycles_as_walks(b)
    two_blocks = all(up_down_decomposition([eid for eid, _ in w], b) for w in walks)
    report["2_orientation_updown"] = {"ok": oriented and two_blocks,
                                      "oriented_toward_top": oriented,
                                      "cycles_two_blocks": two_blocks}

    swaps = automorphism_search(b, "swap-poles")
    report["3_vertical_exists"] = {"ok": bool(swaps), "count": len(swaps)}

    basis = fundamental_cycle_basis(b)
    fixing = list(symmetry.fixing_pole_swaps(b, swaps))
    report["4_vertical_fixes_cycles"] = {"ok": bool(fixing) or not basis.vectors,
                                         "count": len(fixing)}

    try:
        prof = profile_base(b)
        delta_ok = prof.delta.l1() == 1
        vc = prof.c.permute(prof.vertical_edges)
        report["5_delta_and_c"] = {"ok": delta_ok and vc == -prof.c,
                                   "delta_norm_one": delta_ok,
                                   "v_negates_c": vc == -prof.c}
    except ValidationError as exc:
        prof = None
        report["5_delta_and_c"] = {"ok": False, "error": str(exc)}

    horizontals = [symmetry.edge_map_from_vertex_map(b, sigma)
                   for sigma in automorphism_search(b, "fix-poles")]
    # sum_j a_j z_j is fixed by every horizontal h when sum_j a_j (h z_j - z_j) = 0: the
    # fixed subspace has dimension k - rank of the rows (h z_j - z_j)_h (+-1 vectors z_j).
    rows = [{(h, e): int(x) for h, emap in enumerate(horizontals)
             for e, x in (z.permute(emap) - z).coeffs.items()} for z in basis.vectors]
    fixed_dim = len(rows) - len(linalg.echelon(rows)[0])
    c_fixed = prof is not None and all(prof.c.permute(emap) == prof.c for emap in horizontals)
    report["6_horizontal_group"] = {"ok": fixed_dim == 0 and c_fixed,
                                    "fixed_subspace_dim": fixed_dim,
                                    "c_fixed_by_all": c_fixed,
                                    "group_order": len(horizontals)}

    nontrivial = len(geos) >= 2
    report["7_nontrivial_cycles"] = {"ok": nontrivial,
                                     "geodesic_count": len(geos),
                                     "alpha": prof.alpha if prof else None}
    report["all_ok"] = all(v["ok"] for k, v in report.items() if k != "all_ok")
    return report


# ---------------------------------------------------------------------------
# Delta replicas
# ---------------------------------------------------------------------------

def delta_power(profile: BaseGraphProfile, m: int) -> dict[str, Fraction]:
    """Delta_m on the m-fold composition, keyed by slash-joined edge ids."""
    out = {"": Fraction(1)}
    for _ in range(m):
        nxt = {}
        for prefix, v in out.items():
            for fid, dv in profile.delta.coeffs.items():
                nxt[f"{prefix}/{fid}" if prefix else fid] = v * dv
        out = nxt
    return out


# ---------------------------------------------------------------------------
# Permutation matrices and the annihilation check
# ---------------------------------------------------------------------------

def edge_map_matrix(graph: TwoPoleGraph, emap: dict[str, str]) -> list:
    """Permutation matrix of an edge map (edge id -> image id, unlisted
    edges fixed); ValidationError unless it is an edge bijection."""
    return projections.permutation_matrix(symmetry.index_map(graph, emap))


def c_type_vectors(profile: BaseGraphProfile, n: int,
                   graph: TwoPoleGraph) -> list[EdgeVector]:
    """All c(B_1)-type vectors in the level-n graph: c on a level-1 copy,
    spread by delta replicas over copies of every level m <= n."""
    b = profile.graph
    base_ids = sorted(e.id for e in b.edges)
    out = []
    for m in range(1, n + 1):
        dpow = delta_power(profile, m - 1)
        for prefix in itertools.product(*([base_ids] * (n - m))):
            pref = "/".join(prefix)
            coeffs = {}
            for fid, cv in profile.c.coeffs.items():
                stem = f"{pref}/{fid}" if pref else fid
                for suffix, dv in dpow.items():
                    eid = f"{stem}/{suffix}" if suffix else stem
                    coeffs[eid] = cv * dv
            out.append(EdgeVector(graph, coeffs))
    return out


def annihilation_check(p: list, profile: BaseGraphProfile, n: int,
                       graph: TwoPoleGraph) -> dict:
    """Verify that a projection invariant under the generator set kills
    every c-type vector exactly.

    Both checks run on P's integer numerators: invariance compares
    permuted entries, and the image of each c-type vector, scaled to
    integers, is a sum of P's columns over its support.  Raises
    ValidationError unless P is square on the graph's edges, and if the
    supplied operator fails the invariance precondition for some generator.
    """
    if len(p) != len(graph.edges) or any(len(row) != len(p) for row in p):
        raise ValidationError("P is not square on the graph's edges")
    num, _ = linalg.integer_rows(p)
    gens = invariance_generators(profile, n, graph)
    symmetry.check_invariant(num, graph, gens)
    vectors = c_type_vectors(profile, n, graph)
    order = graph.edge_order
    cols = list(zip(*num))
    failures = []
    for i, f in enumerate(vectors):
        den = lcm(*(v.denominator for v in f.coeffs.values()))
        img = [0] * len(num)
        for eid, v in f.coeffs.items():
            c = v.numerator * (den // v.denominator)
            img = [a + c * x for a, x in zip(img, cols[order[eid]])]
        if any(img):
            failures.append(i)
    return {"generators_checked": sorted(gens),
            "c_type_count": len(vectors),
            "all_annihilated": not failures,
            "failures": failures}


# ---------------------------------------------------------------------------
# The norm-growth witness
# ---------------------------------------------------------------------------

@dataclass
class TensorVector:
    """Sum of elementary tensor products of base-edge vectors.

    terms: list of (coefficient, tuple of factor vectors), each factor a
    tuple of Fractions over the sorted base edge ids; level = number of
    factors.  Every term has the same number of factors and every factor
    one entry per base edge (ValidationError otherwise).  witness returns
    C_r and C_r + A_r in this form; their norms come from its own DP, and
    l1 is the general one, which the tests and the benchmark read.
    """

    base: TwoPoleGraph
    terms: list[tuple[Fraction, tuple[tuple[Fraction, ...], ...]]]

    def __post_init__(self):
        nedges = len(self.base.edges)
        level = self.level
        for _, fs in self.terms:
            if len(fs) != level:
                raise ValidationError("tensor terms have different numbers of factors")
            if any(len(f) != nedges for f in fs):
                raise ValidationError(f"a factor does not have one entry per base edge ({nedges})")

    @property
    def level(self) -> int:
        return len(self.terms[0][1]) if self.terms else 0

    def __add__(self, other: "TensorVector") -> "TensorVector":
        if other.base is not self.base and other.base != self.base:
            raise ValidationError("tensor vectors live on different base graphs")
        return TensorVector(self.base, self.terms + other.terms)

    def _scaled(self):
        """(den, coefficients, levels) over integers: the nonzero terms'
        coefficients and each level's factor entries scaled by their own
        least common denominators, with den the product of those.  levels[p]
        lists the factors of level p, one tuple of ints per kept term.
        Each distinct factor tuple (witness builds every term from the same
        five) is read once, over its own lcm, and lifted to each level's."""
        terms = [(c, fs) for c, fs in self.terms if c]
        if not terms:
            return 1, [], []
        den = lcm(*(c.denominator for c, _ in terms))
        coefs = [c.numerator * (den // c.denominator) for c, _ in terms]
        own = {id(f): f for _, fs in terms for f in fs}
        for key, f in own.items():
            d = lcm(*(x.denominator for x in f))
            own[key] = d, tuple(x.numerator * (d // x.denominator) for x in f)
        levels = []
        for pos in range(self.level):
            scaled = [own[id(fs[pos])] for _, fs in terms]
            d = lcm(*(fd for fd, _ in scaled))
            levels.append([nums if fd == d else tuple(x * (d // fd) for x in nums)
                           for fd, nums in scaled])
            den *= d
        return den, coefs, levels

    def l1(self) -> Fraction:
        """Exact l1 norm by a level-wise DP over integer coefficient states,
        for any sum of elementary tensors (one state coordinate per term).

        A state holds, for one prefix of edges, each term's product so far,
        scaled over the common denominators (see _scaled); equal columns of
        a level are merged and carry their multiplicity.  The remaining
        products are linear in the state and the final |sum of the state|
        is homogeneous, so each state is kept up to a positive integer
        factor: divided by its gcd, with the gcd moved into its weight.
        """
        den, coefs, levels = self._scaled()
        if not coefs:
            return ZERO
        g = gcd(*coefs)
        states = {tuple(c // g for c in coefs): g}
        for factors in levels:
            cols = Counter(zip(*factors))
            cols.pop((0,) * len(coefs), None)
            nxt: dict[tuple, int] = {}
            for state, weight in states.items():
                for col, mult in cols.items():
                    ns = tuple(map(mul, state, col))
                    g = gcd(*ns)
                    if g:
                        if g != 1:
                            ns = tuple(x // g for x in ns)
                        nxt[ns] = nxt.get(ns, 0) + weight * mult * g
            states = nxt
        total = sum(weight * abs(sum(state)) for state, weight in states.items())
        return Fraction(total, den)

    def materialize(self, graph: TwoPoleGraph) -> EdgeVector:
        """Flat edge vector; only for graphs under the materialization cap
        whose edge count is the base's to the tensor's level.

        Expands each level once, over the union of the terms' supports: the
        edge ids are extended by the base ids of that union (shared prefixes
        are built once), and each term keeps one list of integer products
        over the common denominator of _scaled.  The lists are summed entry
        by entry and one Fraction is made per distinct nonzero value.
        """
        if len(graph.edges) > MATERIALIZE_CAP:
            raise ResourceLimit("witness vector too large to materialize")
        nedges = len(self.base.edges)
        if self.terms and len(graph.edges) != nedges ** self.level:
            raise ValidationError(
                f"graph has {len(graph.edges)} edges, a level-{self.level} tensor "
                f"over {nedges} base edges needs {nedges ** self.level}")
        ids = sorted(e.id for e in self.base.edges)
        den, coefs, levels = self._scaled()
        if not coefs:
            return EdgeVector.of_nonzero(graph, {})
        keys, rows = [""], [[c] for c in coefs]
        for pos, factors in enumerate(levels):
            support = [i for i, col in enumerate(zip(*factors)) if any(col)]
            sep = "/" if pos else ""
            new_keys, new_rows = [], [[] for _ in rows]
            for i in support:
                new_keys += map(add, keys, itertools.repeat(sep + ids[i]))
                for new, row, factor in zip(new_rows, rows, factors):
                    new += map(factor[i].__mul__, row)
            keys, rows = new_keys, new_rows
        total = rows[0]
        for row in rows[1:]:
            total = list(map(add, total, row))
        frac = {v: Fraction(v, den) for v in set(total) if v}
        return EdgeVector.of_nonzero(graph, {key: frac[v] for key, v in zip(keys, total) if v})


@dataclass
class WitnessResult:
    base: TwoPoleGraph
    r: int
    level: int
    t_schedule: list[int]
    norm_c: Fraction
    norm_sum: Fraction
    alpha: Fraction
    c_vector: TensorVector
    sum_vector: TensorVector          # C_r + A_r (a single elementary tensor)

    def to_json(self) -> dict:
        return {"r": self.r, "level": self.level,
                "t_schedule": list(self.t_schedule),
                "alpha": num_to_json(self.alpha),
                "norm_C": num_to_json(self.norm_c),
                "norm_sum": num_to_json(self.norm_sum)}


def _base_vector_tuple(profile: BaseGraphProfile, vec: EdgeVector):
    ids = sorted(e.id for e in profile.graph.edges)
    return tuple(vec.coeffs.get(eid, ZERO) for eid in ids)


def _witness_columns(a, b, c):
    """(scale, columns) of one witness level on which edge e maps a state
    (S, P) to (S a(e) + P b(e), P c(e)): the entries of a, b and c scaled by
    their common denominator, equal columns merged with their multiplicity
    and the all-zero column dropped."""
    scale = lcm(*(x.denominator for x in a + b + c))
    cols = Counter(tuple(x.numerator * (scale // x.denominator) for x in col)
                   for col in zip(a, b, c))
    cols.pop((0, 0, 0), None)
    return scale, cols


def _advance(states: dict, cols: Counter) -> dict:
    """One level of the witness DP on (S, P) states kept up to a positive
    factor: each state divided by its gcd, the gcd moved into its weight."""
    nxt: dict[tuple, int] = {}
    for (s, p), weight in states.items():
        for (a, b, c), mult in cols.items():
            ns, np_ = s * a + p * b, p * c
            g = gcd(ns, np_)
            if g:
                key = (ns // g, np_ // g)
                nxt[key] = nxt.get(key, 0) + weight * mult * g
    return nxt


def _witness_norms(states: dict, den: int) -> tuple[Fraction, Fraction]:
    """(||C||, ||C + A||) of a witness DP: sum w |S| and sum w |P| over den."""
    return (Fraction(sum(w * abs(s) for (s, _), w in states.items()), den),
            Fraction(sum(w * abs(p) for (_, p), w in states.items()), den))


def witness(profile: BaseGraphProfile, r: int) -> WitnessResult:
    """Inductive construction of C_r and A_r with ||C_r + A_r|| = 1 and
    ||C_r|| >= 1 + alpha (r-1)/2.

    Each round applies the copy-averaged embedding t times with c-type
    corrections (keeping the sum of norms at 1 while halving the overlap),
    then one d-type correction that adds alpha to the cycle part.  Each
    round takes the minimal t with ||C_r|| / 2^t < alpha / 4; the result
    records the t of every round in t_schedule.  A round that would take
    the level past WITNESS_LEVEL_CAP raises ResourceLimit before it runs.

    The norms come from one pass over the levels, on states (S, P): for a
    prefix of edges, S is the sum of the C terms' products so far and P
    the product of the single term of C + A.  A C term, once created,
    takes the factor delta at every later level, so on the t levels of a
    round S <- S delta(e) and P <- P u(e) (u = delta + c); on the round's
    last level S <- S delta(e) + P d(e) and P <- P rho(e) (rho = delta + d),
    the new C term being P d(e).  Each level maps a state linearly, and the
    norms read at any later round boundary, ||C|| = sum |S| and ||C + A||
    = sum |P| over the prefixes, are positively homogeneous in it; so a
    state stands for every prefix whose state is a positive multiple of
    it, and merging such prefixes into one state, the factor moved into
    its weight, is exact.  Each level's entries are scaled to integers by
    their lcm and the norms are divided by the product of those scales.
    The tensor vectors are built once, at the end, from t_schedule.
    """
    if r < 1:
        raise ValidationError("r must be >= 1")
    b = profile.graph
    s1 = fundamental_cycle_basis(recursive_family(b, 1)).vectors
    if not s1:
        raise ValidationError("base has no cycles")
    s = s1[0]
    s = s.scale(Fraction(1) / s.l1())
    sv = _base_vector_tuple(profile, s)
    delta = _base_vector_tuple(profile, profile.delta)
    u = _base_vector_tuple(profile, profile.delta + profile.c)
    dcorr = _base_vector_tuple(profile, profile.d)
    rho = _base_vector_tuple(profile, profile.delta + profile.d)
    zero = (ZERO,) * len(sv)

    den, first = _witness_columns(sv, zero, sv)      # C = C + A = s at level 1
    inner_scale, inner = _witness_columns(delta, zero, u)
    last_scale, last = _witness_columns(delta, dcorr, rho)
    states = _advance({(1, 1): 1}, first)
    level = 1
    used_t = []
    p_factors = (sv,)
    c_heads = [(sv,)]                  # each C term's factors up to its creation
    for _ in range(r - 1):
        norm_c, _ = _witness_norms(states, den)
        t = 1
        while norm_c / 2 ** t >= profile.alpha / 4:
            t += 1
        if level + t + 1 > WITNESS_LEVEL_CAP:
            raise ResourceLimit(f"witness level {level + t + 1} exceeds the cap")
        for _ in range(t):
            states = _advance(states, inner)
        states = _advance(states, last)
        den *= inner_scale ** t * last_scale
        p_factors += (u,) * t
        c_heads.append(p_factors + (dcorr,))
        p_factors += (rho,)
        level += t + 1
        used_t.append(t)
    norm_c, norm_sum = _witness_norms(states, den)
    one = Fraction(1)
    c_vec = TensorVector(b, [(one, fs + (delta,) * (level - len(fs))) for fs in c_heads])
    p_vec = TensorVector(b, [(one, p_factors)])
    return WitnessResult(b, r, level, used_t, norm_c, norm_sum,
                         profile.alpha, c_vec, p_vec)


# ---------------------------------------------------------------------------
# Non-unique invariant projection on the level-2 Laakso graph
# ---------------------------------------------------------------------------

def laakso_nonunique_projection() -> dict:
    """Explicit invariant projection onto Z(L_2) differing from the
    orthogonal one.

    Tail-copy edges project orthogonally; middle edges of the four central
    copies go to their copy's 4-cycle line; central tail edges go to the
    averaged 16-cycle flow with weight 1/8 (the orthogonal weight would be
    1/12, which is what makes the two projections differ).  Both
    projections are built, checked and compared as integer rows over one
    denominator.
    """
    g2 = laakso(2)
    order = g2.edge_order
    orth, d = projections.orthogonal_rows([z.dense() for z in fundamental_cycle_basis(g2).vectors])

    # The two 16-cycle flows through the central copies, summed: twice the
    # averaged flow.  Copy q's bottom and top edges carry both flows, its
    # middle edges one; the copies x1, x2 are ascending and y1, y2
    # descending.  The 4-cycle of copy q is +1 on q/x1, q/x2 and -1 on
    # q/y1, q/y2.
    side = {"x1": 1, "x2": 1, "y1": -1, "y2": -1}
    twice_avg, chi = [0] * len(g2.edges), [0] * len(g2.edges)
    for e in g2.edges:
        prefix, sub = e.id.split("/")
        if prefix in side:
            twice_avg[order[e.id]] = side[prefix] * (2 if sub in ("b", "t") else 1)
            chi[order[e.id]] = 1 if sub[0] == "x" else -1 if sub[0] == "y" else 0

    # Columns over den = lcm(d, 32): the orthogonal column d-scaled, the
    # flow column f_avg f_avg[e] / 8 = twice_avg twice_avg[e] / 32, and the
    # 4-cycle column chi chi[e] / 4 restricted to copy q.
    den = lcm(d, 32)
    cols = []
    for e in g2.edges:
        prefix, sub = e.id.split("/")
        j = order[e.id]
        if prefix in ("b", "t"):
            col = [row[j] * (den // d) for row in orth]
        elif sub in ("b", "t"):
            col = [x * twice_avg[j] * (den // 32) for x in twice_avg]
        else:
            col = [chi[i] * chi[j] * (den // 4) if f.id.startswith(prefix + "/") else 0
                   for i, f in enumerate(g2.edges)]
        cols.append(col)
    num = [list(row) for row in zip(*cols)]

    gens = invariance_generators(profile_base(laakso_base()), 2, g2)
    symmetry.check_invariant(num, g2, gens)
    fixes_range, in_range = projections.cycle_projection_certificate(g2, num, den)
    gap = Fraction(max(abs(x - y * (den // d)) for row, orow in zip(num, orth)
                       for x, y in zip(row, orow)), den)
    return {
        "projection": linalg.fractions(num, den),
        "orthogonal": linalg.fractions(orth, d),
        "is_projection": fixes_range and in_range,
        "fixes_cycle_space": fixes_range,
        "range_in_cycle_space": in_range,
        "invariant_under": sorted(gens),
        "max_entry_gap": gap,
        "differs_from_orthogonal": gap > 0,
    }
