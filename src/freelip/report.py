"""The paper's claims, each defined once: `freelip reproduce` and the
acceptance suite run the same functions, at different sizes.

A claim takes a `random.Random` plus its sizes and returns its table rows:
the claim label, the target value or bound, the computed value, and
PASS/FAIL.  Rows are independent: a library error (FreelipError) in one
becomes a FAIL row and leaves the others running, while any other
exception is a programming error and propagates.  Everything is seeded and
deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import haar_system as haar, projections, recursive
from .cyclespace import boundary, fundamental_cycle_basis, greedy_cycle_packing, quotient_norm
from .embeddings import (diamond_stage_net, diamond_top_level, half_dim_embedding,
                         large_embedding)
from .errors import FreelipError
from .freenorm import ae_norm, lip_dual, tree_norm
from .graphs import diamond, diamond_base, k2n_base, laakso, laakso_base, multidiamond
from .metric import graph_metric
from .randgen import random_edge_vector, random_metric_space, random_molecule, random_tree
from .rational import fmt


@dataclass
class ReportRow:
    claim: str
    target: str
    computed: str
    ok: bool

    def as_csv(self) -> list[str]:
        return [self.claim, self.target, self.computed, "PASS" if self.ok else "FAIL"]


def _row(claim, check, *args, error_target=""):
    """One row from check(*args) -> (target, computed, ok)."""
    try:
        target, computed, ok = check(*args)
    except FreelipError as exc:  # keep other rows running
        return ReportRow(claim, error_target, f"error: {exc}", False)
    return ReportRow(claim, target, computed, bool(ok))


def _cycle_columns(g):
    return [v.dense() for v in fundamental_cycle_basis(g).vectors]


def tree_isometry(rng, trials, points, molecules=1):
    """Edge-coordinate tree norm = transportation norm, exactly."""
    def agree():
        for _ in range(trials):
            t = random_tree(rng, rng.randint(*points))
            space = graph_metric(t)
            for _ in range(molecules):
                m = random_molecule(rng, t.vertices)
                yield tree_norm(t, m) == ae_norm(space, m)[0]

    def check():
        return "exact equality", f"{trials} trees", all(agree())
    return [_row("tree-isometry", check, error_target="exact equality")]


def duality_gap(rng, trials, points):
    """Primal = dual, exactly."""
    def agree():
        for _ in range(trials):
            space = random_metric_space(rng, rng.randint(*points))
            m = random_molecule(rng, space.points)
            yield ae_norm(space, m)[0] == lip_dual(space, m).value

    def check():
        return "0 exactly", f"{trials} spaces", all(agree())
    return [_row("duality-gap", check, error_target="0 exactly")]


def quotient_identity(rng, graphs, vectors):
    """Quotient norm of x = transportation norm of its boundary, exactly;
    graphs are (builder, *args) pairs."""
    def agree():
        for make, *args in graphs:
            g = make(*args)
            space = graph_metric(g)
            basis = fundamental_cycle_basis(g)
            for _ in range(vectors):
                x = random_edge_vector(rng, g)
                yield quotient_norm(x, basis) == ae_norm(space, boundary(x))[0]

    def check():
        return "exact equality", f"{len(graphs)} graphs", all(agree())
    return [_row("quotient-identity", check, error_target="exact equality")]


def haar_even_levels(rng, n_max):
    """The even Haar levels span the diamond cycle space, n = 1..n_max."""
    def check():
        ok = all(haar.verify_even_level_span(n) for n in range(1, n_max + 1))
        return "span equality", f"n <= {n_max}", ok
    return [_row("haar-even-levels", check, error_target="span equality")]


def haar_witness(rng, n_max):
    """|f| = 1 and |Qf| = (2n+1)/3 + (1 - 4^(1-n))/9 >= (2n+1)/3."""
    def check(n):
        _, nf, _, nqf = haar.haar_witness_bound(n)
        bound = Fraction(2 * n + 1, 3)
        ok = nf == 1 and nqf == bound + (1 - Fraction(4) ** (1 - n)) / 9
        return f">= {fmt(bound)}", f"|f|={fmt(nf)} |Qf|={fmt(nqf)}", ok
    return [_row(f"haar-witness-n{n}", check, n) for n in range(1, n_max + 1)]


def bm_sandwich(rng, n_max):
    """(2n+1)/3 = lower <= |orthogonal projection|, and upper = n + 1
    exactly, inside the paper's [lower, 4n + 4]."""
    def check(n):
        b = haar.diamond_bm_bounds(n)
        ok = b["exact_orth_norm"] >= b["lower"] == Fraction(2 * n + 1, 3) and b["upper"] == n + 1
        return (f"[{fmt(b['lower'])}, {4 * n + 4}]",
                f"upper={fmt(b['upper'])} orth={fmt(b['exact_orth_norm'])}", ok)
    return [_row(f"bm-sandwich-n{n}", check, n) for n in range(1, n_max + 1)]


def multibranch(rng, pairs):
    """On D_{n,k}: witness >= (1 - 1/k) n/2 matching the paper's formula,
    upper bound <= 4n + 4.  multibranch_analysis raises ValidationError,
    hence a FAIL row, unless the cut vectors are pairwise orthogonal and
    orthogonal to every cycle image."""
    def check(n, k):
        r = haar.multibranch_analysis(n, k)
        ok = (r["witness_value"] >= r["bm_lower"] == Fraction((k - 1) * n, 2 * k)
              and r["witness_formula_matches"]
              and r["bm_upper"] <= 4 * n + 4)
        return f">= {fmt(r['bm_lower'])}", f"witness={fmt(r['witness_value'])}", ok
    return [_row(f"multibranch-{n}-{k}", check, n, k) for n, k in pairs]


def minimal_projections(rng):
    """Exact, certified projection constants of cycle spaces:
    lambda(Z(D_1)) = lambda(Z(L_1)) = 1, lambda(Z(D_2)) = 7/4 and
    lambda(Z(L_2)) = 22/15."""
    def check():
        want = [Fraction(1), Fraction(1), Fraction(7, 4), Fraction(22, 15)]
        lams = [projections.minimal_projection_lp(_cycle_columns(g), len(g.edges), mode="exact")[0]
                for g in (diamond(1), laakso(1), diamond(2), laakso(2))]
        return ", ".join(map(fmt, want)), ", ".join(map(fmt, lams)), lams == want
    return [_row("minimal-projections", check)]


def mst_embedding(rng, trials, points):
    """Half-dimensional MST selection: k >= n/2, C <= 2, |P| <= 2."""
    def agree():
        for _ in range(trials):
            space = random_metric_space(rng, rng.randint(*points))
            rep = half_dim_embedding(space)
            yield (rep.k >= len(space.points) // 2 and rep.c_constant <= 2
                   and rep.proj_norm <= 2 and rep.lower_eq >= Fraction(1, 2)
                   and rep.upper_eq == 1)

    def check():
        return "k >= n/2, C <= 2, |P| <= 2", f"{trials} spaces", all(agree())
    return [_row("mst-embedding", check)]


def diamond_top(rng, n_max):
    """The last-step selection on D_n is isometric with a norm-one projection."""
    def check(n):
        rep = diamond_top_level(n)
        ok = (rep.k == 2 * 4 ** (n - 1) and rep.c_constant == 1
              and rep.lower_eq == rep.upper_eq == 1 and rep.proj_norm == 1)
        return ("C = 1, |P| = 1, k = 2*4^(n-1)",
                f"k={rep.k} C={fmt(rep.c_constant)} P={fmt(rep.proj_norm)}", ok)
    return [_row(f"diamond-top-n{n}", check, n) for n in range(1, n_max + 1)]


def diamond_drop(rng, pairs):
    """Dropping stage m of D_n costs C <= 2^(n-m)."""
    def check(n, m):
        g = diamond(n)
        ys = sorted(set(g.vertices) - set(diamond_stage_net(n, m)))
        rep = large_embedding(graph_metric(g), ys)
        return f"C <= {2 ** (n - m)}", f"C={fmt(rep.c_constant)}", rep.c_constant <= 2 ** (n - m)
    return [_row(f"diamond-drop-{n}-{m}", check, n, m) for n, m in pairs]


def growth_witness(rng, rs):
    """|C + A| = 1 and |C| >= 1 + alpha (r-1)/2, with alpha = 1, 4/3, 1/2
    for the square, K_{2,3} and Laakso bases."""
    def check(base, alpha, r):
        prof = recursive.profile_base(base)
        w = recursive.witness(prof, r)
        bound = 1 + prof.alpha * (r - 1) / 2
        ok = prof.alpha == alpha and w.norm_sum == 1 and w.norm_c >= bound
        return (f"|C+A| = 1, |C| >= {fmt(bound)}",
                f"|C+A|={fmt(w.norm_sum)} |C|={fmt(w.norm_c)} level={w.level}", ok)
    bases = (("square", diamond_base(), Fraction(1)), ("k23", k2n_base(3), Fraction(4, 3)),
             ("laakso", laakso_base(), Fraction(1, 2)))
    return [_row(f"witness-{name}-r{r}", check, base, alpha, r)
            for name, base, alpha in bases for r in rs]


def annihilation(rng):
    """Orthogonal projections on D_2 and L_2 kill every c-type vector."""
    def annihilated(base, g):
        p = projections.orthogonal_projection(_cycle_columns(g))
        return recursive.annihilation_check(p, recursive.profile_base(base), 2, g)

    def check():
        d2 = annihilated(diamond_base(), diamond(2))
        l2 = annihilated(laakso_base(), laakso(2))
        return ("all c-type vectors -> 0",
                f"D2: {d2['c_type_count']}, L2: {l2['c_type_count']}",
                d2["all_annihilated"] and l2["all_annihilated"])
    return [_row("annihilation", check)]


def laakso_nonunique(rng):
    """An invariant projection onto Z(L_2), under 8 generators, that is not
    the orthogonal one."""
    def check():
        res = recursive.laakso_nonunique_projection()
        ok = (res["is_projection"] and res["differs_from_orthogonal"]
              and len(res["invariant_under"]) == 8)
        return ("invariant projection != orthogonal",
                f"gap={fmt(res['max_entry_gap'])}", ok)
    return [_row("laakso-nonunique", check)]


def cycle_packing(rng):
    """Greedy packing finds at least 4 edge-disjoint cycles in D_2."""
    def check():
        packing = greedy_cycle_packing(diamond(2))
        edges = [eid for cyc in packing for eid in cyc]
        ok = len(packing) >= 4 and len(edges) == len(set(edges))
        return ">= 4 disjoint cycles", f"{len(packing)} cycles", ok
    return [_row("cycle-packing-d2", check)]


_QUOTIENT_GRAPHS = ((diamond, 1), (diamond, 2), (laakso, 1), (multidiamond, 1, 3))
_MULTIBRANCH_PAIRS = ((1, 3), (2, 3), (1, 4))
_DROP_PAIRS = ((2, 1), (3, 1), (3, 2))

# claim, quick sizes, --full sizes; walked in this order on one seeded rng
PAPER_TABLE = (
    (tree_isometry, dict(trials=40, points=(2, 9)), dict(trials=200, points=(2, 9))),
    (duality_gap, dict(trials=25, points=(3, 9)), dict(trials=100, points=(3, 9))),
    (quotient_identity, dict(graphs=_QUOTIENT_GRAPHS, vectors=6),
     dict(graphs=_QUOTIENT_GRAPHS, vectors=50)),
    (haar_even_levels, dict(n_max=3), dict(n_max=4)),
    (haar_witness, dict(n_max=5), dict(n_max=5)),
    (bm_sandwich, dict(n_max=2), dict(n_max=8)),
    (multibranch, dict(pairs=_MULTIBRANCH_PAIRS), dict(pairs=_MULTIBRANCH_PAIRS + ((2, 4),))),
    (minimal_projections, {}, {}),
    (mst_embedding, dict(trials=20, points=(4, 16)), dict(trials=100, points=(4, 16))),
    (diamond_top, dict(n_max=2), dict(n_max=3)),
    (diamond_drop, dict(pairs=_DROP_PAIRS), dict(pairs=_DROP_PAIRS)),
    (growth_witness, dict(rs=(3,)), dict(rs=(3,))),
    (annihilation, {}, {}),
    (laakso_nonunique, {}, {}),
    (cycle_packing, {}, {}),
)


def reproduce_paper_table(seed: int = 20240923, full: bool = False) -> list[ReportRow]:
    rng = random.Random(seed)
    return [row for claim, quick, whole in PAPER_TABLE
            for row in claim(rng, **(whole if full else quick))]
