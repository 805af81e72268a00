"""Consolidated reproduction driver: one table row per certified claim.

Each row records the claim label, the target value or bound, the computed
value, and PASS/FAIL.  Rows are independent: a library error (FreelipError)
in one becomes a FAIL row and leaves the others running, while any other
exception is a programming error and propagates.  Everything is seeded and
deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import haar_system as haar, projections, recursive
from .cyclespace import EdgeVector, boundary, fundamental_cycle_basis, quotient_norm, mu
from .embeddings import (diamond_stage_net, diamond_top_level, half_dim_embedding,
                         large_embedding)
from .errors import FreelipError
from .freenorm import ae_norm, lip_dual, tree_norm
from .graphs import diamond, diamond_base, k2n_base, laakso, laakso_base, multidiamond
from .metric import graph_metric
from .randgen import random_edge_vector, random_metric_space, random_molecule, random_tree
from .rational import fmt


@dataclass(frozen=True)
class ExperimentConfig:
    """Bundle of everything a driver run depends on.

    A fixed seed makes every emitted report byte-identical; caps mirror the
    FREELIP_CAP_EDGES environment override.
    """

    command: str
    family: str | None = None
    level: int | None = None
    branch: int | None = None
    mode: str = "exact"
    seed: int = 20240923
    full: bool = False
    out: str | None = None


@dataclass
class ReportRow:
    claim: str
    target: str
    computed: str
    ok: bool

    def as_csv(self) -> list[str]:
        return [self.claim, self.target, self.computed, "PASS" if self.ok else "FAIL"]


def write_plot_data(path: str, rows: list[tuple]) -> None:
    """Two-column x y rows (gnuplot style), one line per point."""
    with open(path, "w", encoding="utf-8") as fh:
        for x, y in rows:
            fh.write(f"{x} {float(y)}\n")


def _row(rows, claim, target, computed, ok):
    rows.append(ReportRow(claim, target, computed, bool(ok)))


def reproduce_paper_table(seed: int = 20240923, full: bool = False) -> list[ReportRow]:
    rows: list[ReportRow] = []
    rng = random.Random(seed)

    # tree isometry versus the transportation LP
    try:
        trials = 40 if not full else 200
        ok = True
        for _ in range(trials):
            t = random_tree(rng, rng.randint(2, 9))
            space = graph_metric(t)
            m = random_molecule(rng, t.vertices)
            if tree_norm(t, m) != ae_norm(space, m)[0]:
                ok = False
                break
        _row(rows, "tree-isometry", "exact equality", f"{trials} trees", ok)
    except FreelipError as exc:  # keep other rows running
        _row(rows, "tree-isometry", "exact equality", f"error: {exc}", False)

    try:
        trials = 25 if not full else 100
        ok = True
        for _ in range(trials):
            space = random_metric_space(rng, rng.randint(3, 9))
            m = random_molecule(rng, space.points)
            primal, _ = ae_norm(space, m)
            dual = lip_dual(space, m).value
            if primal != dual:
                ok = False
                break
        _row(rows, "duality-gap", "0 exactly", f"{trials} spaces", ok)
    except FreelipError as exc:
        _row(rows, "duality-gap", "0 exactly", f"error: {exc}", False)

    try:
        ok = True
        for g in (diamond(1), diamond(2), laakso(1), multidiamond(1, 3)):
            space = graph_metric(g)
            basis = fundamental_cycle_basis(g)
            for _ in range(6 if not full else 50):
                x = random_edge_vector(rng, g)
                if quotient_norm(x, basis) != ae_norm(space, boundary(x))[0]:
                    ok = False
        _row(rows, "quotient-identity", "exact equality", "4 graphs", ok)
    except FreelipError as exc:
        _row(rows, "quotient-identity", "exact equality", f"error: {exc}", False)

    try:
        levels = (1, 2, 3) if not full else (1, 2, 3, 4)
        ok = all(haar.verify_even_level_span(n) for n in levels)
        _row(rows, "haar-even-levels", "span equality", f"n <= {max(levels)}", ok)
    except FreelipError as exc:
        _row(rows, "haar-even-levels", "span equality", f"error: {exc}", False)

    for n in (1, 2, 3, 4, 5):
        try:
            _, nf, _, nqf = haar.haar_witness_bound(n)
            bound = Fraction(2 * n + 1, 3)
            _row(rows, f"haar-witness-n{n}", f">= {fmt(bound)}",
                 f"|f|={fmt(nf)} |Qf|={fmt(nqf)}", nf == 1 and nqf >= bound)
        except FreelipError as exc:
            _row(rows, f"haar-witness-n{n}", "", f"error: {exc}", False)

    for n in (1, 2, 3) if full else (1, 2):
        try:
            b = haar.diamond_bm_bounds(n)
            ok = b["upper"] <= 4 * n + 4 and b["exact_orth_norm"] >= b["lower"]
            _row(rows, f"bm-sandwich-n{n}", f"[{fmt(b['lower'])}, {4 * n + 4}]",
                 f"upper={fmt(b['upper'])} orth={fmt(b['exact_orth_norm'])}", ok)
        except FreelipError as exc:
            _row(rows, f"bm-sandwich-n{n}", "", f"error: {exc}", False)

    for (n, k) in [(1, 3), (2, 3), (1, 4)] + ([(2, 4)] if full else []):
        try:
            r = haar.multibranch_analysis(n, k)
            ok = (r["witness_value"] >= r["bm_lower"]
                  and r["witness_formula_matches"] and r["bm_upper"] <= 4 * n + 4)
            _row(rows, f"multibranch-{n}-{k}", f">= {fmt(r['bm_lower'])}",
                 f"witness={fmt(r['witness_value'])}", ok)
        except FreelipError as exc:
            _row(rows, f"multibranch-{n}-{k}", "", f"error: {exc}", False)

    try:
        zc = [v.dense() for v in fundamental_cycle_basis(diamond(1)).vectors]
        lam1, _ = projections.minimal_projection_lp(zc, 4)
        zl = [v.dense() for v in fundamental_cycle_basis(laakso(1)).vectors]
        lam2, _ = projections.minimal_projection_lp(zl, 6)
        zd2 = [v.dense() for v in fundamental_cycle_basis(diamond(2)).vectors]
        lam3, _ = projections.minimal_projection_lp(zd2, 16)
        ok = abs(lam1 - 1) < 1e-7 and abs(lam2 - 1) < 1e-7 and lam3 >= 5 / 3 - 1e-7
        _row(rows, "minimal-projections", "1, 1, >= 5/3",
             f"{lam1:.6f}, {lam2:.6f}, {lam3:.6f}", ok)
    except FreelipError as exc:
        _row(rows, "minimal-projections", "", f"error: {exc}", False)

    try:
        trials = 20 if not full else 100
        ok = True
        for _ in range(trials):
            space = random_metric_space(rng, rng.randint(4, 16))
            rep = half_dim_embedding(space)
            if (rep.k < len(space.points) // 2 or rep.c_constant > 2
                    or rep.proj_norm > 2):
                ok = False
                break
        _row(rows, "mst-embedding", "k >= n/2, C <= 2, |P| <= 2", f"{trials} spaces", ok)
    except FreelipError as exc:
        _row(rows, "mst-embedding", "", f"error: {exc}", False)

    for n in (1, 2) + ((3,) if full else ()):
        try:
            rep = diamond_top_level(n)
            ok = (rep.k == 2 * 4 ** (n - 1) and rep.c_constant == 1
                  and rep.proj_norm == 1)
            _row(rows, f"diamond-top-n{n}", "C = 1, |P| = 1, k = 2*4^(n-1)",
                 f"k={rep.k} C={fmt(rep.c_constant)} P={fmt(rep.proj_norm)}", ok)
        except FreelipError as exc:
            _row(rows, f"diamond-top-n{n}", "", f"error: {exc}", False)

    for (n, m) in [(2, 1), (3, 1), (3, 2)]:
        try:
            g = diamond(n)
            space = graph_metric(g)
            net = diamond_stage_net(n, m)
            ys = sorted(set(g.vertices) - set(net))
            rep = large_embedding(space, ys, with_proj_norm=False)
            _row(rows, f"diamond-drop-{n}-{m}", f"C <= {2 ** (n - m)}",
                 f"C={fmt(rep.c_constant)}", rep.c_constant <= 2 ** (n - m))
        except FreelipError as exc:
            _row(rows, f"diamond-drop-{n}-{m}", "", f"error: {exc}", False)

    for name, base in (("square", diamond_base()), ("k23", k2n_base(3)),
                       ("laakso", laakso_base())):
        rr = 3
        try:
            prof = recursive.profile_base(base)
            w = recursive.witness(prof, rr)
            bound = 1 + prof.alpha * (rr - 1) / 2
            ok = w.norm_sum == 1 and w.norm_c >= bound
            _row(rows, f"witness-{name}-r{rr}",
                 f"|C+A| = 1, |C| >= {fmt(bound)}",
                 f"|C+A|={fmt(w.norm_sum)} |C|={fmt(w.norm_c)} level={w.level}", ok)
        except FreelipError as exc:
            _row(rows, f"witness-{name}-r{rr}", "", f"error: {exc}", False)

    try:
        d2 = diamond(2)
        prof = recursive.profile_base(diamond_base())
        p = projections.orthogonal_projection(
            [v.dense() for v in fundamental_cycle_basis(d2).vectors])
        rep = recursive.annihilation_check(p, prof, 2, d2)
        l2 = laakso(2)
        profl = recursive.profile_base(laakso_base())
        p2 = projections.orthogonal_projection(
            [v.dense() for v in fundamental_cycle_basis(l2).vectors])
        rep2 = recursive.annihilation_check(p2, profl, 2, l2)
        ok = rep["all_annihilated"] and rep2["all_annihilated"]
        _row(rows, "annihilation", "all c-type vectors -> 0",
             f"D2: {rep['c_type_count']}, L2: {rep2['c_type_count']}", ok)
    except FreelipError as exc:
        _row(rows, "annihilation", "", f"error: {exc}", False)

    try:
        res = recursive.laakso_nonunique_projection()
        ok = (res["is_projection"] and res["differs_from_orthogonal"]
              and bool(res["invariant_under"]))
        _row(rows, "laakso-nonunique", "invariant projection != orthogonal",
             f"gap={fmt(res['max_entry_gap'])}", ok)
    except FreelipError as exc:
        _row(rows, "laakso-nonunique", "", f"error: {exc}", False)

    try:
        from .cyclespace import greedy_cycle_packing
        packing = greedy_cycle_packing(diamond(2))
        seen: set[str] = set()
        disjoint = True
        for cyc in packing:
            if seen & set(cyc):
                disjoint = False
            seen.update(cyc)
        _row(rows, "cycle-packing-d2", ">= 4 disjoint cycles",
             f"{len(packing)} cycles", len(packing) >= 4 and disjoint)
    except FreelipError as exc:
        _row(rows, "cycle-packing-d2", "", f"error: {exc}", False)

    return rows
