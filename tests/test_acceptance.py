"""Acceptance suite: one test per published acceptance criterion.

Each criterion runs its claim from `freelip.report` (the same function
`freelip reproduce` runs) at the sizes in CRITERIA, prints a single
PASS/FAIL line (visible with -s or in the captured output summary), and
fails unless every row of the claim passes within its time budget.  Exact
means exact: Fraction equality, no epsilons.
"""

import random
import time

from freelip import report
from freelip.graphs import diamond, laakso, multidiamond

SEED = 31415

CRITERIA = (
    # number, name, claim, sizes, seed, time budget in seconds
    (1, "tree_isometry", report.tree_isometry,
     dict(trials=200, points=(1, 12), molecules=10), SEED, 60),
    (2, "duality", report.duality_gap,
     dict(trials=100, points=(3, 12)), SEED + 1, None),
    (3, "quotient_identity", report.quotient_identity,
     dict(graphs=((diamond, 1), (diamond, 2), (laakso, 1), (laakso, 2), (multidiamond, 1, 3)),
          vectors=50), SEED + 2, None),
    (4, "haar_identification", report.haar_even_levels, dict(n_max=5), SEED, None),
    (5, "haar_witness", report.haar_witness, dict(n_max=5), SEED, None),
    (6, "bm_sandwich", report.bm_sandwich, dict(n_max=3), SEED, 300),
    (7, "multibranching", report.multibranch,
     dict(pairs=((1, 3), (2, 3), (1, 4), (2, 4))), SEED, None),
    (8, "minimal_projection_constants", report.minimal_projections, {}, SEED, None),
    (9, "mst_embedding", report.mst_embedding,
     dict(trials=100, points=(3, 30)), SEED + 3, None),
    (10, "diamond_top_level", report.diamond_top, dict(n_max=3), SEED, None),
    (11, "diamond_drop", report.diamond_drop,
     dict(pairs=((2, 1), (3, 1), (3, 2))), SEED, None),
    (12, "growth_witness", report.growth_witness, dict(rs=(1, 2, 3)), SEED, None),
    (13, "annihilation", report.annihilation, {}, SEED, None),
    (14, "nonunique_invariant_projection", report.laakso_nonunique, {}, SEED, None),
    (15, "packing_sanity", report.cycle_packing, {}, SEED, None),
)


def _criterion(number, name, claim, sizes, seed, budget_s):
    def test():
        start = time.monotonic()
        rows = claim(random.Random(seed), **sizes)
        elapsed = time.monotonic() - start
        ok = all(row.ok for row in rows) and (budget_s is None or elapsed < budget_s)
        detail = "; ".join(f"{row.claim}: {row.computed}" for row in rows)
        print(f"[acceptance {number:02d}] {name.replace('_', ' ')}: "
              f"{'PASS' if ok else 'FAIL'}  {detail}, {elapsed:.1f}s")
        assert ok, f"criterion {number} ({name}) failed: {detail}"
    return test


# Named functions rather than one parametrized test keep each criterion's
# test id (test_criterion_NN_name) stable.
for _number, _name, *_spec in CRITERIA:
    globals()[f"test_criterion_{_number:02d}_{_name}"] = _criterion(_number, _name, *_spec)
