"""The benchmark's checkers accept correct outputs and reject wrong ones.

Each test feeds a checker one genuine program output, which must pass, and
one deliberately broken copy, which must raise CheckError, so that no
checker is vacuous.
"""

import json
import sys
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
from checks import CheckError  # noqa: E402
from freelip import cyclespace, freenorm, graphs, metric, projections, recursive  # noqa: E402
from freelip.freenorm import DualCertificate, TransportPlan  # noqa: E402
from freelip.metric import LipschitzFunction, Molecule  # noqa: E402


@pytest.fixture(scope="module")
def transport():
    g = graphs.laakso(1)
    space = metric.graph_metric(g)
    pts = space.points
    m = Molecule({pts[0]: F(3, 2), pts[2]: F(1, 2), pts[3]: F(-1), pts[5]: F(-1)})
    value, plan = freenorm.ae_norm(space, m)
    return space, m, value, plan


def test_plan_check_rejects_a_perturbed_plan(transport):
    space, m, value, plan = transport
    checks.check_plan(space, m, value, plan)
    (p, q, mass), *rest = plan.moves
    shifted = TransportPlan(((p, q, mass + F(1, 3)),) + tuple(rest), plan.cost)
    with pytest.raises(CheckError):
        checks.check_plan(space, m, value, shifted)
    with pytest.raises(CheckError):
        checks.check_plan(space, m, value + 1, plan)


def test_dual_check_rejects_a_non_lipschitz_certificate(transport):
    space, m, value, _ = transport
    cert = freenorm.lip_dual(space, m)
    checks.check_dual(space, m, cert, value)
    base = cert.f.basepoint
    p = next(q for q in space.points if q != base)
    values = dict(cert.f.values)
    values[p] = space.d(p, base) + 1
    steep = DualCertificate(LipschitzFunction(values, cert.f.basepoint), cert.value)
    with pytest.raises(CheckError):
        checks.check_dual(space, m, steep, value)


def test_quotient_check_rejects_a_wrong_value(transport):
    space, m, value, _ = transport
    checks.check_quotient(value, value)
    with pytest.raises(CheckError):
        checks.check_quotient(value + F(1, 7), value)


def test_projection_check_rejects_a_non_idempotent_matrix():
    g = graphs.diamond(2)
    cols = [z.dense() for z in cyclespace.fundamental_cycle_basis(g).vectors]
    p = projections.orthogonal_projection(cols)
    checks.check_cycle_projection(p, g, cols)
    checks.check_idempotent(p)
    doubled = [[2 * x for x in row] for row in p]        # (2P)^2 = 4P != 2P
    with pytest.raises(CheckError):
        checks.check_cycle_projection(doubled, g, cols)
    with pytest.raises(CheckError):
        checks.check_idempotent(doubled)


def test_witness_check_rejects_a_norm_below_its_bound():
    prof = recursive.profile_base(graphs.diamond_base())
    w = recursive.witness(prof, 3)
    checks.check_growth_witness(w, prof.alpha, 3)
    low = replace(w, norm_c=1 + prof.alpha * 2 / 2 - F(1, 64))
    with pytest.raises(CheckError):
        checks.check_growth_witness(low, prof.alpha, 3)
    with pytest.raises(CheckError):
        checks.check_growth_witness(replace(w, norm_sum=F(63, 64)), prof.alpha, 3)


def test_per_layer_metrics_match_benchmark_json_and_wrapped_functions():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    names = set(tracing.traced_functions())
    for metric_name, _ in tracing.PER_LAYER:
        assert metric_name.rsplit(".", 1)[0] in names, metric_name
