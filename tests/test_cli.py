import json
import math
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from freelip import graphs, haar_system, linalg, projections, report, symmetry
from freelip.cli import main
from freelip.embeddings import large_embedding, mod_p_selection
from freelip.errors import SolverFailure
from freelip.freenorm import ae_norm, lip_dual
from freelip.graphs import diamond
from freelip.metric import Molecule, graph_metric
from freelip.randgen import random_metric_space
from freelip.rational import num_to_json
from freelip.recursive import profile_base
from freelip.symmetry import invariance_generators


def run_cli(*argv):
    return main(list(argv))


def test_gen_writes_schema_tagged_graph(tmp_path):
    out = tmp_path / "g.json"
    assert run_cli("gen", "--family", "laakso", "--level", "1", "--out", str(out)) == 0
    obj = json.loads(out.read_text())
    assert obj["schema"] == "freelip/1"
    assert len(obj["edges"]) == 6


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("gen", "--family", "diamond", "--level", "2", "--out", str(a))
    run_cli("gen", "--family", "diamond", "--level", "2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_norm_command(tmp_path, capsys):
    space = tmp_path / "s.json"
    mol = tmp_path / "m.json"
    space.write_text(json.dumps({"points": ["p", "q"], "dist": [[0, 3], [3, 0]]}))
    mol.write_text(json.dumps({"coeffs": {"p": 1, "q": -1}}))
    assert run_cli("norm", "--space", str(space), "--molecule", str(mol)) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == 3
    assert out["dual"]["value"] == 3


def test_norm_command_matches_library(tmp_path, capsys):
    rng = random.Random(11)
    space = random_metric_space(rng, 7)
    a, b, c, d = space.points[0], space.points[2], space.points[4], space.points[5]
    m = Molecule({a: 3, b: F(-1, 2), c: 2, d: F(-9, 2)})
    (tmp_path / "s.json").write_text(json.dumps(space.to_json()))
    (tmp_path / "m.json").write_text(json.dumps(m.to_json()))
    assert run_cli("norm", "--space", str(tmp_path / "s.json"),
                   "--molecule", str(tmp_path / "m.json")) == 0
    out = json.loads(capsys.readouterr().out)
    value, plan = ae_norm(space, m)
    cert = lip_dual(space, m)
    assert len(plan.moves) >= 2
    assert out["value"] == num_to_json(value)
    assert out["plan"] == json.loads(json.dumps(plan.to_json()))
    assert out["dual"] == json.loads(json.dumps(cert.to_json()))


def test_quotient_norm_command(tmp_path, capsys):
    g = tmp_path / "g.json"
    x = tmp_path / "x.json"
    run_cli("gen", "--family", "diamond", "--level", "1", "--out", str(g))
    x.write_text(json.dumps({"coeffs": {"tl": 1}}))
    assert run_cli("quotient-norm", "--graph", str(g), "--vector", str(x)) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == out["boundary_norm"] == 1


def test_cyclespace_command(tmp_path, capsys):
    g = tmp_path / "g.json"
    run_cli("gen", "--family", "diamond", "--level", "2", "--out", str(g))
    assert run_cli("cyclespace", "--graph", str(g)) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mu"] == 5
    assert len(out["basis"]) == 5
    assert len(out["packing"]) >= 4


def test_projconst_command(tmp_path, capsys):
    g = tmp_path / "g.json"
    run_cli("gen", "--family", "diamond", "--level", "1", "--out", str(g))
    assert run_cli("projconst", "--graph", str(g), "--mode", "orthogonal") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["is_projection"] and out["norm_l1"] == 1


@pytest.mark.parametrize("family, lam", [("diamond", "7/4"), ("laakso", "22/15")])
def test_projconst_minimal_writes_the_exact_lambda(tmp_path, capsys, family, lam):
    g = tmp_path / "g.json"
    run_cli("gen", "--family", family, "--level", "2", "--out", str(g))
    capsys.readouterr()
    assert run_cli("projconst", "--graph", str(g), "--mode", "minimal") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lambda"] == lam and out["norm_l1"] == lam and out["is_projection"]


@pytest.mark.parametrize("skew", [
    lambda p: [[2 * x for x in row] for row in p],      # does not fix Z
    lambda p: linalg.identity(len(p)),                  # its range leaves Z
], ids=["scaled", "identity"])
def test_projconst_reports_a_non_projection(tmp_path, capsys, monkeypatch, skew):
    g = tmp_path / "g.json"
    run_cli("gen", "--family", "diamond", "--level", "1", "--out", str(g))
    real = projections.orthogonal_projection
    monkeypatch.setattr(projections, "orthogonal_projection", lambda cols: skew(real(cols)))
    assert run_cli("projconst", "--graph", str(g), "--mode", "orthogonal") == 0
    assert json.loads(capsys.readouterr().out)["is_projection"] is False


def test_recursive_and_witness_commands(capsys):
    assert run_cli("recursive", "--base", "k2n:3", "--check-conditions") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["conditions"]["all_ok"]
    assert out["profile"]["alpha"] == "4/3"

    assert run_cli("witness", "--base", "square", "--r", "2") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["norm_sum"] == 1 and out["norm_C"] == "15/8"


def test_haar_csv_row(capsys):
    assert run_cli("haar", "--n", "3", "--upper-cells", "16") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("n,k,lower_bound")
    last = lines[-1].split(",")
    assert last[0] == "3" and last[2] == "7/3"


def test_haar_multibranch_csv(tmp_path):
    out = tmp_path / "bounds.csv"
    assert run_cli("haar", "--n", "1", "--branch", "3", "--report", str(out)) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[1].split(",")[2] == "1/3"


def test_haar_plot_data(tmp_path):
    plot = tmp_path / "curve.dat"
    assert run_cli("haar", "--n", "2", "--upper-cells", "4",
                   "--plot", str(plot)) == 0
    lines = plot.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split() == ["2", "1.75"]


def test_projconst_averaged_mode(tmp_path, capsys, monkeypatch):
    g = tmp_path / "g.json"
    gens = tmp_path / "gens.json"
    run_cli("gen", "--family", "diamond", "--level", "1", "--out", str(g))
    capsys.readouterr()
    # generators: swap the two ascending and the two descending edges
    gens.write_text(json.dumps({"maps": [
        {"bl": "br", "br": "bl", "tl": "tr", "tr": "tl"},
        {"bl": "tl", "tl": "bl", "br": "tr", "tr": "br"},
    ]}))
    assert run_cli("projconst", "--graph", str(g), "--mode", "averaged",
                   "--generators", str(gens)) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["is_projection"]
    # "invariant_under" lists the indices of the maps that symmetry.commutes
    # accepts for the printed P: the average commutes with both
    assert out["invariant_under"] == [0, 1]
    checked = []
    real = symmetry.commutes

    def reduced(num):           # integer rows divided by the gcd of their entries
        g = math.gcd(*(x for row in num for x in row))
        return [[x // g for x in row] for row in num]

    printed = reduced(linalg.integer_rows([[F(x) for x in row] for row in out["operator"]])[0])

    def reject_second(num, s):
        checked.append(reduced(num) == printed)     # the printed P, up to a positive factor
        return real(num, s) and len(checked) != 2

    monkeypatch.setattr(symmetry, "commutes", reject_second)
    assert run_cli("projconst", "--graph", str(g), "--mode", "averaged",
                   "--generators", str(gens)) == 0
    assert json.loads(capsys.readouterr().out)["invariant_under"] == [0]
    assert checked == [True, True]
    # the other modes take no generators and list none
    assert run_cli("projconst", "--graph", str(g), "--mode", "orthogonal") == 0
    assert json.loads(capsys.readouterr().out)["invariant_under"] == []


def test_projconst_generators_may_list_only_the_moved_edges(tmp_path, capsys):
    g = tmp_path / "g.json"
    run_cli("gen", "--family", "diamond", "--level", "2", "--out", str(g))
    capsys.readouterr()
    d2 = diamond(2)
    sparse = list(invariance_generators(profile_base(graphs.diamond_base()), 2, d2).values())
    full = [{e.id: emap.get(e.id, e.id) for e in d2.edges} for emap in sparse]
    assert any(len(emap) < len(d2.edges) for emap in sparse)
    outputs = []
    for maps in (sparse, full):
        gens = tmp_path / "gens.json"
        gens.write_text(json.dumps({"maps": maps}))
        assert run_cli("projconst", "--graph", str(g), "--mode", "averaged",
                       "--generators", str(gens)) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["invariant_under"] == list(range(len(sparse)))


@pytest.mark.parametrize("emap", [
    {"bl": "nope", "br": "bl", "tl": "tr", "tr": "tl"},   # unknown edge id
    {"bl": "br", "br": "br", "tl": "tr", "tr": "tl"},     # two edges onto br
])
def test_projconst_rejects_generator_that_is_not_an_edge_bijection(tmp_path, capsys, emap):
    g = tmp_path / "g.json"
    gens = tmp_path / "gens.json"
    run_cli("gen", "--family", "diamond", "--level", "1", "--out", str(g))
    gens.write_text(json.dumps({"maps": [emap]}))
    assert run_cli("projconst", "--graph", str(g), "--mode", "averaged",
                   "--generators", str(gens)) == 2
    assert "bijection" in capsys.readouterr().err


@pytest.mark.parametrize("argv,key", [
    (["norm", "--space", "{space}", "--molecule", "{empty}"], "coeffs"),
    (["quotient-norm", "--graph", "{graph}", "--vector", "{empty}"], "coeffs"),
    (["projconst", "--graph", "{graph}", "--mode", "averaged", "--generators", "{empty}"],
     "maps"),
], ids=["norm", "quotient-norm", "projconst"])
def test_json_input_missing_a_key_is_a_validation_error(tmp_path, capsys, argv, key):
    files = {"space": tmp_path / "s.json", "graph": tmp_path / "g.json",
             "empty": tmp_path / "empty.json"}
    files["space"].write_text(json.dumps({"points": ["p", "q"], "dist": [[0, 1], [1, 0]]}))
    run_cli("gen", "--family", "diamond", "--level", "1", "--out", str(files["graph"]))
    files["empty"].write_text("{}")
    capsys.readouterr()
    assert run_cli(*(a.format(**files) for a in argv)) == 2
    assert f"no {key!r} key" in capsys.readouterr().err


@pytest.mark.parametrize("weight,shown", [(0, "Fraction(0, 1)"), (-1, "Fraction(-1, 1)"),
                                          ("-1/2", "Fraction(-1, 2)"), (0.5, "0.5"),
                                          (True, "True")],
                         ids=["zero", "minus-one", "negative-fraction", "float", "bool"])
def test_json_graph_weights_must_be_positive_rationals(tmp_path, capsys, weight, shown):
    # JSON rationals are ints or "p/q" strings; a float or a bool is refused
    # too, instead of reaching the metric as 1/2 or failing with a TypeError
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"vertices": ["a", "b", "c"], "top": "c", "bottom": "a",
                             "edges": [{"id": "e1", "tail": "a", "head": "b", "weight": weight},
                                       {"id": "e2", "tail": "b", "head": "c"}]}))
    assert run_cli("embed", "--graph", str(g), "--strategy", "half") == 2
    assert (f"validation error: edge 'e1' has weight {shown}; weights must be positive ints "
            "or Fractions") in capsys.readouterr().err


@pytest.mark.parametrize("text", ["abc", "x/2", "1/0"])
def test_json_graph_weight_that_is_not_a_rational_is_a_validation_error(tmp_path, capsys, text):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"vertices": ["a", "b", "c"], "top": "c", "bottom": "a",
                             "edges": [{"id": "e1", "tail": "a", "head": "b", "weight": text},
                                       {"id": "e2", "tail": "b", "head": "c"}]}))
    assert run_cli("embed", "--graph", str(g), "--strategy", "half") == 2
    assert f"validation error: {text!r} is not a rational number" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["x/2", "abc", "3/0"])
def test_molecule_coefficient_that_is_not_a_rational_is_a_validation_error(tmp_path, capsys,
                                                                           text):
    space, mol = tmp_path / "s.json", tmp_path / "m.json"
    space.write_text(json.dumps({"points": ["a", "b"], "dist": [[0, 1], [1, 0]]}))
    mol.write_text(json.dumps({"coeffs": {"a": text, "b": -1}}))
    assert run_cli("norm", "--space", str(space), "--molecule", str(mol)) == 2
    assert f"validation error: {text!r} is not a rational number" in capsys.readouterr().err


def test_embed_command(tmp_path, capsys):
    space = tmp_path / "s.json"
    space.write_text(json.dumps(
        {"points": ["a", "b", "c"], "dist": [[0, 1, 1], [1, 0, 2], [1, 2, 0]]}))
    assert run_cli("embed", "--space", str(space), "--strategy", "half") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["k"] == 2 and out["C"] == 1


def test_embed_graph_modp(tmp_path, capsys):
    g = tmp_path / "g.json"
    run_cli("gen", "--family", "diamond", "--level", "2", "--out", str(g))
    capsys.readouterr()
    assert run_cli("embed", "--graph", str(g), "--strategy", "modp:2") == 0
    out = json.loads(capsys.readouterr().out)
    graph = diamond(2)
    expected = large_embedding(graph_metric(graph), mod_p_selection(graph, 2))
    assert out["ys"] == mod_p_selection(graph, 2) and out["k"] == len(out["ys"])
    assert out == {"schema": "freelip/1", **json.loads(json.dumps(expected.to_json()))}


def test_embed_diamond_top(capsys):
    assert run_cli("embed", "--strategy", "diamond-top", "--level", "1") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["k"] == 2 and out["proj_norm"] == 1


def test_exit_codes(tmp_path, monkeypatch):
    assert run_cli("gen", "--family", "nonsense") == 1          # usage
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"points": ["a", "b"], "dist": [[0, 1], [2, 0]]}))
    mol = tmp_path / "m.json"
    mol.write_text(json.dumps({"coeffs": {"a": 1, "b": -1}}))
    assert run_cli("norm", "--space", str(bad), "--molecule", str(mol)) == 2
    monkeypatch.setattr(graphs, "EDGE_CAP", 10)
    assert run_cli("gen", "--family", "diamond", "--level", "3") == 4


def test_console_script_entry():
    proc = subprocess.run([sys.executable, "-m", "freelip.cli", "gen",
                           "--family", "path", "--level", "3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema"] == "freelip/1"


def test_reproduce_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("reproduce", "--seed", "7", "--out", str(a)) == 0
    capsys.readouterr()
    assert run_cli("reproduce", "--seed", "7", "--out", str(b)) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() == (Path(__file__).parent / "data" / "reproduce_seed7.csv").read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "claim,target,computed,status"


def test_reproduce_full_matches_the_golden_file(tmp_path, capsys):
    out = tmp_path / "full.csv"
    assert run_cli("reproduce", "--seed", "7", "--full", "--out", str(out)) == 0
    capsys.readouterr()
    want = Path(__file__).parent / "data" / "reproduce_seed7_full.csv"
    assert out.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("shift", [F(1, 4 ** 6), F(-1, 4 ** 6)])
def test_haar_witness_row_checks_the_closed_form(monkeypatch, shift):
    # a |Qf| off the closed form fails its row, even above (2n+1)/3
    real = haar_system.haar_witness_bound

    def perturbed(n):
        f, nf, qf, nqf = real(n)
        return f, nf, qf, nqf + shift if n == 4 else nqf

    assert all(row.ok for row in report.haar_witness(random.Random(0), n_max=5))
    monkeypatch.setattr(haar_system, "haar_witness_bound", perturbed)
    rows = report.haar_witness(random.Random(0), n_max=5)
    assert [row.ok for row in rows] == [True, True, True, False, True]


def test_haar_past_the_cell_cap_exits_with_the_resource_limit_code():
    proc = subprocess.run([sys.executable, "-m", "freelip.cli", "haar", "--n", "14"],
                          capture_output=True, text=True)
    assert proc.returncode == 4
    assert proc.stderr.startswith("resource limit: ") and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_reproduce_programming_error_propagates(monkeypatch):
    def broken(*args):
        raise TypeError("bug in a kernel")

    monkeypatch.setattr(report, "tree_norm", broken)
    with pytest.raises(TypeError, match="bug in a kernel"):
        run_cli("reproduce")


def test_reproduce_fail_row_has_its_own_exit_code(monkeypatch, capsys):
    def failing(*args):
        raise SolverFailure("no optimum")

    monkeypatch.setattr(report, "tree_norm", failing)
    assert run_cli("reproduce") == 5
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("FAIL  tree-isometry") and "no optimum" in out[0]
    assert all(line.startswith("PASS") for line in out[1:])


def test_multibranch_row_fails_when_a_cut_vector_is_not_orthogonal_to_a_cycle(monkeypatch):
    # the claim relies on multibranch_analysis to reject a bad cut space:
    # h_{1,3} plus a cycle is still orthogonal to the other cut vectors,
    # but not to that cycle, so P would not kill the cycle space
    def meeting_a_cycle(n, k):
        cut = real(n, k)
        return cut[:3] + [cut[3] + haar_system.DyadicVector((1, 1, -1, -1, 0, 0))]

    real = haar_system.multibranch_cut_basis
    monkeypatch.setattr(haar_system, "multibranch_cut_basis", meeting_a_cycle)
    [row] = report.multibranch(random.Random(0), pairs=((1, 3),))
    assert not row.ok
    assert row.computed.startswith("error: ") and "cycle image" in row.computed
