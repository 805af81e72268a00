import os
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from freelip import graphs
from freelip.errors import ResourceLimit, ValidationError
from freelip.graphs import (Edge, TwoPoleGraph, automorphism_search, compose,
                            diamond, diamond_base, k2n_base, laakso, laakso_base,
                            multidiamond, path, recursive_family, single_edge, star)
from freelip.metric import graph_metric
from freelip.randgen import random_tree
from freelip.recursive import enumerate_geodesics
from oracles import validate_two_pole_graph


def test_single_edge_is_left_unit_up_to_ordering():
    g = laakso_base()
    c = compose(single_edge(), g)
    assert set(c.vertices) == set(g.vertices)
    assert {(e.id, e.tail, e.head) for e in c.edges} == {(e.id, e.tail, e.head) for e in g.edges}
    assert (c.top, c.bottom) == (g.top, g.bottom)


def test_compose_diamond_once_gives_level_two():
    d1 = diamond(1)
    d2 = compose(d1, d1)
    assert d2 == diamond(2)
    assert len(d2.edges) == 16
    assert len(d2.vertices) == 12


def test_compose_edge_count_multiplies():
    c = compose(laakso_base(), k2n_base(3))
    assert len(c.edges) == 6 * 6


def test_compose_is_associative_on_canonical_forms():
    f, g, h = diamond_base(), laakso_base(), k2n_base(3)
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_recursive_family_level_zero():
    assert recursive_family(laakso_base(), 0) == single_edge()


@pytest.mark.parametrize("base,n", [(diamond_base(), 3), (laakso_base(), 2), (k2n_base(3), 2)])
def test_recursive_family_edge_counts(base, n):
    g = recursive_family(base, n)
    assert len(g.edges) == len(base.edges) ** n


def test_split_composition_agrees():
    # B_n = B_{n-k} o B_k for every split, as literal canonical forms
    b = laakso_base()
    b3 = recursive_family(b, 3)
    for k in (1, 2):
        assert compose(recursive_family(b, 3 - k), recursive_family(b, k)) == b3


def test_diamond_counts():
    assert len(diamond(2).edges) == 16
    d2 = diamond(2)
    assert len(d2.vertices) == 2 * (1 + 1 + 4)


def test_multidiamond_level_one_counts():
    g = multidiamond(1, 3)
    assert len(g.edges) == 6
    assert len(g.vertices) == 5


def test_laakso_level_one_counts():
    g = laakso(1)
    assert len(g.edges) == 6
    assert len(g.vertices) == 6


def test_edge_cap_override(monkeypatch):
    monkeypatch.setattr(graphs, "EDGE_CAP", 100)
    with pytest.raises(ResourceLimit):
        diamond(4)
    monkeypatch.undo()
    assert len(diamond(4).edges) == 256


def test_automorphisms_k23_fix_poles():
    auts = automorphism_search(k2n_base(3), "fix-poles")
    assert len(auts) == 6  # the middle vertices permute freely


def test_automorphisms_laakso_swap_contains_path_reflection():
    auts = automorphism_search(laakso(1), "swap-poles")
    reflection = {"bottom": "top", "top": "bottom", "u": "w", "w": "u",
                  "x": "x", "y": "y"}
    assert reflection in auts


def test_automorphisms_single_edge():
    auts = automorphism_search(single_edge(), "fix-poles")
    assert auts == [{"bottom": "bottom", "top": "top"}]


def test_automorphism_vertex_cap(monkeypatch):
    assert len(automorphism_search(path(39), "fix-poles")) == 1     # 40 vertices
    with pytest.raises(ResourceLimit):
        automorphism_search(path(40), "fix-poles")
    monkeypatch.setattr(graphs, "AUTOMORPHISM_VERTEX_CAP", 4)
    with pytest.raises(ResourceLimit):
        automorphism_search(k2n_base(3), "fix-poles")                # 5 vertices


@pytest.mark.parametrize("g", [diamond(2), laakso(2), multidiamond(2, 3)])
def test_orientation_and_even_geodesic_cover(g):
    # every edge head is strictly closer to the top than its tail
    space = graph_metric(g)
    assert all(space.d(e.head, g.top) < space.d(e.tail, g.top) for e in g.edges)
    geos = enumerate_geodesics(g)
    lengths = {len(w) for w in geos}
    assert len(lengths) == 1 and next(iter(lengths)) % 2 == 0
    covered = {eid for w in geos for eid in w}
    assert covered == {e.id for e in g.edges}


def test_path_and_star():
    p = path(4)
    assert len(p.edges) == 4 and p.bottom == "v0" and p.top == "v4"
    s = star(5)
    assert len(s.edges) == 5 and s.bottom == "c"


def test_graph_validation_errors():
    with pytest.raises(ValidationError, match="self-loop at 'a'"):
        TwoPoleGraph(("a", "b"), (Edge("e", "a", "a"),), "a", "b")
    with pytest.raises(ValidationError, match="graph is not connected"):
        TwoPoleGraph(("a", "b", "c"), (Edge("e", "a", "b"),), "a", "b")
    with pytest.raises(ValidationError, match="parallel edge between 'b' and 'a'"):
        TwoPoleGraph(("a", "b"), (Edge("e1", "a", "b"), Edge("e2", "b", "a")), "a", "b")


def test_graph_json_roundtrip():
    g = laakso(1)
    assert TwoPoleGraph.from_json(g.to_json()) == g


@pytest.mark.parametrize("weight", [F(0), -1, 0.5, True, F(-1, 2), None, "1"],
                         ids=["zero", "minus-one", "float", "bool", "negative-fraction", "none",
                              "string"])
def test_weights_must_be_positive_ints_or_fractions(weight):
    # the graph is otherwise valid, so only the weight rule can refuse it
    with pytest.raises(ValidationError,
                       match=re.escape(f"edge 'e2' has weight {weight!r}; weights must be")):
        TwoPoleGraph(("a", "b", "c"), (Edge("e1", "a", "b"), Edge("e2", "b", "c", weight)),
                     "c", "a")


def test_positive_int_and_fraction_weights_are_accepted():
    g = TwoPoleGraph(("a", "b", "c"), (Edge("e1", "a", "b", 2), Edge("e2", "b", "c", F(1, 3))),
                     "c", "a")
    assert graph_metric(g).d("a", "c") == F(7, 3)


def test_weight_errors_come_after_every_structural_check():
    # an input that is invalid in structure keeps its structural message
    with pytest.raises(ValidationError, match="graph is not connected"):
        TwoPoleGraph(("a", "b", "c"), (Edge("e1", "a", "b", F(0)),), "b", "a")
    # the first bad weight in edge order is named, also behind a run of
    # edges sharing one valid weight object
    edges = tuple(Edge(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(4))
    edges += (Edge("e4", "v4", "v5", -2), Edge("e5", "v5", "v6", F(0)))
    with pytest.raises(ValidationError, match="edge 'e4' has weight -2"):
        TwoPoleGraph(tuple(f"v{i}" for i in range(7)), edges, "v6", "v0")


FAULTS = ("duplicate-vertex", "equal-poles", "missing-pole", "self-loop", "unknown-endpoint",
          "duplicate-id", "parallel-same", "parallel-reversed", "disconnected")


def _inject(rng, fault, vertices, edges, poles):
    """Apply one fault to lists of vertices and edges and the [top, bottom]
    pair, inserting anything new at a random position."""
    def insert(seq, item):
        seq.insert(rng.randint(0, len(seq)), item)

    e = rng.choice(edges) if edges else Edge("e", vertices[0], vertices[-1])
    new_id = f"x{rng.randrange(10 ** 6)}"
    if fault == "duplicate-vertex":
        insert(vertices, rng.choice(vertices))
    elif fault == "equal-poles":
        k = rng.randrange(2)
        poles[k] = poles[1 - k]
    elif fault == "missing-pole":
        poles[rng.randrange(2)] = "nowhere"
    elif fault == "self-loop":
        v = rng.choice(vertices)
        insert(edges, Edge(new_id, v, v))
    elif fault == "unknown-endpoint":
        ends = [rng.choice(vertices), "ghost"]
        rng.shuffle(ends)
        insert(edges, Edge(new_id, *ends))
    elif fault == "duplicate-id":
        a, b = rng.sample(vertices, 2)
        insert(edges, Edge(e.id, a, b))
    elif fault == "parallel-same":
        insert(edges, Edge(new_id, e.tail, e.head))
    elif fault == "parallel-reversed":
        insert(edges, Edge(new_id, e.head, e.tail))
    else:
        island = [f"island{rng.randrange(10 ** 6)}" for _ in range(rng.randint(1, 2))]
        for v in island:
            insert(vertices, v)
        if len(island) == 2:
            insert(edges, Edge(new_id, *island))


def _differential_cases():
    rng = random.Random(20261020)
    bases = [path(1), path(5), star(1), star(6), diamond(2), laakso(1)]
    for i in range(560):
        base = bases[i] if i < len(bases) else (
            rng.choice(bases) if i % 2 else random_tree(rng, rng.randint(1, 12)))
        vertices, edges, poles = list(base.vertices), list(base.edges), [base.top, base.bottom]
        faults = [rng.choice(FAULTS) for _ in range(rng.choice((0, 1, 1, 2)))]
        for fault in faults:
            _inject(rng, fault, vertices, edges, poles)
        yield tuple(vertices), tuple(edges), *poles


def test_validation_matches_the_name_based_oracle():
    outcomes = {}
    for vertices, edges, top, bottom in _differential_cases():
        try:
            validate_two_pole_graph(vertices, edges, top, bottom)
            expected = None
        except ValidationError as exc:
            expected = str(exc)
        try:
            TwoPoleGraph(vertices, edges, top, bottom)
            got = None
        except ValidationError as exc:
            got = str(exc)
        assert got == expected, (vertices, edges, top, bottom)
        kind = "accepted" if expected is None else re.sub(r"'[^']*'", "_", expected)
        outcomes[kind] = outcomes.get(kind, 0) + 1
    # every check fires, and accepts, many times over the set
    assert sorted(outcomes) == sorted(["accepted", "duplicate vertex names",
                                       "top and bottom must differ", "poles must be vertices",
                                       "self-loop at _", "edge _ has unknown endpoint",
                                       "duplicate edge id _", "parallel edge between _ and _",
                                       "graph is not connected"]), outcomes
    assert min(outcomes.values()) >= 20, outcomes


_BUILD_PEAK = """
import re, resource
from freelip.graphs import diamond, laakso_base, recursive_family
g = {build}
try:
    with open("/proc/self/status") as f:
        peak_kb = int(re.search(r"VmHWM:\\s*(\\d+) kB", f.read()).group(1))
except OSError:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(len(g.edges), peak_kb // 1024)
"""


@pytest.mark.parametrize("build,n_edges,limit_mb", [
    ("recursive_family(laakso_base(), 6)", 46656, 45),
    ("diamond(9)", 262144, 160),
], ids=["laakso-6", "diamond-9"])
def test_deep_family_builds_within_memory(build, n_edges, limit_mb):
    # the limits sit about 25% above the builds' peaks (36 and 131 MB) and
    # below the 53 and 219 MB of name-based checks with a frozenset per
    # edge and an adjacency dict of lists.  The child reads its
    # peak as VmHWM where there is one: on Linux a child's ru_maxrss starts
    # from the peak of the process that started it, here the test runner.
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", _BUILD_PEAK.format(build=build)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    edges, rss_mb = map(int, proc.stdout.split())
    assert edges == n_edges
    assert rss_mb < limit_mb, f"{rss_mb} MB peak RSS"
