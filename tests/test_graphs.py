import pytest

from freelip import graphs
from freelip.errors import ResourceLimit, ValidationError
from freelip.graphs import (Edge, TwoPoleGraph, automorphism_search, compose,
                            diamond, diamond_base, k2n_base, laakso, laakso_base,
                            multidiamond, path, recursive_family, single_edge, star)
from freelip.metric import graph_metric
from freelip.recursive import enumerate_geodesics


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
    with pytest.raises(ValidationError):
        TwoPoleGraph(("a", "b"), (Edge("e", "a", "a"),), "a", "b")
    with pytest.raises(ValidationError):  # disconnected
        TwoPoleGraph(("a", "b", "c"), (Edge("e", "a", "b"),), "a", "b")
    with pytest.raises(ValidationError):  # parallel edges
        TwoPoleGraph(("a", "b"), (Edge("e1", "a", "b"), Edge("e2", "b", "a")), "a", "b")


def test_graph_json_roundtrip():
    g = laakso(1)
    assert TwoPoleGraph.from_json(g.to_json()) == g
