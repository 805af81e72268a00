import random
from fractions import Fraction as F

import pytest

from freelip.cyclespace import (EdgeVector, boundary, fundamental_cycle_basis,
                                fundamental_cycles_as_walks, greedy_cycle_packing,
                                mu, quotient_norm, signed_indicator,
                                up_down_decomposition)
from freelip.errors import NotACycle
from freelip.graphs import diamond, k2n_base, laakso, multidiamond, path
from freelip.metric import graph_metric
from freelip.freenorm import ae_norm
from freelip.randgen import random_edge_vector
from freelip import linalg

from oracles import flow_norm

RNG_SEED = 777


def test_signed_indicator_diamond_outer_cycle():
    g = diamond(1)
    vec = signed_indicator(["tl", "bl", "br", "tr"], g)
    # one ascending and one descending pair, walked around the square
    assert vec.coeffs["tl"] == vec.coeffs["bl"]
    assert vec.coeffs["br"] == vec.coeffs["tr"] == -vec.coeffs["tl"]
    assert abs(vec.coeffs["tl"]) == 1


def test_signed_indicator_reversal_negates():
    g = diamond(1)
    walk = ["tl", "bl", "br", "tr"]
    vec = signed_indicator(walk, g)
    rev = signed_indicator(list(reversed(walk)), g)
    assert rev == -vec


def test_signed_indicator_laakso_central_cycle():
    g = laakso(1)
    vec = signed_indicator(["x1", "x2", "y2", "y1"], g)
    assert set(vec.coeffs) == {"x1", "x2", "y1", "y2"}  # stems untouched
    assert vec.get("b") == 0 and vec.get("t") == 0
    assert vec.coeffs["x1"] == vec.coeffs["x2"] == -vec.coeffs["y1"]


def test_signed_indicator_rejects_non_cycles():
    g = diamond(1)
    with pytest.raises(NotACycle):
        signed_indicator(["tl", "bl"], g)
    with pytest.raises(NotACycle):
        signed_indicator(["tl", "bl", "br"], g)  # open walk
    with pytest.raises(NotACycle):
        signed_indicator(["tl", "tl", "bl", "br"], g)


def test_fundamental_basis_tree_is_empty():
    assert len(fundamental_cycle_basis(path(5)).vectors) == 0


def test_fundamental_basis_diamond_two():
    basis = fundamental_cycle_basis(diamond(2))
    assert len(basis.vectors) == 16 - 12 + 1 == 5
    dense = [v.dense() for v in basis.vectors]
    assert linalg.rank(dense) == 5
    for v in basis.vectors:
        assert boundary(v).is_zero()


def test_fundamental_basis_diamond_one_spans_outer_cycle():
    g = diamond(1)
    basis = fundamental_cycle_basis(g)
    assert len(basis.vectors) == 1
    outer = signed_indicator(["tl", "bl", "br", "tr"], g)
    assert linalg.rank([basis.vectors[0].dense(), outer.dense()]) == 1


def test_boundary_of_single_edge():
    g = diamond(1)
    m = boundary(EdgeVector(g, {"bl": F(1)}))  # bl: bottom -> l
    assert m.coeffs == {"l": F(1), "bottom": F(-1)}


def test_boundary_kills_cycles_and_preserves_zero_mass():
    rng = random.Random(RNG_SEED)
    g = diamond(2)
    for vec in fundamental_cycle_basis(g).vectors:
        assert boundary(vec).is_zero()
    for _ in range(10):
        x = random_edge_vector(rng, g)
        assert sum(boundary(x).coeffs.values(), start=F(0)) == 0


def test_quotient_norm_of_cycle_is_zero():
    g = diamond(1)
    vec = signed_indicator(["tl", "bl", "br", "tr"], g)
    assert quotient_norm(vec) == 0


def test_quotient_norm_zero_vector():
    assert quotient_norm(EdgeVector(diamond(1), {})) == 0


def test_quotient_norm_single_edge_matches_boundary_norm():
    g = diamond(1)
    space = graph_metric(g)
    x = EdgeVector(g, {"tl": F(1)})
    q = quotient_norm(x)
    oracle = ae_norm(space, boundary(x))[0]
    assert q == oracle == flow_norm(g, boundary(x))


@pytest.mark.parametrize("g", [diamond(1), diamond(2), laakso(1), k2n_base(3)])
def test_quotient_identity_random_vectors(g):
    rng = random.Random(RNG_SEED + hash(len(g.edges)) % 100)
    space = graph_metric(g)
    basis = fundamental_cycle_basis(g)
    for _ in range(8):
        x = random_edge_vector(rng, g)
        assert quotient_norm(x, basis) == ae_norm(space, boundary(x))[0]


def test_quotient_norm_float_mode_close():
    rng = random.Random(RNG_SEED + 5)
    g = laakso(1)
    space = graph_metric(g)
    for _ in range(5):
        x = random_edge_vector(rng, g)
        exact = quotient_norm(x)
        approx = quotient_norm(x, mode="float")
        assert abs(float(exact) - approx) <= 1e-7


def test_mu_values():
    assert mu(diamond(2)) == 5
    assert mu(path(6)) == 0
    for n in (1, 2, 3):
        assert mu(diamond(n)) == (4 ** n - 1) // 3
    for g in (diamond(2), laakso(2), multidiamond(2, 3), path(6)):
        assert mu(g) == len(fundamental_cycle_basis(g).vectors)


def test_greedy_packing_diamond_one():
    assert len(greedy_cycle_packing(diamond(1))) == 1


def test_greedy_packing_tree_empty():
    assert greedy_cycle_packing(path(4)) == []


def test_greedy_packing_diamond_two_disjoint():
    cycles = greedy_cycle_packing(diamond(2))
    assert len(cycles) >= 4
    seen: set[str] = set()
    for cyc in cycles:
        assert not (seen & set(cyc))
        seen.update(cyc)
    # support Gram matrix is diagonal
    g = diamond(2)
    vecs = [signed_indicator(c, g) for c in cycles]
    for i, a in enumerate(vecs):
        for b in vecs[i + 1:]:
            assert not (a.support() & b.support())


@pytest.mark.parametrize("g", [diamond(2), laakso(2), multidiamond(2, 3)])
def test_packed_cycles_decompose_up_down(g):
    for cyc in greedy_cycle_packing(g):
        assert up_down_decomposition(cyc, g)
    for walk in fundamental_cycles_as_walks(g):
        assert up_down_decomposition(walk, g)


def test_greedy_packing_deterministic():
    a = greedy_cycle_packing(laakso(2))
    b = greedy_cycle_packing(laakso(2))
    assert a == b
