import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from freelip import cyclespace, haar_system, linalg, symmetry
from freelip.cyclespace import boundary, fundamental_cycle_basis
from freelip.errors import ResourceLimit, ValidationError
from freelip.graphs import diamond, diamond_base, k2n_base, multidiamond
from freelip.haar_system import (DyadicVector, diamond_bm_bounds, diamond_cell_index, haar,
                                 haar_coefficients, haar_witness_bound, multibranch_analysis,
                                 multibranch_cell_index, multibranch_cut_basis,
                                 verify_even_level_span)
from freelip.projections import bm_upper_via_basis_map, l1_norm
from freelip.recursive import profile_base
from freelip.symmetry import invariance_generators
from freelip.simplex import min_l1_combination

from oracles import (all_vectors_bm_upper, dense_linf, dense_multibranch_analysis,
                     dense_orthogonal_projection, diamond_cut_vectors, even_level_span_dense,
                     fraction_cut_column_norm, fraction_haar_coefficients, integer_maps,
                     is_idempotent, level_indices, level_span_vectors, mat_vec,
                     multibranch_graph_to_dyadic, on_edges, orbit_bm_upper, reflection)


def test_haar_basic_vectors():
    assert haar(0, 2).values == (1, 1, 1, 1)
    assert haar(1, 2).values == (1, 1, -1, -1)
    assert haar(2, 2).values == (1, -1, 0, 0)


def test_haar_orthogonality():
    vecs = [haar(i, 3) for i in range(8)]
    for i, a in enumerate(vecs):
        for b in vecs[i + 1:]:
            assert a.inner(b) == 0


def test_haar_resolution_guard():
    with pytest.raises(ValidationError, match="h_4 needs resolution >= 3"):
        haar(4, 2)
    with pytest.raises(ValidationError):
        haar(-1, 2)
    with pytest.raises(ValidationError, match="resolution -1 is negative"):
        haar(0, -1)


def test_haar_cell_cap(monkeypatch):
    # the cap admits D_8's 4^8 cells (bm-sandwich --full) and
    # haar_witness_bound(9)'s 2^17
    assert haar_system.HAAR_CELL_CAP >= max(4 ** 8, 2 ** 17)
    monkeypatch.setattr(haar_system, "HAAR_CELL_CAP", 16)
    assert len(haar(3, 4)) == 16
    for i in (0, 3):
        with pytest.raises(ResourceLimit, match="2\\^5 cells"):
            haar(i, 5)
    with pytest.raises(ResourceLimit):
        diamond_bm_bounds(3)                # 64 cells
    with pytest.raises(ResourceLimit):
        haar_witness_bound(3)               # 32 cells
    assert diamond_bm_bounds(2)["upper"] == 3


@pytest.mark.parametrize("n", [1, 2, 3])
def test_even_level_span_equality(n):
    assert verify_even_level_span(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_even_level_span_matches_dense_oracle(n):
    assert verify_even_level_span(n) == even_level_span_dense(n)


@pytest.mark.parametrize("n", [1, 2])
def test_span_checks_reject_swapped_quarters(n, monkeypatch):
    monkeypatch.setattr(haar_system, "QUARTER", {"tl": 0, "bl": 2, "br": 1, "tr": 3})
    assert not verify_even_level_span(n)
    assert not even_level_span_dense(n)


def test_cell_index_recursion():
    assert diamond_cell_index("tl", 1) == 0
    assert diamond_cell_index("bl/tr", 2) == 1 * 4 + 3
    assert multibranch_cell_index("p2d/p3u", 2, 3) == 6 * 2 + 5


@pytest.mark.parametrize("edge_id", ["xx", "tl/xx", "TL", ""])
def test_diamond_cell_index_rejects_a_segment_that_is_not_a_quarter(edge_id):
    n = max(1, edge_id.count("/") + 1)
    with pytest.raises(ValidationError, match=repr(edge_id)):
        diamond_cell_index(edge_id, n)


@pytest.mark.parametrize("edge_id,n,k", [
    ("p1d/p4d", 2, 3),      # D_{2,4}'s edge: used to land on the cell of p2d/p1d
    ("p9d", 1, 3),          # used to give cell 16 of a 6-cell grid
    ("pqd", 1, 3),          # used to raise a bare ValueError
    ("xx", 1, 3),
    ("p0d", 1, 3),
    ("p1x", 1, 3),
    ("p01d", 1, 3),
    ("p1d/p1", 2, 3),
])
def test_multibranch_cell_index_rejects_malformed_or_out_of_range_segments(edge_id, n, k):
    with pytest.raises(ValidationError, match=repr(edge_id)):
        multibranch_cell_index(edge_id, n, k)


def test_cell_indices_cover_the_grid_once():
    for g, cell, cells in ((diamond(2), lambda e: diamond_cell_index(e, 2), 16),
                           (multidiamond(2, 3), lambda e: multibranch_cell_index(e, 2, 3), 36)):
        assert sorted(cell(e.id) for e in g.edges) == list(range(cells))


def test_dyadic_vector_add_and_sub_reject_a_resolution_mismatch():
    with pytest.raises(ValidationError, match="resolution mismatch"):
        haar(1, 2) + haar(1, 3)
    with pytest.raises(ValidationError, match="resolution mismatch"):
        haar(1, 3) - haar(1, 2)
    with pytest.raises(ValidationError, match="resolution mismatch"):
        haar(1, 2).inner(haar(1, 3))


def test_dyadic_vector_arithmetic_over_mixed_denominators():
    a = DyadicVector((1, -3, 0, 2), 6)
    b = DyadicVector((3, 0, -6, 20), 12)
    assert a.values == (F(1, 6), F(-1, 2), F(0), F(1, 3))
    assert (a + b).values == tuple(x + y for x, y in zip(a.values, b.values))
    assert (a - b).values == tuple(x - y for x, y in zip(a.values, b.values))
    assert a.scale(F(-3, 5)).values == tuple(F(-3, 5) * x for x in a.values)
    assert a.l1() == sum(abs(x) for x in a.values) / 4
    assert a.inner(b) == sum(x * y for x, y in zip(a.values, b.values)) / 4
    assert DyadicVector((2, 4), 6) == DyadicVector((1, 2), 3)          # kept in lowest terms
    with pytest.raises(ValidationError):
        DyadicVector((1,), 0)


_GRID_VALUES = st.integers(0, 5).flatmap(lambda r: st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=12)
    | st.sampled_from([F(0)]), min_size=2 ** r, max_size=2 ** r))


@settings(max_examples=200, deadline=None)
@given(_GRID_VALUES)
def test_haar_coefficients_match_the_fraction_transform(values):
    from math import lcm
    den = lcm(*(v.denominator for v in values))
    v = DyadicVector(tuple(int(x * den) for x in values), den)
    assert v.values == tuple(values)
    coeffs = haar_coefficients(v)
    assert coeffs == fraction_haar_coefficients(values)
    assert all(coeffs.values())
    # the expansion rebuilds v
    rebuilt = DyadicVector((0,) * len(values))
    for i, c in coeffs.items():
        rebuilt = rebuilt + haar(i, len(values).bit_length() - 1).scale(c)
    assert rebuilt == v


def test_haar_coefficients_reject_a_grid_that_is_not_a_power_of_two():
    with pytest.raises(ValidationError, match="power of two"):
        haar_coefficients(DyadicVector((1, 2, 3)))


def _reflect(s, v):
    """g v for the permutation matrix g of index map s: (g v)[s(t)] = v[t]."""
    out = [None] * len(v)
    for t, st in enumerate(s):
        out[st] = v[t]
    return out


def test_reflection_observations():
    # the five commutation facts behind the averaging lemma
    res = 4  # indices below 16
    maps = {i: reflection(i, res) for i in range(1, 16)}
    hs = {i: list(haar(i, res).values) for i in range(16)}

    def supp(i):
        return {t for t, v in enumerate(hs[i]) if v != 0}

    for i in range(1, 16):
        assert _reflect(maps[i], hs[i]) == [-v for v in hs[i]]         # (2)
        assert [hs[i][st] for st in maps[i]] == [-v for v in hs[i]]    # (3): g^T v
        for j in range(16):
            if i == j:
                continue
            if 0 <= j < i and supp(i) < supp(j):
                assert _reflect(maps[i], hs[j]) == hs[j]               # (4)
            if i > j >= 0 or not (supp(i) & supp(j)):
                assert _reflect(maps[i], hs[j]) == hs[j]               # (5)


def test_reflection_examples():
    g1 = reflection(1, 2)
    assert _reflect(g1, list(haar(1, 2).values)) == [-1, -1, 1, 1]
    assert _reflect(g1, list(haar(0, 2).values)) == [1, 1, 1, 1]
    g4 = reflection(4, 3)
    assert _reflect(g4, list(haar(1, 3).values)) == list(haar(1, 3).values)
    with pytest.raises(ValidationError, match="i >= 1"):
        reflection(0, 3)
    with pytest.raises(ValidationError, match="g_4 needs resolution >= 3"):
        reflection(4, 2)


def _reflection_group_average(p, resolution):
    # the Grunbaum-Rudin average of p over the group of every g_i on the grid
    gens = [reflection(i, resolution) for i in range(1, 2 ** resolution)]
    num, den = linalg.integer_rows(p)
    return linalg.fractions(*symmetry.average(num, den, symmetry.closure(gens), gens))


def test_andrew_average_equals_orthogonal():
    # a projection onto span h_1 that is not orthogonal averages to the
    # orthogonal one, as haar_witness_bound's pair lemma says
    z = list(haar(1, 2).values)
    a = [F(1, 2), F(1, 4), F(-1, 8), F(-1, 8)]
    dot = sum(x * y for x, y in zip(a, z))
    a = [x / dot for x in a]
    p = [[z[i] * a[j] for j in range(4)] for i in range(4)]
    p_y = dense_orthogonal_projection(level_span_vectors([0], 2))
    assert p != p_y
    assert _reflection_group_average(p, 2) == p_y
    assert l1_norm(p) >= l1_norm(p_y) == 1


def test_pair_lemma_on_the_haar_indices_of_d_n():
    # haar_witness_bound's proof: for h_k in Y (the even levels) and h_j =
    # h_0 or on an odd level, g_k negates h_k and fixes h_j when supp h_k
    # lies inside supp h_j or misses it; otherwise supp h_j lies inside
    # supp h_k, and g_j negates h_j and fixes h_k
    for n in (1, 2, 3):
        res = 2 * n
        hs = {i: list(haar(i, res).values) for i in range(4 ** n)}
        supp = {i: {t for t, v in enumerate(h) if v} for i, h in hs.items()}
        g = {i: reflection(i, res) for i in hs if i}
        for k in (i for i in hs if i and (i.bit_length() - 1) % 2 == 0):
            for j in (i for i in hs if i == 0 or (i.bit_length() - 1) % 2 == 1):
                if supp[k] <= supp[j] or not supp[k] & supp[j]:
                    mine, other = k, j
                else:
                    assert supp[j] < supp[k]
                    mine, other = j, k
                assert _reflect(g[mine], hs[mine]) == [-v for v in hs[mine]]
                assert _reflect(g[mine], hs[other]) == hs[other]


def test_andrew_bound_tight_for_orthogonal():
    vecs = level_span_vectors([-1, 1], 2)
    p_y = dense_orthogonal_projection(vecs)
    p_again, bound = haar_system._OrthogonalFamily(vecs).matrix(4)
    assert p_again == p_y
    assert bound == l1_norm(p_y)


@pytest.mark.parametrize("levels,resolution", [([0], 3), ([0, 2], 4), ([-1, 1, 3], 4)])
def test_andrew_bound_matches_the_dense_projection(levels, resolution):
    vecs = level_span_vectors(levels, resolution)
    p_y = dense_orthogonal_projection(vecs)
    p_again, bound = haar_system._OrthogonalFamily(vecs).matrix(2 ** resolution)
    assert p_again == p_y
    assert bound == l1_norm(p_y)


def test_andrew_even_levels_bound_at_least_witness():
    # the norm of the orthogonal projection onto the even levels of D_n's
    # 4^n cells is haar_witness_bound's ||Qf||_1 on its coarser grid
    for n in (1, 2, 3):
        vecs = level_span_vectors(range(0, 2 * n, 2), 2 * n)
        _, bound = haar_system._OrthogonalFamily(vecs).matrix(4 ** n)
        assert bound == haar_witness_bound(n)[3]
    assert bound == F(39, 16)


@pytest.mark.parametrize("n,expected", [(1, F(1)), (2, F(7, 4))])
def test_haar_witness_values(n, expected):
    _, nf, _, nqf = haar_witness_bound(n)
    assert nf == 1 and nqf == expected


def test_haar_witness_bound_general():
    for n in range(1, 7):
        _, nf, qf, nqf = haar_witness_bound(n)
        assert nf == 1
        assert nqf >= F(2 * n + 1, 3)
        # Qf is the orthogonal projection of f onto the even levels
        coeffs = haar_coefficients(qf)
        assert {i.bit_length() - 1 for i in coeffs} <= {2 * k for k in range(n)}


def test_haar_witness_matches_matrix_projection():
    for n in (1, 2):
        f, _, qf, _ = haar_witness_bound(n)
        res = 2 * n - 1
        vecs = level_span_vectors([2 * k for k in range(n)], res)
        p = dense_orthogonal_projection(vecs)
        assert mat_vec(p, list(f.values)) == list(qf.values)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_diamond_bm_bounds_small(n):
    b = diamond_bm_bounds(n)
    assert b["lower"] == F(2 * n + 1, 3)
    assert b["exact_orth_norm"] >= b["lower"]
    assert b["upper"] == b["t_norm"] == n + 1 and b["tinv_norm"] == 1
    # the norm read off one column equals the dense projection's
    assert b["exact_orth_norm"] == dense_linf(dense_orthogonal_projection(diamond_cut_vectors(n)))
    assert b["exact_orth_norm"] == [F(3, 2), F(17, 8), F(89, 32)][n - 1]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_diamond_bm_bounds_match_the_fraction_references(n):
    # upper = n + 1 is the all-vectors bound for n <= 3 (checked below);
    # at n = 4 that reference takes 14 s, one quotient norm per cut vector
    b = diamond_bm_bounds(n)
    assert b == {"lower": F(2 * n + 1, 3), "exact_orth_norm": fraction_cut_column_norm(n),
                 "upper": n + 1, "t_norm": n + 1, "tinv_norm": 1}
    assert diamond_bm_bounds(n, include_upper=False) == dict(b, upper=None, t_norm=None,
                                                             tinv_norm=None)


def test_diamond_bm_bounds_at_n4():
    start = time.perf_counter()
    b = diamond_bm_bounds(4)
    assert time.perf_counter() - start < 5
    assert b["exact_orth_norm"] == F(441, 128)
    assert b["upper"] == 5 and b["lower"] == 3


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quotient_normalization_is_paper_scaling(n):
    # 2^(2k-1) h_i on odd level 2k-1, and h_0 itself, have quotient norm 1
    zcols = [list(haar(i, 2 * n).values) for k in range(n) for i in level_indices(2 * k)]
    scaled = [haar(0, 2 * n)] + [haar(i, 2 * n).scale(2 ** (2 * k - 1))
                                 for k in range(1, n + 1) for i in level_indices(2 * k - 1)]
    for w in scaled:
        value, _ = min_l1_combination(list(w.values), zcols)
        assert value / 4 ** n == 1  # the LP sums cells; the grid L1 norm is the mean


def _cut_edge_vectors(family, n, k=None):
    if family == "diamond":
        g, base = diamond(n), diamond_base()
        vecs = on_edges(g, diamond_cut_vectors(n), lambda eid: diamond_cell_index(eid, n))
    else:
        g, base = multidiamond(n, k), k2n_base(k)
        vecs = on_edges(g, multibranch_cut_basis(n, k),
                        lambda eid: multibranch_cell_index(eid, n, k))
    gens = list(invariance_generators(profile_base(base), n, g).values())
    return g, vecs, gens


def _count_quotient_norms(monkeypatch):
    solved = []
    real = cyclespace.quotient_norm
    monkeypatch.setattr(cyclespace, "quotient_norm", lambda x: solved.append(x) or real(x))
    return solved


@pytest.mark.parametrize("family,n,k,orbits", [
    ("diamond", 1, None, 2), ("diamond", 2, None, 3), ("diamond", 3, None, 5),
    ("multi", 1, 3, 2), ("multi", 2, 3, 3), ("multi", 1, 4, 2), ("multi", 2, 4, 3)])
def test_orbit_reduced_upper_bound_equals_the_all_vectors_bound(family, n, k, orbits,
                                                                 monkeypatch):
    # the orbit reference solves one quotient norm per orbit, the all-vectors
    # reference one per cut vector, and the library none: every cut vector
    # is +-1 on its support
    g, vecs, gens = _cut_edge_vectors(family, n, k)
    want = all_vectors_bm_upper(g, vecs)
    solved = _count_quotient_norms(monkeypatch)
    assert orbit_bm_upper(g, vecs, gens) == (want, want, 1)
    assert len(solved) == orbits
    # without generators every cut vector is its own orbit
    solved.clear()
    assert orbit_bm_upper(g, vecs, []) == (want, want, 1)
    assert len(solved) == len(vecs)
    solved.clear()
    assert bm_upper_via_basis_map(g, integer_maps(vecs)) == (want, want, 1)
    assert solved == []


@pytest.mark.parametrize("family,n,k", [
    ("diamond", 1, None), ("diamond", 2, None), ("diamond", 3, None), ("diamond", 4, None),
    ("diamond", 5, None), ("multi", 1, 3), ("multi", 2, 3), ("multi", 1, 4), ("multi", 2, 4),
    ("multi", 3, 3), ("multi", 2, 5), ("multi", 3, 4)])
def test_counted_upper_bound_matches_the_orbit_reference(family, n, k):
    g, vecs, gens = _cut_edge_vectors(family, n, k)
    want = orbit_bm_upper(g, vecs, gens)
    assert bm_upper_via_basis_map(g, integer_maps(vecs)) == want
    if family == "diamond":
        assert want == (n + 1, n + 1, 1)
        assert diamond_bm_bounds(n)["upper"] == n + 1
    else:
        assert multibranch_analysis(n, k)["bm_upper"] == want[0]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_diamond_cut_supports_are_the_dense_haar_functions(n):
    # the sparse cell blocks of diamond_bm_bounds against level_span_vectors
    dense = [dict(haar_system._support(w.nums)) for w in diamond_cut_vectors(n)]
    assert haar_system._diamond_cut_supports(n) == dense


@pytest.mark.parametrize("family,n,k", [("diamond", 1, None), ("diamond", 3, None),
                                        ("multi", 1, 3), ("multi", 2, 3)])
def test_cut_vectors_reach_the_edges_as_the_integer_maps_of_the_grid_values(family, n, k):
    # what diamond_bm_bounds and multibranch_analysis hand to the count:
    # the grid values relabelled onto the edges, all ints
    g, vecs, _ = _cut_edge_vectors(family, n, k)
    if family == "diamond":
        sent = haar_system._on_edges(g, haar_system._diamond_cut_supports(n),
                                     lambda eid: diamond_cell_index(eid, n))
    else:
        sent = haar_system._on_edges(g, haar_system._OrthogonalFamily(
            multibranch_cut_basis(n, k)).vectors, lambda eid: multibranch_cell_index(eid, n, k))
    assert sent == integer_maps(vecs)
    assert all(type(x) is int for w in sent for x in w.values())


def test_upper_bound_rejects_a_transposition_that_breaks_the_cycle_space():
    # the orbit reference checks each generator against the cycle space
    g, vecs, gens = _cut_edge_vectors("diamond", 2)
    swap = {e.id: e.id for e in g.edges}
    swap["tl/tl"], swap["br/br"] = "br/br", "tl/tl"
    assert any(boundary(z.permute(swap)).coeffs                  # swap breaks Z
               for z in fundamental_cycle_basis(g).vectors)
    with pytest.raises(ValidationError):
        orbit_bm_upper(g, vecs, gens + [swap])


def test_multibranch_overlap_for_k3():
    # consecutive-path cycle vectors share their middle path for k >= 3
    g = multidiamond(1, 3)
    imgs = [multibranch_graph_to_dyadic(v, 1, 3)
            for v in fundamental_cycle_basis(g).vectors]
    assert any(a.inner(b) != 0 for i, a in enumerate(imgs) for b in imgs[i + 1:])


@pytest.mark.parametrize("n,k", [(1, 3), (2, 3), (1, 4)])
def test_multibranch_analysis(n, k):
    r = multibranch_analysis(n, k)
    assert r["witness_value"] >= F((k - 1) * n, 2 * k)
    assert r["witness_formula_matches"]
    assert r["bm_upper"] == {(1, 3): 2, (2, 3): 3, (1, 4): 2}[n, k]
    assert r["linf_bound"] >= r["bm_lower"]
    p = r["projection"]
    assert is_idempotent(p) and p == linalg.transpose(p)


@pytest.mark.parametrize("n,k", [(1, 3), (2, 3), (1, 4), (2, 4)])
def test_multibranch_analysis_matches_the_dense_reference(n, k):
    r = multibranch_analysis(n, k)
    want = dense_multibranch_analysis(n, k)
    assert [list(w.values) for w in r["cut_basis"]] == want["cut_basis"]
    assert r["projection"] == want["projection"]
    assert list(r["witness_vector"].values) == want["witness_vector"]
    for key in ("witness_value", "linf_bound", "bm_lower", "bm_upper", "cycle_dim"):
        assert r[key] == want[key], key
    assert r["witness_formula_matches"]


def _cut_basis_meeting_a_cycle(n, k):
    # h_{1,k} plus the cycle path 1 - path 2 of the first copy: still
    # orthogonal to every other cut vector, but not to that cycle
    cut = multibranch_cut_basis(n, k)
    block = (2 * k) ** (n - 1)
    cycle = [0] * (2 * k) ** n
    cycle[0:2 * block] = [1] * (2 * block)
    cycle[2 * block:4 * block] = [-1] * (2 * block)
    return cut[:k] + [cut[k] + DyadicVector(tuple(cycle))] + cut[k + 1:]


def test_multibranch_analysis_rejects_a_projection_that_keeps_the_cycles(monkeypatch):
    # the projection onto the bad cut vectors keeps part of a cycle image
    monkeypatch.setattr(haar_system, "multibranch_cut_basis", _cut_basis_meeting_a_cycle)
    with pytest.raises(ValidationError, match="cycle image"):
        multibranch_analysis(1, 3)


def test_orthogonal_family_checks_its_vectors_and_matches_the_dense_projection():
    family = haar_system._OrthogonalFamily([DyadicVector((0, 1, 1, 1)),
                                            DyadicVector((0, 0, 1, -1), 3)])
    p, norm = family.matrix(4)
    dense = dense_orthogonal_projection([DyadicVector((0, 1, 1, 1)), DyadicVector((0, 0, 1, -1))])
    assert p == dense and norm == dense_linf(dense) == F(4, 3)
    px = DyadicVector(*family.project({1: 3, 3: -6}, 4))
    assert px.values == tuple(mat_vec(dense, [0, 3, 0, -6]))
    with pytest.raises(ValidationError, match="pairwise orthogonal"):
        haar_system._OrthogonalFamily([haar(0, 2), haar(0, 2) + haar(1, 2)])
    with pytest.raises(ValidationError, match="nonzero"):
        haar_system._OrthogonalFamily([haar(1, 2), DyadicVector((0,) * 4)])


def test_multibranch_analysis_rejects_cut_vectors_that_are_not_orthogonal(monkeypatch):
    def overlapping(n, k):
        cut = multibranch_cut_basis(n, k)
        return cut[:1] + [cut[1] + cut[2]] + cut[2:]

    monkeypatch.setattr(haar_system, "multibranch_cut_basis", overlapping)
    with pytest.raises(ValidationError, match="pairwise orthogonal"):
        multibranch_analysis(1, 3)


def test_multibranch_cell_cap(monkeypatch):
    with pytest.raises(ResourceLimit):
        multibranch_analysis(2, 33)         # 66^2 = 4356 cells, above 4096
    monkeypatch.setattr(haar_system, "MULTIBRANCH_CELL_CAP", 35)
    with pytest.raises(ResourceLimit):
        multibranch_analysis(2, 3)          # 36 cells


def test_multibranch_reduces_to_binary_at_k2():
    r = multibranch_analysis(2, 2)
    assert r["witness_value"] >= F(2, 4)  # (1 - 1/2) n / 2 at n = 2
    assert len(r["cut_basis"]) + r["cycle_dim"] == 16


def test_multibranch_cut_basis_orthogonal():
    cut = multibranch_cut_basis(2, 3)
    for i, a in enumerate(cut):
        for b in cut[i + 1:]:
            assert a.inner(b) == 0


def test_haar_layer_reach():
    start = time.perf_counter()
    assert verify_even_level_span(5) and verify_even_level_span(6)
    b = diamond_bm_bounds(5)
    assert b["upper"] == b["t_norm"] == 6 and b["tinv_norm"] == 1
    assert b["exact_orth_norm"] == F(2105, 512)
    assert multibranch_analysis(3, 3)["bm_upper"] == 4
    assert multibranch_analysis(2, 5)["bm_upper"] == 3
    assert time.perf_counter() - start < 15


def test_diamond_bm_bounds_reach_at_n6(monkeypatch):
    # no quotient norm on the 4,096 edges of D_6: every cut vector is +-1 on
    # its support, so it certifies its own
    solved = _count_quotient_norms(monkeypatch)
    start = time.perf_counter()
    b = diamond_bm_bounds(6)
    assert solved == []
    assert b["upper"] == b["t_norm"] == 7 and b["tinv_norm"] == 1
    # ||P_cut||_inf = (2n + 2)/3 + 1/9 + 4^(1-n)/18 at n = 6
    assert b["exact_orth_norm"] == F(14, 3) + F(1, 9) + F(1, 18 * 4 ** 5) == F(9785, 2048)
    assert time.perf_counter() - start < 5


_D7_REACH = """
import re, resource, time
from freelip.haar_system import diamond_bm_bounds
start = time.perf_counter()
b = diamond_bm_bounds(7)
seconds = time.perf_counter() - start
try:
    with open("/proc/self/status") as f:
        peak_kb = int(re.search(r"VmHWM:\\s*(\\d+) kB", f.read()).group(1))
except OSError:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(b["upper"], b["t_norm"], b["tinv_norm"], b["exact_orth_norm"], seconds, peak_kb // 1024)
"""


def test_diamond_bm_bounds_reach_at_n7():
    # 16,384 edges and 10,923 cut vectors: the orbit method took 18 s and
    # 126-143 MB here, 12 s of it in one quotient norm; the count takes
    # about 0.5 s at about 60 MB.  The child reads its peak as VmHWM where
    # there is one: on Linux a child's ru_maxrss starts from the peak of the
    # process that started it, here the test runner.
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", _D7_REACH], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    upper, t_norm, tinv_norm, orth, seconds, rss_mb = proc.stdout.split()
    assert (upper, t_norm, tinv_norm, orth) == ("8", "8", "1", "44601/8192")
    assert float(seconds) < 5, f"{seconds} s"
    assert int(rss_mb) < 100, f"{rss_mb} MB peak RSS"
