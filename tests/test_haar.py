import time
from fractions import Fraction as F

import pytest

from freelip import haar_system, linalg
from freelip.cyclespace import fundamental_cycle_basis
from freelip.errors import ResolutionTooCoarse, ResourceLimit, ValidationError
from freelip.graphs import multidiamond
from freelip.haar_system import (andrew_lower_bound, diamond_bm_bounds, diamond_cell_index,
                                 g_isometry, haar, haar_coefficients,
                                 haar_witness_bound, level_indices,
                                 multibranch_analysis, multibranch_cut_basis,
                                 multibranch_graph_to_dyadic, orthogonal_projection_matrix,
                                 level_span_vectors, verify_even_level_span)
from freelip.projections import l1_norm, linf_norm
from freelip.simplex import min_l1_combination

from oracles import even_level_span_dense


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
    with pytest.raises(ResolutionTooCoarse):
        haar(4, 2)
    with pytest.raises(ValidationError):
        haar(-1, 2)


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


def test_g_isometry_observations():
    # the five commutation facts behind the averaging lemma, as matrices
    res = 4  # indices below 16
    mats = {i: g_isometry(i, res) for i in range(1, 16)}
    hs = {i: list(haar(i, res).values) for i in range(16)}

    def supp(i):
        return {t for t, v in enumerate(hs[i]) if v != 0}

    for i in range(1, 16):
        assert linalg.mat_vec(mats[i], hs[i]) == [-v for v in hs[i]]          # (2)
        gt = linalg.transpose(mats[i])
        assert linalg.mat_vec(gt, hs[i]) == [-v for v in hs[i]]               # (3)
        for j in range(16):
            if i == j:
                continue
            if 0 <= j < i and supp(i) < supp(j):
                assert linalg.mat_vec(mats[i], hs[j]) == hs[j]                # (4)
            if i > j >= 0 or not (supp(i) & supp(j)):
                assert linalg.mat_vec(mats[i], hs[j]) == hs[j]                # (5)


def test_g_isometry_examples():
    g1 = g_isometry(1, 2)
    assert linalg.mat_vec(g1, list(haar(1, 2).values)) == [-1, -1, 1, 1]
    assert linalg.mat_vec(g1, list(haar(0, 2).values)) == [1, 1, 1, 1]
    g4 = g_isometry(4, 3)
    assert linalg.mat_vec(g4, list(haar(1, 3).values)) == list(haar(1, 3).values)


def test_andrew_average_equals_orthogonal():
    z = list(haar(1, 2).values)
    a = [F(1, 2), F(1, 4), F(-1, 8), F(-1, 8)]
    dot = sum(x * y for x, y in zip(a, z))
    a = [x / dot for x in a]
    p = [[z[i] * a[j] for j in range(4)] for i in range(4)]
    bound, p_y, averaged = andrew_lower_bound([0], 2, projection=p)
    assert averaged == p_y
    assert bound == 1
    assert l1_norm(p) >= bound


def test_andrew_bound_tight_for_orthogonal():
    vecs = level_span_vectors([-1, 1], 2)
    p_y = orthogonal_projection_matrix(vecs)
    bound, p_again, _ = andrew_lower_bound([-1, 1], 2)
    assert p_again == p_y
    assert bound == l1_norm(p_y)


def test_andrew_even_levels_bound_at_least_witness():
    bound, _, _ = andrew_lower_bound([0, 2], 4)
    assert bound >= F(7, 4)


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
        p = orthogonal_projection_matrix(vecs)
        assert linalg.mat_vec(p, list(f.values)) == list(qf.values)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_diamond_bm_bounds_small(n):
    b = diamond_bm_bounds(n)
    assert b["lower"] == F(2 * n + 1, 3)
    assert b["exact_orth_norm"] >= b["lower"]
    assert b["upper"] == b["t_norm"] == n + 1 and b["tinv_norm"] == 1
    # the norm read off one column equals the dense projection's
    cut = level_span_vectors([-1] + [2 * k - 1 for k in range(1, n + 1)], 2 * n)
    assert b["exact_orth_norm"] == linf_norm(orthogonal_projection_matrix(cut))
    assert b["exact_orth_norm"] == [F(3, 2), F(17, 8), F(89, 32)][n - 1]


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
    assert linalg.is_idempotent(p) and linalg.is_symmetric(p)


def test_multibranch_analysis_rejects_a_projection_that_keeps_the_cycles(monkeypatch):
    # the identity is symmetric, idempotent and fixes every cut vector, but
    # it does not kill the cycle images
    monkeypatch.setattr(haar_system, "orthogonal_projection_matrix",
                        lambda vecs: linalg.identity(len(vecs[0])))
    with pytest.raises(ValidationError, match="cycle image"):
        multibranch_analysis(1, 3, include_upper=False)


def test_multibranch_cell_cap(monkeypatch):
    with pytest.raises(ResourceLimit):
        multibranch_analysis(2, 33)         # 66^2 = 4356 cells, above 4096
    monkeypatch.setattr(haar_system, "MULTIBRANCH_CELL_CAP", 35)
    with pytest.raises(ResourceLimit):
        multibranch_analysis(2, 3)          # 36 cells


def test_multibranch_reduces_to_binary_at_k2():
    r = multibranch_analysis(2, 2, include_upper=False)
    assert r["witness_value"] >= F(2, 4)  # (1 - 1/2) n / 2 at n = 2
    assert len(r["cut_basis"]) + r["cycle_dim"] == 16


def test_multibranch_cut_basis_orthogonal():
    cut = multibranch_cut_basis(2, 3)
    for i, a in enumerate(cut):
        for b in cut[i + 1:]:
            assert a.inner(b) == 0
