import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from math import lcm
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from freelip import cyclespace, linalg, simplex
from freelip.cyclespace import EdgeVector, boundary, fundamental_cycle_basis
from freelip import projections, symmetry
from freelip.errors import (GroupClosureOverflow, NotInvariant, NotInvariantSubspace,
                            ResourceLimit, SingularGram, SolverFailure,
                            ValidationError)
from freelip.graphs import Edge, TwoPoleGraph, diamond, laakso, multidiamond, path
from freelip.projections import (average_projection, bm_upper_via_basis_map,
                                 generate_group, l1_norm, linf_norm,
                                 minimal_projection_lp, orthogonal_projection,
                                 orthogonal_rows, permutation_matrix)
from freelip.recursive import edge_map_matrix, profile_base
from freelip.symmetry import invariance_generators
from freelip.graphs import diamond_base, laakso_base
from oracles import (all_vectors_bm_upper, dense_average_projection, dense_commutes,
                     dense_generate_group, dense_min_proj_split_rows,
                     dense_min_proj_standard_form, fraction_cycle_certificate,
                     fraction_orthogonal_projection, fraction_rank, fraction_rref,
                     fraction_solve, integer_maps, is_idempotent, mat_add, mat_vec,
                     merged_rows, orbit_bm_upper)

LINE = [F(1), F(1), F(-1), F(-1)]


def _certificate(graph, p):
    """cycle_projection_certificate of a rational matrix, read as integer rows."""
    return projections.cycle_projection_certificate(graph, *linalg.integer_rows(p))


def test_l1_linf_norms_basic():
    assert l1_norm(linalg.identity(3)) == 1
    assert linf_norm(linalg.identity(3)) == 1
    assert l1_norm(linalg.zeros(3, 3)) == 0
    p = orthogonal_projection([LINE])
    assert l1_norm(p) == 1
    assert linf_norm(p) == 1


def test_orthogonal_projection_onto_line():
    p = orthogonal_projection([LINE])
    assert all(abs(x) == F(1, 4) for row in p for x in row)
    assert is_idempotent(p) and p == linalg.transpose(p)


def test_orthogonal_projection_full_basis_is_identity():
    cols = [[F(1), F(0)], [F(0), F(1)]]
    assert orthogonal_projection(cols) == linalg.identity(2)


def test_orthogonal_projection_diamond_two():
    cols = [v.dense() for v in fundamental_cycle_basis(diamond(2)).vectors]
    p = orthogonal_projection(cols)
    assert is_idempotent(p) and p == linalg.transpose(p)
    assert fraction_rank(p) == 5


def test_singular_gram_detected():
    with pytest.raises(SingularGram):
        orthogonal_projection([LINE, [2 * x for x in LINE]])


_FRACTIONS = st.builds(F, st.integers(-4, 4), st.integers(1, 6))


@st.composite
def rational_bases(draw):
    """Columns of mixed denominators in Q^m; sometimes the last is a
    combination of the first two, or a column is zero."""
    m = draw(st.integers(1, 6))
    k = draw(st.integers(1, m))
    entry = st.one_of(st.just(F(0)), _FRACTIONS, _FRACTIONS)   # zeros in the Gram matrix too
    cols = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=k, max_size=k))
    if k >= 2 and draw(st.booleans()):
        a, b = draw(_FRACTIONS), draw(_FRACTIONS)
        cols[-1] = [a * x + b * y for x, y in zip(cols[0], cols[1])]
    return cols


@given(rational_bases())
@example([[2, 0, 1], [0, 3, 0]])                 # a zero off the Gram diagonal, pivots != 1
@example([[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]])    # dependent
@settings(max_examples=150, deadline=None)
def test_orthogonal_projection_matches_the_fraction_formula(cols):
    try:
        want = fraction_orthogonal_projection(cols)
    except SingularGram:
        with pytest.raises(SingularGram):
            orthogonal_projection(cols)
        return
    p = orthogonal_projection(cols)
    assert p == want
    assert all(type(row) is list for row in p) and len({id(row) for row in p}) == len(p)
    # orthogonal_rows is P's least integer form: the one integer_rows reads back
    assert orthogonal_rows(cols) == linalg.integer_rows(p)


@pytest.mark.parametrize("cols", [[[1, 1, 0, 0], [0, 1, 1]], [[0, 1, 1], [1, 1, 0, 0]],
                                  [[1, 1, 0], [0, 1, 1, 5]], [[0, 1, 1, 5], [1, 1, 0]]],
                         ids=["4-3", "3-4", "3-4-five", "4-3-five"])
def test_ragged_bases_are_rejected_before_any_row_is_built(monkeypatch, cols):
    def stop(*args, **kwargs):
        raise _Captured

    monkeypatch.setattr(projections, "_min_proj_rows", stop)
    monkeypatch.setattr(projections.linalg, "gauss_jordan", stop)
    monkeypatch.setattr(projections.linalg, "echelon", stop)
    for ambient_dim in (3, 4):
        with pytest.raises(ValidationError):
            minimal_projection_lp(cols, ambient_dim)
    with pytest.raises(ValidationError, match="different lengths"):
        orthogonal_projection(cols)


def test_a_basis_of_another_ambient_dimension_is_rejected():
    with pytest.raises(ValidationError, match="ambient dimension"):
        minimal_projection_lp([[1, 1, 0]], 4)
    with pytest.raises(ValidationError, match="ambient dimension"):
        minimal_projection_lp([[1, 1, 0, 0], [0, 1, 1, 0]], 3)


def test_minimal_projection_line_in_l1_four():
    lam, p = minimal_projection_lp([LINE], 4)
    assert abs(lam - 1) < 1e-7
    assert l1_norm(p) == 1  # P is the exact certified vertex in float mode too
    lam_exact, p_exact = minimal_projection_lp([LINE], 4, mode="exact")
    assert lam_exact == 1 and isinstance(lam_exact, F) and is_idempotent(p_exact)


def test_minimal_projection_full_space():
    cols = [[F(1), F(0)], [F(0), F(1)]]
    lam, p = minimal_projection_lp(cols, 2)
    assert abs(lam - 1) < 1e-9
    assert p == linalg.identity(2)


def _cycle_cols(graph):
    return [v.dense() for v in fundamental_cycle_basis(graph).vectors]


def _transpose(vectors):
    """Columns as rows, or rows as columns."""
    return [list(r) for r in zip(*vectors)]


def test_minimal_projection_lp_size_cap(monkeypatch):
    # refused before any row is built, in both modes: the nonzero count
    # kN + mN + 4m^2 + m of the split form on the m merged coordinates
    # comes from N = nnz(B') alone (D_4: 256 edges, 128 classes)
    cols = _cycle_cols(diamond(4))
    assert (len(cols), len(cols[0])) == (85, 256)
    for mode in ("float", "exact"):
        start = time.perf_counter()
        with pytest.raises(ResourceLimit, match="150,438 nonzeros"):
            minimal_projection_lp(cols, 256, mode=mode)
        assert time.perf_counter() - start < 1.0

    # D_2, L_2, D_3 and L_3 (40,049 nonzeros) stay admitted: their sparse
    # rows reach HiGHS in both modes, and the exact mode builds no dense form
    def stop(*args, **kwargs):
        raise _Captured

    monkeypatch.setattr(projections, "linprog", stop)
    for graph in (diamond(2), laakso(2), diamond(3), laakso(3)):
        for mode in ("float", "exact"):
            start = time.perf_counter()
            with pytest.raises(_Captured):
                minimal_projection_lp(_cycle_cols(graph), len(graph.edges), mode=mode)
            assert time.perf_counter() - start < 1.0


def test_minimal_projection_diamond_two_lower_bound():
    cols = [v.dense() for v in fundamental_cycle_basis(diamond(2)).vectors]
    lam, p = minimal_projection_lp(cols, 16)
    assert lam >= F(5, 3) - F(1, 10 ** 7)
    assert is_idempotent(p)
    # minimality: no larger than the orthogonal projection norm
    assert lam <= float(l1_norm(orthogonal_projection(cols))) + 1e-9


def _cycle_graph_symmetries():
    """The 8 automorphisms of the 4-cycle as edge permutations of D_1."""
    g = diamond(1)
    verts = ["top", "l", "bottom", "r"]

    def as_matrix(sigma):
        return edge_map_matrix(g, symmetry.edge_map_from_vertex_map(g, sigma))

    rotation = {verts[i]: verts[(i + 1) % 4] for i in range(4)}
    horizontal = {"top": "top", "bottom": "bottom", "l": "r", "r": "l"}
    vertical = {"top": "bottom", "bottom": "top", "l": "l", "r": "r"}
    pole_preserving = generate_group([as_matrix(horizontal), as_matrix(vertical)])
    return g, pole_preserving, as_matrix(rotation)


def test_average_projection_over_pole_preserving_symmetries_is_orthogonal():
    g, group, rotation = _cycle_graph_symmetries()
    assert len(group) == 4
    z = fundamental_cycle_basis(g).vectors[0].dense()
    # skew rank-one projection onto the cycle line: z a^T with a.z = 1
    a = [F(0)] * 4
    a[0] = 1 / z[0]
    p = [[z[i] * a[j] for j in range(4)] for i in range(4)]
    assert is_idempotent(p)
    avg = average_projection(p, group)
    assert avg == orthogonal_projection([z])
    assert l1_norm(avg) <= l1_norm(p)
    for gmat in group:
        assert dense_commutes(avg, gmat)


def test_average_projection_fixed_point():
    g, group, _ = _cycle_graph_symmetries()
    z = fundamental_cycle_basis(g).vectors[0].dense()
    p = orthogonal_projection([z])
    assert average_projection(p, group) == p


def test_rotation_moves_the_cycle_space():
    # plain rotations of the square are not cycle-preserving bijections in
    # the pole-path sense, and the averaging precondition must reject them
    g, _, rotation = _cycle_graph_symmetries()
    z = fundamental_cycle_basis(g).vectors[0].dense()
    p = orthogonal_projection([z])
    with pytest.raises(NotInvariantSubspace):
        average_projection(p, [rotation])


def test_average_projection_rejects_range_movers():
    p = orthogonal_projection([LINE])
    bad = permutation_matrix([1, 2, 3, 0])  # 4-rotation does not fix span(LINE)
    with pytest.raises(NotInvariantSubspace):
        average_projection(p, [bad])


def test_commutes_examples():
    ident = linalg.integer_rows(linalg.identity(4))[0]
    assert symmetry.commutes(ident, [1, 0, 3, 2])
    assert not symmetry.commutes([[1, 1], [0, 0]], [1, 0])
    l2 = laakso(2)
    p = orthogonal_projection([v.dense() for v in fundamental_cycle_basis(l2).vectors])
    prof = profile_base(laakso_base())
    gens = invariance_generators(prof, 2, l2)
    symmetry.check_invariant(linalg.integer_rows(p)[0], l2, gens)
    p[0][1] += 1
    with pytest.raises(NotInvariant, match="generator v"):
        symmetry.check_invariant(linalg.integer_rows(p)[0], l2, gens)


def test_generate_group_closure_and_cap():
    g, group, rotation = _cycle_graph_symmetries()
    closed = generate_group(group + [rotation])  # full dihedral group
    assert len(closed) == 8
    with patch.object(symmetry, "GROUP_CAP", 2), pytest.raises(GroupClosureOverflow):
        generate_group(group)


def test_average_projection_rejects_an_empty_element_list():
    with pytest.raises(ValidationError, match="at least one"):
        average_projection(orthogonal_projection([LINE]), [])


def test_generate_group_rejects_an_empty_generator_list():
    with pytest.raises(ValidationError, match="at least one"):
        generate_group([])
    with pytest.raises(ValidationError, match="at least one"):
        symmetry.closure([])


NOT_PERMUTATIONS = {
    "diag-2-1": [[F(2), F(0)], [F(0), F(1)]],        # generate_group used to run to the cap
    "two-ones-in-a-row": [[F(1), F(1)], [F(0), F(0)]],
    "two-ones-in-a-column": [[F(1), F(0)], [F(1), F(0)]],
    "ragged": [[F(1), F(0)], [F(0), F(1), F(0)]],
    "1x1": [[F(1)]],
    "3x3": linalg.identity(3),
}


@pytest.mark.parametrize("bad", NOT_PERMUTATIONS.values(), ids=NOT_PERMUTATIONS.keys())
def test_group_code_rejects_elements_that_are_not_permutations_of_p_size(bad):
    p = linalg.identity(2)
    start = time.perf_counter()
    with pytest.raises(ValidationError):
        average_projection(p, [linalg.identity(2), bad])
    with pytest.raises(ValidationError):
        generate_group([linalg.identity(2), bad])
    with pytest.raises(ValidationError):
        generate_group([bad, linalg.identity(2)])
    assert time.perf_counter() - start < 1.0


def test_average_projection_rejects_an_operator_that_is_not_a_projection():
    with pytest.raises(ValidationError, match="not a projection"):
        average_projection([[F(2), F(0)], [F(0), F(0)]], [linalg.identity(2)])


@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from([0, 0, F(1), F(-1), F(1, 2)]), min_size=n, max_size=n),
    min_size=n, max_size=n)))
@settings(max_examples=150, deadline=None)
def test_average_projection_accepts_exactly_the_projections(p):
    # the projection check runs on a fraction-free echelon basis of the
    # range, here of matrices of every rank; P P = P is the reference
    identity = permutation_matrix(list(range(len(p))))
    if is_idempotent(p):
        assert average_projection(p, [identity]) == p
    else:
        with pytest.raises(ValidationError, match="not a projection"):
            average_projection(p, [identity])


def _skew(p, x):
    """P + P X (I - P): a projection with the range of P, for any X."""
    n = len(p)
    i_minus_p = [[int(i == j) - y for j, y in enumerate(row)] for i, row in enumerate(p)]
    return mat_add(p, linalg.mat_mul(p, linalg.mat_mul(x, i_minus_p)))


def _index_maps(mats):
    """The index maps s of permutation matrices, s(c) the row of column c's 1."""
    return [tuple(next(r for r, row in enumerate(g) if row[c]) for c in range(len(g)))
            for g in mats]


def _assert_matches_dense_oracle(generators, p_list, cap):
    """generate_group and average_projection on the permutation matrices,
    and symmetry's closure, average (range-checked on the generators) and
    commutes on their index maps, agree with the dense oracles: the same
    elements in the same order (or the same overflow), equal averages (or
    the same NotInvariantSubspace) and equal invariance answers.  A
    hypothesis test calls this, so the cap is patched with patch.object,
    not a function-scoped fixture."""
    gen_maps = _index_maps(generators)
    with patch.object(symmetry, "GROUP_CAP", cap):
        try:
            dense_group = dense_generate_group(generators, cap)
        except GroupClosureOverflow:
            with pytest.raises(GroupClosureOverflow):
                generate_group(generators)
            with pytest.raises(GroupClosureOverflow):
                symmetry.closure(gen_maps)
            elements = generators
        else:
            elements = generate_group(generators)
            assert elements == dense_group
            assert symmetry.closure(gen_maps) == _index_maps(dense_group)
    maps = _index_maps(elements)
    for p in p_list:
        num, den = linalg.integer_rows(p)
        try:
            expected = dense_average_projection(p, elements)
        except NotInvariantSubspace:
            with pytest.raises(NotInvariantSubspace):
                average_projection(p, elements)
            with pytest.raises(NotInvariantSubspace):
                symmetry.average(num, den, maps, gen_maps)
        else:
            assert average_projection(p, elements) == expected
            assert linalg.fractions(*symmetry.average(num, den, maps, gen_maps)) == expected
        for s, gmat in zip(maps, elements):
            assert symmetry.commutes(num, s) == dense_commutes(p, gmat)


@st.composite
def permutation_groups(draw):
    n = draw(st.integers(1, 8))
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    vectors = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                            min_size=1, max_size=3))
    skew = draw(st.lists(st.lists(st.integers(-1, 1), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    orbit = draw(st.booleans())
    return n, gens, vectors, skew, orbit


@given(permutation_groups())
@settings(max_examples=60, deadline=None)
def test_group_code_matches_dense_oracle_on_random_permutation_groups(case):
    n, gens, vectors, skew, orbit = case
    generators = [permutation_matrix(list(g)) for g in gens]
    echelon, pivots = fraction_rref([[F(x) for x in v] for v in vectors])
    basis = echelon[:len(pivots)]
    while orbit:   # grow the span until every generator maps it into itself
        moved = [[v[g.index(i)] for i in range(n)] for v in basis for g in gens]
        echelon, pivots = fraction_rref(basis + moved)
        orbit = len(pivots) > len(basis)
        basis = echelon[:len(pivots)]
    p_list = [linalg.zeros(n, n)]
    if basis:
        p = orthogonal_projection(basis)
        p_list += [p, _skew(p, [[F(x) for x in row] for row in skew])]
    _assert_matches_dense_oracle(generators, p_list, cap=60)


@pytest.mark.parametrize("graph, base, level", [
    (diamond(1), diamond_base(), 1),
    (diamond(2), diamond_base(), 2),
    (laakso(1), laakso_base(), 1),
])
def test_group_code_matches_dense_oracle_on_invariance_groups(graph, base, level):
    gens = [edge_map_matrix(graph, emap) for _, emap
            in sorted(invariance_generators(profile_base(base), level, graph).items())]
    cols = [v.dense() for v in fundamental_cycle_basis(graph).vectors]
    p_orth = orthogonal_projection(cols)
    _, p_min = minimal_projection_lp(cols, len(graph.edges))
    _assert_matches_dense_oracle(gens, [p_orth, p_min], cap=10 ** 6)


def test_range_moving_element_raises_like_the_dense_oracle():
    g, group, rotation = _cycle_graph_symmetries()
    z = fundamental_cycle_basis(g).vectors[0].dense()
    p = orthogonal_projection([z])
    for elements in ([rotation], group + [rotation]):
        with pytest.raises(NotInvariantSubspace):
            dense_average_projection(p, elements)
        with pytest.raises(NotInvariantSubspace):
            average_projection(p, elements)


def test_laakso_two_minimal_projection_averages_over_its_256_element_group():
    g = laakso(2)
    cols = [v.dense() for v in fundamental_cycle_basis(g).vectors]
    emaps = invariance_generators(profile_base(laakso_base()), 2, g)
    gens = [edge_map_matrix(g, emap) for emap in emaps.values()]
    _, p = minimal_projection_lp(cols, len(g.edges))
    start = time.perf_counter()
    group = generate_group(gens)
    avg = average_projection(p, group)
    assert time.perf_counter() - start < 10.0
    assert len(group) == 256
    symmetry.check_invariant(linalg.integer_rows(avg)[0], g, emaps)
    assert all(mat_vec(avg, c) == c for c in cols)
    for j in range(len(g.edges)):
        col = EdgeVector(g, {e.id: avg[g.edge_order[e.id]][j] for e in g.edges})
        assert not boundary(col).coeffs
    assert l1_norm(avg) <= l1_norm(p)
    assert avg != orthogonal_projection(cols)  # invariant projections are not unique


def test_a_feasible_but_not_optimal_vertex_raises(monkeypatch):
    # HiGHS is made to return, on L_2's 11 merged coordinates, the
    # orthogonal projection onto Z' = span B': A' = (B'^T B')^-1 B'^T with
    # P+ - P- = P' = B' A' and t = ||P'||_1 = 16/9 > 22/15, keeping the
    # optimum's dual values: its active system gives back that A' exactly,
    # and then no dual satisfies complementary slackness with it
    g = laakso(2)
    cols = _cycle_cols(g)
    rows = merged_rows(_transpose(cols))[0]
    merged = _transpose(rows)                          # the columns of B'
    m, k = len(rows), len(cols)
    assert (m, k) == (11, 7)
    a = fraction_solve([[sum(x * y for x, y in zip(c, d)) for d in merged] for c in merged], merged)
    assert linalg.mat_mul(a, rows) == linalg.identity(k)
    p = orthogonal_projection(merged)
    t = l1_norm(p)
    assert t == F(16, 9)
    x = np.array([float(v) for v in [*(v for row in a for v in row),
                                     *(max(v, 0) for row in p for v in row),
                                     *(max(-v, 0) for row in p for v in row), t]])
    real, real_primal = projections.linprog, projections._min_proj_primal
    primal = []

    def feasible_not_optimal(*args, **kwargs):
        res = real(*args, **kwargs)
        res.x, res.fun = x, float(t)
        return res

    monkeypatch.setattr(projections, "linprog", feasible_not_optimal)
    monkeypatch.setattr(projections, "_min_proj_primal",
                        lambda *args: primal.append(real_primal(*args)) or primal[-1])
    for mode in ("float", "exact"):
        with pytest.raises(SolverFailure):
            minimal_projection_lp(cols, len(g.edges), mode=mode)
    for n, d, t_num in primal:
        assert [[F(v, d) for v in row] for row in n] == a and F(t_num, d) == t
    assert len(primal) == 2


def test_bm_upper_trivial_quotient():
    g = path(3)
    unit = [{e.id: 1} for e in g.edges]
    value, tn, tin = bm_upper_via_basis_map(g, unit)
    assert value == tn == tin == 1
    # rescaled columns give the same map: each is normalized by q / <w, w>
    assert bm_upper_via_basis_map(g, [{"e0": 2}, {"e1": -3}, {"e2": 5}]) == (1, 1, 1)


def test_bm_upper_rejects_map_not_vanishing_on_cycles():
    g = diamond(1)
    with pytest.raises(ValidationError, match="vanish"):
        bm_upper_via_basis_map(g, [{"tl": 1}])


def test_bm_upper_rejects_zero_or_non_orthogonal_cut_columns():
    g = path(2)
    with pytest.raises(ValidationError, match="pairwise orthogonal"):
        bm_upper_via_basis_map(g, [{"e0": 1}, {"e0": 1, "e1": 1}])
    with pytest.raises(ValidationError, match="nonzero"):
        bm_upper_via_basis_map(g, [{"e0": 1}, {}])
    with pytest.raises(ValidationError, match="not in the graph"):
        bm_upper_via_basis_map(g, [{"e0": 1}, {"e2": 1}])


@pytest.mark.parametrize("entry", [0, F(1), F(1, 2), 1.0, True])
def test_bm_upper_rejects_an_entry_that_is_not_a_nonzero_int(entry):
    # unchecked, a vector {e: 0} would pass the nonzero check and add 1 on e
    # as a vector of constant magnitude 0; D_1's cut vectors are fine without it
    g = diamond(1)
    vecs = _d1_cut_vectors()
    assert bm_upper_via_basis_map(g, vecs) == (2, 2, 1)
    vecs[1]["br"] = entry
    with pytest.raises(ValidationError, match="nonzero ints"):
        bm_upper_via_basis_map(g, vecs)


def _d1_cut_vectors():
    # h_0 and the two level-1 Haar functions of D_1 on its edges
    return [{"tl": 1, "bl": 1, "br": 1, "tr": 1}, {"tl": 1, "bl": -1}, {"br": 1, "tr": -1}]


def _edge_vectors(g, vectors):
    return [EdgeVector(g, w) for w in vectors]


def _counting_quotient_norms(monkeypatch):
    solved = []
    real = cyclespace.quotient_norm
    monkeypatch.setattr(cyclespace, "quotient_norm", lambda x: solved.append(x) or real(x))
    return solved


def test_bm_upper_solves_no_quotient_norm_for_constant_magnitude_vectors(monkeypatch):
    g = diamond(1)
    solved = _counting_quotient_norms(monkeypatch)
    assert bm_upper_via_basis_map(g, _d1_cut_vectors()) == (2, 2, 1)
    assert solved == []
    assert all_vectors_bm_upper(g, _edge_vectors(g, _d1_cut_vectors())) == 2


def _d1_mixed():
    # h_0 and two orthogonal mixtures of the level-1 functions of D_1:
    # |value| is 1 or 2 on their supports, so each needs a quotient norm
    return [_d1_cut_vectors()[0], {"tl": 1, "bl": -1, "br": 2, "tr": -2},
            {"tl": 2, "bl": -2, "br": -1, "tr": 1}]


def test_bm_upper_falls_back_to_the_quotient_norm_for_other_vectors(monkeypatch):
    g = diamond(1)
    mixed = _edge_vectors(g, _d1_mixed())
    solved = _counting_quotient_norms(monkeypatch)
    got = bm_upper_via_basis_map(g, _d1_mixed())
    assert solved == mixed[1:]
    want = all_vectors_bm_upper(g, mixed)
    assert got == (want, want, 1) and orbit_bm_upper(g, mixed, []) == got
    assert want > 2                     # the mixtures are worse than the Haar pair


@pytest.mark.parametrize("i", [0, 1, 2])
def test_bm_upper_does_not_change_when_a_vector_is_tripled(i):
    g = diamond(1)
    for vecs in (_d1_cut_vectors(), _d1_mixed()):
        want = bm_upper_via_basis_map(g, vecs)
        vecs[i] = {e: 3 * v for e, v in vecs[i].items()}
        assert bm_upper_via_basis_map(g, vecs) == want
    assert want[0] == all_vectors_bm_upper(g, _edge_vectors(g, _d1_mixed())) > 2


def test_bm_upper_rejects_a_cut_vector_that_meets_a_cycle():
    # D_1 plus a pendant edge p: h_0 and the level-1 functions with p's
    # indicator span a complement of Z; moving h_2 onto half of the cycle
    # keeps the vectors orthogonal to each other but not to the cycle
    d1 = diamond(1)
    g = TwoPoleGraph(d1.vertices + ("x",), d1.edges + (Edge("p", "top", "x"),), "x", "bottom")
    good = _d1_cut_vectors() + [{"p": 1}]
    assert bm_upper_via_basis_map(g, good) == (2, 2, 1)
    meets = good[:1] + [{"tl": 1, "tr": -1}, {"bl": 1, "br": -1}] + good[3:]
    [z] = fundamental_cycle_basis(g).vectors
    assert [sum(w.get(e, 0) * v for e, v in z.coeffs.items()) != 0 for w in meets] == [
        False, True, True, False]
    with pytest.raises(ValidationError, match="cycle image"):
        bm_upper_via_basis_map(g, meets)


@pytest.mark.parametrize("drop", [0, 1, 2])
def test_bm_upper_rejects_a_family_one_vector_short(drop):
    # the remaining two vectors are orthogonal to each other and to Z, but
    # they span only part of Z's complement
    g = diamond(1)
    short = [w for i, w in enumerate(_d1_cut_vectors()) if i != drop]
    with pytest.raises(ValidationError, match="complement"):
        bm_upper_via_basis_map(g, short)
    with pytest.raises(ValidationError, match="complement"):
        bm_upper_via_basis_map(path(2), [{"e0": 1}])


# The orbit method, with one quotient norm per orbit of cut vectors under
# edge bijections, is the reference oracles.orbit_bm_upper; its generator
# checks keep it honest as a reference.

def test_bm_upper_joins_cut_vectors_under_a_symmetry(monkeypatch):
    g = diamond(1)
    mirror = {"tl": "tr", "tr": "tl", "bl": "br", "br": "bl"}      # swaps l and r
    solved = _counting_quotient_norms(monkeypatch)
    assert orbit_bm_upper(g, _edge_vectors(g, _d1_cut_vectors()), [mirror]) == (2, 2, 1)
    assert len(solved) == 2                                         # h_0, and h_2 ~ h_3
    assert orbit_bm_upper(g, _edge_vectors(g, _d1_cut_vectors()), []) == (2, 2, 1)
    assert len(solved) == 5
    assert bm_upper_via_basis_map(g, _d1_cut_vectors()) == (2, 2, 1)
    assert len(solved) == 5


@pytest.mark.parametrize("bad", [
    {"tl": "tr", "tr": "tl", "bl": "br"},                          # not every edge
    {"tl": "tr", "tr": "tr", "bl": "br", "br": "bl"},               # not injective
    {"tl": "tr", "tr": "tl", "bl": "br", "br": "xx"},               # unknown image
])
def test_bm_upper_rejects_a_generator_that_is_not_an_edge_bijection(bad):
    g = diamond(1)
    with pytest.raises(ValidationError, match="bijection"):
        orbit_bm_upper(g, _edge_vectors(g, _d1_cut_vectors()), [bad])


@pytest.mark.parametrize("g", [diamond(2), laakso(2), multidiamond(1, 3)])
def test_bm_upper_cycle_check_matches_the_boundaries_of_the_mapped_cycles(g):
    # every transposition of two edges, given by its moved edges only; with
    # no cut vectors only the bijection and cycle-space checks run
    outcomes = set()
    for e, f in itertools.combinations([e.id for e in g.edges], 2):
        sigma = {e: f, f: e}
        breaks = any(boundary(z.permute(sigma)).coeffs for z in fundamental_cycle_basis(g).vectors)
        outcomes.add(breaks)
        if breaks:
            with pytest.raises(ValidationError, match="cycle space"):
                orbit_bm_upper(g, [], [sigma])
        else:
            assert orbit_bm_upper(g, [], [sigma]) == (0, 0, 1)
    assert outcomes == {True, False}


def test_bm_upper_rejects_a_generator_that_moves_a_cut_vector_off_the_family():
    g = diamond(1)
    swap = {"tl": "br", "br": "tl", "bl": "bl", "tr": "tr"}
    with pytest.raises(ValidationError, match="no cut vector"):
        orbit_bm_upper(g, _edge_vectors(g, _d1_cut_vectors()), [swap])


def _path4_cut_vectors(g, half):
    # A, E, B, D on path(4); the shift e0 <-> e2, e1 <-> e3 sends A to D * half
    return [EdgeVector(g, {"e0": half, "e1": half}), EdgeVector(g, {"e2": half, "e3": -half}),
            EdgeVector(g, {"e0": F(1), "e1": F(-1)}), EdgeVector(g, {"e2": F(1), "e3": F(1)})]


def test_bm_upper_does_not_join_cut_vectors_that_differ_by_a_factor():
    # sigma A = D / 2 is not +-D, so A and D must not share D's quotient norm;
    # A and D have the same integers over their own denominators
    g = path(4)
    shift = {"e0": "e2", "e1": "e3", "e2": "e0", "e3": "e1"}
    with pytest.raises(ValidationError, match="no cut vector"):
        orbit_bm_upper(g, _path4_cut_vectors(g, F(1, 2)), [shift])
    assert all_vectors_bm_upper(g, _path4_cut_vectors(g, F(1, 2))) == 2
    assert bm_upper_via_basis_map(g, integer_maps(_path4_cut_vectors(g, F(1, 2)))) == (2, 2, 1)
    # with A and E at D's scale the shift joins {A, D} and {E, B}
    vecs = _path4_cut_vectors(g, F(1))
    upper = all_vectors_bm_upper(g, vecs)
    assert orbit_bm_upper(g, vecs, [shift]) == (upper, upper, 1)
    assert bm_upper_via_basis_map(g, integer_maps(vecs)) == (upper, upper, 1)


def test_bm_upper_rejects_a_generator_that_breaks_the_cycle_space_without_joining():
    # the swap of tl and br maps the 4-cycle of D_1 off Z, and it moves no
    # edge of the cut vectors, so it joins no two of them
    d1 = diamond(1)
    g = TwoPoleGraph(d1.vertices + ("x",), d1.edges + (Edge("p", "top", "x"),), "x", "bottom")
    swap = {"tl": "br", "br": "tl", "bl": "bl", "tr": "tr", "p": "p"}
    with pytest.raises(ValidationError, match="cycle space"):
        orbit_bm_upper(g, [EdgeVector(g, {"p": F(1)})], [swap])


def test_bm_upper_rejects_a_joining_generator_that_breaks_the_cycle_space():
    # D_1 with a pendant path top -> x -> y: the two bridge indicators are
    # cut vectors, and swapping them while also swapping tl and br joins
    # them but maps the 4-cycle to a vector with nonzero boundary
    d1 = diamond(1)
    g = TwoPoleGraph(d1.vertices + ("x", "y"),
                     d1.edges + (Edge("p", "top", "x"), Edge("q", "x", "y")), "y", "bottom")
    bridges = [EdgeVector(g, {"p": F(1)}), EdgeVector(g, {"q": F(1)})]
    sigma = {"tl": "br", "br": "tl", "bl": "bl", "tr": "tr", "p": "q", "q": "p"}
    with pytest.raises(ValidationError, match="cycle space"):
        orbit_bm_upper(g, bridges, [sigma])
    # the same swap of the bridges alone keeps Z
    keep = dict(sigma, tl="tl", br="br")
    assert orbit_bm_upper(g, bridges, [keep]) == (1, 1, 1)


def _random_connected_graph(rng):
    """A random tree on 3 to 5 vertices plus chords, at most 8 edges, at
    least one cycle; each edge randomly oriented."""
    n = rng.randint(3, 5)
    pairs = [(rng.randrange(i), i) for i in range(1, n)]
    while len(pairs) < min(8, n * (n - 1) // 2) and (len(pairs) < n or rng.random() < 0.7):
        a, b = sorted(rng.sample(range(n), 2))
        if (a, b) not in pairs:
            pairs.append((a, b))
    edges = tuple(Edge(f"e{k}", f"v{a}", f"v{b}") if rng.random() < 0.5
                  else Edge(f"e{k}", f"v{b}", f"v{a}") for k, (a, b) in enumerate(pairs))
    return TwoPoleGraph(tuple(f"v{i}" for i in range(n)), edges, f"v{n - 1}", "v0")


@pytest.mark.parametrize("graph, classes", [(diamond(1), 1), (laakso(1), 1),
                                            (diamond(2), 8), (laakso(2), 11)],
                         ids=["D1", "L1", "D2", "L2"])
def test_highs_input_matches_the_dense_float_rows(monkeypatch, graph, classes):
    # the split form on the merged coordinates, for B' from a merge written
    # independently in the oracles: m' column-sum rows, k^2 + m'^2 equality
    # rows; D_1 and L_1 have one class for their one cycle (m' = k), so
    # they take the closed form P = J E and HiGHS is never called
    seen = {}
    real = projections.linprog

    def capture(c, A_ub, b_ub, A_eq, b_eq, bounds, method):
        assert not seen
        seen.update(A_ub=A_ub.toarray(), b_ub=b_ub, A_eq=A_eq.toarray(), b_eq=b_eq,
                    bounds=bounds)
        return real(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method=method)

    monkeypatch.setattr(projections, "linprog", capture)
    cols = _cycle_cols(graph)
    minimal_projection_lp(cols, len(graph.edges))
    rows = merged_rows(_transpose(cols))[0]
    m, k = len(rows), len(cols)
    assert m == classes
    if m == k:
        assert not seen
        return
    assert seen["A_ub"].shape[0] + seen["A_eq"].shape[0] == m * m + k * k + m
    for key, want in zip(("A_ub", "b_ub", "A_eq", "b_eq", "bounds"),
                         dense_min_proj_split_rows(_transpose(rows))):
        assert np.array_equal(np.asarray(seen[key], dtype=float), want), key


class _Captured(Exception):
    pass


def _assert_exact_lambda_matches_the_dense_oracle(cases):
    # the two-phase simplex on the dense standard form is the reference for
    # the certified vertex that exact mode returns
    for cols in cases:
        want, _ = simplex.solve_standard_exact(*dense_min_proj_standard_form(cols))
        lam, p = minimal_projection_lp(cols, len(cols[0]), mode="exact")
        assert lam == want and l1_norm(p) == lam


@pytest.mark.parametrize("graph", [diamond(1), laakso(1)], ids=["D1", "L1"])
def test_exact_standard_form_matches_the_dense_oracle(graph):
    _assert_exact_lambda_matches_the_dense_oracle([_cycle_cols(graph)])


def test_exact_standard_form_matches_the_dense_oracle_on_random_graphs():
    # LINE and seeded random graphs of <= 6 edges
    rng = random.Random(16)
    cases = [[LINE]]
    while len(cases) < 13:
        graph = _random_connected_graph(rng)
        cols = _cycle_cols(graph)
        if cols and len(graph.edges) <= 6:
            cases.append(cols)
    _assert_exact_lambda_matches_the_dense_oracle(cases)


def test_exact_lambda_matches_the_dense_oracle():
    # proper subspaces of Q^3 and Q^4 with rational columns; their optimal
    # vertices carry denominators far past what a float can be rounded to,
    # and without the dual inequalities that are tight at HiGHS's vertex one
    # of them fails the dual check
    rng = random.Random(3)
    cases = []
    while len(cases) < 15:
        m = rng.randint(3, 4)
        cols = [[F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(m)]
                for _ in range(rng.randint(1, m - 1))]
        if fraction_rank(cols) == len(cols):
            cases.append(cols)
    _assert_exact_lambda_matches_the_dense_oracle(cases)


def _assert_lifted_dual_certifies(cols, dual, lam):
    # The dual (Y, mu', w', den) of the merged LP, lifted to the full LP by
    # mu_j = mu'_c |s_j| / w_c and w_j = (s_j / w_c) E^T w'_c for c = c(j),
    # where (E^T v)_i = sign(s_i) v_c(i), and rechecked on the full B:
    # B^T w_j = Y^T b_j for every row b_j of B, |w_ij| <= mu_j, mu >= 0,
    # sum mu = 1 and tr Y = lambda, which bound the norm of every projection
    # onto span B below by lambda.  Everything is scaled to integers over
    # big = den * lcm(w).
    y, mu, w, den = dual
    b = _transpose(cols)
    assert all(type(x) is int or x.denominator == 1 for row in b for x in row)
    b = [[int(x) for x in row] for row in b]
    m, k = len(b), len(cols)
    _, cls, s, wc = merged_rows(b)
    s, wc = [int(x) for x in s], [int(x) for x in wc]
    scale = lcm(*wc)
    big = den * scale
    lift_y = [[v * scale for v in row] for row in y]
    lift_mu = [0 if c is None else mu[c] * abs(sj) * (scale // wc[c]) for c, sj in zip(cls, s)]
    lift_w = [[0 if ci is None or cj is None else
               sj * (scale // wc[cj]) * (1 if si > 0 else -1) * w[ci][cj]
               for cj, sj in zip(cls, s)] for ci, si in zip(cls, s)]
    col_nz = [[(i, row[l]) for i, row in enumerate(b) if row[l]] for l in range(k)]
    for j in range(m):
        for l in range(k):
            assert sum(c * lift_w[i][j] for i, c in col_nz[l]) == \
                sum(lift_y[r][l] * b[j][r] for r in range(k))
        assert lift_mu[j] >= 0 and all(abs(lift_w[i][j]) <= lift_mu[j] for i in range(m))
    assert sum(lift_mu) == big and F(sum(lift_y[l][l] for l in range(k)), big) == lam


@pytest.mark.parametrize("graph, want", [(diamond(1), 1), (laakso(1), 1),
                                         (diamond(2), F(7, 4)), (laakso(2), F(22, 15)),
                                         (multidiamond(2, 3), F(20, 9))],
                         ids=["D1", "L1", "D2", "L2", "D23"])
def test_exact_lambda_carries_a_dual_certificate(monkeypatch, graph, want):
    seen, solved = [], []
    real_dual, real_lp = projections._min_proj_dual, projections.linprog
    monkeypatch.setattr(projections, "_min_proj_dual",
                        lambda *args: seen.append(real_dual(*args)) or seen[-1])
    monkeypatch.setattr(projections, "linprog",
                        lambda *args, **kwargs: solved.append(1) or real_lp(*args, **kwargs))
    cols = _cycle_cols(graph)
    lam, p = minimal_projection_lp(cols, len(graph.edges), mode="exact")
    assert lam == want and l1_norm(p) == lam
    assert _certificate(graph, p) == (True, True)
    if want == 1:
        # one cycle, one class of rows: P = J E, no LP and no dual to check
        assert not seen and not solved
        return
    assert len(seen) == len(solved) == 1
    _assert_lifted_dual_certifies(cols, seen[0], lam)


def _proportional_rows_case(rng):
    """The columns of a random rational basis of rank k whose m <= 5 rows
    repeat 2 to 4 base rows, some of them negatively scaled, plus zero
    rows, in random order; None if the base rows are dependent or if
    k m > 10, which keeps the dense oracle under a second."""
    m0 = rng.randint(2, 4)
    k = rng.randint(1, m0)
    base = [[F(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(k)]
            for _ in range(m0)]
    if fraction_rank(base) < k:
        return None
    rows = [list(r) for r in base]
    for _ in range(rng.randint(1, 5 - m0) if m0 < 5 else 0):
        kind = rng.choice(("repeat", "negative", "zero"))
        if kind == "zero":
            rows.append([F(0)] * k)
        else:
            f = F(1) if kind == "repeat" else -F(rng.randint(1, 3), rng.choice((1, 2)))
            rows.append([f * x for x in rng.choice(base)])
    if k * len(rows) > 10:
        return None
    rng.shuffle(rows)
    return _transpose(rows)


def test_exact_lambda_on_proportional_rows_matches_the_dense_oracle():
    # the dense oracle solves the full, unmerged LP; six cases of each
    # branch: m' = k (no LP) and m' > k (HiGHS on the merged rows)
    rng = random.Random(18)
    cases = {True: [], False: []}
    while min(map(len, cases.values())) < 6:
        cols = _proportional_rows_case(rng)
        if cols is not None:
            cases[len(merged_rows(_transpose(cols))[0]) == len(cols)].append(cols)
    _assert_exact_lambda_matches_the_dense_oracle(cases[True][:6] + cases[False][:6])


@pytest.mark.parametrize("cols", [[[1, 2], [2, 4]],                            # m' = 1 < k = 2
                                  [[1, 0, 1], [0, 1, 1], [1, 1, 2]],           # m' = k = 3, rank 2
                                  [[1, 0, 1, 1], [0, 1, 1, 2], [1, 1, 2, 3]]],  # m' = 4 > k, rank 2
                         ids=["fewer-classes", "singular-square", "lp"])
def test_a_dependent_basis_raises_in_every_branch(cols):
    for mode in ("float", "exact"):
        with pytest.raises(SolverFailure):
            minimal_projection_lp(cols, len(cols[0]), mode=mode)


def test_cycle_projection_certificate():
    g = diamond(2)
    num, den = orthogonal_rows(_cycle_cols(g))
    assert projections.cycle_projection_certificate(g, num, den) == (True, True)
    assert _certificate(g, linalg.identity(16)) == (True, False)
    assert _certificate(g, linalg.zeros(16, 16)) == (False, True)
    with pytest.raises(ValidationError, match="square"):
        projections.cycle_projection_certificate(g, num[:15], den)
    with pytest.raises(ValidationError, match="square"):
        projections.cycle_projection_certificate(g, [row[:15] for row in num], den)
    # float entries are read exactly, as the Fractions they equal
    p1 = orthogonal_projection(_cycle_cols(diamond(1)))
    as_floats = [[float(x) for x in row] for row in p1]
    assert _certificate(diamond(1), as_floats) == (True, True)
    assert linalg.integer_rows(as_floats) == linalg.integer_rows(p1)


@given(st.integers(0, 10 ** 6), st.sampled_from(["orthogonal", "skew", "kicked", "doubled"]),
       _FRACTIONS)
@settings(max_examples=80, deadline=None)
def test_cycle_projection_certificate_matches_the_dense_oracle(seed, kind, kick):
    # projections onto Z (orthogonal and skew) and perturbed non-projections
    rng = random.Random(seed)
    graph = _random_connected_graph(rng)
    p = orthogonal_projection(_cycle_cols(graph))
    m = len(p)
    if kind != "orthogonal":
        p = _skew(p, [[F(rng.randint(-2, 2)) for _ in range(m)] for _ in range(m)])
    if kind == "kicked":
        p[rng.randrange(m)][rng.randrange(m)] += kick
    elif kind == "doubled":
        p = [[2 * x for x in row] for row in p]
    assert _certificate(graph, p) == fraction_cycle_certificate(graph, p)


def test_minimal_projection_constant_of_diamond_three():
    g = diamond(3)
    start = time.perf_counter()
    lam, p = minimal_projection_lp(_cycle_cols(g), len(g.edges), mode="exact")
    assert time.perf_counter() - start < 1.0        # about 0.1 s on 32 merged coordinates
    assert _certificate(g, p) == (True, True)
    assert lam == F(39, 16) and l1_norm(p) == lam


def test_minimal_projection_constant_of_laakso_three(monkeypatch):
    # 216 edges, 43 cycles, 79 classes of rows; lambda is pinned only
    # after the lifted dual passes on the full L_3
    seen = []
    real = projections._min_proj_dual
    monkeypatch.setattr(projections, "_min_proj_dual",
                        lambda *args: seen.append(real(*args)) or seen[-1])
    g = laakso(3)
    cols = _cycle_cols(g)
    start = time.perf_counter()
    lam, p = minimal_projection_lp(cols, len(g.edges), mode="exact")
    assert time.perf_counter() - start < 10.0       # about 0.8 s
    assert _certificate(g, p) == (True, True)
    assert l1_norm(p) == lam
    _assert_lifted_dual_certifies(cols, seen[0], lam)
    assert lam == F(13100, 6807)


_IMPORT_BOUNDARY = """
import json, sys
from fractions import Fraction

import freelip
from freelip import cli
from freelip.cyclespace import fundamental_cycle_basis
from freelip.graphs import diamond
from freelip.projections import minimal_projection_lp


def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))


def cycle_cols(graph):
    return [v.dense() for v in fundamental_cycle_basis(graph).vectors]


graph, vector = sys.argv[1:]
for argv in (["gen", "--family", "diamond", "--level", "1", "--out", graph],
             ["witness", "--base", "square", "--r", "2"],
             ["quotient-norm", "--graph", graph, "--vector", vector],
             ["haar", "--n", "3", "--upper-cells", "16"]):
    assert cli.main(argv) == 0, argv
g = diamond(1)
assert minimal_projection_lp(cycle_cols(g), len(g.edges))[0] == 1
before = loaded()
g = diamond(2)
lam = minimal_projection_lp(cycle_cols(g), len(g.edges), mode="exact")[0]
print(json.dumps({"before": before, "lambda": str(lam), "after": loaded()}))
"""


def test_only_a_minimal_projection_lp_loads_numpy_and_scipy(tmp_path):
    # this process already holds numpy (the oracles), so a fresh one runs the
    # import, three exact commands and D_1's closed form, then D_2's LP
    vector = tmp_path / "x.json"
    vector.write_text('{"coeffs": {"tl": 1}}')
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_BOUNDARY, str(tmp_path / "g.json"),
                           str(vector)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["before"] == []
    assert out["lambda"] == "7/4"
    assert "scipy.optimize" in out["after"] and "numpy" in out["after"]
