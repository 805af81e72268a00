import functools
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from freelip import linalg, recursive, symmetry
from freelip.cyclespace import EdgeVector, boundary, fundamental_cycle_basis
from freelip.errors import NotInvariant, ResourceLimit, TrivialCycleSpace, ValidationError
from freelip.graphs import (Edge, TwoPoleGraph, automorphism_search, diamond, diamond_base,
                            k2n_base, laakso, laakso_base, path, recursive_family)
from freelip.projections import l1_norm, minimal_projection_lp, orthogonal_projection
from freelip.recursive import (TensorVector, annihilation_check, c_type_vectors,
                               check_conditions, delta_power, edge_map_matrix,
                               enumerate_geodesics, laakso_nonunique_projection, profile_base,
                               witness)
from freelip.symmetry import invariance_generators, vertical_automorphism

from oracles import (dense_annihilation_failures, dense_commutes, fraction_inverse,
                     fraction_rank, fraction_rref, fraction_tensor_l1,
                     fraction_tensor_materialize, full_invariance_generators, is_idempotent,
                     mat_vec)

@pytest.mark.parametrize("base,alpha,height,count", [
    (diamond_base(), F(1), 2, 2),
    (k2n_base(3), F(4, 3), 2, 3),
    (k2n_base(5), F(8, 5), 2, 5),
    (laakso_base(), F(1, 2), 4, 2),
])
def test_profile_values(base, alpha, height, count):
    prof = profile_base(base)
    assert prof.alpha == alpha
    assert prof.height == height
    assert prof.geodesic_count == count
    assert prof.delta.l1() == 1
    assert prof.c.permute(prof.vertical_edges) == -prof.c
    assert not boundary(prof.d).coeffs  # d(B) lies in the cycle space


def test_profile_c_structure():
    prof = profile_base(laakso_base())
    # |c| = delta and c sums to zero along every geodesic
    for eid, v in prof.delta.coeffs.items():
        assert abs(prof.c.get(eid)) == v
    for walk in enumerate_geodesics(prof.graph):
        assert sum((prof.c.get(eid) for eid in walk), start=F(0)) == 0
    # fixed by every horizontal automorphism, and delta fixed by everything
    for sigma in prof.horizontals:
        emap = symmetry.edge_map_from_vertex_map(prof.graph, sigma)
        assert prof.c.permute(emap) == prof.c
        assert prof.delta.permute(emap) == prof.delta
    assert prof.delta.permute(prof.vertical_edges) == prof.delta


@pytest.mark.parametrize("base", [diamond_base(), k2n_base(3), laakso_base()])
def test_conditions_hold_for_paper_bases(base):
    report = check_conditions(base)
    assert report["all_ok"], report


def test_conditions_fail_for_tree():
    report = check_conditions(path(2))
    assert not report["7_nontrivial_cycles"]["ok"]
    assert not report["all_ok"]


def _two_pole(paths):
    """The two-pole graph of bottom-top paths given as interior vertex lists."""
    verts, edges = {"bottom", "top"}, []
    for walk in paths:
        stops = ["bottom", *walk, "top"]
        verts.update(walk)
        edges += [Edge(f"{u}{v}", u, v) for u, v in zip(stops, stops[1:])]
    return TwoPoleGraph(tuple(sorted(verts)), tuple(edges), "top", "bottom")


@pytest.mark.parametrize("base,dim", [
    (diamond_base(), 0), (k2n_base(3), 0), (laakso_base(), 0), (path(2), 0),
    (_two_pole([["a"], ["b", "c"]]), 1),               # no nontrivial horizontal
    (_two_pole([["a"], ["b"], ["c", "d"]]), 1),        # the swap of a and b fixes one line
])
def test_condition_six_fixed_dimension_matches_a_dense_rank(base, dim):
    # the subspace of Z fixed by every horizontal: k minus the rank of the
    # dense rows (h z_j - z_j)[e] over the horizontals h and edges e
    basis = fundamental_cycle_basis(base).vectors
    rows = [[(z.permute(emap) - z).get(e.id) for z in basis]
            for emap in (symmetry.edge_map_from_vertex_map(base, sigma)
                         for sigma in automorphism_search(base, "fix-poles"))
            for e in base.edges]
    assert len(basis) - (fraction_rank(rows) if basis else 0) == dim
    assert check_conditions(base)["6_horizontal_group"]["fixed_subspace_dim"] == dim


@pytest.mark.parametrize("base", [diamond_base(), laakso_base(), k2n_base(3)])
def test_type_two_vectors_fixed_by_vertical(base):
    # type-two vectors: each base cycle with every edge spread over its
    # copy of the level-(n-1) graph by the delta replica Delta_{n-1}
    prof = profile_base(base)
    s1 = fundamental_cycle_basis(base).vectors
    for n in (1, 2):
        g = recursive_family(base, n)
        dpow = delta_power(prof, n - 1)
        vmap = vertical_automorphism(prof, n)
        for f in s1:
            w = EdgeVector(g, {f"{eid}/{suffix}" if suffix else eid: fv * dv
                               for eid, fv in f.coeffs.items()
                               for suffix, dv in dpow.items()})
            assert not boundary(w).coeffs
            assert w.permute(vmap) == w


def test_vertical_automorphism_structure():
    prof = profile_base(laakso_base())
    # level 1 is the profiled map
    assert vertical_automorphism(prof, 1) == prof.vertical_edges
    v2 = vertical_automorphism(prof, 2)
    # bottom-stem copy swaps with top-stem copy
    assert all(v2[eid].startswith("t/") for eid in v2 if eid.startswith("b/"))
    # involution
    assert all(v2[v2[eid]] == eid for eid in v2)


def test_c_type_vector_counts():
    prof = profile_base(diamond_base())
    g = diamond(2)
    vecs = c_type_vectors(prof, 2, g)
    assert len(vecs) == 4 + 1  # one per level-1 copy plus the top-level spread
    for f in vecs:
        assert f.l1() == 1  # |f| = Delta_m, which has norm one


@pytest.mark.parametrize("base,graph", [(diamond_base(), diamond(2)),
                                        (laakso_base(), laakso(2))])
def test_orthogonal_projection_annihilates_c_vectors(base, graph):
    prof = profile_base(base)
    p = orthogonal_projection([v.dense() for v in fundamental_cycle_basis(graph).vectors])
    report = annihilation_check(p, prof, 2, graph)
    assert report["all_annihilated"]
    # range vectors are fixed, not annihilated
    z = fundamental_cycle_basis(graph).vectors[0].dense()
    assert mat_vec(p, z) == z


def test_annihilation_rejects_non_invariant_projection():
    prof = profile_base(diamond_base())
    g = diamond(2)
    zcols = [v.dense() for v in fundamental_cycle_basis(g).vectors]
    # a skew projection onto the cycle space: restrict to a coordinate
    # section where the basis matrix is invertible; not invariant
    b = [[col[i] for col in zcols] for i in range(16)]
    _, pivots = fraction_rref(linalg.transpose(b))
    section = fraction_inverse([b[i] for i in pivots])
    selector = [[F(1) if j == i else F(0) for j in range(16)] for i in pivots]
    p = linalg.mat_mul(b, linalg.mat_mul(section, selector))
    assert is_idempotent(p)
    with pytest.raises(NotInvariant):
        annihilation_check(p, prof, 2, g)


_ANNIHILATION_CASES = {"D1": (diamond_base(), diamond(1), 1), "L1": (laakso_base(), laakso(1), 1),
                       "D2": (diamond_base(), diamond(2), 2)}
_COEFFICIENTS = st.sampled_from([0, 0, F(1, 2), F(-2, 3)])


@functools.cache
def _invariance_group(name):
    """(profile, graph, level, orthogonal projection, the top-level c-type
    vector u, the sum s of the other c-type vectors (u if there are none),
    index maps of the group the invariance generators generate) for a
    case."""
    base, graph, level = _ANNIHILATION_CASES[name]
    prof = profile_base(base)
    maps = symmetry.closure([symmetry.index_map(graph, emap)
                             for emap in invariance_generators(prof, level, graph).values()])
    p = orthogonal_projection([v.dense() for v in fundamental_cycle_basis(graph).vectors])
    *copies, u = [f.dense() for f in c_type_vectors(prof, level, graph)]
    s = [sum(col) for col in zip(*copies)] if copies else u
    return prof, graph, level, p, u, s, maps


@given(st.sampled_from(sorted(_ANNIHILATION_CASES)), _COEFFICIENTS, _COEFFICIENTS, _COEFFICIENTS,
       st.one_of(st.just(None), st.lists(st.integers(-2, 2), min_size=256, max_size=256)),
       st.sampled_from([0, 0, F(1, 5)]))
@example("D2", 0, 0, F(1, 2), None, 0)      # fails on 4 of the 5 c-type vectors; P^T on 1
@settings(max_examples=60, deadline=None)
def test_annihilation_failures_match_the_dense_oracle(name, a, b, c, entries, kick):
    # P_Z + a I + b J + c u s^T (every generator maps u and s to the same
    # +-u and +-s; u s^T is not symmetric on D_2, so rows and columns
    # differ) + the group average of a random E commutes with the
    # invariance group and kills some, all or none of the c-type vectors;
    # a kick to one entry usually breaks the invariance
    prof, graph, level, p, u, s, maps = _invariance_group(name)
    m = len(p)
    q = [[x + a * (i == j) + b + c * u[i] * s[j] for j, x in enumerate(row)] for i, row in enumerate(p)]
    if entries is not None:
        e = [entries[i * m:(i + 1) * m] for i in range(m)]
        q = [[x + F(sum(e[g[i]][g[j]] for g in maps), len(maps)) for j, x in enumerate(row)]
             for i, row in enumerate(q)]
    q[0][1] += kick
    want = dense_annihilation_failures(q, prof, level, graph)
    if want is None:
        with pytest.raises(NotInvariant):
            annihilation_check(q, prof, level, graph)
    else:
        report = annihilation_check(q, prof, level, graph)
        assert report["failures"] == want and report["all_annihilated"] == (not want)


def test_annihilation_check_rejects_a_matrix_of_the_wrong_size():
    prof = profile_base(diamond_base())
    with pytest.raises(ValidationError, match="square"):
        annihilation_check(linalg.identity(15), prof, 2, diamond(2))


def test_invariance_generator_matrices_preserve_cycles():
    prof = profile_base(laakso_base())
    g = laakso(2)
    p = orthogonal_projection([v.dense() for v in fundamental_cycle_basis(g).vectors])
    gens = invariance_generators(prof, 2, g)
    for name, emap in gens.items():
        assert dense_commutes(p, edge_map_matrix(g, emap)), name
    symmetry.check_invariant(linalg.integer_rows(p)[0], g, gens)


@pytest.mark.parametrize("base,n", [(base, n) for base in (diamond_base(), k2n_base(3), laakso_base())
                                    for n in (1, 2, 3)] + [(diamond_base(), 4)])
def test_invariance_generators_are_the_full_maps_without_their_fixed_points(base, n):
    prof, g = profile_base(base), recursive_family(base, n)
    sparse = invariance_generators(prof, n, g)
    full = full_invariance_generators(prof, n, g)
    assert list(sparse) == list(full)
    for name, emap in full.items():
        assert sparse[name] == {e: f for e, f in emap.items() if e != f}, name
        assert edge_map_matrix(g, sparse[name]) == edge_map_matrix(g, emap), name


def test_invariance_generators_reject_a_graph_of_another_level():
    prof = profile_base(diamond_base())
    with pytest.raises(ValidationError, match="level-2"):
        invariance_generators(prof, 2, diamond(3))
    with pytest.raises(ValidationError, match="level-1"):
        invariance_generators(prof, 1, laakso(1))


# --- witness construction ---------------------------------------------------

@pytest.mark.parametrize("base,alpha", [(diamond_base(), F(1)),
                                        (k2n_base(3), F(4, 3)),
                                        (laakso_base(), F(1, 2))])
def test_witness_growth(base, alpha):
    prof = profile_base(base)
    assert prof.alpha == alpha
    levels = []
    for r in (1, 2, 3):
        w = witness(prof, r)
        assert w.norm_sum == 1
        assert w.norm_c >= 1 + alpha * (r - 1) / 2
        levels.append(w.level)
    assert levels == sorted(levels) and len(set(levels)) == 3


def test_witness_r1_has_zero_correction():
    prof = profile_base(laakso_base())
    w = witness(prof, 1)
    assert w.norm_c == 1 and w.norm_sum == 1
    a_r = w.sum_vector + TensorVector(w.base, [(-c, fs) for c, fs in w.c_vector.terms])
    assert a_r.l1() == 0


def test_witness_flat_cross_check():
    prof = profile_base(diamond_base())
    w = witness(prof, 2)
    g = recursive_family(diamond_base(), w.level)
    flat_c = w.c_vector.materialize(g)
    flat_sum = w.sum_vector.materialize(g)
    assert flat_c.l1() == w.norm_c == F(15, 8)
    assert flat_sum.l1() == w.norm_sum == 1
    assert not boundary(flat_c).coeffs  # C_r lies in the cycle space


@pytest.mark.parametrize("base", [diamond_base(), k2n_base(3), laakso_base()],
                         ids=["square", "k23", "laakso"])
def test_witness_materialize_matches_fraction_oracle(base):
    w = witness(profile_base(base), 2)
    g = recursive_family(base, w.level)
    for vec in (w.c_vector, w.sum_vector):
        flat = vec.materialize(g)
        assert flat.coeffs == fraction_tensor_materialize(vec, g).coeffs
        assert flat.l1() == vec.l1() == fraction_tensor_l1(vec)


# Round lengths t of the witness on each base, as the construction first
# recorded them; r takes the first r - 1.
WITNESS_SCHEDULES = {"square": [3, 3, 4, 4, 5, 5, 5], "k23": [2, 3, 4, 4, 5, 5, 5],
                     "k24": [2, 3, 4, 4, 5, 5, 5], "k25": [2, 3, 4, 4, 5, 5, 5],
                     "laakso": [4, 4, 4, 5, 5, 5, 5]}
WITNESS_BASES = {"square": diamond_base(), "k23": k2n_base(3), "k24": k2n_base(4),
                 "k25": k2n_base(5), "laakso": laakso_base()}


def _reference_terms(prof, schedule):
    """C_r's and (C_r + A_r)'s terms built round by round, every vector's
    factors extended one level at a time: t levels of delta on C and u on
    P, then C gains delta and the new term P (x) d, and P gains rho."""
    ids = sorted(e.id for e in prof.graph.edges)
    s = fundamental_cycle_basis(recursive_family(prof.graph, 1)).vectors[0]
    sv = tuple(s.scale(1 / s.l1()).get(eid) for eid in ids)
    delta, d = (tuple(v.get(eid) for eid in ids) for v in (prof.delta, prof.d))
    u = tuple(x + y for x, y in zip(delta, (prof.c.get(eid) for eid in ids)))
    rho = tuple(x + y for x, y in zip(delta, d))
    c_terms, p = [(sv,)], (sv,)
    for t in schedule:
        for _ in range(t):
            c_terms, p = [fs + (delta,) for fs in c_terms], p + (u,)
        c_terms = [fs + (delta,) for fs in c_terms] + [p + (d,)]
        p += (rho,)
    return [(F(1), fs) for fs in c_terms], [(F(1), p)]


@pytest.mark.parametrize("r", range(1, 9))
@pytest.mark.parametrize("name", sorted(WITNESS_BASES))
def test_witness_norms_match_the_general_dp(name, r):
    prof = profile_base(WITNESS_BASES[name])
    w = witness(prof, r)
    schedule = WITNESS_SCHEDULES[name][:r - 1]
    assert w.t_schedule == schedule
    assert w.level == 1 + sum(t + 1 for t in schedule)
    assert (w.c_vector.terms, w.sum_vector.terms) == _reference_terms(prof, schedule)
    assert w.norm_c == w.c_vector.l1()
    assert w.norm_sum == w.sum_vector.l1() == 1
    if w.level <= 5:
        assert w.norm_c == fraction_tensor_l1(w.c_vector)
        assert w.norm_sum == fraction_tensor_l1(w.sum_vector)


@pytest.mark.parametrize("base,level,norm_c", [
    (diamond_base(), 37, F(264262991159, 34359738368)),
    (k2n_base(3), 36, F(473351270045, 48922361856)),
    (laakso_base(), 40, F(156047029987447, 35184372088832)),
], ids=["square", "k23", "laakso"])
def test_witness_reach(base, level, norm_c):
    prof = profile_base(base)
    start = time.perf_counter()
    w = witness(prof, 8)
    assert time.perf_counter() - start < 2
    assert (w.level, w.norm_c, w.norm_sum) == (level, norm_c, 1)
    with pytest.raises(ResourceLimit, match="exceeds the cap"):
        witness(prof, 9)


def test_witness_checks_the_level_cap_before_a_round_runs(monkeypatch):
    # t = 63 on the first round: level 65 is refused before its 64 levels run
    prof = replace(profile_base(diamond_base()), alpha=F(1, 2 ** 60))
    steps = []
    advance = recursive._advance
    monkeypatch.setattr(recursive, "_advance", lambda *a: steps.append(1) or advance(*a))
    with pytest.raises(ResourceLimit, match="level 65 exceeds"):
        witness(prof, 2)
    assert len(steps) == 1          # level 1 only, whose norm sets the round's t


# --- tensor vectors against the Fraction oracles ----------------------------

# mixed denominators, so a kernel that forgot a level's scale fails
entry = st.builds(F, st.integers(-3, 3), st.sampled_from((1, 2, 3, 5, 12)))
TENSOR_BASES = {"square": (diamond_base(), 6), "laakso": (laakso_base(), 4)}  # deepest level


@functools.cache
def _flat_graph(name, level):
    return recursive_family(TENSOR_BASES[name][0], level)


@st.composite
def tensor_vectors(draw):
    """0-5 terms of 1-6 levels with zero and negative entries and
    coefficients, terms proportional to earlier ones, and levels whose
    columns repeat (every term's factor copies the same edges)."""
    name = draw(st.sampled_from(sorted(TENSOR_BASES)))
    base, deepest = TENSOR_BASES[name]
    n = len(base.edges)
    level = draw(st.integers(1, deepest))
    factor = st.tuples(*([entry] * n))
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        if terms and draw(st.booleans()):
            _, fs = draw(st.sampled_from(terms))
            pos = draw(st.integers(0, level - 1))
            scale = draw(entry)
            fs = fs[:pos] + (tuple(scale * x for x in fs[pos]),) + fs[pos + 1:]
        else:
            fs = tuple(draw(factor) for _ in range(level))
        terms.append((draw(entry), fs))
    for pos in range(level):
        if draw(st.booleans()):
            src = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
            terms = [(c, fs[:pos] + (tuple(fs[pos][i] for i in src),) + fs[pos + 1:])
                     for c, fs in terms]
    return TensorVector(base, terms), _flat_graph(name, level)


@given(tensor_vectors())
@settings(max_examples=120, deadline=None)
def test_tensor_vector_matches_fraction_oracles(case):
    tv, g = case
    flat = tv.materialize(g)
    assert tv.l1() == fraction_tensor_l1(tv)
    assert tv.l1() == flat.l1()
    assert flat.coeffs == fraction_tensor_materialize(tv, g).coeffs


def test_tensor_vector_rejects_mixed_levels():
    b = diamond_base()
    one = (F(1),) * len(b.edges)
    e0 = (F(1),) + (F(0),) * (len(b.edges) - 1)
    with pytest.raises(ValidationError):
        TensorVector(b, [(F(1), (one,)), (F(1), (one, e0))])
    with pytest.raises(ValidationError):
        TensorVector(b, [(F(1), (one, e0)), (F(1), (one,))])
    with pytest.raises(ValidationError):
        TensorVector(b, [(F(1), (one,))]) + TensorVector(b, [(F(1), (one, e0))])


@pytest.mark.parametrize("length", [3, 5])
def test_tensor_vector_rejects_factors_of_the_wrong_length(length):
    b = diamond_base()
    one = (F(1),) * len(b.edges)
    bad = (F(1),) * length
    with pytest.raises(ValidationError):
        TensorVector(b, [(F(1), (one, bad))])
    with pytest.raises(ValidationError):
        TensorVector(b, [(F(1), (one, one)), (F(1), (one, bad))])


def test_tensor_vector_sum_rejects_different_bases():
    # both bases have six edges, so only the base check can catch the sum
    one = (F(1),) * 6
    with pytest.raises(ValidationError):
        TensorVector(k2n_base(3), [(F(1), (one,))]) + TensorVector(laakso_base(), [(F(1), (one,))])


def test_materialize_rejects_a_graph_of_the_wrong_level(monkeypatch):
    b = diamond_base()
    tv = TensorVector(b, [(F(1), ((F(1),) * 4,) * 2)])       # level 2: 16 edges
    assert tv.materialize(recursive_family(b, 2)).l1() == 16
    for level, size in [(1, 4), (3, 64)]:
        with pytest.raises(ValidationError, match=f"graph has {size} edges.* needs 16"):
            tv.materialize(recursive_family(b, level))
    # K_{2,2} is the square under other edge ids: the 16 edges pass the count
    with pytest.raises(ValidationError, match="unknown edge id"):
        tv.materialize(recursive_family(k2n_base(2), 2))
    # the cap comes first, whatever the graph's level
    monkeypatch.setattr(recursive, "MATERIALIZE_CAP", 15)
    for level in (2, 3):
        with pytest.raises(ResourceLimit):
            tv.materialize(recursive_family(b, level))


def test_witness_records_the_minimal_schedule():
    prof = profile_base(diamond_base())
    w = witness(prof, 3)
    assert len(w.t_schedule) == 2
    assert w.level == 1 + sum(t + 1 for t in w.t_schedule)
    # round i takes the least t with ||C|| / 2^t < alpha / 4
    for r, t in enumerate(w.t_schedule, start=1):
        norm_c = witness(prof, r).norm_c
        assert norm_c / 2 ** t < prof.alpha / 4
        assert t == 1 or norm_c / 2 ** (t - 1) >= prof.alpha / 4


def test_witness_level_cap(monkeypatch):
    prof = profile_base(diamond_base())
    level = witness(prof, 2).level
    monkeypatch.setattr(recursive, "WITNESS_LEVEL_CAP", level - 1)
    with pytest.raises(ResourceLimit):
        witness(prof, 2)


def test_geodesic_cap(monkeypatch):
    monkeypatch.setattr(recursive, "GEODESIC_CAP", 1)
    with pytest.raises(ResourceLimit, match="geodesic"):
        enumerate_geodesics(diamond_base())        # two geodesics
    with pytest.raises(ResourceLimit, match="path"):
        check_conditions(diamond_base())           # two bottom-top paths


def test_witness_consistency_with_projection_constant():
    # any projection onto Z(B_1) has norm at least ||C_1|| = 1
    prof = profile_base(diamond_base())
    w = witness(prof, 1)
    zcols = [v.dense() for v in fundamental_cycle_basis(diamond(1)).vectors]
    lam, _ = minimal_projection_lp(zcols, 4)
    assert lam >= float(w.norm_c) - 1e-9


def test_witness_rejects_trivial_base():
    with pytest.raises((TrivialCycleSpace, ValidationError)):
        profile_base(path(2))


# --- the non-unique invariant projection ------------------------------------

def test_laakso_nonunique_projection():
    res = laakso_nonunique_projection()
    assert res["is_projection"]
    assert res["fixes_cycle_space"] and res["range_in_cycle_space"]
    assert is_idempotent(res["projection"])
    assert res["differs_from_orthogonal"] and res["max_entry_gap"] > 0
    assert "v" in res["invariant_under"] and len(res["invariant_under"]) == 8
    # both competing projections have finite l1 norms worth comparing
    assert l1_norm(res["projection"]) >= 1
    assert is_idempotent(res["orthogonal"])
