"""The exact integer kernel of freelip.linalg against the Fraction oracles.

Matrices are seeded random rectangles of integers or rationals whose rows
include zero rows, repeated rows, proportional rows and negated rows, so
that ranks fall short and systems come out both consistent and
inconsistent.  Every value is compared as exactly equal Fractions.
"""

import random
from fractions import Fraction as F

import pytest

from freelip import linalg
from freelip.errors import SingularGram, ValidationError
from freelip.linalg import RHS, echelon, gauss_jordan

from oracles import fraction_inverse, fraction_rank, fraction_rref, fraction_solve


def _entry(rng, rational):
    num = rng.randint(-4, 4)
    return F(num, rng.choice((1, 2, 3, 5, 6))) if rational else F(num)


def _matrix(rng, m, n, rational):
    """m rows of length n: a few random rows, then copies of them that are
    zero, repeated, scaled by a random nonzero rational or negated, shuffled."""
    base = [[_entry(rng, rational) for _ in range(n)] for _ in range(rng.randint(1, m))]
    rows = [list(r) for r in base]
    while len(rows) < m:
        src = rng.choice(base)
        kind = rng.choice(("zero", "repeat", "scale", "negate"))
        if kind == "zero":
            rows.append([F(0)] * n)
        elif kind == "repeat":
            rows.append(list(src))
        elif kind == "scale":
            s = F(rng.choice((-3, -2, 2, 3, 5)), rng.choice((1, 2, 7)) if rational else 1)
            rows.append([s * x for x in src])
        else:
            rows.append([-x for x in src])
    rng.shuffle(rows)
    return rows


def _cases(seed, count=25):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, _matrix(rng, rng.randint(1, 6), rng.randint(1, 6), rng.random() < 0.5)


def _is_fraction_matrix(a):
    return all(type(x) is F for row in a for x in row)


@pytest.mark.parametrize("seed", range(8))
def test_rref_and_rank_match_the_fraction_oracle(seed):
    for _, a in _cases(seed):
        r, pivots = linalg.rref(a)
        assert (r, pivots) == fraction_rref(a)
        assert _is_fraction_matrix(r) and len(r) == len(a)
        assert fraction_rank(a) == len(pivots)


@pytest.mark.parametrize("seed", range(8))
def test_gauss_jordan_matches_the_fraction_oracle(seed):
    for rng, a in _cases(seed):
        n = len(a[0])
        num, _ = linalg.integer_rows(a)
        ncols = rng.randint(0, n)
        rows, pivots, d = gauss_jordan(num, ncols)
        left, left_pivots = fraction_rref([row[:ncols] for row in a])
        assert pivots == left_pivots and len(rows) == len(pivots)
        assert len(pivots) == fraction_rank([row[:ncols] for row in a])
        assert d != 0 and all(row[q] == d for row, q in zip(rows, pivots))
        scaled = [[F(x, d) for x in row] for row in rows]
        assert [row[:ncols] for row in scaled] == left[:len(pivots)]
        # the carried columns: every row lies in the row space of the input
        assert fraction_rank(a + scaled) == fraction_rank(a)


def _sparse(rows, names):
    """The dense rows [a | b] as sparse rows over the variable names, with b
    under RHS."""
    out = []
    for row in rows:
        num, _ = linalg.integer_rows([row])
        sparse = {v: c for v, c in zip(names, num[0]) if c}
        if num[0][-1]:
            sparse[RHS] = num[0][-1]
        out.append(sparse)
    return out


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("names", ["int", "str"])
def test_echelon_rank_independence_and_consistency_match_the_oracle(seed, names):
    for rng, a in _cases(seed):
        n = len(a[0])
        b = [_entry(rng, True) for _ in a]
        aug = [row + [x] for row, x in zip(a, b)]
        variables = list(range(n)) if names == "int" else [f"e{7 * j % 11}" for j in range(n)]
        sparse = _sparse(aug, variables + [RHS])
        pivots, rest = echelon(sparse)
        rank = fraction_rank(a)
        assert len(pivots) == rank
        assert (not rest) == (rank == len(a))
        assert any(rest) == (fraction_rank(aug) > rank)
        assert len(pivots) + len(rest) == len(a)
        assert all(set(r) <= {RHS} for r in rest)
        done = set()
        for v, r in pivots:
            assert r[v] and not done & set(r)
            done.add(v)
        # the pivot rows lie in the row space of the augmented system
        dense = [[F(r.get(v, 0)) for v in variables + [RHS]] for _, r in pivots]
        assert fraction_rank(aug + dense) == fraction_rank(aug)


@pytest.mark.parametrize("seed", range(8))
def test_solve_and_inverse_match_the_fraction_oracle(seed):
    rng = random.Random(seed)
    for _ in range(25):
        n, k = rng.randint(1, 5), rng.randint(1, 4)
        rational = rng.random() < 0.5
        a = _matrix(rng, n, n, rational) if rng.random() < 0.3 else \
            [[_entry(rng, rational) for _ in range(n)] for _ in range(n)]
        b = [[_entry(rng, True) for _ in range(k)] for _ in range(n)]
        if fraction_rank(a) < n:
            with pytest.raises(SingularGram):
                linalg.solve(a, b)
            with pytest.raises(SingularGram):
                linalg.inverse(a)
            continue
        x = linalg.solve(a, b)
        assert x == fraction_solve(a, b) and _is_fraction_matrix(x)
        inv = linalg.inverse(a)
        assert inv == fraction_inverse(a) and _is_fraction_matrix(inv)


def test_empty_matrices():
    assert linalg.rref([]) == ([], [])
    assert linalg.solve([], []) == []
    assert echelon([]) == ([], [])
    assert gauss_jordan([], 0) == ([], [], 1)


@pytest.mark.parametrize("a,b", [
    ([[F(1), F(2), F(3)], [F(4), F(5), F(6)]], [[F(1)], [F(2)]]),      # 2 x 3
    ([[F(1), F(2)], [F(3), F(4)], [F(5), F(6)]], [[F(1)], [F(2)], [F(3)]]),  # 3 x 2
    ([[F(1), F(2)], [F(3)]], [[F(1)], [F(2)]]),                          # ragged
    ([[F(1), F(0)], [F(0), F(1)]], [[F(1)]]),                            # b too short
    ([[F(1), F(0)], [F(0), F(1)]], [[F(1)], [F(2)], [F(3)]]),            # b too long
], ids=["2x3", "3x2", "ragged", "short-b", "long-b"])
def test_solve_rejects_a_non_square_matrix_or_a_mismatched_right_hand_side(a, b):
    with pytest.raises(ValidationError):
        linalg.solve(a, b)
    if len(a) != len(b):
        return
    with pytest.raises(ValidationError):
        linalg.inverse(a)
