"""Exact linear algebra over Fractions (dense, list-of-lists).

Sized for this package's needs: matrices up to a few hundred rows.
Everything is pure and allocation-happy rather than clever; exactness is
the point, not throughput.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SingularGram

ZERO = Fraction(0)
ONE = Fraction(1)

Matrix = list  # list[list[Fraction]]
Vector = list  # list[Fraction]


def zeros(m: int, n: int) -> Matrix:
    return [[ZERO] * n for _ in range(m)]


def identity(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = ONE
    return out


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    out = []
    for row in a:
        out_row = []
        for col in bt:
            s = ZERO
            for x, y in zip(row, col):
                if x and y:
                    s += x * y
            out_row.append(s)
        out.append(out_row)
    return out


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    r = [list(row) for row in a]
    m = len(r)
    n = len(r[0]) if m else 0
    pivots = []
    row = 0
    for col in range(n):
        pivot_row = None
        for i in range(row, m):
            if r[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        r[row], r[pivot_row] = r[pivot_row], r[row]
        pv = r[row][col]
        r[row] = [x / pv for x in r[row]]
        for i in range(m):
            if i != row and r[i][col] != 0:
                f = r[i][col]
                r[i] = [x - f * y for x, y in zip(r[i], r[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    return r, pivots


def rank(a: Matrix) -> int:
    if not a:
        return 0
    return len(rref(a)[1])


def solve(a: Matrix, b: Matrix) -> Matrix:
    """Solve a @ X = b for square nonsingular a (b given as columns matrix)."""
    n = len(a)
    k = len(b[0])
    aug = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    r, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise SingularGram("matrix is singular")
    return [row[n:n + k] for row in r[:n]]


def inverse(a: Matrix) -> Matrix:
    return solve(a, identity(len(a)))


def column_abs_sums(a: Matrix) -> Vector:
    n = len(a[0]) if a else 0
    sums = [ZERO] * n
    for row in a:
        for j, x in enumerate(row):
            if x:
                sums[j] += abs(x)
    return sums


def row_abs_sums(a: Matrix) -> Vector:
    return [sum(abs(x) for x in row) for row in a]
