"""Exact linear algebra over Q, run on integer rows over one denominator.

A rational matrix is read as integer rows N over the lcm d of its
denominators (integer_rows), eliminated in integers, and turned back into
Fractions only at the boundary, one per distinct numerator (fractions).
There are two eliminations, both fraction free:

- gauss_jordan, dense Gauss-Jordan elimination (Bareiss, "Sylvester's
  identity and multistep integer-preserving Gaussian elimination", 1968),
  for full solves with many right-hand sides;
- echelon, sparse forward elimination of rows held as maps
  {variable: integer coefficient}, with a row's constant term under RHS,
  for the rank, independence and consistency of sparse systems.

rref, solve and inverse take and return dense Fraction matrices
(lists of rows): each reads its input as integer rows, runs one
gauss_jordan and divides by the determinant it ends on.  The rest are
small dense Fraction helpers.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .errors import ValidationError

ZERO = Fraction(0)
ONE = Fraction(1)
RHS = -1            # the key of a sparse row's constant term in echelon

Matrix = list  # list[list[Fraction]]


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


# ---------------------------------------------------------------------------
# Integer rows over one denominator
# ---------------------------------------------------------------------------

def integer_rows(p) -> tuple:
    """(N, d): the rational matrix p as rows of integers N over the lcm d
    of its denominators, so that p = N / d.  Entries without a denominator,
    such as floats, are read exactly as Fractions first."""
    try:
        d = lcm(*{x.denominator for row in p for x in row})
    except AttributeError:
        return integer_rows([[Fraction(x) for x in row] for row in p])
    return [[x.numerator * (d // x.denominator) for x in row] for row in p], d


def fractions(num: list, den: int) -> list:
    """The integer rows num over den as rows of Fractions, made once per
    distinct numerator."""
    made = {x: Fraction(x, den) for x in set(chain.from_iterable(num))}
    return [list(map(made.__getitem__, row)) for row in num]


# ---------------------------------------------------------------------------
# The two eliminations
# ---------------------------------------------------------------------------

def gauss_jordan(rows: list, ncols: int) -> tuple:
    """Fraction-free Gauss-Jordan elimination of integer rows on their first
    ncols columns, as (R, pivots, D): R holds the rows that got a pivot, in
    pivot order, with D at their own pivot column and 0 at the others; the
    other columns carry along.  Each step replaces every other row r by
    (p r - r_q piv) / p', with p the new pivot, r_q the row's entry in the
    pivot column and p' the previous pivot (1 at first); every entry is
    then a minor of the input, so the division is exact (Bareiss 1968),
    and D is the last pivot.
    """
    rows = [list(r) for r in rows]
    pivots = []
    prev = 1
    for q in range(ncols):
        t = len(pivots)
        c = next((r for r in range(t, len(rows)) if rows[r][q]), None)
        if c is None:
            continue
        rows[t], rows[c] = rows[c], rows[t]
        piv = rows[t]
        p = piv[q]
        for r, row in enumerate(rows):
            if r == t:
                continue
            f = row[q]
            if f:
                rows[r] = [(p * x - f * y) // prev for x, y in zip(row, piv)]
            elif p != prev:
                rows[r] = [p * x // prev for x in row]
        pivots.append(q)
        prev = p
    return rows[:len(pivots)], pivots, prev


def _eliminate(r: dict, p: dict, v) -> dict:
    """The sparse integer row r with its variable v eliminated by the pivot
    row p, divided by the gcd of its entries."""
    g = gcd(p[v], r[v])
    a, c = p[v] // g, r[v] // g
    out = {x: a * y for x, y in r.items()}
    for x, y in p.items():
        z = out.get(x, 0) - c * y
        if z:
            out[x] = z
        else:
            del out[x]
    g = gcd(*out.values())
    return {x: y // g for x, y in out.items()} if g > 1 else out


def echelon(rows: list) -> tuple:
    """Fraction-free forward elimination of sparse integer rows, each a map
    {variable: integer coefficient} with its constant term, if any, under
    RHS, as (pivots, rest).

    Each row is reduced by the earlier pivot rows in the order they were
    made, each step divided by the gcd of the result's entries, then
    pivots on its variable that the fewest rows contain (the least such
    variable at a tie).  pivots lists (variable, row) in that order, each
    row 0 at the variables of the pivots before it.  rest holds the rows
    that reduced to no variable: {} for a row the earlier ones span, and
    {RHS: c} with c != 0 for one they contradict.  So len(pivots) is the
    rank of the coefficient rows, they are independent when rest is empty,
    and the system is consistent when every row in rest is empty.
    """
    count = {}
    for row in rows:
        for v in row:
            count[v] = count.get(v, 0) + 1
    made = {}                       # pivot variable -> its index in pivots
    pivots, rest = [], []
    for r in rows:
        heap = [made[v] for v in r if v in made]
        heapq.heapify(heap)
        while heap:
            v, p = pivots[heapq.heappop(heap)]
            if v in r:
                old, r = r, _eliminate(r, p, v)
                for x in p:
                    if x in made and x not in old:
                        heapq.heappush(heap, made[x])
        free = [v for v in r if v != RHS]
        if free:
            v = min(free, key=lambda x: (count[x], x))
            made[v] = len(pivots)
            pivots.append((v, r))
        else:
            rest.append(r)
    return pivots, rest


# ---------------------------------------------------------------------------
# Fraction matrices at the boundary
# ---------------------------------------------------------------------------

def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    n = len(a[0]) if a else 0
    rows, pivots, d = gauss_jordan(integer_rows(a)[0], n)
    return fractions(rows, d) + zeros(len(a) - len(rows), n), pivots


def solve(a: Matrix, b: Matrix) -> Matrix:
    """Solve a @ X = b for square nonsingular a (b given as columns matrix).
    ValidationError unless a is square and b has as many rows as a;
    ValidationError too if a is singular."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValidationError("solve needs a square matrix")
    if len(b) != n:
        raise ValidationError(f"right-hand side has {len(b)} rows, the matrix has {n}")
    rows, pivots, d = gauss_jordan(integer_rows([[*ra, *rb] for ra, rb in zip(a, b)])[0], n)
    if len(pivots) < n:
        raise ValidationError("matrix is singular")
    return fractions([row[n:] for row in rows], d)


def inverse(a: Matrix) -> Matrix:
    return solve(a, identity(len(a)))

