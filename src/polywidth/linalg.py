"""Small exact linear algebra over Fractions and integers.

Everything here works on tuples; dimensions are tiny (at most the number of
diagonals of a polygon), so O(d^3) Gaussian elimination is plenty.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

Vector = tuple[Fraction, ...]


def dot(u: Sequence, v: Sequence) -> Fraction:
    total = 0
    for a, b in zip(u, v):
        total += a * b
    return Fraction(total)


def vec_sub(u: Sequence, v: Sequence) -> Vector:
    return tuple(Fraction(a) - Fraction(b) for a, b in zip(u, v))


def primitive_vector(v: Sequence) -> tuple[int, ...]:
    """Scale a rational vector to integer entries with gcd 1.

    The direction is preserved (positive scaling only).
    """
    fracs = [Fraction(x) for x in v]
    if all(x == 0 for x in fracs):
        raise ValueError("zero vector has no primitive representative")
    denom_lcm = 1
    for x in fracs:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in fracs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


def mat_det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant by fraction-free style elimination on a copy."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            factor = m[r][col] * inv
            m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def mat_mul_vec(rows: Sequence[Sequence], v: Sequence) -> Vector:
    return tuple(dot(row, v) for row in rows)


def mat_transpose(rows: Sequence[Sequence]) -> tuple[tuple, ...]:
    return tuple(zip(*rows))


def mat_inverse(rows: Sequence[Sequence]) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse via Gauss-Jordan; raises on singular input."""
    n = len(rows)
    m = [
        [Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            raise ValueError("singular matrix")
        m[col], m[pivot] = m[pivot], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [a * inv for a in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return tuple(tuple(m[r][n:]) for r in range(n))


def affine_rank(points: Sequence[Sequence]) -> int:
    """Dimension of the affine hull of a point set (-1 for the empty set)."""
    if not points:
        return -1
    base = points[0]
    diffs = [vec_sub(p, base) for p in points[1:]]
    return matrix_rank(diffs)


def matrix_rank(rows: Sequence[Sequence]) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, len(m)):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = Fraction(1) / m[row][col]
        m[row] = [a * inv for a in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == len(m):
            break
    return rank
