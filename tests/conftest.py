"""Shared independent oracles for the test suite.

These deliberately re-derive quantities from first principles (definition
sums, exhaustive enumeration, shoelace areas) so they cannot inherit a bug
from the code paths they check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, prod

import pytest


def excess_oracle(entries, subset):
    """Definition: sum over the subset minus sum over the complement."""
    inside = sum(Fraction(entries[i - 1]) for i in subset)
    outside = sum(Fraction(e) for e in entries) - inside
    return inside - outside


def generic_oracle(entries):
    """Exhaustive subset-sum check over all index sets."""
    n = len(entries)
    for size in range(n + 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            if excess_oracle(entries, subset) == 0:
                return False
    return True


def short_sets_oracle(entries):
    n = len(entries)
    out = set()
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            if excess_oracle(entries, subset) < 0:
                out.add(frozenset(subset))
    return out


def shoelace_area(points):
    """Exact area of a convex polygon given as an unordered vertex set."""
    pts = list(points)
    cx = sum((p[0] for p in pts), Fraction(0)) / len(pts)
    cy = sum((p[1] for p in pts), Fraction(0)) / len(pts)

    def key(p):
        dx, dy = p[0] - cx, p[1] - cy
        return (0 if (dy > 0 or (dy == 0 and dx > 0)) else 1, dx * 0)

    # angular order around the centroid via pairwise cross products
    import functools

    def cmp(p, q):
        hp = 0 if (p[1] - cy > 0 or (p[1] - cy == 0 and p[0] - cx > 0)) else 1
        hq = 0 if (q[1] - cy > 0 or (q[1] - cy == 0 and q[0] - cx > 0)) else 1
        if hp != hq:
            return -1 if hp < hq else 1
        cross = (p[0] - cx) * (q[1] - cy) - (p[1] - cy) * (q[0] - cx)
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    ordered = sorted(pts, key=functools.cmp_to_key(cmp))
    twice = Fraction(0)
    for i, p in enumerate(ordered):
        q = ordered[(i + 1) % len(ordered)]
        twice += p[0] * q[1] - q[0] * p[1]
    return abs(twice) / 2


def relation_oracle(rays, offsets, cap):
    """Brute-force minimum positive relation value via itertools products."""
    best = None
    nrays = len(rays)
    dim = len(rays[0])
    for coeffs in itertools.product(range(cap + 1), repeat=nrays):
        if sum(coeffs) == 0 or sum(coeffs) > cap:
            continue
        if any(
            sum(a * u[k] for a, u in zip(coeffs, rays)) != 0 for k in range(dim)
        ):
            continue
        value = -sum(Fraction(o) * a for o, a in zip(offsets, coeffs))
        if value > 0 and (best is None or value < best):
            best = value
    return best


def _solve_oracle(rows, rhs):
    """Gauss-Jordan over Fractions; None when the square system is singular."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [a / m[col][col] for a in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return tuple(m[r][n] for r in range(n))


def vertices_oracle(dim, halfspaces):
    """Brute force over d-subsets: every feasible unique intersection point.

    Returns the vertices sorted lexicographically and, per halfspace, the
    indices of the vertices on which it is tight.  Unbounded systems are
    not detected here; callers decide that separately.
    """

    def slack(h, x):
        return sum(u * c for u, c in zip(h.normal, x)) - h.offset

    found = set()
    for subset in itertools.combinations(halfspaces, dim):
        x = _solve_oracle([h.normal for h in subset], [h.offset for h in subset])
        if x is not None and all(slack(h, x) >= 0 for h in halfspaces):
            found.add(x)
    vertices = tuple(sorted(found))
    tight = tuple(
        frozenset(i for i, v in enumerate(vertices) if slack(h, v) == 0)
        for h in halfspaces
    )
    return vertices, tight


def _rank_oracle(rows):
    """Matrix rank by Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col] / m[rank][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _affine_rank_oracle(points):
    """Dimension of the affine hull (-1 for no points)."""
    if not points:
        return -1
    return _rank_oracle([[a - b for a, b in zip(p, points[0])] for p in points[1:]])


def _det_oracle(rows):
    """Leibniz expansion: signed sum over all permutations."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        total += (-1) ** inversions * prod((rows[i][perm[i]] for i in range(n)), start=Fraction(1))
    return total


def faces_oracle(dim, vertices, tight_sets):
    """Full-dimensionality, facet indices and volume by affine ranks.

    A polytope is full-dimensional when its vertices have affine rank
    `dim`, and halfspace i is a facet when its tight vertices have rank
    dim - 1.  The volume cones each facet of a face (a cut by a tight set of
    rank one less) to the face's least vertex, recursively, and sums the
    simplex volumes; it is 0 for lower-dimensional polytopes.
    """

    def rank(indices):
        return _affine_rank_oracle([vertices[i] for i in indices])

    full = rank(range(len(vertices))) == dim
    facets = tuple(i for i, t in enumerate(tight_sets) if rank(t) == dim - 1)

    def simplices(face, face_dim):
        apex = min(face)
        if face_dim == 0:
            yield (apex,)
            return
        for sub in dict.fromkeys(face & t for t in tight_sets):
            if apex not in sub and rank(sub) == face_dim - 1:
                for simplex in simplices(sub, face_dim - 1):
                    yield (apex,) + simplex

    volume = Fraction(0)
    if full:
        for simplex in simplices(frozenset(range(len(vertices))), dim):
            base = vertices[simplex[0]]
            rows = [[a - b for a, b in zip(vertices[i], base)] for i in simplex[1:]]
            volume += abs(_det_oracle(rows))
        volume /= factorial(dim)
    return full, facets, volume


def composition_volume_oracle(entries):
    """The volume coefficient as a double sum over degree splittings and long sets.

    Expanding each excess eps_I = sum of s_i r_i (s_i = +1 in I, -1 outside)
    by the multinomial theorem: every composition k of n-3 into n parts
    contributes multinomial(k) * prod r_i**k_i times the signed count of long
    sets I, with sign (-1)**(n-|I| + n-3 - sum of k_i over I).
    """
    r = [Fraction(e) for e in entries]
    n, m = len(r), len(r) - 3
    total = sum(r)
    longs = [
        subset
        for size in range(1, n + 1)
        for subset in itertools.combinations(range(n), size)
        if 2 * sum(r[i] for i in subset) > total
    ]
    acc = Fraction(0)
    for picks in itertools.combinations_with_replacement(range(n), m):
        k = [picks.count(i) for i in range(n)]
        multinomial = factorial(m) // prod(factorial(ki) for ki in k)
        monomial = prod((ri**ki for ri, ki in zip(r, k)), start=Fraction(1))
        signed = sum((-1) ** (n - len(I) + m - sum(k[i] for i in I)) for I in longs)
        acc += multinomial * monomial * signed
    return -acc / (2 * factorial(m))


@pytest.fixture
def oracles():
    class Oracles:
        excess = staticmethod(excess_oracle)
        generic = staticmethod(generic_oracle)
        short_sets = staticmethod(short_sets_oracle)
        shoelace = staticmethod(shoelace_area)
        relation = staticmethod(relation_oracle)
        vertices = staticmethod(vertices_oracle)
        faces = staticmethod(faces_oracle)
        composition_volume = staticmethod(composition_volume_oracle)

    return Oracles
