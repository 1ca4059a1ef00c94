"""Moment polytopes of bending torus actions on polygon spaces.

A system of n-3 non-intersecting diagonals turns (an open dense subset of)
the moduli space into a toric manifold whose moment map records the
diagonal lengths.  The image is cut out by triangle inequalities among
edge lengths and diagonal lengths.  Two systems are supported: the
caterpillar (all diagonals from the first vertex, any n >= 4) and, for
hexagons, the three-pairs system pairing off consecutive edges.

The action is toric exactly when no diagonal length can vanish, which is
decided here by minimizing each coordinate over the (exactly computed)
moment polytope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import CapabilityError, EmptyModuliError, NonGenericError
from .lengths import (
    LengthVector,
    apply_permutation,
    assert_generic,
    classify_5gon_chamber,
    excess,
    is_short,
    short_sets,
    sixgon_condition,
    sort_with_permutation,
)
from .polytopes import HalfSpace, HPolytope

CATERPILLAR = "caterpillar"
TRIPLE_PAIRS = "pairs6"


@dataclass(frozen=True)
class DiagonalSystem:
    kind: str
    n: int

    def __post_init__(self):
        if self.kind == CATERPILLAR:
            if self.n < 4:
                raise ValueError("caterpillar system needs n >= 4")
        elif self.kind == TRIPLE_PAIRS:
            if self.n != 6:
                raise ValueError("three-pairs polytope is for 6-vectors")
        else:
            raise ValueError(f"unknown diagonal system {self.kind!r}")

    @property
    def dim(self) -> int:
        return self.n - 3


def caterpillar_system(n: int) -> DiagonalSystem:
    return DiagonalSystem(CATERPILLAR, n)


def triple_pairs_system() -> DiagonalSystem:
    return DiagonalSystem(TRIPLE_PAIRS, 6)


def default_system(n: int) -> DiagonalSystem:
    """The system the reports build for n-gons: three pairs for hexagons, else the caterpillar."""
    return triple_pairs_system() if n == 6 else caterpillar_system(n)


@dataclass(frozen=True)
class MomentImage:
    """Moment polytope of a bending system, with its construction data.

    `polytope` keeps only facets; `raw_halfspaces` is the full inequality
    list before pruning (offsets there are linear in the edge lengths,
    which the perturbation checks rely on).
    """

    polytope: HPolytope
    system: DiagonalSystem
    lengths: LengthVector
    raw_halfspaces: tuple[HalfSpace, ...]


def _merge_rows(rows: list[tuple[tuple[Fraction, ...], Fraction]]) -> list[HalfSpace]:
    merged: dict[tuple[int, ...], Fraction] = {}
    for coeffs, offset in rows:
        h = HalfSpace.of(coeffs, offset)
        if h.normal in merged:
            merged[h.normal] = max(merged[h.normal], h.offset)
        else:
            merged[h.normal] = h.offset
    return [HalfSpace(nrm, off) for nrm, off in merged.items()]


def caterpillar_polytope(r: LengthVector) -> MomentImage:
    """Triangle-inequality polytope of the diagonals from the first vertex.

    Coordinates are the n-3 diagonal lengths; the two boundary "diagonals"
    are the constants r_1 and r_n.  Every consecutive triple
    (d_i, edge r_{i+2}, d_{i+1}) must close a triangle.
    """
    assert_generic(r)
    n = r.n
    m = n - 3

    def term(i: int) -> tuple[tuple[Fraction, ...], Fraction]:
        # diagonal d_i as (coefficient vector, constant); d_0 and d_{n-2}
        # are the fixed edges
        if i == 0:
            return tuple(Fraction(0) for _ in range(m)), r.entry(1)
        if i == n - 2:
            return tuple(Fraction(0) for _ in range(m)), r.entry(n)
        coeffs = tuple(Fraction(1 if k == i - 1 else 0) for k in range(m))
        return coeffs, Fraction(0)

    rows: list[tuple[tuple[Fraction, ...], Fraction]] = []
    for i in range(0, n - 2):
        (cx, kx), (cy, ky) = term(i), term(i + 1)
        s = r.entry(i + 2)
        pairs = [
            (tuple(a + b for a, b in zip(cx, cy)), s - kx - ky),          # x + y >= s
            (tuple(b - a for a, b in zip(cx, cy)), -s - ky + kx),         # y - x >= -s
            (tuple(a - b for a, b in zip(cx, cy)), -s - kx + ky),         # x - y >= -s
        ]
        for coeffs, offset in pairs:
            if any(c != 0 for c in coeffs):
                rows.append((coeffs, offset))
    halfspaces = _merge_rows(rows)
    poly = HPolytope(m, halfspaces)
    return MomentImage(
        polytope=poly.pruned(),
        system=caterpillar_system(n),
        lengths=r,
        raw_halfspaces=tuple(halfspaces),
    )


def _check_pair_order(r: LengthVector, pairs: Sequence[tuple[int, int]]) -> None:
    for a, b in pairs:
        if r.entry(a) > r.entry(b):
            raise ValueError(
                f"expected partial ordering r{a} <= r{b}; got "
                f"{r.entry(a)} > {r.entry(b)}"
            )


def triple_pairs_polytope_6(r: LengthVector) -> MomentImage:
    """Moment polytope of the three-pairs diagonal system for hexagons.

    Requires the partial ordering r1<=r2, r3<=r4, r5<=r6 (callers reshuffle
    first).  The image is the cuboid of per-pair diagonal ranges cut by the
    three halfspaces saying the diagonals themselves close a triangle.
    """
    if r.n != 6:
        raise ValueError("three-pairs polytope is for 6-vectors")
    _check_pair_order(r, [(1, 2), (3, 4), (5, 6)])
    assert_generic(r)
    rows: list[tuple[tuple[Fraction, ...], Fraction]] = []
    for j, (a, b) in enumerate([(1, 2), (3, 4), (5, 6)]):
        lo, hi = r.entry(b) - r.entry(a), r.entry(b) + r.entry(a)
        e = tuple(Fraction(1 if k == j else 0) for k in range(3))
        rows.append((e, lo))
        rows.append((tuple(-c for c in e), -hi))
    for j in range(3):
        coeffs = tuple(Fraction(-1 if k == j else 1) for k in range(3))
        rows.append((coeffs, Fraction(0)))  # d_1 + d_2 + d_3 >= 2 d_j
    halfspaces = _merge_rows(rows)
    poly = HPolytope(3, halfspaces)
    return MomentImage(
        polytope=poly.pruned(),
        system=triple_pairs_system(),
        lengths=r,
        raw_halfspaces=tuple(halfspaces),
    )


def moment_image(r: LengthVector, system: DiagonalSystem) -> MomentImage:
    if system.kind == CATERPILLAR:
        return caterpillar_polytope(r)
    return triple_pairs_polytope_6(r)


# -- vertex charts ------------------------------------------------------------

RECTANGLE_LABELS = ("A", "B", "C", "D")

# short-set conditions for rectangle vertex membership in the three slanted
# halfplanes, assuming r1<=r2 and r4<=r5
_RECT_CHART: dict[tuple[str, int], tuple[int, ...]] = {
    ("A", 0): (2, 4), ("A", 1): (1, 3, 4), ("A", 2): (1, 5),
    ("B", 0): (1, 2, 4), ("B", 1): (3, 4), ("B", 2): (5,),
    ("C", 0): (1, 2), ("C", 1): (3,), ("C", 2): (4, 5),
    ("D", 0): (2,), ("D", 1): (1, 3), ("D", 2): (1, 4, 5),
}

CUBOID_LABELS = ("v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8")

# short-set conditions for cuboid vertex membership in the three triangle
# halfspaces, assuming r1<=r2, r3<=r4, r5<=r6
_CUBOID_CHART: dict[tuple[str, int], tuple[int, ...]] = {
    ("v1", 0): (2, 3, 5), ("v1", 1): (1, 4, 5), ("v1", 2): (1, 3, 6),
    ("v2", 0): (1, 2, 3, 5), ("v2", 1): (4, 5), ("v2", 2): (3, 6),
    ("v3", 0): (1, 2, 5), ("v3", 1): (3, 4, 5), ("v3", 2): (6,),
    ("v4", 0): (2, 5), ("v4", 1): (1, 3, 4, 5), ("v4", 2): (1, 6),
    ("v5", 0): (2, 3), ("v5", 1): (1, 4), ("v5", 2): (1, 3, 5, 6),
    ("v6", 0): (1, 2, 3), ("v6", 1): (4,), ("v6", 2): (3, 5, 6),
    ("v7", 0): (1, 2), ("v7", 1): (3, 4), ("v7", 2): (5, 6),
    ("v8", 0): (2,), ("v8", 1): (1, 3, 4), ("v8", 2): (1, 5, 6),
}


def rectangle_vertices(r: LengthVector) -> dict[str, tuple[Fraction, Fraction]]:
    """Corners of the diagonal-range rectangle for a 5-vector (A, B, C, D)."""
    lo1, hi1 = r.entry(2) - r.entry(1), r.entry(2) + r.entry(1)
    lo2, hi2 = r.entry(5) - r.entry(4), r.entry(5) + r.entry(4)
    return {"A": (lo1, lo2), "B": (hi1, lo2), "C": (hi1, hi2), "D": (lo1, hi2)}


def cuboid_vertices(r: LengthVector) -> dict[str, tuple[Fraction, Fraction, Fraction]]:
    """The eight corners of the per-pair diagonal box for a 6-vector."""
    lo1, hi1 = r.entry(2) - r.entry(1), r.entry(2) + r.entry(1)
    lo2, hi2 = r.entry(4) - r.entry(3), r.entry(4) + r.entry(3)
    lo3, hi3 = r.entry(6) - r.entry(5), r.entry(6) + r.entry(5)
    return {
        "v1": (lo1, lo2, lo3), "v2": (hi1, lo2, lo3),
        "v3": (hi1, hi2, lo3), "v4": (lo1, hi2, lo3),
        "v5": (lo1, lo2, hi3), "v6": (hi1, lo2, hi3),
        "v7": (hi1, hi2, hi3), "v8": (lo1, hi2, hi3),
    }


@dataclass(frozen=True)
class ChartRow:
    label: str
    point: tuple[Fraction, ...]
    memberships: tuple[bool, ...]
    conditions: tuple[tuple[int, ...], ...]


def rectangle_chart_5(r: LengthVector) -> list[ChartRow]:
    """Which rectangle corners satisfy each slanted halfplane, twice over.

    Membership is computed directly from the inequalities and from the
    short-set conditions of the chart; a mismatch means the chart constants
    were transcribed wrong and is raised as an internal error.
    """
    if r.n != 5:
        raise ValueError("rectangle chart is for 5-vectors")
    _check_pair_order(r, [(1, 2), (4, 5)])
    assert_generic(r)
    r3 = r.entry(3)
    conditions = (
        lambda d1, d2: d2 - d1 + r3 >= 0,   # d2 >= d1 - r3
        lambda d1, d2: d2 + d1 - r3 >= 0,   # d2 >= -d1 + r3
        lambda d1, d2: d1 + r3 - d2 >= 0,   # d2 <= d1 + r3
    )
    rows = []
    for label, point in rectangle_vertices(r).items():
        direct = tuple(cond(*point) for cond in conditions)
        via_shorts = tuple(
            is_short(r, _RECT_CHART[(label, col)]) for col in range(3)
        )
        if direct != via_shorts:
            raise AssertionError(
                f"chart mismatch at {label} for {r!r}: direct {direct}, "
                f"short-set {via_shorts}"
            )
        rows.append(
            ChartRow(
                label=label,
                point=point,
                memberships=direct,
                conditions=tuple(_RECT_CHART[(label, col)] for col in range(3)),
            )
        )
    return rows


def vertex_chart_6(r: LengthVector) -> list[ChartRow]:
    """Which cuboid corners lie in each triangle halfspace, twice over."""
    if r.n != 6:
        raise ValueError("cuboid chart is for 6-vectors")
    _check_pair_order(r, [(1, 2), (3, 4), (5, 6)])
    assert_generic(r)
    rows = []
    for label, point in cuboid_vertices(r).items():
        total = sum(point, Fraction(0))
        direct = tuple(total - 2 * point[j] >= 0 for j in range(3))
        via_shorts = tuple(
            is_short(r, _CUBOID_CHART[(label, col)]) for col in range(3)
        )
        if direct != via_shorts:
            raise AssertionError(
                f"chart mismatch at {label} for {r!r}: direct {direct}, "
                f"short-set {via_shorts}"
            )
        rows.append(
            ChartRow(
                label=label,
                point=point,
                memberships=direct,
                conditions=tuple(_CUBOID_CHART[(label, col)] for col in range(3)),
            )
        )
    return rows


# -- toricity -----------------------------------------------------------------


@dataclass(frozen=True)
class ToricityReport:
    toric: bool
    minima: tuple[Fraction, ...]
    witnesses: tuple[tuple[Fraction, ...], ...]  # a minimizing vertex per axis
    image: MomentImage


def is_bending_toric(r: LengthVector, system: DiagonalSystem) -> ToricityReport:
    """Whether every diagonal length stays positive on the moduli space.

    Decided by minimizing each coordinate over the moment polytope's
    vertices.  The boundary diagonals are bounded below by the gap of the
    adjacent edge pair, so a zero minimum forces an exact tie in that
    pair; this consistency is asserted.
    """
    image = moment_image(r, system)
    poly = image.polytope
    if poly.is_empty():
        raise EmptyModuliError(f"moment polytope is empty for {r!r}")
    minima = []
    witnesses = []
    for j in range(poly.dim):
        best = min(v[j] for v in poly.vertices)
        minima.append(best)
        witnesses.append(min(v for v in poly.vertices if v[j] == best))
    toric = all(v > 0 for v in minima)

    # tie consistency for coordinates bounded by an adjacent edge pair
    pair_bounds: list[tuple[int, tuple[int, int]]]
    if system.kind == TRIPLE_PAIRS:
        pair_bounds = [(0, (1, 2)), (1, (3, 4)), (2, (5, 6))]
    else:
        pair_bounds = [(0, (1, 2)), (poly.dim - 1, (r.n - 1, r.n))]
    for axis, (a, b) in pair_bounds:
        if minima[axis] == 0 and r.entry(a) != r.entry(b):
            raise AssertionError(
                f"diagonal {axis + 1} vanishes without a tie in edges {a},{b}"
            )
    if all(r.entry(a) != r.entry(b) for _, (a, b) in pair_bounds):
        if any(minima[axis] == 0 for axis, _ in pair_bounds):
            raise AssertionError("tie-free pairs but a vanishing diagonal")
        if system.kind == TRIPLE_PAIRS or r.n == 5:
            # all coordinates are pair-bounded for these systems
            if not toric:
                raise AssertionError("tie-free edge pairs must give a toric action")
    if r.n == 4 and not toric:
        # the one diagonal exceeds both pair gaps, and genericity forbids
        # ties in both pairs at once
        raise AssertionError("quadrilateral bending must be toric for generic input")
    return ToricityReport(
        toric=toric, minima=tuple(minima), witnesses=tuple(witnesses), image=image
    )


# -- reshuffles and perturbations ---------------------------------------------

RESHUFFLE_RECIPES: dict[tuple[int, str], tuple[int, ...]] = {
    (5, "C2"): (1, 2, 3, 4, 5),
    (5, "C3"): (2, 3, 4, 1, 5),
    (5, "C4"): (2, 3, 1, 4, 5),
    (5, "C5"): (3, 4, 1, 2, 5),
    (5, "C6"): (1, 2, 3, 4, 5),
    (6, "A"): (1, 6, 2, 5, 3, 4),
    (6, "B"): (1, 4, 2, 5, 3, 6),
    (6, "C"): (1, 4, 2, 5, 3, 6),
}


def reshuffle_recipe(n: int, case: str) -> tuple[int, ...]:
    """Permutation (1-based source indices) making the named case toric-ready."""
    try:
        return RESHUFFLE_RECIPES[(n, case)]
    except KeyError:
        raise ValueError(f"no reshuffle recipe for n={n}, case {case!r}") from None


def perturbation_family(r_sorted: LengthVector, t: Fraction) -> LengthVector:
    """The documented perturbation directions: bump r2,r5 (n=5) or r4,r5,r6 (n=6)."""
    e = list(r_sorted.entries)
    if r_sorted.n == 5:
        e[1] += t
        e[4] += t
    elif r_sorted.n == 6:
        e[3] += t
        e[4] += t
        e[5] += t
    else:
        raise ValueError("perturbation families exist for n = 5 and 6 only")
    return LengthVector(e)


def _classification_label(r: LengthVector) -> tuple:
    s, _ = sort_with_permutation(r)
    if r.n == 5:
        return ("chamber", classify_5gon_chamber(s))
    if is_short(s, {1, 6}):
        return ("condition", sixgon_condition(s))
    return ("projective", None)


def validate_perturbation_step(
    r_sorted: LengthVector, system: DiagonalSystem, case: str, t: Fraction
) -> Optional[LengthVector]:
    """r(t) when the step keeps genericity, the classification, and toricity."""
    recipe = reshuffle_recipe(r_sorted.n, case)
    candidate = perturbation_family(r_sorted, t)
    try:
        ok = (
            _classification_label(candidate) == _classification_label(r_sorted)
            and is_bending_toric(apply_permutation(candidate, recipe), system).toric
        )
    except (NonGenericError, EmptyModuliError, ValueError):
        ok = False
    return candidate if ok else None


def perturb_for_toricity(
    r_sorted: LengthVector, system: DiagonalSystem, case: str
) -> tuple[LengthVector, Fraction]:
    """Exact perturbation restoring toricity without leaving the case.

    Returns (r(t), t) with t = 0 when the reshuffled vector is already
    toric.  The step starts at half the smallest positive slack among all
    excesses and all pairwise gaps, then halves (at most 20 times) until
    the perturbed vector is generic, classifies identically, and makes the
    reshuffled bending action toric.
    """
    recipe = reshuffle_recipe(r_sorted.n, case)
    if is_bending_toric(apply_permutation(r_sorted, recipe), system).toric:
        return r_sorted, Fraction(0)

    slacks = [abs(excess(r_sorted, s)) for s in short_sets(r_sorted)]
    gaps = [
        abs(a - b)
        for i, a in enumerate(r_sorted.entries)
        for b in r_sorted.entries[i + 1:]
        if a != b
    ]
    t = min(slacks + gaps) / 2 if (slacks + gaps) else Fraction(1, 2)
    for _ in range(21):
        candidate = validate_perturbation_step(r_sorted, system, case, t)
        if candidate is not None:
            return candidate, t
        t /= 2
    raise CapabilityError(
        f"no perturbation step restored toricity for {r_sorted!r} (case {case})"
    )
