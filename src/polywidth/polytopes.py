"""Exact-rational convex polytopes in low dimension, with fans.

Polytopes are stored by halfspaces {x : <x, u> >= lam} with primitive
integer normals u and rational offsets lam.  Vertices are enumerated
eagerly at construction by one exact double-description pass (Motzkin;
Fukuda-Prodon 1996) over the homogenised cone of the system, in integer
arithmetic; its cost follows the number of vertices, not the number of
d-subsets of halfspaces.  Empty and lower-dimensional polytopes are legal
values; unbounded input is rejected at construction.
Faces are read off the vertex sets on which halfspaces are tight, with no
rank computation: a bounded polytope's faces are intersections of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import NotSimpleError, NotSmoothError, UnboundedPolytopeError
from .linalg import (
    dot,
    mat_det,
    mat_inverse,
    mat_mul_vec,
    mat_transpose,
    primitive_vector,
    vec_sub,
)
from .lp import INFEASIBLE, solve_lp
from .rationals import format_rational

Point = tuple[Fraction, ...]


@dataclass(frozen=True)
class HalfSpace:
    """{x : <x, normal> >= offset} with a primitive integer normal."""

    normal: tuple[int, ...]
    offset: Fraction

    @classmethod
    def of(cls, normal: Sequence, offset) -> "HalfSpace":
        """Build from rational data, rescaling to a primitive normal."""
        fracs = [Fraction(x) for x in normal]
        if all(x == 0 for x in fracs):
            raise ValueError("halfspace normal must be nonzero")
        prim = primitive_vector(fracs)
        # offset scales by the same positive factor as the normal
        for p, f in zip(prim, fracs):
            if f != 0:
                scale = Fraction(p) / f
                break
        return cls(normal=prim, offset=Fraction(offset) * scale)

    def slack(self, point: Sequence) -> Fraction:
        total = 0
        for u, x in zip(self.normal, point):
            if u:
                total += u * x
        return total - self.offset

    def contains(self, point: Sequence) -> bool:
        return self.slack(point) >= 0

    def is_tight(self, point: Sequence) -> bool:
        return self.slack(point) == 0

    def to_json(self) -> dict:
        return {"normal": list(self.normal), "offset": format_rational(self.offset)}


def _primitive(v: list[int]) -> list[int]:
    """An integer vector divided by the gcd of its entries."""
    g = 0
    for x in v:
        g = gcd(g, x)
    return [x // g for x in v] if g > 1 else v


def _initial_cone(rows: list[tuple[int, ...]]) -> Optional[tuple[list[int], list[list[int]]]]:
    """Independent rows B, taken greedily, and the extreme rays of {y : By >= 0}.

    Returns None when the rows have rank below their length.  Integer
    Gauss-Jordan on [B | I] leaves [c_i e_(p_i) | T_i] with T B = diag(c) P,
    so ray j, column j of B^-1, has entry T_ij / c_i at coordinate p_i.
    """
    size = len(rows[0])
    basis: list[int] = []
    reduced: list[tuple[int, list[int]]] = []  # (pivot column, [row | tag])
    for i, row in enumerate(rows):
        v = list(row) + [int(j == len(basis)) for j in range(size)]
        for p, r in reduced:
            if v[p]:
                f = v[p]
                v = _primitive([r[p] * a - f * b for a, b in zip(v, r)])
        pivot = next((c for c in range(size) if v[c]), None)
        if pivot is None:
            continue
        for k, (p, r) in enumerate(reduced):
            if r[pivot]:
                f = r[pivot]
                reduced[k] = (p, _primitive([v[pivot] * a - f * b for a, b in zip(r, v)]))
        reduced.append((pivot, v))
        basis.append(i)
        if len(basis) == size:
            scale = lcm(*(r[p] for p, r in reduced))
            rays = [[0] * size for _ in range(size)]
            for p, r in reduced:
                for j in range(size):
                    rays[j][p] = r[size + j] * (scale // r[p])
            return basis, [_primitive(ray) for ray in rays]
    return None


def _double_description(
    dim: int, halfspaces: Sequence[HalfSpace]
) -> Optional[tuple[list[list[int]], list[int]]]:
    """Extreme rays of the homogenised cone and their zero-set bitmasks.

    The cone is {(x0, x) : x0 >= 0, <u, x> - lam x0 >= 0}; row 0 is x0 >= 0
    and row i + 1 is halfspace i, scaled by its offset's denominator so that
    every row is integer.  Bit k of a ray's mask is set when the ray is
    tight on row k.  Starting from a simplicial cone on independent rows,
    each remaining row cuts the cone: rays on its negative side go, and
    every adjacent (positive, negative) pair yields a new ray on the row's
    hyperplane.  Adjacency is the combinatorial test: the common zero set
    has at least dim - 1 rows and lies in no third ray's zero set.  Returns
    None when the normals have rank below `dim`.
    """
    rows = [(1,) + (0,) * dim] + [
        (-h.offset.numerator,) + tuple(h.offset.denominator * u for u in h.normal)
        for h in halfspaces
    ]
    start = _initial_cone(rows)
    if start is None:
        return None
    basis, rays = start
    full = sum(1 << b for b in basis)
    zeros = [full & ~(1 << b) for b in basis]
    for k, a in enumerate(rows):
        if k in basis:
            continue
        bit = 1 << k
        plus, minus = [], []
        kept_rays, kept_zeros = [], []
        for idx, r in enumerate(rays):
            s = sum(x * y for x, y in zip(a, r))
            if s < 0:
                minus.append((idx, s))
                continue
            if s > 0:
                plus.append((idx, s))
            kept_rays.append(r)
            kept_zeros.append(zeros[idx] if s else zeros[idx] | bit)
        for ip, sp in plus:
            for im, sm in minus:
                common = zeros[ip] & zeros[im]
                if common.bit_count() < dim - 1 or any(
                    z & common == common and i != ip and i != im
                    for i, z in enumerate(zeros)
                ):
                    continue
                kept_rays.append(
                    _primitive([sp * y - sm * x for x, y in zip(rays[ip], rays[im])])
                )
                kept_zeros.append(common | bit)
        rays, zeros = kept_rays, kept_zeros
    return rays, zeros


def _maximal_cuts(face: frozenset[int], tight_sets: Iterable[frozenset[int]]) -> list[frozenset]:
    """The facets of a face: its inclusion-maximal nonempty proper cuts by tight sets.

    Exact for a face of a bounded polytope: every proper face of it is such
    a cut, and lies in a facet of it.
    """
    cuts = [c for c in dict.fromkeys(face & t for t in tight_sets) if c and c != face]
    return [c for c in cuts if not any(c < other for other in cuts)]


class HPolytope:
    """Halfspace intersection with eagerly cached vertex data.

    Immutable after construction; vertices are stored sorted
    lexicographically and `tight_sets[i]` lists the vertex indices on which
    halfspace i is tight, so values are freely shareable across threads.

    Vertices come from one double-description pass over the homogenised
    cone (see `_double_description`): rays with x0 > 0 are the vertices,
    and `tight_sets` is read off their zero sets.  A ray with x0 = 0 next
    to a vertex is a recession direction, and no ray with x0 > 0 means the
    system is empty.  Normals of rank below the dimension leave no vertex;
    such a system is empty or contains a line, decided by an exact LP.
    A nonempty polytope is full-dimensional exactly when no halfspace is
    tight on every vertex, as the system's implicit equalities cut out its
    affine hull; the facets are the maximal proper tight sets.
    """

    __slots__ = ("dim", "halfspaces", "vertices", "tight_sets")

    def __init__(self, dim: int, halfspaces: Iterable[HalfSpace]):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        hs = tuple(halfspaces)
        for h in hs:
            if len(h.normal) != dim:
                raise ValueError("halfspace dimension mismatch")
        self.dim = dim
        self.halfspaces = hs
        cone = _double_description(dim, hs)
        if cone is None:
            # no vertex: empty, or nonempty and containing a line (x = x+ - x-)
            lp = solve_lp(
                [0] * (2 * dim),
                [tuple(-u for u in h.normal) + h.normal for h in hs],
                [-h.offset for h in hs],
            )
            if lp.status != INFEASIBLE:
                raise UnboundedPolytopeError(
                    "nonempty halfspace system with no vertex (contains a line)"
                )
            cone = ([], [])
        found = [
            (tuple(Fraction(x, r[0]) for x in r[1:]), z)
            for r, z in zip(*cone)
            if r[0] > 0
        ]
        if found and len(found) < len(cone[0]):
            raise UnboundedPolytopeError("halfspace system has a recession direction")
        found.sort(key=lambda pair: pair[0])
        self.vertices = tuple(v for v, _ in found)
        self.tight_sets = tuple(
            frozenset(vi for vi, (_, z) in enumerate(found) if z >> (i + 1) & 1)
            for i in range(len(hs))
        )

    # -- basic queries ---------------------------------------------------

    def is_empty(self) -> bool:
        return not self.vertices

    def contains(self, point: Sequence) -> bool:
        return all(h.contains(point) for h in self.halfspaces)

    def is_full_dimensional(self) -> bool:
        n = len(self.vertices)
        return n > 0 and all(len(t) < n for t in self.tight_sets)

    def bounding_box(self) -> tuple[Point, Point]:
        if self.is_empty():
            raise ValueError("empty polytope has no bounding box")
        lo = tuple(min(v[j] for v in self.vertices) for j in range(self.dim))
        hi = tuple(max(v[j] for v in self.vertices) for j in range(self.dim))
        return lo, hi

    # -- facets ----------------------------------------------------------

    def is_facet(self, index: int) -> bool:
        """Whether halfspace `index` is tight on a (d-1)-dimensional face."""
        return index in self.facet_indices()

    def facet_indices(self) -> tuple[int, ...]:
        """Halfspaces tight on a facet; none when empty, ValueError when lower-dimensional."""
        if self.is_empty():
            return ()
        if not self.is_full_dimensional():
            raise ValueError("a lower-dimensional polytope has no facets")
        facets = set(_maximal_cuts(frozenset(range(len(self.vertices))), self.tight_sets))
        return tuple(i for i, t in enumerate(self.tight_sets) if t in facets)

    def pruned(self) -> "HPolytope":
        """Copy keeping one halfspace per facet; empty input is unchanged.

        The point set is untouched, so the vertex data is reused instead of
        re-enumerated.  Lower-dimensional polytopes have no facets and
        cannot be pruned.
        """
        if self.is_empty():
            return self
        if not self.is_full_dimensional():
            raise ValueError("cannot prune a lower-dimensional polytope to facets")
        # equal halfspaces have equal tight sets; a dict keeps the first of each
        kept = {self.halfspaces[i]: self.tight_sets[i] for i in self.facet_indices()}
        out = object.__new__(HPolytope)
        out.dim = self.dim
        out.halfspaces = tuple(kept)
        out.vertices = self.vertices
        out.tight_sets = tuple(kept.values())
        return out

    # -- geometry ---------------------------------------------------------

    def axis_segment(self, point: Sequence, axis: int) -> Optional[tuple[Fraction, Fraction]]:
        """Parameter interval {t : point + t e_axis in P}, or None if empty."""
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis {axis} out of range")
        point = tuple(Fraction(x) for x in point)
        lo: Optional[Fraction] = None
        hi: Optional[Fraction] = None
        for h in self.halfspaces:
            coeff = Fraction(h.normal[axis])
            slack = h.slack(point)
            if coeff == 0:
                if slack < 0:
                    return None
            elif coeff > 0:
                bound = -slack / coeff
                lo = bound if lo is None else max(lo, bound)
            else:
                bound = -slack / coeff
                hi = bound if hi is None else min(hi, bound)
        if lo is None or hi is None:
            raise UnboundedPolytopeError("axis line escapes the halfspace system")
        if lo > hi:
            return None
        return (lo, hi)

    def volume(self) -> Fraction:
        """Exact Lebesgue volume; 0 for empty or lower-dimensional sets."""
        if not self.is_full_dimensional():
            return Fraction(0)
        total = Fraction(0)
        for simplex in self._triangulate(frozenset(range(len(self.vertices)))):
            base = self.vertices[simplex[0]]
            rows = [vec_sub(self.vertices[i], base) for i in simplex[1:]]
            total += abs(mat_det(rows))
        return total / factorial(self.dim)

    def _triangulate(self, face: frozenset[int]):
        """Simplices (vertex indices) coning each facet of `face` to its least vertex."""
        apex = min(face)
        if len(face) == 1:
            yield (apex,)
            return
        for sub in _maximal_cuts(face, self.tight_sets):
            if apex not in sub:
                for simplex in self._triangulate(sub):
                    yield (apex,) + simplex

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "halfspaces": [h.to_json() for h in self.halfspaces],
            "vertices": [[format_rational(c) for c in v] for v in self.vertices],
        }

    def __repr__(self) -> str:
        return f"HPolytope(dim={self.dim}, facets={len(self.halfspaces)}, vertices={len(self.vertices)})"

    def __eq__(self, other) -> bool:
        """Geometric equality: same dimension and same vertex set."""
        return (
            isinstance(other, HPolytope)
            and self.dim == other.dim
            and self.vertices == other.vertices
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.vertices))


def polytope_from_json(data: dict) -> HPolytope:
    from .rationals import parse_rational

    dim = int(data["dim"])
    hs = [
        HalfSpace.of([int(c) for c in entry["normal"]], parse_rational(entry["offset"]))
        for entry in data["halfspaces"]
    ]
    return HPolytope(dim, hs)


# -- unimodular images ------------------------------------------------------


def apply_unimodular(P: HPolytope, matrix: Sequence[Sequence[int]], shift: Sequence) -> HPolytope:
    """Image {Mx + v : x in P} for an integer matrix with det +-1.

    Normals transform by the inverse transpose (still integer and
    primitive for unimodular M); offsets pick up the shift.
    """
    m = [tuple(int(x) for x in row) for row in matrix]
    if abs(mat_det(m)) != 1:
        raise ValueError("matrix is not unimodular")
    shift = tuple(Fraction(x) for x in shift)
    inv = mat_inverse(m)
    inv_t = mat_transpose(inv)
    new_hs = []
    for h in P.halfspaces:
        w = tuple(int(x) for x in mat_mul_vec(inv_t, h.normal))
        new_hs.append(HalfSpace(primitive_vector(w), h.offset + dot(w, shift)))
    return HPolytope(P.dim, new_hs)


# -- fans --------------------------------------------------------------------


@dataclass(frozen=True)
class Fan:
    """Rays (primitive integer vectors) plus maximal cones as ray-index sets."""

    dim: int
    rays: tuple[tuple[int, ...], ...]
    maximal_cones: tuple[frozenset[int], ...]

    def __post_init__(self):
        if len(set(self.rays)) != len(self.rays):
            raise ValueError("duplicate rays")
        for cone in self.maximal_cones:
            for i in cone:
                if not 0 <= i < len(self.rays):
                    raise ValueError("cone refers to a missing ray")

    def cone_ray_sets(self) -> frozenset[frozenset[tuple[int, ...]]]:
        return frozenset(
            frozenset(self.rays[i] for i in cone) for cone in self.maximal_cones
        )


def normal_fan(P: HPolytope) -> Fan:
    """Fan of inward facet normals, one maximal cone per vertex.

    Requires a bounded, full-dimensional, simple polytope (each vertex on
    exactly d facets); everything this package feeds it is simple by
    construction, so violations indicate wall input or a bug.
    """
    if not P.is_full_dimensional():
        raise ValueError("normal fan needs a full-dimensional polytope")
    Q = P.pruned()
    facets = list(range(len(Q.halfspaces)))
    cones = []
    for vi in range(len(Q.vertices)):
        touching = [f for f in facets if vi in Q.tight_sets[f]]
        if len(touching) != Q.dim:
            raise NotSimpleError(
                f"vertex {Q.vertices[vi]} lies on {len(touching)} facets in dimension {Q.dim}"
            )
        cones.append(frozenset(touching))
    fan = Fan(
        dim=Q.dim,
        rays=tuple(h.normal for h in Q.halfspaces),
        maximal_cones=tuple(cones),
    )
    if len(fan.maximal_cones) != len(Q.vertices):
        raise AssertionError("cone count does not match vertex count")
    return fan


def support_function(P: HPolytope) -> dict[tuple[int, ...], Fraction]:
    """Facet offsets keyed by primitive inward normal."""
    Q = P.pruned()
    return {h.normal: h.offset for h in Q.halfspaces}


def fan_is_smooth(fan: Fan) -> bool:
    """Every maximal cone is simplicial with generators a lattice basis."""
    for cone in fan.maximal_cones:
        if len(cone) != fan.dim:
            return False
        rows = [fan.rays[i] for i in sorted(cone)]
        if abs(mat_det(rows)) != 1:
            return False
    return True


def fan_is_complete(fan: Fan) -> bool:
    """Wall criterion: every facet of a maximal cone is shared by exactly 2.

    For the simplicial fans produced here (normal fans of bounded
    polytopes and their stellar subdivisions) this characterizes support
    equal to the whole space.
    """
    if fan.dim == 1:
        return set(fan.rays) == {(1,), (-1,)} and len(fan.maximal_cones) == 2
    if len(fan.maximal_cones) < 2:
        return False
    wall_count: dict[frozenset, int] = {}
    for cone in fan.maximal_cones:
        for drop in cone:
            wall = cone - {drop}
            wall_count[wall] = wall_count.get(wall, 0) + 1
    return all(count == 2 for count in wall_count.values())


def fans_equal(a: Fan, b: Fan) -> bool:
    """Equality as sets of rays and sets of cones under the ray matching."""
    if a.dim != b.dim:
        return False
    if set(a.rays) != set(b.rays):
        return False
    return a.cone_ray_sets() == b.cone_ray_sets()


def is_delzant(P: HPolytope) -> bool:
    """Simple and lattice-smooth: facet normals at each vertex a basis."""
    fan = normal_fan(P)
    return fan_is_smooth(fan)


_FANO_CACHE: dict[tuple, bool] = {}


def is_fano(fan: Fan) -> bool:
    """Whether the fan admits the all-offsets -1 (monotone) polytope.

    Builds {x : <x, u> >= -1 for every ray u} and checks that it is
    bounded, that every ray supports a facet, and that its normal fan is
    the input fan again.  Results are cached per fan (fans recur heavily
    across samples in one chamber).  An equivalent test via the dual of
    the monotone polytope (the convex hull of the rays) would make a good
    independent cross-check but is not implemented.
    """
    if not fan_is_smooth(fan):
        raise NotSmoothError("Fano test needs a smooth fan")
    if not fan_is_complete(fan):
        raise ValueError("Fano test needs a complete fan")
    key = (fan.dim, fan.cone_ray_sets())
    if key in _FANO_CACHE:
        return _FANO_CACHE[key]
    result = _is_fano_uncached(fan)
    _FANO_CACHE[key] = result
    return result


def _is_fano_uncached(fan: Fan) -> bool:
    try:
        candidate = HPolytope(
            fan.dim, [HalfSpace(ray, Fraction(-1)) for ray in fan.rays]
        )
    except UnboundedPolytopeError:
        return False
    if candidate.is_empty() or not candidate.is_full_dimensional():
        return False
    pruned = candidate.pruned()
    if set(h.normal for h in pruned.halfspaces) != set(fan.rays):
        return False
    try:
        mon_fan = normal_fan(pruned)
    except NotSimpleError:
        return False
    return fans_equal(mon_fan, fan)


@dataclass(frozen=True)
class BlowupStep:
    """One stellar subdivision: `cone_rays` replaced by cones through `new_ray`."""

    new_ray: tuple[int, ...]
    cone_rays: frozenset[tuple[int, ...]]


def stellar_subdivision(fan: Fan, cone_index: int, new_ray: tuple[int, ...]) -> Fan:
    rays = list(fan.rays)
    if new_ray in rays:
        new_index = rays.index(new_ray)
    else:
        rays.append(new_ray)
        new_index = len(rays) - 1
    target = fan.maximal_cones[cone_index]
    cones = [c for i, c in enumerate(fan.maximal_cones) if i != cone_index]
    for drop in sorted(target):
        cones.append((target - {drop}) | {new_index})
    return Fan(dim=fan.dim, rays=tuple(rays), maximal_cones=tuple(cones))


def blowup_chain(fine: Fan, coarse: Fan) -> Optional[list[BlowupStep]]:
    """Greedy chain of stellar subdivisions turning `coarse` into `fine`.

    Each extra ray of the fine fan must equal the generator sum of some
    maximal cone of the current fan (the combinatorial shadow of blowing
    up a fixed point).  Greedy with no backtracking: in every case this
    package meets, each extra ray matches a unique cone.  Returns None
    when the walk fails or does not land on the fine fan.
    """
    for fan in (fine, coarse):
        if not fan_is_smooth(fan):
            raise NotSmoothError("blowup chain needs smooth fans")
        if not fan_is_complete(fan):
            raise ValueError("blowup chain needs complete fans")
    if not set(coarse.rays) <= set(fine.rays):
        return None
    remaining = [r for r in fine.rays if r not in set(coarse.rays)]
    current = coarse
    steps: list[BlowupStep] = []
    while remaining:
        applied = False
        for ray in remaining:
            target = None
            for ci, cone in enumerate(current.maximal_cones):
                total = tuple(
                    sum(current.rays[i][k] for i in cone) for k in range(current.dim)
                )
                if total == ray:
                    target = ci
                    break
            if target is not None:
                steps.append(
                    BlowupStep(
                        new_ray=ray,
                        cone_rays=frozenset(
                            current.rays[i] for i in current.maximal_cones[target]
                        ),
                    )
                )
                current = stellar_subdivision(current, target, ray)
                remaining.remove(ray)
                applied = True
                break
        if not applied:
            return None
    if not fans_equal(current, fine):
        return None
    return steps


def replay_blowup_chain(coarse: Fan, steps: Sequence[BlowupStep], fine: Fan) -> bool:
    """Re-apply a recorded chain and confirm it reproduces the fine fan."""
    current = coarse
    for step in steps:
        target = None
        for ci, cone in enumerate(current.maximal_cones):
            if frozenset(current.rays[i] for i in cone) == step.cone_rays:
                total = tuple(
                    sum(current.rays[i][k] for i in cone) for k in range(current.dim)
                )
                if total == step.new_ray:
                    target = ci
                    break
        if target is None:
            return False
        current = stellar_subdivision(current, target, step.new_ray)
    return fans_equal(current, fine)
