"""Gromov-width bounds with machine-checkable certificates.

Lower bounds come from fitting the largest axis-aligned cross whose convex
hull (a diamond-like region) sits inside the moment polytope; the fit is
an exact linear program.  Upper bounds come from three certificate kinds:
the minimum positive value of an integer relation among facet normals
(valid for Fano fans), the same after exhibiting the fan as a chain of
blowups of a coarser Fano fan, and containment of a full cuboid facet in
the hexagon moment polytope.  `gromov_width_report` stitches these into
one report per length vector, in units of 2*pi.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .bending import (
    MomentImage,
    caterpillar_polytope,
    caterpillar_system,
    cuboid_vertices,
    default_system,
    moment_image,
    perturb_for_toricity,
    reshuffle_recipe,
    triple_pairs_polytope_6,
    triple_pairs_system,
    validate_perturbation_step,
)
from .errors import CapabilityError, NotSimpleError, UnboundedPolytopeError
from .lengths import (
    LengthVector,
    apply_permutation,
    assert_generic,
    assert_nonempty,
    classify_5gon_chamber,
    is_long,
    is_short,
    perimeter_slack,
    singleton_maximal_short,
    sort_with_permutation,
    width_formula,
)
from .lp import OPTIMAL, solve_lp
from .polytopes import (
    Fan,
    HalfSpace,
    HPolytope,
    apply_unimodular,
    blowup_chain,
    BlowupStep,
    fan_is_smooth,
    is_fano,
    normal_fan,
    replay_blowup_chain,
)
from .rationals import format_rational

DEFAULT_CAP_SLACK = 2  # default relation-degree cap is n + this


def _fmt(x: Fraction) -> str:
    return format_rational(x)


# -- cross fitting (lower bounds) ---------------------------------------------


@dataclass(frozen=True)
class CrossFit:
    """Axis-aligned cross of common arm length `size` inside a polytope."""

    size: Fraction
    center: tuple[Fraction, ...]
    arms: tuple[tuple[Fraction, Fraction], ...]  # (back, forward) per axis

    def endpoints(self):
        d = len(self.center)
        for j, (back, forward) in enumerate(self.arms):
            minus = list(self.center)
            minus[j] -= back
            plus = list(self.center)
            plus[j] += forward
            yield tuple(minus), tuple(plus)

    def to_json(self) -> dict:
        return {
            "size": _fmt(self.size),
            "center": [_fmt(c) for c in self.center],
            "arms": [[_fmt(a), _fmt(b)] for a, b in self.arms],
        }


def max_axis_cross(P: HPolytope) -> CrossFit:
    """Largest diamond-like cross inside P, by exact LP.

    Variables are the center, per-axis back/forward arm extents, and the
    common size a with a <= back_j + forward_j; every arm endpoint must
    satisfy every halfspace.  The polytope is translated into the positive
    orthant so all LP variables are nonnegative.
    """
    if P.is_empty() or not P.is_full_dimensional():
        raise ValueError("cross fitting needs a nonempty full-dimensional polytope")
    d = P.dim
    lo, _ = P.bounding_box()
    nvars = 3 * d + 1  # c_0..c_{d-1}, fwd_0.., back_0.., a

    rows = []
    rhs = []
    for h in P.halfspaces:
        shifted_offset = h.offset - sum(
            Fraction(u) * l for u, l in zip(h.normal, lo)
        )
        for j in range(d):
            uj = Fraction(h.normal[j])
            if uj == 0:
                continue
            for sign, block in ((1, d), (-1, 2 * d)):
                row = [Fraction(0)] * nvars
                for k in range(d):
                    row[k] = -Fraction(h.normal[k])
                row[block + j] = -sign * uj
                rows.append(row)
                rhs.append(-shifted_offset)
    for j in range(d):
        row = [Fraction(0)] * nvars
        row[d + j] = -1
        row[2 * d + j] = -1
        row[3 * d] = 1
        rows.append(row)
        rhs.append(Fraction(0))

    objective = [Fraction(0)] * nvars
    objective[3 * d] = Fraction(1)
    result = solve_lp(objective, rows, rhs)
    if result.status != OPTIMAL:
        raise AssertionError(f"cross LP must be solvable on a polytope: {result.status}")
    x = result.x
    size = x[3 * d]
    center = tuple(x[k] + lo[k] for k in range(d))
    arms = []
    for j in range(d):
        forward, back = x[d + j], x[2 * d + j]
        total = forward + back
        if total > size and total > 0:
            # shrink proportionally so back + forward == size exactly
            scale = size / total
            forward, back = forward * scale, back * scale
        arms.append((back, forward))
    fit = CrossFit(size=size, center=center, arms=tuple(arms))
    replay_crossfit(P, fit)
    return fit


def replay_crossfit(P: HPolytope, fit: CrossFit) -> None:
    """Re-check a cross fit from scratch; raises on any violation."""
    for minus, plus in fit.endpoints():
        for point in (minus, plus):
            if not P.contains(point):
                raise AssertionError(f"cross endpoint {point} escapes the polytope")
    for back, forward in fit.arms:
        if back < 0 or forward < 0 or back + forward != fit.size:
            raise AssertionError("cross arms do not realize the claimed size")


def brute_force_cross_size(P: HPolytope, denominator: int) -> Fraction:
    """Best cross size over grid centers with the given denominator (oracle).

    For a fixed center the largest cross is the minimum over axes of the
    full axis-segment length through it, so optimizing over a rational
    grid gives a lower bound that the LP must dominate.
    """
    lo, hi = P.bounding_box()
    best = Fraction(0)
    axes_ranges = []
    for j in range(P.dim):
        steps = []
        k = (lo[j] * denominator).__ceil__()
        while Fraction(k, denominator) <= hi[j]:
            steps.append(Fraction(k, denominator))
            k += 1
        axes_ranges.append(steps)
    for center in itertools.product(*axes_ranges):
        if not P.contains(center):
            continue
        size = None
        for j in range(P.dim):
            seg = P.axis_segment(center, j)
            if seg is None:
                size = Fraction(0)
                break
            length = seg[1] - seg[0]
            size = length if size is None else min(size, length)
        if size is not None and size > best:
            best = size
    return best


# -- constructive cross witnesses ---------------------------------------------


@dataclass(frozen=True)
class CrossWitness:
    point: tuple[Fraction, ...]
    arm_lengths: tuple[Fraction, ...]
    guarantee: Fraction  # every arm length is at least this

    def to_json(self) -> dict:
        return {
            "point": [_fmt(c) for c in self.point],
            "arm_lengths": [_fmt(a) for a in self.arm_lengths],
            "guarantee": _fmt(self.guarantee),
        }


def _midpoint(lo: Fraction, hi: Fraction) -> Fraction:
    return (lo + hi) / 2


def pentagon_cross_witness(r_sorted: LengthVector) -> CrossWitness:
    """Closed-form interior point whose two axis segments have length >= 2 r1.

    Follows the constructive intervals behind the pentagon lower bound:
    the vertical coordinate comes from intersecting the triangle windows
    of the two edge pairs, the horizontal one splits on whether the middle
    edge exceeds r1 + r2.
    """
    r = r_sorted
    if r.n != 5 or not r.is_sorted():
        raise ValueError("pentagon witness needs a sorted 5-vector")
    assert_generic(r)
    if is_long(r, {1, 5}):
        raise ValueError("pentagon witness needs {1,5} short")
    r1, r2, r3, r4, r5 = r.entries
    lo2 = max(r3 - r2 + r1, r5 - r4)
    hi2 = min(-r1 + r2 + r3, r4 + r5)
    if lo2 > hi2:
        raise AssertionError("vertical window is empty despite {1,5} short")
    d2 = _midpoint(lo2, hi2)
    if r3 < r1 + r2:
        lo1 = max(2 * r1 - r3 - r4 + r5, r3)
        hi1 = min(r3 + r4 + r5 - 2 * r1, r1 + r2)
        if lo1 > hi1:
            raise AssertionError("horizontal window is empty despite {1,5} short")
        d1 = _midpoint(lo1, hi1)
    else:
        d1 = r1 + r2
    point = (d1, d2)
    image = caterpillar_polytope(r)
    lengths = _axis_lengths(image.polytope, point)
    guarantee = 2 * r1
    if min(lengths) < guarantee:
        raise AssertionError(f"pentagon witness arms {lengths} below {guarantee}")
    return CrossWitness(point=point, arm_lengths=lengths, guarantee=guarantee)


def hexagon_cross_witness(r_sorted: LengthVector) -> CrossWitness:
    """Interior point of the hexagon moment polytope with three long arms.

    The first diagonal is fixed at the midpoint of its feasible window;
    the remaining two coordinates are the vertex centroid of the exact 2D
    window polytope that the construction carves out for them.
    """
    r = r_sorted
    if r.n != 6 or not r.is_sorted():
        raise ValueError("hexagon witness needs a sorted 6-vector")
    assert_generic(r)
    if is_long(r, {1, 6}):
        raise ValueError("hexagon witness needs {1,6} short")
    r1, r2, r3, r4, r5, r6 = r.entries
    # the last bound keeps the (d2, d3) box nonempty; it exceeds the
    # penultimate one exactly when {2,6} is long, and stays below r1 + r2
    # because {1,6} is short
    lo1 = max(
        r1,
        r2 - r1,
        (5 * r1 - r2 - r3 - r4 - r5 + r6) / 2,
        2 * r1 - r3 - r4 - r5 + r6,
    )
    hi1 = r1 + r2
    if lo1 > hi1:
        raise AssertionError("first-diagonal window is empty despite {1,6} short")
    d1 = _midpoint(lo1, hi1)
    a1 = max(r4 - r3, 2 * r1 - r5 + r6 - d1, d1)
    a2 = min(r4 + r3, r5 + r6 + d1 - 2 * r1)
    b1 = max(r6 - r5, 2 * r1 - r3 + r4 - d1, d1)
    b2 = min(r6 + r5, r3 + r4 + d1 - 2 * r1)
    window = HPolytope(
        2,
        [
            HalfSpace((1, 0), a1),
            HalfSpace((-1, 0), -a2),
            HalfSpace((0, 1), b1),
            HalfSpace((0, -1), -b2),
            HalfSpace((1, -1), -(r2 - r1)),
            HalfSpace((-1, 1), -(r2 - r1)),
            HalfSpace((1, 1), r1 + r2),
        ],
    )
    if window.is_empty():
        raise AssertionError("second/third-diagonal window is empty despite {1,6} short")
    k = len(window.vertices)
    d2 = sum((v[0] for v in window.vertices), Fraction(0)) / k
    d3 = sum((v[1] for v in window.vertices), Fraction(0)) / k
    point = (d1, d2, d3)
    image = triple_pairs_polytope_6(r)
    lengths = _axis_lengths(image.polytope, point)
    guarantee = 2 * r1
    if min(lengths) < guarantee:
        raise AssertionError(f"hexagon witness arms {lengths} below {guarantee}")
    return CrossWitness(point=point, arm_lengths=lengths, guarantee=guarantee)


def _axis_lengths(P: HPolytope, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if not P.contains(point):
        raise AssertionError(f"witness point {point} is outside the polytope")
    lengths = []
    for j in range(P.dim):
        seg = P.axis_segment(point, j)
        if seg is None:
            raise AssertionError("witness point has an empty axis segment")
        lengths.append(seg[1] - seg[0])
    return tuple(lengths)


# -- relation certificates (upper bounds) --------------------------------------


@dataclass(frozen=True)
class RelationCertificate:
    """Nonnegative integer relation among rays with minimal positive value.

    The value is -sum(offset_k * a_k) over rays with sum(a_k * ray_k) = 0;
    for a Fano fan this bounds the Gromov width from above (in 2*pi
    units).  `at_cap` warns that the minimum was attained at the degree
    cap, so a larger cap could in principle do better.
    """

    rays: tuple[tuple[int, ...], ...]
    offsets: tuple[Fraction, ...]
    coefficients: tuple[int, ...]
    value: Fraction
    cap: int
    at_cap: bool

    def to_json(self) -> dict:
        return {
            "rays": [list(u) for u in self.rays],
            "offsets": [_fmt(o) for o in self.offsets],
            "coefficients": list(self.coefficients),
            "value": _fmt(self.value),
            "cap": self.cap,
            "at_cap": self.at_cap,
        }


def relation_bound(
    rays: Sequence[tuple[int, ...]],
    offsets: Sequence[Fraction],
    cap: int,
) -> Optional[RelationCertificate]:
    """Minimum positive -sum(offsets . a) over relations sum(a . rays) = 0.

    Exhaustive over all nonnegative integer vectors with total degree at
    most `cap` (the interesting relations here need degree <= dim + 1).
    Ties break toward lower total degree, then lexicographically, so the
    certificate is deterministic.
    """
    if cap < 2:
        raise ValueError("relation cap must be at least 2")
    nrays = len(rays)
    dim = len(rays[0]) if nrays else 0
    best: Optional[tuple] = None

    # suffix_max[i][k]: largest |ray coordinate k| among rays i..; a partial
    # sum larger than remaining * suffix_max can never cancel
    suffix_max = [[0] * dim for _ in range(nrays + 1)]
    for i in range(nrays - 1, -1, -1):
        for k in range(dim):
            suffix_max[i][k] = max(suffix_max[i + 1][k], abs(rays[i][k]))

    def recurse(idx: int, remaining: int, partial: tuple[int, ...], coeffs: list[int]):
        nonlocal best
        if idx == nrays:
            if all(c == 0 for c in partial):
                total = sum(coeffs)
                if total == 0:
                    return
                value = -sum(
                    (Fraction(o) * a for o, a in zip(offsets, coeffs)), Fraction(0)
                )
                if value > 0:
                    key = (value, total, tuple(coeffs))
                    if best is None or key < best:
                        best = key
            return
        for k in range(dim):
            if abs(partial[k]) > remaining * suffix_max[idx][k]:
                return
        for a in range(remaining + 1):
            coeffs.append(a)
            new_partial = tuple(
                p + a * rays[idx][k] for k, p in enumerate(partial)
            )
            recurse(idx + 1, remaining - a, new_partial, coeffs)
            coeffs.pop()

    recurse(0, cap, tuple([0] * dim), [])
    if best is None:
        return None
    value, total, coeffs = best
    return RelationCertificate(
        rays=tuple(rays),
        offsets=tuple(Fraction(o) for o in offsets),
        coefficients=coeffs,
        value=value,
        cap=cap,
        at_cap=(total == cap),
    )


def replay_relation(cert: RelationCertificate) -> None:
    dim = len(cert.rays[0])
    for k in range(dim):
        if sum(a * u[k] for a, u in zip(cert.coefficients, cert.rays)) != 0:
            raise AssertionError("stored coefficients are not a relation")
    value = -sum(
        (o * a for o, a in zip(cert.offsets, cert.coefficients)), Fraction(0)
    )
    if value != cert.value or value <= 0:
        raise AssertionError("stored relation value does not replay")


# -- Fano / blowup upper bounds -------------------------------------------------


@dataclass(frozen=True)
class UpperBoundCertificate:
    kind: str  # "fano" | "blowup"
    value: Fraction
    relation: RelationCertificate
    fine_fan: Fan
    coarse_fan: Optional[Fan] = None
    steps: tuple[BlowupStep, ...] = ()

    def to_json(self) -> dict:
        data = {
            "kind": self.kind,
            "value": _fmt(self.value),
            "relation": self.relation.to_json(),
            "fine_rays": [list(u) for u in self.fine_fan.rays],
        }
        if self.kind == "blowup":
            data["coarse_rays"] = [list(u) for u in self.coarse_fan.rays]
            data["blowup_steps"] = [
                {"new_ray": list(s.new_ray), "cone": sorted(map(list, s.cone_rays))}
                for s in self.steps
            ]
        return data


def upper_bound_via_fano_or_blowup(
    image: MomentImage | HPolytope, cap: int
) -> Optional[UpperBoundCertificate]:
    """Width upper bound from the fan of a Delzant moment polytope.

    If the fan is Fano, the relation bound applies directly.  Otherwise
    search for a coarse Fano fan obtained by deleting up to three rays:
    the surviving halfspaces (with the polytope's own offsets) must cut
    out a polytope whose normal fan is exactly the surviving rays, be
    Fano, and refine back to the fine fan through a chain of blowups.
    Among the successes the smallest relation value wins.  None when no
    certificate applies.
    """
    P = image.polytope if isinstance(image, MomentImage) else image
    P = P.pruned()
    fan = normal_fan(P)
    if not fan_is_smooth(fan):
        raise ValueError("upper bound certificates need a Delzant polytope")
    offsets = {h.normal: h.offset for h in P.halfspaces}

    if is_fano(fan):
        rel = relation_bound(fan.rays, [offsets[u] for u in fan.rays], cap)
        if rel is None:
            return None
        return UpperBoundCertificate(
            kind="fano", value=rel.value, relation=rel, fine_fan=fan
        )

    # a ray can only disappear into a coarser fan if it is the generator sum
    # of one of its own neighbouring cones, so anything else is undeletable
    deletable = []
    for idx, u in enumerate(fan.rays):
        link: set = set()
        for cone in fan.maximal_cones:
            if idx in cone:
                link.update(fan.rays[i] for i in cone if i != idx)
        for combo in itertools.combinations(sorted(link), P.dim):
            if tuple(sum(col) for col in zip(*combo)) == u:
                deletable.append(u)
                break

    candidates = []
    for k in range(1, 4):
        for deleted in itertools.combinations(deletable, k):
            keep = [u for u in fan.rays if u not in set(deleted)]
            if len(keep) < P.dim + 1:
                continue
            try:
                coarse_poly = HPolytope(
                    P.dim, [HalfSpace(u, offsets[u]) for u in keep]
                )
            except UnboundedPolytopeError:
                continue
            if coarse_poly.is_empty() or not coarse_poly.is_full_dimensional():
                continue
            coarse_pruned = coarse_poly.pruned()
            if set(h.normal for h in coarse_pruned.halfspaces) != set(keep):
                continue  # induced support function is not strictly convex
            try:
                coarse_fan = normal_fan(coarse_pruned)
            except (NotSimpleError, ValueError):
                continue
            if not fan_is_smooth(coarse_fan):
                continue
            try:
                if not is_fano(coarse_fan):
                    continue
            except ValueError:  # incomplete fan
                continue
            steps = blowup_chain(fan, coarse_fan)
            if steps is None:
                continue
            rel = relation_bound(
                coarse_fan.rays, [offsets[u] for u in coarse_fan.rays], cap
            )
            if rel is None:
                continue
            candidates.append(
                (
                    (rel.value, k, tuple(sorted(deleted))),
                    UpperBoundCertificate(
                        kind="blowup",
                        value=rel.value,
                        relation=rel,
                        fine_fan=fan,
                        coarse_fan=coarse_fan,
                        steps=tuple(steps),
                    ),
                )
            )
    if not candidates:
        return None
    candidates.sort(key=lambda pair: pair[0])
    return candidates[0][1]


def replay_upper_bound(cert: UpperBoundCertificate) -> None:
    replay_relation(cert.relation)
    if cert.kind == "blowup":
        if not replay_blowup_chain(cert.coarse_fan, cert.steps, cert.fine_fan):
            raise AssertionError("blowup chain does not replay to the fine fan")
        if cert.relation.rays != cert.coarse_fan.rays:
            raise AssertionError("relation is not over the coarse rays")


# -- facet containment (hexagon condition A) ------------------------------------


@dataclass(frozen=True)
class FacetWitness:
    """A whole cuboid facet inside the moment polytope.

    The facet's short edge has length 2 r1, which caps the width (the
    holomorphic-curve argument behind this is trusted; only its
    combinatorial hypothesis is certified here).
    """

    reshuffled: LengthVector
    facet: HalfSpace
    short_edge: Fraction
    vertex_memberships: tuple[tuple[str, tuple[bool, bool, bool]], ...]

    def to_json(self) -> dict:
        return {
            "reshuffled": [_fmt(e) for e in self.reshuffled],
            "facet": self.facet.to_json(),
            "short_edge": _fmt(self.short_edge),
            "vertex_memberships": [
                {"vertex": label, "in_halfspaces": list(m)}
                for label, m in self.vertex_memberships
            ],
        }


def facet_containment_upper_bound(r_sorted: LengthVector) -> Optional[FacetWitness]:
    """Condition A: {1,2,6} and {1,2,3,4} short puts a cuboid facet in the image.

    Reshuffles to pair the extremes, then verifies directly that the four
    top-face corners satisfy all three triangle halfspaces.  Returns None
    when the hypothesis fails.
    """
    r = r_sorted
    if r.n != 6 or not r.is_sorted():
        raise ValueError("facet containment needs a sorted 6-vector")
    assert_generic(r)
    if is_long(r, {1, 6}):
        raise ValueError("facet containment applies to {1,6} short only")
    if not (is_short(r, {1, 2, 6}) and is_short(r, {1, 2, 3, 4})):
        return None
    sigma = apply_permutation(r, reshuffle_recipe(6, "A"))
    corners = cuboid_vertices(sigma)
    memberships = []
    for label in ("v5", "v6", "v7", "v8"):
        point = corners[label]
        total = sum(point, Fraction(0))
        member = tuple(total - 2 * point[j] >= 0 for j in range(3))
        if not all(member):
            raise AssertionError(
                f"hypothesis held but corner {label} is cut for {r!r}"
            )
        memberships.append((label, member))
    top_offset = sigma.entry(6) + sigma.entry(5)
    facet = HalfSpace((0, 0, -1), -top_offset)
    return FacetWitness(
        reshuffled=sigma,
        facet=facet,
        short_edge=2 * r.entry(1),
        vertex_memberships=tuple(memberships),
    )


def replay_facet_witness(witness: FacetWitness) -> None:
    corners = cuboid_vertices(witness.reshuffled)
    image = triple_pairs_polytope_6(witness.reshuffled)
    for label in ("v5", "v6", "v7", "v8"):
        point = corners[label]
        if not image.polytope.contains(point):
            raise AssertionError(f"facet corner {label} is not in the polytope")
        if not witness.facet.is_tight(point):
            raise AssertionError(f"facet corner {label} is not on the facet")
    edges = sorted(
        2 * min(witness.reshuffled.entry(a), witness.reshuffled.entry(b))
        for a, b in ((1, 2), (3, 4))
    )
    if witness.short_edge != edges[0]:
        raise AssertionError("stored short edge is not the facet's short edge")


# -- projective chamber ----------------------------------------------------------


@dataclass(frozen=True)
class ProjectiveCertificate:
    slack: Fraction  # the exact width: total length minus twice the longest edge
    simplex_map_verified: bool

    def to_json(self) -> dict:
        return {
            "slack": _fmt(self.slack),
            "simplex_map_verified": self.simplex_map_verified,
        }


def standard_simplex(dim: int, size: Fraction) -> HPolytope:
    """Closure of {x > 0, sum x < size}."""
    halfspaces = [
        HalfSpace(tuple(1 if k == j else 0 for k in range(dim)), Fraction(0))
        for j in range(dim)
    ]
    halfspaces.append(HalfSpace(tuple(-1 for _ in range(dim)), -Fraction(size)))
    return HPolytope(dim, halfspaces)


def projective_simplex_map(r_sorted: LengthVector) -> tuple[tuple[tuple[int, ...], ...], tuple[Fraction, ...]]:
    """Unimodular affine map carrying the standard simplex onto the image.

    Row i (for i < n-4) sends x to -(x_1 + ... + x_{i+1}); the last row is
    the identity on the final coordinate.  The shift lists the partial sums
    r_1 + ... + r_{i+2} and finally r_n - r_{n-1}.
    """
    n = r_sorted.n
    m = n - 3
    rows = []
    for i in range(m - 1):
        rows.append(tuple(-1 if k <= i else 0 for k in range(m)))
    rows.append(tuple(1 if k == m - 1 else 0 for k in range(m)))
    shift = []
    partial = Fraction(0)
    for i in range(m - 1):
        partial = sum((r_sorted.entry(j) for j in range(1, i + 3)), Fraction(0))
        shift.append(partial)
    shift.append(r_sorted.entry(n) - r_sorted.entry(n - 1))
    return tuple(rows), tuple(shift)


def verify_projective_normal_form(r_sorted: LengthVector) -> bool:
    """Whether the mapped simplex equals the caterpillar moment polytope."""
    gamma = perimeter_slack(r_sorted)
    matrix, shift = projective_simplex_map(r_sorted)
    simplex = standard_simplex(r_sorted.n - 3, gamma)
    mapped = apply_unimodular(simplex, matrix, shift)
    image = caterpillar_polytope(r_sorted)
    return mapped.vertices == image.polytope.vertices


# -- reports ---------------------------------------------------------------------


@dataclass
class WidthReport:
    """Bounds (in 2*pi units) plus the certificates that justify them."""

    r: LengthVector
    sorted_r: LengthVector
    sort_permutation: tuple[int, ...]
    lower: Fraction
    conjectured: Fraction
    provenance: str
    upper: Optional[Fraction] = None
    exact: Optional[Fraction] = None
    certificates: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()
    units: str = "2pi"

    def __post_init__(self):
        if self.upper is not None and self.lower > self.upper:
            raise AssertionError("lower bound exceeds upper bound")
        if self.exact is not None:
            if not (self.lower == self.upper == self.exact == self.conjectured):
                raise AssertionError("exact value must match all bounds")

    def to_json(self) -> dict:
        certs = {}
        for name, cert in self.certificates.items():
            certs[name] = cert.to_json() if hasattr(cert, "to_json") else cert
        return {
            "schema": "polywidth/1",
            "kind": "width_report",
            "n": self.r.n,
            "input": [_fmt(e) for e in self.r],
            "sorted": [_fmt(e) for e in self.sorted_r],
            "sort_permutation": list(self.sort_permutation),
            "units": self.units,
            "lower": _fmt(self.lower),
            "upper": None if self.upper is None else _fmt(self.upper),
            "exact": None if self.exact is None else _fmt(self.exact),
            "conjectured": _fmt(self.conjectured),
            "provenance": self.provenance,
            "notes": list(self.notes),
            "certificates": certs,
        }


def projective_width(r_sorted: LengthVector) -> WidthReport:
    """Exact width in the projective chamber: the perimeter slack itself."""
    if singleton_maximal_short(r_sorted) is None:
        raise ValueError("projective width needs a maximal short singleton")
    gamma = perimeter_slack(r_sorted)
    verified = verify_projective_normal_form(r_sorted)
    if not verified:
        raise AssertionError(f"simplex normal form failed for {r_sorted!r}")
    conjectured = width_formula(r_sorted)
    if conjectured != gamma:
        raise AssertionError("projective width must equal the width formula")
    return WidthReport(
        r=r_sorted,
        sorted_r=r_sorted,
        sort_permutation=tuple(range(1, r_sorted.n + 1)),
        lower=gamma,
        upper=gamma,
        exact=gamma,
        conjectured=conjectured,
        provenance="projective chamber",
        certificates={"projective": ProjectiveCertificate(gamma, verified)},
    )


def _two_step_values(
    r_sorted: LengthVector, system, case: str, cap: int
) -> tuple[UpperBoundCertificate, Fraction, tuple[str, ...]]:
    """Upper bound for a reshuffle case, through the perturbation protocol.

    When the reshuffled vector is already toric the bound is computed
    directly.  Otherwise the bound is evaluated at two distinct valid
    perturbation steps and accepted only if the two values agree exactly.
    """
    perturbed, t = perturb_for_toricity(r_sorted, system, case)
    recipe = reshuffle_recipe(r_sorted.n, case)

    def bound_at(vec: LengthVector) -> UpperBoundCertificate:
        shuffled = apply_permutation(vec, recipe)
        cert = upper_bound_via_fano_or_blowup(moment_image(shuffled, system), cap)
        if cert is None:
            raise AssertionError(f"no upper certificate for case {case} at {vec!r}")
        return cert

    if t == 0:
        return bound_at(r_sorted), t, ()

    cert1 = bound_at(perturbed)
    second = None
    t2 = t / 2
    for _ in range(21):
        vec2 = validate_perturbation_step(r_sorted, system, case, t2)
        if vec2 is not None:
            second = bound_at(vec2)
            break
        t2 /= 2
    if second is None:
        raise CapabilityError(f"no second perturbation step worked for {r_sorted!r}")
    if cert1.value != second.value:
        raise AssertionError(
            f"perturbed upper bounds disagree: {cert1.value} vs {second.value}"
        )
    notes = (
        f"perturbed with steps t={_fmt(t)} and t={_fmt(t2)}; equal bounds",
    )
    return cert1, t, notes


def gromov_width_report(
    r: LengthVector,
    cap: Optional[int] = None,
    experimental_shears: bool = False,
) -> WidthReport:
    """Bounds and certificates for one length vector.

    Orchestration: sort; projective chamber gets the exact closed form;
    quadrilaterals get the exact interval; pentagons get the cross LP
    lower bound and a chamber-driven Fano/blowup upper bound (always
    exact); hexagons get the cross LP lower bound and, when one of the
    three conditions holds, a matching upper bound; larger n get the
    lower bound only.
    """
    assert_generic(r)
    assert_nonempty(r)
    rs, perm = sort_with_permutation(r)
    if cap is None:
        cap = r.n + DEFAULT_CAP_SLACK
    conjectured = width_formula(r)

    if singleton_maximal_short(rs) is not None:
        report = projective_width(rs)
        report.r = r
        report.sort_permutation = perm
        return _with_extras(report, experimental_shears)

    two_r1 = 2 * rs.entry(1)
    if rs.n == 4:
        image = caterpillar_polytope(rs)
        lo, hi = image.polytope.bounding_box()
        length = hi[0] - lo[0]
        if length != conjectured:
            raise AssertionError("interval length must equal the width formula")
        cross = max_axis_cross(image.polytope)
        if cross.size != length:
            raise AssertionError("cross fit must fill the whole interval")
        return _with_extras(
            WidthReport(
                r=r,
                sorted_r=rs,
                sort_permutation=perm,
                lower=length,
                upper=length,
                exact=length,
                conjectured=conjectured,
                provenance="quadrilateral interval",
                certificates={"cross": cross},
            ),
            experimental_shears,
        )

    if rs.n == 5:
        image = caterpillar_polytope(rs)
        cross = max_axis_cross(image.polytope)
        witness = pentagon_cross_witness(rs)
        if cross.size < two_r1:
            raise AssertionError("cross LP fell below the guaranteed bound")
        chamber = classify_5gon_chamber(rs)
        if chamber == "C1":
            raise AssertionError("projective pentagon escaped the projective branch")
        system = caterpillar_system(5)
        cert, t, notes = _two_step_values(rs, system, chamber, cap)
        if cert.value != two_r1 or cross.size != two_r1:
            raise AssertionError(
                f"pentagon bounds must both equal 2*r1: lower {cross.size}, "
                f"upper {cert.value}"
            )
        if cert.relation.at_cap:
            notes = notes + ("relation search stopped at the degree cap",)
        return _with_extras(
            WidthReport(
                r=r,
                sorted_r=rs,
                sort_permutation=perm,
                lower=cross.size,
                upper=cert.value,
                exact=cert.value,
                conjectured=conjectured,
                provenance=f"pentagon chamber {chamber} ({cert.kind})",
                certificates={"cross": cross, "witness": witness, "upper": cert},
                notes=notes,
            ),
            experimental_shears,
        )

    if rs.n == 6:
        image = triple_pairs_polytope_6(rs)
        cross = max_axis_cross(image.polytope)
        witness = hexagon_cross_witness(rs)
        if cross.size < two_r1:
            raise AssertionError("cross LP fell below the guaranteed bound")
        certificates: dict = {"cross": cross, "witness": witness}
        notes: tuple[str, ...] = ()
        results = []
        facet = facet_containment_upper_bound(rs)
        if facet is not None:
            results.append(("A", two_r1, facet, ()))
        system = triple_pairs_system()
        if is_long(rs, {1, 2, 6}) and is_long(rs, {4, 6}):
            cert, t, extra = _two_step_values(rs, system, "B", cap)
            results.append(("B", cert.value, cert, extra))
        if is_short(rs, {5, 6}) and is_short(rs, {2, 3, 6}):
            cert, t, extra = _two_step_values(rs, system, "C", cap)
            results.append(("C", cert.value, cert, extra))
        if not results:
            return _with_extras(
                WidthReport(
                    r=r,
                    sorted_r=rs,
                    sort_permutation=perm,
                    lower=cross.size,
                    conjectured=conjectured,
                    provenance="hexagon: lower bound only",
                    certificates=certificates,
                ),
                experimental_shears,
            )
        values = {value for _, value, _, _ in results}
        if len(values) != 1:
            raise AssertionError(f"hexagon conditions disagree: {values}")
        condition, value, cert, extra = results[0]
        if value != two_r1 or cross.size != two_r1:
            raise AssertionError("hexagon bounds must both equal 2*r1")
        if hasattr(cert, "relation") and cert.relation.at_cap:
            extra = extra + ("relation search stopped at the degree cap",)
        certificates["upper"] = cert
        kind = "facet containment" if condition == "A" else cert.kind
        return _with_extras(
            WidthReport(
                r=r,
                sorted_r=rs,
                sort_permutation=perm,
                lower=cross.size,
                upper=value,
                exact=value,
                conjectured=conjectured,
                provenance=f"hexagon condition {condition} ({kind})",
                certificates=certificates,
                notes=extra,
            ),
            experimental_shears,
        )

    image = caterpillar_polytope(rs)
    cross = max_axis_cross(image.polytope)
    return _with_extras(
        WidthReport(
            r=r,
            sorted_r=rs,
            sort_permutation=perm,
            lower=cross.size,
            conjectured=conjectured,
            provenance="lower bound only",
            certificates={"cross": cross},
        ),
        experimental_shears,
    )


def _with_extras(report: WidthReport, experimental_shears: bool) -> WidthReport:
    if not experimental_shears:
        return report
    best = _sheared_cross_size(report)
    report.certificates["experimental_shears"] = {
        "best_cross_size": _fmt(best),
        "note": "exploratory only; never folded into certified bounds",
    }
    return report


def _sheared_cross_size(report: WidthReport) -> Fraction:
    """Best cross size over single elementary shear pre-transforms."""
    rs = report.sorted_r
    P = moment_image(rs, default_system(rs.n)).polytope
    d = P.dim
    best = max_axis_cross(P).size if P.is_full_dimensional() else Fraction(0)
    if d < 2:
        return best
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            for sign in (1, -1):
                matrix = [
                    [1 if a == b else (sign if (a, b) == (i, j) else 0) for b in range(d)]
                    for a in range(d)
                ]
                sheared = apply_unimodular(P, matrix, [0] * d)
                fit = max_axis_cross(sheared)
                if fit.size > best:
                    best = fit.size
    return best
