"""Seeded verification harness: every module invariant, registered once.

Each check draws deterministic samples, validates one documented
invariant, and reports pass/fail counts with replayable failing inputs.
The registry is the single source the CLI `verify` command and the test
suite's completeness meta-test both read.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .bending import (
    caterpillar_polytope,
    caterpillar_system,
    perturbation_family,
    rectangle_chart_5,
    reshuffle_recipe,
    triple_pairs_polytope_6,
    triple_pairs_system,
    is_bending_toric,
    vertex_chart_6,
)
from .errors import EmptyModuliError, NonGenericError, NotSimpleError
from .harness import sample_integer_vector, sample_many, sample_raw
from .lengths import (
    LengthVector,
    apply_permutation,
    classify_5gon_chamber,
    is_generic,
    is_long,
    is_short,
    perimeter_slack,
    singleton_maximal_short,
    sort_with_permutation,
    width_formula,
)
from .linalg import affine_rank, mat_det, primitive_vector, vec_sub
from .polytopes import Fan, HalfSpace, HPolytope, apply_unimodular, blowup_chain
from .prng import uniform_int
from .rationals import format_rational
from .volume import (
    combinatorial_volume,
    dimension_ratio_constant,
    projective_volume,
    volume_ratio_check,
)
from .width import (
    brute_force_cross_size,
    gromov_width_report,
    hexagon_cross_witness,
    max_axis_cross,
    pentagon_cross_witness,
    replay_crossfit,
    replay_facet_witness,
    replay_relation,
    replay_upper_bound,
)


@dataclass
class CheckResult:
    name: str
    passed: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    skipped: bool = False

    def record(self, ok: bool, witness: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(witness)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "failed": self.failed,
            "skipped": self.skipped,
            "failures": list(self.failures),
        }


@dataclass
class VerifyReport:
    results: list[CheckResult]
    wall_seconds: float

    @property
    def ok(self) -> bool:
        return all(r.failed == 0 for r in self.results)

    def to_json(self) -> dict:
        # wall-clock stays out of the JSON so output is byte-deterministic
        return {
            "schema": "polywidth/1",
            "kind": "verify_report",
            "ok": self.ok,
            "checks": [r.to_json() for r in self.results],
        }


CheckFn = Callable[[int, int, Optional[int]], CheckResult]
REGISTRY: dict[str, tuple[str, CheckFn]] = {}


def register(name: str, group: str):
    def wrap(fn: CheckFn) -> CheckFn:
        REGISTRY[name] = (group, fn)
        return fn

    return wrap


def _vec_str(r: LengthVector) -> str:
    return " ".join(format_rational(e) for e in r)


def _arities(n_filter: Optional[int], default: tuple[int, ...]) -> tuple[int, ...]:
    if n_filter is None:
        return default
    return tuple(a for a in default if a == n_filter)


# -- length-vector combinatorics ------------------------------------------------


@register("short-long-duality", "lengths")
def check_short_long(samples: int, seed: int, n_filter: Optional[int], max_denominator: int = 8) -> CheckResult:
    res = CheckResult("short-long-duality")
    arities = _arities(n_filter, (4, 5, 6, 7))
    if not arities:
        res.skipped = True
        return res
    per = max(1, samples // (4 * len(arities)))
    for n in arities:
        for r in sample_many(n, seed + n, per, max_denominator=max_denominator):
            full = frozenset(range(1, n + 1))
            ok = True
            for mask in range(1, 1 << n):
                subset = frozenset(i + 1 for i in range(n) if mask >> i & 1)
                a, b = is_short(r, subset), is_long(r, subset)
                if a == b or is_short(r, full - subset) == a:
                    ok = False
                    break
            res.record(ok, _vec_str(r))
    return res


@register("width-formula-permutation-invariance", "lengths")
def check_width_perm(samples: int, seed: int, n_filter: Optional[int], max_denominator: int = 8) -> CheckResult:
    res = CheckResult("width-formula-permutation-invariance")
    arities = _arities(n_filter, (4, 5, 6))
    if not arities:
        res.skipped = True
        return res
    per = max(1, samples // (3 * len(arities)))
    for n in arities:
        for idx, r in enumerate(sample_many(n, seed + 17 * n, per, max_denominator=max_denominator)):
            base = width_formula(r)
            ok = True
            for k in range(10):
                perm = list(range(1, n + 1))
                # deterministic shuffle from the stream
                for i in range(n - 1, 0, -1):
                    j = uniform_int(seed, 900_000 + idx * 100 + k * 10 + i, 0, i)
                    perm[i], perm[j] = perm[j], perm[i]
                if width_formula(apply_permutation(r, perm)) != base:
                    ok = False
                    break
            res.record(ok, _vec_str(r))
    return res


@register("width-formula-sorted-min", "lengths")
def check_width_sorted(samples: int, seed: int, n_filter: Optional[int], max_denominator: int = 8) -> CheckResult:
    res = CheckResult("width-formula-sorted-min")
    arities = _arities(n_filter, (4, 5, 6, 7))
    if not arities:
        res.skipped = True
        return res
    per = max(1, samples // len(arities))
    for n in arities:
        for r in sample_many(n, seed + 23 * n, per, max_denominator=max_denominator):
            rs, _ = sort_with_permutation(r)
            expected = min(2 * rs.entry(1), perimeter_slack(rs))
            res.record(width_formula(r) == expected, _vec_str(r))
    return res


@register("singleton-maximal-short-iff", "lengths")
def check_singleton(samples: int, seed: int, n_filter: Optional[int], max_denominator: int = 8) -> CheckResult:
    res = CheckResult("singleton-maximal-short-iff")
    arities = _arities(n_filter, (4, 5, 6, 7))
    if not arities:
        res.skipped = True
        return res
    per = max(1, samples // len(arities))
    for n in arities:
        for r in sample_many(n, seed + 31 * n, per, max_denominator=max_denominator):
            rs, _ = sort_with_permutation(r)
            got = singleton_maximal_short(rs)
            expected = n if is_long(rs, {1, n}) else None
            res.record(got == expected, _vec_str(r))
    return res


@register("pentagon-chamber-total", "lengths")
def check_chamber_total(samples: int, seed: int, n_filter: Optional[int], max_denominator: int = 8) -> CheckResult:
    res = CheckResult("pentagon-chamber-total")
    if n_filter is not None and n_filter != 5:
        res.skipped = True
        return res
    for r in sample_many(5, seed + 41, samples, max_denominator=max_denominator):
        rs, _ = sort_with_permutation(r)
        try:
            classify_5gon_chamber(rs)
            res.record(True, _vec_str(r))
        except AssertionError:
            res.record(False, _vec_str(r))
    return res


# -- polytope kernel -------------------------------------------------------------


def _hyperplane(points) -> Optional[tuple[tuple[int, ...], Fraction]]:
    """Primitive normal and offset of the hyperplane through d points."""
    base = points[0]
    diffs = [vec_sub(p, base) for p in points[1:]]
    d = len(base)
    normal = []
    for k in range(d):
        minor = [[row[j] for j in range(d) if j != k] for row in diffs]
        cof = mat_det(minor) if minor else Fraction(1)
        normal.append(cof if k % 2 == 0 else -cof)
    if all(c == 0 for c in normal):
        return None
    prim = primitive_vector(normal)
    offset = sum((Fraction(u) * x for u, x in zip(prim, base)), Fraction(0))
    return prim, offset


def hull_halfspaces(points: list, dim: int) -> Optional[set]:
    """Irredundant facet halfspaces of conv(points); None if degenerate.

    Brute force over d-subsets; independent of the H-to-V machinery, so
    the two can audit each other.
    """
    if affine_rank(points) < dim:
        return None
    facets = set()
    for combo in itertools.combinations(points, dim):
        plane = _hyperplane(list(combo))
        if plane is None:
            continue
        normal, offset = plane
        slacks = [
            sum((Fraction(u) * x for u, x in zip(normal, p)), Fraction(0)) - offset
            for p in points
        ]
        if all(s >= 0 for s in slacks):
            facets.add((normal, offset))
        elif all(s <= 0 for s in slacks):
            facets.add((tuple(-u for u in normal), -offset))
    if not facets:
        return None
    return facets


def _random_hull_points(dim: int, seed: int, attempt: int) -> list[tuple[Fraction, ...]]:
    count = dim + 2 + uniform_int(seed, 70_000 + attempt * 50, 0, 4)
    pts = []
    for i in range(count):
        pts.append(
            tuple(
                Fraction(uniform_int(seed, 71_000 + attempt * 100 + i * dim + k, -6, 6))
                for k in range(dim)
            )
        )
    return sorted(set(pts))


@register("vh-roundtrip", "polytopes")
def check_vh_roundtrip(samples: int, seed: int, n_filter: Optional[int], max_denominator: int = 8) -> CheckResult:
    res = CheckResult("vh-roundtrip")
    if n_filter is not None and n_filter not in (5, 6):
        res.skipped = True
        return res
    count = min(samples, 100)
    done = attempt = 0
    while done < count and attempt < 50 * count:
        dim = 2 if (done % 2 == 0) else 3
        pts = _random_hull_points(dim, seed, attempt)
        attempt += 1
        facets = hull_halfspaces(pts, dim)
        if facets is None:
            continue
        poly = HPolytope(dim, [HalfSpace(nrm, off) for nrm, off in facets])
        if not poly.is_full_dimensional():
            continue
        done += 1
        rebuilt = hull_halfspaces(list(poly.vertices), dim)
        pruned = {(h.normal, h.offset) for h in poly.pruned().halfspaces}
        inside = all(poly.contains(p) for p in pts)
        res.record(rebuilt == pruned and inside, f"dim={dim} points={pts}")
    return res


def _random_unimodular(dim: int, seed: int, tag: int):
    matrix = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]

    def mul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(dim)) for j in range(dim)]
            for i in range(dim)
        ]

    for step in range(4):
        i = uniform_int(seed, 80_000 + tag * 20 + step * 4, 0, dim - 1)
        j = uniform_int(seed, 80_000 + tag * 20 + step * 4 + 1, 0, dim - 1)
        if i == j:
            continue
        shear = [[1 if a == b else 0 for b in range(dim)] for a in range(dim)]
        shear[i][j] = uniform_int(seed, 80_000 + tag * 20 + step * 4 + 2, -2, 2)
        matrix = mul(matrix, shear)
    return matrix


@register("volume-unimodular-invariance", "polytopes")
def check_volume_unimodular(samples: int, seed: int, n_filter: Optional[int], max_denominator: int = 8) -> CheckResult:
    res = CheckResult("volume-unimodular-invariance")
    arities = _arities(n_filter, (5, 6))
    if not arities:
        res.skipped = True
        return res
    per = max(1, samples // (5 * len(arities)))
    for n in arities:
        for idx, r in enumerate(sample_many(n, seed + 53 * n, per, max_denominator=max_denominator)):
            rs, _ = sort_with_permutation(r)
            image = caterpillar_polytope(rs)
            if not image.polytope.is_full_dimensional():
                continue
            matrix = _random_unimodular(image.polytope.dim, seed, idx + n * 1000)
            if abs(mat_det(matrix)) != 1:
                continue
            shift = [Fraction(uniform_int(seed, 82_000 + idx, -5, 5)) for _ in range(image.polytope.dim)]
            mapped = apply_unimodular(image.polytope, matrix, shift)
            res.record(mapped.volume() == image.polytope.volume(), _vec_str(r))
    return res


@register("fano-offset-independence", "polytopes")
def check_fano_offsets(samples: int, seed: int, n_filter: Optional[int], max_denominator: int = 8) -> CheckResult:
    from .polytopes import fans_equal, is_fano, normal_fan

    res = CheckResult("fano-offset-independence")
    if n_filter is not None and n_filter != 5:
        res.skipped = True
        return res
    count = max(1, samples // 10)
    for idx, r in enumerate(sample_many(5, seed + 61, count, max_denominator=max_denominator)):
        rs, _ = sort_with_permutation(r)
        chamber = classify_5gon_chamber(rs)
        recipe_case = chamber if chamber != "C1" else "C2"
        try:
            shuffled = apply_permutation(rs, reshuffle_recipe(5, recipe_case))
        except ValueError:
            continue
        report = is_bending_toric(shuffled, caterpillar_system(5))
        if not report.toric:
            continue
        P = report.image.polytope
        fan = normal_fan(P)
        expanded = HPolytope(
            P.dim,
            [
                HalfSpace(
                    h.normal,
                    h.offset - Fraction(1, 1000 + uniform_int(seed, 83_000 + idx * 20 + i, 0, 500)),
                )
                for i, h in enumerate(P.halfspaces)
            ],
        )
        try:
            fan2 = normal_fan(expanded.pruned())
        except (NotSimpleError, ValueError):
            continue
        if not fans_equal(fan, fan2):
            continue
        res.record(is_fano(fan) == is_fano(fan2), _vec_str(r))
    return res


@register("blowup-ray-count", "polytopes")
def check_blowup_counts(samples: int, seed: int, n_filter: Optional[int], max_denominator: int = 8) -> CheckResult:
    from .polytopes import normal_fan

    res = CheckResult("blowup-ray-count")
    if n_filter is not None and n_filter != 5:
        res.skipped = True
        return res
    count = max(1, samples // 10)
    shuffle_rect = Fan(
        2,
        ((1, 0), (0, 1), (-1, 0), (0, -1)),
        (
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({2, 3}),
            frozenset({3, 0}),
        ),
    )
    seen = 0
    for r in sample_many(5, seed + 67, count * 4, max_denominator=max_denominator):
        if seen >= count:
            break
        rs, _ = sort_with_permutation(r)
        if classify_5gon_chamber(rs) != "C6":
            continue
        report = is_bending_toric(rs, caterpillar_system(5))
        if not report.toric:
            continue
        seen += 1
        fan = normal_fan(report.image.polytope)
        steps = blowup_chain(fan, shuffle_rect)
        ok = (
            steps is not None
            and set(shuffle_rect.rays) <= set(fan.rays)
            and len(fan.rays) - len(shuffle_rect.rays) == len(steps)
        )
        res.record(ok, _vec_str(r))
    if seen == 0:
        res.skipped = True
    return res


@register("axis-segment-concavity", "polytopes")
def check_concavity(samples: int, seed: int, n_filter: Optional[int], max_denominator: int = 8) -> CheckResult:
    res = CheckResult("axis-segment-concavity")
    arities = _arities(n_filter, (5, 6))
    if not arities:
        res.skipped = True
        return res
    per = max(1, samples // (2 * len(arities)))
    for n in arities:
        for idx, r in enumerate(sample_many(n, seed + 71 * n, per, max_denominator=max_denominator)):
            rs, _ = sort_with_permutation(r)
            image = caterpillar_polytope(rs)
            P = image.polytope
            if not P.is_full_dimensional():
                continue
            verts = P.vertices
            a = verts[uniform_int(seed, 84_000 + idx * 9, 0, len(verts) - 1)]
            b = verts[uniform_int(seed, 84_000 + idx * 9 + 1, 0, len(verts) - 1)]
            mid = tuple((x + y) / 2 for x, y in zip(a, b))
            ok = True
            for axis in range(P.dim):
                segs = [P.axis_segment(p, axis) for p in (a, b, mid)]
                if any(s is None for s in segs):
                    ok = False
                    break
                la, lb, lm = (s[1] - s[0] for s in segs)
                if 2 * lm < la + lb:
                    ok = False
                    break
            res.record(ok, _vec_str(r))
    return res


# -- bending systems --------------------------------------------------------------


@register("caterpillar-nonempty-iff-closed", "bending")
def check_caterpillar_nonempty(samples: int, seed: int, n_filter: Optional[int], max_denominator: int = 8) -> CheckResult:
    res = CheckResult("caterpillar-nonempty-iff-closed")
    arities = _arities(n_filter, (4, 5, 6))
    if not arities:
        res.skipped = True
        return res
    per = max(1, samples // len(arities))
    for n in arities:
        produced = 0
        attempt = 0
        while produced < per and attempt < 50 * per:
            r = sample_raw(n, seed + 3 * n, attempt, max_denominator=max_denominator)
            attempt += 1
            if not is_generic(r):
                continue
            produced += 1
            empty_expected = 2 * max(r.entries) - r.total() > 0
            image = caterpillar_polytope(r)
            res.record(
                image.polytope.is_empty() == empty_expected, _vec_str(r)
            )
    return res


@register("chart5-consistency", "bending")
def check_chart5(samples: int, seed: int, n_filter: Optional[int], max_denominator: int = 8) -> CheckResult:
    res = CheckResult("chart5-consistency")
    if n_filter is not None and n_filter != 5:
        res.skipped = True
        return res

    def partially_ordered(r: LengthVector) -> bool:
        return r.entry(1) <= r.entry(2) and r.entry(4) <= r.entry(5)

    for r in sample_many(5, seed + 5, samples, predicate=partially_ordered, max_denominator=max_denominator):
        try:
            rectangle_chart_5(r)
            res.record(True, _vec_str(r))
        except AssertionError:
            res.record(False, _vec_str(r))
    return res


@register("chart6-consistency", "bending")
def check_chart6(samples: int, seed: int, n_filter: Optional[int], max_denominator: int = 8) -> CheckResult:
    res = CheckResult("chart6-consistency")
    if n_filter is not None and n_filter != 6:
        res.skipped = True
        return res

    def partially_ordered(r: LengthVector) -> bool:
        return (
            r.entry(1) <= r.entry(2)
            and r.entry(3) <= r.entry(4)
            and r.entry(5) <= r.entry(6)
        )

    for r in sample_many(6, seed + 7, samples, predicate=partially_ordered, max_denominator=max_denominator):
        try:
            vertex_chart_6(r)
            res.record(True, _vec_str(r))
        except AssertionError:
            res.record(False, _vec_str(r))
    return res


@register("pentagon-toricity-ties", "bending")
def check_toricity_ties(samples: int, seed: int, n_filter: Optional[int], max_denominator: int = 8) -> CheckResult:
    res = CheckResult("pentagon-toricity-ties")
    if n_filter is not None and n_filter != 5:
        res.skipped = True
        return res

    def partially_ordered(r: LengthVector) -> bool:
        return r.entry(1) <= r.entry(2) and r.entry(4) <= r.entry(5)

    for r in sample_many(5, seed + 11, samples, predicate=partially_ordered, max_denominator=max_denominator):
        report = is_bending_toric(r, caterpillar_system(5))
        ties_absent = r.entry(1) != r.entry(2) and r.entry(4) != r.entry(5)
        # a vanishing diagonal must come with a tie (the converse has a
        # documented corner case, so only this direction is asserted)
        res.record(report.toric or not ties_absent, _vec_str(r))
    return res


@register("perturbation-offsets-linear", "bending")
def check_perturbation_linear(samples: int, seed: int, n_filter: Optional[int], max_denominator: int = 8) -> CheckResult:
    res = CheckResult("perturbation-offsets-linear")
    arities = _arities(n_filter, (5, 6))
    if not arities:
        res.skipped = True
        return res
    per = max(1, samples // (5 * len(arities)))
    for n in arities:
        for r in sample_many(n, seed + 13 * n, per, max_denominator=max_denominator):
            rs, _ = sort_with_permutation(r)
            t1, t2 = Fraction(1, 64), Fraction(1, 128)
            try:
                images = [
                    caterpillar_polytope(perturbation_family(rs, t)).raw_halfspaces
                    if t != 0
                    else caterpillar_polytope(rs).raw_halfspaces
                    for t in (Fraction(0), t1, t2)
                ]
            except NonGenericError:
                continue
            base, one, two = images
            ok = len(base) == len(one) == len(two)
            if ok:
                for h0, h1, h2 in zip(base, one, two):
                    if not (h0.normal == h1.normal == h2.normal):
                        ok = False
                        break
                    slope1 = (h1.offset - h0.offset) / t1
                    slope2 = (h2.offset - h0.offset) / t2
                    if slope1 != slope2:
                        ok = False
                        break
            res.record(ok, _vec_str(r))
    return res


@register("reshuffle-coherence", "bending")
def check_reshuffle_coherence(samples: int, seed: int, n_filter: Optional[int], max_denominator: int = 8) -> CheckResult:
    res = CheckResult("reshuffle-coherence")
    if n_filter is not None and n_filter != 5:
        res.skipped = True
        return res
    count = max(1, samples // 5)
    for r in sample_many(5, seed + 19, count, max_denominator=max_denominator):
        rs, _ = sort_with_permutation(r)
        chamber = classify_5gon_chamber(rs)
        if chamber == "C1":
            res.record(True, _vec_str(r))
            continue
        recipe = reshuffle_recipe(5, chamber)
        via_helper = caterpillar_polytope(apply_permutation(rs, recipe)).polytope
        manual = caterpillar_polytope(
            LengthVector([rs.entry(i) for i in recipe])
        ).polytope
        res.record(via_helper == manual, _vec_str(r))
    return res


# -- width bounds ------------------------------------------------------------------


@register("crossfit-replay", "width")
def check_crossfit_replay(samples: int, seed: int, n_filter: Optional[int], max_denominator: int = 8) -> CheckResult:
    res = CheckResult("crossfit-replay")
    arities = _arities(n_filter, (5, 6))
    if not arities:
        res.skipped = True
        return res
    per = max(1, samples // (2 * len(arities)))
    for n in arities:
        for r in sample_many(n, seed + 29 * n, per, max_denominator=max_denominator):
            rs, _ = sort_with_permutation(r)
            image = (
                triple_pairs_polytope_6(rs) if n == 6 else caterpillar_polytope(rs)
            )
            if not image.polytope.is_full_dimensional():
                continue
            fit = max_axis_cross(image.polytope)
            try:
                replay_crossfit(image.polytope, fit)
                res.record(True, _vec_str(r))
            except AssertionError:
                res.record(False, _vec_str(r))
    return res


@register("lp-vs-grid-2d", "width")
def check_lp_vs_grid(samples: int, seed: int, n_filter: Optional[int], max_denominator: int = 8) -> CheckResult:
    res = CheckResult("lp-vs-grid-2d")
    if n_filter is not None and n_filter != 5:
        res.skipped = True
        return res
    count = max(1, samples // 20)
    done = 0
    for r in sample_many(5, seed + 37, count * 5, max_denominator=2):
        if done >= count:
            break
        rs, _ = sort_with_permutation(r)
        image = caterpillar_polytope(rs)
        P = image.polytope
        if not P.is_full_dimensional():
            continue
        lo, hi = P.bounding_box()
        if max(hi[0] - lo[0], hi[1] - lo[1]) > 10:
            continue
        done += 1
        fit = max_axis_cross(P)
        oracle = brute_force_cross_size(P, 4)
        res.record(oracle <= fit.size, _vec_str(r))
    if done == 0:
        res.skipped = True
    return res


@register("lower-bound-dominance-5", "width")
def check_dominance_5(samples: int, seed: int, n_filter: Optional[int], max_denominator: int = 8) -> CheckResult:
    res = CheckResult("lower-bound-dominance-5")
    if n_filter is not None and n_filter != 5:
        res.skipped = True
        return res

    def nonprojective(r: LengthVector) -> bool:
        rs, _ = sort_with_permutation(r)
        return is_short(rs, {1, 5})

    for r in sample_many(5, seed + 43, samples, predicate=nonprojective, max_denominator=max_denominator):
        rs, _ = sort_with_permutation(r)
        bound = 2 * rs.entry(1)
        try:
            witness = pentagon_cross_witness(rs)
            fit = max_axis_cross(caterpillar_polytope(rs).polytope)
            res.record(
                min(witness.arm_lengths) >= bound and fit.size >= bound, _vec_str(r)
            )
        except AssertionError:
            res.record(False, _vec_str(r))
    return res


@register("lower-bound-dominance-6", "width")
def check_dominance_6(samples: int, seed: int, n_filter: Optional[int], max_denominator: int = 8) -> CheckResult:
    res = CheckResult("lower-bound-dominance-6")
    if n_filter is not None and n_filter != 6:
        res.skipped = True
        return res

    def nonprojective(r: LengthVector) -> bool:
        rs, _ = sort_with_permutation(r)
        return is_short(rs, {1, 6})

    for r in sample_many(6, seed + 47, samples, predicate=nonprojective, max_denominator=max_denominator):
        rs, _ = sort_with_permutation(r)
        bound = 2 * rs.entry(1)
        try:
            witness = hexagon_cross_witness(rs)
            fit = max_axis_cross(triple_pairs_polytope_6(rs).polytope)
            res.record(
                min(witness.arm_lengths) >= bound and fit.size >= bound, _vec_str(r)
            )
        except AssertionError:
            res.record(False, _vec_str(r))
    return res


@register("upper-certificate-replay", "width")
def check_upper_replay(samples: int, seed: int, n_filter: Optional[int], max_denominator: int = 8) -> CheckResult:
    res = CheckResult("upper-certificate-replay")
    arities = _arities(n_filter, (5, 6))
    if not arities:
        res.skipped = True
        return res
    per = max(1, samples // (10 * len(arities)))
    for n in arities:
        for r in sample_many(n, seed + 59 * n, per, max_denominator=max_denominator):
            report = gromov_width_report(r)
            ok = True
            try:
                if "cross" in report.certificates:
                    pass  # replayed at construction
                cert = report.certificates.get("upper")
                if cert is not None:
                    if hasattr(cert, "relation"):
                        replay_relation(cert.relation)
                        replay_upper_bound(cert)
                    else:
                        replay_facet_witness(cert)
            except AssertionError:
                ok = False
            res.record(ok, _vec_str(r))
    return res


@register("bound-sandwich", "width")
def check_sandwich(samples: int, seed: int, n_filter: Optional[int], max_denominator: int = 8) -> CheckResult:
    res = CheckResult("bound-sandwich")
    arities = _arities(n_filter, (4, 5, 6))
    if not arities:
        res.skipped = True
        return res
    per = max(1, samples // (10 * len(arities)))
    for n in arities:
        for r in sample_many(n, seed + 73 * n, per, max_denominator=max_denominator):
            report = gromov_width_report(r)
            ok = report.lower <= report.conjectured
            if report.upper is not None:
                ok = ok and report.conjectured <= report.upper
            if report.exact is not None:
                ok = ok and (
                    report.lower == report.upper == report.exact == report.conjectured
                )
            res.record(ok, _vec_str(r))
    return res


@register("perturbation-two-step-stability", "width")
def check_two_step(samples: int, seed: int, n_filter: Optional[int], max_denominator: int = 8) -> CheckResult:
    res = CheckResult("perturbation-two-step-stability")
    arities = _arities(n_filter, (5, 6))
    if not arities:
        res.skipped = True
        return res
    per = max(1, samples // (20 * len(arities)))
    for n in arities:
        done = 0
        attempt = 0
        while done < per and attempt < 100 * per:
            r = sample_integer_vector(n, seed + n, attempt, hi=5)
            attempt += 1
            if not is_generic(r):
                continue
            if 2 * max(r.entries) - r.total() > 0:
                continue
            done += 1
            try:
                report = gromov_width_report(r)
                res.record(True, _vec_str(r))
            except (AssertionError, EmptyModuliError):
                res.record(False, _vec_str(r))
    return res


# -- volume -------------------------------------------------------------------------


@register("projective-volume-equality", "volume")
def check_projective_volume(samples: int, seed: int, n_filter: Optional[int], max_denominator: int = 8) -> CheckResult:
    res = CheckResult("projective-volume-equality")
    arities = _arities(n_filter, (4, 5, 6, 7))
    if not arities:
        res.skipped = True
        return res
    per = max(1, samples // (2 * len(arities)))

    for n in arities:
        def projective(r: LengthVector) -> bool:
            rs, _ = sort_with_permutation(r)
            return is_long(rs, {1, n})

        for r in sample_many(n, seed + 79 * n, per, predicate=projective, max_denominator=max_denominator):
            rs, _ = sort_with_permutation(r)
            try:
                projective_volume(rs)  # asserts equality internally
                res.record(True, _vec_str(r))
            except AssertionError:
                res.record(False, _vec_str(r))
    return res


@register("volume-permutation-invariance", "volume")
def check_volume_perm(samples: int, seed: int, n_filter: Optional[int], max_denominator: int = 8) -> CheckResult:
    res = CheckResult("volume-permutation-invariance")
    arities = _arities(n_filter, (4, 5, 6))
    if not arities:
        res.skipped = True
        return res
    per = max(1, samples // (10 * len(arities)))
    for n in arities:
        for idx, r in enumerate(sample_many(n, seed + 83 * n, per, max_denominator=max_denominator)):
            base = combinatorial_volume(r).coefficient
            ok = True
            for k in range(10):
                perm = list(range(1, n + 1))
                for i in range(n - 1, 0, -1):
                    j = uniform_int(seed, 950_000 + idx * 100 + k * 10 + i, 0, i)
                    perm[i], perm[j] = perm[j], perm[i]
                if combinatorial_volume(apply_permutation(r, perm)).coefficient != base:
                    ok = False
                    break
            res.record(ok, _vec_str(r))
    return res


@register("volume-ratio-constant", "volume")
def check_volume_ratio(samples: int, seed: int, n_filter: Optional[int], max_denominator: int = 8) -> CheckResult:
    res = CheckResult("volume-ratio-constant")
    arities = _arities(n_filter, (5, 6))
    if not arities:
        res.skipped = True
        return res
    per = max(1, samples // (2 * len(arities)))
    for n in arities:
        done = 0
        attempt = 0
        while done < per and attempt < 50 * per:
            r = sample_raw(n, seed + 89 * n, attempt, max_denominator=max_denominator)
            attempt += 1
            if not is_generic(r) or 2 * max(r.entries) - r.total() > 0:
                continue
            rs, _ = sort_with_permutation(r)
            system = triple_pairs_system() if n == 6 else caterpillar_system(n)
            image = (
                triple_pairs_polytope_6(rs) if n == 6 else caterpillar_polytope(rs)
            )
            report = is_bending_toric(rs, system)
            if not report.toric:
                continue
            done += 1
            try:
                ratio = volume_ratio_check(rs, image)
                res.record(ratio == dimension_ratio_constant(n - 3), _vec_str(r))
            except AssertionError:
                res.record(False, _vec_str(r))
    return res


# -- driver ---------------------------------------------------------------------------


def run_verify(
    samples: int = 200,
    seed: int = 7,
    n: Optional[int] = None,
    names: Optional[list[str]] = None,
    max_denominator: int = 8,
) -> VerifyReport:
    start = time.monotonic()
    results = []
    for name, (_group, fn) in REGISTRY.items():
        if names is not None and name not in names:
            continue
        results.append(fn(samples, seed, n, max_denominator))
    return VerifyReport(results=results, wall_seconds=time.monotonic() - start)
