"""Seeded verification harness: every module invariant, registered once.

Each check draws deterministic samples, validates one documented
invariant, and reports pass/fail counts with replayable failing inputs.
The registry is the single source the CLI `verify` command and the test
suite's completeness meta-test both read.

A check is a body `body(res, n, count, seed, max_denominator)` registered
with `@register(name, group, arities, share=k)`.  The registered check
owns the plumbing: it creates the `CheckResult`, keeps the arities the
`n` filter allows (marking the result skipped when none is left), splits
the sample budget as `count = max(1, samples // (k * len(kept)))` and calls
the body once per kept arity.  The body draws its `count` samples for
arity `n` and records each one; it sets `res.skipped` itself only when no
drawn sample qualified (`blowup-ray-count`, `lp-vs-grid-2d`).
`vh-roundtrip` is registered with `per_arity=False`: its hulls are 2- and
3-dimensional whatever `n` is, so it runs once on the whole budget.
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
    default_system,
    moment_image,
    perturbation_family,
    rectangle_chart_5,
    reshuffle_recipe,
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


# check(samples, seed, n_filter, max_denominator)
CheckFn = Callable[[int, int, Optional[int], int], CheckResult]
# body(res, n, count, seed, max_denominator)
CheckBody = Callable[[CheckResult, Optional[int], int, int, int], None]
REGISTRY: dict[str, tuple[str, CheckFn]] = {}
ARITIES: dict[str, tuple[int, ...]] = {}


def register(
    name: str,
    group: str,
    arities: tuple[int, ...],
    share: int = 1,
    per_arity: bool = True,
):
    """Register `body(res, n, count, seed, max_denominator)` as check `name`.

    The registered check keeps the arities in `arities` that the `n` filter
    allows (all of them when it is None) and marks `res` skipped when none
    is left.  Otherwise it calls the body once per kept arity n with
    `count = max(1, samples // (share * len(kept)))`, so a check whose
    samples cost more takes a larger `share`.  The body may mark `res`
    skipped itself when none of its draws qualified.  With
    `per_arity=False` (vh-roundtrip, whose hulls do not depend on n) the
    body runs once, with n the filter and count the whole budget.
    Returns the body, so one body can be registered under several names.
    """

    def wrap(body: CheckBody) -> CheckBody:
        def check(samples: int, seed: int, n_filter: Optional[int], max_denominator: int = 8) -> CheckResult:
            res = CheckResult(name)
            kept = tuple(a for a in arities if n_filter in (None, a))
            if not kept:
                res.skipped = True
            elif not per_arity:
                body(res, n_filter, samples, seed, max_denominator)
            else:
                count = max(1, samples // (share * len(kept)))
                for n in kept:
                    body(res, n, count, seed, max_denominator)
            return res

        REGISTRY[name] = (group, check)
        ARITIES[name] = arities
        return body

    return wrap


def _vec_str(r: LengthVector) -> str:
    return " ".join(format_rational(e) for e in r)


def _holds(fn, *args) -> bool:
    """True unless fn(*args) fails an assertion, meets an empty space or returns False."""
    try:
        return fn(*args) is not False
    except (AssertionError, EmptyModuliError):
        return False


def _shuffle(n: int, seed: int, key: int) -> list[int]:
    """Permutation of 1..n, Fisher-Yates from the stream at keys key+1..key+n-1."""
    perm = list(range(1, n + 1))
    for i in range(n - 1, 0, -1):
        j = uniform_int(seed, key + i, 0, i)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _projective(r: LengthVector) -> bool:
    rs, _ = sort_with_permutation(r)
    return is_long(rs, {1, r.n})


def _nonprojective(r: LengthVector) -> bool:
    return not _projective(r)


def _ordered_5(r: LengthVector) -> bool:
    return r.entry(1) <= r.entry(2) and r.entry(4) <= r.entry(5)


def _ordered_6(r: LengthVector) -> bool:
    return r.entry(1) <= r.entry(2) and r.entry(3) <= r.entry(4) and r.entry(5) <= r.entry(6)


# -- length-vector combinatorics ------------------------------------------------


@register("short-long-duality", "lengths", (4, 5, 6, 7), share=4)
def check_short_long(res, n, count, seed, max_denominator):
    full = frozenset(range(1, n + 1))
    for r in sample_many(n, seed + n, count, max_denominator=max_denominator):
        ok = True
        for mask in range(1, 1 << n):
            subset = frozenset(i + 1 for i in range(n) if mask >> i & 1)
            a, b = is_short(r, subset), is_long(r, subset)
            if a == b or is_short(r, full - subset) == a:
                ok = False
                break
        res.record(ok, _vec_str(r))


@register("width-formula-permutation-invariance", "lengths", (4, 5, 6), share=3)
def check_width_perm(res, n, count, seed, max_denominator):
    for idx, r in enumerate(sample_many(n, seed + 17 * n, count, max_denominator=max_denominator)):
        base = width_formula(r)
        ok = all(
            width_formula(apply_permutation(r, _shuffle(n, seed, 900_000 + idx * 100 + k * 10))) == base
            for k in range(10)
        )
        res.record(ok, _vec_str(r))


@register("width-formula-sorted-min", "lengths", (4, 5, 6, 7))
def check_width_sorted(res, n, count, seed, max_denominator):
    for r in sample_many(n, seed + 23 * n, count, max_denominator=max_denominator):
        rs, _ = sort_with_permutation(r)
        expected = min(2 * rs.entry(1), perimeter_slack(rs))
        res.record(width_formula(r) == expected, _vec_str(r))


@register("singleton-maximal-short-iff", "lengths", (4, 5, 6, 7))
def check_singleton(res, n, count, seed, max_denominator):
    for r in sample_many(n, seed + 31 * n, count, max_denominator=max_denominator):
        rs, _ = sort_with_permutation(r)
        expected = n if is_long(rs, {1, n}) else None
        res.record(singleton_maximal_short(rs) == expected, _vec_str(r))


@register("pentagon-chamber-total", "lengths", (5,))
def check_chamber_total(res, n, count, seed, max_denominator):
    for r in sample_many(n, seed + 41, count, max_denominator=max_denominator):
        rs, _ = sort_with_permutation(r)
        res.record(_holds(classify_5gon_chamber, rs), _vec_str(r))


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


@register("vh-roundtrip", "polytopes", (5, 6), per_arity=False)
def check_vh_roundtrip(res, n, count, seed, max_denominator):
    count = min(count, 100)
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


@register("volume-unimodular-invariance", "polytopes", (5, 6), share=5)
def check_volume_unimodular(res, n, count, seed, max_denominator):
    for idx, r in enumerate(sample_many(n, seed + 53 * n, count, max_denominator=max_denominator)):
        rs, _ = sort_with_permutation(r)
        P = caterpillar_polytope(rs).polytope
        if not P.is_full_dimensional():
            continue
        matrix = _random_unimodular(P.dim, seed, idx + n * 1000)
        if abs(mat_det(matrix)) != 1:
            continue
        shift = [Fraction(uniform_int(seed, 82_000 + idx, -5, 5)) for _ in range(P.dim)]
        mapped = apply_unimodular(P, matrix, shift)
        res.record(mapped.volume() == P.volume(), _vec_str(r))


@register("fano-offset-independence", "polytopes", (5,), share=10)
def check_fano_offsets(res, n, count, seed, max_denominator):
    from .polytopes import fans_equal, is_fano, normal_fan

    for idx, r in enumerate(sample_many(n, seed + 61, count, max_denominator=max_denominator)):
        rs, _ = sort_with_permutation(r)
        chamber = classify_5gon_chamber(rs)
        recipe_case = chamber if chamber != "C1" else "C2"
        try:
            shuffled = apply_permutation(rs, reshuffle_recipe(n, recipe_case))
        except ValueError:
            continue
        report = is_bending_toric(shuffled, caterpillar_system(n))
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


# the fan of the rectangle every chamber-C6 pentagon fan blows up from
_RECTANGLE_FAN = Fan(
    2,
    ((1, 0), (0, 1), (-1, 0), (0, -1)),
    (frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 0})),
)


@register("blowup-ray-count", "polytopes", (5,), share=10)
def check_blowup_counts(res, n, count, seed, max_denominator):
    from .polytopes import normal_fan

    seen = 0
    for r in sample_many(n, seed + 67, count * 4, max_denominator=max_denominator):
        if seen >= count:
            break
        rs, _ = sort_with_permutation(r)
        if classify_5gon_chamber(rs) != "C6":
            continue
        report = is_bending_toric(rs, caterpillar_system(n))
        if not report.toric:
            continue
        seen += 1
        fan = normal_fan(report.image.polytope)
        steps = blowup_chain(fan, _RECTANGLE_FAN)
        ok = (
            steps is not None
            and set(_RECTANGLE_FAN.rays) <= set(fan.rays)
            and len(fan.rays) - len(_RECTANGLE_FAN.rays) == len(steps)
        )
        res.record(ok, _vec_str(r))
    if seen == 0:
        res.skipped = True


@register("axis-segment-concavity", "polytopes", (5, 6), share=2)
def check_concavity(res, n, count, seed, max_denominator):
    for idx, r in enumerate(sample_many(n, seed + 71 * n, count, max_denominator=max_denominator)):
        rs, _ = sort_with_permutation(r)
        P = caterpillar_polytope(rs).polytope
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


# -- bending systems --------------------------------------------------------------


@register("caterpillar-nonempty-iff-closed", "bending", (4, 5, 6))
def check_caterpillar_nonempty(res, n, count, seed, max_denominator):
    produced = attempt = 0
    while produced < count and attempt < 50 * count:
        r = sample_raw(n, seed + 3 * n, attempt, max_denominator=max_denominator)
        attempt += 1
        if not is_generic(r):
            continue
        produced += 1
        empty_expected = 2 * max(r.entries) - r.total() > 0
        image = caterpillar_polytope(r)
        res.record(image.polytope.is_empty() == empty_expected, _vec_str(r))


# seed offset, partial ordering and chart builder per arity
_CHARTS = {5: (5, _ordered_5, rectangle_chart_5), 6: (7, _ordered_6, vertex_chart_6)}


@register("chart6-consistency", "bending", (6,))
@register("chart5-consistency", "bending", (5,))
def check_chart(res, n, count, seed, max_denominator):
    offset, ordered, chart = _CHARTS[n]
    for r in sample_many(n, seed + offset, count, predicate=ordered, max_denominator=max_denominator):
        res.record(_holds(chart, r), _vec_str(r))


@register("pentagon-toricity-ties", "bending", (5,))
def check_toricity_ties(res, n, count, seed, max_denominator):
    for r in sample_many(n, seed + 11, count, predicate=_ordered_5, max_denominator=max_denominator):
        report = is_bending_toric(r, caterpillar_system(n))
        ties_absent = r.entry(1) != r.entry(2) and r.entry(4) != r.entry(5)
        # a vanishing diagonal must come with a tie (the converse has a
        # documented corner case, so only this direction is asserted)
        res.record(report.toric or not ties_absent, _vec_str(r))


@register("perturbation-offsets-linear", "bending", (5, 6), share=5)
def check_perturbation_linear(res, n, count, seed, max_denominator):
    t1, t2 = Fraction(1, 64), Fraction(1, 128)
    for r in sample_many(n, seed + 13 * n, count, max_denominator=max_denominator):
        rs, _ = sort_with_permutation(r)
        try:
            base, one, two = (
                caterpillar_polytope(perturbation_family(rs, t) if t != 0 else rs).raw_halfspaces
                for t in (Fraction(0), t1, t2)
            )
        except NonGenericError:
            continue
        ok = len(base) == len(one) == len(two) and all(
            h0.normal == h1.normal == h2.normal
            and (h1.offset - h0.offset) / t1 == (h2.offset - h0.offset) / t2
            for h0, h1, h2 in zip(base, one, two)
        )
        res.record(ok, _vec_str(r))


@register("reshuffle-coherence", "bending", (5,), share=5)
def check_reshuffle_coherence(res, n, count, seed, max_denominator):
    for r in sample_many(n, seed + 19, count, max_denominator=max_denominator):
        rs, _ = sort_with_permutation(r)
        chamber = classify_5gon_chamber(rs)
        if chamber == "C1":
            res.record(True, _vec_str(r))
            continue
        recipe = reshuffle_recipe(n, chamber)
        via_helper = caterpillar_polytope(apply_permutation(rs, recipe)).polytope
        manual = caterpillar_polytope(LengthVector([rs.entry(i) for i in recipe])).polytope
        res.record(via_helper == manual, _vec_str(r))


# -- width bounds ------------------------------------------------------------------


@register("crossfit-replay", "width", (5, 6), share=2)
def check_crossfit_replay(res, n, count, seed, max_denominator):
    for r in sample_many(n, seed + 29 * n, count, max_denominator=max_denominator):
        rs, _ = sort_with_permutation(r)
        P = moment_image(rs, default_system(n)).polytope
        if P.is_full_dimensional():
            res.record(_holds(replay_crossfit, P, max_axis_cross(P)), _vec_str(r))


@register("lp-vs-grid-2d", "width", (5,), share=20)
def check_lp_vs_grid(res, n, count, seed, max_denominator):
    done = 0
    for r in sample_many(n, seed + 37, count * 5, max_denominator=2):
        if done >= count:
            break
        rs, _ = sort_with_permutation(r)
        P = caterpillar_polytope(rs).polytope
        if not P.is_full_dimensional():
            continue
        lo, hi = P.bounding_box()
        if max(hi[0] - lo[0], hi[1] - lo[1]) > 10:
            continue
        done += 1
        fit = max_axis_cross(P)
        res.record(brute_force_cross_size(P, 4) <= fit.size, _vec_str(r))
    if done == 0:
        res.skipped = True


def _dominates(rs: LengthVector) -> bool:
    """The constructive witness and the cross fit both reach 2 r_1."""
    bound = 2 * rs.entry(1)
    witness = (pentagon_cross_witness if rs.n == 5 else hexagon_cross_witness)(rs)
    fit = max_axis_cross(moment_image(rs, default_system(rs.n)).polytope)
    return min(witness.arm_lengths) >= bound and fit.size >= bound


@register("lower-bound-dominance-6", "width", (6,))
@register("lower-bound-dominance-5", "width", (5,))
def check_dominance(res, n, count, seed, max_denominator):
    offset = {5: 43, 6: 47}[n]
    for r in sample_many(n, seed + offset, count, predicate=_nonprojective, max_denominator=max_denominator):
        rs, _ = sort_with_permutation(r)
        res.record(_holds(_dominates, rs), _vec_str(r))


def _replay_upper(cert) -> None:
    if hasattr(cert, "relation"):
        replay_relation(cert.relation)
        replay_upper_bound(cert)
    else:
        replay_facet_witness(cert)


@register("upper-certificate-replay", "width", (5, 6), share=10)
def check_upper_replay(res, n, count, seed, max_denominator):
    for r in sample_many(n, seed + 59 * n, count, max_denominator=max_denominator):
        cert = gromov_width_report(r).certificates.get("upper")
        res.record(cert is None or _holds(_replay_upper, cert), _vec_str(r))


@register("bound-sandwich", "width", (4, 5, 6), share=10)
def check_sandwich(res, n, count, seed, max_denominator):
    for r in sample_many(n, seed + 73 * n, count, max_denominator=max_denominator):
        report = gromov_width_report(r)
        ok = report.lower <= report.conjectured
        if report.upper is not None:
            ok = ok and report.conjectured <= report.upper
        if report.exact is not None:
            ok = ok and (
                report.lower == report.upper == report.exact == report.conjectured
            )
        res.record(ok, _vec_str(r))


@register("perturbation-two-step-stability", "width", (5, 6), share=20)
def check_two_step(res, n, count, seed, max_denominator):
    done = attempt = 0
    while done < count and attempt < 100 * count:
        r = sample_integer_vector(n, seed + n, attempt, hi=5)
        attempt += 1
        if not is_generic(r) or 2 * max(r.entries) - r.total() > 0:
            continue
        done += 1
        res.record(_holds(gromov_width_report, r), _vec_str(r))


# -- volume -------------------------------------------------------------------------


@register("projective-volume-equality", "volume", (4, 5, 6, 7), share=2)
def check_projective_volume(res, n, count, seed, max_denominator):
    for r in sample_many(n, seed + 79 * n, count, predicate=_projective, max_denominator=max_denominator):
        rs, _ = sort_with_permutation(r)
        res.record(_holds(projective_volume, rs), _vec_str(r))  # asserts equality internally


@register("volume-permutation-invariance", "volume", (4, 5, 6), share=10)
def check_volume_perm(res, n, count, seed, max_denominator):
    for idx, r in enumerate(sample_many(n, seed + 83 * n, count, max_denominator=max_denominator)):
        base = combinatorial_volume(r).coefficient
        ok = all(
            combinatorial_volume(
                apply_permutation(r, _shuffle(n, seed, 950_000 + idx * 100 + k * 10))
            ).coefficient
            == base
            for k in range(10)
        )
        res.record(ok, _vec_str(r))


@register("volume-ratio-constant", "volume", (5, 6), share=2)
def check_volume_ratio(res, n, count, seed, max_denominator):
    done = attempt = 0
    while done < count and attempt < 50 * count:
        r = sample_raw(n, seed + 89 * n, attempt, max_denominator=max_denominator)
        attempt += 1
        if not is_generic(r) or 2 * max(r.entries) - r.total() > 0:
            continue
        rs, _ = sort_with_permutation(r)
        system = default_system(n)
        image = moment_image(rs, system)
        if not is_bending_toric(rs, system).toric:
            continue
        done += 1
        res.record(
            _holds(lambda: volume_ratio_check(rs, image) == dimension_ratio_constant(n - 3)),
            _vec_str(r),
        )


# -- driver ---------------------------------------------------------------------------


def run_verify(
    samples: int = 200,
    seed: int = 7,
    n: Optional[int] = None,
    names: Optional[list[str]] = None,
    max_denominator: int = 8,
) -> VerifyReport:
    """Run the registered checks (all, or those in `names`) in registry order.

    Raises ValueError for a budget below 1, a name that is not registered,
    or an arity `n` that no selected check is registered for.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if max_denominator < 1:
        raise ValueError(f"max_denominator must be at least 1, got {max_denominator}")
    unknown = [name for name in names or () if name not in REGISTRY]
    if unknown:
        raise ValueError(f"unknown check(s): {', '.join(unknown)}")
    selected = [name for name in REGISTRY if names is None or name in names]
    if n is not None and not any(n in ARITIES[name] for name in selected):
        raise ValueError(f"no selected check runs at n = {n}")
    start = time.monotonic()
    results = [REGISTRY[name][1](samples, seed, n, max_denominator) for name in selected]
    return VerifyReport(results=results, wall_seconds=time.monotonic() - start)
