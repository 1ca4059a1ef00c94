"""Command line front end.

Subcommands: classify, polytope, width, volume, chart, verify.  Edge
lengths are exact rationals ("p/q" or "p"); every numeric field in JSON
output is a string for the same reason.  Exit codes: 0 success, 1 usage
error, 2 non-generic or empty-space input, 3 verification failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .bending import (
    CATERPILLAR,
    TRIPLE_PAIRS,
    DiagonalSystem,
    caterpillar_polytope,
    default_system,
    moment_image,
    rectangle_chart_5,
    vertex_chart_6,
)
from .errors import (
    CapabilityError,
    EmptyModuliError,
    NonGenericError,
    RationalFormatError,
    UnboundedPolytopeError,
)
from .lengths import (
    LengthVector,
    classify_5gon_chamber,
    is_long,
    sixgon_condition,
    sort_with_permutation,
)
from .rationals import format_rational
from .svg import emit_svg
from .verify import run_verify
from .volume import combinatorial_volume, dimension_ratio_constant, volume_ratio_check
from .width import gromov_width_report, max_axis_cross

USAGE_ERROR = 1
DOMAIN_ERROR = 2
VERIFY_FAILED = 3


def _dump_json(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _parse_vector(texts: Sequence[str]) -> LengthVector:
    return LengthVector.from_strings(texts)


def _classification(r: LengthVector) -> str:
    rs, _ = sort_with_permutation(r)
    n = r.n
    if is_long(rs, {1, n}):
        return "projective"
    if n == 5:
        return classify_5gon_chamber(rs)
    if n == 6:
        condition = sixgon_condition(rs)
        return f"condition {condition}" if condition else "no certified condition"
    if n == 4:
        return "interval"
    return "lower bound only"


def cmd_classify(args) -> int:
    r = _parse_vector(args.lengths)
    label = _classification(r)
    if args.json:
        rs, perm = sort_with_permutation(r)
        from .lengths import short_sets

        shorts = sorted(sorted(s) for s in short_sets(rs, max_size=r.n // 2 + 1))
        sys.stdout.write(
            _dump_json(
                {
                    "schema": "polywidth/1",
                    "kind": "classification",
                    "input": [format_rational(e) for e in r],
                    "sorted": [format_rational(e) for e in rs],
                    "sort_permutation": list(perm),
                    "label": label,
                    "short_sets_of_sorted": shorts,
                }
            )
        )
    else:
        print(label)
    return 0


def cmd_polytope(args) -> int:
    if args.from_json is not None:
        if args.lengths:
            raise ValueError("give either edge lengths or --from-json, not both")
        from .polytopes import polytope_from_json

        with open(args.from_json) if args.from_json != "-" else sys.stdin as fh:
            data = json.load(fh)
        poly = polytope_from_json(data.get("polytope", data))
        payload = {"schema": "polywidth/1", "kind": "polytope"}
        meta = None
    else:
        if not args.lengths:
            raise ValueError("edge lengths are required without --from-json")
        r = _parse_vector(args.lengths)
        image = moment_image(r, DiagonalSystem(args.system, r.n))
        poly = image.polytope
        payload = {
            "schema": "polywidth/1",
            "kind": "moment_image",
            "system": image.system.kind,
            "lengths": [format_rational(e) for e in r],
        }
    if args.svg:
        cross = None
        if args.with_cross:
            cross = max_axis_cross(poly)
        sys.stdout.write(emit_svg(poly, cross))
        return 0
    payload["polytope"] = poly.to_json()
    sys.stdout.write(_dump_json(payload))
    return 0


def cmd_width(args) -> int:
    r = _parse_vector(args.lengths)
    cap = args.cap
    if cap is None:
        env = os.environ.get("POLYWIDTH_CAP")
        cap = int(env) if env else None
    report = gromov_width_report(
        r, cap=cap, experimental_shears=args.experimental_shears
    )
    if args.svg:
        rs, _ = sort_with_permutation(r)
        image = caterpillar_polytope(rs)
        if image.polytope.dim != 2:
            raise ValueError("--svg applies to 5-gon (2D) moment images only")
        sys.stdout.write(emit_svg(image.polytope, report.certificates.get("cross")))
        return 0
    if args.json:
        sys.stdout.write(_dump_json(report.to_json()))
        return 0
    vec = " ".join(format_rational(e) for e in r)
    print(f"gromov width of the {r.n}-gon space with edges ({vec}), in 2*pi units")
    print(f"  lower bound: {format_rational(report.lower)}")
    if report.upper is not None:
        print(f"  upper bound: {format_rational(report.upper)}")
    else:
        print("  upper bound: (none certified)")
    if report.exact is not None:
        print(f"  exact:       {format_rational(report.exact)}")
    print(f"  conjectured: {format_rational(report.conjectured)}")
    print(f"  provenance:  {report.provenance}")
    if args.explain:
        _explain(report)
    return 0


def _explain(report) -> None:
    cross = report.certificates.get("cross")
    if cross is not None:
        center = ", ".join(format_rational(c) for c in cross.center)
        print(f"  cross fit: size {format_rational(cross.size)} at ({center})")
        for j, (back, fwd) in enumerate(cross.arms):
            print(
                f"    axis {j + 1}: -{format_rational(back)} / +{format_rational(fwd)}"
            )
    witness = report.certificates.get("witness")
    if witness is not None:
        point = ", ".join(format_rational(c) for c in witness.point)
        arms = ", ".join(format_rational(a) for a in witness.arm_lengths)
        print(f"  constructive witness at ({point}); arm lengths {arms}")
    upper = report.certificates.get("upper")
    if upper is not None:
        if hasattr(upper, "relation"):
            rel = upper.relation
            terms = [
                f"{a} * {list(u)}"
                for a, u in zip(rel.coefficients, rel.rays)
                if a
            ]
            print(f"  upper certificate ({upper.kind}): relation {' + '.join(terms)} = 0")
            print(f"    value {format_rational(rel.value)} (cap {rel.cap})")
            if upper.kind == "blowup":
                for step in upper.steps:
                    print(
                        f"    blowup step: ray {list(step.new_ray)} from cone "
                        f"{sorted(map(list, step.cone_rays))}"
                    )
        else:
            print(
                f"  upper certificate (facet containment): short edge "
                f"{format_rational(upper.short_edge)}"
            )
    projective = report.certificates.get("projective")
    if projective is not None:
        print(
            f"  projective form: slack {format_rational(projective.slack)}, "
            f"simplex map verified: {projective.simplex_map_verified}"
        )
    for note in report.notes:
        print(f"  note: {note}")


def cmd_volume(args) -> int:
    r = _parse_vector(args.lengths)
    value = combinatorial_volume(r)
    payload = {
        "schema": "polywidth/1",
        "kind": "volume",
        "lengths": [format_rational(e) for e in r],
        "coefficient": format_rational(value.coefficient),
        "power": value.power,
    }
    if args.crosscheck:
        rs, _ = sort_with_permutation(r)
        image = moment_image(rs, default_system(r.n))
        ratio = volume_ratio_check(rs, image)
        payload["polytope_volume"] = format_rational(image.polytope.volume())
        payload["ratio"] = format_rational(ratio)
        payload["dimension_constant"] = format_rational(
            dimension_ratio_constant(r.n - 3)
        )
    if args.json:
        sys.stdout.write(_dump_json(payload))
        return 0
    print(f"volume = {payload['coefficient']} * (2*pi)^{value.power}")
    if args.crosscheck:
        print(f"  moment polytope volume: {payload['polytope_volume']}")
        print(f"  ratio: {payload['ratio']} (dimension constant {payload['dimension_constant']})")
    return 0


def cmd_chart(args) -> int:
    r = _parse_vector(args.lengths)
    if r.n == 5:
        rows = rectangle_chart_5(r)
        headers = ("d2 >= d1-r3", "d2 >= -d1+r3", "d2 <= d1+r3")
    elif r.n == 6:
        rows = vertex_chart_6(r)
        headers = ("sum >= 2 d1", "sum >= 2 d2", "sum >= 2 d3")
    else:
        raise ValueError("charts exist for 5- and 6-vectors only")
    if args.json:
        sys.stdout.write(
            _dump_json(
                {
                    "schema": "polywidth/1",
                    "kind": "chart",
                    "lengths": [format_rational(e) for e in r],
                    "columns": list(headers),
                    "rows": [
                        {
                            "vertex": row.label,
                            "point": [format_rational(c) for c in row.point],
                            "memberships": list(row.memberships),
                            "short_set_conditions": [list(c) for c in row.conditions],
                        }
                        for row in rows
                    ],
                }
            )
        )
        return 0
    print(f"{'vertex':8s} " + " ".join(f"{h:>14s}" for h in headers))
    for row in rows:
        cells = " ".join(
            f"{('yes' if m else 'no') + ' ' + '{' + ','.join(map(str, sorted(c))) + '}':>14s}"
            for m, c in zip(row.memberships, row.conditions)
        )
        print(f"{row.label:8s} {cells}")
    return 0


def cmd_verify(args) -> int:
    report = run_verify(
        samples=args.samples,
        seed=args.seed,
        n=args.n,
        names=args.check or None,
        max_denominator=args.max_denominator,
    )
    if args.json:
        sys.stdout.write(_dump_json(report.to_json()))
    else:
        for result in report.results:
            if result.skipped:
                status = "SKIP"
            else:
                status = "ok" if result.failed == 0 else "FAIL"
            line = f"{result.name:42s} {status:4s} passed={result.passed} failed={result.failed}"
            print(line)
            for failure in result.failures:
                print(f"    failing input: {failure}")
        print(
            f"{'all checks passed' if report.ok else 'FAILURES PRESENT'} "
            f"({report.wall_seconds:.1f}s)"
        )
    return 0 if report.ok else VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polywidth",
        description="Exact Gromov-width bounds for spatial polygon moduli spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_lengths(p):
        p.add_argument("lengths", nargs="+", help="edge lengths as 'p' or 'p/q'")

    p = sub.add_parser("classify", help="chamber / condition of a length vector")
    add_lengths(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("polytope", help="moment polytope of a bending system")
    p.add_argument("lengths", nargs="*", help="edge lengths as 'p' or 'p/q'")
    p.add_argument("--system", choices=(CATERPILLAR, TRIPLE_PAIRS), default=CATERPILLAR)
    p.add_argument(
        "--from-json",
        metavar="FILE",
        default=None,
        help="read a polytope JSON document ('-' for stdin) instead of lengths",
    )
    p.add_argument("--svg", action="store_true", help="emit SVG (2D only)")
    p.add_argument("--with-cross", action="store_true", help="overlay the fitted cross")
    p.set_defaults(fn=cmd_polytope)

    p = sub.add_parser("width", help="Gromov width bounds and certificates")
    add_lengths(p)
    p.add_argument("--cap", type=int, default=None, help="relation degree cap")
    p.add_argument("--json", action="store_true")
    p.add_argument("--svg", action="store_true", help="emit SVG with cross (5-gons)")
    p.add_argument("--explain", action="store_true", help="print certificate details")
    p.add_argument(
        "--experimental-shears",
        action="store_true",
        help="also report the best cross after shear pre-transforms (uncertified)",
    )
    p.set_defaults(fn=cmd_width)

    p = sub.add_parser("volume", help="symplectic volume coefficient")
    add_lengths(p)
    p.add_argument("--crosscheck", action="store_true", help="compare with polytope volume")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_volume)

    p = sub.add_parser("chart", help="vertex membership chart (n = 5 or 6)")
    add_lengths(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_chart)

    p = sub.add_parser("verify", help="run the seeded invariant suite")
    p.add_argument("--n", type=int, default=None, help="restrict to one arity")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--max-denominator", type=int, default=8, help="sampling denominator bound")
    p.add_argument("--check", action="append", help="run only the named check")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except RationalFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (NonGenericError, EmptyModuliError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    except (CapabilityError, UnboundedPolytopeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
