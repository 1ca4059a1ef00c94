"""Output checks of the benchmark: canonical digests and independent oracles.

An item fails if it raises, if its canonical output differs from the
digest recorded at the default seed, or (at every seed) if an oracle here
rejects it.  The oracles are cheap restatements of the mathematics, so
checking an item costs far less than computing it:

* a width report's cross must fit, endpoint by endpoint, in the triangle
  inequalities of its bending system, and its upper-bound certificate must
  replay;
* a volume must equal the closed form
  -1/(2 (n-3)!) * sum over long I of (-1)^(n-|I|) * excess(I)^(n-3);
* a verify check must report no failures.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import factorial


def digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


def _caterpillar_contains(rs, point) -> bool:
    n = rs.n
    d = [rs.entry(1), *point, rs.entry(n)]
    return all(
        x + y >= s and abs(x - y) <= s
        for x, s, y in zip(d, (rs.entry(i + 2) for i in range(n - 2)), d[1:])
    )


def _triple_pairs_contains(r, point) -> bool:
    total = sum(point, Fraction(0))
    for j, (a, b) in enumerate(((1, 2), (3, 4), (5, 6))):
        lo, hi = r.entry(b) - r.entry(a), r.entry(b) + r.entry(a)
        if not lo <= point[j] <= hi or total < 2 * point[j]:
            return False
    return True


def check_report(report) -> None:
    """Raises AssertionError unless every certificate of the report holds."""
    from polywidth.width import (
        CrossFit,
        FacetWitness,
        ProjectiveCertificate,
        UpperBoundCertificate,
        replay_upper_bound,
    )
    from polywidth.bending import cuboid_vertices
    from polywidth.lengths import perimeter_slack

    rs = report.sorted_r
    certs = report.certificates
    if report.exact is not None and not report.lower == report.upper == report.exact:
        raise AssertionError("exact value differs from the bounds")
    cross = certs.get("cross")
    if isinstance(cross, CrossFit):
        contains = _triple_pairs_contains if rs.n == 6 else _caterpillar_contains
        for back, forward in cross.arms:
            if back < 0 or forward < 0 or back + forward != cross.size:
                raise AssertionError("cross arms do not realize the size")
        for minus, plus in cross.endpoints():
            if not (contains(rs, minus) and contains(rs, plus)):
                raise AssertionError("cross endpoint escapes the moment polytope")
        if report.lower != cross.size:
            raise AssertionError("lower bound is not the cross size")
    elif "projective" not in certs:
        raise AssertionError("report carries no lower-bound certificate")
    upper = certs.get("upper")
    if isinstance(upper, UpperBoundCertificate):
        replay_upper_bound(upper)
        if upper.value != report.upper:
            raise AssertionError("upper bound is not the certificate value")
    elif isinstance(upper, FacetWitness):
        corners = cuboid_vertices(upper.reshuffled)
        for label in ("v5", "v6", "v7", "v8"):
            point = corners[label]
            if not _triple_pairs_contains(upper.reshuffled, point):
                raise AssertionError(f"facet corner {label} is not in the polytope")
            if not upper.facet.is_tight(point):
                raise AssertionError(f"facet corner {label} is not on the facet")
        if upper.short_edge != report.upper:
            raise AssertionError("upper bound is not the facet's short edge")
    projective = certs.get("projective")
    if isinstance(projective, ProjectiveCertificate):
        if not projective.simplex_map_verified or projective.slack != perimeter_slack(rs):
            raise AssertionError("projective certificate does not hold")
    if report.upper is not None and upper is None and projective is None:
        raise AssertionError("upper bound without a certificate")


def closed_form_volume(r) -> Fraction:
    n, m = r.n, r.n - 3
    total = r.total()
    acc = Fraction(0)
    for mask in range(1, 1 << n):
        inside = sum((r.entries[i] for i in range(n) if mask >> i & 1), Fraction(0))
        eps = 2 * inside - total
        if eps > 0:
            sign = -1 if (n - bin(mask).count("1")) % 2 else 1
            acc += sign * eps**m
    return -acc / (2 * factorial(m))


def check_volume(r, value) -> None:
    if value.power != r.n - 3 or value.coefficient != closed_form_volume(r):
        raise AssertionError("volume differs from the closed form")
