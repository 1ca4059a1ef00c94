"""Symplectic volume of polygon moduli spaces, exactly.

The Duistermaat-Heckman volume is one signed sum over the long index sets
(Takakura, Khoi, Mandini); it collapses to a closed form on the projective
chamber.  Volumes carry their power of 2*pi symbolically: a VolumeValue
means coefficient * (2*pi)**power.

The ratio of the combinatorial coefficient to the Euclidean volume of the
bending moment polytope is a dimension constant (it turns out to be 1),
derived on the projective chamber and then asserted on every toric sample;
this single check ties the volume formula, the moment polytopes, and the
vertex enumeration together.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from .bending import MomentImage, caterpillar_polytope, is_bending_toric
from .errors import CapabilityError
from .lengths import (
    LengthVector,
    assert_generic,
    assert_nonempty,
    is_long,
    perimeter_slack,
)
from .rationals import format_rational

VOLUME_ARITY_CAP = 14


@dataclass(frozen=True)
class VolumeValue:
    """coefficient * (2*pi)**power, with power = n - 3."""

    coefficient: Fraction
    power: int

    def to_json(self) -> dict:
        return {"coefficient": format_rational(self.coefficient), "power": self.power}


def combinatorial_volume(r: LengthVector) -> VolumeValue:
    """The signed sum over long index sets I, with eps_I the excess of I:

        -1 / (2 (n-3)!) * sum over long I of (-1)**(n-|I|) * eps_I**(n-3).

    Returns the exact coefficient of (2*pi)**(n-3).  Exhaustive over the
    2**n index sets, hence the arity cap.
    """
    n = r.n
    if n > VOLUME_ARITY_CAP:
        raise CapabilityError(f"volume formula capped at n <= {VOLUME_ARITY_CAP}")
    assert_generic(r)
    assert_nonempty(r)
    m = n - 3
    total = r.total()
    acc = Fraction(0)
    for mask in range(1, 1 << n):
        inside = sum((r.entries[i] for i in range(n) if mask >> i & 1), Fraction(0))
        eps = 2 * inside - total
        if eps > 0:
            sign = -1 if (n - bin(mask).count("1")) % 2 else 1
            acc += sign * eps**m
    return VolumeValue(coefficient=-acc / (2 * factorial(m)), power=m)


def projective_volume(r_sorted: LengthVector) -> VolumeValue:
    """Closed form on the projective chamber: slack**(n-3) / (n-3)!.

    Asserted equal to the combinatorial formula, which is the identity
    that pins the closed form down.
    """
    assert_generic(r_sorted)
    assert_nonempty(r_sorted)
    if not r_sorted.is_sorted():
        raise ValueError("projective volume expects a sorted vector")
    if not is_long(r_sorted, {1, r_sorted.n}):
        raise ValueError("projective volume needs {1,n} long")
    m = r_sorted.n - 3
    gamma = perimeter_slack(r_sorted)
    value = VolumeValue(coefficient=gamma**m / factorial(m), power=m)
    full = combinatorial_volume(r_sorted)
    if full != value:
        raise AssertionError(
            f"closed form {value} disagrees with the full sum {full} on {r_sorted!r}"
        )
    return value


def reference_projective_vector(n: int) -> LengthVector:
    """(1, ..., 1, n-2): generic (odd total), projective, nonempty."""
    return LengthVector([1] * (n - 1) + [n - 2])


_RATIO_CACHE: dict[int, Fraction] = {}


def dimension_ratio_constant(dim: int) -> Fraction:
    """Combinatorial coefficient / polytope volume, fixed per dimension.

    Derived once on the reference projective vector, where the moment
    polytope is a mapped simplex of known volume.
    """
    if dim not in _RATIO_CACHE:
        ref = reference_projective_vector(dim + 3)
        coeff = combinatorial_volume(ref).coefficient
        vol = caterpillar_polytope(ref).polytope.volume()
        if vol <= 0:
            raise AssertionError("reference moment polytope degenerated")
        _RATIO_CACHE[dim] = coeff / vol
    return _RATIO_CACHE[dim]


def volume_ratio_check(r: LengthVector, image: MomentImage) -> Fraction:
    """Ratio of formula volume to polytope volume; asserted dimension-constant.

    Requires the bending action for the image's system to be toric on r
    (otherwise the polytope is only the closure of the open dense part's
    image and the comparison is meaningless).
    """
    if image.lengths != r:
        raise ValueError("moment image was built from a different vector")
    report = is_bending_toric(r, image.system)
    if not report.toric:
        raise ValueError(f"bending action is not toric for {r!r}")
    vol = image.polytope.volume()
    if vol == 0:
        raise ValueError("moment polytope has zero volume")
    ratio = combinatorial_volume(r).coefficient / vol
    expected = dimension_ratio_constant(image.polytope.dim)
    if ratio != expected:
        raise AssertionError(
            f"volume ratio {ratio} deviates from the dimension constant "
            f"{expected} on {r!r}"
        )
    return ratio
