from fractions import Fraction
from math import factorial

import pytest
from hypothesis import HealthCheck, given, settings

from polywidth.errors import CapabilityError, EmptyModuliError, NonGenericError
from polywidth.harness import sample_many
from polywidth.lengths import (
    LengthVector,
    apply_permutation,
    excess,
    perimeter_slack,
    sort_with_permutation,
)
from polywidth.bending import caterpillar_polytope, triple_pairs_polytope_6
from polywidth.volume import (
    VolumeValue,
    combinatorial_volume,
    dimension_ratio_constant,
    projective_volume,
    reference_projective_vector,
    volume_ratio_check,
)
from test_lengths import mixed_denominator_vectors

F = Fraction


def test_projective_values():
    assert projective_volume(LengthVector([1, 1, 1, 2])) == VolumeValue(F(1), 1)
    assert projective_volume(LengthVector([1, 1, 1, 1, 3])) == VolumeValue(F(1, 2), 2)
    # slack scales the closed form by its power
    r = LengthVector([1, 1, 1, 1, F(7, 2)])
    gamma = perimeter_slack(r)
    assert projective_volume(r).coefficient == gamma**2 / 2


def test_combinatorial_matches_collapsed_oracle(oracles):
    for n in (4, 5, 6):
        for r in sample_many(n, seed=401 + n, count=15):
            assert combinatorial_volume(r).coefficient == oracles.composition_volume(r.entries)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=mixed_denominator_vectors(max_n=7))
def test_combinatorial_volume_matches_composition_oracle(drawn, oracles):
    entries, planted = drawn
    r = LengthVector(entries)
    if planted or not oracles.generic(entries):
        with pytest.raises(NonGenericError):
            combinatorial_volume(r)
    elif any(oracles.excess(entries, {i}) > 0 for i in range(1, r.n + 1)):
        with pytest.raises(EmptyModuliError):
            combinatorial_volume(r)
    else:
        assert combinatorial_volume(r).coefficient == oracles.composition_volume(entries)


def test_volume_positive_on_samples():
    for n in (4, 5, 6, 7):
        for r in sample_many(n, seed=421 + n, count=10):
            value = combinatorial_volume(r)
            assert value.coefficient > 0
            assert value.power == n - 3


def test_empty_space_rejected():
    with pytest.raises(EmptyModuliError):
        combinatorial_volume(LengthVector([1, 2, 3, 4, 11]))
    with pytest.raises(EmptyModuliError):
        projective_volume(LengthVector([1, 2, 3, 4, 11]))


def test_arity_cap():
    with pytest.raises(CapabilityError):
        combinatorial_volume(LengthVector([1] * 14 + [2]))


@pytest.mark.parametrize("n", [13, 14])
def test_projective_volume_at_the_cap(n):
    # projective_volume asserts slack**(n-3)/(n-3)! against the full sum
    ref = reference_projective_vector(n)
    gamma = perimeter_slack(ref)
    assert projective_volume(ref) == VolumeValue(gamma ** (n - 3) / factorial(n - 3), n - 3)


def test_permutation_invariance():
    import itertools

    base = combinatorial_volume(LengthVector([1, 2, 3, 4, 7])).coefficient
    for perm in itertools.permutations(range(1, 6)):
        assert (
            combinatorial_volume(
                apply_permutation(LengthVector([1, 2, 3, 4, 7]), perm)
            ).coefficient
            == base
        )


def test_dimension_constants_derived_on_projective_chamber():
    # the reference vectors are projective, so the constant is pinned by
    # the mapped-simplex volume; it comes out to 1 in every dimension
    for d in (1, 2, 3, 4):
        ref = reference_projective_vector(d + 3)
        gamma = perimeter_slack(ref)
        assert combinatorial_volume(ref).coefficient == gamma**d / factorial(d)
        assert caterpillar_polytope(ref).polytope.volume() == gamma**d / factorial(d)
        assert dimension_ratio_constant(d) == 1


def test_ratio_check_examples():
    r = LengthVector([1, 1, 1, 1, 3])
    assert volume_ratio_check(r, caterpillar_polytope(r)) == 1
    r = LengthVector([1, 2, 3, 4, 7])
    assert volume_ratio_check(r, caterpillar_polytope(r)) == 1
    r6 = LengthVector([1, 2, 3, 4, 5, 6])
    assert volume_ratio_check(r6, triple_pairs_polytope_6(r6)) == 1


def test_ratio_check_rejects_nontoric():
    r6 = LengthVector([1, 2, 3, 4, 5, 6])
    image = caterpillar_polytope(r6)  # middle diagonal can vanish here
    with pytest.raises(ValueError):
        volume_ratio_check(r6, image)


def test_ratio_check_permutation_of_toric_samples():
    # permuting within the toric family leaves both sides unchanged
    r = LengthVector([1, 2, 3, 4, 7])
    base = volume_ratio_check(r, caterpillar_polytope(r))
    swapped = LengthVector([2, 1, 3, 4, 7])
    assert volume_ratio_check(swapped, caterpillar_polytope(swapped)) == base


def test_projective_cancellation_structure():
    # in the projective chamber the long sets containing the last index
    # contribute exactly the same amount again as the dominant set
    # {1..n-1}; this is why the closed form carries 1/(n-3)! and not
    # 1/(2 (n-3)!)
    for r in sample_many(5, seed=431, count=20, predicate=lambda v: True):
        rs, _ = sort_with_permutation(r)
        if excess(rs, {1, 5}) < 0:
            continue
        n, m = 5, 2
        gamma = perimeter_slack(rs)
        acc = F(0)
        for mask in range(1, 1 << n):
            members = {i + 1 for i in range(n) if mask >> i & 1}
            if n not in members:
                continue
            eps = excess(rs, members)
            if eps > 0:
                acc += (-1) ** (n - len(members)) * eps**m
        assert acc == -(gamma**m)
