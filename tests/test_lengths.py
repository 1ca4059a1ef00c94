from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from polywidth.errors import EmptyModuliError, NonGenericError
from polywidth.harness import sample_many
from polywidth.lengths import (
    ChamberSignature,
    LengthVector,
    apply_permutation,
    classify_5gon_chamber,
    excess,
    is_generic,
    is_long,
    is_short,
    maximal_short_sets,
    perimeter_slack,
    short_sets,
    singleton_maximal_short,
    sixgon_condition,
    sort_with_permutation,
    width_formula,
)


def test_length_vector_validation():
    with pytest.raises(ValueError):
        LengthVector([1, 2, 3])
    with pytest.raises(ValueError):
        LengthVector([1, 2, 3, 0])
    with pytest.raises(ValueError):
        LengthVector([1, 2, 3, -1])
    assert LengthVector(["1/2", 1, 2, 3]).entry(1) == Fraction(1, 2)


def test_excess_examples():
    assert excess(LengthVector([1, 2, 3, 4, 7]), {1, 5}) == -1
    assert excess(LengthVector([1, 1, 1, 1]), {1, 2}) == 0
    assert excess(LengthVector([1, 2, 3, 4, 5, 6]), {1, 2, 3, 4}) == -1
    with pytest.raises(IndexError):
        excess(LengthVector([1, 2, 3, 4]), {0})
    with pytest.raises(IndexError):
        excess(LengthVector([1, 2, 3, 4]), {5})


def test_excess_matches_oracle(oracles):
    for r in sample_many(5, seed=101, count=20):
        for mask in range(1, 32):
            subset = {i + 1 for i in range(5) if mask >> i & 1}
            assert excess(r, subset) == oracles.excess(r.entries, subset)


def test_is_generic_examples(oracles):
    assert not is_generic(LengthVector([1, 1, 1, 1]))
    assert is_generic(LengthVector([1, 2, 3, 4, 7]))
    entries = [3, 3, 3, 5, 5, 5]
    assert oracles.generic(entries)  # oracle computed first
    assert is_generic(LengthVector(entries))
    # a wall vector: the last edge exactly balances the other three
    assert not is_generic(LengthVector([1, 1, 1, 3]))


def test_is_generic_matches_oracle(oracles):
    from polywidth.harness import sample_raw

    for attempt in range(60):
        r = sample_raw(5, seed=103, attempt=attempt, max_denominator=2)
        assert is_generic(r) == oracles.generic(r.entries)


@st.composite
def mixed_denominator_vectors(draw, max_n=9):
    """n = 4..max_n entries with denominators up to 12; half of them on a planted wall.

    A wall is planted by picking a subset S and an index j in it and setting
    entry j to |rest|, where rest is the excess of S without j: then S or
    the complement of S plus j balances exactly.
    """
    n = draw(st.integers(4, max_n))
    entry = st.fractions(min_value=Fraction(1, 12), max_value=10, max_denominator=12)
    entries = draw(st.lists(entry, min_size=n, max_size=n))
    planted = draw(st.booleans())
    if planted:
        subset = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
        j = draw(st.sampled_from(sorted(subset)))
        rest = sum(e if i in subset else -e for i, e in enumerate(entries) if i != j)
        assume(rest != 0)
        entries[j] = abs(rest)
    return entries, planted


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=mixed_denominator_vectors())
def test_is_generic_integer_walk_matches_oracle(drawn, oracles):
    entries, planted = drawn
    expected = oracles.generic(entries)
    assert not (planted and expected)
    assert is_generic(LengthVector(entries)) == expected


def test_short_long_examples(oracles):
    assert is_short(LengthVector([1, 2, 3, 4, 7]), {1, 5})
    r6 = LengthVector([1, 2, 2, 3, 4, 7])
    assert oracles.excess(r6.entries, {4, 6}) > 0
    assert is_long(r6, {4, 6})
    r = LengthVector([1, 2, 3, 4, 5, 6])
    assert oracles.excess(r.entries, {1, 2, 6}) < 0
    assert is_short(r, {1, 2, 6})
    with pytest.raises(NonGenericError):
        is_short(LengthVector([1, 1, 1, 1]), {1, 2})


def test_short_long_duality():
    for r in sample_many(5, seed=107, count=30):
        full = frozenset(range(1, 6))
        for mask in range(1, 32):
            subset = frozenset(i + 1 for i in range(5) if mask >> i & 1)
            assert is_short(r, subset) != is_long(r, subset)
            assert is_short(r, subset) == is_long(r, full - subset)


def test_maximal_short_sets(oracles):
    # {4} maximal for (1,1,1,2): every pair {i,4} is long
    msets = maximal_short_sets(LengthVector([1, 1, 1, 2]))
    assert frozenset({4}) in msets
    shorts = short_sets(LengthVector([1, 2, 3, 4, 7]))
    assert frozenset({5}) in shorts and frozenset({1, 5}) in shorts
    assert frozenset({5}) not in maximal_short_sets(LengthVector([1, 2, 3, 4, 7]))
    r = LengthVector([1, 2, 2, 3, 4, 7])
    assert is_short(r, {6}) and is_short(r, {1, 6})
    assert frozenset({6}) not in maximal_short_sets(r)
    # oracle cross-check: maximality against the full short family
    for vec in sample_many(5, seed=109, count=10):
        family = oracles.short_sets(vec.entries)
        expected = {
            s
            for s in family
            if all(s | {j} not in family for j in range(1, 6) if j not in s)
        }
        assert set(maximal_short_sets(vec)) == expected


def test_singleton_maximal_short():
    assert singleton_maximal_short(LengthVector([1, 1, 1, 2])) == 4
    assert singleton_maximal_short(LengthVector([1, 2, 3, 4, 7])) is None
    with pytest.raises(EmptyModuliError):
        singleton_maximal_short(LengthVector([1, 1, 1, 1, 5]))
    with pytest.raises(ValueError):
        singleton_maximal_short(LengthVector([2, 1, 3, 4]))


def test_sort_with_permutation():
    rs, perm = sort_with_permutation(LengthVector([3, 1, 2, 5]))
    assert rs == LengthVector([1, 2, 3, 5])
    assert perm == (2, 3, 1, 4)
    assert apply_permutation(LengthVector([3, 1, 2, 5]), perm) == rs
    # stability on ties: equal entries keep input order
    rs, perm = sort_with_permutation(LengthVector([2, 2, 1, 2]))
    assert perm == (3, 1, 2, 4)
    # identity on sorted input
    _, perm = sort_with_permutation(LengthVector([1, 2, 3, 4]))
    assert perm == (1, 2, 3, 4)


def test_width_formula_examples():
    assert width_formula(LengthVector([1, 2, 3, 4, 7])) == 2
    assert width_formula(LengthVector([1, 1, 1, 2])) == 1
    assert width_formula(LengthVector([1, 2, 3, 4, 5, 6])) == 2
    with pytest.raises(NonGenericError):
        width_formula(LengthVector([1, 1, 1, 1]))


def test_width_formula_sorted_form():
    for r in sample_many(6, seed=113, count=25):
        rs, _ = sort_with_permutation(r)
        assert width_formula(r) == min(2 * rs.entry(1), perimeter_slack(rs))


def test_perimeter_slack_vs_pair():
    # {1,n} long exactly when the slack is below 2 r1
    for r in sample_many(5, seed=127, count=40):
        rs, _ = sort_with_permutation(r)
        gamma = perimeter_slack(rs)
        assert is_long(rs, {1, 5}) == (gamma < 2 * rs.entry(1))


@pytest.mark.parametrize(
    "entries,expected",
    [
        ([1, 2, 3, 4, 7], "C2"),
        ([1, 2, 5, 6, 7], "C3"),
        ([2, 3, 4, 6, 8], "C4"),
        ([2, 3, 3, 4, 5], "C5"),
        ([3, 4, 5, 5, 6], "C6"),
        ([1, 1, 1, 1, 3], "C1"),
    ],
)
def test_classify_5gon_chamber(entries, expected):
    assert classify_5gon_chamber(LengthVector(entries)) == expected


def test_classify_requires_sorted_generic():
    with pytest.raises(ValueError):
        classify_5gon_chamber(LengthVector([2, 1, 3, 4, 7]))
    with pytest.raises(NonGenericError):
        classify_5gon_chamber(LengthVector([1, 1, 1, 1, 2]))


def test_classify_total_on_samples():
    for r in sample_many(5, seed=131, count=200):
        rs, _ = sort_with_permutation(r)
        assert classify_5gon_chamber(rs) in {"C1", "C2", "C3", "C4", "C5", "C6"}


def test_sixgon_condition(oracles):
    r = LengthVector([1, 2, 3, 4, 5, 6])
    assert oracles.excess(r.entries, (1, 2, 3, 4)) < 0
    assert oracles.excess(r.entries, (1, 2, 6)) < 0
    assert sixgon_condition(r) == "A"
    r = LengthVector([1, 2, 2, 3, 4, 7])
    assert oracles.excess(r.entries, (1, 2, 6)) > 0
    assert oracles.excess(r.entries, (4, 6)) > 0
    assert sixgon_condition(r) == "B"
    r = LengthVector([3, 3, 3, 5, 5, 5])
    assert oracles.excess(r.entries, (5, 6)) < 0
    assert oracles.excess(r.entries, (2, 3, 6)) < 0
    assert sixgon_condition(r) == "C"
    assert sixgon_condition(LengthVector([2, 2, 2, 2, 2, 5])) is None
    with pytest.raises(ValueError):
        sixgon_condition(LengthVector([1, 1, 1, 1, 1, 4]))  # projective


def test_chamber_signature_consistency():
    sig = ChamberSignature(n=5, shorts=short_sets(LengthVector([1, 2, 3, 4, 7])))
    assert frozenset({5}) in sig.shorts
    with pytest.raises(ValueError):
        ChamberSignature(n=4, shorts=frozenset({frozenset({1}), frozenset({2, 3, 4})}))
