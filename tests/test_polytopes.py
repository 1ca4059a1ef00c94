import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from polywidth.errors import NotSimpleError, NotSmoothError, UnboundedPolytopeError
from polywidth.lengths import LengthVector, apply_permutation
from polywidth.lp import INFEASIBLE, UNBOUNDED, solve_lp
from polywidth.bending import (
    caterpillar_polytope,
    reshuffle_recipe,
    triple_pairs_polytope_6,
)
from polywidth.polytopes import (
    Fan,
    HalfSpace,
    HPolytope,
    apply_unimodular,
    blowup_chain,
    fan_is_complete,
    fan_is_smooth,
    fans_equal,
    is_delzant,
    is_fano,
    normal_fan,
    polytope_from_json,
    replay_blowup_chain,
    stellar_subdivision,
    support_function,
)

F = Fraction


def square(s=1):
    return HPolytope(
        2,
        [
            HalfSpace((1, 0), F(0)),
            HalfSpace((0, 1), F(0)),
            HalfSpace((-1, 0), F(-s)),
            HalfSpace((0, -1), F(-s)),
        ],
    )


def rectangle_fan():
    return Fan(
        2,
        ((1, 0), (0, 1), (-1, 0), (0, -1)),
        (
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({2, 3}),
            frozenset({3, 0}),
        ),
    )


def test_halfspace_normalization():
    h = HalfSpace.of((F(2, 3), F(-4, 3)), F(5, 3))
    assert h.normal == (1, -2)
    assert h.offset == F(5, 2)
    with pytest.raises(ValueError):
        HalfSpace.of((0, 0), 1)


def test_square_vertices():
    assert square().vertices == (
        (F(0), F(0)),
        (F(0), F(1)),
        (F(1), F(0)),
        (F(1), F(1)),
    )


def test_c2_polytope_vertices_brute_force_oracle():
    image = caterpillar_polytope(LengthVector([1, 2, 3, 4, 7]))
    P = image.polytope
    # oracle: solve every facet pair directly and filter by all halfspaces
    expected = set()
    hs = P.halfspaces
    for i, j in itertools.combinations(range(len(hs)), 2):
        det = hs[i].normal[0] * hs[j].normal[1] - hs[i].normal[1] * hs[j].normal[0]
        if det == 0:
            continue
        x = (hs[i].offset * hs[j].normal[1] - hs[j].offset * hs[i].normal[1]) / det
        y = (hs[i].normal[0] * hs[j].offset - hs[j].normal[0] * hs[i].offset) / det
        if all(h.contains((x, y)) for h in hs):
            expected.add((x, y))
    assert set(P.vertices) == expected
    assert len(P.vertices) == 4


def test_cuboid_vertices_count():
    r = apply_permutation(LengthVector([1, 2, 3, 4, 5, 6]), reshuffle_recipe(6, "B"))
    box = HPolytope(
        3,
        [
            HalfSpace((1, 0, 0), r.entry(2) - r.entry(1)),
            HalfSpace((-1, 0, 0), -(r.entry(2) + r.entry(1))),
            HalfSpace((0, 1, 0), r.entry(4) - r.entry(3)),
            HalfSpace((0, -1, 0), -(r.entry(4) + r.entry(3))),
            HalfSpace((0, 0, 1), r.entry(6) - r.entry(5)),
            HalfSpace((0, 0, -1), -(r.entry(6) + r.entry(5))),
        ],
    )
    assert len(box.vertices) == 8


def test_unbounded_and_empty():
    with pytest.raises(UnboundedPolytopeError):
        HPolytope(2, [HalfSpace((1, 0), F(0)), HalfSpace((0, 1), F(0))])
    with pytest.raises(UnboundedPolytopeError):
        # nonempty, contains a line
        HPolytope(2, [HalfSpace((1, 0), F(0)), HalfSpace((-1, 0), F(-1))])
    empty = HPolytope(1, [HalfSpace((1,), F(1)), HalfSpace((-1,), F(0))])
    assert empty.is_empty() and empty.vertices == ()
    # empty with a nonzero recession cone must still report empty
    empty2 = HPolytope(
        2,
        [
            HalfSpace((1, 0), F(0)),
            HalfSpace((-1, 0), F(1)),
            HalfSpace((0, 1), F(0)),
            HalfSpace((0, -1), F(-1)),
        ],
    )
    assert empty2.is_empty()


@st.composite
def h_systems(draw):
    """Small H-systems in dim 1-4, often bounded by a simplex around 0.

    Offsets lean negative, so most systems contain the origin.  Duplicated
    halfspaces and opposing pairs (which cut the system down to a
    hyperplane) are mixed in on purpose; empty, unbounded and non-simple
    systems arise on their own.
    """
    dim = draw(st.integers(1, 4))
    normal = st.tuples(*[st.integers(-2, 2)] * dim).filter(any)
    offset = st.fractions(min_value=-3, max_value=1, max_denominator=3)
    hs = draw(st.lists(st.builds(HalfSpace.of, normal, offset), max_size=8 - dim))
    if draw(st.booleans()):
        bound = F(draw(st.integers(0, 3)))
        hs += [HalfSpace(tuple(int(k == j) for k in range(dim)), -bound) for j in range(dim)]
        hs.append(HalfSpace((-1,) * dim, -bound))
    if hs:
        hs += draw(st.lists(st.sampled_from(hs), max_size=2))
        if draw(st.booleans()):
            h = draw(st.sampled_from(hs))
            hs.append(HalfSpace(tuple(-u for u in h.normal), -h.offset))
    return dim, draw(st.permutations(hs))


def _nonempty_and_unbounded(dim, hs):
    """Via the exact LP, with x split as x+ - x-: feasible, and some +-x_j unbounded."""
    rows = [tuple(-u for u in h.normal) + h.normal for h in hs]
    rhs = [-h.offset for h in hs]
    if solve_lp([0] * (2 * dim), rows, rhs).status == INFEASIBLE:
        return False, False
    directions = []
    for j in range(dim):
        e = [int(k == j) for k in range(dim)]
        directions += [e + [-c for c in e], [-c for c in e] + e]
    return True, any(solve_lp(c, rows, rhs).status == UNBOUNDED for c in directions)


_APEX_PYRAMID = (
    3,
    [
        HalfSpace((0, 0, 1), F(0)),
        HalfSpace((-1, 0, -1), F(-1)),
        HalfSpace((1, 0, -1), F(-1)),
        HalfSpace((0, -1, -1), F(-1)),
        HalfSpace((0, 1, -1), F(-1)),
    ],
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(system=h_systems())
@example(system=_APEX_PYRAMID)
@example(system=(2, []))
@example(system=(1, [HalfSpace((1,), F(1)), HalfSpace((-1,), F(0))]))
@example(system=(2, [HalfSpace((1, 0), F(0)), HalfSpace((0, 1), F(0)), HalfSpace((1, 1), F(1))]))
def test_vertices_match_brute_force_oracle(system, oracles):
    dim, hs = system
    nonempty, unbounded = _nonempty_and_unbounded(dim, hs)
    if unbounded:
        with pytest.raises(UnboundedPolytopeError):
            HPolytope(dim, hs)
        return
    P = HPolytope(dim, hs)
    assert (P.vertices, P.tight_sets) == oracles.vertices(dim, hs)
    assert P.is_empty() == (not nonempty)


_UNIT_SQUARE = [
    HalfSpace((1, 0), F(0)),
    HalfSpace((0, 1), F(0)),
    HalfSpace((-1, 0), F(-1)),
    HalfSpace((0, -1), F(-1)),
]
_SEGMENT_2D = (2, _UNIT_SQUARE[:3] + [HalfSpace((0, -1), F(0))])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(system=h_systems())
@example(system=(2, _UNIT_SQUARE + [HalfSpace((1, 1), F(0))]))  # redundant, tight at one vertex
@example(system=(2, _UNIT_SQUARE + [_UNIT_SQUARE[2]]))  # duplicated facet
@example(system=_APEX_PYRAMID)
@example(system=_SEGMENT_2D)
def test_faces_match_rank_oracle(system, oracles):
    dim, hs = system
    if _nonempty_and_unbounded(dim, hs)[1]:
        return
    P = HPolytope(dim, hs)
    full, facets, volume = oracles.faces(dim, *oracles.vertices(dim, hs))
    assert P.is_full_dimensional() == full
    if full:
        assert P.facet_indices() == facets
        assert P.pruned().halfspaces == tuple(dict.fromkeys(hs[i] for i in facets))
        assert P.volume() == volume


def test_facets_of_lower_dimensional_and_empty():
    segment = HPolytope(*_SEGMENT_2D)
    assert not segment.is_empty() and not segment.is_full_dimensional()
    for query in (segment.facet_indices, lambda: segment.is_facet(0), segment.pruned):
        with pytest.raises(ValueError):
            query()
    empty = HPolytope(1, [HalfSpace((1,), F(1)), HalfSpace((-1,), F(0))])
    assert empty.facet_indices() == ()
    assert not empty.is_facet(0)
    assert empty.pruned() is empty


def test_is_facet():
    P = HPolytope(2, list(square().halfspaces) + [HalfSpace((1, 0), F(-1))])
    assert not P.is_facet(4)
    assert P.facet_indices() == (0, 1, 2, 3)
    image = caterpillar_polytope(LengthVector([1, 2, 3, 4, 7]))
    assert all(image.polytope.is_facet(i) for i in range(len(image.polytope.halfspaces)))
    tri = HPolytope(
        2,
        [HalfSpace((1, 0), F(0)), HalfSpace((0, 1), F(0)), HalfSpace((-1, -1), F(-1))],
    )
    assert tri.facet_indices() == (0, 1, 2)


def test_axis_segment():
    P = square()
    assert P.axis_segment((F(1, 2), F(1, 2)), 0) == (F(-1, 2), F(1, 2))
    assert P.axis_segment((F(1, 2), F(2)), 0) is None
    assert P.axis_segment((F(2), F(1, 2)), 1) is None


def test_axis_segment_matches_pentagon_formula():
    # vertical slice length of the pentagon image vs its closed form
    r = LengthVector([2, 3, 3, 4, 5])
    r1, r2, r3, r4, r5 = r.entries
    image = caterpillar_polytope(r)

    def formula(d1):
        return min(
            2 * r4,
            r5 + r4 - abs(d1 - r3),
            d1 + r3 - r5 + r4,
            2 * min(d1, r3),
        )

    for d1 in (F(2), F(5, 2), F(3), F(7, 2), F(4), F(9, 2), F(5)):
        lo = max(r2 - r1, F(0))
        assert lo <= d1 <= r1 + r2
        seg = image.polytope.axis_segment((d1, F(0)), 1)
        expected = formula(d1)
        if expected <= 0:
            assert seg is None
        else:
            assert seg is not None
            assert seg[1] - seg[0] == expected


def test_axis_segment_matches_hexagon_formula():
    # middle-diagonal slice length of the three-pairs image vs closed form
    r = LengthVector([1, 2, 3, 4, 5, 6])
    r1, r2, r3, r4, r5, r6 = r.entries
    image = triple_pairs_polytope_6(r)

    def formula(d1, d3):
        return min(
            2 * r3,
            r3 + r4 - abs(d1 - d3),
            d1 + d3 - r4 + r3,
            2 * min(d1, d3),
        )

    for d1 in (F(3, 2), F(2), F(5, 2), F(3)):
        for d3 in (F(3, 2), F(2), F(3), F(4), F(11)):
            seg = image.polytope.axis_segment((d1, F(0), d3), 1)
            expected = formula(d1, d3)
            if expected <= 0:
                assert seg is None
            else:
                assert seg is not None and seg[1] - seg[0] == expected


def test_volume_examples(oracles):
    assert square(F(3, 2)).volume() == F(9, 4)
    tri = HPolytope(
        2,
        [
            HalfSpace((1, 0), F(0)),
            HalfSpace((0, 1), F(0)),
            HalfSpace((-1, -1), F(-5)),
        ],
    )
    assert tri.volume() == F(25, 2)
    image = caterpillar_polytope(LengthVector([1, 2, 3, 4, 7]))
    vol = image.polytope.volume()
    assert vol > 0
    assert vol == oracles.shoelace(image.polytope.vertices)
    # box volume = product of side lengths
    box = HPolytope(
        3,
        [
            HalfSpace((1, 0, 0), F(1)),
            HalfSpace((-1, 0, 0), F(-3)),
            HalfSpace((0, 1, 0), F(0)),
            HalfSpace((0, -1, 0), F(-5)),
            HalfSpace((0, 0, 1), F(2)),
            HalfSpace((0, 0, -1), F(-4)),
        ],
    )
    assert box.volume() == 2 * 5 * 2
    # lower-dimensional: zero volume
    segment = HPolytope(
        2,
        [
            HalfSpace((1, 0), F(0)),
            HalfSpace((-1, 0), F(-1)),
            HalfSpace((0, 1), F(0)),
            HalfSpace((0, -1), F(0)),
        ],
    )
    assert segment.volume() == 0


def test_normal_fan_square():
    fan = normal_fan(square())
    assert set(fan.rays) == {(1, 0), (0, 1), (-1, 0), (0, -1)}
    assert len(fan.maximal_cones) == 4
    assert fan_is_smooth(fan) and fan_is_complete(fan)


def test_normal_fan_c2():
    image = caterpillar_polytope(LengthVector([1, 2, 3, 4, 7]))
    fan = normal_fan(image.polytope)
    assert set(fan.rays) == {(0, 1), (-1, 0), (1, -1), (1, 0)}


def test_normal_fan_chopped_cuboid():
    sigma = apply_permutation(LengthVector([3, 3, 3, 5, 5, 5]), reshuffle_recipe(6, "C"))
    fan = normal_fan(triple_pairs_polytope_6(sigma).polytope)
    expected = {
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
        (-1, 1, 1), (1, -1, 1), (1, 1, -1),
    }
    assert set(fan.rays) == expected


def test_normal_fan_rejects_non_simple():
    pyramid = HPolytope(
        3,
        [
            HalfSpace((0, 0, 1), F(0)),
            HalfSpace((1, 0, -1), F(-1)),
            HalfSpace((-1, 0, -1), F(-1)),
            HalfSpace((0, 1, -1), F(-1)),
            HalfSpace((0, -1, -1), F(-1)),
        ],
    )
    with pytest.raises(NotSimpleError):
        normal_fan(pyramid)


def test_is_delzant():
    assert is_delzant(square())
    tri = HPolytope(
        2,
        [
            HalfSpace((1, 0), F(0)),
            HalfSpace((0, 1), F(0)),
            HalfSpace((-1, -2), F(-2)),
        ],
    )
    assert not is_delzant(tri)
    for entries in ([1, 2, 3, 4, 7], [1, 2, 5, 6, 7], [2, 3, 4, 6, 8], [2, 3, 3, 4, 5], [3, 4, 5, 5, 6]):
        rs = LengthVector(entries)
        chamber = {"C2": "C2", "C3": "C3"}
        from polywidth.lengths import classify_5gon_chamber

        case = classify_5gon_chamber(rs)
        shuffled = apply_permutation(rs, reshuffle_recipe(5, case))
        assert is_delzant(caterpillar_polytope(shuffled).polytope)


def test_is_fano():
    cp2 = Fan(
        2,
        ((1, 0), (0, 1), (-1, -1)),
        (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})),
    )
    assert is_fano(cp2)
    image = caterpillar_polytope(LengthVector([1, 2, 3, 4, 7]))
    assert is_fano(normal_fan(image.polytope))
    c6 = caterpillar_polytope(LengthVector([3, 4, 5, 5, 6]))
    fan6 = normal_fan(c6.polytope)
    assert len(fan6.rays) == 7
    assert not is_fano(fan6)
    with pytest.raises(NotSmoothError):
        is_fano(
            Fan(
                2,
                ((1, 0), (-1, 2)),
                (frozenset({0, 1}), frozenset({0, 1})),
            )
        )


def test_blowup_chain_c6():
    c6 = normal_fan(caterpillar_polytope(LengthVector([3, 4, 5, 5, 6])).polytope)
    steps = blowup_chain(c6, rectangle_fan())
    assert steps is not None and len(steps) == 3
    assert {s.new_ray for s in steps} == {(-1, 1), (1, -1), (1, 1)}
    assert replay_blowup_chain(rectangle_fan(), steps, c6)


def test_blowup_chain_chopped_cuboid():
    sigma = apply_permutation(LengthVector([3, 3, 3, 5, 5, 5]), reshuffle_recipe(6, "C"))
    fine = normal_fan(triple_pairs_polytope_6(sigma).polytope)
    cube = Fan(
        3,
        ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)),
        tuple(
            frozenset({i, j, k})
            for i in (0, 1)
            for j in (2, 3)
            for k in (4, 5)
        ),
    )
    steps = blowup_chain(fine, cube)
    assert steps is not None and len(steps) == 3
    assert {s.new_ray for s in steps} == {(-1, 1, 1), (1, -1, 1), (1, 1, -1)}
    # each new ray is the generator sum of the subdivided octant
    for step in steps:
        total = tuple(sum(col) for col in zip(*step.cone_rays))
        assert total == step.new_ray


def test_blowup_chain_identity_and_failure():
    fan = rectangle_fan()
    assert blowup_chain(fan, fan) == []
    cp2 = Fan(
        2,
        ((1, 0), (0, 1), (-1, -1)),
        (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})),
    )
    assert blowup_chain(fan, cp2) is None  # rays not nested


def test_stellar_subdivision_smoothness():
    fan = rectangle_fan()
    sub = stellar_subdivision(fan, 0, (1, 1))
    assert fan_is_smooth(sub) and fan_is_complete(sub)
    assert len(sub.rays) == 5 and len(sub.maximal_cones) == 5


def test_apply_unimodular():
    P = square(2)
    assert apply_unimodular(P, ((1, 0), (0, 1)), (0, 0)) == P
    M = ((1, 1), (0, 1))
    image = apply_unimodular(P, M, (3, -1))
    assert image.volume() == P.volume()
    assert set(image.vertices) == {
        (F(3), F(-1)),
        (F(5), F(1)),
        (F(5), F(-1)),
        (F(7), F(1)),
    }
    with pytest.raises(ValueError):
        apply_unimodular(P, ((2, 0), (0, 1)), (0, 0))


def test_support_function_round_trip():
    P = square(3)
    support = support_function(P)
    assert support[(1, 0)] == 0 and support[(-1, 0)] == -3


def test_json_round_trip():
    P = caterpillar_polytope(LengthVector([1, 2, 3, 4, 7])).polytope
    Q = polytope_from_json(P.to_json())
    assert Q == P
    assert Q.to_json() == P.to_json()


def test_json_normals_made_primitive():
    data = {
        "dim": 2,
        "halfspaces": [
            {"normal": [2, 0], "offset": "0"},
            {"normal": [1, 0], "offset": "0"},
            {"normal": [0, 1], "offset": "0"},
            {"normal": [-1, -1], "offset": "-1"},
        ],
    }
    P = polytope_from_json(data)
    assert P.halfspaces[0] == HalfSpace((1, 0), F(0))
    fan = normal_fan(P)
    assert len(fan.maximal_cones) == 3
    assert set(fan.rays) == {(1, 0), (0, 1), (-1, -1)}
    data["halfspaces"][0] = {"normal": [0, 3], "offset": "1"}
    assert polytope_from_json(data).halfspaces[0] == HalfSpace((0, 1), F(1, 3))


def test_fans_equal_up_to_ordering():
    a = rectangle_fan()
    b = Fan(
        2,
        ((0, -1), (-1, 0), (0, 1), (1, 0)),
        (
            frozenset({3, 2}),
            frozenset({2, 1}),
            frozenset({1, 0}),
            frozenset({0, 3}),
        ),
    )
    assert fans_equal(a, b)
