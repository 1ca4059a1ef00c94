"""Registry completeness and a smoke run of the harness."""

import pytest

from polywidth.verify import REGISTRY, run_verify

# every module invariant declared in the package must appear here; adding
# one without registering it fails this census
EXPECTED_CHECKS = {
    "lengths": {
        "short-long-duality",
        "width-formula-permutation-invariance",
        "width-formula-sorted-min",
        "singleton-maximal-short-iff",
        "pentagon-chamber-total",
    },
    "polytopes": {
        "vh-roundtrip",
        "volume-unimodular-invariance",
        "fano-offset-independence",
        "blowup-ray-count",
        "axis-segment-concavity",
    },
    "bending": {
        "caterpillar-nonempty-iff-closed",
        "chart5-consistency",
        "chart6-consistency",
        "pentagon-toricity-ties",
        "perturbation-offsets-linear",
        "reshuffle-coherence",
    },
    "width": {
        "crossfit-replay",
        "lp-vs-grid-2d",
        "lower-bound-dominance-5",
        "lower-bound-dominance-6",
        "upper-certificate-replay",
        "bound-sandwich",
        "perturbation-two-step-stability",
    },
    "volume": {
        "projective-volume-equality",
        "volume-permutation-invariance",
        "volume-ratio-constant",
    },
}


def test_registry_census():
    by_group: dict[str, set] = {}
    for name, (group, _fn) in REGISTRY.items():
        by_group.setdefault(group, set()).add(name)
    assert by_group == EXPECTED_CHECKS
    assert len(REGISTRY) == sum(len(v) for v in EXPECTED_CHECKS.values())


def test_small_run_all_green():
    report = run_verify(samples=6, seed=11)
    assert report.ok
    failing = [r.name for r in report.results if r.failed]
    assert failing == []


def test_vh_roundtrip_skips_collinear_points():
    # this seed draws three collinear points, whose hull is no polygon
    report = run_verify(samples=20, seed=34005, names=["vh-roundtrip"])
    assert report.results[0].failed == 0
    assert report.results[0].passed == 20


# the checks that run (are not skipped) under each arity filter
RUN_AT_ARITY = {
    4: {
        "bound-sandwich",
        "caterpillar-nonempty-iff-closed",
        "projective-volume-equality",
        "short-long-duality",
        "singleton-maximal-short-iff",
        "volume-permutation-invariance",
        "width-formula-permutation-invariance",
        "width-formula-sorted-min",
    },
    5: {
        "axis-segment-concavity",
        "bound-sandwich",
        "caterpillar-nonempty-iff-closed",
        "chart5-consistency",
        "crossfit-replay",
        "fano-offset-independence",
        "lower-bound-dominance-5",
        "lp-vs-grid-2d",
        "pentagon-chamber-total",
        "pentagon-toricity-ties",
        "perturbation-offsets-linear",
        "perturbation-two-step-stability",
        "projective-volume-equality",
        "reshuffle-coherence",
        "short-long-duality",
        "singleton-maximal-short-iff",
        "upper-certificate-replay",
        "vh-roundtrip",
        "volume-permutation-invariance",
        "volume-ratio-constant",
        "volume-unimodular-invariance",
        "width-formula-permutation-invariance",
        "width-formula-sorted-min",
    },
    6: {
        "axis-segment-concavity",
        "bound-sandwich",
        "caterpillar-nonempty-iff-closed",
        "chart6-consistency",
        "crossfit-replay",
        "lower-bound-dominance-6",
        "perturbation-offsets-linear",
        "perturbation-two-step-stability",
        "projective-volume-equality",
        "short-long-duality",
        "singleton-maximal-short-iff",
        "upper-certificate-replay",
        "vh-roundtrip",
        "volume-permutation-invariance",
        "volume-ratio-constant",
        "volume-unimodular-invariance",
        "width-formula-permutation-invariance",
        "width-formula-sorted-min",
    },
    7: {
        "projective-volume-equality",
        "short-long-duality",
        "singleton-maximal-short-iff",
        "width-formula-sorted-min",
    },
}


def test_n_filter_skips_other_arities():
    report = run_verify(samples=4, seed=11, n=5)
    names = {r.name: r for r in report.results}
    assert names["chart6-consistency"].skipped
    assert not names["chart5-consistency"].skipped
    assert report.ok
    for n, expected in RUN_AT_ARITY.items():
        report = run_verify(samples=1, seed=11, n=n)
        assert {r.name for r in report.results if not r.skipped} == expected, n
        assert report.ok


def test_unknown_check_name_is_rejected():
    with pytest.raises(ValueError, match="no-such-check"):
        run_verify(names=["short-long-duality", "no-such-check"])


def test_arity_without_a_registered_check_is_rejected():
    with pytest.raises(ValueError, match="n = 9"):
        run_verify(samples=2, n=9)
    with pytest.raises(ValueError, match="n = 4"):
        run_verify(names=["vh-roundtrip", "chart5-consistency"], n=4)
    # a check registered at n may still skip when none of its draws qualify
    (result,) = run_verify(samples=1, seed=11, n=5, names=["blowup-ray-count"]).results
    assert result.skipped and result.failed == 0


@pytest.mark.parametrize(
    "kwargs", [{"samples": 0}, {"samples": -3}, {"max_denominator": 0}]
)
def test_budget_below_one_is_rejected(kwargs):
    with pytest.raises(ValueError):
        run_verify(names=["short-long-duality"], **kwargs)


def test_failures_carry_replayable_inputs():
    from polywidth.verify import CheckResult

    result = CheckResult("demo")
    result.record(False, "1 2 3 4 7")
    assert result.failures == ["1 2 3 4 7"]
    assert result.failed == 1
