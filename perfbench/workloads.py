"""Workload definitions of the polywidth benchmark.

Every input comes from `polywidth.harness.sample_many` at the benchmark's
seed.  Report and volume workloads are *stratified*: the stream holds a
fixed number of vectors of each stratum (arity, plus chamber or hexagon
condition for the certify workload), in proportion to their natural
frequency, and the strata are interleaved evenly.  Rare strata are the
expensive ones (hexagon condition C reaches the blowup search and costs
0.8-1.6 s against a 30 ms median), so without stratification the number
of them a run meets, and with it every timing, would swing with the seed.
The strata are filled from a fixed number of draws (`pools`), classified
whole, so that set-up does the same work at every seed: scanning until
the rarest stratum is full took from 0.7 to 1.6 times the median number
of draws, depending on the seed.

Why each workload exists
------------------------
certify-5-6   Generic pentagons and hexagons, 2:3, through
              `gromov_width_report`.  The only workload on the upper-bound
              path: the perturbation protocol, the Fano/blowup search, the
              relation search and facet containment.  Moment images are
              rebuilt 2-4 times per report here.  Its p90 is set by
              hexagons that reach the blowup search.  Pentagon reports take
              8-30 ms and hexagon reports 33 ms and up, so with equal shares
              p50 fell in the gap between the two and jumped by 20 % with
              the last few items of a run; at 2:3 it falls among the
              fastest hexagons.
lower-7-8     Heptagons and octagons, 6:1, through `gromov_width_report`.
              Lower-bound-only reports: one caterpillar build and one cross
              LP each, so `HPolytope` vertex enumeration at d = 4, 5 is most
              of the time.  It bypasses the certificate layers; one moment
              image per report predicts no change here from image reuse.
              The mix puts p50 among the heptagons (about 170 ms) and p90
              among the octagons (0.6-1.2 s), away from the boundary between
              the two, and gives about 100 items in a 30 s run; a run
              that has timed fewer goes on until it has 100.
volume-7-9    `combinatorial_volume` on heptagons, octagons and a few
              nonagons (12:7:1).  Touches only `lengths` and `volume`: the
              mechanism workload for a closed-form volume, and the
              no-change control for `polytopes`, `bending`, `width`, `lp`.
verify-suite  `verify.run_verify` over every registered check at a fixed
              sample count (10) and a fixed pool of 16 seeds, one seed per
              pass, one pass per fresh interpreter; the run's seed picks
              where in the pool its passes start.  The only workload that
              builds polytopes from inputs that are not moment polytopes
              (random hulls, unimodular images) and triangulates them for
              `HPolytope.volume`.  It guards a verify-registry refactor.
              Pass time varies by +-25 % across seeds; a pass takes about
              2 s, so a 30 s run makes 13-21 passes and runs differ
              little in which seeds they cover.  The pool is fixed
              because `vh-roundtrip` raises UnboundedPolytopeError at some
              seeds (34005: three collinear random points), a defect of the
              check (see BASELINE.md).

Layer -> end-to-end metric -> workload
--------------------------------------
Per-layer metric (traced run)                       should move
polytopes.HPolytope.{calls,self_s,raised,vertices}  items_per_s, latency_p50_ms
                                                    on lower-7-8; both latencies
                                                    on certify-5-6; items_per_s
                                                    on verify-suite; nothing on
                                                    volume-7-9
polytopes.{normal_fan,is_fano,blowup_chain},        latency_p90_ms on certify-5-6
  width.upper_bound_via_fano_or_blowup
bending.moment_images.*, moment_images_per_item     latency_p50_ms on certify-5-6;
                                                    stays 1 per item on lower-7-8
bending.{is_bending_toric,                          latency_p50_ms on certify-5-6
  validate_perturbation_step}.calls
setup.lengths.is_generic.*                          setup_s on certify-5-6,
                                                    lower-7-8 and volume-7-9
lengths.is_generic.*                                items_per_s on verify-suite;
                                                    latency_p50_ms on certify-5-6
width.{max_axis_cross,relation_bound},              latency_p50_ms on lower-7-8
  lp.solve_lp                                       and certify-5-6
volume.combinatorial_volume.*                       items_per_s and both latencies
                                                    on volume-7-9 only
verify.<group>.s                                    items_per_s on verify-suite
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

DEFAULT_SEED = 1
VERIFY_SAMPLES = 10


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "report" | "volume" | "verify"
    # (arity, stratum label or None for the whole arity, vectors per pass)
    strata: tuple[tuple[int, Optional[str], int], ...] = ()
    # (arity, generic draws classified to fill the arity's labelled strata)
    pools: tuple[tuple[int, int], ...] = ()
    trace_items: int = 0  # items the traced run processes (verify: two passes)


# Stratum counts follow the frequencies in 20,000 draws per arity (seeds
# 101-104): pentagons C2 27.8 %, C3 16.0 %, C4 24.7 %, C5 10.4 %, C6 2.8 %,
# projective 18.4 %; hexagons condition A 54.2 %, B 23.0 %, C 1.5 %,
# none 13.3 %, projective 8.1 %.  Over seeds 1-40 and 401-440 the strata
# filled within 213-416 pentagon and 307-574 hexagon draws.  The pools
# below cover them all; at other seeds about one in twenty falls short and
# is topped up, which adds a third to a half to its set-up time.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "certify-5-6",
            "report",
            strata=(
                (5, "C2", 56), (5, "C3", 32), (5, "C4", 49), (5, "C5", 21),
                (5, "C6", 6), (5, "proj", 36),
                (6, "A", 164), (6, "B", 69), (6, "C", 4), (6, "none", 40),
                (6, "proj", 23),
            ),
            pools=((5, 450), (6, 600)),
            trace_items=160,
        ),
        Workload("lower-7-8", "report", strata=((7, None, 144), (8, None, 24)), trace_items=40),
        Workload(
            "volume-7-9", "volume", strata=((7, None, 144), (8, None, 84), (9, None, 12)),
            trace_items=40,
        ),
        Workload("verify-suite", "verify"),
    )
}


def stratum(r) -> str:
    """Chamber of a pentagon or condition of a hexagon; "proj" when projective."""
    from polywidth.lengths import (
        classify_5gon_chamber,
        singleton_maximal_short,
        sixgon_condition,
        sort_with_permutation,
    )

    rs, _ = sort_with_permutation(r)
    if singleton_maximal_short(rs) is not None:
        return "proj"
    if r.n == 5:
        return classify_5gon_chamber(rs)
    if r.n == 6:
        return sixgon_condition(rs) or "none"
    raise ValueError(f"no strata defined for n={r.n}")


def stream(workload: Workload, seed: int) -> list:
    """The workload's input vectors for `seed`, strata interleaved evenly."""
    from polywidth.harness import sample_many

    keyed = []
    for arity in sorted({n for n, _, _ in workload.strata}):
        quotas = {label: count for n, label, count in workload.strata if n == arity}
        if None in quotas:
            drawn = {None: sample_many(arity, seed, quotas[None])}
        else:
            drawn = _fill(arity, seed, quotas, dict(workload.pools)[arity])
        for order, (label, vectors) in enumerate(sorted(drawn.items(), key=lambda kv: str(kv[0]))):
            for j, r in enumerate(vectors):
                keyed.append(((j + 0.5) / len(vectors), arity, order, r))
    keyed.sort(key=lambda item: item[:3])
    return [r for *_, r in keyed]


def _fill(arity: int, seed: int, quotas: dict, pool: int) -> dict:
    """The first `quotas[label]` vectors of each stratum among the seed's
    generic draws.  The first `pool` draws are classified whole; a stratum
    still short after them is topped up from the draws that follow."""
    from polywidth.harness import sample_many

    drawn = {label: [] for label in quotas}
    for r in sample_many(arity, seed, pool):
        label = stratum(r)
        if len(drawn[label]) < quotas[label]:
            drawn[label].append(r)
    short = {label: count - len(drawn[label]) for label, count in quotas.items()}
    if any(short.values()):
        seen = 0

        def keep(r) -> bool:
            nonlocal seen
            seen += 1
            if seen <= pool:
                return True  # the pool again, already classified
            label = stratum(r)
            if short[label] == 0:
                return False
            short[label] -= 1
            drawn[label].append(r)
            return True

        sample_many(arity, seed, pool + sum(short.values()), predicate=keep)
    return drawn


VERIFY_SEEDS = tuple(1000 * DEFAULT_SEED + j for j in range(16))


def verify_pass_seed(seed: int, k: int) -> int:
    """The `run_verify` seed of pass k of a verify-suite run at `seed`."""
    return VERIFY_SEEDS[(seed + k) % len(VERIFY_SEEDS)]
