"""The polywidth benchmark: one workload at one seed, closed loop.

    python3 perfbench/run.py --workload certify-5-6 --seed 1 --seconds 30 --trace 0

One caller, one process, one thread: each item starts when the previous one
has finished.  Passes run in fresh interpreters (see worker.py), one after
the other, until items have run for `--seconds` (set-up not counted) and at
least MIN_ITEMS calls are timed.
Times are reported at a reference machine speed, measured by a calibration
loop run alongside the items (see worker.py); the printed lines also show
them as timed.  With `--trace 0` the run prints the end-to-end metrics;
with `--trace 1` it runs a fixed number of items traced and the same items
untraced, and prints the per-layer metrics and the tracing overhead.
Workloads and why they exist are in workloads.py.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_LIMIT_S = 170  # a run must end within 180 s
SETUP_SAMPLES = 5  # a run's setup_s is the median set-up time of this many interpreters
MIN_ITEMS = 100  # timed calls per run, so that p90 has ten samples beyond it
VERIFY_GROUPS = ("lengths", "polytopes", "bending", "width", "volume")

END_TO_END = {
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "polytopes.HPolytope.calls": "count",
    "polytopes.HPolytope.self_s": "s",
    "polytopes.HPolytope.raised": "count",
    "polytopes.HPolytope.vertices": "count",
    "polytopes.HPolytope.self_share": "ratio",
    **{
        f"{layer}.{field}": unit
        for layer in (
            "polytopes.normal_fan",
            "polytopes.is_fano",
            "polytopes.blowup_chain",
            "width.upper_bound_via_fano_or_blowup",
            "bending.moment_images",
            "lengths.is_generic",
            "width.max_axis_cross",
            "width.relation_bound",
            "lp.solve_lp",
            "volume.combinatorial_volume",
        )
        for field, unit in (("calls", "count"), ("self_s", "s"))
    },
    # inclusive times of the two layers whose callees are other layers'
    # work: image builds (HPolytope) and the blowup search (fans, relations)
    "bending.moment_images.incl_s": "s",
    "width.upper_bound_via_fano_or_blowup.incl_s": "s",
    "bending.moment_images_per_item": "count/item",
    # is_generic work of one set-up (the rejection sampling of the inputs)
    "setup.lengths.is_generic.calls": "count",
    "setup.lengths.is_generic.self_s": "s",
    "bending.is_bending_toric.calls": "count",
    "bending.validate_perturbation_step.calls": "count",
    **{f"verify.{group}.s": "s" for group in VERIFY_GROUPS},
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    pass


class Runner:
    """Spawns worker passes for one workload and seed, within the run limit."""

    def __init__(self, workload: str, seed: int):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.limit = time.monotonic() + RUN_LIMIT_S

    def spawn(self, **spec) -> dict:
        spec = {"workload": self.workload.name, "seed": self.seed, **spec}
        timeout = self.limit - time.monotonic()
        if timeout <= 0:
            raise BenchError("run limit reached")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker exceeded the run limit: {spec}") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def timed(self, seconds: float) -> tuple[list[dict], list[dict]]:
        """Passes until `seconds` of items have run and MIN_ITEMS calls are
        timed, then setup-only passes up to SETUP_SAMPLES set-ups in all."""
        passes = []
        used = 0.0
        while used < seconds or _calls(passes) < MIN_ITEMS:
            spec = {"budget_s": seconds - used, "min_items": MIN_ITEMS - _calls(passes)}
            passes.append(self.spawn(**{"pass": len(passes), **spec}))
            used += passes[-1]["loop_s"]
        setups = [self.spawn(setup_only=True) for _ in range(SETUP_SAMPLES - len(passes))]
        return setups, passes

    def traced(self) -> tuple[list[dict], list[dict]]:
        """A fixed amount of work traced, and the same work untraced.

        The work is split in two halves run traced-untraced, then
        untraced-traced, so that a drift in machine speed cancels from the
        overhead ratio.
        """
        w = self.workload
        if w.kind == "verify":
            halves = [{"pass": k} for k in range(2)]
        else:
            half = w.trace_items // 2
            halves = [{"start": 0, "max_items": half}, {"start": half, "max_items": half}]
        traced, plain = [], []
        for i, spec in enumerate(halves):
            for trace in (True, False) if i == 0 else (False, True):
                (traced if trace else plain).append(self.spawn(trace=trace, **spec))
        return traced, plain


def _busy(passes: list[dict], scaled: bool = True) -> float:
    """Item seconds, at reference machine speed unless `scaled` is false."""
    return sum(t * (f if scaled else 1) for p in passes for t, _, f in p["times"])


def _items(passes: list[dict]) -> int:
    return sum(u for p in passes for _, u, _ in p["times"])


def _calls(passes: list[dict]) -> int:
    return sum(len(p["times"]) for p in passes)


def end_to_end(setups: list[dict], passes: list[dict], scaled: bool = True) -> dict:
    """The end-to-end metrics, with times at reference machine speed (see
    worker.py) unless `scaled` is false."""

    def at_speed(seconds: float, scale: float) -> float:
        return seconds * scale if scaled else seconds

    # one latency per timed call: a report, a volume, or one registered
    # verify check (its samples run inside the check, out of reach)
    latencies = [1000 * at_speed(t, f) for p in passes for t, _, f in p["times"]]
    if len(latencies) < MIN_ITEMS:
        raise BenchError(f"only {len(latencies)} items completed; too few for p90")
    return {
        "items_per_s": _items(passes) / _busy(passes, scaled),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8],
        "setup_s": statistics.median(
            at_speed(p["setup_s"], p["setup_scale"]) for p in setups + passes
        ),
        "peak_rss_mb": max(p["maxrss_kb"] for p in passes) / 1024,
    }


def per_layer(traced: list[dict], plain: list[dict]) -> dict:
    stats = {layer: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "raised": 0} for layer in LAYERS}
    for p in traced:
        for layer, s in p["trace"]["stats"].items():
            for key in stats[layer]:
                stats[layer][key] += s[key]
    busy = _busy(traced)
    items = _items(traced)
    values = {}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field in stats.get(layer, ()):
            values[name] = stats[layer][field]
    values["polytopes.HPolytope.vertices"] = sum(p["trace"]["vertices"] for p in traced)
    values["polytopes.HPolytope.self_share"] = (
        stats["polytopes.HPolytope"]["self_s"] / _busy(traced, scaled=False)
    )
    values["bending.moment_images_per_item"] = stats["bending.moment_images"]["calls"] / items
    for field in ("calls", "self_s"):
        values[f"setup.lengths.is_generic.{field}"] = statistics.median(
            p["setup_trace"][field] for p in traced
        )
    for group in VERIFY_GROUPS:
        values[f"verify.{group}.s"] = sum(p["groups"].get(group, 0.0) for p in traced)
    values["trace.overhead_ratio"] = busy / _busy(plain)
    return {name: values[name] for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (HERE.parent / "src" / "polywidth" / "__init__.py").is_file():
        print("run.py: no polywidth sources at src/polywidth", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            traced, plain = runner.traced()
            passes = traced + plain
            values, units = per_layer(traced, plain), PER_LAYER
        else:
            setups, passes = runner.timed(args.seconds)
            values, units = end_to_end(setups, passes), END_TO_END
            raw = end_to_end(setups, passes, scaled=False)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for error in p["errors"]:
            print(f"FAILED {error}", file=sys.stderr)
    for name, value in values.items():
        note = f"  (as timed: {raw[name]:.6g})" if args.trace == 0 else ""
        print(f"{name:45s} {value:14.6g} {units[name]}{note}")
    print(f"{'fail_ratio':45s} {failed / max(attempted, 1):14.6g} ({failed}/{attempted})")
    print(
        json.dumps(
            {
                "correct": failed == 0 and attempted > 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
