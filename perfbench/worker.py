"""One pass of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py '<json spec>'

The package keeps process-global caches (`polytopes._FANO_CACHE`,
`volume._RATIO_CACHE`), so every pass runs in its own interpreter, cold, as
a command-line user's would.  The pass imports polywidth and builds its
inputs (the set-up, timed), then runs items one at a time until its input
list (or the `start`/`max_items` slice of it) ends or `budget_s` seconds of
items have run and at least `min_items` calls are timed (verify passes
always finish).  Each output is checked as soon as its item is timed, and
then dropped.  The last line of standard output is a JSON object.

The machine this runs on is shared, and its speed changes by up to 2x
within seconds.  So the pass times a short calibration loop before and
after set-up and every `SEGMENT_S` seconds of items, and records with each
time the factor that scales it to the reference speed, at which the loop
takes `REF_CAL_S`.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden.json"

CAL_LOOPS = 2500
REF_CAL_S = 0.010  # calibration time that defines the reference machine speed
SEGMENT_S = 0.5  # item time between calibrations


def calibrate() -> float:
    """Seconds for a fixed loop of Fraction arithmetic, the program's own kind
    of work; it tracks how fast the shared machine runs at the moment."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, CAL_LOOPS):
        acc += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


def _scale(before: float, after: float) -> float:
    """Factor taking a time measured between two calibrations to reference speed."""
    return 2 * REF_CAL_S / (before + after)


def _inputs(workload, seed: int, k: int) -> list:
    from workloads import stream, verify_pass_seed

    if workload.kind == "verify":
        from polywidth.verify import REGISTRY

        return [(name, verify_pass_seed(seed, k)) for name in REGISTRY]
    return stream(workload, seed)


def _runner(kind: str):
    """The function computing one item; it returns (output, samples counted)."""
    if kind == "report":
        from polywidth import gromov_width_report

        return lambda r: (gromov_width_report(r), 1)
    if kind == "volume":
        from polywidth import volume

        # looked up at call time, so that a traced run sees the wrapper
        return lambda r: (volume.combinatorial_volume(r), 1)
    from polywidth.verify import run_verify
    from workloads import VERIFY_SAMPLES

    def verify_check(item):
        name, seed = item
        result = run_verify(samples=VERIFY_SAMPLES, seed=seed, names=[name]).results[0]
        return result, result.passed + result.failed

    return verify_check


def _check_item(workload, item, output) -> str:
    """Raises unless the output is correct; returns its canonical digest."""
    from checks import check_report, check_volume, digest

    if workload.kind == "report":
        check_report(output)
    elif workload.kind == "volume":
        check_volume(item, output)
    elif output.failed:
        raise AssertionError(f"verify check {output.name} failed {output.failed} samples")
    return digest(output.to_json())


def run_pass(spec: dict, golden=None) -> dict:
    """Runs one pass as `spec` says, in this process; see the module docstring.

    `golden` is the list of expected digests for this pass, or None.
    """
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    cal = calibrate()
    start = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import polywidth  # noqa: F401  (the import is part of set-up)

    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        # set-up is traced on its own, so its is_generic calls are a figure
        # of their own and not mixed into the items'
        tracer = Tracer()
        tracer.install()
    items = _inputs(workload, spec["seed"], spec.get("pass", 0))
    run_item = _runner(workload.kind)
    setup_s = time.perf_counter() - start
    after = calibrate()
    result = {
        "setup_s": setup_s,
        "setup_scale": _scale(cal, after),
        "attempted": 0,
        "failed": 0,
        "times": [],  # [seconds, samples, scale to reference speed] per timed call
        "errors": [],
        "digests": [],
    }
    if tracer is not None:
        tracer.uninstall()
        result["setup_trace"] = dict(tracer.stats["lengths.is_generic"])
        tracer = Tracer()
    cal = after
    if spec.get("setup_only"):
        return result
    first = spec.get("start", 0)
    items = items[first : first + (spec.get("max_items") or len(items))]
    budget = spec.get("budget_s")
    min_items = spec.get("min_items", 0)
    groups: dict[str, float] = {}
    segment: list[list] = []  # timed calls waiting for the closing calibration
    timed = 0
    checking = 0.0  # seconds spent checking outputs, left out of loop_s
    loop_start = segment_start = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        for index, item in enumerate(items, start=first):
            if budget is not None and workload.kind != "verify" and timed >= min_items:
                if time.perf_counter() - loop_start - checking >= budget:
                    break
            error = None
            t0 = time.perf_counter()
            try:
                output, units = run_item(item)
            except Exception as exc:  # a raising item is a failed item, not a crash
                output, units, error = None, 1, repr(exc)
            else:
                elapsed = time.perf_counter() - t0
                segment.append([elapsed, units])
                timed += 1
                if workload.kind == "verify":
                    group = _verify_group(item[0])
                    groups[group] = groups.get(group, 0.0) + elapsed
            # checked now and dropped, so no output outlives its item; the
            # tracer is off meanwhile, so checks are not counted as work
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.uninstall()
            _record(result, workload, index, item, output, units, error, golden)
            if tracer is not None:
                tracer.install()
            output = None
            checking += time.perf_counter() - t0
            if time.perf_counter() - segment_start >= SEGMENT_S:
                cal = _close(segment, cal, result["times"])
                segment_start = time.perf_counter()
        if segment:
            _close(segment, cal, result["times"])
    finally:
        result["loop_s"] = time.perf_counter() - loop_start - checking
        if tracer is not None:
            tracer.uninstall()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["groups"] = groups
    if tracer is not None:
        result["trace"] = {"stats": dict(tracer.stats), "vertices": tracer.vertices}
    return result


def _record(result: dict, workload, index: int, item, output, units: int, error, golden) -> None:
    """Checks one item's output against the oracles and the golden digest."""
    result["attempted"] += units
    got = None
    if error is None:
        try:
            got = _check_item(workload, item, output)
            if golden is not None and index < len(golden) and got != golden[index]:
                error = f"digest {got} differs from golden {golden[index]}"
        except Exception as exc:  # a check that cannot complete fails the item
            error = repr(exc)
    result["digests"].append(got)
    if error is not None:
        result["failed"] += max(units, 1)
        if len(result["errors"]) < 5:
            result["errors"].append(f"item {index}: {error}")


def _close(segment: list[list], before: float, times: list) -> float:
    """Moves the segment's calls to `times` with their scale; returns the new calibration."""
    after = calibrate()
    scale = _scale(before, after)
    times.extend([elapsed, units, scale] for elapsed, units in segment)
    segment.clear()
    return after


def _verify_group(name: str) -> str:
    from polywidth.verify import REGISTRY

    return REGISTRY[name][0]


def load_golden(spec: dict):
    """Expected digests for the pass: report and volume workloads at the
    default seed, every verify pass (their seeds come from a fixed pool)."""
    from workloads import DEFAULT_SEED, WORKLOADS, verify_pass_seed

    entry = json.loads(GOLDEN.read_text()).get(spec["workload"]) if GOLDEN.is_file() else None
    if entry is None:
        return None
    if WORKLOADS[spec["workload"]].kind == "verify":
        return entry.get(str(verify_pass_seed(spec["seed"], spec.get("pass", 0))))
    return entry if spec["seed"] == DEFAULT_SEED else None


def main() -> None:
    spec = json.loads(sys.argv[1])
    print(json.dumps(run_pass(spec, load_golden(spec))))


if __name__ == "__main__":
    main()
