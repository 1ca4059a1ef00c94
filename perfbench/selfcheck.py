"""Self-check of the benchmark.

    python3 perfbench/selfcheck.py

1. Every workload prints every metric declared in BENCHMARK.json, with its
   unit, in both modes, and its outputs are correct.
2. A deliberately altered golden digest makes an item fail.
3. A traced pass leaves every `polywidth` module and class attribute as it
   found it.

Exits non-zero on the first failed check.  Takes about three minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import run_pass  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def _fail(message: str) -> None:
    raise SystemExit(f"selfcheck FAILED: {message}")


def check_metrics() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    for name in WORKLOADS:
        for trace, units in expected.items():
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(DEFAULT_SEED), "--seconds", "5", "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT,
            )
            if proc.returncode != 0:
                _fail(f"{name} --trace {trace} exited {proc.returncode}: {proc.stderr[-1000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                _fail(f"{name} --trace {trace}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != units:
                _fail(f"{name} --trace {trace}: metrics {got} differ from BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                _fail(f"{name} --trace {trace}: outputs incorrect: {proc.stderr[-1000:]}")
            print(f"ok  {name} --trace {trace}: {len(got)} metrics with units, "
                  f"{result['attempted']} attempted, 0 failed")


def check_altered_digest() -> None:
    spec = {"workload": "certify-5-6", "seed": DEFAULT_SEED, "max_items": 3}
    golden = json.loads((HERE / "golden.json").read_text())["certify-5-6"]
    if run_pass(spec, golden)["failed"]:
        _fail("recorded digests do not match")
    altered = list(golden)
    altered[1] = "0" * len(altered[1])
    result = run_pass(spec, altered)
    if not result["failed"] / result["attempted"] > 0:
        _fail("an altered digest did not count as a failure")
    print(f"ok  altered digest: fail_ratio {result['failed']}/{result['attempted']}")


def _bindings() -> dict:
    found = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "polywidth":
            continue
        owners = [module] + [v for v in vars(module).values() if isinstance(v, type)]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                found[(name, getattr(owner, "__qualname__", ""), attr)] = value
    return found


def check_restore() -> None:
    from tracer import Tracer

    # first a traced pass while no polywidth module is loaded, so that modules
    # imported during its set-up and items are checked too
    spec = {"workload": "verify-suite", "seed": DEFAULT_SEED, "trace": True, "max_items": 2}
    run_pass(spec)
    leftover = [key for key, value in _bindings().items() if _is_wrapper(value)]
    if leftover:
        _fail(f"a traced verify pass left wrappers in place: {leftover}")
    before = _bindings()
    tracer = Tracer()
    with tracer:
        during = _bindings()
        changed = [key for key in before if during.get(key) is not before[key]]
        if not changed:
            _fail("the tracer wrapped nothing")
        from polywidth import LengthVector, gromov_width_report

        gromov_width_report(LengthVector([1, 2, 3, 4, 7]))
    if tracer.stats["polytopes.HPolytope"]["calls"] == 0:
        _fail("a traced report recorded no HPolytope build")
    _same_bindings(before, "the tracer")
    # a traced pass switches tracing off and on around every output check
    spec = {"workload": "certify-5-6", "seed": DEFAULT_SEED, "trace": True, "max_items": 3}
    result = run_pass(spec)
    if result["trace"]["stats"]["polytopes.HPolytope"]["calls"] == 0:
        _fail("a traced pass recorded no HPolytope build")
    if result["setup_trace"]["calls"] == 0:
        _fail("a traced set-up recorded no is_generic call")
    _same_bindings(before, "a traced pass")
    print(f"ok  tracer and traced pass restored all {len(changed)} wrapped bindings")


def _is_wrapper(value) -> bool:
    return getattr(value, "__qualname__", "").startswith("Tracer._wrap")


def _same_bindings(before: dict, what: str) -> None:
    after = _bindings()
    leftover = [key for key in before if after.get(key) is not before[key]]
    if leftover or set(after) != set(before):
        _fail(f"bindings not restored after {what}: {leftover}")


if __name__ == "__main__":
    check_restore()
    check_altered_digest()
    check_metrics()
    print("selfcheck passed")
