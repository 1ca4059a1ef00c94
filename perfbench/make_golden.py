"""Regenerates golden.json: output digests of every workload at the default seed.

    python3 perfbench/make_golden.py

Run it only at a commit whose outputs are known to be right: the digests
are what every later commit must reproduce byte for byte.  Each workload's
whole input list is run (for verify-suite, every seed of its pool), and every
output must pass the oracle checks.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import GOLDEN, run_pass  # noqa: E402
from workloads import DEFAULT_SEED, VERIFY_SEEDS, WORKLOADS  # noqa: E402


def _digests(spec: dict) -> list[str]:
    result = run_pass(spec)
    if result["failed"]:
        raise SystemExit(f"{spec}: oracle checks failed: {result['errors']}")
    return result["digests"]


def main() -> None:
    golden = {}
    for name, workload in WORKLOADS.items():
        spec = {"workload": name, "seed": DEFAULT_SEED}
        if workload.kind == "verify":
            # pass j of a run at seed 0 uses VERIFY_SEEDS[j]
            golden[name] = {
                str(pool_seed): _digests({**spec, "seed": 0, "pass": j})
                for j, pool_seed in enumerate(VERIFY_SEEDS)
            }
        else:
            golden[name] = _digests(spec)
        print(f"{name}: {len(golden[name])} entries recorded", file=sys.stderr)
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
