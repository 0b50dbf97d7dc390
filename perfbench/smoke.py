"""Smoke run of the benchmark: every workload at a small size, untraced and
traced, with every output check.  Takes about 15 seconds.

    python3 perfbench/smoke.py

Exits 1 and says why when a round fails, a check fails, or the metrics
printed differ from the ones BENCHMARK.json names.
"""

from __future__ import annotations

import json
import sys

import run
from tracer import PER_LAYER

LIMIT = 4  # items kept from set-up, and follow-ups kept per item
SEED = 1
# a layer each workload must reach, even at the smoke size
REACHES = {
    "random": "myhill_nerode.build_mn.s",
    "wide": "ipomset.subsumes.calls",
    "words": "ipomset.enumerate_divisions.calls",
    "loops": "hda.member.calls",
}


def main() -> int:
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    if [m["name"] for m in spec["per_layer"]] != [name for name, _, _ in PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    for workload in run.WORKLOADS:
        rounds = [run.run_round(workload, SEED, limit=LIMIT) for _ in range(2)]
        traced = run.run_round(workload, SEED, trace=True, limit=LIMIT)
        for r in rounds + [traced]:
            problems += [f"{workload}: {p}" for p in r["problems"]]
            if r["failed_items"]:
                problems.append(f"{workload}: items {r['failed_items']} failed")
        metrics = run.end_to_end(rounds)
        if sorted(metrics) != sorted(m["name"] for m in spec["end_to_end"]):
            problems.append(f"{workload}: end-to-end metrics {sorted(metrics)}")
        if any(v <= 0 for v, _ in metrics.values()):
            problems.append(f"{workload}: an end-to-end metric is not positive: {metrics}")
        if not traced["layers"].get(REACHES[workload]):
            problems.append(f"{workload}: the traced round never reached {REACHES[workload]}")
        print(f"{workload}: {len(rounds[0]['item_s'])} items per round, "
              f"{traced['spans']} spans traced")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("smoke run passed" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
