"""Fixed-work benchmark for hdalib.

    python3 perfbench/run.py --workload random --seed 1 --seconds 30 --trace 0

Runs rounds of one workload, each in a fresh single-threaded process
(``round.py``).  Every round does the same fixed list of items, made from
the seed.  After MIN_ROUNDS rounds, a round starts only while it is
expected to end within ``--seconds``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics over the rounds or, with ``--trace 1``,
the per-layer metrics of a traced round.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402

WORKLOADS = ("random", "wide", "words", "loops")
DEADLINE_S = 170  # the whole run ends within this many seconds
# a run does at least this many rounds, so that each item's time is a
# median that one stalled round cannot move
MIN_ROUNDS = 3
# times are reported as if the reference loop of round.py took this long
REFERENCE_S = 0.002
OUT = HERE / "out"


class RoundError(Exception):
    pass


def run_round(workload, seed, trace=False, hash_seed=0, limit=None, timeout=DEADLINE_S):
    """Run one round in a fresh process and return its JSON result."""
    cmd = [
        sys.executable, str(HERE / "round.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
    ]
    if limit is not None:
        cmd += ["--limit", str(limit)]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=max(1.0, timeout)
        )
    except subprocess.TimeoutExpired:
        raise RoundError(f"{workload} round did not end within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(
            f"{workload} round exited with {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - t0
    return result


def scaled_item_s(r: dict) -> list[float]:
    """Item times scaled to reference speed: each item's time times
    REFERENCE_S over the median of the reference loops run nearest to it."""
    refs = r["ref_s"]
    return [
        t * REFERENCE_S / statistics.median(refs[max(0, k - 2) : k + 4])
        for k, t in enumerate(r["item_s"])
    ]


def end_to_end(rounds: list[dict]) -> dict:
    """Each item's time is its scaled time's median over the rounds;
    throughput is the number of items over the sum of those times, latency
    their 50th and 90th percentile.  Memory and set-up time are medians
    over rounds, set-up time scaled by the round's median reference loop."""
    n = len(rounds[0]["item_s"])
    if any(len(r["item_s"]) != n for r in rounds):
        raise RoundError("rounds ran different numbers of items")
    failed = {i for r in rounds for i in r["failed_items"]}
    scaled = [scaled_item_s(r) for r in rounds]
    per_item = [statistics.median(s[i] for s in scaled) for i in range(n) if i not in failed]
    return {
        "items_per_s": (len(per_item) / sum(per_item), "items/s"),
        "item_p50_ms": (statistics.median(per_item) * 1e3, "ms"),
        "item_p90_ms": (statistics.quantiles(per_item, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        "setup_s": (
            statistics.median(
                r["setup_s"] * REFERENCE_S / statistics.median(r["ref_s"]) for r in rounds
            ),
            "s",
        ),
    }


def traced(workload: str, seed: int) -> tuple[list[dict], dict]:
    """An untraced round, then traced rounds under two hash seeds."""
    base = run_round(workload, seed, trace=False, hash_seed=0)
    left = DEADLINE_S - base["wall_s"]
    t0 = time.monotonic()
    first = run_round(workload, seed, trace=True, hash_seed=0, timeout=left)
    second = run_round(
        workload, seed, trace=True, hash_seed=1, timeout=left - (time.monotonic() - t0)
    )
    for r in (first, second):
        r["layers"]["trace.spans"] = r["spans"]
    counts = [name for name, unit, _ in PER_LAYER if unit == "count"]
    differ = [k for k in counts if first["layers"][k] != second["layers"][k]]
    # both sides scaled to reference speed, since they ran at different times
    plain, with_spans = sum(scaled_item_s(base)), sum(scaled_item_s(first))
    metrics = dict(first["layers"])
    metrics["trace.overhead_s"] = with_spans - plain
    metrics["trace.overhead_ratio"] = with_spans / plain
    metrics["trace.counts_repeat"] = int(not differ)
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload}-summary.json").write_text(
        json.dumps(
            {
                "workload": workload,
                "seed": seed,
                "untraced_raw_item_s": sum(base["item_s"]),
                "untraced_reference_loop_s": statistics.median(base["ref_s"]),
                "untraced_scaled_item_s": plain,
                "traced_scaled_item_s": with_spans,
                "counts_differing_between_hash_seeds": differ,
                "metrics": metrics,
            },
            indent=1,
        )
    )
    units = {name: unit for name, unit, _ in PER_LAYER}
    return [base, first, second], {k: (metrics[k], units[k]) for k, _, _ in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.monotonic()
    try:
        if args.trace:
            rounds, metrics = traced(args.workload, args.seed)
        else:
            rounds = []
            while True:
                left = DEADLINE_S - (time.monotonic() - start)
                rounds.append(run_round(args.workload, args.seed, timeout=left))
                elapsed = time.monotonic() - start
                longest = max(r["wall_s"] for r in rounds)
                if len(rounds) >= MIN_ROUNDS and elapsed + longest > args.seconds:
                    break
            metrics = end_to_end(rounds)
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for r in rounds:
        for problem in r["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not any(r["problems"] for r in rounds),
        "attempted": sum(len(r["item_s"]) for r in rounds),
        "failed": sum(len(r["failed_items"]) for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
