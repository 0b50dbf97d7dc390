"""One round of a workload in a fresh process.

Sets up the workload's items, runs each under the clock, checks each output
after the clock stops, and prints one JSON object as its last line of
standard output.  ``run.py`` starts one process per round, so no round
inherits a warm cache from another.

    python3 perfbench/round.py --workload random --seed 1 --trace 0
"""

import time

START = time.perf_counter()  # set-up time counts from before the imports

import argparse
import collections
import json
import os
import resource
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop of the two kinds of work
    hdalib spends its time on, without hdalib: transitive closure of a
    boolean matrix, and hashing, indexing and sorting small tuples and
    frozensets.  Run between items, it tracks how fast the machine is then;
    over a minute, item times follow its time with a slope of 0.85."""
    t0 = time.perf_counter()
    rows = [[(i * j) % 3 == 0 for j in range(12)] for i in range(12)]
    for _ in range(8):
        m = [list(r) for r in rows]
        for k in range(12):
            for i in range(12):
                if m[i][k]:
                    m[i] = [a or b for a, b in zip(m[i], m[k])]
        frozenset((i, j) for i in range(12) for j in range(12) if m[i][j])
    objs = [(i, (i * 7) % 31, frozenset((i % 5, i % 9))) for i in range(700)]
    index = {o: k for k, o in enumerate(objs)}
    sum(index[o] for o in reversed(objs))
    sorted(objs, key=lambda o: (o[1], o[0]))
    return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, help="keep the first N items (smoke runs)")
    args = ap.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import tracer as tracer_mod
    import workloads

    tracer = tracer_mod.Tracer() if args.trace else None
    if tracer:
        tracer.install()
        tracer.item = -1
    workdir = OUT / f"work-{os.getpid()}"
    stats: dict = {}
    names, times, refs, failed_items, problems = [], [], [], [], []
    try:
        queue = collections.deque(
            workloads.setup(args.workload, args.seed, workdir, stats)[: args.limit]
        )
        setup_s = time.perf_counter() - START
        while queue:
            item = queue.popleft()
            names.append(item.name)
            refs.append(reference_loop())
            if tracer:
                tracer.item = len(times)
            t0 = time.perf_counter()
            try:
                out = item.run()
            except Exception:  # an item that raises counts as failed
                failed_items.append(len(times))
                print(f"{item.name} failed:\n{traceback.format_exc()}", file=sys.stderr)
                out = None
            times.append(time.perf_counter() - t0)
            if tracer:
                tracer.item = None
            if out is None:
                continue
            try:
                queue.extend(item.check(out)[: args.limit])
            except workloads.CheckFailed as exc:
                problems.append(f"{item.name}: {exc}")
            except Exception:
                problems.append(f"{item.name}: check raised\n{traceback.format_exc()}")
        refs.append(reference_loop())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "setup_s": setup_s,
        "item_s": times,
        "ref_s": refs,
        "failed_items": failed_items,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        hash_seed = os.environ.get("PYTHONHASHSEED", "random")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-hash{hash_seed}.json", names)
        result["layers"] = tracer_mod.per_layer_metrics(tracer.layers(), stats)
        result["spans"] = len(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
