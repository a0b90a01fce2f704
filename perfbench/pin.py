"""Record pinned digests for a range of seeds into ``perfbench/pins.json``.

    python3 perfbench/pin.py 0-20 42

For every workload and seed this records the input digest, the expected
output digest and the expected error count. Workloads get them from the
single-process replay (no Ray), one worker process per input file; the
query tables (``corpus_queries``) from their DuckDB oracles. A later run on
a pinned seed fails if its inputs changed (the corpus generator moved, so
speed is not comparable) or its output differs. Re-run this only when a
change of inputs or outputs is intended, and say so.
"""

from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(args) -> list:
    seeds = []
    for a in args:
        lo, _, hi = a.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def pin_one(pool, workload: str, seed: int) -> dict:
    from perfbench import inputs as I
    from perfbench import queries as Q
    from perfbench import run as R
    from perfbench import workloads as W
    in_dir, meta = I.ensure_inputs(R.WORK, workload, seed, "full", len(os.sched_getaffinity(0)))
    if workload == "corpus_queries":
        return {"input": meta["input_digest"], "output": W.combine(Q.oracle_digests(in_dir)),
                "errors": 0}
    out_dir = os.path.join(R.WORK, "out", "pin")
    W.clear_dir(out_dir)
    cfg = W.engine_config(workload, meta)
    files = I.doc_files(in_dir)
    errors = sum(pool.map(W.replay_task, [workload] * len(files), [[f] for f in files],
                          [cfg] * len(files), [out_dir] * len(files)))
    return {"input": meta["input_digest"],
            "output": W.combine(W.check_output(workload, out_dir)["docs"]), "errors": errors}


def main(argv) -> int:
    sys.path.insert(0, ROOT)
    os.chdir(ROOT)
    from perfbench.run import PINS, WORKLOADS
    pins = {}
    if os.path.exists(PINS):
        with open(PINS) as fh:
            pins = json.load(fh)
    with ProcessPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        for wl in WORKLOADS + ("corpus_queries",):
            for seed in parse_seeds(argv):
                pins.setdefault(wl, {})[str(seed)] = pin_one(pool, wl, seed)
                print(wl, seed, pins[wl][str(seed)], flush=True)
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
