"""Interleaved end-to-end benchmark pairs between two checkouts.

    python tools/perf_pairs.py OLD_CHECKOUT NEW_CHECKOUT --workload W --seeds 11-20
    python tools/perf_pairs.py OLD_CHECKOUT NEW_CHECKOUT --query Q[,Q] --sf DIR --pairs 6

A run is ``perfbench/run.py --workload W --seed S --trace 0`` (one per seed),
or one process on a 4-CPU Ray that calls each ``__ray_entry__`` query on DIR
once to warm up and reports the fastest of three more calls as ``Q.wall_s``.
Each pair runs once in each checkout; the side that runs first alternates.
Each run is its own process group under a timeout, and ``ray stop --force``
runs after every run, so no Ray process outlives it. Prints one line per run
with its rep walls, then for each metric (``BENCHMARK.json``'s end-to-end
metrics, or each query's wall time under the ``wall_s`` bound): both sides'
median and quartiles, the pairs NEW won, OLD's IQR, and whether NEW meets the
gain rule (wins at least 9 of 10 pairs, and its median beats OLD's by more
than OLD's IQR). Exits non-zero when any run is not ``correct`` or has failed docs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys

WIN_SHARE = 0.9
SECONDS = 10.0     # run length, as perfbench/README.md documents for the benchmark
TIMEOUT_S = 400.0  # per run

QUERY_RUN = """
import json, sys, time
import ray
ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import __ray_entry__ as E
metrics = {}
for name in sys.argv[2].split(","):
    def run():
        t0 = time.perf_counter()
        res = E.queries()[name](sys.argv[1])
        getattr(res, "to_pandas", lambda: res)()
        return time.perf_counter() - t0
    run()
    metrics[name + ".wall_s"] = {"value": min(run() for _ in range(3))}
ray.shutdown()
print(json.dumps({"correct": True, "failed": 0, "metrics": metrics}))
"""


def parse_seeds(spec: str) -> list:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def ray_stop() -> None:
    subprocess.run(["ray", "stop", "--force"], stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=120, check=False)


def run_one(checkout: str, cmd: list) -> dict:
    """One run of ``cmd`` in ``checkout``, in its own process group; the
    parsed result line, or ``{"correct": False, ...}`` on a timeout or
    crash."""
    proc = subprocess.Popen(cmd, cwd=checkout, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    out = err = ""
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
        note = f"exit {proc.returncode}"
    except subprocess.TimeoutExpired:
        note = f"timed out after {TIMEOUT_S:.0f} s"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)   # anything the run left behind
        except ProcessLookupError:
            pass
        ray_stop()
        if proc.returncode is None:
            try:
                proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                note += "; its output pipes stayed open"
    lines = out.strip().splitlines()
    try:
        res = json.loads(lines[-1])
        prov = json.loads(next((ln for ln in lines[::-1] if ln.startswith('{"provenance"')), "{}"))
        res["digest"], res["reps"] = prov.get("digest"), prov.get("rep_walls_s") or []
    except (IndexError, ValueError):
        tail = err.strip().splitlines()[-1:] or ["no output"]
        res = {"correct": False, "failed": None, "metrics": {}, "digest": None, "reps": []}
        note += f": {tail[0]}"
    res["note"] = note
    return res


def quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def summarize(name: str, better: str, bound: float, old: list, new: list) -> str:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (n - o) > 0 for o, n in zip(old, new))
    (oq1, oq3), (nq1, nq3) = quartiles(old), quartiles(new)
    om, nm = statistics.median(old), statistics.median(new)
    iqr = oq3 - oq1
    change = (nm - om) / om if om else math.nan
    rule = wins >= math.ceil(WIN_SHARE * len(old)) and sign * (nm - om) > iqr
    within = sign * change >= -bound
    return (f"{name:12s} old {om:9.4g} [{oq1:.4g}, {oq3:.4g}]  new {nm:9.4g} "
            f"[{nq1:.4g}, {nq3:.4g}]  {change:+.1%}  new won {wins}/{len(old)}  "
            f"old IQR {iqr:.4g}  gain rule {'holds' if rule else 'not met'}  "
            f"bound {bound:.0%} {'ok' if within else 'EXCEEDED'}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old")
    ap.add_argument("new")
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--query", help="query names, comma-separated")
    ap.add_argument("--seeds", help="workload mode: e.g. 11-20 or 1,3,5-7")
    ap.add_argument("--sf", help="query mode: the sf directory")
    ap.add_argument("--pairs", type=int, default=6, help="query mode")
    a = ap.parse_args()
    if (a.query and not a.sf) or (a.workload and not a.seeds):
        ap.error("--query needs --sf, --workload needs --seeds")
    sides = {"old": os.path.abspath(a.old), "new": os.path.abspath(a.new)}
    with open(os.path.join(sides["new"], "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    if a.query:
        bound = next(m["bound"] for m in metrics if m["name"] == "wall_s")
        metrics = [{"name": f"{q}.wall_s", "better": "lower", "bound": bound}
                   for q in a.query.split(",")]
        label = a.query
        runs_of = [(f"pair {p:3d}", [sys.executable, "-c", QUERY_RUN, a.sf, a.query])
                   for p in range(1, a.pairs + 1)]
    else:
        label = a.workload
        runs_of = [(f"seed {s:3d}", [sys.executable, "perfbench/run.py", "--workload",
                                     a.workload, "--seed", str(s), "--seconds",
                                     str(SECONDS), "--trace", "0"])
                   for s in parse_seeds(a.seeds)]

    ray_stop()
    runs = {"old": [], "new": []}
    bad = 0
    for i, (tag, cmd) in enumerate(runs_of):
        for side in (("old", "new") if i % 2 == 0 else ("new", "old")):
            r = run_one(sides[side], cmd)
            runs[side].append(r)
            ok = r["correct"] and r["failed"] == 0
            bad += not ok
            vals = "  ".join(f"{m['name']}={r['metrics'][m['name']]['value']:.4g}"
                             for m in metrics if m["name"] in r["metrics"])
            print(f"{tag} {side}  {'correct' if ok else 'NOT CORRECT'}  "
                  f"failed={r['failed']}  digest={str(r['digest'])[:12]}  {vals}  "
                  f"reps_s={','.join(f'{w:.2f}' for w in r.get('reps', []))}  ({r['note']})",
                  flush=True)

    good = [i for i in range(len(runs["old"]))
            if all(runs[s][i]["correct"] and runs[s][i]["failed"] == 0 for s in runs)]
    print(f"{label}: {len(good)} complete pairs")
    for m in metrics if good else []:
        old, new = ([runs[s][i]["metrics"][m["name"]]["value"] for i in good] for s in ("old", "new"))
        print(summarize(m["name"], m["better"], m["bound"], old, new))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
