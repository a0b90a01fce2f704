"""Interleaved end-to-end benchmark pairs between two checkouts.

    python tools/perf_pairs.py OLD_CHECKOUT NEW_CHECKOUT --workload W --seeds 11-20

For each seed, runs ``perfbench/run.py --workload W --seed S --trace 0`` once
in each checkout; the side that runs first alternates from pair to pair. Each
run is its own process group under a timeout, and ``ray stop --force`` runs
after every run, so no Ray process outlives it. Prints one line per run, then
for each end-to-end metric of ``BENCHMARK.json``: both sides' median and
quartiles, the pairs NEW won, OLD's IQR, and whether NEW meets the gain rule
(wins at least 9 of 10 pairs, and its median beats OLD's by more than OLD's
IQR). Exits non-zero when any run is not ``correct`` or has failed docs.
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


def parse_seeds(spec: str) -> list:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def ray_stop() -> None:
    subprocess.run(["ray", "stop", "--force"], stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=120, check=False)


def run_one(checkout: str, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py`` run in its own process group; the parsed
    result line, or ``{"correct": False, ...}`` on a timeout or crash."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
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
        prov = [ln for ln in lines if ln.startswith('{"provenance"')]
        res["digest"] = json.loads(prov[-1]).get("digest") if prov else None
    except (IndexError, ValueError):
        tail = err.strip().splitlines()[-1:] or ["no output"]
        res = {"correct": False, "failed": None, "metrics": {}, "digest": None}
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
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 11-20 or 1,3,5-7")
    a = ap.parse_args()
    sides = {"old": os.path.abspath(a.old), "new": os.path.abspath(a.new)}
    with open(os.path.join(sides["new"], "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]

    ray_stop()
    runs = {"old": [], "new": []}
    bad = 0
    for i, seed in enumerate(parse_seeds(a.seeds)):
        for side in (("old", "new") if i % 2 == 0 else ("new", "old")):
            r = run_one(sides[side], a.workload, seed)
            runs[side].append(r)
            ok = r["correct"] and r["failed"] == 0
            bad += not ok
            vals = "  ".join(f"{m['name']}={r['metrics'][m['name']]['value']:.4g}"
                             for m in metrics if m["name"] in r["metrics"])
            print(f"seed {seed:3d} {side}  {'correct' if ok else 'NOT CORRECT'}  "
                  f"failed={r['failed']}  digest={str(r['digest'])[:12]}  {vals}  ({r['note']})",
                  flush=True)

    good = [i for i in range(len(runs["old"]))
            if all(runs[s][i]["correct"] and runs[s][i]["failed"] == 0 for s in runs)]
    print(f"{a.workload}: {len(good)} complete pairs")
    for m in metrics if good else []:
        old, new = ([runs[s][i]["metrics"][m["name"]]["value"] for i in good] for s in ("old", "new"))
        print(summarize(m["name"], m["better"], m["bound"], old, new))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
