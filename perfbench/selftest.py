"""Self-test of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

Checks that every workload completes untraced and traced with every metric
of ``BENCHMARK.json`` present; that the reported per-layer self times plus
the root span's own time account for the traced wall time within the
tracing overhead, and that the root's own share stays small (so time spent
outside every traced function shows); that a one-character change of the
expected output digest makes a run fail without printing metrics; and that
the benchmark fails fast in a directory holding only ``BENCHMARK.json`` and
the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
MAX_UNATTRIBUTED = 0.10     # root span's own time over the traced wall


def bench(*args):
    p = subprocess.run(RUN + ["--seed", "3", "--seconds", "1", "--size", "tiny", *args],
                       cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines, p.stderr


def check(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        raise SystemExit(1)


def check_trace(wl: str, tc: dict) -> None:
    """The trace's own accounting, from quantities measured apart: the
    reported self times, the root span's self time and the wall clock
    around the traced replay."""
    gap = abs(tc["reported_self_s"] + tc["root_self_s"] - tc["traced_s"])
    slack = max(abs(tc["overhead_s"]), 0.02 * tc["traced_s"])
    check(gap <= slack, f"{wl} reported self times + root self ({tc['reported_self_s']:.4f} + "
                        f"{tc['root_self_s']:.4f} s) = traced wall {tc['traced_s']:.4f} s "
                        f"within {slack:.4f} s")
    share = tc["root_self_s"] / tc["traced_s"]
    check(share <= MAX_UNATTRIBUTED,
          f"{wl} time outside every traced function is {share:.3f} of the traced wall")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    digests = {}
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, lines, err = bench("--workload", wl, "--trace", str(trace))
            check(rc == 0 and bool(lines),
                  f"{wl} --trace {trace} exits 0" + (f": {err.strip()[-300:]}" if rc else ""))
            res = json.loads(lines[-1])
            want = {m["name"] for m in spec[key]}
            check(res["correct"] and set(res["metrics"]) == want and res["failed"] == 0,
                  f"{wl} --trace {trace} is correct, prints every {key} metric, fails none")
            info = json.loads(next(x for x in lines if x.startswith('{"provenance"')))
            if info["trace_check"]:
                check_trace(wl, info["trace_check"])
            digests[wl] = info["digest"]

    for wl in (w["name"] for w in spec["workloads"]):
        good = digests[wl]
        rc, lines, _ = bench("--workload", wl, "--expect", good)
        check(rc == 0, f"{wl} passes with its own output digest expected")
        bad = ("0" if good[0] != "0" else "1") + good[1:]
        rc, lines, _ = bench("--workload", wl, "--expect", bad)
        check(rc != 0 and not any(x.startswith('{"correct"') for x in lines),
              f"{wl} fails and prints no result when one digest character is changed")

    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                            ignore=shutil.ignore_patterns("__pycache__"))
        wl = spec["workloads"][0]["name"]
        p = subprocess.run([sys.executable, os.path.join(bare, "perfbench", "run.py"),
                            "--workload", wl, "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=bare, capture_output=True, text=True, timeout=180)
        check(p.returncode != 0 and not p.stdout.strip(),
              "a directory without the engine fails and prints no result")
    finally:
        shutil.rmtree(bare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
