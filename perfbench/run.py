"""Repo benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload headline_dynamic --seed 1 --seconds 10 --trace 0

Run from the repository root. The load model is a closed loop with one
client: this process submits one pipeline at a time and waits for its
sink to finish. Ray gets ``num_cpus`` = the CPUs this process may run
on. ``--trace 0`` prints the end-to-end metrics of untraced runs;
``--trace 1`` prints the per-layer metrics of a traced single-process
replay plus the Ray framework numbers of one untraced pipeline run (and,
for headline_dynamic, one timed pass over six functions/ queries).

Every output is checked (docs out = docs in, repetitions agree, Ray digest
= replay digest = pinned digest, seed-42 oracle shapes, query results =
DuckDB oracles); a failed check exits non-zero without printing metrics. The last stdout line is the result
JSON; the line before it carries the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_DIR = os.path.join(ROOT, "ocr_table_extractor_to_csv_ray")
WORK = os.path.join(ROOT, ".perfbench")
RAY_TMP = os.path.join(ROOT, ".ray")
PINS = os.path.join(ROOT, "perfbench", "pins.json")

WORKLOADS = ("headline_dynamic", "mixed_layouts_tail", "media_ocr")
QUERY_HOST = "headline_dynamic"   # its --trace 1 run also times the queries
# timed pipelines per untraced document run, at least (and for at least
# --seconds); media_ocr stops at 4 because the sixth build_transformers_ds
# pipeline in one Ray session stalled for ~18 s in 3 of 10 runs
MIN_REPS = {"headline_dynamic": 3, "mixed_layouts_tail": 3, "media_ocr": 4}
# share of the input files the traced single-process replay covers
TRACE_SHARE = {"headline_dynamic": 1 / 3, "mixed_layouts_tail": 1.0, "media_ocr": 1.0}
REP_TIMEOUT_S = 60.0       # hang guard for one pipeline or query
RUN_DEADLINE_S = 170.0     # whole run, set-up and checks included
OBJECT_STORE_MB = 768
ORACLE_SIG = "5000-1485576"   # extract_* oracle rows for the seed-42 corpus


class BenchFailure(Exception):
    """A correctness check failed: exit non-zero, print no metrics."""


class RepTimeout(Exception):
    pass


def now() -> float:
    return time.perf_counter()


def median(xs) -> float:
    return float(statistics.median(xs))


def timed_call(fn, timeout: float):
    """``(seconds, fn())``; raises :class:`RepTimeout` after ``timeout``
    seconds without waiting on the hung call any longer."""
    box: dict = {}

    def target():
        t0 = now()
        try:
            box["value"] = fn()
        except BaseException as exc:  # re-raised in the caller
            box["error"] = exc
        box["wall"] = now() - t0

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    if th.is_alive():
        raise RepTimeout(f"no result after {timeout:.0f} s")
    if "error" in box:
        raise box["error"]
    return box["wall"], box["value"]


# ---------------------------------------------------------------------------
# processes

def _proc_table() -> dict:
    """``{pid: (ppid, cmdline)}`` for every live process."""
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as fh:
                stat = fh.read()
            with open(f"/proc/{d}/cmdline", "rb") as fh:
                cmd = fh.read().replace(b"\0", b" ").decode(errors="replace").strip()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if fields[0] == "Z":
            continue
        out[int(d)] = (int(fields[1]), cmd)
    return out


def descendants(root_pid: int) -> dict:
    procs = _proc_table()
    kids, frontier = {}, [root_pid]
    while frontier:
        p = frontier.pop()
        for pid, (ppid, cmd) in procs.items():
            if ppid == p and pid not in kids:
                kids[pid] = cmd
                frontier.append(pid)
    return kids


def _vm_hwm_kb(pid) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """``VmHWM`` of this process plus the largest ``VmHWM`` among its live
    Ray worker processes. Not the sum over workers: which idle workers
    and finished actors Ray still keeps alive after a run varies from run
    to run, and moved that sum by one worker's ~200 MB."""
    workers = [p for p, cmd in descendants(os.getpid()).items() if cmd.startswith("ray::")]
    return (_vm_hwm_kb("self") + max(map(_vm_hwm_kb, workers), default=0)) / 1024.0


def stop_ray() -> None:
    """Shut Ray down and wait until every process this run started is gone."""
    try:
        import ray
        if ray.is_initialized():
            ray.shutdown()
    except Exception as exc:  # noqa: BLE001 — report, then still reap below
        print(f"ray.shutdown failed: {exc!r}", file=sys.stderr)
    deadline = now() + 15.0
    while now() < deadline and descendants(os.getpid()):
        time.sleep(0.2)
    for pid in descendants(os.getpid()):
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    while now() < deadline + 5.0 and descendants(os.getpid()):
        time.sleep(0.2)


# ---------------------------------------------------------------------------
# provenance

def _run_out(cmd) -> str | None:
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest() -> str:
    """sha1 over the engine's Python sources (the checkout may not be a
    git repository)."""
    h = hashlib.sha1()
    paths = [os.path.join(ROOT, "__ray_entry__.py")]
    for d, _, names in sorted(os.walk(PACKAGE_DIR)):
        paths += [os.path.join(d, n) for n in sorted(names) if n.endswith(".py")]
    for p in paths:
        with open(p, "rb") as fh:
            h.update(os.path.relpath(p, ROOT).encode() + b"\0" + fh.read())
    return h.hexdigest()


def provenance(args, cpus: int, meta: dict) -> dict:
    import numpy
    import pyarrow
    import ray
    return {
        "git_sha": _run_out(["git", "rev-parse", "HEAD"]),
        "source_sha1": source_digest(),
        "nproc": _run_out(["nproc"]),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "affinity_cpus": cpus,
        "ray_num_cpus": cpus,
        "versions": {"python": sys.version.split()[0], "ray": ray.__version__,
                     "pyarrow": pyarrow.__version__, "numpy": numpy.__version__},
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "run_seconds": args.seconds, "trace": args.trace,
        "load_model": "closed loop, 1 client",
        "inputs": meta,
    }


# ---------------------------------------------------------------------------
# set-up

# engine modules the workloads' Ray tasks and actors import
WARM_MODULES = ("pipelines.extract", "pipelines.transformers", "sinks.csv_sink",
                "stages.skew", "stages.ocr", "stages.model", "functions.graph",
                "functions.dedup", "functions.join", "functions.agg", "functions.sketch")


def _warm_task() -> None:
    import importlib
    for m in WARM_MODULES:
        importlib.import_module(f"ocr_table_extractor_to_csv_ray.{m}")
    time.sleep(0.2)      # hold the CPU so each task lands on its own worker


def setup(cpus: int, in_dir: str) -> dict:
    """ray.init → worker spawn warm-up → corpus stats sidecar (the
    pipelines read it); returns the seconds of each part."""
    import logging
    import ray
    import ray.data as rd
    t0 = now()
    # Ray's sockets live at <temp>/session_<date>_<pid>/sockets/... and a
    # unix socket path must stay under 108 bytes: a checkout path too long
    # for that leaves Ray at its default temp dir
    kw = {"_temp_dir": RAY_TMP} if len(RAY_TMP) <= 43 else {}
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_MB << 20, **kw)
    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    t1 = now()
    warm = ray.remote(num_cpus=1)(_warm_task)
    ray.get([warm.remote() for _ in range(cpus)])
    t2 = now()
    from ocr_table_extractor_to_csv_ray.pipelines.extract import write_corpus_stats
    write_corpus_stats(in_dir)
    return {"ray_init_s": t1 - t0, "warm_s": t2 - t1, "sidecar_s": now() - t2}


# ---------------------------------------------------------------------------
# measurement

def oracle_shape_check(t) -> int:
    """Seed-42 headline: per-doc (n_rows, n_cols) against the recorded
    oracle for the same generated docs. Returns the docs compared."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    o = pq.read_table(os.path.join(ROOT, "oracle_expected", "extract_dynamic.parquet"))
    o = o.filter(pc.equal(o["sig"], ORACLE_SIG))
    want = dict(zip(o["doc_id"].to_pylist(), zip(o["n_rows"].to_pylist(), o["n_cols"].to_pylist())))
    got = [(d, (r, c)) for d, r, c in zip(t["doc_id"].to_pylist(), t["n_rows"].to_pylist(),
                                          t["n_cols"].to_pylist()) if d in want]
    bad = [d for d, shape in got if want[d] != shape]
    if bad or not got:
        raise BenchFailure(f"oracle shape mismatch on {len(bad)} of {len(got)} docs, e.g. {bad[:3]}")
    return len(got)


def replay_parallel(workload, files, cfg, out_dir) -> dict:
    """Untraced replay of every input file as plain Ray tasks (no Ray
    Data); returns per-doc digests and the error count."""
    import ray
    from perfbench import workloads as W
    W.clear_dir(out_dir)
    task = ray.remote(num_cpus=1)(W.replay_task)
    errors = sum(ray.get([task.remote(workload, [f], cfg, out_dir) for f in files]))
    return {"docs": W.check_output(workload, out_dir)["docs"], "errors": errors}


def traced_replay(workload, files, cfg, out_dir, trace_path) -> dict:
    """Single-process replay of ``files``: untraced, traced, untraced
    again (so drift cancels in the overhead); returns the per-layer
    metrics, the replay's per-doc digests and the trace accounting."""
    from perfbench import workloads as W
    from perfbench.tracing import Tracer

    def untraced():
        W.clear_dir(out_dir)
        rp = W.Replay(workload, cfg)
        t0 = now()
        rp.run(files, out_dir)
        return now() - t0

    W.clear_dir(out_dir)
    W.Replay(workload, cfg).run(files[:1], out_dir)               # first-call costs
    replay_a = untraced()
    W.clear_dir(out_dir)
    tracer = Tracer()
    W.install_tracing(tracer)
    try:
        rp = W.Replay(workload, cfg, wrap=tracer.timed)
        if workload == "media_ocr":
            W.count_ocr_words(tracer, rp.ocr_obj)
        t0 = now()
        root = tracer.open("replay")
        errors = rp.run(files, out_dir, tracer=tracer,
                        parquet_sink=tracer.timed("sinks.parquet.write", W.write_parquet))
        tracer.close(root)
        traced_s = now() - t0
    finally:
        tracer.restore()
    tracer.dump(trace_path)
    digests = W.check_output(workload, out_dir)["docs"]
    replay_b = untraced()
    if W.check_output(workload, out_dir)["docs"] != digests:
        raise BenchFailure("traced and untraced replays disagree")
    replay_s = (replay_a + replay_b) / 2.0
    docs = len(digests)
    m = W.layer_metrics(tracer, docs, W.layout_doc_counts(files, workload))
    m["stages.model.LayoutScorerStage.init_s"] = rp.init_s
    m["replay.docs_per_s"] = docs / replay_s
    m["trace.overhead_ms_per_doc"] = 1000.0 * (traced_s - replay_s) / docs
    root_self = tracer.self_seconds()[("replay", None)]
    m["trace.unattributed_frac"] = root_self / traced_s
    reported = sum(m[k] for k in W.SELF_METRICS) * docs / 1000.0
    check = {"reported_self_s": reported, "root_self_s": root_self, "traced_s": traced_s,
             "replay_s": replay_s, "overhead_s": traced_s - replay_s}
    return {"metrics": m, "docs": digests, "errors": errors, "trace_check": check}


def run_documents(args, in_dir, meta, pin, deadline) -> dict:
    import pyarrow.parquet as pq
    from perfbench import inputs as I
    from perfbench import workloads as W
    wl = args.workload
    files = I.doc_files(in_dir)
    cfg = W.engine_config(wl, meta)
    docs = meta["docs"]
    walls, outs, attempted, failed, timeouts, consumed = [], [], 0, 0, 0, []
    t_start = now()
    while True:
        out_dir = os.path.join(WORK, "out", f"rep{len(outs)}")
        W.clear_dir(out_dir)
        attempted += docs
        try:
            wall, (_, consumed) = timed_call(
                lambda: W.capture_consumed(lambda: W.ray_pipeline(wl, files, in_dir, out_dir, cfg)),
                min(REP_TIMEOUT_S, deadline - now() - 20.0))
        except RepTimeout as exc:
            print(f"pipeline timed out ({exc}); counted as failed", file=sys.stderr)
            failed += docs
            timeouts += 1
            break
        outs.append(out_dir)
        walls.append(wall)
        if args.trace or (now() - t_start >= args.seconds and len(walls) >= MIN_REPS[wl]):
            break
    res = {"attempted": attempted, "failed": failed, "timeouts": timeouts, "walls": walls}
    if not walls:
        return res
    # read before any check runs in this process
    res["peak_rss_mb"] = peak_rss_mb()

    checked = [W.check_output(wl, d) for d in outs]
    digests = {W.combine(c["docs"]) for c in checked}
    if len(digests) != 1:
        raise BenchFailure(f"repetitions disagree: {sorted(digests)}")
    out = checked[-1]
    if len(out["docs"]) != docs:
        raise BenchFailure(f"docs out {len(out['docs'])} != docs in {docs}")
    res["digest"] = digests.pop()
    if wl == "headline_dynamic" and args.seed == 42 and args.size == "full":
        res["oracle_docs"] = oracle_shape_check(out["table"])

    replay_dir = os.path.join(WORK, "out", "replay")
    expected = []
    errors = out["errors"]
    if pin and pin.get("output"):
        expected.append(("pinned", pin["output"]))
        if errors is None:
            errors = pin.get("errors")
    if args.trace:
        floor_dir = os.path.join(WORK, "out", "floor")
        W.clear_dir(floor_dir)
        columns = W.read_columns(wl)
        t0 = now()
        W.floor_pipeline(files, columns, floor_dir)
        floor_s = now() - t0
        t0 = now()
        for f in files:
            pq.read_table(f, columns=columns)
        read_s = now() - t0
        subset = files[:max(1, round(len(files) * TRACE_SHARE[wl]))]
        tr = traced_replay(wl, subset, cfg, replay_dir,
                           os.path.join(WORK, f"trace-{wl}-s{args.seed}.jsonl"))
        bad = [d for d, h in tr["docs"].items() if out["docs"].get(d) != h]
        if bad or not tr["docs"]:
            raise BenchFailure(f"Ray output differs from the traced replay on {len(bad)} "
                               f"of {len(tr['docs'])} docs, e.g. {bad[:3]}")
        if errors is None and len(tr["docs"]) == docs:
            errors = tr["errors"]
        m = dict(tr["metrics"], **W.ray_data_metrics(W.stats_summaries(consumed), docs))
        m["ray.floor_ms_per_doc"] = 1000.0 * floor_s / docs
        m["ray.read_ms_per_doc"] = 1000.0 * read_s / docs
        if W.csv_sink(wl):
            m["sinks.csv_sink.write_csv_batch.files_written"] = float(out["files"])
        res["layers"] = m
        res["trace_check"] = tr["trace_check"]
    if not expected or errors is None:
        rp = replay_parallel(wl, files, cfg, replay_dir)
        expected.append(("replay", W.combine(rp["docs"])))
        if errors is None:
            errors = rp["errors"]
    for label, digest in expected:
        if digest != res["digest"]:
            raise BenchFailure(f"Ray output digest {res['digest']} != {label} digest {digest}")
    res["failed"] += errors * len(walls)
    med = median(walls)
    res["e2e"] = {"docs_per_s": docs / med, "wall_s": med}
    return res


# ---------------------------------------------------------------------------
# the functions/ queries, timed in the headline's traced run

def trace_queries(args, pins, deadline) -> dict:
    """One pass over the six ``__ray_entry__.queries()`` entries on the
    seed's generated star schema, each result checked against its DuckDB
    oracle; returns ``query.<name>.wall_s``. They are no workload of their
    own: their passes spread 0.27-0.30 (IQR over median, 10 seeds) between
    runs, above the largest bound a workload may have."""
    from perfbench import inputs as I
    from perfbench import queries as Q
    from perfbench import workloads as W
    in_dir, meta = I.ensure_inputs(WORK, "corpus_queries", args.seed, args.size,
                                   len(os.sched_getaffinity(0)))
    pin = pins.get("corpus_queries", {}).get(str(args.seed)) if args.size == "full" else None
    if pin and pin["input"] != meta["input_digest"]:
        raise BenchFailure(f"query inputs changed for seed {args.seed}: digest "
                           f"{meta['input_digest']} != pinned {pin['input']}")
    # graph_components is several times slower on its first call in a
    # session; one untimed call takes that out of the timed pass
    timed_call(lambda: Q.run_query("graph_components", in_dir), REP_TIMEOUT_S)
    times, frames = {}, {}
    for q in Q.QUERIES:
        times[q], frames[q] = timed_call(lambda: Q.run_query(q, in_dir),
                                         min(REP_TIMEOUT_S, deadline - now() - 20.0))
    oracles = Q.oracle_digests(in_dir)
    for q, df in frames.items():
        got = Q.frame_digest(df)
        if got != oracles[q]:
            raise BenchFailure(f"{q}: result digest {got} != oracle digest {oracles[q]}")
    if pin and pin["output"] != W.combine(oracles):
        raise BenchFailure(f"query oracle digest {W.combine(oracles)} != pinned {pin['output']}")
    return {f"query.{q}.wall_s": t for q, t in times.items()}


# ---------------------------------------------------------------------------

def run(args) -> dict:
    from perfbench import inputs as I
    deadline = now() + RUN_DEADLINE_S
    cpus = len(os.sched_getaffinity(0))
    t0 = now()
    in_dir, meta = I.ensure_inputs(WORK, args.workload, args.seed, args.size, cpus)
    phases = {"inputs_s": now() - t0}
    pins = {}
    if os.path.exists(PINS):
        with open(PINS) as fh:
            pins = json.load(fh)
    pin = pins.get(args.workload, {}).get(str(args.seed)) if args.size == "full" else None
    if args.expect:
        pin = {"output": args.expect, "errors": 0}
    if pin and pin.get("input") and pin["input"] != meta["input_digest"]:
        raise BenchFailure(
            f"inputs changed for ({args.workload}, seed {args.seed}): digest "
            f"{meta['input_digest']} != pinned {pin['input']}; speed not compared")

    t0 = now()
    import ray  # noqa: F401
    import ray.data  # noqa: F401
    import ocr_table_extractor_to_csv_ray.pipelines.extract  # noqa: F401
    import_s = now() - t0
    parts = setup(cpus, in_dir)
    phases.update(imports_s=import_s, **parts)
    t0 = now()
    res = run_documents(args, in_dir, meta, pin, deadline)
    phases["measure_and_check_s"] = now() - t0
    if args.trace and args.workload == QUERY_HOST and "layers" in res:
        t0 = now()
        res["layers"].update(trace_queries(args, pins, deadline))
        phases["queries_s"] = now() - t0
    res["phases"] = phases
    res["setup_s"] = import_s + sum(parts.values())
    res["provenance"] = provenance(args, cpus, meta)
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input size tier; 'tiny' is for the self-test")
    ap.add_argument("--expect", default=None,
                    help="expected output digest, overriding the pin (self-test)")
    args = ap.parse_args(argv)

    if not (os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py"))
            and os.path.isfile(os.path.join(ROOT, "__ray_entry__.py"))):
        print(f"engine sources not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    os.chdir(ROOT)
    # Ray workers inherit these: they import the engine from this checkout,
    # and no usage report is attempted
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    from perfbench import workloads as W
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {WORKLOADS}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    shutil.rmtree(os.path.join(WORK, "out"), ignore_errors=True)
    # Ray session dirs of earlier runs: only logs, and no cluster is alive
    shutil.rmtree(RAY_TMP, ignore_errors=True)

    def on_alarm(signum, frame):
        raise RepTimeout(f"run exceeded {RUN_DEADLINE_S:.0f} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(int(RUN_DEADLINE_S) + 5)
    try:
        res = run(args)
    except (BenchFailure, RepTimeout) as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        stop_ray()

    correct = res["timeouts"] == 0 and "e2e" in res
    failed_frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(json.dumps({"provenance": res["provenance"], "phases": res["phases"],
                      "rep_walls_s": res["walls"], "failed_frac": failed_frac,
                      "digest": res.get("digest"), "oracle_docs": res.get("oracle_docs"),
                      "trace_check": res.get("trace_check")}))
    metrics = {}
    if correct and args.trace:
        layers = dict.fromkeys((k for k, _ in W.per_layer_names()), 0.0)
        layers.update(res["layers"])
        metrics = {k: {"value": float(layers[k]), "unit": u} for k, u in W.per_layer_names()}
    elif correct:
        metrics = {
            "docs_per_s": {"value": res["e2e"]["docs_per_s"], "unit": "docs/s"},
            "wall_s": {"value": res["e2e"]["wall_s"], "unit": "s"},
            "setup_s": {"value": res["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} failed_frac = {failed_frac:.6g} ({res['failed']}/{res['attempted']})")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
