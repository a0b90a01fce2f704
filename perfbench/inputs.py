"""Seeded benchmark inputs, generated once per (workload, seed) and cached.

Every input is a pure function of ``(workload, seed, size)``:

* ``headline_dynamic``: ``make_doc`` with no archetype forced (the default
  mix, about 90 spans per doc);
* ``mixed_layouts_tail``: half ``multipage`` docs (several hundred spans),
  the rest ``generic4``/``balance3``/``hierarchy``/``dynamic_years``, plus a
  ``layout`` column cycling generic/financial/professional/dynamic. The
  oversize threshold is the 99th percentile of the span counts, so about
  1% of the docs cross it and go through the skew guard's split;
* ``media_ocr``: every doc ``media_interleaved`` (page-image media spans);
* ``corpus_queries`` (the tables the queries of ``headline_dynamic``'s
  traced run read): a small TPC-H-shaped star schema (nation, supplier,
  customer, orders, lineitem) plus a ``documents`` table whose texts are
  drawn from a Zipf vocabulary, a few of them exact copies of earlier docs.

Inputs live under ``<work>/inputs/<workload>-s<seed>-n<docs>/`` next to an
``_INPUT.json`` that records the input digest (sha1 over the Arrow IPC
digests of the generated tables, in file order) and the size statistics
reported as provenance. Generation runs in child processes, so the
benchmark process's memory high-water mark never holds the corpus, and is
never part of a timed quantity.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

INPUT_META = "_INPUT.json"

# docs and docs per parquet file, per workload and size tier; for
# corpus_queries the docs are rows of the documents table and the files
# are tables
SIZES = {
    "full": {"headline_dynamic": (9000, 500), "mixed_layouts_tail": (1000, 50),
             "media_ocr": (1000, 50), "corpus_queries": (500, 0)},
    "tiny": {"headline_dynamic": (96, 24), "mixed_layouts_tail": (64, 16),
             "media_ocr": (48, 12), "corpus_queries": (60, 0)},
}
LAYOUTS = ("generic", "financial", "professional", "dynamic")
SMALL_ARCHETYPES = ("generic4", "balance3", "hierarchy", "dynamic_years")
TAIL_OVERSIZED_PCT = 99


def ipc_digest(tables) -> str:
    """sha1 over the Arrow IPC stream of each table, in order."""
    h = hashlib.sha1()
    for t in tables:
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, t.schema) as w:
            w.write_table(t.combine_chunks())
        h.update(sink.getvalue().to_pybytes())
    return h.hexdigest()


def doc_table(workload: str, seed: int, start: int, n: int) -> pa.Table:
    """Docs ``start..start+n`` of a document workload's corpus."""
    from ocr_table_extractor_to_csv_ray.sources.synthetic import (
        CORPUS_SCHEMA, corpus_table, make_doc)
    if workload == "headline_dynamic":
        return corpus_table(n, seed, start=start)
    if workload == "media_ocr":
        return pa.Table.from_pylist([make_doc(i, seed, "media_interleaved")
                                     for i in range(start, start + n)], schema=CORPUS_SCHEMA)
    rows = []
    for i in range(start, start + n):
        rng = np.random.default_rng([seed, i])
        arch = ("multipage" if rng.random() < 0.5 else
                SMALL_ARCHETYPES[int(rng.integers(0, len(SMALL_ARCHETYPES)))])
        rows.append(dict(make_doc(i, seed, arch), layout=LAYOUTS[i % len(LAYOUTS)]))
    return pa.Table.from_pylist(rows, schema=CORPUS_SCHEMA.append(pa.field("layout", pa.string())))


def _write_docs(job):
    """Write one input file; returns its IPC digest, per-doc span counts
    and docs per layout (so the parent never holds the corpus)."""
    workload, seed, start, n, path = job
    t = doc_table(workload, seed, start, n)
    pq.write_table(t, path)
    layouts = (pc.value_counts(t["layout"]).to_pylist()
               if "layout" in t.column_names else [])
    return (ipc_digest([t]), pc.list_value_length(t["spans"]).to_numpy(zero_copy_only=False),
            {v["values"]: v["counts"] for v in layouts})


def _make_docs(workload: str, seed: int, n_docs: int, per_file: int, out: str,
               procs: int) -> dict:
    jobs = [(workload, seed, start, min(per_file, n_docs - start),
             os.path.join(out, f"part-{start:06d}.parquet"))
            for start in range(0, n_docs, per_file)]
    with ProcessPoolExecutor(procs) as pool:
        parts = list(pool.map(_write_docs, jobs))
    counts = np.concatenate([c for _, c, _ in parts])
    meta = {"docs": int(n_docs), "files": len(jobs),
            "spans_p50": float(np.percentile(counts, 50)),
            "spans_p95": float(np.percentile(counts, 95)),
            "spans_max": int(counts.max())}
    if workload == "mixed_layouts_tail":
        threshold = int(np.percentile(counts, TAIL_OVERSIZED_PCT))
        layout_docs: dict = {}
        for _, _, lay in parts:
            for k, v in lay.items():
                layout_docs[k] = layout_docs.get(k, 0) + v
        meta["layout_docs"] = layout_docs
    else:
        from ocr_table_extractor_to_csv_ray.config import EngineConfig
        threshold = EngineConfig().oversize_token_threshold
        meta["layout_docs"] = {"transformers" if workload == "media_ocr" else "dynamic": n_docs}
    meta["oversize_threshold"] = threshold
    meta["oversized_docs"] = int((counts > threshold).sum())
    meta["input_digest"] = hashlib.sha1("".join(d for d, _, _ in parts).encode()).hexdigest()
    return meta


# ---------------------------------------------------------------------------
# corpus_queries tables

def _zipf_words(rng, vocab: int, n: int) -> np.ndarray:
    p = 1.0 / np.arange(1, vocab + 1)
    return rng.choice(vocab, size=n, p=p / p.sum())


def query_tables(seed: int, n_docs: int) -> dict:
    """A small star schema at about 1/100 of TPC-H scale factor 1 for
    ``n_docs`` = 500, scaled linearly with ``n_docs``."""
    rng = np.random.default_rng([seed, 7919])
    s = n_docs / 500.0
    n_cust, n_supp, n_part = int(1500 * s), max(10, int(100 * s)), int(2000 * s)
    n_orders = int(15000 * s)
    nation = pa.table({
        "n_nationkey": pa.array(np.arange(25), pa.int32()),
        "n_name": [f"NATION{i:02d}" for i in range(25)],
        "n_regionkey": pa.array(np.arange(25) % 5, pa.int32())})
    supplier = pa.table({
        "s_suppkey": np.arange(1, n_supp + 1, dtype=np.int64),
        "s_nationkey": pa.array(rng.integers(0, 25, n_supp), pa.int32())})
    segments = np.array(["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"])
    customer = pa.table({
        "c_custkey": np.arange(1, n_cust + 1, dtype=np.int64),
        "c_name": [f"Customer#{i:09d}" for i in range(1, n_cust + 1)],
        "c_nationkey": pa.array(rng.integers(0, 25, n_cust), pa.int32()),
        "c_mktsegment": segments[rng.integers(0, 5, n_cust)]})
    orders = pa.table({
        "o_orderkey": np.arange(1, n_orders + 1, dtype=np.int64) * 4,
        "o_custkey": rng.integers(1, n_cust + 1, n_orders).astype(np.int64)})
    lines = rng.integers(1, 8, n_orders)
    okey = np.repeat(orders["o_orderkey"].to_numpy(), lines)
    lineno = np.concatenate([np.arange(1, k + 1) for k in lines]).astype(np.int32)
    n_li = len(okey)
    qty = rng.integers(1, 51, n_li).astype(np.float64)
    lineitem = pa.table({
        "l_orderkey": okey,
        "l_partkey": rng.integers(1, n_part + 1, n_li).astype(np.int64),
        "l_suppkey": rng.integers(1, n_supp + 1, n_li).astype(np.int64),
        "l_linenumber": lineno,
        "l_quantity": qty,
        "l_extendedprice": np.round(qty * rng.uniform(900.0, 2000.0, n_li), 2),
        "l_discount": rng.integers(0, 11, n_li) / 100.0})
    # texts: Zipf tokens, so a few terms are heavy hitters while unrelated
    # docs share almost no 3-shingles; every 20th doc repeats an earlier text
    texts = []
    for i in range(n_docs):
        if i and i % 20 == 0:
            texts.append(texts[int(rng.integers(0, i))])
            continue
        words = _zipf_words(rng, 3000, int(rng.integers(30, 120)))
        texts.append(" ".join(f"w{w}" for w in words))
    documents = pa.table({
        "doc_id": np.arange(n_docs, dtype=np.int64),
        "text": texts,
        "n_chars": np.array([len(t) for t in texts], np.int64)})
    return {"nation": nation, "supplier": supplier, "customer": customer,
            "orders": orders, "lineitem": lineitem, "documents": documents}


def _make_query_tables(job) -> dict:
    seed, n_docs, out = job
    tables = query_tables(seed, n_docs)
    for name, t in tables.items():
        pq.write_table(t, os.path.join(out, f"{name}.parquet"))
    return {"docs": n_docs, "files": len(tables),
            "rows": {name: t.num_rows for name, t in tables.items()},
            "input_digest": ipc_digest(tables[k] for k in sorted(tables))}


def ensure_inputs(work: str, workload: str, seed: int, size: str, procs: int):
    """Return ``(input_dir, meta)``, generating the inputs on first use."""
    n_docs, per_file = SIZES[size][workload]
    out = os.path.join(work, "inputs", f"{workload}-s{seed}-n{n_docs}")
    meta_path = os.path.join(out, INPUT_META)
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            return out, json.load(fh)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    if workload == "corpus_queries":
        with ProcessPoolExecutor(1) as pool:
            meta = next(pool.map(_make_query_tables, [(seed, n_docs, out)]))
    else:
        meta = _make_docs(workload, seed, n_docs, per_file, out, procs)
    with open(meta_path, "w") as fh:
        json.dump(meta, fh)
    return out, meta


def doc_files(input_dir: str):
    return sorted(os.path.join(input_dir, f) for f in os.listdir(input_dir)
                  if f.startswith("part-") and f.endswith(".parquet"))
