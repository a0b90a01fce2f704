"""The flagship extraction pipeline (reference ``run.py`` / ``main.py:57-163``
re-expressed Ray-Data-first; physical plan in SURVEY.md §4.3).

    read_parquet(doc_id, spans)                # column-pruned read
      └─ map_batches(add part_id)             # explicit hash(doc_id) partition id
      └─ map_batches(extract_batch)           # fused per-doc geometry kernel
      └─ write_parquet(partition_cols=...)    # resumable partitioned output

One scan, one fused map chain, no shuffle. There is no skew guard in
this plan: a page split may only cover per-shard parse/OCR stages and
must be reassembled before the geometry kernel (SURVEY.md §4.2), and
this plan has no such stage. Streaming end-to-end: no stage
materializes the dataset; the only materialization anywhere is the
(tiny) per-shard lineage record.
"""

from __future__ import annotations

import functools
import glob
import os
from typing import Dict, List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..config import EngineConfig
from ..stages.extract import extract_batch
from ..state import lineage


def corpus_files(input_dir: str) -> List[str]:
    return sorted(glob.glob(os.path.join(input_dir, "*.parquet")))


STATS_FILE = "_STATS.json"


def _dir_fingerprint(input_dir: str) -> List[List]:
    """(basename, size, mtime_ns) of every corpus parquet — the sidecar
    freshness contract. Any file added/removed/rewritten (even same
    size) changes the fingerprint; a copied corpus changes mtimes and
    conservatively invalidates the sidecar (safe: probe fallback)."""
    out = []
    for p in corpus_files(input_dir):
        st = os.stat(p)
        out.append([os.path.basename(p), st.st_size, st.st_mtime_ns])
    return out


def corpus_stats(input_dir: str) -> Optional[Dict]:
    """Manifest-style corpus statistics sidecar (the single-directory
    stand-in for Iceberg/Delta file stats). When present AND fresh, the
    transformers skew guard's engagement and the dedup decision are a
    dictionary lookup instead of a full streaming probe pass over 100 TB
    of spans. Bare parquet directories without a sidecar — or a sidecar
    whose recorded file fingerprint no longer matches the directory
    (files modified in place after ``write_corpus_stats``) — fall back to
    the probe, so a stale ``doc_ids_unique`` / ``max_media_per_doc`` can
    never silently skip dedup or the OCR page split."""
    import json
    p = os.path.join(input_dir, STATS_FILE)
    if not os.path.exists(p):
        return None
    try:
        with open(p) as fh:
            stats = json.load(fh)
    except (OSError, ValueError):
        return None
    fp = stats.get("files")
    if fp is not None and fp != _dir_fingerprint(input_dir):
        return None          # stale sidecar → probe/dedup path
    return stats


def write_corpus_stats(input_dir: str) -> Dict:
    """One Ray pass over the corpus computing the per-row max span
    count (total and media-only), persisted as ``_STATS.json``. Run
    once at ingest/generation time; every later pipeline run reads the
    sidecar for free."""
    import json
    import ray.data as rd
    from ..stages.skew import media_counts

    def _maxes(t: pa.Table) -> pa.Table:
        m_all = pc.max(pc.list_value_length(t["spans"])).as_py() if t.num_rows else 0
        # pdf media fan out to an unbounded page count at rasterize time,
        # so a raw media count is not a sound post-rasterize bound
        m_media, n_pdf = media_counts(t["spans"])
        return pa.table({"m_all": pa.array([int(m_all or 0)], pa.int64()),
                         "m_media": pa.array([m_media], pa.int64()),
                         "n_pdf": pa.array([n_pdf], pa.int64())})

    ds = rd.read_parquet(corpus_files(input_dir), columns=["spans"])
    # one partial row per input block → a tiny frame on the driver
    parts = ds.map_batches(_maxes, batch_format="pyarrow").to_pandas()

    # doc_id uniqueness: one ingest-time keys-only groupby lets every
    # later build_dataset run skip its dedup shuffle/probe outright
    ids = rd.read_parquet(corpus_files(input_dir), columns=["doc_id"])
    n_rows = ids.count()
    counts = ids.groupby("doc_id").count()
    n_distinct = counts.count()
    stats = {
        "max_spans_per_doc": int(parts["m_all"].max()),
        "max_media_per_doc": int(parts["m_media"].max()),
        "has_pdf_media": bool(parts["n_pdf"].sum() > 0),
        "doc_ids_unique": bool(n_distinct == n_rows),
        "files": _dir_fingerprint(input_dir),
    }
    with open(os.path.join(input_dir, STATS_FILE), "w") as fh:
        json.dump(stats, fh)
    return stats


def add_part_id_batch(t: pa.Table, num_partitions: int) -> pa.Table:
    """Stable ``part_id = hash(doc_id) % P`` (content-derived, so the
    same document lands in the same partition on every run/cluster).

    Vectorized via ``pd.util.hash_pandas_object`` (fixed default
    hash_key → stable across runs/processes/nodes) — no per-row Python
    in this hot stage (VERDICT r3 #3)."""
    ids = pd.Series(t["doc_id"].to_pandas(), copy=False).astype(str)
    h = pd.util.hash_pandas_object(ids, index=False).to_numpy()
    pid = (h % np.uint64(num_partitions)).astype(np.int32)
    out = t
    if "part_id" in out.column_names:
        out = out.drop_columns(["part_id"])
    return out.append_column("part_id", pa.array(pid))


def build_extraction_ds(ds, cfg: EngineConfig,
                        known_max_spans: Optional[int] = None):
    """Attach the extraction stages to an input Dataset (lazy): one fused
    ``add_part_id → extract_batch`` chain over the read, so the plan is
    one scan and no shuffle.

    No skew guard here: its split may only cover per-shard parse/OCR
    stages and must be undone before the geometry kernel, whose G2/G4
    profiles span all pages (SURVEY.md §4.2). This plan has no per-shard
    stage, so a split would hand the kernel exactly the rows it read,
    at the price of a second scan and an all-to-all reassembly.
    ``cfg.skew_guard`` / ``cfg.oversize_token_threshold`` are not read.
    ``known_max_spans`` is still accepted (perfbench passes it); no
    stage reads it.
    """
    ds = ds.map_batches(
        functools.partial(add_part_id_batch, num_partitions=cfg.num_output_partitions),
        batch_format="pyarrow",
    )

    def _extract(t: pa.Table) -> pa.Table:
        part = t["part_id"]
        out = extract_batch(t, cfg.layout)
        return out.append_column("part_id", part)

    return ds.map_batches(_extract, batch_format="pyarrow",
                          batch_size=cfg.batch_size)


CORPUS_FORMATS = ("parquet", "lance")


def read_corpus(paths, parallelism: int = 0, format: str = "parquet",
                columns: Optional[List[str]] = None):
    """Column-pruned corpus read with format dispatch.

    The north rule's corpus is a **Lance** table; the sandbox has no
    ``lance`` package, so tests/bench run the parquet mirror of the
    same Arrow schema (``doc_id:string, spans:list<struct<...>>``).
    ``format="lance"`` routes through ``ray.data.read_lance`` with the
    same column pushdown — the one-line swap documented in SURVEY.md §8
    is this dispatch. ``paths`` is a file list for parquet, a dataset
    URI for lance.
    """
    import ray.data as rd
    if format not in CORPUS_FORMATS:
        raise ValueError(f"format must be one of {CORPUS_FORMATS}, got {format!r}")
    kwargs = {"columns": list(columns) if columns else ["doc_id", "spans"]}
    if parallelism:
        kwargs["override_num_blocks"] = parallelism
    if format == "lance":
        return rd.read_lance(paths, **kwargs)
    return rd.read_parquet(paths, **kwargs)


def write_output(ds, out_dir: str, format: str = "parquet",
                 partition_cols: Optional[List[str]] = None):
    """Sink-side mirror of :func:`read_corpus`'s dispatch. Lance has
    its own row-group/fragment layout instead of hive partitioning, so
    ``partition_cols`` applies to parquet only."""
    if format not in CORPUS_FORMATS:
        raise ValueError(f"format must be one of {CORPUS_FORMATS}, got {format!r}")
    if format == "lance":
        ds.write_lance(out_dir)
        return out_dir
    if partition_cols:
        ds.write_parquet(out_dir, partition_cols=partition_cols)
    else:
        ds.write_parquet(out_dir)
    return out_dir


def run_extraction(input_dir: str, out_dir: str,
                   cfg: Optional[EngineConfig] = None,
                   input_format: str = "parquet",
                   output_format: str = "parquet"):
    """Single-shot streaming run (bench path): read → extract → write."""
    cfg = cfg or EngineConfig()
    src = corpus_files(input_dir) if input_format == "parquet" else input_dir
    ds = read_corpus(src, cfg.num_partitions, format=input_format)
    return write_output(build_extraction_ds(ds, cfg), out_dir, format=output_format,
                        partition_cols=["part_id"])


def run_extraction_resumable(input_dir: str, out_dir: str,
                             cfg: Optional[EngineConfig] = None,
                             num_shards: int = 8) -> Dict:
    """Sharded, lineage-recorded, resumable run.

    Input files are deterministically sharded; each shard is one
    streaming pipeline into ``out/shard=XXXX/`` followed by an atomic
    lineage record. A restart skips every shard whose record matches
    its input fingerprint and re-runs the rest from clean directories.
    At cluster scale each shard is still a full streaming job — the
    shard loop only bounds the blast radius of a failure.
    """
    cfg = cfg or EngineConfig()
    files = corpus_files(input_dir)
    shards = lineage.shard_input_files(files, num_shards)
    done, ran = [], []
    for sid, shard_files in enumerate(shards):
        if lineage.shard_is_done(out_dir, sid, shard_files):
            done.append(sid)
            continue
        lineage.reset_shard(out_dir, sid)
        with lineage.ShardTimer() as t:
            ds = read_corpus(shard_files, cfg.num_partitions)
            out = build_extraction_ds(ds, cfg)
            sdir = lineage.shard_dir(out_dir, sid)
            out.write_parquet(sdir)
            import pyarrow.dataset as pads
            written = pads.dataset(sdir)
            doc_count = written.count_rows()
            row_count = 0
            id_min = id_max = None
            for b in written.to_batches(columns=["spans", "doc_id"]):
                row_count += pc.sum(pc.list_value_length(b.column("spans"))).as_py() or 0
                mm = pc.min_max(b.column("doc_id"))
                lo_v, hi_v = mm["min"].as_py(), mm["max"].as_py()
                if lo_v is not None:
                    id_min = lo_v if id_min is None else min(id_min, lo_v)
                    id_max = hi_v if id_max is None else max(id_max, hi_v)
        lineage.write_record(out_dir, lineage.LineageRecord(
            shard_id=sid,
            input_files=shard_files,
            input_fingerprint=lineage.fingerprint_files(shard_files),
            row_count=int(row_count),
            doc_count=int(doc_count),
            latency_s=round(t.latency_s, 4),
            doc_id_range=None if id_min is None else [str(id_min), str(id_max)],
        ))
        ran.append(sid)
    return {"shards_total": len(shards), "shards_skipped": done, "shards_ran": ran}


# ---------------------------------------------------------------------------
# Ray-parallel synthetic corpus generation (a Dataset source)

def generate_corpus(out_dir: str, n_docs: int, seed: int = 42,
                    docs_per_block: int = 1000) -> str:
    """Materialize the deterministic corpus via Ray (parallel gen),
    cached: if the directory already holds the right doc count, reuse."""
    import ray.data as rd
    import pyarrow.dataset as pads
    from ..sources.synthetic import corpus_table

    from ..sources.synthetic import GENERATOR_VERSION
    marker = os.path.join(out_dir, "_COMPLETE")
    stamp = f"{n_docs}:{seed}:v{GENERATOR_VERSION}"
    if os.path.exists(marker):
        with open(marker) as fh:
            if fh.read().strip() == stamp:
                st = corpus_stats(out_dir)
                if st is None or "doc_ids_unique" not in st:  # backfill
                    write_corpus_stats(out_dir)
                return out_dir
    import shutil
    if os.path.isdir(out_dir):
        shutil.rmtree(out_dir)

    starts = list(range(0, n_docs, docs_per_block))

    def _gen(batch: pa.Table) -> pa.Table:
        tables = []
        for s in batch["start"].to_pylist():
            k = min(docs_per_block, n_docs - s)
            tables.append(corpus_table(k, seed, start=s))
        return pa.concat_tables(tables)

    (rd.from_items([{"start": s} for s in starts])
       .map_batches(_gen, batch_format="pyarrow", batch_size=1)
       .write_parquet(out_dir))
    # manifest stats at ingest time: one pass now, zero probe passes on
    # every later pipeline run over this corpus
    write_corpus_stats(out_dir)
    with open(marker, "w") as fh:
        fh.write(stamp)
    return out_dir
