"""The document workloads: Ray pipelines through the engine's public entry
points, their single-process replay, output digests and per-layer metrics.

* ``headline_dynamic``: ``build_extraction_ds`` (layout ``dynamic``) into
  ``write_parquet``; the skew guard is bypassed.
* ``mixed_layouts_tail``: the same pipeline with a per-row ``layout`` column
  and an oversize threshold that about 1% of the docs cross, so the guard
  splits them, runs its selective double pass and reassembles them with a
  ``groupby``; output goes through ``export_csvs`` (one ``.csv`` per doc,
  plus ``.num.csv`` for dynamic rows).
* ``media_ocr``: ``build_transformers_ds`` (rasterize, OCR actor pool,
  scorer actor pool, compose) into ``write_parquet``.

The replay pushes the same input blocks through the same stage callables in
one process without Ray; its per-doc digests must equal the Ray run's, which
catches plumbing faults (reassembly, the CSV sink) that per-doc kernels
alone would not show.
"""

from __future__ import annotations

import glob
import hashlib
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from perfbench.queries import QUERIES

PKG = "ocr_table_extractor_to_csv_ray"
LAYOUTS = ("generic", "financial", "professional", "dynamic")

# function spans, wrapped at the names their callers resolve: metric
# "<span>.ms_per_doc" (self time per input doc)
STAGE_SPANS = (
    "pipelines.extract.add_part_id_batch",
    "stages.extract.decode_token_batch",
    "stages.extract.make_span_column",
    "stages.extract.extract_batch",
    "stages.skew.split_oversized_batch",
    "stages.skew.reassemble_group",
    "sinks.csv_sink.write_csv_batch",
)
# stage objects the replay constructs and calls: metric "<span>.ms_per_doc"
OBJECT_SPANS = (
    "stages.ocr.PdfRasterizeStage",
    "stages.ocr.OcrStage",
    "stages.model.LayoutScorerStage",
    "stages.model.TransformersExtractStage",
)
# kernel spans: metric "<span>.self_ms_per_doc"
CORE_SPANS = (
    "core.geometry.build_lines",                       # every layout
    "core.geometry.adaptive_line_spans",               # dynamic
    "core.colmodel.infer_numeric_columns",             # dynamic
    "core.assigners.assign_dynamic",                   # dynamic
    "core.records.merge_financial_rows",               # dynamic, financial
    "core.assigners.assign_financial",                 # financial
    "core.postprocess.fill_missing_labels_and_clean",  # financial
    "core.geometry.estimate_columns",                  # generic
    "core.assigners.assign_words_to_columns",          # generic
    "core.records.merge_lines_into_rows",              # generic
    "core.records.detect_header_row",                  # generic
    "core.gridpro.professional_grid",                  # professional
    "core.spans.grid_to_spans",                        # every layout
    "core.layouts.extract_document",                   # every layout (residue)
)
# kernels every layout runs, also split by the layout of the doc
SPLIT_BY_LAYOUT = ("core.geometry.build_lines", "core.layouts.extract_document")
NUMERIC_FUNCS = ("is_num_span", "is_numeric_token", "is_number_like", "to_number")
RAY_OP_CLASSES = ("read", "map", "shuffle")
_SHUFFLE_WORDS = ("Aggregate", "Sort", "Shuffle", "Repartition", "GroupBy",
                  "MapGroups", "Union", "Zip", "AllToAll", "Join")
# metrics whose values are self time per doc: with the root span's own
# time they account for the whole traced replay
SELF_METRICS = ([f"{s}.ms_per_doc" for s in STAGE_SPANS + OBJECT_SPANS]
                + ["sinks.parquet.write_ms_per_doc", "replay.read_ms_per_doc"]
                + [f"{s}.self_ms_per_doc" for s in CORE_SPANS])


def per_layer_names() -> list:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for c in RAY_OP_CLASSES:
        out += [(f"ray_data.{c}.wall_s", "s"), (f"ray_data.{c}.cpu_s", "s")]
    out += [("ray_data.peak_heap_mb", "MB"), ("ray_data.read_amplification", "ratio"),
            ("ray.floor_ms_per_doc", "ms/doc"), ("ray.read_ms_per_doc", "ms/doc")]
    out += [(f"{s}.ms_per_doc", "ms/doc") for s in STAGE_SPANS + OBJECT_SPANS]
    out += [("stages.extract.extract_batch.batch_ms_p50", "ms"),
            ("stages.extract.extract_batch.batch_ms_p99", "ms"),
            ("sinks.parquet.write_ms_per_doc", "ms/doc"),
            ("stages.skew.split_oversized_batch.docs_split", "count"),
            ("stages.skew.split_oversized_batch.shards_out", "count"),
            ("sinks.csv_sink.write_csv_batch.files_written", "count"),
            ("stages.ocr.OcrStage.words_kept_frac", "ratio"),
            ("stages.model.LayoutScorerStage.init_s", "s")]
    out += [(f"{s}.self_ms_per_doc", "ms/doc") for s in CORE_SPANS]
    out += [(f"{s}.{lay}.self_ms_per_doc", "ms/doc") for s in SPLIT_BY_LAYOUT for lay in LAYOUTS]
    out += [("core.layouts.extract_document.ms_per_doc", "ms/doc")]
    out += [(f"core.layouts.extract_document.{lay}.ms_per_doc", "ms/doc") for lay in LAYOUTS]
    out += [("core.geometry.build_lines.lines_per_doc", "count/doc"),
            ("core.numeric.calls_per_doc", "count/doc")]
    out += [(f"query.{q}.wall_s", "s") for q in QUERIES]
    out += [("replay.docs_per_s", "docs/s"), ("replay.read_ms_per_doc", "ms/doc"),
            ("trace.overhead_ms_per_doc", "ms/doc"),
            ("trace.unattributed_frac", "ratio")]
    return out


def engine_config(workload: str, meta: dict):
    """Engine defaults with the workload's layout; a row's ``layout``
    value overrides it. The tail workload lowers the oversize threshold
    so about 1% of its docs are split."""
    from ocr_table_extractor_to_csv_ray.config import EngineConfig, LayoutConfig
    if workload == "media_ocr":
        return EngineConfig(layout=LayoutConfig(layout="transformers"))
    if workload == "mixed_layouts_tail":
        return EngineConfig(layout=LayoutConfig(layout="dynamic"),
                            oversize_token_threshold=meta["oversize_threshold"])
    return EngineConfig(layout=LayoutConfig(layout="dynamic"))


def read_columns(workload: str) -> list:
    return ["doc_id", "spans"] + (["layout"] if workload == "mixed_layouts_tail" else [])


def csv_sink(workload: str) -> bool:
    return workload == "mixed_layouts_tail"


# ---------------------------------------------------------------------------
# digests: one sha1 per doc, combined in doc_id order

def combine(doc_digests: dict) -> str:
    h = hashlib.sha1()
    for key in sorted(doc_digests):
        h.update(f"{key}:{doc_digests[key]}\n".encode())
    return h.hexdigest()


def _doc_strings(col) -> list:
    """Per doc, its ``(kind, text, media_ref, offset)`` tuples in offset
    order, serialized to one string (vectorized; no per-span Python)."""
    la = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    flat = la.flatten()
    order = pc.sort_indices(
        pa.table({"doc": pc.list_parent_indices(la), "offset": flat.field("offset")}),
        sort_keys=[("doc", "ascending"), ("offset", "ascending")])
    flat = flat.take(order)
    spans = pc.binary_join_element_wise(
        flat.field("kind"), flat.field("text"), flat.field("media_ref"),
        pc.cast(flat.field("offset"), pa.string()), "\x1f",
        null_handling="replace", null_replacement="\x00")
    lens = pc.fill_null(pc.list_value_length(la), 0).to_numpy(zero_copy_only=False)
    offsets = pa.array(np.concatenate(([0], np.cumsum(lens))), pa.int32())
    return pc.binary_join(pa.ListArray.from_arrays(offsets, spans), "\x1e").to_pylist()


def table_doc_digests(t: pa.Table) -> dict:
    """``{doc_id: sha1}`` over each doc's ordered ``(kind, text,
    media_ref, offset)`` tuples from ``spans`` then ``spans_numeric``."""
    cols = [_doc_strings(t[c]) for c in ("spans", "spans_numeric") if c in t.column_names]
    return {str(doc_id): hashlib.sha1("\x1d".join(parts).encode()).hexdigest()
            for doc_id, *parts in zip(t["doc_id"].to_pylist(), *cols)}


def csv_dir_digests(out_dir: str) -> dict:
    """``{doc_id: sha1}`` over each doc's ``.csv`` then ``.num.csv`` bytes
    (the CSV is a pure function of the doc's span tuples)."""
    out = {}
    for path in glob.glob(os.path.join(out_dir, "*.csv")):
        name = os.path.basename(path)
        if name.endswith(".num.csv"):
            continue
        h = hashlib.sha1()
        with open(path, "rb") as fh:
            h.update(fh.read())
        num = path[:-4] + ".num.csv"
        if os.path.exists(num):
            with open(num, "rb") as fh:
                h.update(b"\x1d" + fh.read())
        out[name[:-4]] = h.hexdigest()
    return out


def error_count(t: pa.Table) -> int:
    if "error" not in t.column_names:
        return 0
    return int(pc.sum(pc.greater(pc.utf8_length(pc.fill_null(t["error"], "")), 0)).as_py() or 0)


def check_output(workload: str, out_dir: str) -> dict:
    """Per-doc digests and error count of one sink output. CSV output
    carries no error column: its errors are counted by the replay."""
    if csv_sink(workload):
        return {"docs": csv_dir_digests(out_dir), "errors": None,
                "files": len(os.listdir(out_dir))}
    t = pq.read_table(out_dir)
    return {"docs": table_doc_digests(t), "errors": error_count(t), "table": t}


# ---------------------------------------------------------------------------
# Ray side

def ray_pipeline(workload: str, files: list, in_dir: str, out_dir: str, cfg):
    """Build the workload's pipeline and run it until its sink finishes;
    returns the Dataset whose stats describe the run (None for the CSV
    sink, which consumes its Dataset inside ``export_csvs``)."""
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.pipelines.extract import (
        build_extraction_ds, corpus_stats)
    stats = corpus_stats(in_dir) or {}
    ds = rd.read_parquet(files, columns=read_columns(workload))
    if workload == "media_ocr":
        from ocr_table_extractor_to_csv_ray.pipelines.transformers import (
            build_transformers_ds)
        out = build_transformers_ds(ds, cfg, known_max_media=stats.get("max_media_per_doc"))
    else:
        out = build_extraction_ds(ds, cfg, known_max_spans=stats.get("max_spans_per_doc"))
    if csv_sink(workload):
        from ocr_table_extractor_to_csv_ray.sinks.csv_sink import export_csvs
        n = export_csvs(out, out_dir)
        return None, n
    out.write_parquet(out_dir)
    return out, None


def capture_consumed(fn):
    """Run ``fn()`` and return ``(result, datasets)``: every Dataset the
    call consumed through ``iter_batches`` (``count`` iterates a derived
    one) or ``write_parquet``, so their stats can be read afterwards."""
    import ray.data as rd
    seen, patched = [], {}
    for name in ("iter_batches", "write_parquet"):
        orig = getattr(rd.Dataset, name)
        patched[name] = orig

        def wrapper(self, *a, __orig=orig, **kw):
            seen.append(self)
            return __orig(self, *a, **kw)
        setattr(rd.Dataset, name, wrapper)
    try:
        return fn(), seen
    finally:
        for name, orig in patched.items():
            setattr(rd.Dataset, name, orig)


def floor_pipeline(files: list, columns: list, out_dir: str) -> None:
    """Ray framework floor: identity read → map_batches → write_parquet."""
    import ray.data as rd
    (rd.read_parquet(files, columns=columns)
       .map_batches(lambda t: t, batch_format="pyarrow")
       .write_parquet(out_dir))


def stats_summaries(datasets) -> list:
    """Stats of executed Datasets; after ``write_*`` Ray keeps them on
    the write's own Dataset."""
    out = []
    for ds in datasets:
        src = ds._write_ds if getattr(ds, "_write_ds", None) is not None else ds
        out.append(src._get_stats_summary())
    return out


def _op_class(name: str) -> str:
    if name.startswith("Read"):
        return "read"
    if any(w in name for w in _SHUFFLE_WORDS):
        return "shuffle"
    return "map"


def ray_data_metrics(summaries: list, docs_in: int) -> dict:
    """Per-operator-class wall/CPU seconds, peak heap and read
    amplification from ``DatasetStatsSummary`` trees. Fused operators are
    classed by their first stage (``ReadParquet->MapBatches`` is a read)."""
    m = {f"ray_data.{c}.{q}": 0.0 for c in RAY_OP_CLASSES for q in ("wall_s", "cpu_s")}
    peak, rows_read, seen = 0.0, 0.0, set()

    def visit(s):
        nonlocal peak, rows_read
        if id(s) in seen:
            return
        seen.add(id(s))
        for op in s.operators_stats:
            c = _op_class(op.operator_name)
            m[f"ray_data.{c}.wall_s"] += (op.wall_time or {}).get("sum", 0.0)
            m[f"ray_data.{c}.cpu_s"] += (op.cpu_time or {}).get("sum", 0.0)
            peak = max(peak, (op.memory or {}).get("max", 0.0))
            if c == "read" and not op.is_sub_operator:
                rows_read += (op.output_num_rows or {}).get("sum", 0.0)
        for p in s.parents:
            visit(p)

    for s in summaries:
        visit(s)
    m["ray_data.peak_heap_mb"] = peak
    m["ray_data.read_amplification"] = rows_read / docs_in if docs_in else 0.0
    return m


# ---------------------------------------------------------------------------
# single-process replay through the public stage callables

def write_parquet(t: pa.Table, path: str) -> None:
    pq.write_table(t, path)


def _slices(t: pa.Table, size: int):
    return [t.slice(i, size) for i in range(0, t.num_rows, size)] or [t]


def _skew_guard(t: pa.Table, cfg, skew) -> pa.Table:
    """The selective guard per block: split, pass never-split rows
    through, reassemble each split doc from its shards (a doc's shards
    never leave its block)."""
    s = skew.split_oversized_batch(t, max_spans=cfg.oversize_token_threshold)
    one = pc.equal(s["n_shards"], 1)
    normal = s.filter(one).drop_columns(list(skew.GUARD_COLS))
    sharded = s.filter(pc.invert(one))
    if not sharded.num_rows:
        return normal
    groups = [skew.reassemble_group(sharded.filter(pc.equal(sharded["doc_id"], d)))
              for d in dict.fromkeys(sharded["doc_id"].to_pylist())]
    return pa.concat_tables([normal] + groups)


class Replay:
    """Replays one workload's input files through its stage callables.
    Function stages are looked up on their modules at call time, so
    tracing patches apply; stage objects are built once, as an actor
    would build them, and passed through ``wrap(name, stage)``."""

    def __init__(self, workload: str, cfg, wrap=lambda name, fn: fn) -> None:
        self.workload, self.cfg = workload, cfg
        self.init_s = 0.0
        if workload == "media_ocr":
            import time
            from ocr_table_extractor_to_csv_ray.stages import model, ocr
            lcfg = cfg.layout
            self.raster = wrap("stages.ocr.PdfRasterizeStage", ocr.PdfRasterizeStage())
            self.ocr_obj = ocr.OcrStage(cfg=lcfg)
            self.ocr = wrap("stages.ocr.OcrStage", self.ocr_obj)
            t0 = time.perf_counter()
            scorer = model.LayoutScorerStage(cfg=lcfg)
            self.init_s = time.perf_counter() - t0
            self.scorer = wrap("stages.model.LayoutScorerStage", scorer)
            self.compose = wrap("stages.model.TransformersExtractStage",
                                model.TransformersExtractStage(lcfg))

    def block(self, t: pa.Table) -> pa.Table:
        from ocr_table_extractor_to_csv_ray.pipelines import extract as px
        from ocr_table_extractor_to_csv_ray.stages import extract as sx
        from ocr_table_extractor_to_csv_ray.stages import skew
        cfg = self.cfg
        if self.workload == "media_ocr":
            for stage, size in ((self.raster, cfg.ocr_batch_size), (self.ocr, cfg.ocr_batch_size),
                                (self.scorer, cfg.model_batch_size), (self.compose, cfg.batch_size)):
                t = pa.concat_tables([stage(b) for b in _slices(t, size)])
            return t
        if self.workload == "mixed_layouts_tail":
            t = _skew_guard(t, cfg, skew)
        t = px.add_part_id_batch(t, cfg.num_output_partitions)
        return pa.concat_tables([sx.extract_batch(b, cfg.layout).append_column("part_id", b["part_id"])
                                 for b in _slices(t, cfg.batch_size)])

    def run(self, files: list, out_dir: str, tracer=None, parquet_sink=write_parquet) -> int:
        """Replay ``files`` into ``out_dir``; returns the error count (the
        output is digested afterwards, from ``out_dir``)."""
        from ocr_table_extractor_to_csv_ray.sinks import csv_sink as cs
        os.makedirs(out_dir, exist_ok=True)
        read = pq.read_table if tracer is None else tracer.timed("replay.read_input", pq.read_table)
        errors = 0
        for path in files:
            name = os.path.basename(path)
            if tracer is not None:
                tracer.batch = name
            out = self.block(read(path, columns=read_columns(self.workload)))
            errors += error_count(out)
            if csv_sink(self.workload):
                cs.write_csv_batch(out, out_dir)
            else:
                parquet_sink(out, os.path.join(out_dir, name))
        return errors


def replay_task(workload: str, files: list, cfg, out_dir: str) -> int:
    """Untraced replay of ``files`` (a plain Ray task body)."""
    return Replay(workload, cfg).run(files, out_dir)


# ---------------------------------------------------------------------------
# tracing: which engine callables are wrapped, and the metrics they yield

def install_tracing(tracer) -> None:
    """Wrap every traced engine function at the names its callers resolve."""
    import importlib

    def span(name, **kw):
        mod, attr = name.rsplit(".", 1)
        func = getattr(importlib.import_module(f"{PKG}.{mod}"), attr)
        tracer.patch_function(func, tracer.timed(name, func, **kw))

    def split_counts(t):
        n = t["n_shards"].to_numpy()
        tracer.counts["shards_out"] += int((n > 1).sum())
        tracer.counts["docs_split"] += int(((n > 1) & (t["shard_no"].to_numpy() == 0)).sum())

    for name in STAGE_SPANS:
        span(name, on_result=split_counts if name.endswith("split_oversized_batch") else None)
    for name in CORE_SPANS:
        if name == "core.geometry.build_lines":
            span(name, on_result=lambda lines: tracer.counts.update({"lines": len(lines)}))
        elif name == "core.layouts.extract_document":
            span(name, tag_of=lambda args: (args[1].layout or "dynamic").lower())
        else:
            span(name)
    numeric = importlib.import_module(f"{PKG}.core.numeric")
    for f in NUMERIC_FUNCS:
        func = getattr(numeric, f)
        tracer.patch_function(func, tracer.counted("core.numeric.calls", func))


def count_ocr_words(tracer, ocr_stage) -> None:
    """Count words the OCR engine emits and words ``_ocr_one`` keeps,
    on this one stage object."""
    engine, keep = ocr_stage._fake.image_to_words, ocr_stage._ocr_one

    def emitted(ref):
        words = engine(ref)
        tracer.counts["ocr_words_emitted"] += len(words)
        return words

    def kept(ref):
        words = keep(ref)
        tracer.counts["ocr_words_kept"] += len(words)
        return words

    ocr_stage._fake.image_to_words = emitted
    ocr_stage._ocr_one = kept


def layer_metrics(tracer, docs: int, layout_docs: dict) -> dict:
    """Per-layer metrics of one traced replay over ``docs`` input docs,
    ``layout_docs`` of them per layout."""
    tagged = tracer.self_seconds()
    selfs: dict = {}
    for (name, _tag), sec in tagged.items():
        selfs[name] = selfs.get(name, 0.0) + sec
    per_doc = lambda s: 1000.0 * s / docs  # noqa: E731
    m = {f"{s}.ms_per_doc": per_doc(selfs.get(s, 0.0)) for s in STAGE_SPANS + OBJECT_SPANS}
    m["sinks.parquet.write_ms_per_doc"] = per_doc(selfs.get("sinks.parquet.write", 0.0))
    m["replay.read_ms_per_doc"] = per_doc(selfs.get("replay.read_input", 0.0))
    batch_ms = [1000.0 * d for d in tracer.durations("stages.extract.extract_batch")]
    if batch_ms:
        m["stages.extract.extract_batch.batch_ms_p50"] = float(np.percentile(batch_ms, 50))
        m["stages.extract.extract_batch.batch_ms_p99"] = float(np.percentile(batch_ms, 99))
    m["stages.skew.split_oversized_batch.docs_split"] = float(tracer.counts["docs_split"])
    m["stages.skew.split_oversized_batch.shards_out"] = float(tracer.counts["shards_out"])
    emitted = tracer.counts["ocr_words_emitted"]
    m["stages.ocr.OcrStage.words_kept_frac"] = (
        tracer.counts["ocr_words_kept"] / emitted if emitted else 0.0)
    for s in CORE_SPANS:
        m[f"{s}.self_ms_per_doc"] = per_doc(selfs.get(s, 0.0))
    m["core.layouts.extract_document.ms_per_doc"] = per_doc(
        sum(tracer.durations("core.layouts.extract_document")))
    for lay in LAYOUTS:
        n = layout_docs.get(lay, 0)
        for s in SPLIT_BY_LAYOUT:
            m[f"{s}.{lay}.self_ms_per_doc"] = 1000.0 * tagged.get((s, lay), 0.0) / n if n else 0.0
        m[f"core.layouts.extract_document.{lay}.ms_per_doc"] = 1000.0 * sum(
            tracer.durations("core.layouts.extract_document", lay)) / n if n else 0.0
    m["core.geometry.build_lines.lines_per_doc"] = tracer.counts["lines"] / docs
    m["core.numeric.calls_per_doc"] = tracer.counts["core.numeric.calls"] / docs
    return m


def layout_doc_counts(files: list, workload: str) -> dict:
    """Docs per layout in ``files`` (the row's layout, else the workload's)."""
    if workload != "mixed_layouts_tail":
        n = sum(pq.ParquetFile(f).metadata.num_rows for f in files)
        return {"transformers" if workload == "media_ocr" else "dynamic": n}
    col = pa.chunked_array([pq.read_table(f, columns=["layout"])["layout"] for f in files])
    return {v["values"]: v["counts"] for v in pc.value_counts(col).to_pylist()}


def clear_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
