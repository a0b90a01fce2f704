"""Skew guard (oversized-doc split/reassemble) + per-doc error isolation."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ocr_table_extractor_to_csv_ray.config import LayoutConfig
from ocr_table_extractor_to_csv_ray.sources.synthetic import SPAN_TYPE, corpus_table
from ocr_table_extractor_to_csv_ray.stages.extract import extract_batch
from ocr_table_extractor_to_csv_ray.stages.skew import (
    reassemble_group, split_oversized_batch, with_skew_guard)


def test_split_passthrough_small_docs(corpus_200):
    out = split_oversized_batch(corpus_200, max_spans=50_000)
    assert out.num_rows == corpus_200.num_rows
    assert set(out["n_shards"].to_pylist()) == {1}
    assert out["spans"].to_pylist() == corpus_200["spans"].to_pylist()


def test_split_and_reassemble_roundtrip(corpus_200):
    small = corpus_200.slice(0, 20)
    split = split_oversized_batch(small, max_spans=30)
    assert split.num_rows > 20                      # something actually split
    assert max(split["n_shards"].to_pylist()) > 1
    # every shard respects the cap
    import pyarrow.compute as pc
    assert pc.max(pc.list_value_length(split["spans"])).as_py() <= 30

    # group rows by doc_id manually (what groupby.map_groups does)
    by_doc = {}
    for i, d in enumerate(split["doc_id"].to_pylist()):
        by_doc.setdefault(d, []).append(i)
    rebuilt = {}
    for d, idxs in by_doc.items():
        g = split.take(pa.array(idxs))
        rebuilt[d] = reassemble_group(g)["spans"].to_pylist()[0]
    for i, d in enumerate(small["doc_id"].to_pylist()):
        assert rebuilt[d] == small["spans"].to_pylist()[i], d


def test_with_skew_guard_identity(ray_session, corpus_dir):
    import ray.data as rd
    ds = rd.read_parquet(corpus_dir, columns=["doc_id", "spans"])
    guarded = with_skew_guard(ds, lambda d: d, max_spans=40)
    out = {r["doc_id"]: r["spans"] for r in guarded.take_all()}
    ref = {r["doc_id"]: r["spans"]
           for r in rd.read_parquet(corpus_dir, columns=["doc_id", "spans"]).take_all()}
    assert out == ref


def test_extract_after_guard_equals_direct(ray_session, corpus_dir):
    """Span-split + reassembly is invisible to the extraction kernel."""
    import functools
    import ray.data as rd
    cfg = LayoutConfig(layout="generic")
    direct = {
        r["doc_id"]: r["spans"]
        for r in rd.read_parquet(corpus_dir, columns=["doc_id", "spans"])
                   .map_batches(functools.partial(extract_batch, cfg=cfg),
                                batch_format="pyarrow").take_all()
    }
    guarded_ds = with_skew_guard(
        rd.read_parquet(corpus_dir, columns=["doc_id", "spans"]),
        lambda d: d, max_spans=40)
    guarded = {
        r["doc_id"]: r["spans"]
        for r in guarded_ds.map_batches(functools.partial(extract_batch, cfg=cfg),
                                        batch_format="pyarrow").take_all()
    }
    assert direct == guarded


def test_error_isolation():
    """A doc that crashes the kernel yields an error row, not a lost block."""
    bad = [{"kind": "word", "text": "x", "media_ref": "bbox://p1/5,5,9,9", "offset": 0}]
    tbl = pa.table({
        "doc_id": pa.array(["ok", "boom"]),
        "spans": pa.array([
            [{"kind": "word", "text": "a", "media_ref": "bbox://p1/1,1,20,20", "offset": 0}],
            bad,
        ], pa.list_(SPAN_TYPE)),
    })
    import ocr_table_extractor_to_csv_ray.core.layouts as L
    orig = L.extract_document

    def exploding(toks, cfg):
        if len(toks) and toks.text[0] == "x":
            raise RuntimeError("synthetic kernel crash")
        return orig(toks, cfg)

    L.extract_document = exploding
    try:
        import importlib
        import ocr_table_extractor_to_csv_ray.stages.extract as X
        importlib.reload(X)  # rebind the patched symbol
        out = X.extract_batch(tbl, LayoutConfig(layout="generic"))
    finally:
        L.extract_document = orig
        import importlib
        import ocr_table_extractor_to_csv_ray.stages.extract as X
        importlib.reload(X)
    assert out.num_rows == 2
    errs = out["error"].to_pylist()
    assert errs[0] == "" and "RuntimeError" in errs[1]
    assert out["spans"].to_pylist()[1] == []


def test_split_preserves_extra_columns(corpus_200):
    """Doc-level columns (e.g. a per-row layout) are replicated onto
    shards and restored by reassembly."""
    small = corpus_200.slice(0, 10).append_column(
        "layout", pa.array(["generic"] * 10))
    split = split_oversized_batch(small, max_spans=30)
    assert "layout" in split.column_names
    assert split.num_rows > 10
    by_doc = {}
    for i, d in enumerate(split["doc_id"].to_pylist()):
        by_doc.setdefault(d, []).append(i)
    for d, idxs in by_doc.items():
        out = reassemble_group(split.take(pa.array(idxs)))
        assert out.column_names == small.column_names     # order preserved
        assert out["layout"].to_pylist() == ["generic"]


def test_split_count_kind_media():
    """count_kind='media' bounds shards by PAGE-IMAGE count (what OCR
    cost scales with) and media_base keeps global page numbers."""
    from ocr_table_extractor_to_csv_ray.stages.ocr import OcrStage
    spans = []
    off = 0
    for i in range(6):                      # 6 pages interleaved with words
        spans.append({"kind": "media", "text": "",
                      "media_ref": f"img://d/p{i}", "offset": off}); off += 1
        spans.append({"kind": "word", "text": f"w{i}",
                      "media_ref": "bbox://p1/1,1,9,9", "offset": off}); off += 1
    t = pa.table({"doc_id": pa.array(["d"]),
                  "spans": pa.array([spans], pa.list_(SPAN_TYPE))})
    split = split_oversized_batch(t, max_spans=2, count_kind="media")
    assert split.num_rows == 3              # 6 media / 2 per shard
    assert split["media_base"].to_pylist() == [0, 2, 4]
    # pages are global: OCR of shard k starts at page media_base+1
    ocr = OcrStage()(split)
    pages = set()
    for row in ocr["spans"].to_pylist():
        for s in row:
            if s["kind"] == "word" and s["media_ref"].startswith("bbox://"):
                pages.add(s["media_ref"].removeprefix("bbox://").split("/")[0])
    assert pages == {f"p{i}" for i in range(1, 7)}
    # reassembly restores the original doc exactly (media spans + words)
    out = reassemble_group(split)
    merged = [s for s in out["spans"].to_pylist()[0] if s["kind"] == "media"]
    assert [s["media_ref"] for s in merged] == [f"img://d/p{i}" for i in range(6)]


def test_flagship_guard_invariance_100k_span_doc(ray_session, tmp_path):
    """North rule: a 100k-span document through the FULL flagship plan
    (guard on) produces byte-identical extraction to guard-off."""
    import functools
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.config import EngineConfig
    from ocr_table_extractor_to_csv_ray.pipelines.extract import build_extraction_ds

    base = corpus_table(20).select(["doc_id", "spans"])
    # one giant doc: concatenate corpus spans to >100k spans
    all_spans = [s for row in base["spans"].to_pylist() for s in row]
    reps = (100_000 // max(len(all_spans), 1)) + 1
    giant = []
    off = 0
    for _ in range(reps):
        for s in all_spans:
            giant.append({**s, "offset": off}); off += 1
    assert len(giant) > 100_000
    tbl = pa.concat_tables([
        base,
        pa.table({"doc_id": pa.array(["giant-doc"]),
                  "spans": pa.array([giant], base.schema.field("spans").type)}),
    ])
    path = str(tmp_path / "corpus")
    import pyarrow.parquet as pq
    import os
    os.makedirs(path, exist_ok=True)
    pq.write_table(tbl, os.path.join(path, "part0.parquet"))

    def run(cfg):
        ds = rd.read_parquet(path, columns=["doc_id", "spans"])
        out = build_extraction_ds(ds, cfg)
        return {r["doc_id"]: (r["n_rows"], r["n_cols"], r["spans"])
                for r in out.take_all()}

    guarded = run(EngineConfig(skew_guard=True, oversize_token_threshold=10_000))
    direct = run(EngineConfig(skew_guard=False))
    assert guarded == direct
    assert "giant-doc" in guarded and len(guarded) == 21


def test_transformers_guard_invariance(ray_session):
    """Media-doc OCR through the sharded path (1 page per shard) equals
    the unsharded pipeline — global page numbers survive the split."""
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.config import EngineConfig, LayoutConfig
    from ocr_table_extractor_to_csv_ray.pipelines.transformers import build_transformers_ds

    spans = [{"kind": "media", "text": "", "media_ref": f"img://tg/p{i}",
              "offset": i} for i in range(5)]
    t = pa.table({"doc_id": pa.array(["tg"]),
                  "spans": pa.array([spans], pa.list_(SPAN_TYPE))})
    lcfg = LayoutConfig(layout="transformers")
    plain = build_transformers_ds(
        rd.from_arrow(t), EngineConfig(layout=lcfg, skew_guard=False)).take_all()
    guarded = build_transformers_ds(
        rd.from_arrow(t), EngineConfig(layout=lcfg, skew_guard=True,
                                       ocr_pages_per_shard=1)).take_all()
    assert len(plain) == len(guarded) == 1
    assert plain[0]["spans"] == guarded[0]["spans"]
    assert plain[0]["n_rows"] == guarded[0]["n_rows"]


def test_corpus_stats_sidecar(ray_session, tmp_path):
    """Manifest stats: one ingest-time pass persists the oversized-tail
    decision; later runs never pay the probe."""
    import os
    import pyarrow.parquet as pq
    from ocr_table_extractor_to_csv_ray.pipelines.extract import (
        corpus_stats, write_corpus_stats)
    from ocr_table_extractor_to_csv_ray.pipelines.transformers import media_stat_bound

    path = str(tmp_path / "c")
    os.makedirs(path)
    mk = lambda n_words, media_refs: (
        [{"kind": "word", "text": f"w{i}", "media_ref": "", "offset": i}
         for i in range(n_words)]
        + [{"kind": "media", "text": "", "media_ref": r,
            "offset": n_words + j} for j, r in enumerate(media_refs)])
    t = pa.table({
        "doc_id": pa.array(["a", "b", "c"]),
        "spans": pa.array([mk(10, []),
                           mk(500, ["img://b/p1", "img://b/p2", "img://b/p3"]),
                           mk(2, ["img://c/p1"])], pa.list_(SPAN_TYPE)),
    })
    pq.write_table(t, os.path.join(path, "p0.parquet"))
    assert corpus_stats(path) is None
    stats = write_corpus_stats(path)
    assert {k: v for k, v in stats.items() if k != "files"} == {
        "max_spans_per_doc": 503, "max_media_per_doc": 3,
        "has_pdf_media": False, "doc_ids_unique": True}
    assert corpus_stats(path) == stats
    assert media_stat_bound(stats) == 3
    # pdf media make the post-rasterize media count unbounded -> no bound
    t2 = t.set_column(1, "spans", pa.array(
        [mk(1, ["pdf://x"]), mk(1, []), mk(1, [])], pa.list_(SPAN_TYPE)))
    pq.write_table(t2, os.path.join(path, "p0.parquet"))
    # sidecar is now STALE (file rewritten in place) → must NOT be
    # trusted: a stale doc_ids_unique would silently skip dedup
    assert corpus_stats(path) is None
    stats2 = write_corpus_stats(path)
    assert corpus_stats(path) == stats2          # fresh again
    assert stats2["has_pdf_media"] is True
    from ocr_table_extractor_to_csv_ray.pipelines.transformers import UNBOUNDED_MEDIA
    assert media_stat_bound(stats2) == UNBOUNDED_MEDIA  # guard, no probe
    assert media_stat_bound(None) is None


def _media_rows(rows):
    """``(doc_id, n_media)`` pairs → a table of media-only docs whose
    refs name the row, so merged rows cannot pass for the input."""
    return pa.table({
        "doc_id": pa.array([d for d, _ in rows]),
        "spans": pa.array([[{"kind": "media", "text": "", "offset": i,
                             "media_ref": f"img://{d}{r}/p{i}"} for i in range(n)]
                           for r, (d, n) in enumerate(rows)], pa.list_(SPAN_TYPE))})


def _rows(records):
    return sorted((r["doc_id"], repr(r["spans"])) for r in records)


def test_guard_keeps_rows_that_share_a_doc_id(ray_session):
    """Reassembly groups shards by input row, not by doc_id: two unsplit
    rows of ``d``, and a split plus an unsplit row of ``f``, come out one
    row per input row with their spans unchanged. The two blocks are
    split by separate tasks, so row ordinals alone would collide."""
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.config import EngineConfig, LayoutConfig
    from ocr_table_extractor_to_csv_ray.pipelines.transformers import build_transformers_ds

    blocks = [_media_rows([("d", 3), ("e", 20), ("f", 20)]),
              _media_rows([("d", 2), ("f", 2)])]
    t = pa.concat_tables(blocks)
    out = with_skew_guard(rd.from_arrow(blocks), lambda d: d, max_spans=16,
                          count_kind="media").take_all()
    assert _rows(out) == _rows(t.to_pylist())

    lcfg = LayoutConfig(layout="transformers")
    plain = build_transformers_ds(
        rd.from_arrow(blocks), EngineConfig(layout=lcfg, skew_guard=False)).take_all()
    guarded = build_transformers_ds(
        rd.from_arrow(blocks), EngineConfig(layout=lcfg, skew_guard=True,
                                            ocr_pages_per_shard=1)).take_all()
    assert len(guarded) == len(plain) == t.num_rows
    assert _rows(guarded) == _rows(plain)


def test_extraction_plan_is_one_scan(ray_session, tmp_path):
    """A corpus with a doc above ``oversize_token_threshold`` still runs
    as one fused read → map chain, with or without the manifest max: one
    ReadParquet, no shuffle or union, and the stage ahead of the
    extraction sees every row exactly once (no probe, no second pass).
    Output equals the ``skew_guard=False`` run."""
    import os
    import ray.data as rd
    import pyarrow.parquet as pq
    from ocr_table_extractor_to_csv_ray.config import EngineConfig
    from ocr_table_extractor_to_csv_ray.pipelines.extract import build_extraction_ds

    base = corpus_table(30).select(["doc_id", "spans"])
    path = str(tmp_path / "c")
    os.makedirs(path)
    pq.write_table(base, os.path.join(path, "p0.parquet"))
    counts = sorted(len(s) for s in base["spans"].to_pylist())
    assert counts[-1] > counts[-2]
    seen = str(tmp_path / "seen")

    def count_rows(t: pa.Table) -> pa.Table:
        with open(seen, "a") as fh:
            fh.write(f"{t.num_rows}\n")
        return t

    def run(cfg, **kw):
        open(seen, "w").close()
        ds = rd.read_parquet(path, columns=["doc_id", "spans"]).map_batches(
            count_rows, batch_format="pyarrow")
        out = build_extraction_ds(ds, cfg, **kw).materialize()
        with open(seen) as fh:
            assert sum(int(x) for x in fh) == base.num_rows
        rows = {r["doc_id"]: (r["n_rows"], r["n_cols"], r["spans"])
                for r in out.take_all()}
        return rows, [ln for ln in out.stats().splitlines() if ln.startswith("Operator ")]

    direct, _ = run(EngineConfig(skew_guard=False))
    cfg = EngineConfig(skew_guard=True, oversize_token_threshold=counts[-2])
    for known in (counts[-1], None):
        rows, ops = run(cfg, known_max_spans=known)
        assert rows == direct
        assert sum("ReadParquet" in op for op in ops) == 1, ops
        assert not [op for op in ops
                    if any(w in op for w in ("Sort", "Union", "Aggregate"))], ops


def test_generate_corpus_writes_stats(ray_session, tmp_path):
    import json
    import os
    import pyarrow.parquet as pq
    from ocr_table_extractor_to_csv_ray.pipelines.extract import (
        corpus_stats, generate_corpus)

    path = generate_corpus(str(tmp_path / "g"), 50, docs_per_block=20)
    stats = corpus_stats(path)
    assert stats is not None
    spans = pq.read_table(os.path.join(path), columns=["spans"])["spans"]
    import pyarrow.compute as pc
    assert stats["max_spans_per_doc"] == pc.max(
        pc.list_value_length(spans)).as_py()
    assert stats["has_pdf_media"] is False


def test_transformers_probe_on_raw_stream(ray_session):
    """The guard decision comes from the PRE-rasterize stream: pdf media
    force the guard (unbounded fan-out); img-only corpora below the
    shard threshold skip it — and either way OCR output is invariant."""
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.config import EngineConfig, LayoutConfig
    from ocr_table_extractor_to_csv_ray.pipelines.transformers import build_transformers_ds
    from ocr_table_extractor_to_csv_ray.stages.skew import media_probe

    mk = lambda refs: pa.table({
        "doc_id": pa.array(["d"]),
        "spans": pa.array([[{"kind": "media", "text": "", "media_ref": r,
                             "offset": i} for i, r in enumerate(refs)]],
                          pa.list_(SPAN_TYPE))})
    imgs = mk([f"img://d/p{i}" for i in range(3)])
    pdfs = mk(["pdf://d/doc.pdf"])
    assert media_probe(rd.from_arrow(imgs)) == (3, False)
    assert media_probe(rd.from_arrow(pdfs)) == (1, True)

    lcfg = LayoutConfig(layout="transformers")
    for t in (imgs, pdfs):
        plain = build_transformers_ds(
            rd.from_arrow(t),
            EngineConfig(layout=lcfg, skew_guard=False)).take_all()
        guarded = build_transformers_ds(
            rd.from_arrow(t),
            EngineConfig(layout=lcfg, skew_guard=True,
                         ocr_pages_per_shard=1)).take_all()
        assert plain[0]["spans"] == guarded[0]["spans"]
