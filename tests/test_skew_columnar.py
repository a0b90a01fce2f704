"""The columnar skew guard against the per-span Python loop it replaced.

``_oracle_split`` / ``_oracle_reassemble`` are the old ``to_pylist``
implementations (``_cut_row`` and its loop), kept here as the oracle.
The one intended difference: a null ``spans`` row stays null in the
oracle too (the old loop turned it into ``[]``, but only in batches that
held an oversized row).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
import pyarrow as pa
import pytest

from ocr_table_extractor_to_csv_ray.sources.synthetic import SPAN_TYPE, corpus_table
from ocr_table_extractor_to_csv_ray.stages.skew import (
    GUARD_COLS, reassemble_group, split_oversized_batch, with_skew_guard)


def _cut_row(spans: List[Dict], max_spans: int, count_kind: Optional[str]) -> List[int]:
    cuts = []
    count = 0
    for i, s in enumerate(spans):
        if count_kind is None or s["kind"] == count_kind:
            count += 1
            if count > max_spans:
                cuts.append(i)
                count = 1
    cuts.append(len(spans))
    return cuts


def _guard(t: pa.Table, shard, n, base) -> pa.Table:
    for name, v in (("shard_no", shard), ("n_shards", n), ("media_base", base)):
        t = t.append_column(name, pa.array(v, pa.int32()))
    return t


def _oracle_split(batch: pa.Table, max_spans: int, count_kind: Optional[str]) -> pa.Table:
    rows = batch["spans"].to_pylist()
    count = [sum(1 for s in ss or [] if count_kind is None or s["kind"] == count_kind)
             for ss in rows]
    if not any(c > max_spans for c in count):
        n = batch.num_rows
        return _guard(batch, [0] * n, [1] * n, [0] * n)
    take, spans, shard, n_sh, base = [], [], [], [], []
    for ri, ss in enumerate(rows):
        if count[ri] <= max_spans:
            take.append(ri); spans.append(ss)
            shard.append(0); n_sh.append(1); base.append(0)
            continue
        cuts = _cut_row(ss, max_spans, count_kind)
        lo = media_seen = 0
        for k, hi in enumerate(cuts):
            take.append(ri); spans.append(ss[lo:hi])
            shard.append(k); n_sh.append(len(cuts)); base.append(media_seen)
            media_seen += sum(1 for s in ss[lo:hi] if s["kind"] == "media")
            lo = hi
    out = batch.take(pa.array(take, pa.int64()))
    i = out.schema.get_field_index("spans")
    out = out.set_column(i, batch.schema.field("spans"),
                         pa.array(spans, batch.schema.field("spans").type))
    return _guard(out, shard, n_sh, base)


def _oracle_reassemble(g: pa.Table) -> pa.Table:
    guard = [c for c in GUARD_COLS if c in g.column_names]
    if g.num_rows == 1 and g["n_shards"][0].as_py() == 1:
        return g.drop_columns(guard)
    order = np.argsort(g["shard_no"].to_numpy(zero_copy_only=False), kind="stable")
    rows = g["spans"].to_pylist()
    merged = []
    for i in order:
        for s in rows[i] or []:
            merged.append(dict(s, offset=len(merged)))
    row0 = g.take(pa.array([int(order[0])], pa.int64()))
    row0 = row0.set_column(row0.schema.get_field_index("spans"), g.schema.field("spans"),
                           pa.array([merged], g.schema.field("spans").type))
    return row0.drop_columns(guard)


def _random_batch(seed: int, n_docs: int = 12, max_len: int = 40) -> pa.Table:
    """Docs of random length with word/media/cell spans; some rows empty,
    one null, and doc-level columns of several types."""
    rng = np.random.default_rng(seed)
    docs = []
    for d in range(n_docs):
        n = int(rng.integers(0, max_len + 1)) if d % 5 else 0
        kinds = rng.choice(["word", "media", "cell"], size=n, p=[0.6, 0.25, 0.15])
        docs.append([{"kind": str(k), "text": f"t{d}.{i}", "media_ref": f"img://{d}/{i}",
                      "offset": i} for i, k in enumerate(kinds)])
    docs[3] = None
    return pa.table({
        "doc_id": pa.array([f"d{d:03d}" for d in range(n_docs)]),
        "spans": pa.array(docs, pa.list_(SPAN_TYPE)),
        "layout": pa.array(["generic", None, "dynamic"] * (n_docs // 3) + [""] * (n_docs % 3)),
        "weight": pa.array(np.arange(n_docs, dtype=np.float64)),
        "tags": pa.array([[d, d + 1] for d in range(n_docs)], pa.list_(pa.int64())),
    })


def _variants(t: pa.Table) -> Dict[str, pa.Table]:
    """The same rows as one chunk, as several chunks, and as a slice of a
    larger table (non-zero list offset)."""
    k = t.num_rows // 3
    padded = pa.concat_tables([t.slice(0, 2), t, t.slice(0, 1)]).combine_chunks()
    return {"plain": t,
            "chunked": pa.concat_tables([t.slice(0, k), t.slice(k, k), t.slice(2 * k)]),
            "sliced": padded.slice(2, t.num_rows)}


def _assert_split_and_reassemble(t: pa.Table, max_spans: int, count_kind) -> None:
    got = split_oversized_batch(t, max_spans=max_spans, count_kind=count_kind)
    want = _oracle_split(t, max_spans, count_kind)
    assert got.equals(want), (max_spans, count_kind)
    ids = got["doc_id"].to_pylist()
    for d in dict.fromkeys(ids):
        idx = [i for i, x in enumerate(ids) if x == d][::-1]     # shards out of order
        g = got.take(pa.array(idx))
        assert reassemble_group(g).equals(_oracle_reassemble(g)), d


@pytest.mark.parametrize("count_kind", [None, "media"])
@pytest.mark.parametrize("max_spans", [1, 2, 7, 40, 10_000])
def test_split_matches_cut_row_loop(max_spans, count_kind):
    for seed in range(4):
        for t in _variants(_random_batch(seed)).values():
            _assert_split_and_reassemble(t, max_spans, count_kind)


@pytest.mark.parametrize("count_kind", [None, "media"])
def test_split_counts_equal_to_max_spans(count_kind):
    """A row holding exactly ``max_spans`` counted spans is not split; one
    more is. Uncounted spans trailing a full shard stay in it."""
    t = _random_batch(11)
    rows = t["spans"].to_pylist()
    counts = [sum(1 for s in r or [] if count_kind is None or s["kind"] == count_kind)
              for r in rows]
    top = max(counts)
    for m in (top, top - 1, max(top // 2, 1)):
        _assert_split_and_reassemble(t, m, count_kind)
    assert split_oversized_batch(t, max_spans=top, count_kind=count_kind)["n_shards"] \
        .to_pylist() == [1] * t.num_rows


def test_split_corpus_docs_and_zero_rows():
    t = corpus_table(30, seed=3)
    for m in (1, 25, 60, 619):
        _assert_split_and_reassemble(t, m, None)
    empty = t.slice(0, 0)
    assert split_oversized_batch(empty, max_spans=5).equals(_oracle_split(empty, 5, None))


@pytest.mark.parametrize("oversized", [False, True])
def test_null_spans_row_stays_null(oversized):
    spans = [None, [{"kind": "word", "text": "a", "media_ref": "", "offset": i}
                    for i in range(4)]]
    t = pa.table({"doc_id": ["n", "x"], "spans": pa.array(spans, pa.list_(SPAN_TYPE))})
    out = split_oversized_batch(t, max_spans=2 if oversized else 10)
    assert out["spans"][0].as_py() is None
    assert out.num_rows == (3 if oversized else 2)


@pytest.mark.parametrize("bad", [0, -1])
def test_max_spans_below_one_raises(bad):
    t = _random_batch(0)
    with pytest.raises(ValueError, match="max_spans"):
        split_oversized_batch(t, max_spans=bad)
    with pytest.raises(ValueError, match="max_spans"):
        with_skew_guard(None, lambda d: d, max_spans=bad, known_max=0)
