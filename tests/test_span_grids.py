"""The columnar span→grid decoder and its consumers against the
per-span path they replaced.

``_oracle_write`` is the old ``write_csv_batch``: ``to_pylist`` →
``spans_to_grid`` → ``grid_to_csv_bytes`` per document; every sink case
compares the written file set and bytes of both. ``_oracle_eval_pairs``
is the old ``eval_pairs_batch`` tuple path.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from ocr_table_extractor_to_csv_ray.config import LayoutConfig
from ocr_table_extractor_to_csv_ray.core.spans import span_column_grids, spans_to_grid
from ocr_table_extractor_to_csv_ray.pipelines.evaluate import eval_pairs_batch, grid_pair_partials
from ocr_table_extractor_to_csv_ray.sinks.csv_sink import (
    grid_to_csv_bytes, numeric_variant_path, write_csv_batch)
from ocr_table_extractor_to_csv_ray.sources.synthetic import SPAN_TYPE, corpus_table
from ocr_table_extractor_to_csv_ray.stages.extract import extract_batch

H, C, E = "header_cell", "cell", "row_end"


def _tuples(ss):
    return [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in ss or []]


def _oracle_write(batch: pa.Table, out_dir: str, numeric: bool = True) -> None:
    os.makedirs(out_dir, exist_ok=True)
    ids = batch["doc_id"].to_pylist()
    spans = batch["spans"].to_pylist()
    nums = (batch["spans_numeric"].to_pylist()
            if numeric and "spans_numeric" in batch.column_names else [None] * len(ids))
    for doc_id, ss, nn in zip(ids, spans, nums):
        path = os.path.join(out_dir, f"{doc_id}.csv")
        with open(path, "wb") as fh:
            fh.write(grid_to_csv_bytes(*spans_to_grid(_tuples(ss))))
        if nn is not None:
            with open(numeric_variant_path(path), "wb") as fh:
                fh.write(grid_to_csv_bytes(*spans_to_grid(_tuples(nn))))


def _files(d) -> dict:
    return {p: open(os.path.join(d, p), "rb").read() for p in sorted(os.listdir(d))}


def _assert_same_files(batch, tmp_path, numeric=True) -> dict:
    ours, want = tmp_path / "ours", tmp_path / "want"
    assert write_csv_batch(batch, str(ours), numeric=numeric) is batch
    _oracle_write(batch, str(want), numeric=numeric)
    got = _files(ours)
    assert got == _files(want)
    return got


def _doc(cells, shuffle=False):
    """Span dicts for ``(kind, text)`` pairs, offsets in order (or reversed
    in storage when ``shuffle``)."""
    out = [{"kind": k, "text": t, "media_ref": "", "offset": i}
           for i, (k, t) in enumerate(cells)]
    return out[::-1] if shuffle else out


TRICKY = [(H, "a,b"), (H, 'say "hi"'), (E, ""),
          (C, "line\nbreak"), (C, "cr\rhere"), (C, None), (C, "Zürich — 東京"), (E, ""),
          (C, ""), (E, ""),
          (C, "x"), (C, "y"), (E, ""),
          (C, "dropped"), (C, "too")]


def _table(docs, numeric=None):
    cols = {"doc_id": pa.array([f"d{i}" for i in range(len(docs))]),
            "spans": pa.array(docs, pa.list_(SPAN_TYPE))}
    if numeric is not None:
        cols["spans_numeric"] = pa.array(numeric, pa.list_(SPAN_TYPE))
    return pa.table(cols)


def test_tricky_texts_and_grid_shapes(tmp_path):
    docs = [_doc(TRICKY), _doc(TRICKY, shuffle=True),
            _doc([(H, "only"), (H, "header"), (E, "")]),      # header-only grid
            _doc([(C, ""), (E, "")]),                        # one empty cell
            _doc([(C, "no row_end")]),                       # all cells dropped
            _doc([(E, ""), (E, "")]),                        # empty rows
            None, []]
    got = _assert_same_files(_table(docs), tmp_path)
    assert got["d6.csv"] == b"\xef\xbb\xbf"                   # null spans: empty file
    assert got["d0.csv"] == got["d1.csv"]                     # storage order is irrelevant
    assert got["d3.csv"] == b'\xef\xbb\xbf""\r\n'
    assert got["d4.csv"] == b"\xef\xbb\xbf"
    assert not any(p.endswith(".num.csv") for p in got)


def test_numeric_column_nulls_and_switch(tmp_path):
    docs = [_doc(TRICKY), _doc([(C, "1"), (E, "")]), None]
    nums = [_doc([(C, "2.5"), (E, "")], shuffle=True), None, []]
    t = _table(docs, nums)
    got = _assert_same_files(t, tmp_path / "on")
    assert sorted(p for p in got if p.endswith(".num.csv")) == ["d0.num.csv", "d2.num.csv"]
    got = _assert_same_files(t, tmp_path / "off", numeric=False)
    assert not any(p.endswith(".num.csv") for p in got)
    got = _assert_same_files(t.drop_columns(["spans_numeric"]), tmp_path / "absent")
    assert len(got) == 3


def test_chunked_sliced_and_empty_batches(tmp_path):
    ex = extract_batch(corpus_table(24, seed=5), LayoutConfig(layout="dynamic"))
    chunked = pa.concat_tables([ex.slice(0, 5), ex.slice(5, 0), ex.slice(5, 19)])
    assert chunked["spans"].num_chunks >= 2
    _assert_same_files(chunked, tmp_path / "chunked")
    _assert_same_files(ex.slice(7, 9), tmp_path / "sliced")
    assert _assert_same_files(ex.slice(0, 0), tmp_path / "empty") == {}


@pytest.mark.parametrize("layout", ["generic", "financial", "professional", "dynamic"])
def test_engine_output_every_layout(tmp_path, layout):
    ex = extract_batch(corpus_table(40, seed=9), LayoutConfig(layout=layout))
    _assert_same_files(ex, tmp_path)


def test_span_column_grids_rows():
    docs = [_doc(TRICKY, shuffle=True), None, [], _doc([(H, "h"), (E, "")])]
    col = _table(docs)["spans"]
    assert span_column_grids(col) == [
        spans_to_grid(_tuples(docs[0])), None, ([], []), (["h"], [])]
    assert span_column_grids(col.slice(1, 2)) == [None, ([], [])]


def _oracle_eval_pairs(batch: pa.Table) -> pa.Table:
    out = {k: [] for k in ("doc_id", "col", "n", "sse", "sum_t", "sumsq_t", "matched", "total")}
    for doc_id, sr, sp in zip(batch["doc_id"].to_pylist(), batch["spans_ref"].to_pylist(),
                              batch["spans_pred"].to_pylist()):
        part = grid_pair_partials(spans_to_grid(_tuples(sr)), spans_to_grid(_tuples(sp)))
        rows = [dict(col=-1, n=0, sse=0.0, sum_t=0.0, sumsq_t=0.0,
                     matched=part["matched"], total=part["total"])]
        rows += [dict(c, matched=0, total=0) for c in part["per_col"]]
        for r in rows:
            out["doc_id"].append(doc_id)
            for k in out:
                if k != "doc_id":
                    out[k].append(r[k])
    return pa.table({k: pa.array(v) for k, v in out.items()})


def test_eval_pairs_batch_matches_tuple_path(corpus_200):
    """Numeric grids of the dynamic layout, uncropped against cropped, so
    both cell matches and numeric residuals occur."""
    docs = corpus_200.slice(0, 40)
    ref = extract_batch(docs, LayoutConfig(layout="dynamic"))
    pred = extract_batch(docs, LayoutConfig(layout="dynamic", table_bbox=(150, 150, 1500, 1800)))
    pred_spans = pred["spans_numeric"].combine_chunks()
    pred_spans = pa.ListArray.from_arrays(       # one null prediction
        pred_spans.offsets, pred_spans.values,
        mask=pa.array([i == 3 for i in range(40)]))
    batch = pa.table({"doc_id": docs["doc_id"], "spans_ref": ref["spans_numeric"],
                      "spans_pred": pred_spans})
    got = eval_pairs_batch(batch)
    assert got.equals(_oracle_eval_pairs(batch))
    assert got.num_rows > 40 and 0 < pc.sum(got["matched"]).as_py()
