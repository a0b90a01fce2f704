"""The extraction stage: Arrow batch in → Arrow batch out.

One batch holds many documents (one row each, ``spans`` list column).
The whole batch is decoded ONCE into flat numpy arrays (vectorized
``pyarrow.compute`` kernels — no per-row ``to_pylist``); the crop and line
building run once over those arrays. The dynamic and generic documents
then stay in flat arrays through their whole layout
(:func:`core.layouts.dynamic_grids`: column model, assignment, row merge,
numeric rows; :func:`core.layouts.generic_grids`: column profile, cells,
row merge, header) until their grid rows reach the one span encoder
(:func:`core.spans.encode_rows`); a batch pass that raises re-runs its
documents one at a time (:func:`isolated_pass`). The pure per-document
kernel (:func:`core.layouts.extract_document`) runs the financial and
professional layouts over offset slices. Stateless → plain function →
Ray task stage.
"""

from __future__ import annotations

import logging
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import LayoutConfig
from ..core.doc import TokenSOA
from ..core.geometry import build_lines_batch
from ..core.layouts import DocResult, dynamic_grids, extract_document, generic_grids
from ..core.spans import (BBOX_PATTERN, KIND_WORD, GridRows, encode_rows, flat_spans,
                          grid_rows, span_list_column)


def _combine(col):
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def decode_token_batch(spans_col) -> Tuple[np.ndarray, TokenSOA, np.ndarray]:
    """Flatten a batch's ``spans`` list column into word-token arrays.

    Returns ``(word_offsets, flat_tokens, has_line_id)`` where document
    ``i`` owns ``flat_tokens[word_offsets[i]:word_offsets[i+1]]``.
    Non-word spans (media, markers) are dropped here; media routing is a
    separate stage (``stages/ocr.py``).
    """
    flat, offsets = flat_spans(spans_col)

    kind = flat.field("kind")
    text = flat.field("text")
    media = flat.field("media_ref")

    ext = pc.extract_regex(media, pattern=BBOX_PATTERN)
    wmask = (
        pc.and_(pc.equal(kind, KIND_WORD), ext.is_valid())
        .to_numpy(zero_copy_only=False)
        .astype(bool)
    )
    widx = pa.array(np.flatnonzero(wmask), type=pa.int64())

    cumw = np.concatenate(([0], np.cumsum(wmask, dtype=np.int64)))
    word_offsets = cumw[offsets]

    ext_w = ext.take(widx)
    to_i64 = lambda name: pc.cast(ext_w.field(name), pa.int64()).to_numpy(zero_copy_only=False)
    lid_arr = ext_w.field("line_id")
    # vectorized null/empty test (VERDICT r3 #3): null or "" → no line id
    has_lid = (pc.fill_null(pc.utf8_length(lid_arr), 0)
               .to_numpy(zero_copy_only=False) > 0)
    lid = lid_arr.to_numpy(zero_copy_only=False).astype(object)
    lid[~has_lid] = None

    toks = TokenSOA(
        text=text.take(widx).to_numpy(zero_copy_only=False).astype(object),
        page=to_i64("page"),
        x1=to_i64("x1"),
        y1=to_i64("y1"),
        x2=to_i64("x2"),
        y2=to_i64("y2"),
        line_id=lid,
    )
    return word_offsets, toks, has_lid


def make_span_column(per_doc: Sequence[List[Tuple[str, str, str, int]]]) -> pa.ListArray:
    """Assemble output span tuples into a ``list<struct>`` column."""
    lengths = np.fromiter((len(t) for t in per_doc), dtype=np.int64, count=len(per_doc))
    kinds: List[str] = []
    texts: List[str] = []
    offs: List[int] = []
    for tuples in per_doc:
        for k, t, _m, o in tuples:
            kinds.append(k)
            texts.append(t)
            offs.append(o)
    return span_list_column(lengths, pa.array(kinds, pa.string()), pa.array(texts, pa.string()),
                            np.array(offs, dtype=np.int64))


def crop_token_batch(word_offsets: np.ndarray, toks: TokenSOA, has_lid: np.ndarray,
                     bbox: Tuple[int, int, int, int]
                     ) -> Tuple[np.ndarray, TokenSOA, np.ndarray]:
    """:meth:`TokenSOA.crop` for every doc of a decoded batch at once."""
    keep = toks.inside(bbox)
    cum = np.concatenate(([0], np.cumsum(keep, dtype=np.int64)))
    idx = np.flatnonzero(keep)
    return cum[word_offsets], toks.take(idx), has_lid[idx]


def isolated_pass(run, docs: np.ndarray, n_grids: int, errors: List[str],
                  counts: np.ndarray) -> List[GridRows]:
    """The ``n_grids`` grids of ``run(docs)``, a whole-batch layout pass
    returning ``(grids, n_rows, n_cols)`` by position in ``docs``,
    renumbered by batch doc; ``n_rows`` / ``n_cols`` go to the columns
    ``docs`` of ``counts``. If the pass raises, its docs run again one at
    a time and a doc that still raises gets its ``error`` and no rows: a
    malformed document must not poison its block (SURVEY.md §4.2)."""
    if not len(docs):
        return [grid_rows([])] * n_grids
    try:
        parts = [(docs, run(docs))]
    except Exception as exc:  # noqa: BLE001
        logging.getLogger(__name__).warning(
            "batch pass failed (%r); re-running its %d docs one at a time", exc, len(docs))
        parts = []
        for d in docs.tolist():
            try:
                parts.append((np.array([d]), run(np.array([d]))))
            except Exception as err:  # noqa: BLE001
                errors[d] = f"{type(err).__name__}: {err}"[:200]
    for sel, (_, rows, cols) in parts:
        counts[:, sel] = rows, cols
    return [GridRows.concat([grid_rows([])] + [g[k]._replace(doc=sel[g[k].doc])
                                              for sel, (g, _, _) in parts])
            for k in range(n_grids)]


def extract_batch(tbl: pa.Table, cfg: LayoutConfig) -> pa.Table:
    """Run the layout kernel over every document row of the batch.

    Per-row dispatch (SURVEY.md §2.11): a ``layout`` string column on
    the input overrides ``cfg.layout`` row-by-row — one corpus can mix
    strategies without splitting the pipeline. Rows with an empty /
    null layout value fall back to ``cfg.layout``.

    The ``table_bbox`` crop and line building run once over the whole
    batch; so do the whole dynamic and generic layouts
    (:func:`dynamic_grids`, :func:`generic_grids`). The other layouts run
    per document (:func:`extract_document`). Either way an exception
    costs only the document that raises its result (:func:`isolated_pass`).
    One encoder pass builds each span column.
    """
    import dataclasses

    n = tbl.num_rows
    word_offsets, toks, has_lid = decode_token_batch(tbl["spans"])
    if cfg.table_bbox is not None:
        word_offsets, toks, has_lid = crop_token_batch(word_offsets, toks, has_lid,
                                                       cfg.table_bbox)
        cfg = dataclasses.replace(cfg, table_bbox=None)

    row_layouts: Optional[List] = None
    cfg_cache = {cfg.layout: cfg}
    if "layout" in tbl.column_names:
        row_layouts = tbl["layout"].to_pylist()
    out_layout: List[str] = [cfg.layout] * n
    row_cfgs: List[LayoutConfig] = [cfg] * n
    if row_layouts is not None:
        for i, lay in enumerate(row_layouts):
            if lay:
                if lay not in cfg_cache:
                    cfg_cache[lay] = dataclasses.replace(cfg, layout=lay)
                row_cfgs[i] = cfg_cache[lay]
                out_layout[i] = lay
    layouts = [(c.layout or "dynamic").lower() for c in row_cfgs]
    lb = build_lines_batch(word_offsets, toks, has_lid,
                           include=np.array([lay != "professional" for lay in layouts], dtype=bool))

    def dynamic_pass(docs):
        sel = lb.select(np.isin(np.arange(n), docs))
        m = sel.members
        spans, numeric, rows, cols = dynamic_grids(sel.doc_lines, sel.y1, sel.y2, sel.starts,
                                                   toks.x1[m], toks.x2[m], toks.text[m], cfg)
        return (spans, numeric), rows, cols

    def generic_pass(docs):
        grid, rows, cols = generic_grids(lb.select(np.isin(np.arange(n), docs)), toks, cfg)
        return (grid,), rows, cols

    n_rows, n_cols = counts = np.zeros((2, n), dtype=np.int32)
    errors: List[str] = [""] * n
    def docs_of(layout):
        return np.array([i for i, lay in enumerate(layouts) if lay == layout], dtype=np.int64)

    dyn_spans, numeric = isolated_pass(dynamic_pass, docs_of("dynamic"), 2, errors, counts)
    spans_parts = [dyn_spans] + isolated_pass(generic_pass, docs_of("generic"), 1, errors, counts)

    others = [i for i, lay in enumerate(layouts) if lay not in ("dynamic", "generic")]
    lines = lb.per_doc(word_offsets) if "financial" in layouts else [[]] * n
    grids = []
    for i in others:
        doc = dataclasses.replace(toks.take(np.arange(word_offsets[i], word_offsets[i + 1])),
                                  lines=lines[i])
        try:
            res: DocResult = extract_document(doc, row_cfgs[i])
        except Exception as exc:  # noqa: BLE001
            res = DocResult()
            errors[i] = f"{type(exc).__name__}: {exc}"[:200]
        grids.append((res.header, res.rows))
        n_rows[i] = res.n_rows
        n_cols[i] = res.n_cols
    spans_parts.append(grid_rows(grids, others))

    cols = {
        "doc_id": _combine(tbl["doc_id"]),
        "layout": pa.array(out_layout, pa.string()),
        "n_rows": pa.array(n_rows),
        "n_cols": pa.array(n_cols),
        "error": pa.array(errors, pa.string()),
        "spans": encode_rows(GridRows.concat(spans_parts), n),
    }
    # Schema must be BATCH-INVARIANT: decide from config / input schema
    # only, never from this batch's row values — otherwise blocks of one
    # dataset disagree on whether ``spans_numeric`` exists and parquet /
    # union schema unification breaks. With a ``layout`` column present
    # ANY batch may contain dynamic rows, so always emit the column
    # (empty lists for non-dynamic rows).
    if cfg.layout == "dynamic" or row_layouts is not None:
        cols["spans_numeric"] = encode_rows(numeric, n)
    return pa.table(cols)
