"""The extraction stage: Arrow batch in → Arrow batch out.

One batch holds many documents (one row each, ``spans`` list column).
The whole batch is decoded ONCE into flat numpy arrays (vectorized
``pyarrow.compute`` kernels — no per-row ``to_pylist``); the crop, line
building and the dynamic layout's spans run once over those arrays; then
the pure per-document kernel (:func:`core.layouts.extract_document`) runs
over offset slices.  Stateless → plain function → Ray task stage.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import LayoutConfig
from ..core.doc import TokenSOA
from ..core.geometry import build_lines_batch, dynamic_spans
from ..core.layouts import DocResult, extract_document
from ..core.spans import BBOX_PATTERN, KIND_WORD, flat_spans, grid_to_spans

SPAN_TYPE = pa.struct([
    ("kind", pa.string()),
    ("text", pa.string()),
    ("media_ref", pa.string()),
    ("offset", pa.int32()),
])


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
    struct = pa.StructArray.from_arrays(
        [
            pa.array(kinds, pa.string()),
            pa.array(texts, pa.string()),
            pa.array([""] * len(kinds), pa.string()),
            pa.array(offs, pa.int32()),
        ],
        fields=list(SPAN_TYPE),
    )
    offsets = pa.array(np.concatenate(([0], np.cumsum(lengths))), pa.int32())
    return pa.ListArray.from_arrays(offsets, struct)


def crop_token_batch(word_offsets: np.ndarray, toks: TokenSOA, has_lid: np.ndarray,
                     bbox: Tuple[int, int, int, int]
                     ) -> Tuple[np.ndarray, TokenSOA, np.ndarray]:
    """:meth:`TokenSOA.crop` for every doc of a decoded batch at once."""
    keep = toks.inside(bbox)
    cum = np.concatenate(([0], np.cumsum(keep, dtype=np.int64)))
    idx = np.flatnonzero(keep)
    return cum[word_offsets], toks.take(idx), has_lid[idx]


def batch_line_inputs(word_offsets: np.ndarray, toks: TokenSOA, has_lid: np.ndarray,
                      layouts: Sequence[str]) -> Tuple[List[list], List[Optional[list]]]:
    """Per doc, its visual lines (every layout but ``professional``, whose
    grid ignores them) and, for ``dynamic`` docs, its per-line spans —
    each computed in one pass over the whole batch."""
    lb = build_lines_batch(word_offsets, toks, has_lid,
                           include=np.array([lay != "professional" for lay in layouts], dtype=bool))
    dyn = np.array([lay == "dynamic" for lay in layouts], dtype=bool)
    dyn_lines = np.repeat(dyn, np.diff(lb.doc_lines))
    sizes = np.diff(lb.starts)
    m = lb.members[np.repeat(dyn_lines, sizes)]
    spans = dynamic_spans(toks.x1[m], toks.x2[m], toks.text[m],
                          np.concatenate(([0], np.cumsum(sizes[dyn_lines]))))
    bounds = np.concatenate(([0], np.cumsum(np.diff(lb.doc_lines) * dyn))).tolist()
    spans_per_doc = [spans[a:b] if d else None for a, b, d in zip(bounds, bounds[1:], dyn)]
    return lb.per_doc(word_offsets), spans_per_doc


def extract_batch(tbl: pa.Table, cfg: LayoutConfig) -> pa.Table:
    """Run the layout kernel over every document row of the batch.

    Per-row dispatch (SURVEY.md §2.11): a ``layout`` string column on
    the input overrides ``cfg.layout`` row-by-row — one corpus can mix
    strategies without splitting the pipeline. Rows with an empty /
    null layout value fall back to ``cfg.layout``.

    The ``table_bbox`` crop, line building and the dynamic layout's spans
    run once over the whole batch; the per-document kernel gets them with
    its tokens.
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
    lines, spans = batch_line_inputs(word_offsets, toks, has_lid,
                                     [(c.layout or "dynamic").lower() for c in row_cfgs])

    span_out: List[List[Tuple[str, str, str, int]]] = []
    numeric_out: List[List[Tuple[str, str, str, int]]] = []
    n_rows = np.zeros(n, dtype=np.int32)
    n_cols = np.zeros(n, dtype=np.int32)
    errors: List[str] = [""] * n
    # Schema must be BATCH-INVARIANT: decide from config / input schema
    # only, never from this batch's row values — otherwise blocks of one
    # dataset disagree on whether ``spans_numeric`` exists and parquet /
    # union schema unification breaks. With a ``layout`` column present
    # ANY batch may contain dynamic rows, so always emit the column
    # (empty lists for non-dynamic rows).
    emit_numeric = cfg.layout == "dynamic" or row_layouts is not None

    for i in range(n):
        lo, hi = word_offsets[i], word_offsets[i + 1]
        sl = slice(lo, hi)
        doc = TokenSOA(
            text=toks.text[sl],
            page=toks.page[sl],
            x1=toks.x1[sl],
            y1=toks.y1[sl],
            x2=toks.x2[sl],
            y2=toks.y2[sl],
            line_id=toks.line_id[sl] if has_lid[sl].any() else None,
            lines=lines[i],
            line_spans=spans[i],
        )
        try:
            res: DocResult = extract_document(doc, row_cfgs[i])
        except Exception as exc:  # noqa: BLE001
            # a malformed document must not poison its whole block
            # (SURVEY.md §4.2 retries row): emit an empty result + error
            res = DocResult()
            errors[i] = f"{type(exc).__name__}: {exc}"[:200]
        span_out.append(grid_to_spans(res.header, res.rows))
        if emit_numeric:
            numeric_out.append(
                grid_to_spans(res.header, res.rows_numeric)
                if res.rows_numeric is not None
                else []
            )
        n_rows[i] = res.n_rows
        n_cols[i] = res.n_cols

    cols = {
        "doc_id": _combine(tbl["doc_id"]),
        "layout": pa.array(out_layout, pa.string()),
        "n_rows": pa.array(n_rows),
        "n_cols": pa.array(n_cols),
        "error": pa.array(errors, pa.string()),
        "spans": make_span_column(span_out),
    }
    if emit_numeric:
        cols["spans_numeric"] = make_span_column(numeric_out)
    return pa.table(cols)
