"""Skew guard: page-split oversized documents, reassemble after parse.

A 10^12-document corpus has a tail of multi-thousand-page documents;
one such row would pin a single worker for minutes (Ray blocks split
BETWEEN rows, never inside one). The guard:

    map_batches(split_oversized)        # flat-map: giant doc → per-page shard rows
      ... parse / OCR stages ...        # per-shard, embarrassingly parallel
    groupby(row).map_groups(reassemble) # restore one row per input row

Validity boundary (SURVEY.md §4.2): the geometry kernels compute the
column/row profiles across ALL pages jointly (``columns.py:14-27``,
``rows.py:18-30``), so the split may only cover parse/OCR stages —
``reassemble`` must run BEFORE the extraction kernel. A pipeline with no
per-shard stage therefore has no use for the guard: the flagship
extraction plan reads whole documents straight into the kernel, and only
the transformers plan (OCR actor pool) wraps its OCR stage in it.

Shard rows carry ``(shard_no, n_shards, media_base)`` (``GUARD_COLS``)
and the input row's ``ROW_KEY``; reassembly concatenates spans in
``shard_no`` order and re-bases offsets, so the output row is
byte-identical to the unsplit row. ``media_base`` (count of media spans
in earlier shards) lets the OCR stage keep GLOBAL page numbers — shard
2's first page image is page 17, not page 1. Split and reassembly never
decode a span: shard ids come from numpy offset arithmetic over the flat
spans and the span structs move by Arrow ``take``, so a batch holding an
oversized row costs no Python per span.
"""

from __future__ import annotations

import functools
import uuid
from typing import Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core.spans import KIND_MEDIA, count_per_row, flat_spans, kind_flags

GUARD_COLS = ("shard_no", "n_shards", "media_base")
# the input row a shard came from: set by with_skew_guard and dropped by
# reassemble_group, but not in GUARD_COLS, which names exactly the
# columns split_oversized_batch appends
ROW_KEY = "guard_row"


def _check_max_spans(max_spans: int) -> None:
    if max_spans < 1:
        raise ValueError(f"max_spans must be >= 1, got {max_spans}")


def media_counts(spans_col) -> Tuple[int, int]:
    """``(most media spans in one row, number of pdf media spans)`` of a
    span column, by offset arithmetic over the flat spans."""
    flat, offsets = flat_spans(spans_col)
    media = kind_flags(flat, KIND_MEDIA)
    pdf = pc.fill_null(pc.starts_with(flat.field("media_ref"), "pdf://"), False)
    n_pdf = int((media & pdf.to_numpy(zero_copy_only=False)).sum())
    return int(count_per_row(offsets, media).max(initial=0)), n_pdf


def _append_guard_cols(batch: pa.Table, shard, n_shards, media_base) -> pa.Table:
    out = batch
    for name, arr in (("shard_no", shard), ("n_shards", n_shards),
                      ("media_base", media_base)):
        if name in out.column_names:
            out = out.drop_columns([name])
        out = out.append_column(name, pa.array(arr, pa.int32()))
    return out


def split_oversized_batch(batch: pa.Table, max_spans: int = 50_000,
                          count_kind: Optional[str] = None) -> pa.Table:
    """Rows with more than ``max_spans`` (counted) spans become one row
    per ~``max_spans``-span shard; every other column is replicated onto
    the shards. All rows gain ``(shard_no, n_shards, media_base)``.

    ``count_kind=None`` counts every span; a kind (e.g. ``media``) counts
    only those — an OCR shard is then bounded by its page-image count,
    which is what its cost is proportional to. A shard closes just
    before the counted span that would exceed ``max_spans``, so
    uncounted spans after a full shard stay in it. Numpy over the flat
    spans plus Arrow ``take``s: the span structs are never decoded."""
    _check_max_spans(max_spans)
    flat, offsets = flat_spans(batch["spans"])
    n = batch.num_rows
    counted = kind_flags(flat, count_kind)
    counts = count_per_row(offsets, counted)
    if not (counts > max_spans).any():
        zeros = np.zeros(n, np.int32)
        return _append_guard_cols(batch, zeros, zeros + 1, zeros)

    # a span's shard from the running count of counted spans in its row;
    # rows within the threshold land in shard 0 by the same formula
    row_of = np.repeat(np.arange(n), np.diff(offsets))
    running = np.cumsum(counted, dtype=np.int64) - (np.cumsum(counts) - counts)[row_of]
    span_shard = np.maximum(running - 1, 0) // max_spans
    n_shards = np.where(counts > max_spans, (counts - 1) // max_spans + 1, 1)
    first_out = np.cumsum(n_shards) - n_shards
    take_idx = np.repeat(np.arange(n), n_shards)
    shard_no = np.arange(len(take_idx)) - first_out[take_idx]
    span_out = first_out[row_of] + span_shard
    new_offsets = np.concatenate(([0], np.cumsum(np.bincount(span_out, minlength=len(take_idx)))))
    media = np.bincount(span_out, weights=kind_flags(flat, KIND_MEDIA),
                        minlength=len(take_idx)).astype(np.int64)
    media_before = np.cumsum(media) - media
    media_base = media_before - media_before[first_out[take_idx]]

    field = batch.schema.field("spans")
    spans = pa.ListArray.from_arrays(
        pa.array(new_offsets, pa.int32()), flat, type=field.type,
        mask=pc.is_null(batch["spans"]).take(pa.array(take_idx)).combine_chunks())
    out = batch.drop_columns(["spans"]).take(pa.array(take_idx))
    out = out.add_column(batch.schema.get_field_index("spans"), field, spans)
    return _append_guard_cols(out, shard_no, n_shards[take_idx], media_base)


def reassemble_group(g: pa.Table) -> pa.Table:
    """One group = all shards of one input row → single row, spans
    concatenated in shard order with offsets re-based to one sequence.
    Doc-level columns (anything besides spans + guard cols) come from
    shard 0 — they were replicated identically onto every shard."""
    guard = [c for c in GUARD_COLS + (ROW_KEY,) if c in g.column_names]
    if g.num_rows == 1 and g["n_shards"][0].as_py() == 1:
        return g.drop_columns(guard)
    order = pa.array(np.argsort(g["shard_no"].to_numpy(zero_copy_only=False), kind="stable"))
    flat, _ = flat_spans(g["spans"].take(order))
    children = [pa.array(np.arange(len(flat)), f.type) if f.name == "offset"
                else flat.field(f.name) for f in flat.type]
    merged = pa.StructArray.from_arrays(children, fields=list(flat.type))
    field = g.schema.field("spans")
    spans = pa.ListArray.from_arrays(pa.array([0, len(flat)], pa.int32()), merged,
                                     type=field.type)
    row0 = g.drop_columns(["spans"]).take(order[:1])
    row0 = row0.add_column(g.schema.get_field_index("spans"), field, spans)
    return row0.drop_columns(guard)


def media_probe(ds) -> tuple:
    """One streaming pass over raw spans → ``(max_media_per_row,
    has_pdf)``. Lets the transformers pipeline decide its guard from the
    PRE-rasterize stream — probing post-rasterize would execute the
    rasterizer twice. pdf media fan out to an unbounded page count, so
    ``has_pdf=True`` means the raw media count is not a sound
    post-rasterize bound and the guard must engage."""
    def _m(t: pa.Table) -> pa.Table:
        m, n_pdf = media_counts(t["spans"])
        return pa.table({"m": pa.array([m], pa.int64()), "pdf": pa.array([n_pdf], pa.int64())})

    parts = ds.select_columns(["spans"]).map_batches(
        _m, batch_format="pyarrow").to_pandas()
    if len(parts) == 0:
        return 0, False
    return int(parts["m"].max()), bool(parts["pdf"].sum() > 0)


def _split_rows(batch: pa.Table, max_spans: int,
                count_kind: Optional[str]) -> pa.Table:
    """:func:`split_oversized_batch` after tagging every input row with
    ``ROW_KEY``: a per-call uuid plus the row ordinal, so the key is
    unique across Ray tasks and its shards all carry it."""
    key = pc.binary_join_element_wise(
        uuid.uuid4().hex + ":",
        pc.cast(pa.array(np.arange(batch.num_rows)), pa.string()), "")
    return split_oversized_batch(batch.append_column(ROW_KEY, key),
                                 max_spans=max_spans, count_kind=count_kind)


def with_skew_guard(ds, inner_stages, max_spans: int = 50_000,
                    count_kind: Optional[str] = None):
    """``split → inner_stages(ds) → reassemble``. ``inner_stages`` is a
    callable Dataset → Dataset limited to per-span transforms (parse,
    OCR). Reassembly groups on the input row (``ROW_KEY``), not on
    ``doc_id`` alone, so distinct rows that share a ``doc_id`` stay
    distinct; ``doc_id`` leads the key only to keep the output in
    ``doc_id`` order. Whether to engage the guard at all is the
    caller's decision (``build_transformers_ds`` takes it from the
    manifest stat or :func:`media_probe`)."""
    _check_max_spans(max_spans)
    ds = ds.map_batches(
        functools.partial(_split_rows, max_spans=max_spans, count_kind=count_kind),
        batch_format="pyarrow")
    return inner_stages(ds).groupby(["doc_id", ROW_KEY]).map_groups(
        reassemble_group, batch_format="pyarrow")
