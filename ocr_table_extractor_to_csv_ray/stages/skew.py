"""Skew guard: page-split oversized documents, reassemble after parse.

A 10^12-document corpus has a tail of multi-thousand-page documents;
one such row would pin a single worker for minutes (Ray blocks split
BETWEEN rows, never inside one). The guard:

    map_batches(split_oversized)        # flat-map: giant doc → per-page shard rows
      ... parse / OCR stages ...        # per-shard, embarrassingly parallel
    reassemble                          # restore one row per doc

Validity boundary (SURVEY.md §4.2): the geometry kernels compute the
column/row profiles across ALL pages jointly (``columns.py:14-27``,
``rows.py:18-30``), so the split may only cover parse/OCR stages —
``reassemble`` must run BEFORE the extraction kernel. Shard rows carry
``(doc_id, shard_no, n_shards, media_base)``; reassembly concatenates
spans in ``shard_no`` order and re-bases offsets, so the output row is
byte-identical to the unsplit document. ``media_base`` (count of media
spans in earlier shards) lets the OCR stage keep GLOBAL page numbers —
shard 2's first page image is page 17, not page 1. Split and
reassembly never decode a span: shard ids come from numpy offset
arithmetic over the flat spans and the span structs move by Arrow
``take``, so a batch holding an oversized row costs no Python per span.

Two reassembly strategies (``with_skew_guard(selective=...)``):

- ``selective=True`` — rows that were never split bypass the shuffle
  entirely; only oversized-doc shards go through the
  ``groupby(doc_id)`` reassembly. The price is that the input +
  ``inner_stages`` execute twice (two lazy consumers), so use it when
  ``inner_stages`` is cheap relative to an all-to-all of the corpus
  (the flagship: inner is identity, so the second pass is a re-read
  plus the columnar split, and the shuffle moves only the oversized
  tail). Traced on ``mixed_layouts_tail`` (1000 docs, 1-vCPU VM) the
  split costs 0.02–0.04 ms/doc per pass.
- ``selective=False`` — one pass, one full ``groupby(doc_id)``
  shuffle. Use it when ``inner_stages`` is expensive (the OCR actor
  pool) and must not run twice.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core.spans import KIND_MEDIA, count_per_row, flat_spans, kind_flags

GUARD_COLS = ("shard_no", "n_shards", "media_base")


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
    """One group = all shards of one doc_id → single row, spans
    concatenated in shard order with offsets re-based to one sequence.
    Doc-level columns (anything besides spans + guard cols) come from
    shard 0 — they were replicated identically onto every shard."""
    guard = [c for c in GUARD_COLS if c in g.column_names]
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


def _only_normal(t: pa.Table) -> pa.Table:
    keep = t.filter(pc.equal(t["n_shards"], pa.scalar(1, pa.int32())))
    return keep.drop_columns([c for c in GUARD_COLS if c in keep.column_names])


def _only_sharded(t: pa.Table) -> pa.Table:
    return t.filter(pc.greater(t["n_shards"], pa.scalar(1, pa.int32())))


def max_span_count(ds, count_kind: Optional[str] = None) -> int:
    """One streaming pass over the ``spans`` column computing the max
    per-row (counted) span count — zero-copy Arrow offset math, no
    Python span work. This is the stat a manifest layer (Iceberg/Delta
    file statistics) would carry for free; ``generate_corpus`` persists
    it as a ``_STATS.json`` sidecar so steady-state runs never pay this
    pass (see ``pipelines/extract.py::corpus_stats``)."""
    def _max_count(t: pa.Table) -> pa.Table:
        flat, offsets = flat_spans(t["spans"])
        counts = count_per_row(offsets, kind_flags(flat, count_kind))
        return pa.table({"m": pa.array([int(counts.max(initial=0))], pa.int64())})

    mx = ds.select_columns(["spans"]).map_batches(
        _max_count, batch_format="pyarrow").max("m")
    return int(mx or 0)


def has_oversized(ds, max_spans: int, count_kind: Optional[str] = None) -> bool:
    """Probe: does ANY row exceed the shard threshold? Costs a full
    streaming pass — prefer a manifest stat (``known_max``) when one
    exists; the pass is still far cheaper than an unwarranted
    all-to-all reassembly shuffle."""
    return max_span_count(ds, count_kind) > max_spans


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


def with_skew_guard(ds, inner_stages, max_spans: int = 50_000,
                    count_kind: Optional[str] = None,
                    selective: bool = False, probe: bool = False,
                    known_max: Optional[int] = None):
    """``split → inner_stages(ds) → reassemble``. ``inner_stages`` is a
    callable Dataset → Dataset limited to per-span transforms (parse,
    OCR). See the module docstring for the ``selective`` trade-off.

    ``known_max`` is the manifest stat (max counted spans per row, e.g.
    from ``corpus_stats``): when provided it decides instantly — no
    probe pass at all. Otherwise ``probe=True`` runs
    :func:`has_oversized` (one streaming pass). Either way, when
    nothing in the corpus crosses the threshold the guard vanishes
    entirely — ``inner_stages`` runs on the raw stream with no split
    columns, no second pass and no shuffle."""
    import functools

    _check_max_spans(max_spans)
    if known_max is not None:
        if known_max <= max_spans:
            return inner_stages(ds)
    elif probe and not has_oversized(ds, max_spans, count_kind):
        return inner_stages(ds)

    ds = ds.map_batches(
        functools.partial(split_oversized_batch, max_spans=max_spans,
                          count_kind=count_kind),
        batch_format="pyarrow")
    ds = inner_stages(ds)
    if not selective:
        return ds.groupby("doc_id").map_groups(reassemble_group,
                                               batch_format="pyarrow")
    normal = ds.map_batches(_only_normal, batch_format="pyarrow")
    sharded = (ds.map_batches(_only_sharded, batch_format="pyarrow")
               .groupby("doc_id").map_groups(reassemble_group,
                                             batch_format="pyarrow"))
    return normal.union(sharded)
