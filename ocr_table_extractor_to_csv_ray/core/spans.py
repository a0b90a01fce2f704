"""Span codec: the corpus schema (FIXTURES.md §1/§2) ↔ kernel types.

Input spans (one list per document row):
    ``kind ∈ {word, media, ...}``; ``kind="word"`` packs hOCR geometry as
    ``media_ref = "bbox://p{page}/{x1},{y1},{x2},{y2}[/{line_id}]"``
    (mirrors the hOCR ``title="bbox ..."`` attr, reference
    ``structures.py:6-15``).

Output spans (CSV reading order, reference ``exporters.py:7-12``):
    ``header_cell``* + ``row_end``, then per body row ``cell``* +
    ``row_end``; ``offset`` is the explicit order field so ordering
    survives any physical re-ordering of blocks.

Span columns stay in Arrow at the engine's edges: :func:`flat_spans` and
:func:`count_per_row` give per-row span counts by offset arithmetic, and
:func:`span_column_grids` decodes a whole ``list<struct>`` column to
grids from two plain-string columns, never building a Python dict per
span.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

BBOX_PREFIX = "bbox://p"
# named-group regex for vectorized pyarrow.compute.extract_regex
BBOX_PATTERN = (
    r"^bbox://p(?P<page>\d+)/(?P<x1>\d+),(?P<y1>\d+),(?P<x2>\d+),(?P<y2>\d+)"
    r"(?:/(?P<line_id>.+))?$"
)

KIND_WORD = "word"
KIND_MEDIA = "media"
KIND_HEADER_CELL = "header_cell"
KIND_CELL = "cell"
KIND_ROW_END = "row_end"


def encode_bbox_ref(
    page: int, x1: int, y1: int, x2: int, y2: int, line_id: Optional[str] = None
) -> str:
    ref = f"{BBOX_PREFIX}{page}/{x1},{y1},{x2},{y2}"
    return f"{ref}/{line_id}" if line_id else ref


def grid_to_spans(
    header: Sequence[str], rows: Sequence[Sequence[str]]
) -> List[Tuple[str, str, str, int]]:
    """Serialize a (header, rows) grid into output span tuples
    ``(kind, text, media_ref, offset)`` in CSV reading order."""
    out: List[Tuple[str, str, str, int]] = []
    off = 0
    if header:
        for cell in header:
            out.append((KIND_HEADER_CELL, cell, "", off))
            off += 1
        out.append((KIND_ROW_END, "", "", off))
        off += 1
    for row in rows:
        for cell in row:
            out.append((KIND_CELL, cell, "", off))
            off += 1
        out.append((KIND_ROW_END, "", "", off))
        off += 1
    return out


def _fold_grid(kinds: Sequence[str], texts: Sequence[Optional[str]],
               ) -> Tuple[List[str], List[List[str]]]:
    """The grid of one document's spans in offset order: cells gather
    until ``row_end``; a row holding a ``header_cell`` becomes the
    header, cells after the last ``row_end`` are dropped."""
    header: List[str] = []
    rows: List[List[str]] = []
    cur: List[str] = []
    cur_is_header = False
    for kind, text in zip(kinds, texts):
        if kind == KIND_HEADER_CELL:
            cur.append(text)
            cur_is_header = True
        elif kind == KIND_CELL:
            cur.append(text)
        elif kind == KIND_ROW_END:
            if cur_is_header:
                header = cur
            else:
                rows.append(cur)
            cur = []
            cur_is_header = False
    return header, rows


def spans_to_grid(
    spans: Sequence[Tuple[str, str, str, int]],
) -> Tuple[List[str], List[List[str]]]:
    """Inverse of :func:`grid_to_spans` over one document's span tuples."""
    ordered = sorted(spans, key=lambda s: s[3])
    return _fold_grid([s[0] for s in ordered], [s[1] for s in ordered])


def flat_spans(col) -> Tuple[pa.StructArray, np.ndarray]:
    """A ``list<struct>`` column's spans row after row, and the row
    offsets into them: row ``r`` holds ``flat[offsets[r]:offsets[r+1]]``
    (a null row holds none). Chunked and sliced columns are fine."""
    la = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    lens = pc.fill_null(pc.list_value_length(la), 0).to_numpy(zero_copy_only=False)
    return la.flatten(), np.concatenate(([0], np.cumsum(lens, dtype=np.int64)))


def kind_flags(flat: pa.StructArray, kind: Optional[str]) -> np.ndarray:
    """Boolean per flat span: is its ``kind`` equal to ``kind`` (every
    span matches ``None``)."""
    if kind is None:
        return np.ones(len(flat), bool)
    return pc.fill_null(pc.equal(flat.field("kind"), kind), False).to_numpy(
        zero_copy_only=False)


def count_per_row(offsets: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Per-row count of the set ``flags`` (one per flat span), by one
    cumsum read at the row offsets of :func:`flat_spans`."""
    cum = np.concatenate(([0], np.cumsum(flags, dtype=np.int64)))
    return cum[offsets[1:]] - cum[offsets[:-1]]


def span_column_grids(col) -> List[Optional[Tuple[List[str], List[List[str]]]]]:
    """Per row of a ``list<struct>`` span column, the ``(header, rows)``
    grid of :func:`spans_to_grid`, or ``None`` for a null row. One
    flatten, one stable ``(row, offset)`` lexsort and two string columns
    to lists (``to_numpy().tolist()``, ~14× faster than ``to_pylist``)."""
    flat, offsets = flat_spans(col)
    row_of = np.repeat(np.arange(len(col)), np.diff(offsets))
    order = np.lexsort((flat.field("offset").to_numpy(zero_copy_only=False), row_of))
    kinds = flat.field("kind").to_numpy(zero_copy_only=False)[order].tolist()
    texts = flat.field("text").to_numpy(zero_copy_only=False)[order].tolist()
    valid = col.is_valid().to_numpy(zero_copy_only=False)
    bounds = offsets.tolist()
    return [_fold_grid(kinds[bounds[r]:bounds[r + 1]], texts[bounds[r]:bounds[r + 1]])
            if valid[r] else None for r in range(len(col))]
