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
span. The one encoder, :func:`encode_rows`, goes the other way for a
whole batch: grid rows as numpy arrays (:class:`GridRows`) and one flat
text array in, the ``list<struct>`` column out, with kinds, offsets and
list offsets computed from the row lengths.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

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
_KINDS = (KIND_HEADER_CELL, KIND_CELL, KIND_ROW_END)     # codes 0, 1, 2

SPAN_TYPE = pa.struct([
    ("kind", pa.string()),
    ("text", pa.string()),
    ("media_ref", pa.string()),
    ("offset", pa.int32()),
])


def encode_bbox_ref(
    page: int, x1: int, y1: int, x2: int, y2: int, line_id: Optional[str] = None
) -> str:
    ref = f"{BBOX_PREFIX}{page}/{x1},{y1},{x2},{y2}"
    return f"{ref}/{line_id}" if line_id else ref


class GridRows(NamedTuple):
    """The output grids of a batch as rows: row ``r`` belongs to doc
    ``doc[r]``, holds ``length[r]`` cells and is the doc's header when
    ``header[r]``; ``texts`` holds every row's cells, row after row. Rows
    of one doc keep their order; docs may come in any order."""

    doc: np.ndarray
    length: np.ndarray
    header: np.ndarray
    texts: np.ndarray        # object array of str

    @staticmethod
    def concat(parts: Sequence["GridRows"]) -> "GridRows":
        return GridRows(*(np.concatenate([getattr(p, f) for p in parts]) for f in GridRows._fields))

    def grids(self, n_docs: int) -> List[Tuple[List[str], List[List[str]]]]:
        """Per doc, its ``(header, rows)`` grid (the inverse of :func:`grid_rows`)."""
        header: List[List[str]] = [[] for _ in range(n_docs)]
        rows: List[List[List[str]]] = [[] for _ in range(n_docs)]
        bounds = np.concatenate(([0], np.cumsum(self.length))).tolist()
        texts = self.texts.tolist()
        for r, (d, is_header) in enumerate(zip(self.doc.tolist(), self.header.tolist())):
            cells = texts[bounds[r]:bounds[r + 1]]
            if is_header:
                header[d] = cells
            else:
                rows[d].append(cells)
        return list(zip(header, rows))


def grid_rows(grids: Sequence[Tuple[Sequence[str], Sequence[Sequence[str]]]],
              docs: Optional[Sequence[int]] = None) -> GridRows:
    """:class:`GridRows` of per-doc ``(header, rows)`` grids; grid ``i``
    is doc ``docs[i]`` (default ``i``). An empty header is no row."""
    docs = range(len(grids)) if docs is None else docs
    row_doc: List[int] = []
    lengths: List[int] = []
    is_header: List[bool] = []
    texts: List[str] = []
    for d, (header, rows) in zip(docs, grids):
        if header:
            row_doc.append(d)
            lengths.append(len(header))
            is_header.append(True)
            texts.extend(header)
        for row in rows:
            row_doc.append(d)
            lengths.append(len(row))
            is_header.append(False)
            texts.extend(row)
    text_arr = np.empty(len(texts), dtype=object)
    text_arr[:] = texts
    return GridRows(np.array(row_doc, dtype=np.int64), np.array(lengths, dtype=np.int64),
                    np.array(is_header, dtype=bool), text_arr)


def _row_spans(rows: GridRows, n_docs: int
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(spans per doc, kind code, text, offset)`` of every span in doc
    order: per row its cells, then a ``row_end``; offsets count from 0
    in each doc (CSV reading order)."""
    order = np.argsort(rows.doc, kind="stable")
    length = rows.length[order]
    texts = rows.texts
    if not np.array_equal(order, np.arange(len(order))):
        first = np.concatenate(([0], np.cumsum(rows.length)[:-1]))[order]
        new_first = np.concatenate(([0], np.cumsum(length)[:-1]))
        n_cells = int(length.sum())
        texts = texts[np.repeat(first - new_first, length) + np.arange(n_cells)]
    size = length + 1
    ends = np.cumsum(size) - 1
    n_spans = int(ends[-1]) + 1 if len(ends) else 0
    kind = np.repeat(np.where(rows.header[order], 0, 1).astype(np.int8), size)
    kind[ends] = 2
    text = np.full(n_spans, "", dtype=object)
    cell = np.ones(n_spans, dtype=bool)
    cell[ends] = False
    text[cell] = texts
    per_doc = np.bincount(rows.doc, weights=rows.length + 1, minlength=n_docs).astype(np.int64)
    offset = np.arange(n_spans, dtype=np.int64) - np.repeat(np.cumsum(per_doc) - per_doc, per_doc)
    return per_doc, kind, text, offset


def span_list_column(per_doc: np.ndarray, kind: pa.Array, text: pa.Array,
                     offset: np.ndarray) -> pa.ListArray:
    """The ``list<struct>`` span column (:data:`SPAN_TYPE`, ``media_ref``
    always ``""``) of flat span fields, doc ``d`` owning ``per_doc[d]``
    spans."""
    n = len(kind)
    media = pa.StringArray.from_buffers(n, pa.py_buffer(np.zeros(n + 1, np.int32)),
                                        pa.py_buffer(b""))
    struct = pa.StructArray.from_arrays(
        [kind, text, media, pa.array(np.asarray(offset, dtype=np.int32))],
        fields=list(SPAN_TYPE))
    offsets = np.concatenate(([0], np.cumsum(per_doc))).astype(np.int32)
    return pa.ListArray.from_arrays(pa.array(offsets), struct)


def encode_rows(rows: GridRows, n_docs: int) -> pa.ListArray:
    """The span column of ``n_docs`` docs from their grid rows, in one
    pass; a doc without rows gets an empty list."""
    per_doc, kind, text, offset = _row_spans(rows, n_docs)
    return span_list_column(per_doc, pa.array(_KINDS).take(pa.array(kind)),
                            pa.array(text, pa.string()), offset)


def grid_to_spans(
    header: Sequence[str], rows: Sequence[Sequence[str]]
) -> List[Tuple[str, str, str, int]]:
    """Serialize a (header, rows) grid into output span tuples
    ``(kind, text, media_ref, offset)`` in CSV reading order: the encoder
    of :func:`encode_rows` on one doc."""
    _, kind, text, offset = _row_spans(grid_rows([(header, rows)]), 1)
    kinds = np.array(_KINDS, dtype=object)[kind].tolist()
    return [(k, t, "", o) for k, t, o in zip(kinds, text.tolist(), offset.tolist())]


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
