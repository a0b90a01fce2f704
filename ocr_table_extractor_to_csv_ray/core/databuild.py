"""Teacher-labeled LayoutLM example construction (entry point 2).

Reimplements ``dataset_builder.py:19-265`` from scratch: the generic
layout used as teacher, with per-token provenance (row/col ids,
is_header) retained and bboxes normalized to 0-1000.

:func:`teacher_batch` finds every token's row and column for a whole
batch of documents at once (segmented profiles and ``locate_grouped``);
``LayoutScorerStage`` labels its batches with it, and
:func:`build_example` is the same code on one document plus the grid,
the header split and the boxes.

Quirk ledger (each differs from the sibling generic path — SURVEY.md
§7.0 point 1):
- row profile: ``geometry.profile_intervals_batch`` with valley run > 2
  px, interval height > 5 px and the model paths' guard
  (``dataset_builder.py:49-80``).
- line → row: ``locate_grouped(closed="left", fallback="centre")``
  (``dataset_builder.py:83-105``), where G4 drops the line
  (``fallback=None``, ``rows.py:54-61``).
- token → column: ``locate_grouped(closed="both", fallback="centre")``
  (``dataset_builder.py:108-119``).
- label: ``OTHER`` if col ∉ [0, max_columns) else
  ``{HEADER|BODY}_COL_{i}`` (``dataset_builder.py:225-238``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .doc import TokenSOA
from .geometry import (LineBatch, column_intervals_batch, doc_line_batch, join_runs,
                       locate_grouped, profile_intervals_batch)
from .records import detect_header_row


@dataclass
class Example:
    """One teacher-labeled document (``dataset_builder.py:19-34``)."""

    doc_id: str
    words: List[str]
    bboxes: List[List[int]]       # 0-1000 normalized
    labels: List[str]
    row_ids: List[int]
    col_ids: List[int]
    is_header: List[bool]
    table_header: List[str]
    table_rows: List[List[str]]
    n_rows: int = 0
    n_cols: int = 0
    # original token index (into the input TokenSOA) per example position
    # — lets consumers map labels back without re-running build_lines
    token_order: List[int] = None  # type: ignore[assignment]


def teacher_batch(lb: LineBatch, toks: TokenSOA, expected_n_cols: Optional[int] = None
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The teacher's ``(row, col)`` of every member token of ``lb`` and
    each doc's column count (0: the teacher labels nothing), in
    whole-batch passes (``dataset_builder.py:167-238``; the quirk ledger
    above): column and row intervals over each doc's non-empty tokens,
    line → row (row 0 without intervals), token → column."""
    n_docs = len(lb.doc_lines) - 1
    tok_line, tok_doc = lb.member_line_doc()
    m = lb.members
    x1, x2 = toks.x1[m], toks.x2[m]
    filled = toks.text[m] != ""
    lo, hi, count = column_intervals_batch(tok_doc[filled], x1[filled], x2[filled], n_docs,
                                           expected_n_cols=expected_n_cols)
    rlo, rhi, rcount, _ = profile_intervals_batch(
        tok_doc[filled], toks.y1[m][filled], toks.y2[m][filled], n_docs, 2, 5, guard=True)
    line_doc = np.repeat(np.arange(n_docs), np.diff(lb.doc_lines))
    line_row = np.maximum(locate_grouped((lb.y1 + lb.y2) / 2.0, line_doc, rlo, rhi, rcount,
                                         closed="left", fallback="centre"), 0)
    col = locate_grouped((x1 + x2) / 2.0, tok_doc, lo, hi, count, closed="both",
                         fallback="centre")
    return line_row[tok_line], col, count


def teacher_labels(is_header: np.ndarray, col: np.ndarray, max_columns: int) -> np.ndarray:
    """``OTHER`` if col ∉ [0, max_columns) else ``{HEADER|BODY}_COL_{i}``
    (``dataset_builder.py:225-238``), as an object array."""
    names = np.array([f"{kind}_COL_{c}" for kind in ("BODY", "HEADER") for c in range(max_columns)]
                     + ["OTHER"], dtype=object)
    return names[np.where(col >= max_columns, 2 * max_columns, col + max_columns * is_header)]


def build_example(doc_id: str, toks: TokenSOA,
                  page_w: int = 2000, page_h: int = 2600,
                  expected_n_cols: Optional[int] = None,
                  header_regexes: Optional[Sequence[str]] = None,
                  max_columns: int = 6,
                  compute_boxes: bool = True) -> Optional[Example]:
    """Build one teacher-labeled example (``dataset_builder.py:167-265``):
    one doc's :func:`teacher_batch`, its grid of non-empty words per
    (row, column) and the header split.

    Returns ``None`` where the reference raises (no tokens / lines /
    columns) — the Ray pipeline keeps the document with an error marker
    instead of poisoning the block.
    """
    lb = doc_line_batch(toks)
    row, col, count = teacher_batch(lb, toks, expected_n_cols)
    if not count[0]:
        return None
    idx = lb.members
    words = toks.text[idx]
    full = np.flatnonzero(words != "")
    full = full[np.lexsort((col[full], row[full]))]
    (r, c), text = join_runs((row[full], col[full]), words[full], lambda w: " ".join(w).strip())
    grid = np.full((int(row.max()) + 1, int(count[0])), "", dtype=object)
    grid[r, c] = text
    grid_rows = grid.tolist()
    header_row, body_rows = detect_header_row(
        grid_rows, header_regexes=list(header_regexes) if header_regexes else None)
    is_hdr = row == (grid_rows.index(header_row) if header_row else -1)

    bboxes: List[List[int]] = []
    if compute_boxes:
        # vectorized normalize (same round-half-even as python round())
        w, h = max(page_w, 1), max(page_h, 1)
        cols4 = []
        for arr, denom in ((toks.x1, w), (toks.y1, h), (toks.x2, w), (toks.y2, h)):
            cols4.append(np.clip(np.round(1000.0 * arr[idx] / denom), 0, 1000)
                         .astype(np.int64))
        bboxes = np.stack(cols4, axis=1).tolist()

    return Example(doc_id=doc_id, words=words.tolist(), bboxes=bboxes,
                   labels=teacher_labels(is_hdr, col, max_columns).tolist(),
                   row_ids=row.tolist(), col_ids=col.tolist(), is_header=is_hdr.tolist(),
                   table_header=header_row or [], table_rows=body_rows,
                   n_rows=len(body_rows), n_cols=int(count[0]),
                   token_order=idx.tolist())
