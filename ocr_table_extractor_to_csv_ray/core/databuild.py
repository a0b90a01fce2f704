"""Teacher-labeled LayoutLM example construction (entry point 2).

Reimplements ``dataset_builder.py:19-265`` from scratch: the generic
layout used as teacher, with per-token provenance (row/col ids,
is_header) retained and bboxes normalized to 0-1000.

Quirk ledger (each differs from the sibling generic path — SURVEY.md
§7.0 point 1):
- row profile: ``geometry.profile_intervals`` with valley run > 2 px and
  interval height > 5 px (``dataset_builder.py:49-80``).
- line → row: ``locate(closed="left", fallback="centre")``
  (``dataset_builder.py:83-105``), where G4 drops the line
  (``fallback=None``, ``rows.py:54-61``).
- token → column: ``locate(closed="both", fallback="centre")``
  (``dataset_builder.py:108-119``).
- label: ``OTHER`` if col ∉ [0, max_columns) else
  ``{HEADER|BODY}_COL_{i}`` (``dataset_builder.py:225-238``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .doc import TokenSOA
from .geometry import Line, build_lines, estimate_columns, locate, profile_intervals
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


def compute_row_intervals_db(lines: Sequence[Line], toks: TokenSOA) -> List[Tuple[int, int]]:
    """G22 row profile (``dataset_builder.py:49-80``): valley > 2,
    height > 5, full-extent fallback; empty-text tokens excluded."""
    idx = np.concatenate([ln.idx for ln in lines])
    idx = idx[toks.text[idx] != ""]
    return profile_intervals(toks.y1[idx], toks.y2[idx], 2, 5) if idx.size else []


def build_example(doc_id: str, toks: TokenSOA,
                  page_w: int = 2000, page_h: int = 2600,
                  expected_n_cols: Optional[int] = None,
                  header_regexes: Optional[Sequence[str]] = None,
                  max_columns: int = 6,
                  compute_boxes: bool = True) -> Optional[Example]:
    """Build one teacher-labeled example (``dataset_builder.py:167-265``).

    Returns ``None`` where the reference raises (no tokens / lines /
    columns) — the Ray pipeline keeps the document with an error marker
    instead of poisoning the block.
    """
    if len(toks) == 0:
        return None
    lines = build_lines(toks)
    if not lines:
        return None
    col_intervals = estimate_columns(lines, toks, expected_n_cols=expected_n_cols)
    if not col_intervals:
        return None
    row_intervals = compute_row_intervals_db(lines, toks)
    # no row intervals (no text): every line is row 0 (dataset_builder.py:83-85)
    line_to_row = np.maximum(locate([(ln.y1 + ln.y2) / 2.0 for ln in lines], row_intervals,
                                    closed="left", fallback="centre"), 0)
    idx = np.concatenate([ln.idx for ln in lines])
    tok_row = np.repeat(line_to_row, [ln.idx.size for ln in lines]).tolist()
    tok_col = locate(toks.xc[idx], col_intervals, closed="both", fallback="centre").tolist()
    words = toks.text[idx].tolist()

    col_count = len(col_intervals)
    cells = [[[] for _ in range(col_count)] for _ in range(int(line_to_row.max()) + 1)]
    for r, c, word in zip(tok_row, tok_col, words):
        cells[r][c].append(word)
    grid_rows = [[" ".join(filter(None, c)).strip() for c in row] for row in cells]
    header_row, body_rows = detect_header_row(
        grid_rows, header_regexes=list(header_regexes) if header_regexes else None)
    header_idx = grid_rows.index(header_row) if header_row else None

    is_hdr = [r == header_idx for r in tok_row]
    labels = ["OTHER" if c >= max_columns else f"{'HEADER' if h else 'BODY'}_COL_{c}"
              for c, h in zip(tok_col, is_hdr)]

    bboxes: List[List[int]] = []
    if compute_boxes:
        # vectorized normalize (same round-half-even as python round())
        w, h = max(page_w, 1), max(page_h, 1)
        cols4 = []
        for arr, denom in ((toks.x1, w), (toks.y1, h), (toks.x2, w), (toks.y2, h)):
            cols4.append(np.clip(np.round(1000.0 * arr[idx] / denom), 0, 1000)
                         .astype(np.int64))
        bboxes = np.stack(cols4, axis=1).tolist()

    return Example(doc_id=doc_id, words=words, bboxes=bboxes, labels=labels,
                   row_ids=tok_row, col_ids=tok_col, is_header=is_hdr,
                   table_header=header_row or [], table_rows=body_rows,
                   n_rows=len(body_rows), n_cols=col_count,
                   token_order=idx.tolist())
