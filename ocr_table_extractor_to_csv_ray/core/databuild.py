"""Teacher-labeled LayoutLM example construction (entry point 2).

Reimplements ``dataset_builder.py:19-265`` from scratch: the generic
layout used as teacher, with per-token provenance (row/col ids,
is_header) retained and bboxes normalized to 0-1000.

Quirk ledger (each differs from the sibling generic path — SURVEY.md
§7.0 point 1):
- row profile: valley run > 2 px, interval height > 5 px, full-extent
  fallback (``dataset_builder.py:49-80``) — G4 instead *drops* lines
  outside intervals (``rows.py:54-61``); here lines fall back to the
  NEAREST row interval (``dataset_builder.py:83-105``).
- token → column: containment then nearest center
  (``dataset_builder.py:108-119``).
- label: ``OTHER`` if col ∉ [0, max_columns) else
  ``{HEADER|BODY}_COL_{i}`` (``dataset_builder.py:225-238``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .doc import TokenSOA
from .geometry import Line, build_lines, estimate_columns, valley_cuts
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
    idx = np.concatenate([ln.idx for ln in lines]) if lines else np.empty(0, np.int64)
    idx = idx[toks.text[idx.astype(np.int64)] != ""] if idx.size else idx
    if idx.size == 0:
        return []
    y1, y2 = toks.y1[idx], toks.y2[idx]
    lo, hi = int(y1.min()), int(y2.max())
    y2 = np.maximum(y2, y1 + 1)  # `end = max(start+1, ...)` guard
    mids = valley_cuts(y1, y2, lo, hi, 2)
    if mids is None:
        return [(lo, hi)]
    cuts = sorted(dict.fromkeys([lo] + mids + [hi]))
    out = [(a, b) for a, b in zip(cuts, cuts[1:]) if b - a > 5]
    return out or [(lo, hi)]


def assign_lines_to_rows_db(lines: Sequence[Line],
                            intervals: List[Tuple[int, int]]) -> List[int]:
    """Line → row containment WITH nearest fallback
    (``dataset_builder.py:83-105``; contrast G4's silent drop)."""
    if not intervals:
        return [0 for _ in lines]
    tops = np.array([a for a, _ in intervals], dtype=np.float64)
    bots = np.array([b for _, b in intervals], dtype=np.float64)
    centers = (tops + bots) / 2.0
    out: List[int] = []
    for ln in lines:
        yc = (ln.y1 + ln.y2) / 2.0
        inside = np.flatnonzero((tops <= yc) & (yc < bots))
        out.append(int(inside[0]) if inside.size else int(np.argmin(np.abs(centers - yc))))
    return out


def find_column_index_db(xc: float, intervals: List[Tuple[int, int]]) -> Optional[int]:
    """Containment then nearest-center (``dataset_builder.py:108-119``)."""
    if not intervals:
        return None
    for i, (a, b) in enumerate(intervals):
        if a <= xc <= b:
            return i
    centers = [(a + b) / 2.0 for a, b in intervals]
    return int(np.argmin([abs(c - xc) for c in centers]))


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
    line_to_row = assign_lines_to_rows_db(lines, row_intervals)

    col_count = len(col_intervals)
    row_count = max(line_to_row) + 1 if line_to_row else 0
    cells: Dict[int, List[List[str]]] = {
        r: [[] for _ in range(col_count)] for r in range(row_count)
    }
    token_records: List[Tuple[int, int, Optional[int]]] = []  # (tok_idx, row, col)
    xc = toks.xc                      # ONCE — the property builds a new array
    for ln, row_idx in zip(lines, line_to_row):
        for ti in ln.idx:
            col_idx = find_column_index_db(float(xc[ti]), col_intervals)
            token_records.append((int(ti), row_idx, col_idx))
            if row_idx in cells and col_idx is not None and col_idx < col_count:
                cells[row_idx][col_idx].append(toks.text[ti])

    grid_rows = [
        [" ".join(filter(None, cells[r][c])).strip() for c in range(col_count)]
        for r in range(row_count)
    ]
    header_row, body_rows = detect_header_row(
        grid_rows, header_regexes=list(header_regexes) if header_regexes else None)
    header_idx = None
    if header_row:
        for i, row in enumerate(grid_rows):
            if row == header_row:
                header_idx = i
                break

    words, labels, row_ids, col_ids, is_hdr = [], [], [], [], []
    for ti, row_idx, col_idx in token_records:
        words.append(toks.text[ti])
        row_ids.append(row_idx if row_idx is not None else -1)
        col_ids.append(col_idx if col_idx is not None else -1)
        h = header_idx is not None and row_idx == header_idx
        is_hdr.append(h)
        if col_idx is None or col_idx < 0 or col_idx >= max_columns:
            labels.append("OTHER")
        else:
            labels.append(f"{'HEADER' if h else 'BODY'}_COL_{col_idx}")

    bboxes: List[List[int]] = []
    if compute_boxes:
        # vectorized normalize (same round-half-even as python round())
        order = np.array([ti for ti, _r, _c in token_records], dtype=np.int64)
        w, h = max(page_w, 1), max(page_h, 1)
        cols4 = []
        for arr, denom in ((toks.x1, w), (toks.y1, h), (toks.x2, w), (toks.y2, h)):
            cols4.append(np.clip(np.round(1000.0 * arr[order] / denom), 0, 1000)
                         .astype(np.int64))
        bboxes = np.stack(cols4, axis=1).tolist()

    return Example(doc_id=doc_id, words=words, bboxes=bboxes, labels=labels,
                   row_ids=row_ids, col_ids=col_ids, is_header=is_hdr,
                   table_header=header_row or [], table_rows=body_rows,
                   n_rows=len(body_rows), n_cols=col_count,
                   token_order=[ti for ti, _r, _c in token_records])
