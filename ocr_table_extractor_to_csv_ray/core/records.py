"""Per-line records and the row-merge / header-detection kernels.

Reference semantics preserved exactly, including the quirks that are
contract for span-equality:

* record → row is ``locate(closed="left", fallback=None)``: a record
  whose y-center falls outside every row interval is dropped
  (``rows.py:54-61``);
* within a row, cells are right-padded to the longest record before the
  cell-wise space-join merge (``rows.py:69-78``);
* ``merge_financial_rows`` never merges two value-bearing lines
  (``rows.py:110-115``);
* header default is simply the first row (``rows.py:146,162``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from statistics import median
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .doc import TokenSOA
from .geometry import Line, cut_intervals, locate, valley_cuts


@dataclass
class Record:
    """One assigned line: y-band plus already-joined cell strings
    (reference ``assign.py:27`` / ``assign_dynamic.py:69-71``)."""

    page: int
    y_top: int
    y_bot: int
    cells: List[str]
    num_count: int = 0
    has_label: bool = False


def _join_cells(a: str, b: str) -> str:
    return " ".join([a, b]).strip() if a and b else (a or b)


def merge_lines_into_rows(
    records: Sequence[Record],
    lines: Sequence[Line],
    toks: TokenSOA,
    row_valley_px: int = 2,
    row_min_height: int = 5,
) -> List[List[str]]:
    """Horizontal-projection row merge (reference ``rows.py:8-80``)."""
    if not records:
        return []
    idx = np.concatenate([ln.idx for ln in lines]) if lines else np.array([], dtype=np.int64)
    if idx.size:
        idx = idx[toks.text[idx] != ""]
    if idx.size == 0:
        return [list(r.cells) for r in records]

    y1 = toks.y1[idx]
    y2 = toks.y2[idx]
    y_min = int(y1.min())
    y_max = int(y2.max())
    mids = valley_cuts(y1, y2, y_min, y_max, row_valley_px)
    if mids is None:
        # no gaps at all: a single merged row (rows.py:34-39); note the
        # reference zip truncates to the shortest record seen so far
        final_row: List[str] = ["" for _ in records[0].cells]
        for r in records:
            final_row = [_join_cells(a, b) for a, b in zip(final_row, r.cells)]
        return [final_row]

    row_intervals = cut_intervals(y_min, y_max, mids, row_min_height)
    row_of = locate([(r.y_top + r.y_bot) / 2 for r in records], row_intervals,
                    closed="left", fallback=None)
    buckets: List[List[List[str]]] = [[] for _ in row_intervals]
    for r, i in zip(records, row_of.tolist()):
        if i >= 0:
            buckets[i].append(list(r.cells))

    final_rows: List[List[str]] = []
    for group in buckets:
        if not group:
            continue
        max_len = max(len(cells) for cells in group)
        for cells in group:
            while len(cells) < max_len:
                cells.append("")
        final_row = ["" for _ in range(max_len)]
        for cells in group:
            final_row = [_join_cells(a, b) for a, b in zip(final_row, cells)]
        final_rows.append(final_row)
    return final_rows


def merge_financial_rows(
    records: Sequence[Record], row_merge_factor: float = 1.30
) -> List[List[str]]:
    """Adjacent-line merge for wrapped labels (reference ``rows.py:83-134``).

    Gap tolerance = ``int(row_merge_factor * median(line heights))``;
    merge when the next line carries no numbers (label wrap) or when the
    current carries none and the next does (label→values); label cells
    concatenate, numeric cells are first-non-empty-wins.
    """
    if not records:
        return []
    heights = [r.y_bot - r.y_top for r in records]
    h_med = median(heights) if heights else 12
    max_gap = int(row_merge_factor * h_med)

    rows: List[List[str]] = []
    cur = list(records[0].cells)
    cur_num = int(records[0].num_count)
    prev_bot = records[0].y_bot

    for r in records[1:]:
        gap = r.y_top - prev_bot
        r_num = int(r.num_count)
        should = gap <= max_gap and (r_num == 0 or (cur_num == 0 and r_num > 0))
        if should:
            merged: List[str] = []
            for pos, (a, b) in enumerate(zip(cur, r.cells)):
                merged.append(_join_cells(a, b) if pos == 0 else (a if a else b))
            cur = merged
            cur_num = max(cur_num, r_num)
            prev_bot = max(prev_bot, r.y_bot)
        else:
            rows.append(cur)
            cur = list(r.cells)
            cur_num = r_num
            prev_bot = r.y_bot
    rows.append(cur)
    return rows


def detect_header_row(
    rows: List[List[str]], header_regexes: Optional[Sequence[str]] = None
) -> Tuple[Optional[List[str]], List[List[str]]]:
    """Header split for the generic layout (reference ``rows.py:137-162``).

    Without regexes the first row is the header.  With regexes: row 0
    wins if it matches; else the first match among rows 1..2 is pulled
    out and ALL remaining rows (including earlier ones) become the body.
    """
    if not rows:
        return None, []
    candidate = rows[0]
    if header_regexes:
        pats = [re.compile(rx) for rx in header_regexes]

        def matches(row: List[str]) -> bool:
            joined = " | ".join((c or "").lower() for c in row)
            return any(p.search(joined) for p in pats)

        if matches(candidate):
            return candidate, rows[1:]
        for i in range(1, min(3, len(rows))):
            if matches(rows[i]):
                return rows[i], rows[:i] + rows[i + 1:]
    return candidate, rows[1:]
