"""Per-line records and the row-merge / header-detection kernels.

Reference semantics preserved exactly, including the quirks that are
contract for span-equality:

* record → row is ``locate_grouped(closed="left", fallback=None)``: a
  record whose y-center falls outside every row interval is dropped
  (``rows.py:54-61``); :func:`merge_lines_batch` runs it for every doc of
  a batch at once, ``merge_lines_into_rows`` on one doc;
* within a row, cells are right-padded to the longest record before the
  cell-wise space-join merge (``rows.py:69-78``);
* ``merge_rows_batch`` (one doc: ``merge_financial_rows``) never merges
  two value-bearing lines (``rows.py:110-115``); it runs over every doc
  of a batch at once, with one sequential scan over the record arrays;
* header default is simply the first row (``rows.py:146,162``).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from statistics import median
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .doc import TokenSOA
from .geometry import Line, join_runs, locate_grouped, profile_intervals_batch


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


def merge_lines_batch(
    n_docs: int,
    tok_doc: np.ndarray,
    tok_y1: np.ndarray,
    tok_y2: np.ndarray,
    rec_doc: np.ndarray,
    rec_yc: np.ndarray,
    cell_rec: np.ndarray,
    cell_col: np.ndarray,
    cell_text: np.ndarray,
    row_valley_px: int = 2,
    row_min_height: int = 5,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Horizontal-projection row merge (reference ``rows.py:8-80``) of
    every doc of a batch at once. Row intervals: the profile of each doc's
    non-empty tokens (``tok_doc``-sorted) with valleys longer than
    ``row_valley_px`` and rows taller than ``row_min_height``. A record
    goes to the row holding its centre ``rec_yc`` or is dropped; without
    a valley all of a doc's records make one row. A row cell folds its
    records' non-empty cells (``cell_rec``/``cell_col``/``cell_text``) by
    ``_join_cells`` in record order.

    Returns ``(row, row_doc, valley, (cell_row, cell_col, cell_text))``:
    each record's row in the batch (-1: dropped; doc-major, interval
    order), each row's doc, whether each doc had a valley, and every
    non-empty row cell.
    """
    lo, hi, count, valley = profile_intervals_batch(tok_doc, tok_y1, tok_y2, n_docs,
                                                    row_valley_px, row_min_height)
    at = np.where(valley[rec_doc], locate_grouped(rec_yc, rec_doc, lo, hi, count,
                                                  closed="left", fallback=None), 0)
    kept = at >= 0
    key, inv = np.unique(rec_doc[kept] * (lo.shape[1] + 1) + at[kept], return_inverse=True)
    row = np.full(len(rec_doc), -1, dtype=np.int64)
    row[kept] = inv
    c = np.flatnonzero((row[cell_rec] >= 0) & (cell_text != ""))
    c = c[np.lexsort((cell_rec[c], cell_col[c], row[cell_rec[c]]))]
    (r, col), text = join_runs((row[cell_rec[c]], cell_col[c]), cell_text[c],
                               lambda w: functools.reduce(_join_cells, w))
    return row, key // (lo.shape[1] + 1), valley, (r, col, text)


def merge_lines_into_rows(
    records: Sequence[Record],
    lines: Sequence[Line],
    toks: TokenSOA,
    row_valley_px: int = 2,
    row_min_height: int = 5,
) -> List[List[str]]:
    """One doc's :func:`merge_lines_batch`. A row is as wide as its widest
    record; without a valley the one row is as wide as the narrowest
    record (the reference's ``zip``); without non-empty tokens every
    record is a row."""
    idx = np.concatenate([ln.idx for ln in lines]) if lines else np.array([], dtype=np.int64)
    idx = idx[toks.text[idx] != ""]
    if not records or idx.size == 0:
        return [list(r.cells) for r in records]
    width = np.array([len(r.cells) for r in records])
    row, _, valley, (r, col, text) = merge_lines_batch(
        1, np.zeros(idx.size, dtype=np.int64), toks.y1[idx], toks.y2[idx],
        np.zeros(len(records), dtype=np.int64),
        np.array([(rec.y_top + rec.y_bot) / 2 for rec in records]),
        np.repeat(np.arange(len(records)), width), np.concatenate([np.arange(w) for w in width]),
        np.array([c for rec in records for c in rec.cells], dtype=object),
        row_valley_px, row_min_height)
    out = [[""] * int(width[row == i].max() if valley[0] else width.min())
           for i in range(row.max() + 1)]
    for i, j, t in zip(r.tolist(), col.tolist(), text.tolist()):
        if j < len(out[i]):
            out[i][j] = t
    return out


def merge_rows_batch(
    doc_recs: np.ndarray,
    y_top: np.ndarray,
    y_bot: np.ndarray,
    num_count: np.ndarray,
    label: np.ndarray,
    values: np.ndarray,
    width: np.ndarray,
    row_merge_factor: float = 1.30,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Adjacent-line merge for wrapped labels (reference ``rows.py:83-134``)
    over every doc of a batch: doc ``d`` owns records
    ``doc_recs[d]:doc_recs[d + 1]``; record ``r`` has ``width[r]`` cells,
    ``label[r]`` then ``values[r, :width[r] - 1]``.

    Gap tolerance = ``int(row_merge_factor * statistics.median(line
    heights))`` per doc; a record merges into the open row when its gap to
    the row's running bottom is within it and it carries no numbers, or
    the row carries none (label wrap, label → values). One sequential scan
    finds the rows; then labels join (``_join_cells``), value cells keep
    the first non-empty one and a row is as wide as its narrowest record.

    Returns ``(first, label, values, width)`` per row, ``first`` its first
    record.
    """
    n_recs = len(y_top)
    bounds, tops, bots, nums = (np.asarray(v).tolist() for v in (doc_recs, y_top, y_bot, num_count))
    opens: List[bool] = []
    for a, b in zip(bounds, bounds[1:]):
        if a == b:
            continue
        max_gap = int(row_merge_factor * median([bots[r] - tops[r] for r in range(a, b)]))
        cur_num = prev_bot = 0
        for r in range(a, b):
            num = nums[r]
            if (r > a and tops[r] - prev_bot <= max_gap
                    and (num == 0 or (cur_num == 0 and num > 0))):
                opens.append(False)
                if num > cur_num:
                    cur_num = num
                if bots[r] > prev_bot:
                    prev_bot = bots[r]
            else:
                opens.append(True)
                cur_num, prev_bot = num, bots[r]

    first = np.flatnonzero(np.array(opens, dtype=bool))
    row_width = np.minimum.reduceat(width, first) if len(first) else width
    row_label = label[first]
    size = np.diff(np.append(first, n_recs))
    multi = np.flatnonzero(size > 1)
    labels = label.tolist()
    for g, a, b in zip(multi.tolist(), first[multi].tolist(), (first + size)[multi].tolist()):
        cell = labels[a]
        for nxt in labels[a + 1:b]:
            cell = _join_cells(cell, nxt)
        row_label[g] = cell
    # first non-empty value of each row's records, per column
    filled = np.where(values.astype(bool), np.arange(n_recs)[:, None], n_recs)
    pick = np.minimum.reduceat(filled, first, axis=0) if len(first) else filled
    padded = np.vstack((values, np.full((1, values.shape[1]), "", dtype=object)))
    row_values = padded[pick, np.arange(values.shape[1])]
    return first, row_label, row_values, row_width


def merge_financial_rows(
    records: Sequence[Record], row_merge_factor: float = 1.30
) -> List[List[str]]:
    """One doc's :func:`merge_rows_batch` over its records' cells."""
    if not records:
        return []
    width = [len(r.cells) for r in records]
    pad = [""] * max(max(width, default=1), 1)
    cells = np.empty((len(records), len(pad)), dtype=object)
    cells[:] = [(r.cells + pad)[:len(pad)] for r in records]
    _, row_label, row_values, row_width = merge_rows_batch(
        np.array([0, len(records)]), np.array([r.y_top for r in records], dtype=np.int64),
        np.array([r.y_bot for r in records], dtype=np.int64),
        np.array([int(r.num_count) for r in records], dtype=np.int64),
        cells[:, 0], cells[:, 1:], np.array(width, dtype=np.int64), row_merge_factor)
    return [([lab] + vals)[:w] for lab, vals, w in zip(row_label.tolist(), row_values.tolist(),
                                                       row_width.tolist())]


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
