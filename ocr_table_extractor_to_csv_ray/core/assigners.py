"""Line → record assignment kernels, one per layout family.

* :func:`column_cells` — generic layout, every token of a batch in one
  pass (``assign.py:5-28``); :func:`assign_words_to_columns` is the same
  code on one document
* :func:`assign_dynamic_batch` — dynamic layout, every line of a batch in
  one pass (``assign_dynamic.py:38-72``); :func:`assign_dynamic` is the
  same code on one document
* :func:`assign_financial` — financial 3-column layout
  (``assign_financial.py:41-93``)
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .colmodel import ColumnModel
from .doc import TokenSOA
from .geometry import (Line, adaptive_line_spans, gather_lines, join_runs, line_span_arrays,
                       line_spans, locate_grouped)
from .numeric import is_numeric_token
from .records import Record


def column_cells(tok_line: np.ndarray, tok_doc: np.ndarray, xc: np.ndarray, words: np.ndarray,
                 lo: np.ndarray, hi: np.ndarray, count: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(line, col, text)`` of every (line, column) cell holding a token
    (``assign.py:5-28``): each token of a batch (line-major) goes to its
    doc's first column holding its centre ``xc``, else the nearest
    boundary; a cell joins its tokens with a space, stripped."""
    col = locate_grouped(xc, tok_doc, lo, hi, count, closed="both", fallback="boundary")
    keep = np.flatnonzero(col >= 0)
    order = keep[np.lexsort((col[keep], tok_line[keep]))]
    (line, col), text = join_runs((tok_line[order], col[order]), words[order],
                                  lambda w: " ".join(w).strip())
    return line, col, text


def assign_words_to_columns(
    lines: Sequence[Line],
    toks: TokenSOA,
    columns: Sequence[Tuple[int, int]],
) -> List[Record]:
    """One doc's :func:`column_cells`, as records."""
    if not columns or not lines:
        return []
    idx = np.concatenate([ln.idx for ln in lines])
    iv = np.array(columns, dtype=np.int64).reshape(1, -1, 2)
    line, col, text = column_cells(
        np.repeat(np.arange(len(lines)), [ln.idx.size for ln in lines]),
        np.zeros(idx.size, dtype=np.int64), (toks.x1[idx] + toks.x2[idx]) / 2.0,
        toks.text[idx], iv[..., 0], iv[..., 1], np.array([len(columns)]))
    cells = np.full((len(lines), len(columns)), "", dtype=object)
    cells[line, col] = text
    return [Record(page=ln.page, y_top=ln.y1, y_bot=ln.y2, cells=row)
            for ln, row in zip(lines, cells.tolist())]


def assign_dynamic_batch(
    doc_lines: np.ndarray,
    span_starts: np.ndarray,
    sx1: np.ndarray,
    sx2: np.ndarray,
    stext: np.ndarray,
    is_num: np.ndarray,
    cols: ColumnModel,
    tok_starts: np.ndarray,
    tok_text: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every line of a batch → its record cells (``assign_dynamic.py:38-72``):
    returns ``(label, values, num_count)`` per line, ``values`` an
    ``(n_lines, width)`` object array whose first ``cols.count[d]`` cells
    are doc ``d``'s.

    Label = the text spans left of the doc's first numeric column, joined
    and stripped; numeric spans → :func:`..geometry.locate_grouped`
    (nearest boundary), first non-empty text wins per cell. A doc without
    columns gets one cell per line: its tokens (``tok_text``, line ``k``
    owning ``tok_starts[k]:tok_starts[k + 1]``) joined, not its spans.
    """
    n_lines = len(span_starts) - 1
    line_doc = np.repeat(np.arange(len(doc_lines) - 1), np.diff(doc_lines))
    span_line = np.repeat(np.arange(n_lines), np.diff(span_starts))
    span_doc = line_doc[span_line]
    k = cols.count[span_doc]
    order = np.argsort(np.where(np.arange(cols.lo.shape[1]) < cols.count[:, None], cols.lo,
                                np.iinfo(np.int64).max), axis=1, kind="stable")
    lo = np.take_along_axis(cols.lo, order, axis=1)
    hi = np.take_along_axis(cols.hi, order, axis=1)
    width = lo.shape[1]

    # numeric spans → columns; the first span with text wins a cell
    num = np.flatnonzero(is_num & (k > 0))
    col = locate_grouped((sx1[num] + sx2[num]) / 2.0, span_doc[num], lo, hi, cols.count,
                         closed="both", fallback="boundary")
    text = np.empty(len(num), dtype=object)
    text[:] = [t.strip() for t in stext[num]]
    has_text = text.astype(bool)
    num, col, text = num[has_text], col[has_text], text[has_text]
    _, first = np.unique(span_line[num] * width + col, return_index=True)
    values = np.full((n_lines, width), "", dtype=object)
    values[span_line[num[first]], col[first]] = text[first]
    num_count = np.bincount(span_line[num[first]], minlength=n_lines)

    # labels: the text spans left of the first column, per line
    left = np.flatnonzero(~is_num & (k > 0) & (sx1 < lo[span_doc, 0] if width else False))
    label = np.full(n_lines, "", dtype=object)
    bounds = np.searchsorted(span_line[left], np.arange(n_lines + 1))
    words = stext[left].tolist()
    lines = np.flatnonzero(np.diff(bounds) > 0)
    label[lines] = [" ".join(words[a:b]).strip()
                    for a, b in zip(bounds[lines].tolist(), bounds[lines + 1].tolist())]
    bare = np.flatnonzero(cols.count[line_doc] == 0)
    if len(bare):
        tokens = tok_text.tolist()
        label[bare] = [" ".join(tokens[a:b]) for a, b in zip(tok_starts[bare].tolist(),
                                                             tok_starts[bare + 1].tolist())]
    return label, values, num_count


def assign_dynamic(
    lines: Sequence[Line],
    toks: TokenSOA,
    numeric_columns: Sequence[Tuple[int, int]],
    spans_per_line=None,
) -> List[Record]:
    """One doc's :func:`assign_dynamic_batch`, as records. ``spans_per_line``
    are the shared :func:`..geometry.adaptive_line_spans`."""
    if spans_per_line is None:
        spans_per_line = adaptive_line_spans(lines, toks)
    iv = np.array(numeric_columns, dtype=np.int64).reshape(1, -1, 2)
    cols = ColumnModel(iv[..., 0], iv[..., 1], np.array([iv.shape[1]]),
                       np.full(iv.shape[:2], "", dtype=object))
    _, _, text, starts = gather_lines(lines, toks)
    label, values, num_count = assign_dynamic_batch(
        np.array([0, len(lines)]), *line_span_arrays(spans_per_line), cols, starts, text)
    k = iv.shape[1]
    return [Record(page=ln.page, y_top=ln.y1, y_bot=ln.y2, cells=[lab] + vals[:k],
                   num_count=int(n))
            for ln, lab, vals, n in zip(lines, label.tolist(), values.tolist(),
                                        num_count.tolist())]


def assign_financial(
    lines: Sequence[Line],
    toks: TokenSOA,
    span_gap_px: int = 18,
    newest_on_right: bool = True,
) -> List[Record]:
    """Two rightmost numeric spans become the value columns; everything
    textual joins into the label (``assign_financial.py:41-93``)."""
    records: List[Record] = []
    for ln, spans in zip(lines, line_spans(lines, toks, span_gap_px)):
        if not spans:
            records.append(
                Record(page=ln.page, y_top=ln.y1, y_bot=ln.y2,
                       cells=["", "", ""], num_count=0, has_label=False)
            )
            continue
        numeric = [s for s in spans if is_numeric_token(s[2])]
        textual = [s for s in spans if not is_numeric_token(s[2])]
        num_sorted = sorted(numeric, key=lambda s: s[0])

        col_a = col_b = ""
        if len(num_sorted) >= 2:
            rightmost = num_sorted[-1][2]
            second = num_sorted[-2][2]
            col_a, col_b = (second, rightmost) if newest_on_right else (rightmost, second)
        elif len(num_sorted) == 1:
            col_a = num_sorted[0][2]

        label = " ".join(txt for (_, _, txt) in sorted(textual, key=lambda s: s[0])).strip()
        records.append(
            Record(
                page=ln.page,
                y_top=ln.y1,
                y_bot=ln.y2,
                cells=[label, col_a, col_b],
                num_count=len(num_sorted),
                has_label=bool(label),
            )
        )
    return records
