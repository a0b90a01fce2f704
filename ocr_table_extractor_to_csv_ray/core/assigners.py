"""Line → record assignment kernels, one per layout family.

* :func:`assign_words_to_columns` — generic layout (``assign.py:5-28``)
* :func:`assign_dynamic` — dynamic layout (``assign_dynamic.py:38-72``)
* :func:`assign_financial` — financial 3-column layout
  (``assign_financial.py:41-93``)
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .doc import TokenSOA
from .geometry import Line, adaptive_line_spans, line_spans, locate
from .numeric import is_numeric_token
from .records import Record


def assign_words_to_columns(
    lines: Sequence[Line],
    toks: TokenSOA,
    columns: Sequence[Tuple[int, int]],
) -> List[Record]:
    """Token → containing column (inclusive), else nearest boundary;
    cells joined with a space in x-order (``assign.py:5-28``)."""
    if not columns or not lines:
        return []
    idx = np.concatenate([ln.idx for ln in lines])
    line_of = np.repeat(np.arange(len(lines)), [ln.idx.size for ln in lines])
    col = locate((toks.x1[idx] + toks.x2[idx]) / 2.0, columns, closed="both",
                 fallback="boundary")
    cells: List[List[List[str]]] = [[[] for _ in columns] for _ in lines]
    for r, j, word in zip(line_of.tolist(), col.tolist(), toks.text[idx].tolist()):
        cells[r][j].append(word)
    return [Record(page=ln.page, y_top=ln.y1, y_bot=ln.y2,
                   cells=[" ".join(c).strip() for c in row])
            for ln, row in zip(lines, cells)]


def assign_dynamic(
    lines: Sequence[Line],
    toks: TokenSOA,
    numeric_columns: Sequence[Tuple[int, int]],
    spans_per_line=None,
) -> List[Record]:
    """Label = text spans left of the first numeric column; numeric spans
    → nearest interval, first-wins per cell (``assign_dynamic.py:38-72``).
    ``spans_per_line`` are the shared :func:`..geometry.adaptive_line_spans`."""
    records: List[Record] = []
    if not numeric_columns:
        for ln in lines:
            # ln.idx is already x-sorted
            label = " ".join(toks.text[ln.idx])
            records.append(
                Record(page=ln.page, y_top=ln.y1, y_bot=ln.y2, cells=[label], num_count=0)
            )
        return records

    cols = sorted(numeric_columns, key=lambda ab: ab[0])
    first_left = cols[0][0]
    if spans_per_line is None:
        spans_per_line = adaptive_line_spans(lines, toks)

    col = iter(locate([(x1 + x2) / 2.0 for spans in spans_per_line
                       for (x1, x2, _txt, num) in spans if num],
                      cols, closed="both", fallback="boundary").tolist())
    for ln, spans in zip(lines, spans_per_line):
        label = " ".join(txt for (x1, _, txt, num) in spans if not num and x1 < first_left).strip()
        values = [""] * len(cols)
        for (_x1, _x2, txt, num) in spans:
            if num:
                j = next(col)
                values[j] = values[j] or txt.strip()

        records.append(
            Record(
                page=ln.page,
                y_top=ln.y1,
                y_bot=ln.y2,
                cells=[label] + values,
                num_count=sum(1 for v in values if v),
            )
        )
    return records


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
