"""Model-label-driven table composition (the ``transformers`` layout).

Reimplements the reference's label → grid path from scratch:
``_parse_prediction_label`` (``layout_transformers.py:164-177``),
``_derive_column_intervals`` (``:203-288``),
``_assign_columns_from_intervals`` (``:291-310``),
``_compute_row_intervals_from_predictions`` (``:313-338``),
``_assign_tokens_to_rows`` (``:341-360``) and
``_compose_table_from_predictions`` (``:363-443``).

Tokens + labels come in as parallel arrays (SOA); the model itself is an
actor-pool stage (``stages/model.py``) — this module is pure geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .doc import TokenSOA
from .geometry import locate, profile_intervals

HEADER_PREFIX = "HEADER_COL_"
BODY_PREFIX = "BODY_COL_"
OTHER_LABEL = "OTHER"


def parse_prediction_label(label: str) -> Tuple[str, Optional[int]]:
    """``"HEADER_COL_3"`` → ``("header", 3)`` (``layout_transformers.py:164-177``)."""
    for prefix, kind in ((HEADER_PREFIX, "header"), (BODY_PREFIX, "body")):
        if label.startswith(prefix):
            try:
                return kind, int(label[len(prefix):])
            except ValueError:
                return kind, None
    return "other", None


@dataclass
class Predictions:
    """Token predictions as parallel arrays (M7, ``layout_transformers.py:180-200``)."""

    text: np.ndarray          # object
    x1: np.ndarray
    y1: np.ndarray
    x2: np.ndarray
    y2: np.ndarray
    kind: np.ndarray          # object: 'header' | 'body' | 'other'
    column: np.ndarray        # int64, -1 == None

    def __len__(self) -> int:
        return len(self.text)

    @property
    def xc(self) -> np.ndarray:
        return (self.x1 + self.x2) / 2.0

    @property
    def yc(self) -> np.ndarray:
        return (self.y1 + self.y2) / 2.0

    def take(self, idx: np.ndarray) -> "Predictions":
        return Predictions(*(getattr(self, f)[idx] for f in
                             ("text", "x1", "y1", "x2", "y2", "kind", "column")))

    @staticmethod
    def from_labels(toks: TokenSOA, labels: List[str]) -> "Predictions":
        kinds = np.empty(len(labels), dtype=object)
        cols = np.full(len(labels), -1, dtype=np.int64)
        for i, lab in enumerate(labels):
            k, c = parse_prediction_label(lab)
            kinds[i] = k
            cols[i] = -1 if c is None else c
        return Predictions(text=toks.text, x1=toks.x1, y1=toks.y1,
                           x2=toks.x2, y2=toks.y2, kind=kinds, column=cols)


def derive_column_intervals(p: Predictions, max_columns: Optional[int]) -> List[Tuple[int, int]]:
    """G17 (``layout_transformers.py:203-288``): labeled-column extents
    ±3 px when the model labeled columns; else vertical-profile fallback
    (valley > 3 px, interval > 5 px); pad by splitting the widest
    interval (> 6 px wide) until ``max_columns``; truncate; sort."""
    intervals: List[Tuple[int, int]] = []
    labeled = p.column >= 0
    if labeled.any():
        for col in sorted(set(p.column[labeled].tolist())):
            m = labeled & (p.column == col)
            intervals.append((int(p.x1[m].min()) - 3, int(p.x2[m].max()) + 3))

    def profile() -> List[Tuple[int, int]]:
        # reference builds the profile over width = x_max - x_min with
        # gap-run threshold len > 3 and interval width > 5
        return profile_intervals(p.x1, p.x2, min_gap=3, min_size=5)

    if not intervals:
        intervals = profile()
    if max_columns:
        intervals = intervals[:max_columns]
    min_required = 2 if max_columns and max_columns > 1 else 1
    if len(intervals) < min_required:
        intervals = profile()
        if max_columns:
            intervals = intervals[:max_columns]
    if max_columns and intervals:
        while len(intervals) < max_columns:
            widths = [r - l for l, r in intervals]
            j = int(np.argmax(widths))
            l, r = intervals[j]
            if r - l <= 6:
                break
            mid = (l + r) // 2
            intervals = intervals[:j] + [(l, mid), (mid, r)] + intervals[j + 1:]
        if len(intervals) > max_columns:
            intervals = intervals[:max_columns]
    return sorted(intervals, key=lambda iv: iv[0])


def assign_columns_from_intervals(p: Predictions,
                                  intervals: List[Tuple[int, int]]) -> np.ndarray:
    """G18 (``layout_transformers.py:291-310``): keep a valid model
    column; else ``locate(closed="both", fallback="centre")``. Returns the
    effective column per token (mutating the SOA copy's ``column``)."""
    if not intervals:
        return p.column
    out = p.column.copy()
    bad = (out < 0) | (out >= len(intervals))
    out[bad] = locate(p.xc[bad], intervals, closed="both", fallback="centre")
    p.column = out
    return out


def compute_row_intervals(p: Predictions) -> List[Tuple[int, int]]:
    """G19 (``layout_transformers.py:313-338``): y-profile, valley > 2,
    interval > 5, full-extent fallback."""
    if len(p) == 0:
        return []
    return profile_intervals(p.y1, p.y2, min_gap=2, min_size=5)


def assign_tokens_to_rows(p: Predictions,
                          intervals: List[Tuple[int, int]]) -> np.ndarray:
    """G20 (``layout_transformers.py:341-360``):
    ``locate(closed="left", fallback="centre")``; row 0 for every token
    when there are no intervals."""
    return np.maximum(locate(p.yc, intervals, closed="left", fallback="centre"), 0)


def compose_table(p: Predictions, max_columns: int = 6) -> Tuple[List[str], List[List[str]]]:
    """G21 (``layout_transformers.py:363-443``): usable tokens → column
    intervals → row groups sorted by mean y → header = first group with
    a header-labeled token (defaults ``Cuenta``/``Valor_{col}``), rest
    body; cells stripped (``process_grid_data``)."""
    if len(p) == 0:
        return [], []
    usable_m = (p.kind == "header") | (p.kind == "body")
    if not usable_m.any():
        return [], []
    u = p.take(np.flatnonzero(usable_m))

    intervals = derive_column_intervals(u, max_columns=max_columns)
    if not intervals:
        intervals = [(int(u.x1.min()), int(u.x2.max()))]
    assign_columns_from_intervals(u, intervals)

    row_intervals = compute_row_intervals(u)
    row_of = assign_tokens_to_rows(u, row_intervals)

    # bucket column: None/neg → 0 (RowGroup.add, layout_transformers.py:53-60)
    bucket_col = np.where(u.column < 0, 0, u.column)
    # groups sorted by mean y-center of members
    row_ids = np.unique(row_of)
    mean_y = np.array([u.yc[row_of == r].mean() for r in row_ids])
    order = np.argsort(mean_y, kind="stable")
    sorted_rows = row_ids[order]

    detected = set(bucket_col.tolist())
    if not detected:
        return [], []
    max_col = max(detected)
    if max_columns:
        max_col = min(max_col, max_columns - 1)
    num_cols = max_col + 1

    is_header_row = {r: bool((u.kind[row_of == r] == "header").any()) for r in row_ids}
    header_row_id = next((r for r in sorted_rows if is_header_row[r]), None)

    def cells_of(r, default_header: bool) -> List[str]:
        cells: List[str] = []
        m_row = row_of == r
        for col in range(num_cols):
            m = m_row & (bucket_col == col)
            idx = np.flatnonzero(m)
            idx = idx[np.argsort(u.xc[idx], kind="stable")]
            text = " ".join(u.text[i] for i in idx).strip()
            if not text and default_header:
                text = "Cuenta" if col == 0 else f"Valor_{col}"
            cells.append(text)
        return cells

    header = cells_of(header_row_id, True) if header_row_id is not None else \
        ["Cuenta"] + [f"Valor_{c}" for c in range(1, num_cols)]
    rows = [
        [c.strip() for c in cells_of(r, False)]
        for r in sorted_rows if r != header_row_id
    ]
    return header, rows
