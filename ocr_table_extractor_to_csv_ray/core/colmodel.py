"""Dynamic-layout numeric column inference (reference ``column_model.py``).

Hybrid strategy (``column_model.py:84-201``): per-line numeric spans →
column count = mode of per-line counts over the bottom 70 % of lines →
per-rank median centers with midpoint edges and ``pad_px`` padding; a
global-gap fallback when per-rank signal is thin; year header naming
from the top 20 % y-band (``column_model.py:47-82``).
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .doc import TokenSOA
from .geometry import Line, adaptive_line_spans, fast_percentile, locate
from .numeric import YEAR_RE


def _percentile(vals: Sequence[float], q: float) -> float:
    if not len(vals):
        return 0.0
    return fast_percentile(np.asarray(vals, dtype=float), q)


def year_headers_from_top(
    lines: Sequence[Line],
    spans_per_line: Sequence[Sequence[Tuple[int, int, str, bool]]],
    intervals: Sequence[Tuple[int, int]],
) -> Optional[List[str]]:
    """Name columns by majority vote of year strings found in the top
    20 % band of line y1 values (``column_model.py:47-82``); unnamed
    columns default to ``Valor_{i+1}``; all-empty → ``None``. The spans
    are the lines' adaptive-gap spans, the ones the reference re-merges
    here."""
    if not intervals:
        return None
    ys = [ln.y1 for ln in lines]
    if not ys:
        return None
    y_thr = min(ys) + 0.20 * (max(ys) - min(ys))
    centres: List[int] = []
    years: List[str] = []
    for ln, spans in zip(lines, spans_per_line):
        if ln.y1 <= y_thr:
            for (x1, x2, txt, _num) in spans:
                m = YEAR_RE.search(txt)
                if m:
                    centres.append((x1 + x2) // 2)
                    years.append(m.group(0))
    if not years:
        return None
    candidates = list(zip(locate(centres, intervals, closed="both",
                                 fallback="boundary").tolist(), years))
    names = [""] * len(intervals)
    for j in range(len(intervals)):
        votes = [yr for (idx, yr) in candidates if idx == j]
        if votes:
            vals, cnts = np.unique(np.array(votes), return_counts=True)
            names[j] = str(vals[int(np.argmax(cnts))])
    if any(names):
        return [nm if nm else f"Valor_{i + 1}" for i, nm in enumerate(names)]
    return None


def infer_numeric_columns(
    lines: Sequence[Line],
    toks: TokenSOA,
    min_sep_px: int = 35,
    cut_quantile: float = 90.0,
    pad_px: int = 24,
    max_cols: int = 4,
    spans_per_line: Optional[Sequence[Sequence[Tuple[int, int, str, bool]]]] = None,
) -> Tuple[List[Tuple[int, int]], Optional[List[str]]]:
    """Return (numeric column intervals, optional year header names)
    — the full ``infer_numeric_columns_from_lines`` semantics.
    ``spans_per_line`` shares the adaptive-gap spans with the assigner
    (:func:`..geometry.adaptive_line_spans`)."""
    if not lines:
        return [], None
    if spans_per_line is None:
        spans_per_line = adaptive_line_spans(lines, toks)

    per_line_centers: List[List[int]] = []
    y_vals = [ln.y1 for ln in lines]
    y_min, y_max = min(y_vals), max(y_vals)
    y_body_thr = y_min + 0.30 * (y_max - y_min)   # skip headers for the mode
    body_counts: List[int] = []

    for ln, spans in zip(lines, spans_per_line):
        centers = [(x1 + x2) // 2 for (x1, x2, _txt, num) in spans if num]
        centers.sort()
        per_line_centers.append(centers)
        if ln.y1 >= y_body_thr:
            body_counts.append(len(centers))

    # mode of the positive counts, ties to the smallest count
    votes = Counter(c for c in body_counts if c > 0)
    ncols = min(votes, key=lambda c: (-votes[c], c)) if votes else 0
    if ncols > max_cols:
        ncols = max_cols

    intervals: List[Tuple[int, int]] = []
    if ncols >= 2:
        # per-rank buckets: rightmost, 2nd-rightmost, ... (column_model.py:140-149)
        buckets: List[List[int]] = [[] for _ in range(ncols)]
        for centers in per_line_centers:
            for rank in range(min(len(centers), ncols)):
                buckets[rank].append(centers[-(rank + 1)])
        if not any(len(b) < max(5, 0.05 * len(per_line_centers)) for b in buckets):
            ordered = sorted(int(np.median(b)) for b in buckets)
            edges = [(a + b) // 2 for a, b in zip(ordered, ordered[1:])]
            L = ordered[0] - pad_px
            for mid in edges:
                intervals.append((int(L), int(mid + pad_px)))
                L = int(mid - pad_px)
            intervals.append((int(L), int(ordered[-1] + pad_px)))

    if not intervals:
        # global-gap fallback (column_model.py:170-197)
        all_centers = sorted(c for centers in per_line_centers for c in centers)
        if not all_centers:
            return [], None
        gaps = [b - a for a, b in zip(all_centers, all_centers[1:])]
        thr = max(min_sep_px, int(_percentile(gaps, cut_quantile)))
        cuts = [all_centers[0]]
        for a, b in zip(all_centers, all_centers[1:]):
            if (b - a) >= thr:
                cuts.append((a + b) // 2)
        cuts.append(all_centers[-1])
        raw = [(int(L), int(R)) for L, R in zip(cuts, cuts[1:]) if R - L >= 10]
        merged: List[Tuple[int, int]] = []
        for iv in raw:
            if not merged or iv[0] - merged[-1][1] > 8:
                merged.append(iv)
            else:
                merged[-1] = (merged[-1][0], max(merged[-1][1], iv[1]))
        intervals = [(int(L - pad_px), int(R + pad_px)) for (L, R) in merged][:max_cols]

    names = year_headers_from_top(lines, spans_per_line, intervals) if intervals else None
    return intervals, names
