"""Dynamic-layout numeric column inference (reference ``column_model.py``).

Hybrid strategy (``column_model.py:84-201``): per-line numeric spans →
column count = mode of per-line counts over the bottom 70 % of lines →
per-rank median centers with midpoint edges and ``pad_px`` padding; a
global-gap fallback when per-rank signal is thin; year header naming
from the top 20 % y-band (``column_model.py:47-82``).

:func:`numeric_columns_batch` runs the whole model for every document of
a batch at once, as sorts, bincounts and segment reductions over the
batch's flat line and span arrays; its intervals come back in one padded
``(n_docs, width)`` array. :func:`infer_numeric_columns` is the same code
on one document.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .doc import TokenSOA
from .geometry import (Line, adaptive_line_spans, fast_percentile, line_span_arrays,
                       locate_grouped)
from .numeric import YEAR_RE


class ColumnModel(NamedTuple):
    """Doc ``d`` has ``count[d]`` numeric columns ``(lo[d, j], hi[d, j])``,
    sorted by ``lo``; ``names[d, j]`` is the year that names column ``j``,
    or ``""``."""

    lo: np.ndarray
    hi: np.ndarray
    count: np.ndarray
    names: np.ndarray


def _first_per_group(group: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal ``group`` values."""
    first = np.ones(len(group), dtype=bool)
    first[1:] = group[1:] != group[:-1]
    return first


def _count_mode(doc: np.ndarray, value: np.ndarray, n_docs: int) -> np.ndarray:
    """Per doc, the most frequent of its ``value``s, ties to the smallest;
    0 for a doc without values."""
    out = np.zeros(n_docs, dtype=np.int64)
    if not len(value):
        return out
    base = int(value.max()) + 1
    keys, votes = np.unique(doc * base + value, return_counts=True)
    kdoc, kval = keys // base, keys % base
    order = np.lexsort((kval, -votes, kdoc))
    first = order[_first_per_group(kdoc[order])]
    out[kdoc[first]] = kval[first]
    return out


def _rank_in_group(group: np.ndarray) -> np.ndarray:
    """Position of each element within its run of equal ``group`` values."""
    pos = np.arange(len(group))
    return pos - np.maximum.accumulate(np.where(_first_per_group(group), pos, 0))


def _rank_intervals(doc: np.ndarray, rank: np.ndarray, centre: np.ndarray, ncols: np.ndarray,
                    ok: np.ndarray, pad_px: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-rank intervals (``column_model.py:140-168``) of the docs in
    ``ok``, ``(n_docs, width)`` padded: each rank's median centre
    (``int(np.median)``, truncating), sorted, cut at the midpoints
    between neighbours and padded by ``pad_px``."""
    rows = np.flatnonzero(ok)
    width = int(ncols[rows].max()) if len(rows) else 0
    lo = np.zeros((len(ncols), width), dtype=np.int64)
    hi = np.zeros((len(ncols), width), dtype=np.int64)
    if not width:
        return lo, hi
    keep = ok[doc]
    doc, rank, centre = doc[keep], rank[keep], centre[keep]
    order = np.lexsort((centre, rank, doc))
    doc, rank, centre = doc[order], rank[order], centre[order]
    first = np.flatnonzero(_first_per_group(doc * width + rank))
    size = np.diff(np.append(first, len(doc)))
    # the mean of the two middle values, or of the middle one twice
    med = np.trunc((centre[first + (size - 1) // 2] + centre[first + size // 2]) / 2.0)
    ordered = np.full((len(ncols), width), np.iinfo(np.int64).max // 4, dtype=np.int64)
    ordered[doc[first], rank[first]] = med.astype(np.int64)
    ordered = np.sort(ordered[rows], axis=1)
    edges = (ordered[:, :-1] + ordered[:, 1:]) // 2
    lo[rows, 0] = ordered[:, 0] - pad_px
    lo[rows, 1:] = edges - pad_px
    hi[rows, :-1] = edges + pad_px
    last = ncols[rows] - 1
    hi[rows, last] = ordered[np.arange(len(rows)), last] + pad_px
    return lo, hi


def _gap_intervals(doc: np.ndarray, centre: np.ndarray, n_docs: int, min_sep_px: int,
                   cut_quantile: float, pad_px: int, max_cols: int
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The global-gap fallback (``column_model.py:170-197``) of every doc
    holding centres: cut the doc's sorted centres at the midpoint of every
    gap >= ``max(min_sep_px, int(percentile(gaps, cut_quantile)))``, keep
    the pieces >= 10 px wide, merge a piece into the previous when it
    starts <= 8 px after the running right edge, pad, keep ``[:max_cols]``.
    Returns ``(lo, hi, count)``, padded ``(n_docs, width)``."""
    order = np.lexsort((centre, doc))
    doc, centre = doc[order], centre[order]
    same = doc[1:] == doc[:-1]
    gap = centre[1:] - centre[:-1]
    pctl = fast_percentile(gap[same], np.concatenate(([0], np.cumsum(np.bincount(
        doc[1:][same], minlength=n_docs)))), cut_quantile)
    thr = np.maximum(min_sep_px, np.trunc(pctl).astype(np.int64))
    # cuts: each doc's first centre, the midpoint of each wide gap, its last
    wide = np.flatnonzero(same & (gap >= thr[doc[1:]]))
    first = np.flatnonzero(_first_per_group(doc))
    last = np.append(first[1:], len(doc)) - 1
    cut_doc = np.concatenate((doc[first], doc[wide], doc[last]))
    cut_pos = np.concatenate((np.full(len(first), -1), wide, np.full(len(last), len(doc))))
    cut = np.concatenate((centre[first], (centre[wide] + centre[wide + 1]) // 2, centre[last]))
    o = np.lexsort((cut_pos, cut_doc))
    cut_doc, cut = cut_doc[o], cut[o]
    piece = (cut_doc[1:] == cut_doc[:-1]) & (cut[1:] - cut[:-1] >= 10)
    p_doc, p_lo, p_hi = cut_doc[1:][piece], cut[:-1][piece], cut[1:][piece]
    # merge against the running max of the right edges within each doc
    base = int(p_hi.min()) if len(p_hi) else 0
    shift = p_doc * (int(p_hi.max()) - base + 1 if len(p_hi) else 1) - base
    run = np.maximum.accumulate(p_hi + shift) - shift
    new = _first_per_group(p_doc)
    new[1:] |= p_lo[1:] - run[:-1] > 8
    starts = np.flatnonzero(new)
    g_doc, g_lo = p_doc[starts], p_lo[starts]
    g_hi = np.maximum.reduceat(p_hi, starts) if len(starts) else p_hi
    g_rank = _rank_in_group(g_doc)
    n_g = np.bincount(g_doc, minlength=n_docs)
    count = np.minimum(n_g, max_cols) if max_cols >= 0 else np.maximum(n_g + max_cols, 0)
    keep = g_rank < count[g_doc]
    width = int(count.max()) if n_docs else 0
    lo = np.zeros((n_docs, width), dtype=np.int64)
    hi = np.zeros((n_docs, width), dtype=np.int64)
    lo[g_doc[keep], g_rank[keep]] = g_lo[keep] - pad_px
    hi[g_doc[keep], g_rank[keep]] = g_hi[keep] + pad_px
    return lo, hi, count


def _year_names(line_doc: np.ndarray, line_y1: np.ndarray, y_min: np.ndarray,
                y_max: np.ndarray, span_line: np.ndarray, sx1: np.ndarray, sx2: np.ndarray,
                stext: np.ndarray, lo: np.ndarray, hi: np.ndarray, count: np.ndarray
                ) -> np.ndarray:
    """Column names by majority vote of the year strings of the spans in
    each doc's top 20 % y-band (``column_model.py:47-82``); ties go to the
    smallest string. ``(n_docs, width)``, ``""`` where no year voted."""
    names = np.full(lo.shape, "", dtype=object)
    top = (count[line_doc] > 0) & (line_y1 <= (y_min + 0.20 * (y_max - y_min))[line_doc])
    cand = np.flatnonzero(top[span_line])
    found = [(i, m.group(0)) for i, m in zip(cand.tolist(), map(YEAR_RE.search, stext[cand]))
             if m]
    if not found:
        return names
    idx = np.array([i for i, _ in found], dtype=np.int64)
    years, code = np.unique(np.array([y for _, y in found]), return_inverse=True)
    years = np.array(years.tolist(), dtype=object)
    doc = line_doc[span_line[idx]]
    col = locate_grouped((sx1[idx] + sx2[idx]) // 2, doc, lo, hi, count,
                         closed="both", fallback="boundary")
    cell = doc * lo.shape[1] + col
    keys, votes = np.unique(cell * len(years) + code, return_counts=True)
    kcell, kcode = keys // len(years), keys % len(years)
    order = np.lexsort((kcode, -votes, kcell))
    win = order[_first_per_group(kcell[order])]
    names[kcell[win] // lo.shape[1], kcell[win] % lo.shape[1]] = years[kcode[win]]
    return names


def numeric_columns_batch(
    doc_lines: np.ndarray,
    line_y1: np.ndarray,
    span_starts: np.ndarray,
    sx1: np.ndarray,
    sx2: np.ndarray,
    stext: np.ndarray,
    is_num: np.ndarray,
    min_sep_px: int = 35,
    cut_quantile: float = 90.0,
    pad_px: int = 24,
    max_cols: int = 4,
) -> ColumnModel:
    """The numeric columns and year names of every doc of a batch — the
    full ``infer_numeric_columns_from_lines`` semantics. Doc ``d`` owns
    lines ``doc_lines[d]:doc_lines[d + 1]`` (``line_y1`` per line), line
    ``k`` owns spans ``span_starts[k]:span_starts[k + 1]`` (the shared
    :func:`..geometry.dynamic_spans`)."""
    n_docs = len(doc_lines) - 1
    n_lines = np.diff(doc_lines)
    line_doc = np.repeat(np.arange(n_docs), n_lines)
    span_line = np.repeat(np.arange(len(line_y1)), np.diff(span_starts))
    has = n_lines > 0
    y_min = np.zeros(n_docs, dtype=np.int64)
    y_max = np.zeros(n_docs, dtype=np.int64)
    if has.any():
        y_min[has] = np.minimum.reduceat(line_y1, doc_lines[:-1][has])
        y_max[has] = np.maximum.reduceat(line_y1, doc_lines[:-1][has])

    # numeric span centres, sorted within their line
    num = np.flatnonzero(is_num)
    centre = (sx1[num] + sx2[num]) // 2
    c_line = span_line[num]
    order = np.lexsort((centre, c_line))
    centre, c_line = centre[order], c_line[order]
    c_doc = line_doc[c_line]
    per_line = np.bincount(c_line, minlength=len(line_y1))

    # column count: mode of the positive counts of the body lines
    body = (line_y1 >= (y_min + 0.30 * (y_max - y_min))[line_doc]) & (per_line > 0)
    ncols = np.minimum(_count_mode(line_doc[body], per_line[body], n_docs), max_cols)

    # per-rank buckets: rank 0 is each line's rightmost centre
    line_first = np.cumsum(per_line) - per_line
    rank = per_line[c_line] - 1 - (np.arange(len(centre)) - line_first[c_line])
    in_rank = rank < ncols[c_doc]
    width = max(int(ncols.max()) if n_docs else 0, 1)
    bucket = np.bincount(c_doc[in_rank] * width + rank[in_rank],
                         minlength=n_docs * width).reshape(n_docs, width)
    thin = (bucket < np.maximum(5, 0.05 * n_lines)[:, None]) & (np.arange(width) < ncols[:, None])
    ok = (ncols >= 2) & ~thin.any(axis=1)
    lo, hi = _rank_intervals(c_doc[in_rank], rank[in_rank], centre[in_rank], ncols, ok, pad_px)
    count = np.where(ok, ncols, 0)

    # global-gap fallback for the docs that hold centres but no per-rank intervals
    fb = ~ok & (np.bincount(c_doc, minlength=n_docs) > 0)
    if fb.any():
        sel = fb[c_doc]
        g_lo, g_hi, g_count = _gap_intervals(c_doc[sel], centre[sel], n_docs, min_sep_px,
                                             cut_quantile, pad_px, max_cols)
        w = max(lo.shape[1], g_lo.shape[1])
        lo, hi = (np.pad(a, ((0, 0), (0, w - a.shape[1]))) for a in (lo, hi))
        lo[fb, :g_lo.shape[1]] = g_lo[fb]
        hi[fb, :g_hi.shape[1]] = g_hi[fb]
        count = np.where(fb, g_count, count)

    names = _year_names(line_doc, line_y1, y_min, y_max, span_line, sx1, sx2, stext,
                        lo, hi, count)
    return ColumnModel(lo, hi, count, names)


def infer_numeric_columns(
    lines: Sequence[Line],
    toks: TokenSOA,
    min_sep_px: int = 35,
    cut_quantile: float = 90.0,
    pad_px: int = 24,
    max_cols: int = 4,
    spans_per_line: Optional[Sequence[Sequence[Tuple[int, int, str, bool]]]] = None,
) -> Tuple[List[Tuple[int, int]], Optional[List[str]]]:
    """Return (numeric column intervals, optional year header names) of
    one doc: :func:`numeric_columns_batch` on a one-doc batch. Unnamed
    columns default to ``Valor_{i+1}``; no year at all gives ``None``.
    ``spans_per_line`` shares the adaptive-gap spans with the assigner
    (:func:`..geometry.adaptive_line_spans`)."""
    if spans_per_line is None:
        spans_per_line = adaptive_line_spans(lines, toks)
    cm = numeric_columns_batch(np.array([0, len(lines)]),
                               np.array([ln.y1 for ln in lines], dtype=np.int64),
                               *line_span_arrays(spans_per_line),
                               min_sep_px=min_sep_px, cut_quantile=cut_quantile,
                               pad_px=pad_px, max_cols=max_cols)
    k = int(cm.count[0])
    intervals = list(zip(cm.lo[0, :k].tolist(), cm.hi[0, :k].tolist()))
    names = cm.names[0, :k].tolist()
    if not any(names):
        return intervals, None
    return intervals, [nm or f"Valor_{i + 1}" for i, nm in enumerate(names)]
