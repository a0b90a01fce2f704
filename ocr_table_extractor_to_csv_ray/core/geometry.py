"""Geometric primitives shared by every layout kernel.

The reference repeats the projection-profile valley algorithm five times
(``columns.py:21-41``, ``rows.py:26-47``, ``grid_builder.py:39-55``,
``layout_transformers.py:228-255,313-338``, ``dataset_builder.py:49-80``);
here it is ONE parameterized primitive (:func:`valley_cuts_batch`) whose
per-call thresholds reproduce each call site exactly. It profiles many
segments (one per document) at once: one difference array over the
concatenated segment ranges, one cumsum and one zero-run scan, instead of
the reference's O(tokens × width) slice-adds — identical profile, linear
cost, which matters for very wide multi-page documents.
:func:`valley_cuts` is one segment of it.

Line building (:func:`build_lines_batch`), span merging
(:func:`merge_spans`) and percentiles (:func:`fast_percentile`) take a
whole batch of documents at once: sorts, segment reductions and running
maxima over the batch's flat token arrays, with one Python loop left, the
running-band line sweep. The per-document entry points
(:func:`build_lines`, :func:`adaptive_line_spans`, :func:`line_spans`)
call the same code on a one-document batch.

Every layout then runs the same two steps. The profile becomes intervals:
:func:`profile_intervals_batch` (``guard``: the model paths' rules) and
:func:`column_intervals_batch` (plus the ``expected_n_cols`` fit); one doc:
:func:`profile_intervals`, :func:`estimate_columns`. Each point then goes
to the interval that holds it, :func:`locate`, called once per document
per site, or :func:`locate_grouped` once per batch over every document's
padded intervals. The reference writes the second step once per module,
each with its own quirk; here each quirk is one argument:

* ``closed="both", fallback="boundary"``:
  ``assigners.column_cells``, per token (``assign.py:17-24``);
  ``assigners.assign_dynamic_batch``, per numeric span, and the year
  headers of ``colmodel.numeric_columns_batch`` (``assign_dynamic.py:62-67``).
* ``closed="left", fallback=None`` (the point is dropped):
  ``records.merge_lines_batch``, record → row (``rows.py:54-61``);
  ``gridpro.professional_grid``, token → column (``grid_builder.py:134-142``).
* ``closed="left", fallback="centre"``: ``databuild.teacher_batch``,
  line → row (``dataset_builder.py:83-105``);
  ``transformers_layout.assign_tokens_to_rows``
  (``layout_transformers.py:341-360``).
* ``closed="both", fallback="centre"``: ``databuild.teacher_batch``,
  token → column (``dataset_builder.py:108-119``);
  ``transformers_layout.assign_columns_from_intervals``, which keeps a
  valid model column (``layout_transformers.py:291-310``).

gridpro's contiguous-left-edge intervals (``grid_builder.py:56-63``) are a
different profile → intervals rule and stay in ``gridpro``.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .doc import TokenSOA
from .numeric import num_span_flags


class Line(NamedTuple):
    """One visual line: page, bbox and x-sorted token indices into the doc."""

    page: int
    x1: int
    y1: int
    x2: int
    y2: int
    idx: np.ndarray          # token indices, sorted by token x1 (stable)


class LineBatch(NamedTuple):
    """The visual lines of a whole batch, doc-major and ``(page, y1, x1)``
    ordered within each doc.

    Doc ``d`` owns lines ``doc_lines[d]:doc_lines[d + 1]``; line ``k`` owns
    the batch token indices ``members[starts[k]:starts[k + 1]]``, x1-sorted.
    """

    doc_lines: np.ndarray
    page: np.ndarray
    x1: np.ndarray
    y1: np.ndarray
    x2: np.ndarray
    y2: np.ndarray
    starts: np.ndarray
    members: np.ndarray

    def select(self, docs: np.ndarray) -> "LineBatch":
        """The batch of the docs in the mask ``docs`` (``members`` still
        index the whole batch's tokens)."""
        keep = np.repeat(docs, np.diff(self.doc_lines))
        sizes = np.diff(self.starts)
        return LineBatch(np.concatenate(([0], np.cumsum(np.diff(self.doc_lines)[docs]))),
                         self.page[keep], self.x1[keep], self.y1[keep], self.x2[keep],
                         self.y2[keep], np.concatenate(([0], np.cumsum(sizes[keep]))),
                         self.members[np.repeat(keep, sizes)])

    def member_line_doc(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(line, doc)`` of every member token."""
        line = np.repeat(np.arange(len(self.page)), np.diff(self.starts))
        return line, np.repeat(np.arange(len(self.doc_lines) - 1), np.diff(self.doc_lines))[line]

    def per_doc(self, word_offsets: np.ndarray) -> List[List[Line]]:
        """Each doc's lines as :class:`Line` tuples with doc-local ``idx``."""
        counts = np.diff(self.starts)
        line_doc = np.repeat(np.arange(len(self.doc_lines) - 1), np.diff(self.doc_lines))
        local = self.members - np.repeat(word_offsets[line_doc], counts)
        starts = self.starts.tolist()
        lines = list(map(Line, self.page.tolist(), self.x1.tolist(), self.y1.tolist(),
                         self.x2.tolist(), self.y2.tolist(),
                         [local[a:b] for a, b in zip(starts, starts[1:])]))
        bounds = self.doc_lines.tolist()
        return [lines[a:b] for a, b in zip(bounds, bounds[1:])]


def overlap_ratio(a1: int, a2: int, b1: int, b2: int) -> float:
    """Vertical overlap of two bands over the SHORTER band's length
    (reference ``structures.py:17-20`` — denominator is min length).
    Conditional expressions, not ``min``/``max``: the line sweep calls
    this once per token."""
    inter = (a2 if a2 < b2 else b2) - (a1 if a1 > b1 else b1)
    denom = a2 - a1 if a2 - a1 < b2 - b1 else b2 - b1
    return (inter if inter > 0 else 0) / (denom if denom > 1 else 1)


def _sweep_line_codes(doc: List[int], page: List[int], y1: List[int], y2: List[int]) -> List[int]:
    """Line number of each token of the sweep order: a token joins the open
    line iff it is on the same doc and page and overlaps the line's RUNNING
    band by >= 0.5, the band expanding as tokens join (``lines.py:28-60``)."""
    codes = [0] * len(doc)
    code, cur_doc, cur_page, lo, hi = -1, None, None, 0, 0
    for k, (d, p, t1, t2) in enumerate(zip(doc, page, y1, y2)):
        if d == cur_doc and p == cur_page and overlap_ratio(lo, hi, t1, t2) >= 0.5:
            if t1 < lo:
                lo = t1
            if t2 > hi:
                hi = t2
        else:
            code, cur_doc, cur_page, lo, hi = code + 1, d, p, t1, t2
        codes[k] = code
    return codes


def build_lines_batch(word_offsets: np.ndarray, toks: TokenSOA, has_lid: np.ndarray,
                      include: Optional[np.ndarray] = None) -> LineBatch:
    """Group every doc's tokens into visual lines in one pass over the batch
    (reference ``lines.py:6-63``); doc ``d`` owns tokens
    ``word_offsets[d]:word_offsets[d + 1]``, ``include`` (per doc) leaves
    docs out of the pass (they get no lines).

    Two regimes per doc, chosen exactly as the reference does:

    * if ANY token of the doc carries a line id (``has_lid``): group by
      ``(page, line_id or "inferred_<page>_<int(yc)>")`` (``lines.py:14-26``);
    * else: sort by ``(page, y1 + y2, x1)`` and sweep
      (:func:`_sweep_line_codes`); a page change always closes the line.

    Each line's members are x1-sorted (stable); lines are sorted by
    ``(page, y1, x1)``, ties in creation order (``lines.py:25,62``).
    """
    n_docs = len(word_offsets) - 1
    doc = np.repeat(np.arange(n_docs), np.diff(word_offsets))
    lid_doc = np.bincount(doc[has_lid], minlength=n_docs) > 0
    keep = np.ones(len(toks), dtype=bool) if include is None else include[doc]
    line_of = np.empty(len(toks), dtype=np.int64)
    pos = np.empty(len(toks), dtype=np.int64)    # member order within a line, before x1

    sweep = np.flatnonzero(keep & ~lid_doc[doc])
    ysum = toks.y1[sweep] + toks.y2[sweep]
    sweep = sweep[np.lexsort((toks.x1[sweep], ysum, toks.page[sweep], doc[sweep]))]
    codes = _sweep_line_codes(doc[sweep].tolist(), toks.page[sweep].tolist(),
                              toks.y1[sweep].tolist(), toks.y2[sweep].tolist())
    line_of[sweep] = codes
    pos[sweep] = np.arange(sweep.size)
    n_lines = codes[-1] + 1 if codes else 0

    grouped = np.flatnonzero(keep & lid_doc[doc])
    keys: dict = {}
    line_of[grouped] = [
        keys.setdefault((d, p, lid or f"inferred_{p}_{(a + b) // 2}"), len(keys))
        for d, p, lid, a, b in zip(doc[grouped].tolist(), toks.page[grouped].tolist(),
                                   toks.line_id[grouped].tolist() if grouped.size else [],
                                   toks.y1[grouped].tolist(), toks.y2[grouped].tolist())
    ]
    line_of[grouped] += n_lines
    pos[grouped] = grouped
    n_lines += len(keys)

    tok = np.flatnonzero(keep)
    tok_line = line_of[tok]
    if n_lines == 0:
        empty = np.zeros(0, dtype=np.int64)
        return LineBatch(np.zeros(n_docs + 1, dtype=np.int64), empty, empty, empty, empty,
                         empty, np.zeros(1, dtype=np.int64), empty)
    counts = np.bincount(tok_line, minlength=n_lines)
    by_line = tok[np.argsort(tok_line, kind="stable")]
    first = np.concatenate(([0], np.cumsum(counts)[:-1]))
    lx1 = np.minimum.reduceat(toks.x1[by_line], first)
    ly1 = np.minimum.reduceat(toks.y1[by_line], first)
    lx2 = np.maximum.reduceat(toks.x2[by_line], first)
    ly2 = np.maximum.reduceat(toks.y2[by_line], first)
    ldoc = doc[by_line[first]]
    lpage = toks.page[by_line[first]]

    order = np.lexsort((lx1, ly1, lpage, ldoc))   # stable: ties keep creation order
    rank = np.empty(n_lines, dtype=np.int64)
    rank[order] = np.arange(n_lines)
    members = tok[np.lexsort((pos[tok], toks.x1[tok], rank[tok_line]))]
    return LineBatch(
        doc_lines=np.concatenate(([0], np.cumsum(np.bincount(ldoc, minlength=n_docs)))),
        page=lpage[order], x1=lx1[order], y1=ly1[order], x2=lx2[order], y2=ly2[order],
        starts=np.concatenate(([0], np.cumsum(counts[order]))),
        members=members,
    )


def doc_line_batch(toks: TokenSOA) -> LineBatch:
    """One document's :func:`build_lines_batch`."""
    n = len(toks)
    has_lid = (np.array([bool(v) for v in toks.line_id], dtype=bool)
               if toks.line_id is not None else np.zeros(n, dtype=bool))
    return build_lines_batch(np.array([0, n], dtype=np.int64), toks, has_lid)


def build_lines(toks: TokenSOA) -> List[Line]:
    """One document's visual lines: :func:`build_lines_batch` over a
    one-doc batch."""
    return doc_line_batch(toks).per_doc(np.zeros(1, dtype=np.int64))[0]


def valley_cuts_batch(seg: np.ndarray, starts: np.ndarray, ends: np.ndarray, lo: np.ndarray,
                      hi: np.ndarray, min_gap: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`valley_cuts` of many segments at once: segment ``s`` profiles
    the intervals ``[starts, ends)`` of its points (``seg == s``) over
    ``[lo[s], hi[s])``. One difference array over the concatenated ranges
    (each segment's deltas sum to zero and lie at or before its end, so
    none leaks into the next), one cumsum, one zero-run scan. Returns
    ``(has_zero, cut_seg, cut)``: ``has_zero[s]`` is False where
    :func:`valley_cuts` returns ``None``; cuts flat, segment-major."""
    lo, hi = np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64)
    size = np.maximum(hi - lo, 0)
    base = np.concatenate(([0], np.cumsum(size)))
    total = int(base[-1])
    b, s = base[:-1][seg], size[seg]
    diff = (np.bincount(b + np.clip(np.asarray(starts, dtype=np.int64) - lo[seg], 0, s),
                        minlength=total + 1)
            - np.bincount(b + np.clip(np.asarray(ends, dtype=np.int64) - lo[seg], 0, s),
                          minlength=total + 1))
    zeros = np.flatnonzero(np.cumsum(diff[:-1]) == 0)
    zseg = np.searchsorted(base, zeros, side="right") - 1
    brk = np.ones(len(zeros), dtype=bool)
    brk[1:] = (np.diff(zeros) != 1) | (zseg[1:] != zseg[:-1])
    first = np.flatnonzero(brk)
    last = np.append(first[1:], len(zeros)) - 1
    long = last - first + 1 > min_gap
    first, last = first[long], last[long]
    cut_seg = zseg[first]
    # mean of a consecutive integer run == midpoint, truncated
    cut = lo[cut_seg] + (zeros[first] + zeros[last] - 2 * base[cut_seg]) // 2
    return np.bincount(zseg, minlength=len(lo)) > 0, cut_seg, cut


def valley_cuts(starts: np.ndarray, ends: np.ndarray, lo: int, hi: int, min_gap_len: int
                ) -> Optional[List[int]]:
    """Zero-coverage valleys of the 1-D projection profile over ``[lo, hi)``.

    Returns the midpoints of every zero-run strictly longer than
    ``min_gap_len`` pixels, or ``None`` when the profile has no zero at
    all (the reference's "no gaps" branch — also taken when the profile
    is empty, i.e. ``hi <= lo``). One segment of :func:`valley_cuts_batch`.
    """
    has_zero, _, cut = valley_cuts_batch(np.zeros(len(starts), dtype=np.int64), starts, ends,
                                         [int(lo)], [int(hi)], min_gap_len)
    return cut.tolist() if has_zero[0] else None


def cut_intervals(lo: int, hi: int, mids: Sequence[int], min_size: int
                  ) -> List[Tuple[int, int]]:
    """The intervals between consecutive distinct cuts ``lo``, ``mids``,
    ``hi``, kept when strictly wider than ``min_size``."""
    cuts = sorted({lo, hi, *mids})
    return [(a, b) for a, b in zip(cuts, cuts[1:]) if b - a > min_size]


def profile_intervals_batch(seg: np.ndarray, starts: np.ndarray, ends: np.ndarray, n_seg: int,
                            min_gap: int, min_size: int, guard: bool = False
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Projection profile → intervals of every segment at once: over
    ``[min starts, max ends)`` of a segment's points (``seg``, sorted),
    valleys longer than ``min_gap`` cut (:func:`valley_cuts_batch`), the
    intervals between distinct cuts wider than ``min_size`` stay
    (:func:`cut_intervals`), and a segment without a valley gets its full
    extent. ``guard`` is the model paths' rule: every point covers >= 1
    px, and a segment left without intervals also gets its full extent.

    Returns ``(lo, hi, count, valley)``: intervals padded to
    ``(n_seg, widest)``, and whether the segment's profile had a zero.
    A segment without points gets no interval.
    """
    n_pts = np.bincount(seg, minlength=n_seg)
    has = n_pts > 0
    first = (np.cumsum(n_pts) - n_pts)[has]
    lo = np.zeros(n_seg, dtype=np.int64)
    hi = np.zeros(n_seg, dtype=np.int64)
    if len(first):
        lo[has] = np.minimum.reduceat(starts, first)
        hi[has] = np.maximum.reduceat(ends, first)
    cover = np.maximum(ends, starts + 1) if guard else ends
    valley, cut_seg, cut = valley_cuts_batch(seg, starts, cover, lo, hi, min_gap)
    # cuts: lo, the valley midpoints and hi of each segment with a valley
    vs = np.flatnonzero(valley)
    cseg = np.concatenate((vs, cut_seg, vs))
    val = np.concatenate((lo[vs], cut, hi[vs]))
    order = np.lexsort((val, cseg))
    cseg, val = cseg[order], val[order]
    new = np.ones(len(cseg), dtype=bool)
    new[1:] = (cseg[1:] != cseg[:-1]) | (val[1:] != val[:-1])
    cseg, val = cseg[new], val[new]
    pair = np.flatnonzero((cseg[1:] == cseg[:-1]) & (val[1:] - val[:-1] > min_size))
    count = np.bincount(cseg[pair], minlength=n_seg)
    full = np.flatnonzero(has & (~valley | (guard & (count == 0))))
    count[full] = 1
    iseg = np.concatenate((cseg[pair], full))
    order = np.argsort(iseg, kind="stable")
    rank = np.arange(len(iseg)) - (np.cumsum(count) - count)[iseg[order]]
    out = np.zeros((2, n_seg, int(count.max(initial=0))), dtype=np.int64)
    out[:, iseg[order], rank] = np.concatenate(([val[pair], val[pair + 1]],
                                                [lo[full], hi[full]]), axis=1)[:, order]
    return out[0], out[1], count, valley


def profile_intervals(starts: np.ndarray, ends: np.ndarray, min_gap: int, min_size: int
                      ) -> List[Tuple[int, int]]:
    """Projection profile → intervals of the model paths
    (``dataset_builder.py:49-80`` ≡ ``layout_transformers.py:228-255,313-338``):
    one segment of :func:`profile_intervals_batch` with its guard."""
    lo, hi, count, _ = profile_intervals_batch(
        np.zeros(len(starts), dtype=np.int64), np.asarray(starts, dtype=np.int64),
        np.asarray(ends, dtype=np.int64), 1, min_gap, min_size, guard=True)
    return list(zip(lo[0, :count[0]].tolist(), hi[0, :count[0]].tolist()))


def locate(points, intervals: Sequence[Tuple[int, int]], closed: str = "both",
           fallback: Optional[str] = "boundary") -> np.ndarray:
    """Index of the first interval that holds each point, as int64.

    ``closed="both"`` holds ``lo <= p <= hi``, ``"left"`` holds
    ``lo <= p < hi``. A point in no interval goes to the first interval
    with the nearest boundary (``fallback="boundary"``) or the nearest
    centre (``"centre"``); with ``fallback=None``, or when there are no
    intervals, it gets -1. The module docstring lists the arguments of
    every call site.
    """
    p = np.asarray(points, dtype=np.float64)
    if not len(intervals):
        return np.full(p.shape, -1, dtype=np.int64)
    lo, hi = np.asarray(intervals, dtype=np.float64).T
    return _locate(p[:, None], lo, hi, closed, fallback)


def locate_grouped(points, group: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                   count: np.ndarray, closed: str = "both",
                   fallback: Optional[str] = "boundary") -> np.ndarray:
    """:func:`locate` for points of many groups at once: point ``i`` looks
    only at the first ``count[g]`` intervals ``(lo[g, j], hi[g, j])`` of its
    group ``g = group[i]`` (rows of ``lo``/``hi`` are padded past ``count``);
    -1 for a group without intervals. The mask is points × the widest
    group."""
    p = np.asarray(points, dtype=np.float64)
    width = np.shape(lo)[1]
    if width == 0:
        return np.full(p.shape, -1, dtype=np.int64)
    n = np.asarray(count)[group]
    pad = np.arange(width) >= n[:, None]
    res = _locate(p[:, None], np.asarray(lo, dtype=np.float64)[group],
                  np.asarray(hi, dtype=np.float64)[group], closed, fallback,
                  pad if pad.any() else None)
    res[n == 0] = -1
    return res


def _locate(p: np.ndarray, lo: np.ndarray, hi: np.ndarray, closed: str,
            fallback: Optional[str], pad: Optional[np.ndarray] = None) -> np.ndarray:
    """The one rule of :func:`locate` on points ``p`` (a column) against
    intervals ``lo``/``hi`` that broadcast to points × intervals; ``pad``
    masks intervals out."""
    d_lo, d_hi = p - lo, p - hi
    out = (d_lo < 0) | ((d_hi >= 0) if closed == "left" else (d_hi > 0))
    if pad is not None:
        out |= pad
    if fallback is None:
        return np.where(out.all(axis=1), -1, out.argmin(axis=1))
    dist = (np.abs(p - (lo + hi) / 2.0) if fallback == "centre"
            else np.minimum(np.abs(d_lo), np.abs(d_hi)))
    if pad is not None:
        dist[pad] = np.inf
    # a held point scores -1, below every distance: argmin's first-minimum
    # rule picks the first holding interval, else the first nearest one
    return np.where(out, dist, -1.0).argmin(axis=1)


def column_intervals_batch(seg: np.ndarray, x1: np.ndarray, x2: np.ndarray, n_seg: int,
                           min_col_width: int = 25, col_valley_px: int = 5,
                           expected_n_cols: Optional[int] = None
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column intervals from the vertical projection profile of every
    segment's non-empty tokens at once (reference ``columns.py:5-72``):
    :func:`profile_intervals_batch` with valleys longer than
    ``col_valley_px`` and intervals at least ``min_col_width`` wide. An
    ``expected_n_cols`` target merges the closest pair / splits the
    widest interval of each segment with a valley whose count is off
    (``columns.py:51-70``). Returns ``(lo, hi, count)``, padded."""
    lo, hi, count, valley = profile_intervals_batch(seg, x1, x2, n_seg, col_valley_px,
                                                    min_col_width - 1)
    n = expected_n_cols or 0
    off = np.flatnonzero(valley & (count != n) & (count > 0)) if n > 0 else []
    if len(off):
        lo, hi = (np.pad(a, ((0, 0), (0, max(a.shape[1], n) - a.shape[1]))) for a in (lo, hi))
    for d in off:
        iv = list(zip(lo[d, :count[d]].tolist(), hi[d, :count[d]].tolist()))
        while len(iv) > n:
            j = int(np.argmin([iv[i + 1][0] - iv[i][1] for i in range(len(iv) - 1)]))
            iv = iv[:j] + [(iv[j][0], iv[j + 1][1])] + iv[j + 2:]
        while len(iv) < n:
            j = int(np.argmax([r - l for l, r in iv]))
            (l, r), mid = iv[j], iv[j][0] + (iv[j][1] - iv[j][0]) // 2
            iv = iv[:j] + [(l, mid), (mid, r)] + iv[j + 1:]
        lo[d, :n], hi[d, :n] = zip(*iv)
        count[d] = n
    return lo, hi, count


def estimate_columns(lines: Sequence[Line], toks: TokenSOA, min_col_width: int = 25,
                     col_valley_px: int = 5, expected_n_cols: Optional[int] = None
                     ) -> List[Tuple[int, int]]:
    """One doc's :func:`column_intervals_batch` over its lines' tokens."""
    idx = np.concatenate([ln.idx for ln in lines]) if lines else np.zeros(0, dtype=np.int64)
    idx = idx[toks.text[idx] != ""]
    lo, hi, count = column_intervals_batch(np.zeros(idx.size, dtype=np.int64), toks.x1[idx],
                                           toks.x2[idx], 1, min_col_width, col_valley_px,
                                           expected_n_cols)
    return list(zip(lo[0, :count[0]].tolist(), hi[0, :count[0]].tolist()))


def fast_percentile(values: np.ndarray, starts: np.ndarray, q: float) -> np.ndarray:
    """Bit-exact ``np.percentile(values[starts[k]:starts[k + 1]], q)``
    (default 'linear' method) of every segment ``k`` at once, in float64;
    0.0 for an empty segment.

    Sorts within segments, then replicates numpy's lerp exactly, including
    the ``t >= 0.5`` branch that computes from the right endpoint (numpy
    ``_lerp``), so callers' ``int()`` truncation sees identical values.
    """
    starts = np.asarray(starts, dtype=np.int64)
    n = np.diff(starts)
    seg = np.repeat(np.arange(len(n)), n)
    vals = np.asarray(values, dtype=np.float64)
    vals = vals[np.lexsort((vals, seg))]
    out = np.zeros(len(n), dtype=np.float64)
    has = n > 0
    n, first = n[has], starts[:-1][has]
    vi = (q / 100.0) * (n - 1)
    lo = vi.astype(np.int64)
    t = vi - lo
    x = vals[first + lo]
    y = vals[first + np.minimum(lo + 1, n - 1)]
    d = y - x
    out[has] = np.where(t == 0.0, x, np.where(t < 0.5, x + d * t, y - d * (1.0 - t)))
    return out


def adaptive_gaps(x1: np.ndarray, x2: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-line adaptive span gap for x1-sorted lines (line ``k`` owns
    positions ``starts[k]:starts[k + 1]``): the 95th percentile of the
    line's positive inter-token gaps, floored at 12, default 18 when it
    has none (reference ``column_model.py:18-27`` ≡ ``assign_dynamic.py:12-19``).
    One vectorized pass: the positive gaps of every line, then
    :func:`fast_percentile` of every line at once.
    """
    n_lines = len(starts) - 1
    line = np.repeat(np.arange(n_lines), np.diff(starts))
    gaps = x1[1:] - x2[:-1]
    ok = (line[1:] == line[:-1]) & (gaps > 0)
    n_g = np.bincount(line[1:][ok], minlength=n_lines)
    pctl = fast_percentile(gaps[ok], np.concatenate(([0], np.cumsum(n_g))), 95.0)
    return np.where(n_g > 0, np.maximum(12, pctl.astype(np.int64)), 18)


def merge_spans(x1: np.ndarray, x2: np.ndarray, text: np.ndarray, starts: np.ndarray,
                max_gap: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[str]]:
    """Merge the x-adjacent tokens of every x1-sorted line into spans while
    the gap to the span's running right edge is <= the line's ``max_gap``
    (the reference's thrice-duplicated ``_merge_adjacent`` —
    ``column_model.py:29-45``, ``assign_dynamic.py:21-36``,
    ``assign_financial.py:20-39`` — fused).

    Returns ``(span_starts, x1, x2, text)``: line ``k`` owns spans
    ``span_starts[k]:span_starts[k + 1]``; a span's text is its tokens
    joined with a space, stripped.

    Vectorized over the whole batch: since x1 is sorted within a line, the
    span's running right edge can be replaced by the line's running max of
    x2 in the break test. At a break, x1 exceeds that max by more than the
    gap, and so does every later x1 of the line; so a later token breaks
    against the line's max iff it breaks against its own span's, even when
    a token has ``x2 < x1``.
    """
    n, n_lines = len(x1), len(starts) - 1
    line = np.repeat(np.arange(n_lines), np.diff(starts))
    vals, rank = np.unique(x2, return_inverse=True)
    base = line * len(vals)
    run = vals[np.maximum.accumulate(base + rank) - base]      # running max of x2 per line
    brk = np.ones(n, dtype=bool)
    brk[1:] = (line[1:] != line[:-1]) | (x1[1:] - run[:-1] > np.asarray(max_gap)[line[1:]])
    first = np.flatnonzero(brk)
    span_x2 = np.maximum.reduceat(x2, first) if n else x2
    words = text.tolist()
    bounds = first.tolist() + [n]
    joined = [" ".join(words[a:b]).strip() for a, b in zip(bounds, bounds[1:])]
    span_starts = np.concatenate(([0], np.cumsum(np.bincount(line[first], minlength=n_lines))))
    return span_starts, x1[first], span_x2, joined


def gather_lines(lines: Sequence[Line], toks: TokenSOA
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(x1, x2, text, starts)`` of one doc's lines, line-major."""
    idx = np.concatenate([ln.idx for ln in lines]) if lines else np.zeros(0, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum([ln.idx.size for ln in lines], dtype=np.int64)))
    return toks.x1[idx], toks.x2[idx], toks.text[idx], starts


def join_runs(keys: Sequence[np.ndarray], words: np.ndarray, join=" ".join
              ) -> Tuple[List[np.ndarray], np.ndarray]:
    """Per run of consecutive equal ``keys`` (read across all the key
    arrays), the run's keys and ``join`` of its ``words`` (an object
    array)."""
    new = np.arange(len(words)) == 0
    for k in keys:
        new[1:] |= k[1:] != k[:-1]
    first = np.flatnonzero(new)
    w, bounds = words.tolist(), first.tolist() + [len(words)]
    out = np.empty(len(first), dtype=object)
    out[:] = [join(w[a:b]) for a, b in zip(bounds, bounds[1:])]
    return [k[first] for k in keys], out


def group_by_line(span_starts: np.ndarray, *cols) -> List[List[tuple]]:
    """Per line, the list of its span tuples ``zip(*cols)``."""
    rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in cols)))
    bounds = span_starts.tolist()
    return [rows[a:b] for a, b in zip(bounds, bounds[1:])]


def line_span_arrays(spans_per_line: Sequence[Sequence[Tuple[int, int, str, bool]]]
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(span_starts, x1, x2, text, is_num)`` of one doc's per-line span
    tuples, as :func:`dynamic_spans` returns them (the inverse of
    :func:`group_by_line`)."""
    flat = [s for spans in spans_per_line for s in spans]
    texts = np.empty(len(flat), dtype=object)
    texts[:] = [s[2] for s in flat]
    return (np.concatenate(([0], np.cumsum([len(s) for s in spans_per_line], dtype=np.int64))),
            np.array([s[0] for s in flat], dtype=np.int64),
            np.array([s[1] for s in flat], dtype=np.int64), texts,
            np.array([bool(s[3]) for s in flat], dtype=bool))


def line_spans(lines: Sequence[Line], toks: TokenSOA, max_gap_px: int
               ) -> List[List[Tuple[int, int, str]]]:
    """Per-line spans ``(x1, x2, text)`` of one doc with a fixed gap."""
    x1, x2, text, starts = gather_lines(lines, toks)
    span_starts, sx1, sx2, stext = merge_spans(
        x1, x2, text, starts, np.full(len(lines), max_gap_px, dtype=np.int64))
    return group_by_line(span_starts, sx1, sx2, stext)


def dynamic_spans(x1: np.ndarray, x2: np.ndarray, text: np.ndarray, starts: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Spans of the dynamic layout for x1-sorted lines of any number of
    docs: the per-line adaptive gap (:func:`adaptive_gaps`), one
    :func:`merge_spans` and one test of the numeric span grammar F1 over
    every span text. Returns ``(span_starts, x1, x2, text, is_num)`` with
    ``text`` an object array. The column model and the assigner share
    them (the reference recomputes the identical spans in both,
    ``column_model.py:110-117`` and ``assign_dynamic.py:50-55``).
    """
    span_starts, sx1, sx2, stext = merge_spans(x1, x2, text, starts,
                                               adaptive_gaps(x1, x2, starts))
    texts = np.empty(len(stext), dtype=object)
    texts[:] = stext
    return span_starts, sx1, sx2, texts, num_span_flags(stext)


def adaptive_line_spans(lines: Sequence[Line], toks: TokenSOA
                        ) -> List[List[Tuple[int, int, str, bool]]]:
    """One doc's :func:`dynamic_spans`, per line ``(x1, x2, text, is_num)``."""
    return group_by_line(*dynamic_spans(*gather_lines(lines, toks)))
