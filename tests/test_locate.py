"""Property test of ``geometry.locate`` against the per-point loops it
replaced.

The seven loops below are the engine's former interval lookups, kept here
as oracles; the two that were inline loops are lifted into functions. Each
is compared with the ``locate`` arguments its call site now passes, on
random interval sets (touching, overlapping, zero-width, inverted,
unsorted) and on points at every interval end, half a pixel either side of
it, and at integer centres.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import pytest

from ocr_table_extractor_to_csv_ray.core.geometry import cut_intervals, locate

# ---------------------------------------------------------------------------
# oracles: the former loops


def nearest_interval(xc, intervals):
    """geometry.nearest_interval (assign.py:17-24 / assign_dynamic.py:62-67)."""
    for i, (L, R) in enumerate(intervals):
        if L <= xc <= R:
            return i
    dists = [min(abs(xc - L), abs(xc - R)) for (L, R) in intervals]
    return int(np.argmin(dists))


def row_bucket(yc, row_intervals) -> Optional[int]:
    """The bucket loop of records.merge_lines_into_rows (rows.py:54-61)."""
    for i, (top, bot) in enumerate(row_intervals):
        if top <= yc < bot:
            return i
    return None


def pro_column(xc, intervals) -> Optional[int]:
    """The token loop of gridpro.professional_grid (grid_builder.py:134-142)."""
    for j, (L, R) in enumerate(intervals):
        if L <= xc < R:
            return j
    return None


def assign_lines_to_rows_db(ycs, intervals) -> List[int]:
    """databuild.assign_lines_to_rows_db (dataset_builder.py:83-105)."""
    if not intervals:
        return [0 for _ in ycs]
    tops = np.array([a for a, _ in intervals], dtype=np.float64)
    bots = np.array([b for _, b in intervals], dtype=np.float64)
    centers = (tops + bots) / 2.0
    out: List[int] = []
    for yc in ycs:
        inside = np.flatnonzero((tops <= yc) & (yc < bots))
        out.append(int(inside[0]) if inside.size else int(np.argmin(np.abs(centers - yc))))
    return out


def find_column_index_db(xc, intervals) -> Optional[int]:
    """databuild.find_column_index_db (dataset_builder.py:108-119)."""
    if not intervals:
        return None
    for i, (a, b) in enumerate(intervals):
        if a <= xc <= b:
            return i
    centers = [(a + b) / 2.0 for a, b in intervals]
    return int(np.argmin([abs(c - xc) for c in centers]))


def assign_columns_from_intervals(column, xc, intervals) -> np.ndarray:
    """transformers_layout.assign_columns_from_intervals
    (layout_transformers.py:291-310)."""
    if not intervals:
        return column
    centers = np.array([(a + b) / 2.0 for a, b in intervals])
    out = column.copy()
    for i in range(len(column)):
        c = out[i]
        if 0 <= c < len(intervals):
            continue
        idx = None
        for j, (a, b) in enumerate(intervals):
            if a <= xc[i] <= b:
                idx = j
                break
        if idx is None:
            idx = int(np.argmin(np.abs(centers - xc[i])))
        out[i] = idx
    return out


def assign_tokens_to_rows(yc, intervals) -> np.ndarray:
    """transformers_layout.assign_tokens_to_rows (layout_transformers.py:341-360)."""
    n = len(yc)
    if not intervals:
        return np.zeros(n, dtype=np.int64)
    tops = np.array([a for a, _ in intervals], dtype=np.float64)
    bots = np.array([b for _, b in intervals], dtype=np.float64)
    centers = (tops + bots) / 2.0
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        inside = np.flatnonzero((tops <= yc[i]) & (yc[i] < bots))
        out[i] = inside[0] if inside.size else int(np.argmin(np.abs(centers - yc[i])))
    return out


# ---------------------------------------------------------------------------
# inputs


def _intervals(rng) -> List[Tuple[int, int]]:
    """1-6 intervals on [0, 120], built to touch, overlap, repeat, shrink to
    zero width or invert, in shuffled order half of the time."""
    k = int(rng.integers(1, 7))
    a = np.sort(rng.integers(0, 100, k))
    w = rng.integers(0, 30, k)
    ivs = [(int(x), int(x + dw)) for x, dw in zip(a, w)]
    for i in range(k):
        r = rng.random()
        if r < 0.15 and i + 1 < k:          # touching the next one
            ivs[i] = (ivs[i][0], ivs[i + 1][0])
        elif r < 0.25:                      # zero width
            ivs[i] = (ivs[i][0], ivs[i][0])
        elif r < 0.35:                      # inverted
            ivs[i] = (ivs[i][1] + 1, ivs[i][0])
        elif r < 0.45 and i:                # a repeat of the previous one
            ivs[i] = ivs[i - 1]
    if rng.random() < 0.5:
        ivs = [ivs[j] for j in rng.permutation(k)]
    return ivs


def _points(ivs, rng) -> np.ndarray:
    """Every end, ±0.5 around it, the integer and float centres and a few
    random points."""
    ends = np.array([e for iv in ivs for e in iv], dtype=np.float64)
    centres = [(a + b) // 2 for a, b in ivs] + [(a + b) / 2.0 for a, b in ivs]
    return np.concatenate([ends, ends - 0.5, ends + 0.5, centres,
                           rng.uniform(-20, 150, 6), np.round(rng.uniform(-20, 150, 6))])


CASES = 3000


def _cases():
    rng = np.random.default_rng(20240611)
    for _ in range(CASES):
        ivs = _intervals(rng)
        yield ivs, _points(ivs, rng)


# ---------------------------------------------------------------------------
# tests


def test_both_boundary_matches_nearest_interval():
    for ivs, pts in _cases():
        got = locate(pts, ivs, closed="both", fallback="boundary").tolist()
        assert got == [nearest_interval(x, ivs) for x in pts], ivs


def test_left_none_matches_row_and_pro_buckets():
    for ivs, pts in _cases():
        got = locate(pts, ivs, closed="left", fallback=None).tolist()
        want = [row_bucket(y, ivs) for y in pts]
        assert got == [-1 if w is None else w for w in want], ivs
        assert want == [pro_column(x, ivs) for x in pts], ivs


def test_left_centre_matches_row_fallbacks():
    for ivs, pts in _cases():
        got = locate(pts, ivs, closed="left", fallback="centre").tolist()
        assert got == assign_lines_to_rows_db(pts, ivs), ivs
        assert got == assign_tokens_to_rows(pts, ivs).tolist(), ivs


def test_both_centre_matches_column_fallbacks():
    rng = np.random.default_rng(7)
    for ivs, pts in _cases():
        got = locate(pts, ivs, closed="both", fallback="centre")
        assert got.tolist() == [find_column_index_db(x, ivs) for x in pts], ivs
        # a valid model column is kept, others go through locate
        model = rng.integers(-2, len(ivs) + 2, len(pts))
        bad = (model < 0) | (model >= len(ivs))
        kept = np.where(bad, got, model)
        assert kept.tolist() == assign_columns_from_intervals(model, pts, ivs).tolist(), ivs


@pytest.mark.parametrize("closed", ["both", "left"])
@pytest.mark.parametrize("fallback", ["boundary", "centre", None])
def test_no_intervals_or_no_points(closed, fallback):
    got = locate(np.array([0.0, 3.5, -1.0]), [], closed=closed, fallback=fallback)
    assert got.dtype == np.int64 and got.tolist() == [-1, -1, -1]
    got = locate([], [(0, 5), (5, 9)], closed=closed, fallback=fallback)
    assert got.dtype == np.int64 and got.tolist() == []


def test_cut_intervals_matches_sorted_set_filters():
    rng = np.random.default_rng(3)
    for _ in range(2000):
        lo, hi = sorted(int(v) for v in rng.integers(0, 200, 2))
        mids = [int(v) for v in rng.integers(lo, hi + 1, int(rng.integers(0, 6)))]
        w = int(rng.integers(0, 30))
        cuts = sorted(set([lo] + mids + [hi]))
        pairs = list(zip(cuts, cuts[1:]))
        assert cut_intervals(lo, hi, mids, w - 1) == [(a, b) for a, b in pairs if b - a >= w]
        assert cut_intervals(lo, hi, mids, w) == [(a, b) for a, b in pairs if b - a > w]
