"""The whole-batch generic kernel against the per-document code it replaced.

The generic layout (``layouts.generic_grids``), the teacher labels
(``databuild.teacher_batch``, run by ``build_example`` and
``LayoutScorerStage``) and the transformers primary compose
(``model.transformers_grids``) share one set of batch passes: the
segmented projection profile (``geometry.valley_cuts_batch``,
``profile_intervals_batch``, ``column_intervals_batch``), token → column
cells (``assigners.column_cells``) and the row merge
(``records.merge_lines_batch``). The per-document bodies they replaced
live on here as the oracles (reference ``columns.py:5-72``,
``assign.py:5-28``, ``rows.py:8-80``, ``dataset_builder.py:49-265``,
``layout_transformers.py:502-565``), and random batches compare the two.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pyarrow as pa
import pytest

from ocr_table_extractor_to_csv_ray.config import LayoutConfig
from ocr_table_extractor_to_csv_ray.core.assigners import assign_words_to_columns
from ocr_table_extractor_to_csv_ray.core.cleaners import process_grid_data
from ocr_table_extractor_to_csv_ray.core.databuild import build_example
from ocr_table_extractor_to_csv_ray.core.doc import TokenSOA
from ocr_table_extractor_to_csv_ray.core.geometry import (
    build_lines, column_intervals_batch, cut_intervals, estimate_columns, locate,
    profile_intervals, profile_intervals_batch, valley_cuts, valley_cuts_batch,
)
from ocr_table_extractor_to_csv_ray.core.gridpro import professional_grid
from ocr_table_extractor_to_csv_ray.core.layouts import DocResult
from ocr_table_extractor_to_csv_ray.core.records import (
    Record, detect_header_row, merge_lines_into_rows,
)
from ocr_table_extractor_to_csv_ray.core.transformers_layout import Predictions, compose_table
from ocr_table_extractor_to_csv_ray.stages.extract import extract_batch
from ocr_table_extractor_to_csv_ray.stages.model import (
    LayoutScorerStage, TransformersExtractStage,
)
from tests.test_dynamic_kernel import (
    oracle_grid_to_spans, random_doc, table_of, toks_of, tuples,
)

HEADER_RX = ("concepto", "saldo", r"\b(19|20)\d{2}\b", "caja")

# ---------------------------------------------------------------------------
# oracles: the per-document bodies


def oracle_valley_cuts(starts, ends, lo, hi, min_gap_len):
    size = int(hi) - int(lo)
    if size <= 0:
        return None
    diff = np.zeros(size + 1, dtype=np.int64)
    np.add.at(diff, np.clip(np.asarray(starts, dtype=np.int64) - lo, 0, size), 1)
    np.add.at(diff, np.clip(np.asarray(ends, dtype=np.int64) - lo, 0, size), -1)
    profile = np.cumsum(diff[:-1])
    zeros = np.flatnonzero(profile == 0)
    if zeros.size == 0:
        return None
    breaks = np.flatnonzero(np.diff(zeros) != 1)
    run_first = np.concatenate(([0], breaks + 1))
    run_last = np.concatenate((breaks, [zeros.size - 1]))
    return [int(lo) + (int(zeros[a]) + int(zeros[b])) // 2
            for a, b in zip(run_first, run_last) if (b - a + 1) > min_gap_len]


def oracle_profile_intervals(starts, ends, min_gap, min_size):
    lo, hi = int(starts.min()), int(ends.max())
    mids = oracle_valley_cuts(starts, np.maximum(ends, starts + 1), lo, hi, min_gap)
    if mids is None:
        return [(lo, hi)]
    return cut_intervals(lo, hi, mids, min_size) or [(lo, hi)]


def oracle_estimate_columns(lines, toks, min_col_width=25, col_valley_px=5,
                            expected_n_cols=None):
    if not lines:
        return []
    idx = np.concatenate([ln.idx for ln in lines])
    idx = idx[toks.text[idx] != ""]
    if idx.size == 0:
        return []
    x1, x2 = toks.x1[idx], toks.x2[idx]
    x_min, x_max = int(x1.min()), int(x2.max())
    mids = oracle_valley_cuts(x1, x2, x_min, x_max, col_valley_px)
    if mids is None:
        return [(x_min, x_max)]
    intervals = cut_intervals(x_min, x_max, mids, min_col_width - 1)
    if expected_n_cols and expected_n_cols > 0 and len(intervals) != expected_n_cols:
        while len(intervals) > expected_n_cols:
            dists = [intervals[i + 1][0] - intervals[i][1] for i in range(len(intervals) - 1)]
            if not dists:
                break
            j = int(np.argmin(dists))
            intervals = intervals[:j] + [(intervals[j][0], intervals[j + 1][1])] + intervals[j + 2:]
        while len(intervals) < expected_n_cols:
            widths = [r - l for l, r in intervals]
            if not widths:
                break
            j = int(np.argmax(widths))
            l, r = intervals[j]
            mid = l + widths[j] // 2
            intervals = intervals[:j] + [(l, mid), (mid, r)] + intervals[j + 1:]
    return intervals


def oracle_assign_words(lines, toks, columns):
    if not columns or not lines:
        return []
    idx = np.concatenate([ln.idx for ln in lines])
    line_of = np.repeat(np.arange(len(lines)), [ln.idx.size for ln in lines])
    col = locate((toks.x1[idx] + toks.x2[idx]) / 2.0, columns, closed="both",
                 fallback="boundary")
    cells = [[[] for _ in columns] for _ in lines]
    for r, j, word in zip(line_of.tolist(), col.tolist(), toks.text[idx].tolist()):
        cells[r][j].append(word)
    return [Record(page=ln.page, y_top=ln.y1, y_bot=ln.y2,
                   cells=[" ".join(c).strip() for c in row])
            for ln, row in zip(lines, cells)]


def _join_cells(a, b):
    return " ".join([a, b]).strip() if a and b else (a or b)


def oracle_merge_lines(records, lines, toks, row_valley_px=2, row_min_height=5):
    if not records:
        return []
    idx = np.concatenate([ln.idx for ln in lines]) if lines else np.array([], dtype=np.int64)
    if idx.size:
        idx = idx[toks.text[idx] != ""]
    if idx.size == 0:
        return [list(r.cells) for r in records]
    y1, y2 = toks.y1[idx], toks.y2[idx]
    y_min, y_max = int(y1.min()), int(y2.max())
    mids = oracle_valley_cuts(y1, y2, y_min, y_max, row_valley_px)
    if mids is None:
        final_row = ["" for _ in records[0].cells]
        for r in records:
            final_row = [_join_cells(a, b) for a, b in zip(final_row, r.cells)]
        return [final_row]
    row_intervals = cut_intervals(y_min, y_max, mids, row_min_height)
    row_of = locate([(r.y_top + r.y_bot) / 2 for r in records], row_intervals,
                    closed="left", fallback=None)
    buckets = [[] for _ in row_intervals]
    for r, i in zip(records, row_of.tolist()):
        if i >= 0:
            buckets[i].append(list(r.cells))
    final_rows = []
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


def oracle_generic(toks, cfg):
    """``(header, rows)`` of the generic layout on one doc."""
    if len(toks) == 0:
        return [], []
    lines = build_lines(toks)
    intervals = oracle_estimate_columns(lines, toks, cfg.min_col_width, cfg.col_valley_px,
                                        cfg.expected_n_cols)
    records = oracle_assign_words(lines, toks, intervals)
    rows = oracle_merge_lines(records, lines, toks, cfg.row_valley_px, cfg.row_min_height)
    header, body = detect_header_row(
        rows, list(cfg.header_regexes) if cfg.header_regexes else None)
    return header or [], body


def oracle_build_example(doc_id, toks, expected_n_cols=None, header_regexes=None,
                         max_columns=6):
    """The fields of ``build_example`` (boxes aside), or ``None``."""
    if len(toks) == 0:
        return None
    lines = build_lines(toks)
    if not lines:
        return None
    col_intervals = oracle_estimate_columns(lines, toks, expected_n_cols=expected_n_cols)
    if not col_intervals:
        return None
    idx = np.concatenate([ln.idx for ln in lines])
    full = idx[toks.text[idx] != ""]
    row_intervals = (oracle_profile_intervals(toks.y1[full], toks.y2[full], 2, 5)
                     if full.size else [])
    line_to_row = np.maximum(locate([(ln.y1 + ln.y2) / 2.0 for ln in lines], row_intervals,
                                    closed="left", fallback="centre"), 0)
    tok_row = np.repeat(line_to_row, [ln.idx.size for ln in lines]).tolist()
    tok_col = locate(toks.xc[idx], col_intervals, closed="both", fallback="centre").tolist()
    words = toks.text[idx].tolist()
    cells = [[[] for _ in col_intervals] for _ in range(int(line_to_row.max()) + 1)]
    for r, c, word in zip(tok_row, tok_col, words):
        cells[r][c].append(word)
    grid_rows = [[" ".join(filter(None, c)).strip() for c in row] for row in cells]
    header_row, body_rows = detect_header_row(
        grid_rows, header_regexes=list(header_regexes) if header_regexes else None)
    header_idx = grid_rows.index(header_row) if header_row else None
    is_hdr = [r == header_idx for r in tok_row]
    labels = ["OTHER" if c >= max_columns else f"{'HEADER' if h else 'BODY'}_COL_{c}"
              for c, h in zip(tok_col, is_hdr)]
    return dict(doc_id=doc_id, words=words, labels=labels, row_ids=tok_row, col_ids=tok_col,
                is_header=is_hdr, table_header=header_row or [], table_rows=body_rows,
                n_rows=len(body_rows), n_cols=len(col_intervals), token_order=idx.tolist())


def oracle_teacher_labels(toks, max_columns=6):
    ex = oracle_build_example("d", toks, max_columns=max_columns)
    labels = ["OTHER"] * len(toks)
    if ex is not None:
        for ti, lab in zip(ex["token_order"], ex["labels"]):
            labels[ti] = lab
    return labels


def oracle_transformers(toks, labels, cfg):
    """``(header, rows)`` of the 3-level fallback chain on one doc."""
    if len(toks) == 0:
        return [], []
    target_cols = cfg.expected_n_cols or cfg.max_model_columns
    flat = TokenSOA(text=toks.text, page=np.ones(len(toks), dtype=np.int64),
                    x1=toks.x1, y1=toks.y1, x2=toks.x2, y2=toks.y2, line_id=None)
    lines = build_lines(flat)
    if lines:
        intervals = oracle_estimate_columns(lines, flat, expected_n_cols=target_cols)
        if intervals:
            merged = oracle_merge_lines(oracle_assign_words(lines, flat, intervals), lines, flat)
            if merged:
                header_row, body = detect_header_row(
                    merged, list(cfg.header_regexes) if cfg.header_regexes else None)
                return header_row or [], process_grid_data(body)
    header, rows = compose_table(Predictions.from_labels(flat, labels),
                                 max_columns=target_cols or cfg.max_model_columns)
    if rows:
        return header, process_grid_data(rows)
    header, body = professional_grid(flat)
    return header, process_grid_data(body)


# ---------------------------------------------------------------------------
# the segmented projection profile


def random_segments(rng):
    """Per segment ``(starts, ends, lo, hi)``: empty ranges, one-token
    segments, segments without a zero, zero runs at both edges, inverted
    tokens and segments without points."""
    segs = []
    for _ in range(int(rng.integers(1, 12))):
        kind = int(rng.integers(0, 7))
        n = 1 if kind == 1 else int(rng.integers(0 if kind == 6 else 1, 12))
        s = rng.integers(0, 120, n)
        e = s + rng.integers(-3 if kind == 4 else 0, 25, n)
        lo = int(s.min(initial=0)) - (int(rng.integers(0, 6)) if kind == 3 else 0)
        hi = int(e.max(initial=0)) + (int(rng.integers(0, 6)) if kind == 3 else 0)
        if kind == 0:
            hi = lo - int(rng.integers(0, 3))          # empty range
        if kind == 2:
            s, e = np.array([lo]), np.array([hi])      # covered, no zero
        segs.append((s, e, lo, hi))
    return segs


@pytest.mark.parametrize("seed", range(10))
def test_valley_cuts_batch_is_per_segment_body(seed):
    rng = np.random.default_rng(seed)
    segs = random_segments(rng)
    gap = int(rng.choice([0, 1, 3, 5]))
    seg = np.repeat(np.arange(len(segs)), [len(s) for s, _, _, _ in segs])
    has_zero, cut_seg, cut = valley_cuts_batch(
        seg, np.concatenate([s for s, _, _, _ in segs]),
        np.concatenate([e for _, e, _, _ in segs]), [lo for *_, lo, _ in segs],
        [hi for *_, hi in segs], gap)
    for k, (s, e, lo, hi) in enumerate(segs):
        want = oracle_valley_cuts(s, e, lo, hi, gap)
        got = cut[cut_seg == k].tolist() if has_zero[k] else None
        assert got == want, (k, s, e, lo, hi)
        assert valley_cuts(s, e, lo, hi, gap) == want


@pytest.mark.parametrize("seed", range(10))
def test_profile_and_column_intervals_are_per_doc_bodies(seed):
    rng = np.random.default_rng(100 + seed)
    segs = [(s, e) for s, e, _, _ in random_segments(rng)]
    seg = np.repeat(np.arange(len(segs)), [len(s) for s, _ in segs])
    starts = np.concatenate([s for s, _ in segs]).astype(np.int64)
    ends = np.concatenate([e for _, e in segs]).astype(np.int64)
    for size in (5, 40):       # 40: some segments with a valley keep no interval
        lo, hi, count, _ = profile_intervals_batch(seg, starts, ends, len(segs), 2, size,
                                                   guard=True)
        for k, (s, e) in enumerate(segs):
            want = oracle_profile_intervals(s, e, 2, size) if len(s) else []
            assert list(zip(lo[k, :count[k]], hi[k, :count[k]])) == want, (k, size)
            if len(s):
                assert profile_intervals(s, e, 2, size) == want
    for expected in (None, 1, 2, 5):
        lo, hi, count = column_intervals_batch(seg, starts, ends, len(segs), 10, 2, expected)
        for k, (s, e) in enumerate(segs):
            toks = TokenSOA.from_lists([("w", 1, a, 0, b, 5) for a, b in zip(s, e)])
            lines = build_lines(toks)
            want = oracle_estimate_columns(lines, toks, 10, 2, expected)
            assert list(zip(lo[k, :count[k]], hi[k, :count[k]])) == want, (k, expected)
            assert estimate_columns(lines, toks, 10, 2, expected) == want


def test_all_empty_text_doc_has_no_columns():
    toks = TokenSOA.from_lists([("", 1, 0, 0, 30, 10), ("", 1, 50, 0, 90, 10)])
    assert estimate_columns(build_lines(toks), toks) == []


# ---------------------------------------------------------------------------
# the one-doc wrappers


@pytest.mark.parametrize("seed", range(6))
def test_assign_and_row_merge_wrappers(seed):
    rng = np.random.default_rng(200 + seed)
    texts = ["", " ", "a", " b ", "c  ", "12", "x y"]
    for _ in range(20):
        toks = toks_of(random_doc(rng, int(rng.integers(1, 10)), int(rng.integers(1, 4))))
        if not len(toks):
            continue
        lines = build_lines(toks)
        cols = oracle_estimate_columns(lines, toks, expected_n_cols=int(rng.integers(0, 5)))
        records = oracle_assign_words(lines, toks, cols)
        assert assign_words_to_columns(lines, toks, cols) == records
        assert merge_lines_into_rows(records, lines, toks) == oracle_merge_lines(
            records, lines, toks)
        # ragged, unstripped records and records outside every row
        ragged = [Record(1, int(y), int(y) + int(rng.integers(-2, 15)),
                         [str(rng.choice(texts)) for _ in range(int(rng.integers(0, 4)))])
                  for y in rng.integers(-20, 400, int(rng.integers(1, 9)))]
        for valley in (0, 2, 40):
            assert merge_lines_into_rows(ragged, lines, toks, valley) == oracle_merge_lines(
                ragged, lines, toks, valley)


# ---------------------------------------------------------------------------
# the stages


def random_batch(rng, n=None):
    docs = [random_doc(rng) for _ in range(int(rng.integers(1, 25)) if n is None else n)]
    docs.insert(int(rng.integers(0, len(docs) + 1)), [])
    return docs


GENERIC_CFGS = [LayoutConfig(layout="generic"),
                LayoutConfig(layout="generic", expected_n_cols=3),
                LayoutConfig(layout="generic", expected_n_cols=1, header_regexes=HEADER_RX),
                LayoutConfig(layout="generic", min_col_width=5, col_valley_px=1,
                             row_valley_px=0, row_min_height=1),
                LayoutConfig(layout="generic", min_col_width=200, row_valley_px=8)]


@pytest.mark.parametrize("seed", range(8))
def test_generic_stage_is_per_doc_body(seed):
    rng = np.random.default_rng(300 + seed)
    docs = random_batch(rng)
    cfg = GENERIC_CFGS[seed % len(GENERIC_CFGS)]
    got = extract_batch(table_of(docs), cfg).to_pylist()
    for i, rows in enumerate(docs):
        header, body = oracle_generic(toks_of(rows), cfg)
        assert tuples(got[i]["spans"]) == oracle_grid_to_spans(header, body), i
        widths = [len(r) for r in body] + ([len(header)] if header else [])
        assert (got[i]["n_rows"], got[i]["n_cols"]) == (len(body), max(widths, default=0)), i


def _scorer(max_columns=6):
    scorer = LayoutScorerStage.__new__(LayoutScorerStage)
    scorer.cfg, scorer._backend = LayoutConfig(max_model_columns=max_columns), "teacher-stub"
    return scorer


@pytest.mark.parametrize("seed", range(6))
def test_teacher_is_per_doc_body(seed):
    rng = np.random.default_rng(400 + seed)
    docs = random_batch(rng)
    max_columns = int(rng.choice([6, 2, 0]))
    labels = _scorer(max_columns)(table_of(docs))["labels"].to_pylist()
    for i, rows in enumerate(docs):
        toks = toks_of(rows)
        assert labels[i] == oracle_teacher_labels(toks, max_columns), i
        for knobs in ({}, {"expected_n_cols": 2, "header_regexes": HEADER_RX}):
            ex = build_example(f"d{i}", toks, max_columns=max_columns, compute_boxes=False,
                               **knobs)
            want = oracle_build_example(f"d{i}", toks, max_columns=max_columns, **knobs)
            got = ex and {k: v for k, v in dataclasses.asdict(ex).items() if k != "bboxes"}
            assert got == want, (i, knobs)


@pytest.mark.parametrize("seed", range(6))
def test_transformers_stage_is_per_doc_body(seed):
    rng = np.random.default_rng(500 + seed)
    docs = random_batch(rng)
    # an all-empty doc has no columns: fallback 1 composes it from its labels
    # and with only OTHER labels, fallback 2, the professional grid
    docs += [[("", 1, 10 + 60 * k, 20 * li, 50 + 60 * k, 20 * li + 10, None)
              for li in range(4) for k in range(3)]] * 2
    cfg = [LayoutConfig(layout="transformers"),
           LayoutConfig(layout="transformers", expected_n_cols=2, header_regexes=HEADER_RX),
           LayoutConfig(layout="transformers", max_model_columns=3)][seed % 3]
    labeled = _scorer(cfg.max_model_columns)(table_of(docs))
    labels = labeled["labels"].to_pylist()
    labels[-2] = [("HEADER_COL_1" if j % 5 == 0 else "BODY_COL_0") for j in range(12)]
    labeled = labeled.drop_columns(["labels"]).append_column(
        "labels", pa.array(labels, pa.list_(pa.string())))
    got = TransformersExtractStage(cfg)(labeled).to_pylist()
    for i, rows in enumerate(docs):
        header, body = oracle_transformers(toks_of(rows), labels[i], cfg)
        assert tuples(got[i]["spans"]) == oracle_grid_to_spans(header, body), i
        res = DocResult(header=header, rows=body)
        assert (got[i]["n_rows"], got[i]["n_cols"]) == (res.n_rows, res.n_cols), i
    assert got[-2]["spans"] != got[-1]["spans"] and got[-1]["n_rows"] > 0
