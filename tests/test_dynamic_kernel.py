"""The whole-batch dynamic layout against the per-document code it replaced.

``numeric_columns_batch``, ``assign_dynamic_batch``, ``merge_rows_batch``,
the header / numeric-row step of ``dynamic_grids`` and the span encoder
``encode_rows`` each replace a per-document loop over Python tuples. Those
loops live on here as the oracles (reference ``column_model.py:47-201``,
``assign_dynamic.py:38-72``, ``rows.py:83-134``, ``main.py:46-54``,
``exporters.py:7-48``), and random batches compare the two: the stage
(``extract_batch``) doc by doc, and each batch step on its own.
"""

from __future__ import annotations

from collections import Counter
from statistics import median

import numpy as np
import pyarrow as pa
import pytest

from ocr_table_extractor_to_csv_ray.config import LayoutConfig
from ocr_table_extractor_to_csv_ray.core.assigners import assign_dynamic_batch
from ocr_table_extractor_to_csv_ray.core.colmodel import (
    ColumnModel, infer_numeric_columns, numeric_columns_batch,
)
from ocr_table_extractor_to_csv_ray.core.doc import TokenSOA
from ocr_table_extractor_to_csv_ray.core.geometry import (
    adaptive_line_spans, build_lines, gather_lines, line_span_arrays, locate,
)
from ocr_table_extractor_to_csv_ray.core.layouts import extract_document
from ocr_table_extractor_to_csv_ray.core.numeric import YEAR_RE, to_number
from ocr_table_extractor_to_csv_ray.core.records import (
    Record, merge_financial_rows, merge_rows_batch,
)
from ocr_table_extractor_to_csv_ray.core.spans import (
    SPAN_TYPE, encode_bbox_ref, encode_rows, grid_rows, grid_to_spans,
)
from ocr_table_extractor_to_csv_ray.stages.extract import extract_batch

# ---------------------------------------------------------------------------
# oracles: the per-document bodies


def oracle_year_headers(lines, spans_per_line, intervals):
    if not intervals:
        return None
    ys = [ln.y1 for ln in lines]
    if not ys:
        return None
    y_thr = min(ys) + 0.20 * (max(ys) - min(ys))
    centres, years = [], []
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


def oracle_columns(lines, spans_per_line, min_sep_px=35, cut_quantile=90.0, pad_px=24,
                   max_cols=4):
    if not lines:
        return [], None
    per_line_centers = []
    y_vals = [ln.y1 for ln in lines]
    y_min, y_max = min(y_vals), max(y_vals)
    y_body_thr = y_min + 0.30 * (y_max - y_min)
    body_counts = []
    for ln, spans in zip(lines, spans_per_line):
        centers = sorted((x1 + x2) // 2 for (x1, x2, _txt, num) in spans if num)
        per_line_centers.append(centers)
        if ln.y1 >= y_body_thr:
            body_counts.append(len(centers))
    votes = Counter(c for c in body_counts if c > 0)
    ncols = min(votes, key=lambda c: (-votes[c], c)) if votes else 0
    if ncols > max_cols:
        ncols = max_cols
    intervals = []
    if ncols >= 2:
        buckets = [[] for _ in range(ncols)]
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
        all_centers = sorted(c for centers in per_line_centers for c in centers)
        if not all_centers:
            return [], None
        gaps = [b - a for a, b in zip(all_centers, all_centers[1:])]
        pctl = float(np.percentile(np.array(gaps, dtype=float), cut_quantile)) if gaps else 0.0
        thr = max(min_sep_px, int(pctl))
        cuts = [all_centers[0]]
        for a, b in zip(all_centers, all_centers[1:]):
            if (b - a) >= thr:
                cuts.append((a + b) // 2)
        cuts.append(all_centers[-1])
        raw = [(int(L), int(R)) for L, R in zip(cuts, cuts[1:]) if R - L >= 10]
        merged = []
        for iv in raw:
            if not merged or iv[0] - merged[-1][1] > 8:
                merged.append(iv)
            else:
                merged[-1] = (merged[-1][0], max(merged[-1][1], iv[1]))
        intervals = [(int(L - pad_px), int(R + pad_px)) for (L, R) in merged][:max_cols]
    names = oracle_year_headers(lines, spans_per_line, intervals) if intervals else None
    return intervals, names


def oracle_assign(lines, toks, numeric_columns, spans_per_line):
    records = []
    if not numeric_columns:
        for ln in lines:
            label = " ".join(toks.text[ln.idx])
            records.append(Record(page=ln.page, y_top=ln.y1, y_bot=ln.y2, cells=[label],
                                  num_count=0))
        return records
    cols = sorted(numeric_columns, key=lambda ab: ab[0])
    first_left = cols[0][0]
    for ln, spans in zip(lines, spans_per_line):
        label = " ".join(txt for (x1, _, txt, num) in spans
                         if not num and x1 < first_left).strip()
        values = [""] * len(cols)
        for (x1, x2, txt, num) in spans:
            if num:
                j = int(locate([(x1 + x2) / 2.0], cols, closed="both", fallback="boundary")[0])
                values[j] = values[j] or txt.strip()
        records.append(Record(page=ln.page, y_top=ln.y1, y_bot=ln.y2, cells=[label] + values,
                              num_count=sum(1 for v in values if v)))
    return records


def _join_cells(a, b):
    return " ".join([a, b]).strip() if a and b else (a or b)


def oracle_merge(records, row_merge_factor=1.30):
    if not records:
        return []
    heights = [r.y_bot - r.y_top for r in records]
    max_gap = int(row_merge_factor * median(heights))
    rows = []
    cur = list(records[0].cells)
    cur_num = int(records[0].num_count)
    prev_bot = records[0].y_bot
    for r in records[1:]:
        gap = r.y_top - prev_bot
        r_num = int(r.num_count)
        if gap <= max_gap and (r_num == 0 or (cur_num == 0 and r_num > 0)):
            cur = [_join_cells(a, b) if pos == 0 else (a if a else b)
                   for pos, (a, b) in enumerate(zip(cur, r.cells))]
            cur_num = max(cur_num, r_num)
            prev_bot = max(prev_bot, r.y_bot)
        else:
            rows.append(cur)
            cur = list(r.cells)
            cur_num = r_num
            prev_bot = r.y_bot
    rows.append(cur)
    return rows


def oracle_header(num_columns, names):
    return ["Cuenta"] + [str(names[i]) if names and i < len(names) and names[i]
                         else f"Valor_{i + 1}" for i in range(num_columns)]


def oracle_grid_to_spans(header, rows):
    out, off = [], 0
    if header:
        for cell in header:
            out.append(("header_cell", cell, "", off))
            off += 1
        out.append(("row_end", "", "", off))
        off += 1
    for row in rows:
        for cell in row:
            out.append(("cell", cell, "", off))
            off += 1
        out.append(("row_end", "", "", off))
        off += 1
    return out


def oracle_dynamic(toks, cfg):
    """``(header, rows, numeric rows)`` of one dynamic doc, or ``None``."""
    if len(toks) == 0:
        return None
    lines = build_lines(toks)
    spans = adaptive_line_spans(lines, toks)
    intervals, names = oracle_columns(lines, spans, cfg.min_sep_px, cfg.cut_quantile,
                                      cfg.pad_px, cfg.max_numeric_cols)
    rows = oracle_merge(oracle_assign(lines, toks, intervals, spans), cfg.row_merge_factor)
    if not rows:
        return None
    header = oracle_header(max(max(len(r) for r in rows) - 1, 0), names)
    return header, rows, [[r[0]] + [to_number(x) for x in r[1:]] for r in rows]


# ---------------------------------------------------------------------------
# random documents

WORDS = ["Total", "Caja", "FY", "Nota", "", " ", "a b", "(1,234)", "-", "$", "12a", "1.5",
         "2019", "2020", "1999", "FY2021", "Año 2020", "٢٠١٩", "x"]


def random_doc(rng, n_lines=None, n_cols=None):
    """Word rows ``(text, page, x1, y1, x2, y2, line_id)`` of a table-like
    doc: labels on the left, numbers near a few column centres, a year
    header band on top; sizes and coordinates are small so that modes,
    medians, rank buckets and votes tie."""
    n_lines = int(rng.integers(0, 14)) if n_lines is None else n_lines
    n_cols = int(rng.integers(1, 7)) if n_cols is None else n_cols
    centres = np.sort(rng.choice(np.arange(160, 700, int(rng.choice([3, 11, 40]))),
                                 size=n_cols, replace=False))
    # many 1-px label tokens keep a line's adaptive gap at its floor, so
    # that its numbers stay separate spans
    n_label = int(rng.choice([1, 3, 70]))
    ids = rng.random() < 0.25
    pages = 2 if rng.random() < 0.2 else 1
    empty = rng.random() < 0.05
    rows = []
    for li in range(n_lines):
        y = 20 + li * int(rng.choice([6, 14, 20])) + int(rng.integers(0, 3))
        h = int(rng.integers(-2, 12))
        page = 1 + int(rng.integers(0, pages))
        lid = (str(rng.choice(["r1", "r2", "", None])) if ids else None)
        lid = None if lid == "None" else lid
        if rng.random() < 0.8:
            for k in range(n_label):
                x = 2 * k if n_label > 3 else 5 + 14 * k
                rows.append((str(rng.choice(WORDS)), page, x, y, x + (1 if n_label > 3 else 10),
                             y + h, lid))
        for c in centres:
            if rng.random() < 0.7:
                w = int(rng.integers(0, 40))
                x = int(c) + int(rng.integers(-25, 25)) - w // 2
                text = (str(rng.choice(WORDS)) if rng.random() < 0.15
                        else f"{int(rng.integers(0, 5000)):,}")
                rows.append((text, page, x, y, x + w, y + h, lid))
        if li == 0 and rng.random() < 0.5:
            for c in centres:
                x = int(c) + int(rng.integers(-60, 60))
                rows.append((str(rng.choice(["2019", "2020", "FY 2019", "1999"])), page,
                             x, y, x + 30, y + h, lid))
    if empty:
        rows = [("", p, x1, y1, x2, y2, lid) for _, p, x1, y1, x2, y2, lid in rows]
    return rows


def random_cfg(rng):
    return LayoutConfig(
        layout="dynamic",
        min_sep_px=int(rng.choice([35, 35, 4, 0])),
        cut_quantile=float(rng.choice([90.0, 90.0, 50.0, 0.0])),
        pad_px=int(rng.choice([24, 24, 0, 3])),
        max_numeric_cols=int(rng.choice([4, 4, 2, 1, 6])),
        row_merge_factor=float(rng.choice([1.3, 1.3, 0.0, 3.0])),
    )


def toks_of(rows):
    if not rows:
        return TokenSOA.from_lists([])
    toks = TokenSOA.from_lists(rows)
    if not any(bool(v) for v in toks.line_id):
        toks.line_id = None
    return toks


def table_of(docs, layouts=None):
    spans = [[{"kind": "word", "text": t,
               "media_ref": encode_bbox_ref(p, x1, y1, x2, y2, lid), "offset": i}
              for i, (t, p, x1, y1, x2, y2, lid) in enumerate(rows)] for rows in docs]
    cols = {"doc_id": pa.array([f"d{i}" for i in range(len(docs))], pa.string()),
            "spans": pa.array(spans, pa.list_(SPAN_TYPE))}
    if layouts is not None:
        cols["layout"] = pa.array(layouts, pa.string())
    return pa.table(cols)


def tuples(spans):
    return [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in spans]


def check_stage(docs, cfg, layouts=None):
    """``extract_batch`` over ``docs`` equals the per-doc oracle, doc by doc."""
    out = extract_batch(table_of(docs, layouts), cfg)
    assert out.num_rows == len(docs)
    got = out.to_pylist()
    for i, rows in enumerate(docs):
        lay = (layouts[i] if layouts and layouts[i] else cfg.layout)
        toks = toks_of(rows)
        if lay == "dynamic":
            want = oracle_dynamic(toks, cfg)
            header, body, numeric = want if want else ([], [], None)
            want_numeric = oracle_grid_to_spans(header, numeric) if want else []
        else:
            res = extract_document(toks, LayoutConfig(layout=lay))
            header, body, want_numeric = res.header, res.rows, []
        widths = [len(r) for r in body] + ([len(header)] if header else [])
        assert tuples(got[i]["spans"]) == oracle_grid_to_spans(header, body), i
        assert tuples(got[i].get("spans_numeric") or []) == want_numeric, i
        assert (got[i]["n_rows"], got[i]["n_cols"]) == (len(body), max(widths, default=0)), i
        assert got[i]["error"] == "", i


# ---------------------------------------------------------------------------
# the stage


class TestDynamicStage:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_batches(self, seed):
        rng = np.random.default_rng(seed)
        docs = [random_doc(rng) for _ in range(int(rng.integers(1, 30)))]
        check_stage(docs, random_cfg(rng))

    def test_empty_docs_in_middle_and_at_end(self):
        rng = np.random.default_rng(11)
        docs = [random_doc(rng, 8, 3), [], random_doc(rng, 6, 2), [], []]
        check_stage(docs, LayoutConfig(layout="dynamic"))

    def test_zero_row_and_one_doc_batches(self):
        out = extract_batch(table_of([]), LayoutConfig(layout="dynamic"))
        assert out.num_rows == 0 and out.column_names[-1] == "spans_numeric"
        check_stage([random_doc(np.random.default_rng(12), 9, 4)], LayoutConfig())

    def test_no_numeric_spans(self):
        rows = [(w, 1, 10 + 40 * k, 20 * li, 40 + 40 * k, 20 * li + 10, None)
                for li in range(6) for k, w in enumerate(["Caja", "y", "Bancos"])]
        check_stage([rows, [("  ", 1, 0, 0, 5, 5, None)] + rows], LayoutConfig())

    def test_more_columns_than_max_cols(self):
        rng = np.random.default_rng(13)
        docs = [random_doc(rng, 12, 6) for _ in range(6)]
        for max_cols in (4, 2, 1, 0):
            check_stage(docs, LayoutConfig(max_numeric_cols=max_cols))

    def test_all_empty_tokens(self):
        rows = [("", 1, 10 + 50 * k, 20 * li, 40 + 50 * k, 20 * li + 10, None)
                for li in range(7) for k in range(4)]
        check_stage([rows, rows[:3]], LayoutConfig())

    def test_line_id_and_multipage_docs(self):
        rng = np.random.default_rng(14)
        docs = []
        for _ in range(10):
            rows = random_doc(rng, 10, 3)
            docs.append([(t, 1 + (i % 2), x1, y1, x2, y2, f"L{y1 // 15}" if i % 3 else None)
                         for i, (t, _p, x1, y1, x2, y2, _lid) in enumerate(rows)])
        check_stage(docs, LayoutConfig())

    def test_mixed_layout_batch(self):
        rng = np.random.default_rng(15)
        docs = [random_doc(rng, 8, 3) for _ in range(12)] + [[]]
        layouts = ["generic", "financial", "professional", "dynamic", "", None] * 2 + ["dynamic"]
        check_stage(docs, LayoutConfig(), layouts)

    def test_error_in_one_doc_leaves_the_rest(self):
        out = extract_batch(table_of([random_doc(np.random.default_rng(16), 5, 2)] * 2,
                                     ["nonsense", "dynamic"]), LayoutConfig())
        assert out["error"].to_pylist()[0].startswith("ValueError")
        assert out["error"].to_pylist()[1] == "" and out["n_rows"].to_pylist()[1] > 0

    @pytest.mark.parametrize("layout", ["dynamic", "generic"])
    def test_crash_in_a_batch_pass_costs_one_doc(self, monkeypatch, layout):
        """A batch pass that raises on one doc's tokens re-runs its docs
        one at a time: that doc gets the error, every other doc its
        clean output."""
        import ocr_table_extractor_to_csv_ray.stages.extract as stage
        rng = np.random.default_rng(17)
        docs = [random_doc(rng, 6, 3) for _ in range(7)]
        docs[3] = [("BOOM",) + row[1:] for row in docs[3]]
        layouts = [layout, "financial", layout, layout, "", layout, "professional"]
        cfg = LayoutConfig(layout=layout)
        clean = extract_batch(table_of(docs, layouts), cfg).to_pylist()
        name = f"{layout}_grids"
        real = getattr(stage, name)

        def crashing(*args):
            texts = args[6] if layout == "dynamic" else args[1].text[args[0].members]
            if "BOOM" in set(texts.tolist()):
                raise RuntimeError("bad doc")
            return real(*args)

        monkeypatch.setattr(stage, name, crashing)
        got = extract_batch(table_of(docs, layouts), cfg).to_pylist()
        assert got[3]["error"] == "RuntimeError: bad doc" and got[3]["spans"] == []
        assert (got[3]["n_rows"], got[3]["n_cols"]) == (0, 0)
        assert got[:3] + got[4:] == clean[:3] + clean[4:]
        assert all(r["error"] == "" for r in clean)


# ---------------------------------------------------------------------------
# the batch steps, one by one


def batch_of(docs):
    """Lines and spans of ``docs`` as the one-doc code computes them, and
    the same as flat batch arrays."""
    per_doc = []
    for rows in docs:
        toks = toks_of(rows)
        lines = build_lines(toks) if len(toks) else []
        per_doc.append((toks, lines, adaptive_line_spans(lines, toks)))
    flat = [line_span_arrays(spans) for _, _, spans in per_doc]
    span_starts = np.concatenate([[0]] + [f[0][1:] + sum(len(g[1]) for g in flat[:i])
                                          for i, f in enumerate(flat)]).astype(np.int64)
    cat = [np.concatenate([f[k] for f in flat]) if flat else np.zeros(0) for k in (1, 2, 3, 4)]
    doc_lines = np.concatenate(([0], np.cumsum([len(lines) for _, lines, _ in per_doc])))
    y1 = np.array([ln.y1 for _, lines, _ in per_doc for ln in lines], dtype=np.int64)
    return per_doc, doc_lines, y1, span_starts, cat


class TestBatchSteps:
    @pytest.mark.parametrize("seed", range(6))
    def test_column_model(self, seed):
        rng = np.random.default_rng(100 + seed)
        cfg = random_cfg(rng)
        docs = [random_doc(rng) for _ in range(25)] + [[]]
        per_doc, doc_lines, y1, span_starts, (sx1, sx2, stext, is_num) = batch_of(docs)
        cm = numeric_columns_batch(doc_lines, y1, span_starts, sx1.astype(np.int64),
                                   sx2.astype(np.int64), stext, is_num.astype(bool),
                                   cfg.min_sep_px, cfg.cut_quantile, cfg.pad_px,
                                   cfg.max_numeric_cols)
        for d, (toks, lines, spans) in enumerate(per_doc):
            want = oracle_columns(lines, spans, cfg.min_sep_px, cfg.cut_quantile, cfg.pad_px,
                                  cfg.max_numeric_cols)
            k = int(cm.count[d])
            assert list(zip(cm.lo[d, :k].tolist(), cm.hi[d, :k].tolist())) == want[0], d
            assert infer_numeric_columns(lines, toks, cfg.min_sep_px, cfg.cut_quantile,
                                         cfg.pad_px, cfg.max_numeric_cols) == want, d

    def test_column_model_ties(self):
        # body counts 2 and 3 tie 8:8 (mode 2); both rank buckets hold an
        # even number of centres; 2019 and 2020 tie 1:1 for one column.
        # Seventy 1-px label tokens keep each line's adaptive gap at 12.
        def line(y, *xs):
            return ([("a", 1, 2 * i, y, 2 * i + 1, y + 8, None) for i in range(70)]
                    + [(f"{100 + x}", 1, x - 5, y, x + 5, y + 8, None) for x in xs])
        rows = line(0) + [("2020", 1, 395, 0, 405, 8, None), ("2019", 1, 395, 12, 405, 20, None)]
        for y, xs in zip(range(300, 780, 30), [(200, 400), (210, 410), (200, 300, 400),
                                               (204, 304, 404), (200, 400), (202, 402),
                                               (201, 301, 401), (199, 301, 399)] * 2):
            rows += line(y, *xs)
        per_doc, *_ = batch_of([rows])
        toks, lines, spans = per_doc[0]
        want = oracle_columns(lines, spans)
        assert len(want[0]) == 2 and want[1] == ["Valor_1", "2019"]
        assert infer_numeric_columns(lines, toks) == want
        check_stage([rows], LayoutConfig())

    @pytest.mark.parametrize("seed", range(4))
    def test_assignment(self, seed):
        rng = np.random.default_rng(200 + seed)
        docs = [random_doc(rng) for _ in range(20)]
        per_doc, doc_lines, y1, span_starts, (sx1, sx2, stext, is_num) = batch_of(docs)
        ivs = [sorted(rng.integers(0, 700, size=(int(rng.integers(0, 5)), 2)).tolist(),
                      key=lambda iv: -iv[1]) for _ in docs]     # unsorted, overlapping
        width = max(len(iv) for iv in ivs)
        lo = np.zeros((len(docs), width), dtype=np.int64)
        hi = np.zeros((len(docs), width), dtype=np.int64)
        for d, iv in enumerate(ivs):
            for j, (a, b) in enumerate(iv):
                lo[d, j], hi[d, j] = a, b
        cols = ColumnModel(lo, hi, np.array([len(iv) for iv in ivs]),
                           np.full(lo.shape, "", dtype=object))
        tok = [gather_lines(lines, toks) for toks, lines, _ in per_doc]
        tok_starts = np.concatenate([[0]] + [t[3][1:] + sum(len(u[2]) for u in tok[:i])
                                             for i, t in enumerate(tok)]).astype(np.int64)
        label, values, num_count = assign_dynamic_batch(
            doc_lines, span_starts, sx1.astype(np.int64), sx2.astype(np.int64),
            stext, is_num.astype(bool), cols, tok_starts,
            np.concatenate([t[2] for t in tok]).astype(object))
        for d, ((toks, lines, spans), iv) in enumerate(zip(per_doc, ivs)):
            want = oracle_assign(lines, toks, [tuple(v) for v in iv], spans)
            a = doc_lines[d]
            for r, rec in enumerate(want):
                got = [label[a + r]] + values[a + r, :len(iv)].tolist()
                assert (got, int(num_count[a + r])) == (rec.cells, rec.num_count), (d, r)

    @pytest.mark.parametrize("seed", range(6))
    def test_row_merge(self, seed):
        rng = np.random.default_rng(300 + seed)
        texts = ["", " ", "a", " b ", "c  ", "12", "x y"]
        docs = []
        for _ in range(15):
            n, w = int(rng.integers(0, 12)), int(rng.integers(0, 4))
            recs = []
            y = 0
            for _ in range(n):
                y += int(rng.integers(-3, 16))
                h = int(rng.integers(-2, 12))
                cells = [str(rng.choice(texts)) for _ in range(max(w + int(rng.integers(-1, 2)),
                                                                    0))]
                recs.append(Record(page=1, y_top=y, y_bot=y + h, cells=cells,
                                   num_count=int(rng.integers(0, 3))))
            docs.append(recs)
        factor = float(rng.choice([1.3, 0.0, 2.5]))
        for recs in docs:
            assert merge_financial_rows(recs, factor) == oracle_merge(recs, factor)
        # the batch form over all docs at once, constant width per doc
        docs = [[Record(r.page, r.y_top, r.y_bot, (r.cells + ["", "", ""])[:3], r.num_count)
                 for r in recs] for recs in docs]
        flat = [r for recs in docs for r in recs]
        label = np.array([r.cells[0] for r in flat] + [""], dtype=object)[:-1]
        values = np.array([r.cells[1:] for r in flat] + [["", ""]], dtype=object)[:-1]
        first, row_label, row_values, row_width = merge_rows_batch(
            np.concatenate(([0], np.cumsum([len(recs) for recs in docs]))),
            np.array([r.y_top for r in flat], dtype=np.int64),
            np.array([r.y_bot for r in flat], dtype=np.int64),
            np.array([r.num_count for r in flat], dtype=np.int64),
            label, values, np.full(len(flat), 3), factor)
        got = [[lab] + vals for lab, vals in zip(row_label.tolist(), row_values.tolist())]
        assert got == [row for recs in docs for row in oracle_merge(recs, factor)]


class TestEncoder:
    GRIDS = [(["h", "é"], [["a", ""], []]), ([], []), ([], [["x"]]), (["only"], []),
             (["", ""], [["1", "2", "3"], [""]])]

    def test_encode_rows_is_old_encoder(self):
        per_doc = [oracle_grid_to_spans(h, r) for h, r in self.GRIDS]
        got = encode_rows(grid_rows(self.GRIDS), len(self.GRIDS))
        assert [tuples(s) for s in got.to_pylist()] == per_doc
        assert got.type == pa.list_(SPAN_TYPE)
        assert all(grid_to_spans(h, r) == s for (h, r), s in zip(self.GRIDS, per_doc))

    def test_rows_out_of_doc_order_and_empty(self):
        rows = grid_rows(self.GRIDS[::-1], docs=[6, 4, 3, 1, 0])
        got = [tuples(s) for s in encode_rows(rows, 7).to_pylist()]
        want = {6: self.GRIDS[4], 4: self.GRIDS[3], 3: self.GRIDS[2], 1: self.GRIDS[1],
                0: self.GRIDS[0]}
        assert got == [oracle_grid_to_spans(*want[d]) if d in want else [] for d in range(7)]
        assert encode_rows(grid_rows([]), 0).to_pylist() == []
        assert encode_rows(grid_rows([]), 2).to_pylist() == [[], []]
