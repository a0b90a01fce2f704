"""Whole-batch layout passes against plain per-document loops.

``build_lines_batch``, ``merge_spans``/``adaptive_gaps`` (through
``dynamic_spans``) and ``num_span_flags`` each replace a per-document or
per-span loop; the loops live on here as the oracles (reference
``lines.py:6-63``, ``column_model.py:18-45``, ``NUM_SPAN_RE``).
"""

from __future__ import annotations

import numpy as np
import pytest

from ocr_table_extractor_to_csv_ray.core.doc import TokenSOA
from ocr_table_extractor_to_csv_ray.core.geometry import (
    build_lines, build_lines_batch, dynamic_spans, fast_percentile, group_by_line, merge_spans,
    overlap_ratio,
)
from ocr_table_extractor_to_csv_ray.core.numeric import is_num_span, num_span_flags


# ---------------------------------------------------------------------------
# oracles: the per-document loops

def oracle_lines(toks: TokenSOA):
    """``(page, x1, y1, x2, y2, idx)`` per line, by the sequential sweep."""
    n = len(toks)
    if n == 0:
        return []
    x1, y1, x2, y2, page = (a.tolist() for a in (toks.x1, toks.y1, toks.x2, toks.y2, toks.page))

    def close(pg, members):
        members = sorted(members, key=lambda i: x1[i])
        return (pg, min(x1[i] for i in members), min(y1[i] for i in members),
                max(x2[i] for i in members), max(y2[i] for i in members), members)

    if toks.line_id is not None and any(bool(v) for v in toks.line_id):
        groups: dict = {}
        for i in range(n):
            key = toks.line_id[i] or f"inferred_{page[i]}_{(y1[i] + y2[i]) // 2}"
            groups.setdefault((page[i], key), []).append(i)
        lines = [close(pg, m) for (pg, _), m in groups.items()]
    else:
        order = sorted(range(n), key=lambda i: (page[i], y1[i] + y2[i], x1[i]))
        lines, cur = [], [order[0]]
        pg, lo, hi = page[order[0]], y1[order[0]], y2[order[0]]
        for i in order[1:]:
            if page[i] == pg and overlap_ratio(lo, hi, y1[i], y2[i]) >= 0.5:
                cur.append(i)
                lo, hi = min(lo, y1[i]), max(hi, y2[i])
            else:
                lines.append(close(pg, cur))
                cur, pg, lo, hi = [i], page[i], y1[i], y2[i]
        lines.append(close(pg, cur))
    lines.sort(key=lambda ln: (ln[0], ln[2], ln[1]))
    return lines


def oracle_spans(x1, x2, text, lines, gap=None):
    """Per line, ``(x1, x2, text)`` spans by the sequential merge; the gap
    is the line's 95th-percentile positive gap (``np.percentile``) unless
    fixed."""
    out = []
    for ids in lines:
        g = gap
        if g is None:
            gaps = [x1[b] - x2[a] for a, b in zip(ids, ids[1:]) if x1[b] - x2[a] > 0]
            g = max(12, int(np.percentile(np.array(gaps, float), 95))) if gaps else 18
        spans = []
        for i in ids:
            if spans and x1[i] - spans[-1][1] <= g:
                s = spans[-1]
                spans[-1] = (s[0], max(s[1], x2[i]), s[2] + [text[i]])
            else:
                spans.append((x1[i], x2[i], [text[i]]))
        out.append([(a, b, " ".join(t).strip()) for a, b, t in spans])
    return out


# ---------------------------------------------------------------------------
# helpers

def doc(rows, line_ids=None) -> TokenSOA:
    """Tokens from ``(page, x1, y1, x2, y2)`` rows, texts ``t0, t1, ...``."""
    rows = list(rows)
    return TokenSOA(
        text=np.array([f"t{i}" for i in range(len(rows))], dtype=object),
        page=np.array([r[0] for r in rows], dtype=np.int64).reshape(-1),
        x1=np.array([r[1] for r in rows], dtype=np.int64).reshape(-1),
        y1=np.array([r[2] for r in rows], dtype=np.int64).reshape(-1),
        x2=np.array([r[3] for r in rows], dtype=np.int64).reshape(-1),
        y2=np.array([r[4] for r in rows], dtype=np.int64).reshape(-1),
        line_id=None if line_ids is None else np.array(line_ids, dtype=object),
    )


def batch(docs):
    """Concatenate docs into ``(word_offsets, toks, has_lid)`` as
    ``decode_token_batch`` returns them."""
    sizes = [len(d) for d in docs]
    offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    lids = [d.line_id if d.line_id is not None else np.full(len(d), None, dtype=object)
            for d in docs]
    cat = lambda name: (np.concatenate([getattr(d, name) for d in docs])  # noqa: E731
                        if docs else np.zeros(0, dtype=np.int64))
    toks = TokenSOA(text=np.concatenate([d.text for d in docs]) if docs else np.zeros(0, object),
                    page=cat("page"), x1=cat("x1"), y1=cat("y1"), x2=cat("x2"), y2=cat("y2"),
                    line_id=np.concatenate(lids) if docs else np.zeros(0, object))
    has_lid = np.array([bool(v) for v in toks.line_id], dtype=bool)
    return offsets, toks, has_lid


def as_tuples(lines):
    return [(ln.page, ln.x1, ln.y1, ln.x2, ln.y2, ln.idx.tolist()) for ln in lines]


def check_batch(docs, include=None):
    offsets, toks, has_lid = batch(docs)
    got = build_lines_batch(offsets, toks, has_lid,
                            None if include is None else np.array(include)).per_doc(offsets)
    assert len(got) == len(docs)
    for k, (d, lines) in enumerate(zip(docs, got)):
        want = oracle_lines(d) if include is None or include[k] else []
        assert as_tuples(lines) == want, k
        assert as_tuples(build_lines(d)) == oracle_lines(d)


def random_doc(rng, n, regime):
    rows = []
    for _ in range(n):
        x1, y1 = int(rng.integers(0, 60)), int(rng.integers(0, 60))
        w, h = int(rng.integers(-3, 25)), int(rng.integers(-2, 15))   # some x2 < x1, y2 < y1
        rows.append((int(rng.integers(1, 3)), x1, y1, x1 + w, y1 + h))
    ids = None
    if regime == "ids":
        ids = [str(rng.choice(["a", "b", "a\x00x", "a\x00y", "", None, "inferred_1_10"]))
               if rng.random() < 0.8 else None for _ in range(n)]
        ids = [None if v == "None" else v for v in ids]
    return doc(rows, ids)


# ---------------------------------------------------------------------------
# build_lines_batch

class TestLineBatch:
    A = [(1, 0, 0, 10, 10), (1, 20, 2, 30, 12), (1, 0, 40, 10, 50)]
    B = [(1, 5, 5, 15, 15)]

    def test_empty_docs_in_middle_and_at_end(self):
        check_batch([doc(self.A), doc([]), doc(self.B), doc([]), doc([])])
        check_batch([doc([]), doc(self.A)])

    def test_doc_boundary_closes_line(self):
        # same page, same band: only the doc boundary separates the lines
        check_batch([doc(self.B), doc(self.B), doc([]), doc(self.B)])

    def test_zero_token_batch(self):
        check_batch([doc([]), doc([])])
        check_batch([])

    def test_doc_mixing_line_id_and_none(self):
        rows = [(1, 0, 0, 10, 10), (1, 20, 0, 30, 10), (1, 40, 1, 50, 11), (1, 0, 30, 10, 40)]
        check_batch([doc(rows, ["L1", None, "L1", None]), doc(self.A)])

    def test_line_id_with_nul(self):
        rows = [(1, 0, 0, 10, 10), (1, 20, 0, 30, 10), (1, 40, 0, 50, 10)]
        d = doc(rows, ["a\x00b", "a\x00c", "a\x00b"])
        check_batch([d])
        assert len(build_lines(d)) == 2

    def test_multipage(self):
        rows = [(2, 0, 0, 10, 10), (1, 0, 0, 10, 10), (1, 20, 1, 30, 11), (3, 5, 0, 9, 10),
                (2, 30, 2, 40, 12)]
        check_batch([doc(rows), doc(rows, ["x", "x", "y", "x", "x"])])
        assert [ln.page for ln in build_lines(doc(rows))] == [1, 2, 3]

    def test_equal_x1_ties_keep_sweep_order(self):
        rows = [(1, 10, 0, 20, 10), (1, 10, 1, 30, 11), (1, 10, 0, 15, 10), (1, 5, 2, 8, 12)]
        check_batch([doc(rows), doc(rows, ["l"] * 4)])

    def test_inverted_token(self):
        rows = [(1, 30, 0, 20, 10), (1, 0, 0, 10, 10), (1, 50, 10, 60, 0)]
        check_batch([doc(rows)])

    def test_include_leaves_docs_out(self):
        check_batch([doc(self.A), doc(self.B), doc(self.A, ["q", "q", None])],
                    include=[True, False, True])

    @pytest.mark.parametrize("seed", range(6))
    def test_random_batches(self, seed):
        rng = np.random.default_rng(seed)
        docs = [random_doc(rng, int(rng.integers(0, 30)), rng.choice(["sweep", "ids"]))
                for _ in range(25)]
        check_batch(docs)


# ---------------------------------------------------------------------------
# spans

class TestSpans:
    @pytest.mark.parametrize("seed", range(6))
    def test_dynamic_spans_match_sequential_merge(self, seed):
        rng = np.random.default_rng(seed)
        docs = [random_doc(rng, int(rng.integers(0, 40)), "sweep") for _ in range(20)]
        for d in docs:        # wide x range so gaps and their percentiles vary
            d.x1 *= 7
            d.x2 *= 7
        offsets, toks, has_lid = batch(docs)
        lb = build_lines_batch(offsets, toks, has_lid)
        m = lb.members
        got = group_by_line(*dynamic_spans(toks.x1[m], toks.x2[m], toks.text[m], lb.starts))
        ids = [m[a:b].tolist() for a, b in zip(lb.starts[:-1], lb.starts[1:])]
        x1, x2, text = toks.x1.tolist(), toks.x2.tolist(), toks.text.tolist()
        want = oracle_spans(x1, x2, text, ids)
        assert [[s[:3] for s in line] for line in got] == want
        assert all(s[3] == is_num_span(s[2]) for line in got for s in line)

    def test_inverted_token_opens_span(self):
        # the span the inverted token (x2 < x1) opens has a right edge below
        # the line's running max of x2
        x1 = np.array([0, 215, 220, 225])
        x2 = np.array([200, 100, 230, 240])
        text = np.array(["a", "b", "c", "d"], dtype=object)
        starts = np.array([0, 4])
        got = merge_spans(x1, x2, text, starts, np.array([12]))
        want = oracle_spans(x1.tolist(), x2.tolist(), text.tolist(), [[0, 1, 2, 3]], gap=12)[0]
        assert list(zip(got[1].tolist(), got[2].tolist(), got[3])) == want
        assert len(want) == 3

    @pytest.mark.parametrize("q", [0.0, 12.5, 50.0, 90.0, 95.0, 100.0])
    def test_fast_percentile_is_numpy_percentile(self, q):
        rng = np.random.default_rng(int(q))
        segments = [rng.integers(1, 500, size=n).astype(float) for n in range(0, 40)]
        starts = np.concatenate(([0], np.cumsum([len(a) for a in segments])))
        got = fast_percentile(np.concatenate(segments), starts, q)
        assert got[0] == 0.0
        for a, p in zip(segments[1:], got[1:].tolist()):
            assert p == np.percentile(a, q)

    def test_empty_lines_and_batch(self):
        x = np.zeros(0, dtype=np.int64)
        span_starts, sx1, sx2, stext = merge_spans(x, x, np.zeros(0, object), np.array([0]), x)
        assert span_starts.tolist() == [0] and stext == []
        span_starts, *cols = dynamic_spans(x, x, np.zeros(0, object), np.array([0]))
        assert span_starts.tolist() == [0] and all(len(c) == 0 for c in cols)


# ---------------------------------------------------------------------------
# numeric grammar F1

class TestNumSpanFlags:
    CASES = ["", "-", "$", "(", "1,234", "1\n", "1\x0b2", "\x1c", " ", "١٢٣",
             "1\n\n", "\n", "1 234", "1\t234", "1\x1c234", "$(1,234.5)", "12a", "1,23",
             "(57,519)", "1.", ".5", "--1", "1 234", "1 ", "²", "\x00"]

    def test_agrees_with_python_re(self):
        chars = [chr(c) for c in range(0x80)] + ["\x85", "\xa0", "١", "²", " ", "　"]
        texts = (self.CASES + chars + [a + b for a in "1$(-,. )\n\x0b\x1c" for b in chars]
                 + ["1" + c + "234" for c in chars] + ["12" + c for c in chars])
        assert num_span_flags(texts).tolist() == [is_num_span(t) for t in texts]

    def test_empty_input(self):
        assert num_span_flags([]).tolist() == []
