"""Knob-variant goldens + hypothesis fuzzing vs the executed reference.

The deterministic corpus exercises realistic documents; the fuzzer
throws adversarial token soups (overlaps, zero-ish sizes, dense packs)
at every layout and demands span equality with the reference code.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ocr_table_extractor_to_csv_ray.config import LayoutConfig
from ocr_table_extractor_to_csv_ray.core.spans import spans_to_grid
from ocr_table_extractor_to_csv_ray.sources.synthetic import SPAN_TYPE, corpus_table
from ocr_table_extractor_to_csv_ray.stages.extract import extract_batch

from refimpl import ref_extract

import pyarrow as pa


def _engine_grid(tbl, cfg):
    out = extract_batch(tbl, cfg)
    res = []
    numeric_col = out["spans_numeric"].to_pylist() if "spans_numeric" in out.column_names else None
    for i, lst in enumerate(out["spans"].to_pylist()):
        g = spans_to_grid([(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in lst])
        gn = None
        if numeric_col is not None:
            gn = spans_to_grid([(s["kind"], s["text"], s["media_ref"], s["offset"])
                                for s in numeric_col[i]])
        res.append((g, gn))
    return res


# ---------------------------------------------------------------------------
# knob variants on the deterministic corpus

@pytest.mark.parametrize("kwargs", [
    {"expected_n_cols": 4},
    {"expected_n_cols": 2},
    {"expected_n_cols": 7},
    {"header_regexes": ("concepto", "descripcion|importe")},
    {"table_bbox": (0, 0, 1500, 2000)},
    {"table_bbox": (200, 150, 1900, 2500), "expected_n_cols": 3},
])
def test_generic_knobs_match_reference(corpus_200, kwargs):
    cfg = LayoutConfig(layout="generic",
                       expected_n_cols=kwargs.get("expected_n_cols"),
                       header_regexes=kwargs.get("header_regexes"),
                       table_bbox=kwargs.get("table_bbox"))
    sample = corpus_200.slice(0, 60)
    grids = _engine_grid(sample, cfg)
    for i in range(sample.num_rows):
        doc = sample.slice(i, 1).to_pylist()[0]
        rh, rr, _ = ref_extract(
            doc["spans"], "generic",
            table_bbox=kwargs.get("table_bbox"),
            expected_n_cols=kwargs.get("expected_n_cols"),
            header_regexes=list(kwargs["header_regexes"]) if "header_regexes" in kwargs else None)
        (eh, er), _ = grids[i]
        assert (list(rh), [list(r) for r in rr]) == (eh, er), (doc["doc_id"], kwargs)


# ---------------------------------------------------------------------------
# hypothesis fuzz

WORDS = ["a", "bb", "Caja", "1,234", "$9", "(55)", "-", "2021", "x:", "Total",
         "12.5", "   ", "αβ", "nota", "$", "("]

token_strategy = st.tuples(
    st.sampled_from(WORDS),                       # text
    st.integers(1, 2),                            # page
    st.integers(0, 300),                          # x1
    st.integers(0, 400),                          # y1
    st.integers(1, 80),                           # width
    st.integers(1, 30),                           # height
    st.sampled_from([None, None, None, "L1", "L2"]),
)


def _mk_table(tokens):
    spans = []
    for off, (text, page, x1, y1, w, h, lid) in enumerate(tokens):
        ref = f"bbox://p{page}/{x1},{y1},{x1 + w},{y1 + h}"
        if lid:
            ref += f"/{lid}"
        spans.append({"kind": "word", "text": text, "media_ref": ref, "offset": off})
    return pa.table({"doc_id": pa.array(["fz"]),
                     "spans": pa.array([spans], pa.list_(SPAN_TYPE))}), spans


@settings(max_examples=120, deadline=None)
@given(tokens=st.lists(token_strategy, min_size=0, max_size=40),
       layout=st.sampled_from(["generic", "dynamic", "financial", "professional"]))
def test_fuzz_matches_reference(tokens, layout):
    tbl, spans = _mk_table(tokens)
    cfg = LayoutConfig(layout=layout)
    out = extract_batch(tbl, cfg)
    assert out["error"].to_pylist() == [""]
    lst = out["spans"].to_pylist()[0]
    eh, er = spans_to_grid([(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in lst])
    rh, rr, rn = ref_extract(spans, layout)
    assert (list(rh), [list(r) for r in rr]) == (eh, er)
    if layout == "dynamic" and rn is not None:
        nn = out["spans_numeric"].to_pylist()[0]
        nh, nr = spans_to_grid([(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in nn])
        assert [list(r) for r in rn] == nr


# ---------------------------------------------------------------------------
# parser robustness fuzz (no oracle — must not crash, must round-trip)

@settings(max_examples=80, deadline=None)
@given(tokens=st.lists(
    st.tuples(st.text(alphabet="abcXYZ123 ", min_size=1, max_size=8).map(str.strip),
              st.integers(1, 3), st.integers(0, 999), st.integers(0, 999),
              st.integers(1, 50), st.integers(1, 30),
              st.sampled_from([None, "L1"])),
    max_size=25))
def test_hocr_roundtrip_fuzz(tokens):
    from ocr_table_extractor_to_csv_ray.sources.hocr import (
        parse_hocr_tokens, tokens_to_hocr)
    toks = [(t or "x", p, x1, y1, x1 + w, y1 + h, lid)
            for (t, p, x1, y1, w, h, lid) in tokens
            if t and "<" not in t and "&" not in t]
    # hOCR pages are POSITIONAL: the parser numbers ocr_page elements
    # 1..n in document order (reference parser.py:29), so declared page
    # values collapse to their rank among the distinct pages present.
    rank = {p: i + 1 for i, p in enumerate(sorted({t[1] for t in toks}))}
    want = [(t, rank[p], x1, y1, x2, y2, lid)
            for (t, p, x1, y1, x2, y2, lid) in toks]
    got = parse_hocr_tokens(tokens_to_hocr(toks))
    from collections import Counter
    # geometry+text round-trips exactly (pages positional)
    assert Counter(g[:6] for g in got) == Counter(w[:6] for w in want)
    # declared line ids survive; lid-less tokens may legitimately ACQUIRE
    # one via the containment join (reference parser.py:33-58) when they
    # sit inside another line's bbox — so only check the declared side
    assert (Counter(w[6] for w in want if w[6])
            <= Counter(g[6] for g in got if g[6]))


@settings(max_examples=80, deadline=None)
@given(soup=st.text(alphabet="<>/abps tdrl\"=ne1", max_size=300))
def test_html_walker_never_crashes(soup):
    from ocr_table_extractor_to_csv_ray.sources.html import extract_main_content
    r = extract_main_content(soup)
    assert set(r) == {"title", "text", "tables"}


# ---------------------------------------------------------------------------
# transformers compose fuzz: random model labels vs the reference

LABELS = (["OTHER"] + [f"HEADER_COL_{i}" for i in range(7)]
          + [f"BODY_COL_{i}" for i in range(7)] + ["HEADER_COL_x", "BODY_COL_"])


@settings(max_examples=100, deadline=None)
@given(tokens=st.lists(token_strategy, min_size=1, max_size=30),
       label_seed=st.integers(0, 2**31),
       max_columns=st.sampled_from([1, 2, 4, 6]))
def test_compose_fuzz_matches_reference(tokens, label_seed, max_columns):
    from ocr_table_extractor_to_csv_ray.core.cleaners import process_grid_data
    from ocr_table_extractor_to_csv_ray.core.doc import TokenSOA
    from ocr_table_extractor_to_csv_ray.core.transformers_layout import (
        Predictions, compose_table)
    from refimpl import ref_compose, spans_to_ref_tokens

    _, spans = _mk_table(tokens)
    rng = np.random.default_rng(label_seed)
    labels = [LABELS[int(rng.integers(0, len(LABELS)))] for _ in tokens]

    ref_toks = spans_to_ref_tokens(spans)
    rh, rr = ref_compose(ref_toks, labels, max_columns=max_columns)

    toks = TokenSOA.from_lists(
        [(t, 1, x1, y1, x1 + w, y1 + h) for (t, _p, x1, y1, w, h, _l) in tokens])
    preds = Predictions.from_labels(toks, labels)
    eh, er = compose_table(preds, max_columns=max_columns)
    assert (list(rh), [list(r) for r in rr]) == (eh, process_grid_data(er))


# ---------------------------------------------------------------------------
# malformed-markup fuzz: the walkers must be lenient like the reference's
# XML→HTML parse fallback (parser.py:7-14) — no crash, sane tokens

_markup_fragment = st.one_of(
    st.sampled_from([
        '<div class="ocr_page" title="bbox 0 0 2000 2600">', "</div>",
        '<span class="ocr_line" title="bbox 0 0 500 40">', "</span>",
        '<span class="ocrx_word" title="bbox 10 10 90 30">', "word",
        "<br>", "<img src=x>", "</br>", "<b>", "</b>", "&amp;", "&nope;",
        "&#65;", "<", ">", '<span class="ocrx_word" title="garbage">',
        '<span class="ocrx_word">', "<p", 'title="bbox 1 2 3 4"',
        "<!-- c -->", "<![CDATA[x]]>", "<?pi ?>", "</span></span>",
        '<table><tr><td>', "</td></tr></table>", "<a href='x'>link</a>",
        "text & more", "\x00", "é™Ø",
    ]),
    st.text(max_size=8),
)


@given(parts=st.lists(_markup_fragment, min_size=0, max_size=60))
@settings(max_examples=300, deadline=None)
def test_hocr_walker_survives_malformed_markup(parts):
    from ocr_table_extractor_to_csv_ray.sources.hocr import parse_hocr_tokens
    toks = parse_hocr_tokens("".join(parts))
    for t in toks:
        text, page, x1, y1, x2, y2, _lid = t
        assert isinstance(text, str) and text.strip() == text and text
        assert page >= 1 and all(isinstance(v, int) for v in (x1, y1, x2, y2))


@given(parts=st.lists(_markup_fragment, min_size=0, max_size=60))
@settings(max_examples=300, deadline=None)
def test_html_walker_survives_malformed_markup(parts):
    from ocr_table_extractor_to_csv_ray.sources.html import extract_main_content
    out = extract_main_content("".join(parts))
    assert isinstance(out["text"], str)
    assert isinstance(out["tables"], list)
    for tbl in out["tables"]:
        assert all(isinstance(row, list) for row in tbl)


# ---------------------------------------------------------------------------
# skew-guard roundtrip + minhash arithmetic (pure kernels, no Ray)

@given(st.lists(st.tuples(st.integers(0, 3),       # per-doc: media period
                          st.integers(0, 120)),    # span count
                min_size=1, max_size=12),
       st.integers(1, 40),
       st.sampled_from([None, "media"]))
@settings(max_examples=60, deadline=None)
def test_split_reassemble_roundtrip_fuzz(doc_specs, max_spans, count_kind):
    from ocr_table_extractor_to_csv_ray.sources.synthetic import SPAN_TYPE
    from ocr_table_extractor_to_csv_ray.stages.skew import (
        reassemble_group, split_oversized_batch)
    docs, ids = [], []
    for d, (mp, n) in enumerate(doc_specs):
        spans = []
        for i in range(n):
            if mp and i % (mp + 1) == mp:
                spans.append({"kind": "media", "text": "",
                              "media_ref": f"img://d{d}/p{i}", "offset": i})
            else:
                spans.append({"kind": "word", "text": f"w{i}",
                              "media_ref": "bbox://p1/1,1,9,9", "offset": i})
        docs.append(spans)
        ids.append(f"d{d}")
    t = pa.table({"doc_id": pa.array(ids),
                  "spans": pa.array(docs, pa.list_(SPAN_TYPE))})
    split = split_oversized_batch(t, max_spans=max_spans, count_kind=count_kind)
    # every shard respects the cap (counted kind only)
    for row in split["spans"].to_pylist():
        c = sum(1 for s in row if count_kind is None or s["kind"] == count_kind)
        assert c <= max(max_spans, 1) or len(row) == c == 0 or c <= max_spans + max_spans
    by_doc = {}
    for i, d in enumerate(split["doc_id"].to_pylist()):
        by_doc.setdefault(d, []).append(i)
    for d, idxs in by_doc.items():
        out = reassemble_group(split.take(pa.array(idxs)))
        orig = docs[ids.index(d)]
        got = out["spans"].to_pylist()[0]
        assert [(s["kind"], s["text"], s["media_ref"]) for s in got] == \
               [(s["kind"], s["text"], s["media_ref"]) for s in orig]
        assert [s["offset"] for s in got] == list(range(len(orig)))


@given(st.lists(st.integers(0, 2**64 - 1), min_size=0, max_size=30),
       st.lists(st.integers(0, 2**64 - 1), min_size=0, max_size=30),
       st.integers(0, 999))
@settings(max_examples=80, deadline=None)
def test_minhash_min_stability(sa, sb, seed):
    """The property MinHash actually requires of the hash family:
    elementwise ``sig(A ∪ B) = min(sig(A), sig(B))``, order/duplicate
    invariance, and the empty-set sentinel. (The kernel is a wrap-folded
    61-bit mix, deliberately NOT exact modular arithmetic — see the
    ``minhash_signature`` docstring.)"""
    from ocr_table_extractor_to_csv_ray.functions.dedup import (
        _MERSENNE, _perm_params, minhash_signature)
    a, b = _perm_params(8, seed)
    arr = lambda xs: np.array(xs, dtype=np.uint64)
    sig_a = minhash_signature(arr(sa), a, b)
    sig_b = minhash_signature(arr(sb), a, b)
    sig_ab = minhash_signature(arr(sa + sb), a, b)
    assert (sig_ab == np.minimum(sig_a, sig_b)).all()
    # order + duplicate invariance
    both = sorted(sa + sb, reverse=True) + sa
    assert (minhash_signature(arr(both), a, b) == sig_ab).all() or not (sa + sb)
    if not sa:
        assert all(int(x) == _MERSENNE for x in sig_a)


# ---------------------------------------------------------------- round 4

@settings(max_examples=25, deadline=None)
@given(
    vals=st.lists(st.integers(min_value=-1000, max_value=1000),
                  min_size=1, max_size=300),
    k=st.integers(min_value=2, max_value=7),
)
def test_equidepth_bucket_assignment_fuzz(vals, k):
    """Pure-kernel fuzz of the equi-depth contract (no Ray): the
    boundary set is the exact type-1 quantiles, assignment is
    1 + #(boundaries < v), ties never split, buckets are monotone in
    the value."""
    import numpy as np

    v = np.array(vals, dtype=np.int64)
    s = np.sort(v)
    n = len(s)
    bnd = np.sort(np.array(
        [s[(i * n + k - 1) // k - 1] for i in range(1, k)], dtype=np.int64))
    bucket = 1 + np.searchsorted(bnd, v, side="left")
    assert bucket.min() >= 1 and bucket.max() <= k
    order = np.argsort(v, kind="mergesort")
    assert (np.diff(bucket[order]) >= 0).all()          # monotone in value
    for u in np.unique(v):                              # ties share a bucket
        assert len(np.unique(bucket[v == u])) == 1


@settings(max_examples=15, deadline=None)
@given(
    zipf_a=st.floats(min_value=1.2, max_value=2.5),
    n_tokens=st.integers(min_value=200, max_value=1500),
    phi_den=st.integers(min_value=5, max_value=60),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_heavy_hitter_block_union_superset_fuzz(zipf_a, n_tokens, phi_den,
                                                seed):
    """The per-block candidate rule (local count · phi_den > block
    total) must union to a superset of the true φ-heavy hitters for ANY
    split of the corpus into blocks — the guarantee the distributed
    implementation rests on. Pure-kernel fuzz (no Ray)."""
    import numpy as np

    rng = np.random.RandomState(seed)
    toks = np.minimum(rng.zipf(zipf_a, n_tokens), 60)
    # random contiguous split into 1..8 blocks
    n_blocks = rng.randint(1, 9)
    cuts = np.sort(rng.choice(np.arange(1, n_tokens),
                              size=min(n_blocks - 1, n_tokens - 1),
                              replace=False)) if n_blocks > 1 else []
    blocks = np.split(toks, cuts)

    cands = set()
    for b in blocks:
        u, c = np.unique(b, return_counts=True)
        cands.update(u[c * phi_den >= len(b)].tolist())   # the impl's rule

    u, c = np.unique(toks, return_counts=True)
    true_hh = set(u[c * phi_den >= n_tokens].tolist())    # the impl's filter
    # ≥-block-rule ⇒ ≥-filter superset: missing everywhere means
    # c_b·phi < N_b strictly in every block, so C·phi < N strictly —
    # INCLUDING the all-blocks-exactly-at-threshold boundary tie that a
    # strict > block rule would miss
    assert true_hh <= cands
