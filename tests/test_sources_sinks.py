"""hOCR parser (S1-S3/J1), CSV sinks (K1-K4/K6), splits (O6)."""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pytest

from ocr_table_extractor_to_csv_ray.config import LayoutConfig
from ocr_table_extractor_to_csv_ray.sinks.csv_sink import (
    grid_to_csv_bytes, numeric_variant_path, write_csv_batch)
from ocr_table_extractor_to_csv_ray.sources.hocr import (
    parse_bbox, parse_hocr_batch, parse_hocr_tokens, tokens_to_hocr)
from ocr_table_extractor_to_csv_ray.stages.extract import extract_batch


# ---------------------------------------------------------------------------
# hOCR parsing

def test_parse_bbox():
    assert parse_bbox("bbox 1 2 3 4; x_wconf 95") == (1, 2, 3, 4)
    assert parse_bbox("bbox 10  20   30 40") == (10, 20, 30, 40)
    assert parse_bbox("") is None
    assert parse_bbox(None) is None
    assert parse_bbox("no box here") is None


def test_hocr_roundtrip():
    toks = [("Caja", 1, 100, 100, 150, 120, "l1"),
            ("123", 1, 300, 100, 340, 120, "l1"),
            ("Total", 2, 100, 200, 160, 220, None)]
    assert parse_hocr_tokens(tokens_to_hocr(toks)) == toks


def test_hocr_quirks():
    # word with no bbox dropped; empty text dropped; crop applied pre-strip
    h = ('<div class="ocr_page" title="bbox 0 0 500 500">'
         '<span class="ocrx_word">nobox</span>'
         '<span class="ocrx_word" title="bbox 10 10 40 30">  </span>'
         '<span class="ocrx_word" title="bbox 10 10 40 30">ok</span>'
         '<span class="ocrx_word" title="bbox 400 400 600 420">outside</span>'
         '</div>')
    out = parse_hocr_tokens(h, table_bbox=(0, 0, 500, 500))
    assert [t[0] for t in out] == ["ok"]


def test_hocr_line_join_first_match():
    # word inside TWO line bboxes joins the FIRST in document order
    h = ('<div class="ocr_page" title="bbox 0 0 500 500">'
         '<span class="ocr_line" title="bbox 0 0 500 100"></span>'
         '<span class="ocr_line" id="named" title="bbox 0 0 500 200"></span>'
         '<span class="ocrx_word" title="bbox 10 10 40 30">w</span>'
         '<span class="ocrx_word" title="bbox 10 150 40 180">deep</span>'
         '</div>')
    out = parse_hocr_tokens(h)
    assert out[0][6] == "page_1_line_1"       # id fallback naming
    assert out[1][6] == "named"


def test_hocr_nested_word_markup():
    # text inside nested elements of a word is concatenated
    h = ('<div class="ocr_page" title="bbox 0 0 500 500">'
         '<span class="ocrx_word" title="bbox 1 1 20 20"><em>a</em>b</span>'
         '</div>')
    assert parse_hocr_tokens(h)[0][0] == "ab"


def test_parse_hocr_batch_to_extraction():
    toks = [("Concepto", 1, 100, 100, 180, 120, None),
            ("Importe", 1, 600, 100, 670, 120, None),
            ("Caja", 1, 100, 160, 140, 180, None),
            ("999", 1, 600, 160, 630, 180, None)]
    tbl = pa.table({"doc_id": ["d1"], "hocr": [tokens_to_hocr(toks)]})
    spans = parse_hocr_batch(tbl)
    out = extract_batch(spans, LayoutConfig(layout="generic"))
    assert out["n_rows"].to_pylist() == [1]
    assert out["n_cols"].to_pylist() == [2]


# ---------------------------------------------------------------------------
# CSV sink

def test_csv_bytes_utf8_sig():
    b = grid_to_csv_bytes(["A", "B"], [["1", "2"]])
    assert b.startswith(b"\xef\xbb\xbf")
    assert b"A,B" in b and b"1,2" in b
    # empty doc → empty file body (main.py:40-43)
    assert grid_to_csv_bytes([], []) == b"\xef\xbb\xbf"


def test_numeric_variant_path():
    assert numeric_variant_path("/x/foo.csv") == "/x/foo.num.csv"


def test_write_csv_batch(tmp_path, corpus_200):
    ex = extract_batch(corpus_200.slice(0, 10), LayoutConfig(layout="dynamic"))
    write_csv_batch(ex, str(tmp_path), numeric=True)
    files = glob.glob(str(tmp_path / "*.csv"))
    assert len(files) == 20                    # 10 docs × (csv + num.csv)
    # every doc produced a file, even empty ones
    for i in range(10):
        did = corpus_200["doc_id"][i].as_py()
        assert os.path.exists(tmp_path / f"{did}.csv")


# ---------------------------------------------------------------------------
# splits

def test_hash_split_stable_and_disjoint(ray_session, corpus_dir):
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.split import hash_split
    ds = rd.read_parquet(corpus_dir, columns=["doc_id"])
    tr, ev = hash_split(ds, eval_ratio=0.25, seed=1)
    a = set(tr.to_pandas()["doc_id"])
    b = set(ev.to_pandas()["doc_id"])
    assert not (a & b) and len(a) + len(b) == 200
    # stable across re-execution
    tr2, ev2 = hash_split(rd.read_parquet(corpus_dir, columns=["doc_id"]),
                          eval_ratio=0.25, seed=1)
    assert set(ev2.to_pandas()["doc_id"]) == b
    assert 0.10 < len(b) / 200 < 0.40


def test_seeded_shuffle_split(ray_session, corpus_dir):
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.split import seeded_shuffle_split
    ds = rd.read_parquet(corpus_dir, columns=["doc_id"])
    tr, ev = seeded_shuffle_split(ds, eval_ratio=0.2, seed=3)
    assert tr.count() == 160 and ev.count() == 40


def test_hocr_void_elements_do_not_break_words():
    # html.parser never delivers an end tag for <br>/<img>; depth
    # tracking must skip voids or every later word on the page merges
    from ocr_table_extractor_to_csv_ray.sources.hocr import parse_hocr_tokens
    h = ('<div class="ocr_page" title="bbox 0 0 100 100">'
         '<span class="ocrx_word" title="bbox 0 0 10 10">Hello<br>World</span>'
         '<span class="ocrx_word" title="bbox 20 0 30 10">Next</span>'
         '<span class="ocrx_word" title="bbox 40 0 50 10">A<img src="x">B</span>'
         '</div>')
    toks = parse_hocr_tokens(h)
    assert [t[0] for t in toks] == ["HelloWorld", "Next", "AB"]
    # self-closing voids and stray </br> likewise
    h2 = ('<div class="ocr_page" title="bbox 0 0 100 100">'
          '<span class="ocrx_word" title="bbox 0 0 10 10">a<br/>b</br></span>'
          '<span class="ocrx_word" title="bbox 20 0 30 10">c</span></div>')
    assert [t[0] for t in parse_hocr_tokens(h2)] == ["ab", "c"]


def test_hocr_truncated_word_flushed():
    # unclosed word at EOF: the lenient close() flush keeps its text
    from ocr_table_extractor_to_csv_ray.sources.hocr import parse_hocr_tokens
    h = ('<div class="ocr_page" title="bbox 0 0 100 100">'
         '<span class="ocrx_word" title="bbox 0 0 10 10">tail')
    assert [t[0] for t in parse_hocr_tokens(h)] == ["tail"]


def test_csv_export_byte_parity_with_reference(tmp_path, corpus_200):
    """K1/K2/K4: the exported .csv and .num.csv files are byte-for-byte
    identical to the executed reference exporters (utf-8-sig BOM, header
    order, numeric normalization) over 40 corpus documents."""
    import functools
    from ocr_table_extractor_to_csv_ray.config import LayoutConfig
    from ocr_table_extractor_to_csv_ray.sinks.csv_sink import write_csv_batch
    from ocr_table_extractor_to_csv_ray.stages.extract import extract_batch
    from tests.refimpl import load_ref, ref_extract

    load_ref()
    from hocr_table_extractor import exporters

    sample = corpus_200.slice(0, 40).select(["doc_id", "spans"])
    out = extract_batch(sample, LayoutConfig(layout="dynamic"))
    ours = tmp_path / "ours"
    write_csv_batch(out, str(ours))

    refdir = tmp_path / "ref"
    refdir.mkdir()
    n_num = 0
    for doc_id, spans in zip(sample["doc_id"].to_pylist(),
                             sample["spans"].to_pylist()):
        header, rows, _num = ref_extract(spans, "dynamic")
        exporters.rows_to_csv(rows, header, str(refdir / f"{doc_id}.csv"))
        exporters.rows_to_csv_numeric(rows, header, str(refdir / f"{doc_id}.num.csv"))
        n_num += bool(rows)
    assert n_num > 10                       # the sample actually has tables
    for p in sorted(refdir.iterdir()):
        got = (ours / p.name).read_bytes()
        want = p.read_bytes()
        assert got == want, p.name

