"""Golden per-document digests of the model-label paths.

``model_golden.json`` holds, per section, one digest per document of
``corpus_table(200)`` (seed 0) in corpus order: the first 16 hex digits of
the sha1 of the JSON-encoded result. Sections:

* ``build_example``: every field of the teacher-labeled example under the
  default knobs, ``expected_n_cols=3`` and ``expected_n_cols=5`` with
  header regexes, and under the default knobs on the doc with specks
  added (:func:`_perturbed`); ``null`` when the builder returns ``None``;
* ``transformers``: ``transformers_extract_doc`` with the teacher labels;
* ``compose``: ``compose_table`` over the teacher labels at ``max_columns``
  6, 2 and 9, and at 6 on the doc with specks added and a seeded label
  perturbation (out-of-range, ``OTHER`` and unparsable column labels),
  which sends tokens through the fallbacks of
  ``assign_columns_from_intervals`` and ``assign_tokens_to_rows``;
* ``generic``: ``extract_batch`` under the generic layout with
  ``expected_n_cols`` 2, 3 and 5 and with header regexes;
* ``specks``: ``extract_document`` on the doc with specks added under
  each of the four heuristic layouts, which sends records, tokens and
  year spans through the drop or fallback of their ``locate`` sites;
* ``media``: 200 ``media_interleaved`` docs (seed 0) through the four
  stages of the transformers plan (rasterize, OCR, scorer, compose) at
  the plan's batch sizes: the ``labels`` and the output ``spans`` of each.

Like ``kernel_golden.json`` it is an oracle that needs no reference
checkout. Regenerate (only for an intended output change) with
``python tests/test_model_golden.py``; it rewrites only the first five
sections. ``python tests/test_model_golden.py media`` rewrites only
``media``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "model_golden.json")
HEADER_RX = ("concepto", "saldo", r"\b(19|20)\d{2}\b")
EXAMPLE_KNOBS = {
    "default": {},
    "n3": {"expected_n_cols": 3},
    "n5_rx": {"expected_n_cols": 5, "header_regexes": HEADER_RX},
    "noise": {},
}
GENERIC_KNOBS = {
    "n2": {"expected_n_cols": 2},
    "n3": {"expected_n_cols": 3},
    "n5": {"expected_n_cols": 5},
    "rx": {"header_regexes": HEADER_RX},
}
NOISE_LABELS = ("OTHER", "BODY_COL_9", "HEADER_COL_7", "BODY_COL_x", "BODY_COL_")
SPECKS = ("·", "2019", "7", "·") * 3
LAYOUTS = ("generic", "dynamic", "financial", "professional")


def _digest(obj) -> str:
    return hashlib.sha1(json.dumps(obj).encode()).hexdigest()[:16]


def _docs():
    """``(doc_id, TokenSOA, teacher labels)`` of every corpus document."""
    from ocr_table_extractor_to_csv_ray.config import LayoutConfig
    from ocr_table_extractor_to_csv_ray.core.doc import TokenSOA
    from ocr_table_extractor_to_csv_ray.sources.synthetic import corpus_table
    from ocr_table_extractor_to_csv_ray.stages.extract import decode_token_batch
    from ocr_table_extractor_to_csv_ray.stages.model import LayoutScorerStage
    tbl = corpus_table(200)
    word_offsets, toks, has_lid = decode_token_batch(tbl["spans"])
    scorer = LayoutScorerStage.__new__(LayoutScorerStage)
    scorer.cfg, scorer._backend = LayoutConfig(), "teacher-stub"
    docs = []
    for i, doc_id in enumerate(tbl["doc_id"].to_pylist()):
        sl = slice(word_offsets[i], word_offsets[i + 1])
        doc = TokenSOA(text=toks.text[sl], page=toks.page[sl], x1=toks.x1[sl],
                       y1=toks.y1[sl], x2=toks.x2[sl], y2=toks.y2[sl],
                       line_id=toks.line_id[sl] if has_lid[sl].any() else None)
        docs.append((doc_id, doc, scorer._score_doc(doc_id, doc)))
    return tbl, docs


def _perturbed(toks, labels, rng):
    """The doc plus the :data:`SPECKS` (0-3 px high, 1-6 px wide, anywhere
    in its extent) and its labels with ~30 % replaced by one of
    :data:`NOISE_LABELS`. A speck in a gap between rows or columns opens an
    interval too small to keep, so it goes through the drop or fallback of
    every ``locate`` site."""
    from ocr_table_extractor_to_csv_ray.core.doc import TokenSOA
    k = len(SPECKS)
    if len(toks):
        x1 = rng.integers(toks.x1.min(), toks.x2.max() + 1, k)
        y1 = rng.integers(toks.y1.min(), toks.y2.max() + 1, k)

        def grow(a, b, dtype=np.int64):
            return np.concatenate([a, np.asarray(b, dtype=dtype)]).astype(dtype)
        toks = TokenSOA(text=grow(toks.text, SPECKS, object),
                        page=grow(toks.page, np.full(k, toks.page[0])),
                        x1=grow(toks.x1, x1), y1=grow(toks.y1, y1),
                        x2=grow(toks.x2, x1 + rng.integers(1, 7, k)),
                        y2=grow(toks.y2, y1 + rng.integers(0, 4, k)),
                        line_id=None if toks.line_id is None else
                        grow(toks.line_id, [None] * k, object))
        labels = labels + ["BODY_COL_0"] * k
    hit = rng.random(len(labels)) < 0.3
    pick = rng.integers(0, len(NOISE_LABELS), len(labels))
    return toks, [NOISE_LABELS[p] if h else lab for lab, h, p in zip(labels, hit, pick)]


def compute() -> dict:
    from ocr_table_extractor_to_csv_ray.config import LayoutConfig
    from ocr_table_extractor_to_csv_ray.core.databuild import build_example
    from ocr_table_extractor_to_csv_ray.core.doc import TokenSOA
    from ocr_table_extractor_to_csv_ray.core.layouts import extract_document
    from ocr_table_extractor_to_csv_ray.core.transformers_layout import (
        Predictions, compose_table)
    from ocr_table_extractor_to_csv_ray.stages.extract import extract_batch
    from ocr_table_extractor_to_csv_ray.stages.model import transformers_extract_doc
    from tests.test_kernel_golden import doc_digests

    tbl, docs = _docs()
    examples = {name: [] for name in EXAMPLE_KNOBS}
    compose = {name: [] for name in ("6", "2", "9", "6_noise")}
    specks = {layout: [] for layout in LAYOUTS}
    chain = []
    rng = np.random.default_rng(0)
    for doc_id, toks, labels in docs:
        noisy_toks, noisy_labels = _perturbed(toks, labels, rng)
        for name, knobs in EXAMPLE_KNOBS.items():
            ex = build_example(doc_id, noisy_toks if name == "noise" else toks, **knobs)
            examples[name].append(_digest(ex and dataclasses.asdict(ex)))
        res = transformers_extract_doc(toks, labels, LayoutConfig(layout="transformers"))
        chain.append(_digest([res.header, res.rows]))
        for name in compose:
            doc, labs = (noisy_toks, noisy_labels) if name == "6_noise" else (toks, labels)
            flat = TokenSOA(text=doc.text, page=np.ones(len(doc), np.int64),
                            x1=doc.x1, y1=doc.y1, x2=doc.x2, y2=doc.y2)
            compose[name].append(_digest(compose_table(Predictions.from_labels(flat, labs),
                                                       max_columns=int(name.split("_")[0]))))
        for layout in LAYOUTS:
            res = extract_document(noisy_toks, LayoutConfig(layout=layout))
            specks[layout].append(_digest(dataclasses.asdict(res)))
    generic = {}
    for name, knobs in GENERIC_KNOBS.items():
        got = doc_digests(extract_batch(tbl, LayoutConfig(layout="generic", **knobs)))
        generic[name] = [got[d][:16] for d, _t, _l in docs]
    return {"build_example": examples, "transformers": {"teacher": chain},
            "compose": compose, "generic": generic, "specks": specks}


MEDIA_DOCS = 200
MEDIA_BATCHES = (64, 64, 32, 256)   # rasterize, OCR, scorer, compose (EngineConfig)


def media_ocr_table():
    """The ``media`` input after rasterize and OCR."""
    from ocr_table_extractor_to_csv_ray.sources.synthetic import CORPUS_SCHEMA, make_doc
    from ocr_table_extractor_to_csv_ray.stages.ocr import OcrStage, PdfRasterizeStage
    from ocr_table_extractor_to_csv_ray.config import LayoutConfig
    import pyarrow as pa
    t = pa.Table.from_pylist([make_doc(i, 0, "media_interleaved") for i in range(MEDIA_DOCS)],
                             schema=CORPUS_SCHEMA)
    for stage, size in ((PdfRasterizeStage(), MEDIA_BATCHES[0]),
                        (OcrStage(cfg=LayoutConfig(layout="transformers")), MEDIA_BATCHES[1])):
        t = _staged(stage, t, size)
    return t


def _staged(stage, t, size):
    import pyarrow as pa
    return pa.concat_tables([stage(t.slice(i, size)) for i in range(0, t.num_rows, size)])


def media_chain(t, scorer_batch=MEDIA_BATCHES[2], compose_batch=MEDIA_BATCHES[3]) -> dict:
    """Per-doc digests of the scorer's ``labels`` and of the composed
    ``spans`` (with ``n_rows``, ``n_cols``) of the OCR'd table ``t``."""
    from ocr_table_extractor_to_csv_ray.config import LayoutConfig
    from ocr_table_extractor_to_csv_ray.stages.model import (LayoutScorerStage,
                                                             TransformersExtractStage)
    from tests.test_kernel_golden import _span_tuples
    cfg = LayoutConfig(layout="transformers")
    scorer = LayoutScorerStage.__new__(LayoutScorerStage)
    scorer.cfg, scorer._backend = cfg, "teacher-stub"
    labeled = _staged(scorer, t, scorer_batch)
    out = _staged(TransformersExtractStage(cfg), labeled, compose_batch)
    assert out["doc_id"].to_pylist() == t["doc_id"].to_pylist()
    return {"labels": [_digest(labs) for labs in labeled["labels"].to_pylist()],
            "spans": [_digest([r["n_rows"], r["n_cols"], _span_tuples(r["spans"])])
                      for r in out.to_pylist()]}


@pytest.fixture(scope="module")
def media_input():
    return media_ocr_table()


def test_media_golden(media_input):
    with open(GOLDEN) as fh:
        want = json.load(fh)["media"]
    for name, got in media_chain(media_input).items():
        diff = [i for i, (g, w) in enumerate(zip(got, want[name])) if g != w]
        assert not diff and len(got) == len(want[name]), (
            f"media/{name}: {len(diff)} docs differ from the snapshot, "
            f"first corpus positions {diff[:5]}")


@pytest.mark.parametrize("size", [1, 7, 32, 256])
def test_media_batch_size_invariant(media_input, size):
    """The scorer and the compose stage give every doc the same output
    whatever batch it lands in."""
    assert media_chain(media_input, size, size) == media_chain(media_input)


@pytest.fixture(scope="module")
def computed():
    return compute()


@pytest.mark.parametrize("section",
                         ["build_example", "transformers", "compose", "generic", "specks"])
def test_model_golden(computed, section):
    with open(GOLDEN) as fh:
        want = json.load(fh)[section]
    for name, got in computed[section].items():
        diff = [i for i, (g, w) in enumerate(zip(got, want[name])) if g != w]
        assert not diff and len(got) == len(want[name]), (
            f"{section}/{name}: {len(diff)} docs differ from the snapshot, "
            f"first corpus positions {diff[:5]}")


if __name__ == "__main__":
    import sys
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from tests.test_kernel_golden import write_section
    if sys.argv[1:] == ["media"]:
        write_section(GOLDEN, "media", media_chain(media_ocr_table()), "per-doc digests")
    else:
        for key, value in compute().items():
            write_section(GOLDEN, key, value, "per-doc digests")
