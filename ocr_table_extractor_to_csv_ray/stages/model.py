"""Layout-model actor-pool stage + the ``transformers`` extraction path.

Reference flow (``layout_transformers.py:446-565``): OCR words → model
labels per token (A1/M9) → PRIMARY: rebuild tokens and run the generic
heuristics → FALLBACK 1: compose the table purely from model labels
(G17-G21) → FALLBACK 2: spatial professional grid.

The real LayoutLMv3 weights cannot load here (no torch/transformers, no
network), so the scorer is a DETERMINISTIC TEACHER STUB: it labels
tokens with the same generic-teacher algorithm the reference's dataset
builder uses (``dataset_builder.py:225-238``) — the exact label
vocabulary (``HEADER_COL_i``/``BODY_COL_i``/``OTHER``) a fine-tuned
model would emit. Actor plumbing (load-once ``__init__``, batched
``__call__``) is real and identical to a weights-backed scorer.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pyarrow as pa

from ..config import LayoutConfig
from ..core.cleaners import process_grid_data
from ..core.databuild import build_example
from ..core.doc import TokenSOA
from ..core.geometry import build_lines, estimate_columns
from ..core.gridpro import professional_grid
from ..core.layouts import DocResult
from ..core.records import detect_header_row, merge_lines_into_rows
from ..core.spans import encode_rows, grid_rows
from ..core.transformers_layout import Predictions, compose_table
from ..core.assigners import assign_words_to_columns
from .extract import decode_token_batch


class LayoutScorerStage:
    """Actor: label each word token of each document.

    ``__init__`` is the once-per-actor model load (here: teacher-stub
    setup; with weights: processor+model load, ``layout_transformers.py:128-140``).
    ``__call__`` consumes an Arrow batch of documents and appends a
    ``labels`` list column aligned with the word spans.
    """

    DEFAULT_MODEL_ID = "microsoft/layoutlmv3-base"

    def __init__(self, cfg: Optional[LayoutConfig] = None,
                 model_id: Optional[str] = None, image_loader=None) -> None:
        """``image_loader``: optional ``doc_id -> page image`` resolver
        for the weights-backed scorer (LayoutLMv3 consumes the page
        bitmap alongside words+boxes). Without one, a blank canvas is
        used — functional, lower accuracy than the true page image."""
        self.cfg = cfg or LayoutConfig()
        self._image_loader = image_loader
        self._processor = self._model = None
        try:
            from transformers import (LayoutLMv3ForTokenClassification,
                                      LayoutLMv3Processor)
            import torch  # noqa: F401
            # once-per-actor model load — the actor IS the reference's
            # @lru_cache(maxsize=1) on _load_layoutlmv3
            # (layout_transformers.py:128-140)
            mid = model_id or self.DEFAULT_MODEL_ID
            self._processor = LayoutLMv3Processor.from_pretrained(
                mid, apply_ocr=False)
            self._model = LayoutLMv3ForTokenClassification.from_pretrained(mid)
            self._backend = "layoutlmv3"
        except ImportError:
            self._backend = "teacher-stub"
        except Exception as ex:  # offline host / no cached weights → OSError
            import logging
            logging.getLogger(__name__).warning(
                "LayoutLMv3 load failed (%s: %s) — teacher-stub fallback",
                type(ex).__name__, ex)
            self._processor = self._model = None
            self._backend = "teacher-stub"

    def _page_image(self, toks: TokenSOA):
        """Blank white canvas sized to the token extent (stand-in when
        no ``image_loader`` provides the real page bitmap)."""
        from PIL import Image
        w = int(max(toks.x2.max() if len(toks) else 0, 1)) + 10
        h = int(max(toks.y2.max() if len(toks) else 0, 1)) + 10
        return Image.new("RGB", (w, h), "white")

    def _score_real(self, doc_id: str, toks: TokenSOA) -> List[str]:
        """Weights-backed forward pass + FIRST-subtoken word collapse
        (``layout_transformers.py:143-161``)."""
        import torch

        words = [str(t) for t in toks.text]
        boxes = [[int(a), int(b), int(c), int(d)]
                 for a, b, c, d in zip(toks.x1, toks.y1, toks.x2, toks.y2)]
        image = (self._image_loader(doc_id) if self._image_loader
                 else self._page_image(toks))
        encoding = self._processor(image, words, boxes=boxes,
                                   return_tensors="pt")
        with torch.no_grad():
            outputs = self._model(**encoding)
        predictions = outputs.logits.argmax(-1).squeeze().tolist()
        if not isinstance(predictions, list):      # single-token squeeze
            predictions = [predictions]
        word_ids = encoding.word_ids()
        collapsed: List[str] = []
        prev_word_idx = -1
        for i, word_idx in enumerate(word_ids):
            if word_idx is None or word_idx == prev_word_idx:
                continue
            collapsed.append(self._model.config.id2label[predictions[i]])
            prev_word_idx = word_idx
        # keep the labels column aligned with the word spans: truncated
        # encodings pad the tail with OTHER
        if len(collapsed) < len(words):
            collapsed += ["OTHER"] * (len(words) - len(collapsed))
        return collapsed[:len(words)]

    def _score_doc(self, doc_id: str, toks: TokenSOA) -> List[str]:
        if self._backend == "layoutlmv3" and len(toks):
            try:
                return self._score_real(doc_id, toks)
            except Exception as ex:  # per-doc forward failure → stub, like
                import logging        # every other real backend in the repo
                logging.getLogger(__name__).warning(
                    "LayoutLMv3 forward failed for doc %s (%s: %s) — "
                    "teacher-stub fallback", doc_id, type(ex).__name__, ex)
        ex = build_example(doc_id, toks, max_columns=self.cfg.max_model_columns,
                           compute_boxes=False)   # labels only — skip box math
        if ex is None:
            return ["OTHER"] * len(toks)
        labels = ["OTHER"] * len(toks)
        for ti, lab in zip(ex.token_order, ex.labels):
            labels[ti] = lab
        return labels

    def __call__(self, batch: pa.Table) -> pa.Table:
        word_offsets, toks, has_lid = decode_token_batch(batch["spans"])
        doc_ids = batch["doc_id"].to_pylist()
        out_labels: List[List[str]] = []
        for i in range(batch.num_rows):
            sl = slice(word_offsets[i], word_offsets[i + 1])
            doc = TokenSOA(text=toks.text[sl], page=toks.page[sl],
                           x1=toks.x1[sl], y1=toks.y1[sl],
                           x2=toks.x2[sl], y2=toks.y2[sl],
                           line_id=toks.line_id[sl] if has_lid[sl].any() else None)
            out_labels.append(self._score_doc(str(doc_ids[i]), doc))
        out = batch
        if "labels" in out.column_names:
            out = out.drop_columns(["labels"])
        return out.append_column("labels", pa.array(out_labels, pa.list_(pa.string())))


def transformers_extract_doc(toks: TokenSOA, labels: List[str],
                             cfg: LayoutConfig) -> DocResult:
    """The 3-level fallback chain (``layout_transformers.py:502-565``),
    given tokens + model labels for ONE document."""
    if len(toks) == 0:
        return DocResult()
    target_cols = cfg.expected_n_cols or cfg.max_model_columns

    # PRIMARY: generic heuristics over rebuilt tokens (page forced to 1,
    # layout_transformers.py:505-514)
    flat = TokenSOA(text=toks.text, page=np.ones(len(toks), dtype=np.int64),
                    x1=toks.x1, y1=toks.y1, x2=toks.x2, y2=toks.y2, line_id=None)
    lines = build_lines(flat)
    if lines:
        intervals = estimate_columns(lines, flat, expected_n_cols=target_cols)
        if intervals:
            records = assign_words_to_columns(lines, flat, intervals)
            merged = merge_lines_into_rows(records, lines, flat)
            if merged:
                header_row, body = detect_header_row(
                    merged,
                    header_regexes=list(cfg.header_regexes) if cfg.header_regexes else None)
                return DocResult(header=header_row or [],
                                 rows=process_grid_data(body))

    # FALLBACK 1: compose purely from model labels (G17-G21)
    preds = Predictions.from_labels(flat, labels)
    header, rows = compose_table(preds, max_columns=target_cols or cfg.max_model_columns)
    if rows:
        return DocResult(header=header, rows=process_grid_data(rows))

    # FALLBACK 2: spatial professional grid (layout_transformers.py:552-561)
    header, body = professional_grid(flat)
    return DocResult(header=header, rows=process_grid_data(body))


class TransformersExtractStage:
    """Fused stage: consumes batches that already carry ``labels``
    (from :class:`LayoutScorerStage`) and emits the output span column —
    same output schema as ``stages/extract.py``."""

    def __init__(self, cfg: Optional[LayoutConfig] = None) -> None:
        self.cfg = cfg or LayoutConfig(layout="transformers")

    def __call__(self, batch: pa.Table) -> pa.Table:
        word_offsets, toks, has_lid = decode_token_batch(batch["spans"])
        labels_col = batch["labels"].to_pylist()
        n = batch.num_rows
        grids, n_rows, n_cols = [], np.zeros(n, np.int32), np.zeros(n, np.int32)
        for i in range(n):
            sl = slice(word_offsets[i], word_offsets[i + 1])
            doc = TokenSOA(text=toks.text[sl], page=toks.page[sl],
                           x1=toks.x1[sl], y1=toks.y1[sl],
                           x2=toks.x2[sl], y2=toks.y2[sl], line_id=None)
            # labels list covers word spans in span order == token order
            labs = labels_col[i] or []
            res = transformers_extract_doc(doc, labs, self.cfg)
            grids.append((res.header, res.rows))
            n_rows[i], n_cols[i] = res.n_rows, res.n_cols
        doc_id = batch["doc_id"].combine_chunks() if isinstance(batch["doc_id"], pa.ChunkedArray) else batch["doc_id"]
        return pa.table({
            "doc_id": doc_id,
            "layout": pa.array(["transformers"] * n, pa.string()),
            "n_rows": pa.array(n_rows),
            "n_cols": pa.array(n_cols),
            "spans": encode_rows(grid_rows(grids), n),
        })
