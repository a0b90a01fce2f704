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

Both stages work on whole batches: the teacher labels a batch in one
pass (``core.databuild.teacher_batch``; a weights-backed scorer still
runs one forward pass per document), and the compose stage runs the
primary path for the batch at once (``core.layouts.generic_grids``); only
a document the primary path leaves without rows goes through the
fallbacks, alone.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import pyarrow as pa

from ..config import LayoutConfig
from ..core.cleaners import process_grid_data
from ..core.databuild import teacher_batch, teacher_labels
from ..core.doc import TokenSOA
from ..core.geometry import LineBatch, build_lines_batch, doc_line_batch
from ..core.gridpro import professional_grid
from ..core.layouts import DocResult, generic_grids
from ..core.spans import GridRows, encode_rows, grid_rows
from ..core.transformers_layout import Predictions, compose_table
from .extract import _combine, decode_token_batch


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

    def _teacher(self, lb: LineBatch, toks: TokenSOA) -> np.ndarray:
        """Teacher labels of every token of a batch, in token order
        (:func:`..core.databuild.teacher_batch`; the header is the first
        row); ``OTHER`` for the tokens of a doc without columns."""
        labels = np.full(len(toks), "OTHER", dtype=object)
        row, col, count = teacher_batch(lb, toks)
        ok = count[lb.member_line_doc()[1]] > 0
        labels[lb.members[ok]] = teacher_labels(row[ok] == 0, col[ok],
                                                self.cfg.max_model_columns)
        return labels

    def _score_doc(self, doc_id: str, toks: TokenSOA) -> List[str]:
        if self._backend == "layoutlmv3" and len(toks):
            try:
                return self._score_real(doc_id, toks)
            except Exception as ex:  # per-doc forward failure → stub, like
                import logging        # every other real backend in the repo
                logging.getLogger(__name__).warning(
                    "LayoutLMv3 forward failed for doc %s (%s: %s) — "
                    "teacher-stub fallback", doc_id, type(ex).__name__, ex)
        return self._teacher(doc_line_batch(toks), toks).tolist()

    def __call__(self, batch: pa.Table) -> pa.Table:
        word_offsets, toks, has_lid = decode_token_batch(batch["spans"])
        if self._backend == "layoutlmv3":
            labels = [lab for i, doc_id in enumerate(batch["doc_id"].to_pylist())
                      for lab in self._score_doc(str(doc_id), toks.take(
                          np.arange(word_offsets[i], word_offsets[i + 1])))]
        else:
            labels = self._teacher(build_lines_batch(word_offsets, toks, has_lid), toks)
        out = batch
        if "labels" in out.column_names:
            out = out.drop_columns(["labels"])
        return out.append_column("labels", pa.ListArray.from_arrays(
            pa.array(word_offsets, pa.int32()), pa.array(labels, pa.string())))


def transformers_grids(word_offsets: np.ndarray, toks: TokenSOA, labels_of,
                       cfg: LayoutConfig) -> Tuple[GridRows, np.ndarray, np.ndarray]:
    """The 3-level fallback chain (``layout_transformers.py:502-565``) of
    every doc of a batch (doc ``d`` owns tokens
    ``word_offsets[d]:word_offsets[d + 1]``, ``labels_of(d)`` its labels):
    grid rows and ``n_rows`` / ``n_cols`` per doc. PRIMARY, for the whole
    batch: the generic heuristics over the tokens with page 1 and no line
    ids (``:505-514``), ``expected_n_cols or max_model_columns`` columns.
    A doc with tokens left without rows goes alone to FALLBACK 1, the
    table composed from its labels (G17-G21), then FALLBACK 2, the
    professional grid (``:552-561``), body cells stripped."""
    target_cols = cfg.expected_n_cols or cfg.max_model_columns
    flat = TokenSOA(text=toks.text, page=np.ones(len(toks), dtype=np.int64),
                    x1=toks.x1, y1=toks.y1, x2=toks.x2, y2=toks.y2, line_id=None)
    primary, n_rows, n_cols = generic_grids(
        build_lines_batch(word_offsets, flat, np.zeros(len(toks), dtype=bool)), flat,
        LayoutConfig(expected_n_cols=target_cols, header_regexes=cfg.header_regexes))
    rest = np.flatnonzero((n_cols == 0) & (np.diff(word_offsets) > 0)).tolist()
    grids = []
    for d in rest:
        doc = flat.take(np.arange(word_offsets[d], word_offsets[d + 1]))
        header, rows = compose_table(Predictions.from_labels(doc, labels_of(d)),
                                     max_columns=target_cols)
        if not rows:
            header, rows = professional_grid(doc)
        res = DocResult(header=header, rows=process_grid_data(rows))
        grids.append((res.header, res.rows))
        n_rows[d], n_cols[d] = res.n_rows, res.n_cols
    return GridRows.concat([primary, grid_rows(grids, rest)]), n_rows, n_cols


def transformers_extract_doc(toks: TokenSOA, labels: List[str],
                             cfg: LayoutConfig) -> DocResult:
    """One doc's :func:`transformers_grids`."""
    grid, _, _ = transformers_grids(np.array([0, len(toks)]), toks, lambda d: labels, cfg)
    (header, rows), = grid.grids(1)
    return DocResult(header=header, rows=rows)


class TransformersExtractStage:
    """Fused stage: consumes batches that already carry ``labels``
    (from :class:`LayoutScorerStage`) and emits the output span column —
    same output schema as ``stages/extract.py``."""

    def __init__(self, cfg: Optional[LayoutConfig] = None) -> None:
        self.cfg = cfg or LayoutConfig(layout="transformers")

    def __call__(self, batch: pa.Table) -> pa.Table:
        word_offsets, toks, _ = decode_token_batch(batch["spans"])
        labels = batch["labels"]
        # a labels list covers the doc's word spans in span order == token order
        grid, n_rows, n_cols = transformers_grids(word_offsets, toks,
                                                  lambda d: labels[d].as_py() or [], self.cfg)
        n = batch.num_rows
        return pa.table({
            "doc_id": _combine(batch["doc_id"]),
            "layout": pa.array(["transformers"] * n, pa.string()),
            "n_rows": pa.array(n_rows.astype(np.int32)),
            "n_cols": pa.array(n_cols.astype(np.int32)),
            "spans": encode_rows(grid, n),
        })
