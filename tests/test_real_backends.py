"""Real-library branches of the stateful actors, exercised with
monkeypatched stand-in modules, so pytesseract/pypdfium2/transformers/
torch/PIL need not be installed.

Contract under test (VERDICT round 1, "what's wrong" #1): on a machine
where the real library IS importable the stage must run it — same
output schema as the fake branch, no ``NotImplementedError`` reachable
— with the reference's exact field semantics
(``layout_transformers.py:68-125`` for image_to_data filtering,
``:128-161`` for the LayoutLMv3 forward + first-subtoken collapse).
"""

from __future__ import annotations

import contextlib
import sys
import types

import numpy as np
import pyarrow as pa
import pytest

from ocr_table_extractor_to_csv_ray.config import LayoutConfig
from ocr_table_extractor_to_csv_ray.core.doc import TokenSOA
from ocr_table_extractor_to_csv_ray.sources.synthetic import SPAN_TYPE


@contextlib.contextmanager
def fake_modules(**mods):
    saved = {}
    for name, mod in mods.items():
        saved[name] = sys.modules.get(name)
        sys.modules[name] = mod
    try:
        yield
    finally:
        for name, prev in saved.items():
            if prev is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = prev


def _media_doc(doc_id="m-1", refs=("img://m-1/p0",)):
    spans = [{"kind": "media", "text": "", "media_ref": r, "offset": i}
             for i, r in enumerate(refs)]
    return pa.table({"doc_id": pa.array([doc_id]),
                     "spans": pa.array([spans], pa.list_(SPAN_TYPE))})


# ---------------------------------------------------------------------------
# OcrStage: real pytesseract branch

def _fake_pytesseract(calls):
    mod = types.ModuleType("pytesseract")

    class Output:
        DICT = "dict"

    def image_to_data(image, output_type=None, lang=None):
        calls.append({"image": image, "output_type": output_type, "lang": lang})
        return {
            # conf parsing: "95" keeps, "40" under threshold, "abc" -> -1,
            # "88.0" float-string keeps; empty/whitespace text drops
            "level": [5, 5, 5, 5, 5],
            "conf": ["95", "40", "abc", "88.0", "91"],
            "text": ["Caja", "lowconf", "junk", "  Total  ", "   "],
            "left": [10, 20, 30, 40, 50],
            "top": [10, 10, 10, 10, 10],
            "width": [50, 50, 50, 60, 50],
            "height": [20, 20, 20, 20, 20],
        }

    mod.image_to_data = image_to_data
    mod.Output = Output
    return mod


def test_ocr_stage_real_tesseract_branch():
    from ocr_table_extractor_to_csv_ray.stages.ocr import OcrStage

    calls = []
    with fake_modules(pytesseract=_fake_pytesseract(calls)):
        stage = OcrStage(media_loader=lambda ref: f"IMG<{ref}>")
        assert stage._engine == "tesseract"
        out = stage(_media_doc())["spans"].to_pylist()[0]
    words = [s for s in out if s["kind"] == "word"]
    # conf>60 with int(float(.)) parsing, strip-before-empty-check:
    # "Caja"(95) and "Total"(88.0, stripped) survive
    assert [w["text"] for w in words] == ["Caja", "Total"]
    assert words[1]["media_ref"].endswith("/40,10,100,30")     # l,t,l+w,t+h
    assert calls and calls[0]["lang"] == LayoutConfig().ocr_lang
    assert calls[0]["image"] == "IMG<img://m-1/p0>"
    # schema identical to the fake branch
    fake_out = OcrStage()(_media_doc())
    with fake_modules(pytesseract=_fake_pytesseract([])):
        real_out = OcrStage(media_loader=lambda r: "i")(_media_doc())
    assert real_out.schema == fake_out.schema


def test_ocr_stage_real_branch_crop_and_threshold():
    from ocr_table_extractor_to_csv_ray.stages.ocr import OcrStage

    with fake_modules(pytesseract=_fake_pytesseract([])):
        # crop excludes the x=40 word; threshold 90 drops conf 88
        stage = OcrStage(LayoutConfig(table_bbox=(0, 0, 65, 100),
                                      ocr_min_confidence=90),
                         media_loader=lambda ref: "i")
        out = stage(_media_doc())["spans"].to_pylist()[0]
    assert [s["text"] for s in out if s["kind"] == "word"] == ["Caja"]


def test_ocr_stage_unloadable_media_skips_not_raises():
    from ocr_table_extractor_to_csv_ray.stages.ocr import OcrStage

    with fake_modules(pytesseract=_fake_pytesseract([])):
        stage = OcrStage(media_loader=lambda ref: None)
        out = stage(_media_doc())["spans"].to_pylist()[0]
    assert [s["kind"] for s in out] == ["media"]    # media span kept, no words


def test_ocr_duplicate_media_refs_get_distinct_pages():
    """Two media spans sharing one ref must land on pages 1 and 2
    (the old media.index() gave both page 1)."""
    from ocr_table_extractor_to_csv_ray.stages.ocr import OcrStage

    t = _media_doc(refs=("img://m-1/same", "img://m-1/same"))
    out = OcrStage()(t)["spans"].to_pylist()[0]
    # bbox ref format bbox://p{page}/... — collect the page tokens
    pages = {s["media_ref"].removeprefix("bbox://").split("/")[0]
             for s in out if s["kind"] == "word"}
    assert pages == {"p1", "p2"}


# ---------------------------------------------------------------------------
# PdfRasterizeStage: real pypdfium2 branch

def test_pdf_rasterize_real_pdfium_branch():
    from ocr_table_extractor_to_csv_ray.stages.ocr import PdfRasterizeStage

    opened = []

    class PdfDocument:
        def __init__(self, path):
            opened.append(path)

        def __len__(self):
            return 3

        def close(self):
            pass

    mod = types.ModuleType("pypdfium2")
    mod.PdfDocument = PdfDocument
    with fake_modules(pypdfium2=mod):
        st = PdfRasterizeStage()
        assert st._backend == "pdfium"
        t = pa.table({"doc_id": pa.array(["d"]),
                      "spans": pa.array([[{"kind": "media", "text": "",
                                           "media_ref": "pdf://d/file.pdf",
                                           "offset": 0}]], pa.list_(SPAN_TYPE))})
        out = st(t)["spans"].to_pylist()[0]
    assert opened == ["d/file.pdf"]                  # pdf:// prefix stripped
    assert [s["media_ref"] for s in out] == [
        f"img://d/file.pdf/page{p}" for p in (1, 2, 3)]


def test_pdf_rasterize_pdfium_failure_falls_back():
    from ocr_table_extractor_to_csv_ray.stages.ocr import PdfRasterizeStage

    class PdfDocument:
        def __init__(self, path):
            raise OSError("unreadable")

    mod = types.ModuleType("pypdfium2")
    mod.PdfDocument = PdfDocument
    with fake_modules(pypdfium2=mod):
        st = PdfRasterizeStage()
        n = st._page_count("pdf://x/f.pdf")
    assert 1 <= n <= st.max_pages                    # synthetic fallback


# ---------------------------------------------------------------------------
# LayoutScorerStage: real transformers/torch branch

class _FakeLogits:
    def __init__(self, ids):
        self._ids = ids

    def argmax(self, axis):
        return self

    def squeeze(self):
        return self

    def tolist(self):
        return list(self._ids)


def _fake_transformers_and_torch(word_ids, pred_ids, id2label):
    class Encoding(dict):
        def word_ids(self):
            return word_ids

    class Processor:
        @classmethod
        def from_pretrained(cls, model_id, apply_ocr=True):
            assert apply_ocr is False                # reference passes False
            return cls()

        def __call__(self, image, words, boxes=None, return_tensors=None):
            assert len(words) == len(boxes)
            return Encoding(input_ids=[0] * len(word_ids))

    class Outputs:
        logits = _FakeLogits(pred_ids)

    class Config:
        pass

    class Model:
        config = Config()
        config.id2label = id2label

        @classmethod
        def from_pretrained(cls, model_id):
            return cls()

        def __call__(self, **encoding):
            return Outputs()

    tmod = types.ModuleType("transformers")
    tmod.LayoutLMv3Processor = Processor
    tmod.LayoutLMv3ForTokenClassification = Model

    torch_mod = types.ModuleType("torch")
    torch_mod.no_grad = contextlib.nullcontext
    return tmod, torch_mod


def _three_tokens() -> TokenSOA:
    return TokenSOA(text=np.array(["Caja", "100", "200"], dtype=object),
                    page=np.ones(3, np.int64),
                    x1=np.array([10, 200, 400]), y1=np.array([10, 10, 10]),
                    x2=np.array([90, 280, 480]), y2=np.array([30, 30, 30]),
                    line_id=None)


def test_layout_scorer_real_branch_first_subtoken_collapse():
    from ocr_table_extractor_to_csv_ray.stages.model import LayoutScorerStage

    id2label = {0: "OTHER", 1: "HEADER_COL_1", 2: "BODY_COL_1", 3: "BODY_COL_2"}
    # word 0 splits into two subtokens: only the FIRST one's prediction
    # counts (layout_transformers.py:152-160)
    word_ids = [None, 0, 0, 1, 2, None]
    preds = [0, 1, 3, 2, 3, 0]
    tmod, torch_mod = _fake_transformers_and_torch(word_ids, preds, id2label)
    with fake_modules(transformers=tmod, torch=torch_mod):
        stage = LayoutScorerStage(image_loader=lambda doc_id: "IMG")
        assert stage._backend == "layoutlmv3"
        labels = stage._score_doc("d1", _three_tokens())
    assert labels == ["HEADER_COL_1", "BODY_COL_1", "BODY_COL_2"]


def test_layout_scorer_real_branch_schema_matches_stub():
    from ocr_table_extractor_to_csv_ray.stages.model import LayoutScorerStage
    from ocr_table_extractor_to_csv_ray.core.spans import encode_bbox_ref

    spans = [{"kind": "word", "text": t,
              "media_ref": encode_bbox_ref(1, 10 + 100 * i, 10, 90 + 100 * i, 30),
              "offset": i} for i, t in enumerate(["Caja", "100", "200"])]
    batch = pa.table({"doc_id": pa.array(["d1"]),
                      "spans": pa.array([spans], pa.list_(SPAN_TYPE))})
    stub_out = LayoutScorerStage()(batch)

    id2label = {0: "OTHER"}
    word_ids = [None, 0, 1, 2, None]
    preds = [0, 0, 0, 0, 0]
    tmod, torch_mod = _fake_transformers_and_torch(word_ids, preds, id2label)
    with fake_modules(transformers=tmod, torch=torch_mod):
        real_out = LayoutScorerStage(image_loader=lambda d: "IMG")(batch)
    assert real_out.schema == stub_out.schema
    assert len(real_out["labels"].to_pylist()[0]) == 3


def test_layout_scorer_truncated_encoding_pads_other():
    from ocr_table_extractor_to_csv_ray.stages.model import LayoutScorerStage

    id2label = {0: "OTHER", 1: "HEADER_COL_1"}
    word_ids = [None, 0, None]                 # encoding truncated after word 0
    preds = [0, 1, 0]
    tmod, torch_mod = _fake_transformers_and_torch(word_ids, preds, id2label)
    with fake_modules(transformers=tmod, torch=torch_mod):
        stage = LayoutScorerStage(image_loader=lambda d: "IMG")
        labels = stage._score_doc("d1", _three_tokens())
    assert labels == ["HEADER_COL_1", "OTHER", "OTHER"]


# ---------------------------------------------------------------------------
# Multimodal: real decode branches

def test_image_decode_real_pil_branch():
    from ocr_table_extractor_to_csv_ray.stages import multimodal as mm

    class FakeImg:
        size = (8, 8)

        def convert(self, mode):
            return self

        def resize(self, wh):
            self.size = wh
            return self

        def __array__(self, dtype=None):
            h, w = self.size[1], self.size[0]
            return np.full((h, w, 3), 7, dtype=dtype or np.uint8)

    image_mod = types.ModuleType("PIL.Image")
    image_mod.open = lambda fp: FakeImg()
    pil_mod = types.ModuleType("PIL")
    pil_mod.Image = image_mod
    with fake_modules(**{"PIL": pil_mod, "PIL.Image": image_mod}):
        st = mm.ImageDecodeStage(height=4, width=4)
        assert st._backend == "pil"
        out = st(pa.table({"media_id": pa.array(["a"]),
                           "payload": pa.array([b"\x89PNG"], pa.binary())}))
    px = np.asarray(out["pixels"].to_pylist()[0])
    assert px.shape == (4 * 4 * 3,) and (px == 7).all()

    # corrupt payload falls back to the deterministic fake, not a crash
    image_mod.open = lambda fp: (_ for _ in ()).throw(OSError("bad image"))
    with fake_modules(**{"PIL": pil_mod, "PIL.Image": image_mod}):
        st2 = mm.ImageDecodeStage(height=4, width=4)
        out2 = st2(pa.table({"media_id": pa.array(["a"]),
                             "payload": pa.array([b"junk"], pa.binary())}))
    assert len(out2["pixels"].to_pylist()[0]) == 4 * 4 * 3


# ---------------------------------------------------------------------------
# finetune_layoutlm: real torch/transformers branch (reference entry
# point 4, train_layoutlm.py:212-321) + linear fallback

def _fake_finetune_modules(record):
    """Minimal torch+transformers surface for LayoutLMTrainShard /
    LayoutLMEvalShard: numpy-backed encodings/logits, an AdamW that
    records steps, a model that always predicts OTHER (id 0)."""
    from ocr_table_extractor_to_csv_ray.functions.train import LABEL2ID

    class Loss:
        def __init__(self, v):
            self._v = v

        def item(self):
            return self._v

        def backward(self):
            record["backward"] = record.get("backward", 0) + 1

    class Encoding(dict):
        pass

    class Processor:
        @classmethod
        def from_pretrained(cls, model_id, apply_ocr=True):
            assert apply_ocr is False
            return cls()

        def __call__(self, image, words, boxes=None, word_labels=None,
                     truncation=None, padding=None, max_length=None,
                     return_tensors=None):
            assert truncation is True and padding == "max_length"
            assert len(words) == len(boxes) == len(word_labels)
            # CLS/SEP-style -100 wrapping, one subtoken per word
            labels = np.array([[-100] + list(word_labels) + [-100]])
            return Encoding(input_ids=np.zeros((1, labels.shape[1])),
                            labels=labels)

    class Outputs:
        def __init__(self, logits, loss):
            self.logits = logits
            self.loss = Loss(loss)

    class Model:
        def __init__(self):
            self._w = np.array([1.0, 2.0])

        @classmethod
        def from_pretrained(cls, model_id, num_labels=None,
                            id2label=None, label2id=None):
            assert num_labels == len(LABEL2ID)
            record["num_labels"] = num_labels
            return cls()

        def parameters(self):
            return [self._w]

        def state_dict(self):
            return {"w": self._w,
                    "steps": np.array([record.get("step", 0)], np.int64)}

        def load_state_dict(self, sd):
            record["loaded"] = {k: np.asarray(v) for k, v in sd.items()}

        def train(self):
            record["mode"] = "train"

        def eval(self):
            record["mode"] = "eval"

        def __call__(self, **enc):
            labels = enc["labels"]
            logits = np.zeros(labels.shape + (record["num_labels"],))
            logits[..., 0] = 1.0          # always predict OTHER
            return Outputs(logits, 0.5)

    tmod = types.ModuleType("transformers")
    tmod.LayoutLMv3Processor = Processor
    tmod.LayoutLMv3ForTokenClassification = Model

    class AdamW:
        def __init__(self, params, lr=None):
            record["lr"] = lr

        def step(self):
            record["step"] = record.get("step", 0) + 1

        def zero_grad(self):
            pass

    torch_mod = types.ModuleType("torch")
    torch_mod.no_grad = contextlib.nullcontext
    torch_mod.as_tensor = np.asarray
    torch_mod.optim = types.SimpleNamespace(AdamW=AdamW)
    return tmod, torch_mod


def _examples_batch():
    return pa.table({
        "doc_id": pa.array(["d1", "d2"]),
        "words": pa.array([["Caja", "100"], ["Total"]],
                          pa.list_(pa.string())),
        "bboxes": pa.array([[[0, 0, 10, 10], [20, 0, 30, 10]],
                            [[0, 20, 10, 30]]],
                           pa.list_(pa.list_(pa.int64()))),
        "labels": pa.array([["HEADER_COL_0", "BODY_COL_0"], ["OTHER"]],
                           pa.list_(pa.string())),
    })


def test_finetune_train_shard_real_branch_schema():
    from ocr_table_extractor_to_csv_ray.functions.finetune import (
        LayoutLMTrainShard, bytes_to_state)

    record = {}
    tmod, torch_mod = _fake_finetune_modules(record)
    with fake_modules(transformers=tmod, torch=torch_mod):
        shard = LayoutLMTrainShard(image_loader=lambda d: "IMG",
                                   lr=3e-5, local_epochs=2)
        out = shard(_examples_batch())
    assert out.column_names == ["state", "n_tokens", "loss_sum", "n_examples"]
    assert out["n_examples"].to_pylist() == [2]
    assert out["n_tokens"].to_pylist() == [3]       # -100 wraps excluded
    # loss_sum only counts the FIRST local epoch: 0.5*2 + 0.5*1
    assert out["loss_sum"].to_pylist() == [1.5]
    assert record["step"] == 4                       # 2 docs x 2 epochs
    assert record["lr"] == 3e-5
    state = bytes_to_state(out["state"].to_pylist()[0])
    assert set(state) == {"w", "steps"}


def test_finetune_eval_shard_masks_minus_100():
    from ocr_table_extractor_to_csv_ray.functions.finetune import LayoutLMEvalShard

    record = {}
    tmod, torch_mod = _fake_finetune_modules(record)
    with fake_modules(transformers=tmod, torch=torch_mod):
        shard = LayoutLMEvalShard(image_loader=lambda d: "IMG")
        out = shard(_examples_batch())
    # model predicts OTHER everywhere; only d2's single OTHER matches
    assert out["correct"].to_pylist() == [1]
    assert out["n_tokens"].to_pylist() == [3]
    assert out["loss_sum"].to_pylist() == [1.5]
    assert record["mode"] == "eval"
    assert "step" not in record                      # no optimizer in eval


def test_finetune_shard_loads_broadcast_weights():
    import ray
    from ocr_table_extractor_to_csv_ray.functions.finetune import (
        LayoutLMEvalShard, state_to_bytes)

    record = {}
    tmod, torch_mod = _fake_finetune_modules(record)
    ref = ray.put(state_to_bytes({"w": np.array([9.0, 9.0]),
                                  "steps": np.array([7], np.int64)}))
    with fake_modules(transformers=tmod, torch=torch_mod):
        LayoutLMEvalShard(weights_ref=ref)
    assert np.array_equal(record["loaded"]["w"], [9.0, 9.0])
    assert record["loaded"]["steps"].dtype == np.int64


def test_fedavg_weighted_average_preserves_dtypes():
    from ocr_table_extractor_to_csv_ray.functions.finetune import (
        bytes_to_state, fedavg, state_to_bytes)

    a = state_to_bytes({"w": np.array([0.0, 4.0]),
                        "ids": np.array([1, 2], np.int64)})
    b = state_to_bytes({"w": np.array([2.0, 0.0]),
                        "ids": np.array([1, 2], np.int64)})
    avg = bytes_to_state(fedavg([a, b], [1, 3]))
    assert np.allclose(avg["w"], [1.5, 1.0])         # 0.25/0.75 weighting
    assert avg["ids"].dtype == np.int64 and avg["ids"].tolist() == [1, 2]


def test_finetune_falls_back_without_torch(ray_session):
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.finetune import (
        finetune_layoutlm, probe_backend)

    assert probe_backend() == "linear-fallback"      # container has no torch
    t = _examples_batch().append_column("error", pa.array(["", ""]))
    out = finetune_layoutlm(rd.from_arrow(t), n_rounds=1)
    assert list(out.columns) == ["backend", "n_examples", "n_tokens",
                                 "initial_loss", "final_loss",
                                 "token_accuracy"]
    assert out["backend"][0] == "linear-fallback"
    assert out["n_examples"][0] == 2 and out["n_tokens"][0] == 3


def _fake_grad_modules(record):
    """Extend the finetune fakes with the gradient surface the
    step-sync worker needs (named_parameters / zero_grad / loss*k →
    backward sets grads)."""
    tmod, torch_mod = _fake_finetune_modules(record)
    Base = tmod.LayoutLMv3ForTokenClassification

    class GradModel(Base):
        def __init__(self):
            super().__init__()
            self._param = types.SimpleNamespace(grad=None)

        @classmethod
        def from_pretrained(cls, model_id, num_labels=None,
                            id2label=None, label2id=None):
            record["num_labels"] = num_labels
            return cls()

        def named_parameters(self):
            return [("w", self._param)]

        def zero_grad(self):
            self._param.grad = None

        def __call__(self, **enc):
            out = super().__call__(**enc)
            model = self

            class ScaledLoss:
                def __init__(self, v):
                    self._v = v

                def item(self):
                    return self._v

                def __mul__(self, k):
                    return types.SimpleNamespace(
                        backward=lambda: model._set_grad(k))

            out.loss = ScaledLoss(0.5)
            return out

        def _set_grad(self, n):
            # d(sum-of-token-losses)/dw for this doc: [1, 2] * n_valid
            self._param.grad = np.array([1.0, 2.0]) * n

    tmod.LayoutLMv3ForTokenClassification = GradModel
    return tmod, torch_mod


def test_stepsync_grad_worker_quantized_partials(ray_session):
    """LayoutLMGradWorker serves per-minibatch int64 fixed-point
    gradients over its global-index slice; the codec splits float
    params from frozen integer buffers."""
    import ray
    from ocr_table_extractor_to_csv_ray.functions.finetune import (
        GRAD_SCALE, LayoutLMGradWorker, _ParamCodec)

    record = {}
    tmod, torch_mod = _fake_grad_modules(record)
    ref = ray.put(_examples_batch())
    with fake_modules(transformers=tmod, torch=torch_mod):
        w = LayoutLMGradWorker([ref], image_loader=lambda d: "IMG")
        assert w.count() == 2
        w.set_base(0)
        flat0 = np.array([1.0, 2.0])
        # whole minibatch [0, 2): d1 has 2 unmasked tokens, d2 has 1
        g, loss_q, n_tok = w.grad(flat0, 0, 2)
        S = GRAD_SCALE
        assert n_tok == 3
        assert g.tolist() == [round(3 * S), round(6 * S)]
        assert loss_q == round(0.5 * 3 * S)
        # slice [1, 2): only d2 contributes
        g2, loss_q2, n2 = w.grad(flat0, 1, 2)
        assert n2 == 1 and g2.tolist() == [round(S), round(2 * S)]
        # disjoint slice: zero contribution (the all-reduce identity)
        g0, l0, n0 = w.grad(flat0, 5, 9)
        assert n0 == 0 and g0.tolist() == [0, 0] and l0 == 0
        # broadcast weights actually reach the model
        assert np.array_equal(record["loaded"]["w"], flat0)
        assert record["loaded"]["steps"].dtype == np.int64  # frozen buffer

    # codec: float params flatten; integer buffers frozen, dtypes kept
    codec = _ParamCodec({"w": np.array([3.0, 4.0], np.float32),
                         "ids": np.array([7, 8], np.int64)})
    flat = codec.flatten({"w": np.array([3.0, 4.0], np.float32)})
    state = codec.unflatten(flat + 1.0)
    assert state["w"].dtype == np.float32
    assert state["w"].tolist() == [4.0, 5.0]
    assert state["ids"].tolist() == [7, 8]
