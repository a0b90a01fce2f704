"""A5-real — the LayoutLMv3 fine-tune entry point (reference
``train_layoutlm.py:212-321``), torch-optional.

The reference fine-tunes ``microsoft/layoutlmv3-base`` with the HF
Trainer over the dataset-builder examples. Re-expressed Ray-Data-first:

- **Backend probe** (the same import-probe-with-fallback contract as
  ``stages/model.py::LayoutScorerStage``): with torch+transformers
  importable the real model trains; without them the call falls back to
  the linear token classifier (``functions/train.py``) with an
  identical output schema, so pipelines are portable between hosts.
- **Data-parallel rounds, not a driver loop**: each round is one
  ``map_batches`` over the train split with an actor-pool shard trainer
  (:class:`LayoutLMTrainShard` — model load once per actor in
  ``__init__``); every shard runs local AdamW epochs on its documents
  and emits its updated weights + token count; the driver
  token-weight-averages the shard states (FedAvg, McMahan et al. 2017,
  a public algorithm) and broadcasts the new global weights via one
  ``ray.put`` for the next round. Weights move ``n_shards × |W|`` per
  round through the object store; documents never leave their shard.
- **Metrics**: an eval pass (:class:`LayoutLMEvalShard`) before round 1
  and after the last round gives ``initial_loss`` / ``final_loss`` /
  ``token_accuracy`` with the reference's −100 masking
  (``train_layoutlm.py:167-183``), as streaming partial sums.

State dicts are serialized as plain ``np.savez`` arrays (not torch
pickles) so averaging is numpy-side and dtype-preserving — integer
buffers (position ids) are averaged in float64 and cast back.

Train/eval split is the engine's deterministic ``hash_split``
(``functions/split.py``) rather than the reference's seeded
index shuffle — cluster-stable and shuffle-free; pass
``split="shuffle"`` for the reference's exact sampling model.
"""

from __future__ import annotations

import io
import logging
from typing import Callable, Dict, List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from .split import hash_split, seeded_shuffle_split
from .train import (LABEL2ID, ShardGradWorker, _doc_rows, result_frame,
                    stepsync, train_token_classifier,
                    train_token_classifier_stepsync, training_examples)

log = logging.getLogger(__name__)

DEFAULT_MODEL_ID = "microsoft/layoutlmv3-base"


def probe_backend() -> str:
    """'layoutlmv3' when torch+transformers import, else 'linear-fallback'."""
    try:
        import torch  # noqa: F401
        from transformers import (LayoutLMv3ForTokenClassification,  # noqa: F401
                                  LayoutLMv3Processor)  # noqa: F401
        return "layoutlmv3"
    except ImportError:
        return "linear-fallback"


def _to_numpy(v) -> np.ndarray:
    if hasattr(v, "detach"):                     # torch tensor
        v = v.detach().cpu().numpy()
    return np.asarray(v)


def state_to_bytes(state_dict: Dict) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **{k: _to_numpy(v) for k, v in state_dict.items()})
    return buf.getvalue()


def bytes_to_state(data: bytes) -> Dict[str, np.ndarray]:
    with np.load(io.BytesIO(data)) as z:
        return {k: z[k] for k in z.files}


def fedavg(states: List[bytes], weights: List[int]) -> bytes:
    """Token-count-weighted average of serialized shard states.

    Average in float64, cast back to each entry's original dtype —
    float params average exactly; integer buffers (identical across
    shards anyway) round-trip unchanged.
    """
    total = float(sum(weights))
    if total <= 0:
        return states[0]
    acc: Optional[Dict[str, np.ndarray]] = None
    dtypes: Dict[str, np.dtype] = {}
    for data, w in zip(states, weights):
        sd = bytes_to_state(data)
        if acc is None:
            dtypes = {k: v.dtype for k, v in sd.items()}
            acc = {k: v.astype(np.float64) * (w / total)
                   for k, v in sd.items()}
        else:
            for k, v in sd.items():
                acc[k] += v.astype(np.float64) * (w / total)
    assert acc is not None
    out = {}
    for k, v in acc.items():
        dt = dtypes[k]
        out[k] = (np.rint(v).astype(dt) if np.issubdtype(dt, np.integer)
                  else v.astype(dt))
    return state_to_bytes(out)


def _blank_page(boxes: List[List[int]]):
    """White canvas stand-in when no ``image_loader`` supplies the real
    page bitmap (same contract as ``LayoutScorerStage._page_image``)."""
    from PIL import Image
    w = int(max((b[2] for b in boxes), default=1)) + 10
    h = int(max((b[3] for b in boxes), default=1)) + 10
    return Image.new("RGB", (max(w, 1), max(h, 1)), "white")


class _ShardBase:
    """Shared once-per-actor model/processor load + per-doc encoding."""

    def __init__(self, model_id: str = DEFAULT_MODEL_ID, weights_ref=None,
                 max_seq_length: int = 512,
                 image_loader: Optional[Callable] = None) -> None:
        import torch
        from transformers import (LayoutLMv3ForTokenClassification,
                                  LayoutLMv3Processor)
        self._torch = torch
        self._processor = LayoutLMv3Processor.from_pretrained(
            model_id, apply_ocr=False)
        id2label = {v: k for k, v in LABEL2ID.items()}
        self._model = LayoutLMv3ForTokenClassification.from_pretrained(
            model_id, num_labels=len(LABEL2ID), id2label=id2label,
            label2id=dict(LABEL2ID))
        if weights_ref is not None:
            import ray
            state = bytes_to_state(ray.get(weights_ref))
            self._model.load_state_dict(
                {k: torch.as_tensor(v) for k, v in state.items()})
        self._max_seq_length = max_seq_length
        self._image_loader = image_loader

    def _encode(self, doc_id: str, words: List[str], boxes: List[List[int]],
                labels: List[str]):
        y = [LABEL2ID.get(l, 0) for l in labels]
        image = (self._image_loader(doc_id) if self._image_loader
                 else _blank_page(boxes))
        return self._processor(image, [str(w) for w in words],
                               boxes=[list(b) for b in boxes],
                               word_labels=y, truncation=True,
                               padding="max_length",
                               max_length=self._max_seq_length,
                               return_tensors="pt")


class LayoutLMTrainShard(_ShardBase):
    """Actor: local AdamW fine-tune of one shard; one output row
    ``(state: binary, n_tokens, loss_sum, n_examples)`` per batch.

    ``loss_sum`` is the per-token-summed loss of the FIRST local epoch
    (HF's ``outputs.loss`` is the mean over unmasked tokens — rescaled
    by the doc's unmasked count so partials sum globally).
    """

    def __init__(self, model_id: str = DEFAULT_MODEL_ID, weights_ref=None,
                 lr: float = 5e-5, local_epochs: int = 1,
                 max_seq_length: int = 512,
                 image_loader: Optional[Callable] = None) -> None:
        super().__init__(model_id, weights_ref, max_seq_length, image_loader)
        self._lr = lr
        self._local_epochs = max(1, int(local_epochs))

    def __call__(self, batch: pa.Table) -> pa.Table:
        torch = self._torch
        if hasattr(self._model, "train"):
            self._model.train()
        opt = torch.optim.AdamW(self._model.parameters(), lr=self._lr)
        loss_sum, n_tok, n_ex = 0.0, 0, 0
        for epoch in range(self._local_epochs):
            for doc_id, words, boxes, labels in _doc_rows(batch):
                if not words:
                    continue
                enc = self._encode(doc_id, words, boxes, labels)
                out = self._model(**enc)
                n_valid = int((_to_numpy(enc["labels"]) != -100).sum())
                if epoch == 0:
                    loss_sum += float(out.loss.item()) * n_valid
                    n_tok += n_valid
                    n_ex += 1
                out.loss.backward()
                opt.step()
                opt.zero_grad()
        state = state_to_bytes(self._model.state_dict())
        return pa.table({
            "state": pa.array([state], pa.binary()),
            "n_tokens": pa.array([n_tok], pa.int64()),
            "loss_sum": pa.array([loss_sum], pa.float64()),
            "n_examples": pa.array([n_ex], pa.int64()),
        })


class LayoutLMEvalShard(_ShardBase):
    """Actor: frozen-weights metrics partial
    ``(correct, n_tokens, loss_sum)`` with the reference's
    −100 subtoken masking (``train_layoutlm.py:167-183``)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        torch = self._torch
        if hasattr(self._model, "eval"):
            self._model.eval()
        correct, n_tok, loss_sum = 0, 0, 0.0
        with torch.no_grad():
            for doc_id, words, boxes, labels in _doc_rows(batch):
                if not words:
                    continue
                enc = self._encode(doc_id, words, boxes, labels)
                out = self._model(**enc)
                y = _to_numpy(enc["labels"]).reshape(-1)
                preds = _to_numpy(out.logits).argmax(-1).reshape(-1)
                mask = y != -100
                correct += int((preds[mask] == y[mask]).sum())
                n_valid = int(mask.sum())
                loss_sum += float(out.loss.item()) * n_valid
                n_tok += n_valid
        return pa.table({
            "correct": pa.array([correct], pa.int64()),
            "n_tokens": pa.array([n_tok], pa.int64()),
            "loss_sum": pa.array([loss_sum], pa.float64()),
        })


GRAD_SCALE = float(1 << 24)      # fixed-point gradient quantization


class _ParamCodec:
    """Canonical flatten/unflatten of a model state dict: float params
    concatenate (sorted by name) into ONE float64 vector the driver
    optimizes; integer buffers (position ids …) pass through frozen."""

    def __init__(self, state: Dict[str, np.ndarray]) -> None:
        self.float_names = sorted(k for k, v in state.items()
                                  if np.issubdtype(np.asarray(v).dtype,
                                                   np.floating))
        self.shapes = {k: np.asarray(state[k]).shape for k in self.float_names}
        self.dtypes = {k: np.asarray(state[k]).dtype for k in self.float_names}
        self.frozen = {k: np.asarray(v) for k, v in state.items()
                       if k not in set(self.float_names)}
        self.sizes = [int(np.prod(self.shapes[k]) or 1)
                      for k in self.float_names]
        self.total = int(sum(self.sizes))

    def flatten(self, state: Dict[str, np.ndarray]) -> np.ndarray:
        return np.concatenate(
            [np.asarray(state[k], np.float64).reshape(-1)
             for k in self.float_names]) if self.float_names else np.zeros(0)

    def unflatten(self, flat: np.ndarray) -> Dict[str, np.ndarray]:
        out = dict(self.frozen)
        off = 0
        for k, n in zip(self.float_names, self.sizes):
            out[k] = flat[off:off + n].reshape(self.shapes[k]) \
                         .astype(self.dtypes[k])
            off += n
        return out


class LayoutLMGradWorker(ShardGradWorker, _ShardBase):
    """Step-sync shard actor (:class:`~.train.ShardGradWorker`) serving
    per-minibatch quantized LayoutLM gradients: per-document backward →
    per-document int64 quantization → integer sum, the same fixed-point
    reduce ``train.py`` uses, at ``GRAD_SCALE``."""

    SCALE = GRAD_SCALE

    def __init__(self, table_refs, model_id: str = DEFAULT_MODEL_ID,
                 max_seq_length: int = 512,
                 image_loader: Optional[Callable] = None) -> None:
        _ShardBase.__init__(self, model_id, None, max_seq_length,
                            image_loader)
        ShardGradWorker.__init__(self, table_refs)
        self._codec = _ParamCodec(self._state())

    def _state(self) -> Dict[str, np.ndarray]:
        return {k: _to_numpy(v) for k, v in self._model.state_dict().items()}

    def init_weights(self) -> np.ndarray:
        return self._codec.flatten(self._state())

    def export(self, W: np.ndarray) -> bytes:
        return state_to_bytes(self._codec.unflatten(W))

    def _params(self, W: np.ndarray) -> None:
        torch = self._torch
        self._model.load_state_dict(
            {k: torch.as_tensor(v)
             for k, v in self._codec.unflatten(W).items()})
        self._model.train()

    def _doc_grad(self, _, doc):
        enc = self._encode(*doc)
        out = self._model(**enc)
        n_valid = int((_to_numpy(enc["labels"]) != -100).sum())
        self._model.zero_grad()
        (out.loss * n_valid).backward()   # sum-of-token-losses grads
        flat_g = np.concatenate([
            (_to_numpy(p.grad) if p.grad is not None
             else np.zeros(self._codec.shapes[name])).reshape(-1)
            for name, p in sorted(self._model.named_parameters())
            if name in self._codec.shapes] or [np.zeros(0)])
        # token accuracy is read by the eval pass, not per step
        return flat_g, float(out.loss.item()) * n_valid, n_valid, 0


def _eval_pass(ds, shard_kwargs: dict, batch_size: int, concurrency):
    parts = ds.map_batches(
        LayoutLMEvalShard, fn_constructor_kwargs=shard_kwargs,
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency).to_pandas()
    return (int(parts["correct"].sum()), int(parts["n_tokens"].sum()),
            float(parts["loss_sum"].sum()))


def finetune_layoutlm(examples_ds, *, model_id: str = DEFAULT_MODEL_ID,
                      n_rounds: int = 2, local_epochs: int = 1,
                      lr: float = 5e-5, eval_ratio: float = 0.1,
                      max_seq_length: int = 512, seed: int = 42,
                      split: str = "hash", output_dir: Optional[str] = None,
                      image_loader: Optional[Callable] = None,
                      batch_size: int = 8, concurrency=None,
                      strategy: str = "fedavg",
                      global_batch_size: int = 8, n_shards: int = 4,
                      weight_decay: float = 0.0) -> pd.DataFrame:
    """Fine-tune LayoutLMv3 on dataset-builder examples; one result row
    ``(backend, n_examples, n_tokens, initial_loss, final_loss,
    token_accuracy)``.

    ``strategy``: ``"fedavg"`` (default — shard-local epochs, then
    token-weighted averaging; the throughput option) or ``"step_sync"``
    (one AdamW update per global minibatch with a cross-shard gradient
    all-reduce — HF-Trainer step semantics, reference
    ``train_layoutlm.py:284-298``; FedAvg's epochs-then-average is NOT
    step-equivalent to the reference optimizer, this mode is). In
    step_sync mode ``n_rounds`` plays the epoch role and
    ``global_batch_size``/``n_shards``/``weight_decay`` shape the loop.

    Without torch/transformers this logs a warning and falls back to
    the linear token classifier (same schema, backend
    ``linear-fallback``) — :func:`~.train.train_token_classifier` for
    fedavg, :func:`~.train.train_token_classifier_stepsync` for
    step_sync — the portability contract every real backend in this
    repo follows.
    """
    if strategy not in ("fedavg", "step_sync"):
        raise ValueError(f"strategy={strategy!r} — 'fedavg' or 'step_sync'")
    backend = probe_backend()
    if backend == "linear-fallback":
        log.warning(
            "torch/transformers unavailable — reference entry point 4 "
            "(train_layoutlm.py) running as the linear token classifier "
            "(functions/train.py), same output schema")
        if strategy == "step_sync":
            out = train_token_classifier_stepsync(
                examples_ds, n_epochs=n_rounds, lr=lr,
                global_batch_size=global_batch_size, n_shards=n_shards,
                weight_decay=weight_decay)
        else:
            out = train_token_classifier(examples_ds)
        out.insert(0, "backend", "linear-fallback")
        return out

    import ray
    from ..stages import pool_size

    # consumed 2 + n_rounds times; at corpus scale checkpoint to parquet
    ex = training_examples(examples_ds).materialize()
    splitter = hash_split if split == "hash" else seeded_shuffle_split
    train_ds, eval_ds = splitter(ex, eval_ratio=eval_ratio, seed=seed)
    train_ds = train_ds.materialize()
    eval_ds = eval_ds.materialize()
    if eval_ds.count() == 0:                     # reference: eval strategy
        eval_ds = train_ds                       # "no" → score on train
    base_kwargs = dict(model_id=model_id, max_seq_length=max_seq_length,
                       image_loader=image_loader)
    conc = pool_size(concurrency or 4)

    _, n0, loss0 = _eval_pass(eval_ds, {**base_kwargs, "weights_ref": None},
                              batch_size, conc)
    if strategy == "step_sync":
        state, n_train, _ = stepsync(
            train_ds, LayoutLMGradWorker, base_kwargs, n_epochs=n_rounds,
            lr=lr, global_batch_size=global_batch_size, n_shards=n_shards,
            weight_decay=weight_decay)
        weights_ref = ray.put(state)
    else:
        weights_ref = None
        n_train = 0
        for _ in range(max(1, int(n_rounds))):
            parts = train_ds.map_batches(
                LayoutLMTrainShard,
                fn_constructor_kwargs={**base_kwargs,
                                       "weights_ref": weights_ref,
                                       "lr": lr, "local_epochs": local_epochs},
                batch_format="pyarrow", batch_size=batch_size,
                concurrency=conc).to_pandas()
            n_train = int(parts["n_examples"].sum())
            state = fedavg(list(parts["state"]), list(parts["n_tokens"]))
            weights_ref = ray.put(state)

    correct, n_tok, loss_f = _eval_pass(
        eval_ds, {**base_kwargs, "weights_ref": weights_ref},
        batch_size, conc)

    if output_dir is not None:
        # trainer.save_model + processor.save_pretrained equivalent
        # (train_layoutlm.py:298-300)
        shard = _ShardBase(model_id=model_id, weights_ref=weights_ref,
                           max_seq_length=max_seq_length)
        shard._model.save_pretrained(output_dir)
        shard._processor.save_pretrained(output_dir)

    out = result_frame(n_train, n_tok, loss0 / n0 if n0 else 0.0, loss_f,
                       correct)
    out.insert(0, "backend", backend)
    return out
