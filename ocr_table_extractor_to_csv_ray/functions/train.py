"""A5 — model fine-tuning, Ray-Data-native (reference
``train_layoutlm.py:212-321``).

The reference fine-tunes LayoutLMv3 with the HF Trainer on the
dataset-builder JSONL. This container has no torch, and a faithful port
would be Ray Train territory anyway — so the engine ships the same
*training pipeline shape* on a model it can own end-to-end: a linear
softmax token classifier over deterministic features (normalized bbox
geometry + hashed-token buckets — the same inputs LayoutLM embeds),
trained by synchronous data-parallel full-batch gradient descent:

    examples (materialized once; at 100 TB: checkpointed parquet)
      └─ per epoch: map_batches(per-doc gradients, QUANTIZED int64)
      └─ tiny partial-row reduce → driver updates W → ray.put(W)
      └─ final map_batches metrics pass → loss + token_accuracy

**Bit-exact determinism under any parallelism** is the design point:
per-document float64 gradients are quantized to int64 fixed-point
(``scale``) *before* summation, so the global sum is an integer sum —
associative and order-independent — no matter how Ray splits blocks.
The same property makes the result verifiable by a sequential oracle
(tools/gen_oracle_expected.py) and reproducible across cluster sizes,
which floating-point AllReduce is not.

The per-epoch driver step handles ~``C×d`` integers per block — KBs.
Everything heavy (features, matmuls) runs inside ``map_batches``.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from .textstats import token_hash64

# fixed label vocabulary (reference label space, train_layoutlm.py /
# dataset_builder.py: OTHER + {HEADER,BODY}_COL_0..5)
LABEL2ID: Dict[str, int] = {"OTHER": 0}
for _p in ("HEADER", "BODY"):
    for _i in range(6):
        LABEL2ID[f"{_p}_COL_{_i}"] = len(LABEL2ID)
N_CLASSES = len(LABEL2ID)

N_GEOM = 7          # bias, x1, y1, x2, y2, w, h (bboxes are 0-1000)
DEFAULT_BUCKETS = 32
SCALE = float(1 << 20)          # fixed-point gradient quantization


def _doc_features(words: List[str], bboxes: List[List[int]],
                  n_buckets: int) -> np.ndarray:
    """(n_tokens × d) float64 feature matrix for one document."""
    n = len(words)
    d = N_GEOM + n_buckets
    X = np.zeros((n, d), np.float64)
    X[:, 0] = 1.0
    if n:
        bb = np.asarray(bboxes, np.float64).reshape(n, 4) / 1000.0
        X[:, 1:5] = bb
        X[:, 5] = bb[:, 2] - bb[:, 0]
        X[:, 6] = bb[:, 3] - bb[:, 1]
        for i, w in enumerate(words):
            X[i, N_GEOM + token_hash64((w or "").lower()) % n_buckets] = 1.0
    return X


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _doc_rows(t: pa.Table):
    """``(doc_id, words, bboxes, labels)`` per example row."""
    return zip(t["doc_id"].to_pylist(), t["words"].to_pylist(),
               t["bboxes"].to_pylist(), t["labels"].to_pylist())


def _doc_grad(W: np.ndarray, words, bboxes, labels, n_buckets: int):
    """One document at ``W`` (C × d): the flat softmax-loss gradient,
    the summed token loss, the token count and the correct tokens."""
    X = _doc_features(words, bboxes, n_buckets)
    y = np.fromiter((LABEL2ID.get(l, 0) for l in labels),
                    np.int64, count=len(labels))
    P = _softmax(X @ W.T)
    rows = np.arange(len(y))
    loss = -np.log(np.maximum(P[rows, y], 1e-300)).sum()
    correct = int((P.argmax(axis=1) == y).sum())
    P[rows, y] -= 1.0
    return (P.T @ X).reshape(-1), loss, len(y), correct


def fixed_point_sum(per_doc, size: int, scale: float):
    """Sum per-document ``(grad, loss, n_tokens, correct)`` as
    ``(int64 grad, loss_q, n_tokens, correct)``. Each document is
    quantized to int64 fixed-point (``scale``) BEFORE the sum, so the
    total is an integer sum: identical for every split of the documents
    into batches or shards."""
    gsum = np.zeros(size, np.int64)
    loss_q = n_tok = correct = 0
    for g, loss, n, c in per_doc:
        gsum += np.round(g * scale).astype(np.int64)
        loss_q += int(round(loss * scale))
        n_tok += n
        correct += c
    return gsum, loss_q, n_tok, correct


def _partials_batch(batch: pa.Table, w_ref, n_buckets: int) -> pa.Table:
    """One partial row per batch: quantized (grad, loss_q, n_tokens,
    correct) at the broadcast weights."""
    import ray
    W = ray.get(w_ref)                      # (C × d) float64
    g, loss_q, n_tok, correct = fixed_point_sum(
        (_doc_grad(W, w, bb, lb, n_buckets)
         for _, w, bb, lb in _doc_rows(batch) if w), W.size, SCALE)
    return pa.table({
        "grad": pa.array([g], pa.list_(pa.int64(), W.size)),
        "loss_q": pa.array([loss_q], pa.int64()),
        "n_tokens": pa.array([n_tok], pa.int64()),
        "correct": pa.array([correct], pa.int64()),
    })


def _partials(ex, W: np.ndarray, n_buckets: int):
    """``(int64 grad, loss_q, n_tokens, correct)`` over all of ``ex``."""
    import ray
    parts = ex.map_batches(
        functools.partial(_partials_batch, w_ref=ray.put(W),
                          n_buckets=n_buckets),
        batch_format="pyarrow").to_pandas()
    g = np.sum([np.asarray(v, np.int64) for v in parts["grad"]], axis=0,
               dtype=np.int64) if len(parts) else np.zeros(W.size, np.int64)
    return (g, int(parts["loss_q"].sum()), int(parts["n_tokens"].sum()),
            int(parts["correct"].sum()))


def training_examples(examples_ds):
    """The dataset-builder examples a trainer reads: errored docs
    dropped, projected to ``doc_id, words, bboxes, labels``."""
    import pyarrow.compute as pc
    return (examples_ds
            .map_batches(lambda t: t.filter(pc.equal(t["error"], "")),
                         batch_format="pyarrow")
            .select_columns(["doc_id", "words", "bboxes", "labels"]))


def result_frame(n_examples: int, n_tokens: int,
                 initial_loss: Optional[float], loss_sum: float,
                 correct: int) -> pd.DataFrame:
    """The one trainer result row: ``initial_loss`` is a per-token mean
    (None → 0.0); ``loss_sum`` and ``correct`` are totals over
    ``n_tokens`` at the final weights."""
    return pd.DataFrame({
        "n_examples": pd.array([n_examples], dtype="int64"),
        "n_tokens": pd.array([n_tokens], dtype="int64"),
        "initial_loss": pd.array([initial_loss or 0.0], dtype="float64"),
        "final_loss": pd.array([loss_sum / n_tokens if n_tokens else 0.0],
                               dtype="float64"),
        "token_accuracy": pd.array([correct / n_tokens if n_tokens else 0.0],
                                   dtype="float64"),
    })


def adamw_step(W: np.ndarray, m: np.ndarray, v: np.ndarray, g: np.ndarray,
               t: int, lr: float, betas=(0.9, 0.999), eps: float = 1e-8,
               weight_decay: float = 0.0):
    """One decoupled-weight-decay Adam update (torch.optim.AdamW
    semantics: decay applied to W directly, not through the moments).
    Pure numpy so the driver can own optimizer state for any backend."""
    b1, b2 = betas
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    mhat = m / (1.0 - b1 ** t)
    vhat = v / (1.0 - b2 ** t)
    W = W * (1.0 - lr * weight_decay) - lr * mhat / (np.sqrt(vhat) + eps)
    return W, m, v


class ShardGradWorker:
    """Step-sync shard actor: holds its contiguous slice of the
    doc_id-sorted examples (pulled from block ObjectRefs, never via the
    driver) and serves per-minibatch quantized gradients.

    Global minibatch step s covers global doc indexes
    ``[s·B, (s+1)·B)``; the worker contributes the intersection with its
    own ``[base, base+len)`` range, so summing the int64 partials across
    workers IS the all-reduce — bit-identical to a sequential pass over
    the same minibatch (:func:`fixed_point_sum`).

    A subclass sets ``SCALE`` and supplies ``init_weights()`` (the flat
    float64 start vector), ``_params(W)`` (flat weights → what
    ``_doc_grad`` reads, once per step), ``_doc_grad(params, doc)``
    (``(grad, loss, n_tokens, correct)`` of one ``(doc_id, words,
    bboxes, labels)`` row) and ``export(W)`` (the final flat weights →
    what the trainer returns)."""

    SCALE = SCALE

    def __init__(self, table_refs) -> None:
        import ray
        self._shard = [d for t in ray.get(list(table_refs))
                       for d in _doc_rows(t)]
        self._base = 0

    def count(self) -> int:
        return len(self._shard)

    def set_base(self, base: int) -> None:
        self._base = int(base)

    def grad(self, W: np.ndarray, lo: int, hi: int):
        """Quantized (grad, loss_q, n_tokens) over global idx ∩ shard."""
        W = np.asarray(W, np.float64)
        params = self._params(W)
        docs = self._shard[max(lo - self._base, 0):max(hi - self._base, 0)]
        return fixed_point_sum((self._doc_grad(params, d) for d in docs
                                if d[1]), W.size, self.SCALE)[:3]


class _LinearGradWorker(ShardGradWorker):
    """The linear token classifier's shard: ``W`` is (C × d) flattened."""

    def __init__(self, table_refs, n_buckets: int) -> None:
        super().__init__(table_refs)
        self._n_buckets = n_buckets

    def init_weights(self) -> np.ndarray:
        return np.zeros(N_CLASSES * (N_GEOM + self._n_buckets), np.float64)

    def export(self, W: np.ndarray) -> np.ndarray:
        return W.reshape(N_CLASSES, -1)

    _params = export

    def _doc_grad(self, W: np.ndarray, doc):
        return _doc_grad(W, *doc[1:], self._n_buckets)


def stepsync(ds, worker_cls, worker_kwargs: dict, *, n_epochs: int,
             lr: float, global_batch_size: int, n_shards: int,
             weight_decay: float):
    """The step-sync driver (HF-Trainer step semantics, reference
    ``train_layoutlm.py:284-298``) for any :class:`ShardGradWorker`:
    ``ds`` sorted by ``doc_id`` is split into contiguous shards, each
    held by a persistent Ray actor (the Dataset API cannot express
    lockstep iteration — the one sanctioned raw-actor case). Per global
    minibatch the driver ``ray.put``s W once, sums the shards' int64
    partials and applies :func:`adamw_step`. The actors are killed on
    every path.

    Per step the wire carries n_shards × |W| int64 up and |W| float64
    down, independent of corpus size; at 10^9+ params swap the driver
    reduce for a tree/collective all-reduce, the quantization contract
    unchanged. Returns ``(worker.export(W_final), n_docs,
    initial_loss)``, the loss a per-token mean over the first non-empty
    minibatch (None when no minibatch had a token)."""
    import ray

    ordered = ds.sort("doc_id").materialize()   # deterministic minibatches
    n_shards = max(1, min(int(n_shards), ordered.count()))
    Worker = ray.remote(worker_cls)
    actors = [Worker.remote(split.to_arrow_refs(), **worker_kwargs)
              for split in ordered.split(n_shards, equal=False)]
    try:
        counts = ray.get([a.count.remote() for a in actors])
        bases = np.cumsum([0] + counts[:-1])
        ray.get([a.set_base.remote(int(b)) for a, b in zip(actors, bases)])
        n_docs = int(sum(counts))
        W = ray.get(actors[0].init_weights.remote())
        m = np.zeros_like(W)
        v = np.zeros_like(W)
        scale = worker_cls.SCALE
        B = max(1, int(global_batch_size))
        t = 0
        initial_loss = None
        for _ in range(max(1, int(n_epochs))):
            for lo in range(0, n_docs, B):
                w_step = ray.put(W)  # broadcast once per step, not per shard
                parts = ray.get([a.grad.remote(w_step, lo, lo + B)
                                 for a in actors])
                n_tok = sum(p[2] for p in parts)
                if n_tok == 0:
                    continue
                if initial_loss is None:
                    initial_loss = sum(p[1] for p in parts) / scale / n_tok
                t += 1
                g = np.sum([p[0] for p in parts], axis=0)
                W, m, v = adamw_step(W, m, v, g.astype(np.float64) / scale
                                     / n_tok, t, lr, weight_decay=weight_decay)
        return ray.get(actors[0].export.remote(W)), n_docs, initial_loss
    finally:
        for a in actors:
            ray.kill(a)


def train_token_classifier_stepsync(examples_ds, n_epochs: int = 2,
                                    lr: float = 0.05,
                                    global_batch_size: int = 32,
                                    n_shards: int = 4,
                                    n_buckets: int = DEFAULT_BUCKETS,
                                    weight_decay: float = 0.0,
                                    return_weights: bool = False):
    """Gradient-synchronous minibatch AdamW on the linear classifier
    (:func:`stepsync`), with :func:`train_token_classifier`'s result
    row. Unlike that full-batch GD and FedAvg (``finetune.py`` —
    epochs-then-average, NOT step-equivalent), every optimizer step sees
    the all-reduced gradient of ONE global minibatch, bit-identical to a
    sequential pass over the same minibatches."""
    ex = training_examples(examples_ds).materialize()
    W, n_docs, initial_loss = stepsync(
        ex, _LinearGradWorker, {"n_buckets": n_buckets}, n_epochs=n_epochs,
        lr=lr, global_batch_size=global_batch_size, n_shards=n_shards,
        weight_decay=weight_decay)
    _, loss_q, n_tok, correct = _partials(ex, W, n_buckets)
    out = result_frame(n_docs, n_tok, initial_loss, loss_q / SCALE, correct)
    if return_weights:
        return out, W
    return out


def train_token_classifier(examples_ds, n_epochs: int = 4, lr: float = 2.0,
                           n_buckets: int = DEFAULT_BUCKETS) -> pd.DataFrame:
    """Synchronous data-parallel full-batch GD; returns one row
    ``(n_examples, n_tokens, initial_loss, final_loss, token_accuracy)``
    (losses/accuracy are per-token means at W₀ and W_final).

    ``examples_ds`` is the dataset-builder output; errored docs are
    dropped. The examples Dataset is materialized (consumed once per
    epoch + once for metrics); at corpus scale checkpoint it to parquet
    instead — the loop shape is unchanged."""
    ex = training_examples(examples_ds).materialize()
    W = np.zeros((N_CLASSES, N_GEOM + n_buckets), np.float64)
    initial_loss = None
    for _ in range(n_epochs):
        g_q, loss_q, n_tok, _ = _partials(ex, W, n_buckets)
        if n_tok == 0:
            break
        if initial_loss is None:
            initial_loss = loss_q / SCALE / n_tok
        W = W - lr * (g_q.astype(np.float64) / SCALE / n_tok).reshape(W.shape)
    _, loss_q, n_tok, correct = _partials(ex, W, n_buckets)
    return result_frame(ex.count(), n_tok, initial_loss, loss_q / SCALE,
                        correct)
