"""Multimodal column stages: opaque binary media + typed metadata.

Media travel through the engine as ``binary`` columns (or ``media_ref``
pointers) plus typed metadata — NEVER decoded inside geometry stages
(SURVEY.md §7.3.6). Image decode is an actor-pool ``map_batches``
stage and feature extraction a task stage, both with small
``batch_size`` (decoded frames are ~3 orders of magnitude larger than
their source bytes, so ``batch_size × concurrency × frame_bytes`` must
fit the worker heap).

The image codec library may be missing, so the decode stage's
``__init__`` probes for the real backend (PIL) and
otherwise uses a DETERMINISTIC FAKE decoder (pure function of the
payload bytes) — clearly marked below. The Ray-side plumbing (schema,
actor signature, batch sizing, output layout) is real and tested.
"""

from __future__ import annotations

import hashlib
import numpy as np
import pyarrow as pa


def _fake_pixels(payload: bytes, h: int, w: int) -> np.ndarray:
    """Deterministic fake decode: seed an RNG from the payload digest.
    Stands in for a real JPEG/PNG decode (same shape/dtype contract)."""
    seed = int.from_bytes(hashlib.blake2b(payload or b"", digest_size=8).digest(), "little")
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


class ImageDecodeStage:
    """``(media_id, payload: binary)`` → + ``pixels`` (flattened uint8)
    + ``height/width/channels`` metadata columns."""

    def __init__(self, height: int = 64, width: int = 64) -> None:
        self.h, self.w = height, width
        try:
            from PIL import Image
            # a real PIL exposes a callable open() (test stubs don't)
            self._backend = "pil" if callable(getattr(Image, "open", None)) else "fake"
        except ImportError:
            self._backend = "fake"

    def _decode_pil(self, payload: bytes) -> np.ndarray:
        """Real decode: PIL open → RGB → resize to the stage's fixed
        output shape (decoded batches must be rectangular)."""
        import io
        from PIL import Image
        img = Image.open(io.BytesIO(payload)).convert("RGB")
        if img.size != (self.w, self.h):
            img = img.resize((self.w, self.h))
        return np.asarray(img, dtype=np.uint8)

    def _decode(self, payload: bytes) -> np.ndarray:
        if self._backend == "pil":
            try:
                return self._decode_pil(payload)
            except Exception:   # corrupt payload must not poison the block
                import logging
                logging.getLogger(__name__).warning(
                    "image decode failed (%d bytes); substituting fake pixels",
                    len(payload or b""))
        return _fake_pixels(payload, self.h, self.w)

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        n = len(payloads)
        px = np.empty((n, self.h * self.w * 3), dtype=np.uint8)
        for i, p in enumerate(payloads):
            px[i] = self._decode(p or b"").reshape(-1)
        out = batch
        pixels = pa.FixedSizeListArray.from_arrays(
            pa.array(px.reshape(-1)), self.h * self.w * 3)
        for name, col in (
            ("pixels", pixels),
            ("height", pa.array([self.h] * n, pa.int32())),
            ("width", pa.array([self.w] * n, pa.int32())),
            ("channels", pa.array([3] * n, pa.int32())),
        ):
            if name in out.column_names:
                out = out.drop_columns([name])
            out = out.append_column(name, col)
        return out


class ImageFeatureStage:
    """Decoded pixels → feature vector. REAL features (channel means /
    stds + 8-bin luma histogram), vectorized over the batch — a model
    embedding would slot in here with identical plumbing."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return batch
        h = batch["height"][0].as_py()
        w = batch["width"][0].as_py()
        col = batch["pixels"].combine_chunks() if isinstance(batch["pixels"], pa.ChunkedArray) else batch["pixels"]
        flat = np.asarray(col.values.to_numpy(zero_copy_only=False), dtype=np.float32)
        imgs = flat.reshape(n, h * w, 3)
        means = imgs.mean(axis=1)                              # (n, 3)
        stds = imgs.std(axis=1)                                # (n, 3)
        luma = imgs.mean(axis=2)                               # (n, h*w)
        bins = np.stack([np.histogram(row, bins=8, range=(0, 256))[0]
                         for row in luma]).astype(np.float32)
        bins /= np.maximum(bins.sum(axis=1, keepdims=True), 1)
        feats = np.concatenate([means / 255.0, stds / 255.0, bins], axis=1)
        out = batch
        if "features" in out.column_names:
            out = out.drop_columns(["features"])
        return out.append_column("features", pa.FixedSizeListArray.from_arrays(
            pa.array(feats.reshape(-1)), feats.shape[1]))


def decode_pipeline(ds, decode_concurrency: int = 4, batch_size: int = 32,
                    height: int = 64, width: int = 64):
    """media table → decoded + featured. Small batches: decoded pixels
    are ``h*w*3`` bytes/row — size ``batch_size × concurrency`` to heap.
    The decode pool is capped by ``stages.pool_size``, and the
    stateless feature stage runs as tasks, so the read keeps a CPU."""
    from . import pool_size

    ds = ds.map_batches(ImageDecodeStage, batch_format="pyarrow",
                        fn_constructor_kwargs={"height": height, "width": width},
                        batch_size=batch_size,
                        concurrency=pool_size(decode_concurrency))
    return ds.map_batches(ImageFeatureStage(), batch_format="pyarrow",
                          batch_size=batch_size)
