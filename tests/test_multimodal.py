"""Multimodal stages: schema, determinism, vectorized transforms."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ocr_table_extractor_to_csv_ray.stages.multimodal import (
    ImageDecodeStage, ImageFeatureStage, decode_pipeline)


def _media(n=6):
    return pa.table({
        "media_id": pa.array([f"m{i}" for i in range(n)]),
        "payload": pa.array([f"blob-{i}".encode() * (i + 1) for i in range(n)],
                            pa.binary()),
    })


def test_decode_deterministic_shapes():
    st = ImageDecodeStage(height=32, width=24)
    a = st(_media())
    b = st(_media())
    assert a["pixels"].to_pylist() == b["pixels"].to_pylist()
    assert a["pixels"].type.list_size == 32 * 24 * 3
    assert set(a["height"].to_pylist()) == {32}
    # different payloads → different pixels
    px = a["pixels"].to_pylist()
    assert px[0] != px[1]


def test_features_shape_and_range():
    dec = ImageDecodeStage(height=16, width=16)(_media(4))
    out = ImageFeatureStage()(dec)
    feats = np.array(out["features"].to_pylist())
    assert feats.shape == (4, 3 + 3 + 8)
    assert (feats[:, :3] >= 0).all() and (feats[:, :3] <= 1).all()
    hist = feats[:, 6:]
    assert np.allclose(hist.sum(axis=1), 1.0, atol=1e-5)


def test_decode_pipeline_streaming(ray_session):
    import ray.data as rd
    ds = rd.from_arrow(_media(40))
    out = decode_pipeline(ds, decode_concurrency=2, batch_size=8,
                          height=16, width=16)
    rows = out.take_all()
    assert len(rows) == 40
    assert len(rows[0]["features"]) == 14


def test_decode_pipeline_over_parquet_read_on_4_cpus(ray_session, tmp_path):
    """A Parquet read under the decode pipeline finishes on a 4-CPU Ray:
    the decode pool leaves the read task a CPU. Run in a thread and
    bounded, so a starved read fails the test instead of hanging it."""
    import threading
    import pyarrow.parquet as pq
    import ray.data as rd

    pq.write_table(_media(40), tmp_path / "media.parquet")
    out = {}

    def run():
        ds = rd.read_parquet(str(tmp_path / "media.parquet"))
        out["rows"] = decode_pipeline(ds, decode_concurrency=2, batch_size=8,
                                      height=16, width=16).take_all()

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(timeout=120)
    assert not t.is_alive(), "decode pipeline over a Parquet read hung"
    assert len(out["rows"]) == 40
    assert len(out["rows"][0]["features"]) == 14
