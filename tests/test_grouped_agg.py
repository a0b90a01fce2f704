"""Bucketed vectorized grouped aggregation (functions/agg.py).

The operator replaces Ray's per-row sort-aggregate combine for
high-cardinality key spaces; these tests pin its results to a pandas
oracle across key shapes (single/multi, int/string, with NaN groups)
and assert the Arrow-block output contract.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from ocr_table_extractor_to_csv_ray.functions.agg import grouped_agg, grouped_sum


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(
        drop=True)


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


def test_grouped_sum_matches_pandas(ray_session, rng):
    import ray.data as rd

    n = 20_000
    df = pd.DataFrame({
        "k": rng.integers(0, 3_000, n).astype("int64"),
        "v": rng.integers(-50, 50, n).astype("int64"),
        "w": rng.normal(size=n),
    })
    ds = rd.from_pandas([df.iloc[i::7].reset_index(drop=True)
                         for i in range(7)])
    got = grouped_sum(ds, "k", {"v": "sv", "w": "sw"},
                      num_buckets=16, count="n").to_pandas()
    want = df.groupby("k", as_index=False).agg(
        sv=("v", "sum"), sw=("w", "sum"), n=("v", "size"))
    want["n"] = want["n"].astype("int64")
    g, w = _canon(got), _canon(want)
    assert g["k"].tolist() == w["k"].tolist()
    assert g["sv"].tolist() == w["sv"].tolist()
    assert g["n"].tolist() == w["n"].tolist()
    np.testing.assert_allclose(g["sw"].to_numpy(), w["sw"].to_numpy(),
                               rtol=1e-12)
    # dtype contract: int sums stay int64
    assert got["sv"].dtype == np.dtype("int64")
    assert got["n"].dtype == np.dtype("int64")


def test_grouped_agg_min_max_multikey_strings(ray_session, rng):
    import ray.data as rd

    n = 5_000
    df = pd.DataFrame({
        "a": rng.choice(list("xyz"), n),
        "b": rng.integers(0, 40, n).astype("int64"),
        "v": rng.integers(0, 10_000, n).astype("int64"),
    })
    ds = rd.from_pandas([df.iloc[:2500], df.iloc[2500:].reset_index(drop=True)])
    got = grouped_agg(ds, ["a", "b"],
                      {"lo": ("v", "min"), "hi": ("v", "max"),
                       "s": ("v", "sum")}, num_buckets=8).to_pandas()
    want = df.groupby(["a", "b"], as_index=False).agg(
        lo=("v", "min"), hi=("v", "max"), s=("v", "sum"))
    pd.testing.assert_frame_equal(_canon(got), _canon(want),
                                  check_dtype=False)


def test_grouped_agg_count_only_is_group_count(ray_session, rng):
    """DISTINCT-style use: no agg columns, just the count."""
    import ray.data as rd

    keys = rng.integers(0, 500, 8_000).astype("int64")
    ds = rd.from_arrow([pa.table({"k": keys[i::4]}) for i in range(4)])
    got = grouped_agg(ds, "k", {}, num_buckets=16, count="n").to_pandas()
    want = pd.Series(keys).value_counts().sort_index()
    got = got.sort_values("k").reset_index(drop=True)
    assert got["k"].tolist() == want.index.tolist()
    assert got["n"].tolist() == want.tolist()


def test_grouped_agg_output_blocks_are_arrow(ray_session, rng):
    """Every non-empty output block of the bucketed operators is an
    Arrow table without ``pandas`` schema metadata (which makes schemas
    unhashable in Ray's ``unify_schemas``). Ray's sort shuffle still
    emits schema-less empty blocks for empty partitions; those are
    skipped."""
    import ray
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.compact import latest_wins
    from ocr_table_extractor_to_csv_ray.functions.dedup import (
        duplicate_line_removal)
    from ocr_table_extractor_to_csv_ray.functions.join import (
        broadcast_join, hash_join, hash_semi_join)

    df = pd.DataFrame({"k": rng.integers(0, 50, 1000).astype("int64"),
                       "v": np.ones(1000, dtype="int64")})
    small = pd.DataFrame({"k": np.arange(0, 50, 2, dtype="int64"),
                          "tag": [f"t{i}" for i in range(25)]})
    docs = pd.DataFrame({"doc_id": np.arange(20, dtype="int64"),
                         "text": [f"shared boilerplate line\nline {i % 7} of doc"
                                  for i in range(20)]})

    def ds(frame):
        return rd.from_pandas([frame])

    outputs = {
        "grouped_sum": grouped_sum(ds(df), "k", ["v"], num_buckets=4),
        "hash_join": hash_join(ds(df), ds(small), "k", num_buckets=4),
        "semi": hash_semi_join(ds(df), ds(small), "k", num_buckets=4),
        "anti": hash_semi_join(ds(df), ds(small), "k", num_buckets=4,
                               anti=True),
        "broadcast_join": broadcast_join(ds(df), small, "k"),
        "latest_wins": latest_wins(ds(df.assign(t=np.arange(1000))), ["k"],
                                   "t", "v"),
        "duplicate_line_removal": duplicate_line_removal(ds(docs),
                                                         min_chars=5),
    }
    for name, out in outputs.items():
        blocks = [ray.get(ref) for bundle in
                  out.materialize().iter_internal_ref_bundles()
                  for ref in bundle.block_refs]
        blocks = [b for b in blocks if len(b)]
        assert blocks, name
        for blk in blocks:
            assert isinstance(blk, pa.Table), (name, type(blk))
            assert b"pandas" not in (blk.schema.metadata or {}), name


def test_grouped_agg_rejects_non_associative(ray_session):
    import ray.data as rd

    ds = rd.from_pandas([pd.DataFrame({"k": [1], "v": [1.0]})])
    with pytest.raises(ValueError, match="sum.*min.*max|supports"):
        grouped_agg(ds, "k", {"m": ("v", "mean")})


def test_grouped_agg_downstream_of_hash_join(ray_session, rng):
    """The motivating composition: a join (whose empty buckets emit
    pandas blocks that would poison a native aggregate) feeding a
    high-cardinality grouped count."""
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.join import hash_join

    n = 4_000
    lhs = pd.DataFrame({"k": rng.integers(0, 300, n).astype("int64"),
                        "x": rng.integers(0, 9, n).astype("int64")})
    rhs = pd.DataFrame({"k": rng.integers(0, 300, n).astype("int64"),
                        "y": rng.integers(0, 9, n).astype("int64")})
    joined = hash_join(rd.from_pandas([lhs]), rd.from_pandas([rhs]),
                       key="k", num_buckets=8)
    got = grouped_sum(joined, ["x", "y"], {}, num_buckets=16,
                      count="n").to_pandas()
    want = (lhs.merge(rhs, on="k").groupby(["x", "y"], as_index=False)
            .size().rename(columns={"size": "n"}))
    want["n"] = want["n"].astype("int64")
    pd.testing.assert_frame_equal(_canon(got), _canon(want),
                                  check_dtype=False)


def test_key_buckets_ignore_width_and_nulls():
    """A key's bucket depends on its value only: not on the integer or
    string width a side stores it in, nor on nulls elsewhere in the
    batch (a NaN-upcast column would rehash every key)."""
    from ocr_table_extractor_to_csv_ray.functions.agg import key_buckets

    vals = [3, 17, 2**40, -5]
    want = key_buckets(pa.table({"k": pa.array(vals, pa.int64())}), ["k"], 16)
    assert want.dtype == np.int64 and ((0 <= want) & (want < 16)).all()
    with_null = pa.table({"k": pa.array(vals + [None], pa.int64())})
    assert list(key_buckets(with_null, ["k"], 16)[:4]) == list(want)
    small = pa.table({"k": pa.array(vals[:2] + [-5], pa.int32())})
    assert list(key_buckets(small, ["k"], 16)) == [want[0], want[1], want[3]]

    words = ["a", "bb", None, "ccc"]
    s = key_buckets(pa.table({"k": pa.array(words)}), ["k"], 8)
    ls = key_buckets(pa.table({"k": pa.array(words, pa.large_string())}),
                     ["k"], 8)
    chunked = pa.table({"k": pa.chunked_array([words[:1], words[1:]])})
    assert list(s) == list(ls) == list(key_buckets(chunked, ["k"], 8))
