"""Broadcast join, sessionize, stem pairing (J2)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ocr_table_extractor_to_csv_ray.functions.join import (
    broadcast_join, pair_by_stem, sessionize)


def test_pair_by_stem():
    imgs = ["/a/doc1.png", "/a/doc2.jpg", "/a/lonely.png"]
    hocrs = ["/h/doc2.hocr", "/h/doc1.hocr", "/h/extra.hocr"]
    assert pair_by_stem(imgs, hocrs) == [
        ("/a/doc1.png", "/h/doc1.hocr"),
        ("/a/doc2.jpg", "/h/doc2.hocr"),
    ]


def test_broadcast_join(ray_session):
    import ray.data as rd
    big = rd.from_arrow(pa.table({"k": pa.array([1, 2, 3, 2], pa.int64()),
                                  "v": pa.array(list("abcd"))}))
    small = pd.DataFrame({"k": [1, 2], "tag": ["one", "two"]})
    out = broadcast_join(big, small, "k").to_pandas().sort_values(["k", "v"])
    assert list(out["tag"]) == ["one", "two", "two"]
    left = broadcast_join(big, small, "k", how="left").to_pandas()
    assert len(left) == 4


def test_sessionize_semantics(ray_session):
    import ray.data as rd
    us = 1_000_000
    t0 = 1_700_000_000 * us
    rows = {
        "user_id": pa.array([1, 1, 1, 1, 2], pa.int64()),
        "ts": pa.array([t0, t0 + 60 * us, t0 + 4000 * us, t0 + 4100 * us, t0],
                       pa.timestamp("us")),
    }
    out = (sessionize(rd.from_arrow(pa.table(rows)), gap_seconds=1800)
           .to_pandas().sort_values(["user_id", "session_id"]).reset_index(drop=True))
    # user 1: two sessions (gap 3940 s > 1800 s), user 2: one
    assert list(out["user_id"]) == [1, 1, 2]
    assert list(out["n_events"]) == [2, 2, 1]
    assert out.loc[0, "session_start"] == t0
    assert out.loc[0, "session_end"] == t0 + 60 * us
    assert out.loc[1, "session_start"] == t0 + 4000 * us


def test_hash_join_matches_pandas(ray_session):
    import ray.data as rd
    rng = np.random.default_rng(3)
    left = pd.DataFrame({"k": rng.integers(0, 50, 200),
                         "a": rng.integers(0, 9, 200)})
    right = pd.DataFrame({"k": rng.integers(0, 50, 300),
                          "b": rng.integers(0, 9, 300)})
    from ocr_table_extractor_to_csv_ray.functions.join import hash_join
    got = (hash_join(rd.from_pandas(left), rd.from_pandas(right), "k",
                     num_buckets=7)
           .to_pandas().sort_values(["k", "a", "b"]).reset_index(drop=True))
    want = (left.merge(right, on="k").sort_values(["k", "a", "b"])
            .reset_index(drop=True))
    pd.testing.assert_frame_equal(
        got[["k", "a", "b"]].astype("int64"), want.astype("int64"))


def test_stratified_sample_stable(ray_session):
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.sampling import (
        rate_to_threshold, stratified_sample)
    assert rate_to_threshold(0.5) == "80000000"
    # rate >= 1.0 must mean KEEP ALL: 'g' sorts above every hex prefix,
    # whereas the hex cap 'ffffffff' with strict < drops ~2^-32 of rows
    assert rate_to_threshold(1.0) == "g"
    t = pa.table({"doc_id": pa.array(range(1000), pa.int64()),
                  "lang": pa.array(["en", "xx"] * 500)})
    full = stratified_sample(rd.from_arrow(t), {"en": 1.0, "xx": 1.0})
    assert full.count() == 1000                           # keep-everything
    out1 = stratified_sample(rd.from_arrow(t), {"en": 0.5}, default_rate=0.0)
    ids1 = set(out1.to_pandas()["doc_id"])
    out2 = stratified_sample(rd.from_arrow(t), {"en": 0.5}, default_rate=0.0)
    assert ids1 == set(out2.to_pandas()["doc_id"])        # run-stable
    assert all(i % 2 == 0 for i in ids1)                  # only 'en' stratum
    assert 0.35 < len(ids1) / 500 < 0.65                  # ~50% of en


def test_topk_per_group(ray_session):
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.sampling import topk_per_group
    t = pa.table({"doc_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
                  "g": pa.array(list("aaabbb")),
                  "v": pa.array([5, 9, 9, 1, 2, 3], pa.int64())})
    out = (topk_per_group(rd.from_arrow(t), "g", "v", k=2)
           .to_pandas().sort_values(["g", "rank"]).reset_index(drop=True))
    # ties (9,9) broken by ascending doc_id
    assert list(out["doc_id"]) == [2, 3, 6, 5]
    assert list(out["rank"]) == [1, 2, 1, 2]


def test_hash_join_hot_key_salted(ray_session):
    # one key holds 50% of the left rows: the salted join must still
    # equal the pandas merge (each left row lands in exactly one
    # sub-bucket; right hot rows are replicated across sub-buckets)
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.join import hash_join
    rng = np.random.default_rng(7)
    hot_half = np.full(300, 42)
    cold = rng.integers(0, 50, 300)
    left = pd.DataFrame({"k": np.concatenate([hot_half, cold]),
                         "a": np.arange(600)})
    right = pd.DataFrame({"k": np.concatenate([[42, 42], rng.integers(0, 50, 40)]),
                          "b": np.arange(42)})
    for how in ("inner", "left"):
        got = (hash_join(rd.from_pandas(left), rd.from_pandas(right), "k",
                         num_buckets=5, hot_keys=[42], salt_factor=4, how=how)
               .to_pandas().sort_values(["k", "a", "b"]).reset_index(drop=True))
        want = (left.merge(right, on="k", how=how)
                .sort_values(["k", "a", "b"]).reset_index(drop=True))
        assert len(got) == len(want)
        pd.testing.assert_frame_equal(
            got[["k", "a"]].astype("int64"), want[["k", "a"]].astype("int64"))
        pd.testing.assert_frame_equal(got["b"].astype("float64").to_frame(),
                                      want["b"].astype("float64").to_frame())


def test_sessionize_ts_unit(ray_session):
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.join import sessionize
    # epoch-SECONDS ints: gap of 7200s > 1800s must split, 60s must not
    t = pa.table({"user_id": pa.array(["u"] * 3),
                  "ts": pa.array([1000, 1060, 1060 + 7200], pa.int64())})
    out = sessionize(rd.from_arrow(t), gap_seconds=1800, ts_unit="s").to_pandas()
    assert sorted(out["session_id"]) == [1, 2]
    assert out["n_events"].sum() == 3
    # microsecond interpretation of the same ints: all gaps tiny -> 1 session
    out_us = sessionize(rd.from_arrow(t), gap_seconds=1800).to_pandas()
    assert list(out_us["session_id"]) == [1]
    import pytest as _pytest
    with _pytest.raises(ValueError):
        sessionize(rd.from_arrow(t), ts_unit="ns")


def test_asof_join_semantics(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.window import asof_join

    us = lambda s: np.datetime64("2024-01-01T00:00:00", "us") + np.timedelta64(s, "s")
    mk = lambda rows: rd.from_arrow(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array([us(r[2]) for r in rows], pa.timestamp("us")),
    }))
    left = mk([(1, 7, 100), (2, 7, 50), (3, 8, 10), (4, 9, 5)])
    right = mk([(10, 7, 100), (11, 7, 60), (12, 8, 20), (13, 9, 5)])
    out = {r["event_id"]: r["asof_ts"] for r in asof_join(left, right).take_all()}
    assert out[1] == us(100)          # equal ts matches (at-or-before)
    assert out[2] is None             # right rows all later -> NULL
    assert out[3] is None
    assert out[4] == us(5)
    # int ts must be rejected, not guessed
    bad = rd.from_items([{"event_id": 1, "user_id": 1, "ts": 1000}])
    import pytest
    with pytest.raises(Exception):
        asof_join(bad, bad).take_all()


def test_sliding_window_agg_range_frame(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.window import sliding_window_agg

    us = lambda s: np.datetime64("2024-01-01T00:00:00", "us") + np.timedelta64(s, "s")
    # user 1: ts 0, 600, 601, 601 (tie peers), 1300; cents 1,10,100,1000,10000
    t = pa.table({
        "event_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "user_id": pa.array([1, 1, 1, 1, 1], pa.int64()),
        "ts": pa.array([us(0), us(600), us(601), us(601), us(1300)],
                       pa.timestamp("us")),
        "cents": pa.array([1, 10, 100, 1000, 10000], pa.int64()),
    })
    out = {r["event_id"]: (r["n_window"], r["sum_window_cents"])
           for r in sliding_window_agg(rd.from_arrow(t), window_seconds=600,
                                       value_cents="cents").take_all()}
    assert out[0] == (1, 1)
    assert out[1] == (2, 11)          # boundary ts-600 included
    assert out[2] == (3, 1110)        # [1,601]: RANGE frame includes the ts peer
    assert out[3] == (3, 1110)
    assert out[4] == (1, 10000)       # [700,1300]: 601s are outside


def test_grouped_discrete_quantiles_vs_bruteforce(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.quantiles import (
        grouped_discrete_quantiles)

    rng = np.random.default_rng(3)
    flags = rng.choice(["A", "B"], 5000)
    vals = np.round(rng.exponential(50.0, 5000), 2)
    t = pa.table({"flag": pa.array(flags), "price": pa.array(vals)})
    out = {r["flag"]: (r["p50_cents"], r["p95_cents"])
           for r in grouped_discrete_quantiles(
               rd.from_arrow(t).repartition(7), "flag", "price",
               qs=(0.5, 0.95)).take_all()}
    for f in ("A", "B"):
        cents = np.sort(np.floor(vals[flags == f] * 100).astype(np.int64))
        n = len(cents)
        # type-1: smallest value whose cumulative count >= ceil(q*n)
        want = tuple(int(cents[int(np.ceil(q * n)) - 1]) for q in (0.5, 0.95))
        assert out[f] == want, f


def test_asof_join_random_vs_pandas(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.window import asof_join

    rng = np.random.default_rng(11)
    def mk(n, id0):
        return pd.DataFrame({
            "event_id": np.arange(id0, id0 + n),
            "user_id": rng.integers(0, 20, n),
            "ts": (np.datetime64("2024-01-01", "us")
                   + rng.integers(0, 10**9, n).astype("timedelta64[us]")),
        })
    left, right = mk(400, 0), mk(300, 1000)
    out = asof_join(rd.from_arrow(pa.Table.from_pandas(left)),
                    rd.from_arrow(pa.Table.from_pandas(right))).to_pandas()
    want = pd.merge_asof(left.sort_values("ts"),
                         right[["user_id", "ts"]].sort_values("ts"),
                         on="ts", by="user_id", direction="backward",
                         suffixes=("", "_r"))
    # merge_asof's matched ts is the left ts itself; recompute matched right ts
    rsort = {u: np.sort(g["ts"].to_numpy()) for u, g in right.groupby("user_id")}
    exp = {}
    for _, r in left.iterrows():
        arr = rsort.get(r["user_id"], np.array([], dtype="datetime64[us]"))
        i = np.searchsorted(arr, np.datetime64(r["ts"], "us"), side="right") - 1
        exp[r["event_id"]] = None if i < 0 else arr[i]
    got = {r["event_id"]: (None if pd.isna(r["asof_ts"]) else
                           np.datetime64(r["asof_ts"], "us"))
           for _, r in out.iterrows()}
    assert len(got) == len(left)
    assert got == exp


def test_sliding_window_random_vs_bruteforce(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.window import sliding_window_agg

    rng = np.random.default_rng(12)
    n = 600
    ts = (np.datetime64("2024-01-01", "us")
          + rng.integers(0, 5000 * 10**6, n).astype("timedelta64[us]"))
    t = pa.table({
        "event_id": pa.array(np.arange(n)),
        "user_id": pa.array(rng.integers(0, 8, n)),
        "ts": pa.array(ts, pa.timestamp("us")),
        "cents": pa.array(rng.integers(0, 1000, n), pa.int64()),
    })
    out = {r["event_id"]: (r["n_window"], r["sum_window_cents"])
           for r in sliding_window_agg(rd.from_arrow(t).repartition(5),
                                       window_seconds=600,
                                       value_cents="cents").take_all()}
    uid = t["user_id"].to_numpy(); tsi = ts.astype(np.int64)
    cents = t["cents"].to_numpy()
    for i in range(n):
        m = (uid == uid[i]) & (tsi >= tsi[i] - 600_000_000) & (tsi <= tsi[i])
        assert out[i] == (int(m.sum()), int(cents[m].sum())), i


def test_kmeans_layout_invariant_and_sane(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.clustering import kmeans_embeddings

    rng = np.random.default_rng(9)
    # 3 well-separated blobs
    centers = np.array([[0.0] * 8, [10.0] * 8, [-10.0] * 8])
    mat = np.concatenate([c + rng.normal(0, 0.5, (50, 8)) for c in centers])
    t = pa.table({"vec_id": pa.array(np.arange(150), pa.int64()),
                  "embedding": pa.array([list(map(float, r)) for r in mat],
                                        pa.list_(pa.float32()))})
    outs = []
    for parts in (1, 13):
        a, c = kmeans_embeddings(rd.from_arrow(t).repartition(parts),
                                 k=3, n_iters=4)
        outs.append(a.to_pandas().sort_values("vec_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(outs[0], outs[1], check_exact=True)
    lab = outs[0]["cluster"].to_numpy()
    # each blob lands in exactly one cluster
    for s in (slice(0, 50), slice(50, 100), slice(100, 150)):
        assert len(set(lab[s])) == 1
    assert len({lab[0], lab[50], lab[100]}) == 3
    # the parquet-checkpoint (100 TB) path is bit-identical to in-memory
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        a, _ = kmeans_embeddings(rd.from_arrow(t).repartition(7),
                                 k=3, n_iters=4, checkpoint_path=d)
        ck = a.to_pandas().sort_values("vec_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(outs[0], ck, check_exact=True)


def test_range_join_buckets_and_boundaries(ray_session):
    """Intervals spanning many buckets, boundary-inclusive containment,
    no duplicate pairs, empty result types."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.window import range_join

    us = lambda s: np.datetime64("2024-01-01T00:00:00", "us") + np.timedelta64(s, "s")
    points = rd.from_arrow(pa.table({
        "point_id": pa.array([1, 2, 3, 4], pa.int64()),
        "ts": pa.array([us(0), us(1000), us(5000), us(9999)], pa.timestamp("us")),
    }))
    intervals = rd.from_arrow(pa.table({
        "interval_id": pa.array([10, 11, 12], pa.int64()),
        "start": pa.array([us(0), us(900), us(8000)], pa.timestamp("us")),
        "end": pa.array([us(6000), us(1000), us(8100)], pa.timestamp("us")),
    }))
    out = sorted((r["point_id"], r["interval_id"])
                 for r in range_join(points, intervals,
                                     bucket_seconds=600).take_all())
    # interval 10 spans buckets 0..10 and catches points 1,2,3 once each;
    # interval 11 boundary-includes point 2 at end==ts; 12 catches nobody
    assert out == [(1, 10), (2, 10), (2, 11), (3, 10)]
    none = range_join(points.filter(lambda r: False), intervals).take_all()
    assert none == []


def test_hash_semi_join_semi_and_anti(ray_session):
    """Semi keeps each matching left row ONCE (no multiplication by
    multiple right matches); anti is the exact complement; right-side
    duplicates are irrelevant."""
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.join import hash_semi_join

    left = pd.DataFrame({"k": [1, 2, 3, 4, 4], "v": list("abcde")})
    # key 2 appears 3×, key 4 once — multiplicity must not leak through
    right = pd.DataFrame({"k": [2, 2, 2, 4], "w": [9, 9, 9, 9]})
    semi = (hash_semi_join(rd.from_pandas(left), rd.from_pandas(right),
                           "k", num_buckets=3)
            .to_pandas().sort_values(["k", "v"]).reset_index(drop=True))
    assert list(semi["v"]) == ["b", "d", "e"]
    assert list(semi.columns) == ["k", "v"]          # left columns only
    anti = (hash_semi_join(rd.from_pandas(left), rd.from_pandas(right),
                           "k", num_buckets=3, anti=True)
            .to_pandas().sort_values(["k", "v"]).reset_index(drop=True))
    assert list(anti["v"]) == ["a", "c"]
    # semi + anti partition the left side exactly
    assert len(semi) + len(anti) == len(left)


def test_hash_semi_join_dtype_guard(ray_session):
    import pytest
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.join import hash_semi_join

    left = rd.from_pandas(pd.DataFrame({"k": [1, 2]}))
    right = rd.from_pandas(pd.DataFrame({"k": [1.0, 2.0]}))
    with pytest.raises(ValueError, match="dtype mismatch"):
        hash_semi_join(left, right, "k")


def test_latest_wins_compaction(ray_session):
    """Max-(order_by, tiebreak) row survives per key under any block
    layout; ts ties break by the tiebreak column."""
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.compact import latest_wins

    df = pd.DataFrame({
        "k": [1, 1, 1, 2, 2, 3],
        "t": [10, 30, 30, 5, 7, 1],
        "ver": [100, 101, 102, 200, 201, 300],   # unique tiebreak
        "payload": list("abcdef"),
    })
    for parts in (1, 4):
        ds = rd.from_pandas(df).repartition(parts)
        out = (latest_wins(ds, keys=["k"], order_by="t", tiebreak="ver")
               .to_pandas().sort_values("k").reset_index(drop=True))
        # k=1: t ties at 30 → ver 102 wins; k=2: t=7; k=3: only row
        assert list(out["ver"]) == [102, 201, 300]
        assert list(out["payload"]) == ["c", "e", "f"]
        assert list(out.columns) == ["k", "t", "ver", "payload"]


def test_join_auto_paths_agree(ray_session):
    """Native-dispatch and explicit hash_join produce identical rows;
    hot_keys forces the explicit salted path; right_key joins
    differently-named columns."""
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.join import (
        hash_join, join_auto)

    rng = np.random.default_rng(31)
    left = pd.DataFrame({"k": rng.integers(0, 30, 300),
                         "a": rng.integers(0, 9, 300)})
    right = pd.DataFrame({"rk": rng.integers(0, 30, 200),
                          "b": rng.integers(0, 9, 200)})

    def norm(df):
        df = df[["k", "a", "b"]].astype("int64")
        return df.sort_values(["k", "a", "b"]).reset_index(drop=True)

    want = norm(left.merge(right.rename(columns={"rk": "k"}), on="k"))
    auto = norm(join_auto(rd.from_pandas(left), rd.from_pandas(right),
                          "k", right_key="rk").to_pandas())
    pd.testing.assert_frame_equal(auto, want, check_exact=True)
    salted = norm(join_auto(rd.from_pandas(left), rd.from_pandas(right),
                            "k", right_key="rk",
                            hot_keys=[int(left["k"].mode()[0])]).to_pandas())
    pd.testing.assert_frame_equal(salted, want, check_exact=True)


def test_join_auto_how_vocabulary_all_paths(ray_session):
    """ADVICE r3: one canonical `how` vocabulary — 'left' must work on
    BOTH the native path and the salted hot-keys path (it used to raise
    ValueError on the native one), and bogus values fail loudly."""
    import pytest
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.join import join_auto

    left = pd.DataFrame({"k": [1, 2, 3, 3], "a": [10, 20, 30, 31]})
    right = pd.DataFrame({"k": [2, 3], "b": [200, 300]})
    want = (left.merge(right, on="k", how="left")
            .sort_values(["k", "a"]).reset_index(drop=True))

    def norm(df):
        df = df.sort_values(["k", "a"]).reset_index(drop=True)
        return df[["k", "a", "b"]].astype({"k": "int64", "a": "int64",
                                           "b": "float64"})

    native = join_auto(rd.from_pandas(left), rd.from_pandas(right),
                       "k", how="left").to_pandas()
    pd.testing.assert_frame_equal(norm(native), norm(want), check_exact=True)
    salted = join_auto(rd.from_pandas(left), rd.from_pandas(right),
                       "k", how="left", hot_keys=[3]).to_pandas()
    pd.testing.assert_frame_equal(norm(salted), norm(want), check_exact=True)

    with pytest.raises(ValueError, match="join_auto how"):
        join_auto(rd.from_pandas(left), rd.from_pandas(right),
                  "k", how="left_outer")


def test_latest_wins_null_keys_kept(ray_session):
    """ADVICE r3: NULL keys must form a compaction group (SQL
    row_number() PARTITION BY keeps NULL partitions), not be dropped."""
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.compact import latest_wins

    df = pd.DataFrame({"k": ["a", "a", None, None, "b"],
                       "t": [1, 2, 1, 3, 1],
                       "v": [0, 1, 2, 3, 4],
                       "p": ["x", "y", "z", "w", "q"]})
    out = latest_wins(rd.from_pandas(df), ["k"], "t", "v").to_pandas()
    got = {(k if pd.notna(k) else None): p
           for k, p in zip(out["k"], out["p"])}
    assert got == {"a": "y", None: "w", "b": "q"}


def test_sessionize_mega_key_range_split(ray_session):
    """VERDICT r3 #6: a key whose events exceed max_events_per_task is
    range-partitioned by time and stitched at shard edges — output must
    equal the one-task path exactly, including sessions that straddle
    bucket boundaries."""
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.join import sessionize

    rng = np.random.default_rng(7)
    # one mega user with gap-y timeline + a few cold users
    gaps = rng.integers(1, 4000, 5_000).astype(np.int64)  # gap=1800s splits
    t_mega = np.cumsum(gaps) * 1_000_000                  # epoch us
    rows = [pd.DataFrame({"user_id": "mega", "ts": t_mega})]
    for u in range(3):
        t = np.cumsum(rng.integers(1, 4000, 50).astype(np.int64)) * 1_000_000
        rows.append(pd.DataFrame({"user_id": f"cold{u}", "ts": t}))
    df = pd.concat(rows, ignore_index=True).sample(frac=1, random_state=3)
    ds = rd.from_pandas(df).repartition(8)

    def norm(out):
        return (out.to_pandas()
                .sort_values(["user_id", "session_id"])
                .reset_index(drop=True)
                [["user_id", "session_id", "n_events",
                  "session_start", "session_end"]])

    plain = norm(sessionize(ds, gap_seconds=1800, max_events_per_task=None))
    # threshold forces ~17 time buckets for the mega key
    split = norm(sessionize(ds, gap_seconds=1800, max_events_per_task=300))
    pd.testing.assert_frame_equal(split, plain, check_exact=True)
    assert plain[plain["user_id"] == "mega"]["session_id"].max() > 100


def test_sessionize_mega_key_single_user_large(ray_session):
    """A single user with 1M+ events streams through the guard without
    one task holding the whole key; totals conserved."""
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.join import sessionize

    n = 1_200_000
    # deterministic gaps: mostly 1s, every 1000th event jumps 1h
    gaps = np.ones(n, np.int64)
    gaps[::1000] = 3600
    t = np.cumsum(gaps) * 1_000_000
    ds = rd.from_pandas(pd.DataFrame({"user_id": "whale", "ts": t})) \
           .repartition(16)
    out = sessionize(ds, gap_seconds=1800,
                     max_events_per_task=200_000).to_pandas()
    assert out["n_events"].sum() == n                 # every event counted
    assert len(out) == (n + 999) // 1000              # one session per jump
    assert out["session_id"].is_unique


def test_null_keys_never_match_duckdb(ray_session):
    """SQL join semantics: a NULL key equals nothing, not even another
    NULL. Each operator is compared with DuckDB on the same rows."""
    import duckdb
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.join import (
        hash_join, hash_semi_join)

    left = pd.DataFrame({"k": ["a", None, "b"], "v": [1, 2, 3]})
    right = pd.DataFrame({"k": ["a", None], "w": [10, 20]})
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)

    def rows(df, cols):
        return sorted((tuple(None if pd.isna(x) else x for x in r)
                       for r in df[cols].itertuples(index=False)), key=repr)

    def sql(q, cols):
        return rows(con.execute(q).df(), cols)

    want_inner = sql("SELECT l.k, v, w FROM l JOIN r ON l.k = r.k",
                     ["k", "v", "w"])
    want_semi = sql("SELECT * FROM l WHERE k IN (SELECT k FROM r)",
                    ["k", "v"])
    want_anti = sql("SELECT * FROM l WHERE NOT EXISTS "
                    "(SELECT 1 FROM r WHERE r.k = l.k)", ["k", "v"])
    assert want_inner == [("a", 1, 10)]
    assert want_semi == [("a", 1)]
    assert want_anti == [("b", 3), (None, 2)]

    def ds():
        return rd.from_pandas(left), rd.from_pandas(right)

    got = hash_join(*ds(), "k", num_buckets=3).to_pandas()
    assert rows(got, ["k", "v", "w"]) == want_inner
    got = broadcast_join(rd.from_pandas(left), right, "k").to_pandas()
    assert rows(got, ["k", "v", "w"]) == want_inner
    got = hash_semi_join(*ds(), "k", num_buckets=3).to_pandas()
    assert rows(got, ["k", "v"]) == want_semi
    got = hash_semi_join(*ds(), "k", num_buckets=3, anti=True).to_pandas()
    assert rows(got, ["k", "v"]) == want_anti
