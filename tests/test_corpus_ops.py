"""Unit tests for the round-3 corpus operators: PII scrub,
corpus-wide duplicate-line removal, temperature resampling."""

from __future__ import annotations

import hashlib
import os
import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from ocr_table_extractor_to_csv_ray.functions.dedup import duplicate_line_removal
from ocr_table_extractor_to_csv_ray.functions.pii import (
    EMAIL_TOKEN, IPV4_TOKEN, PHONE_TOKEN, pii_scrub_batch, scrub_pii)
from ocr_table_extractor_to_csv_ray.functions.sampling import (
    rate_to_threshold, temperature_sample)


# ---------------------------------------------------------------------------
# PII scrub

def test_pii_batch_counts_and_redaction():
    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array([
            "mail a.b+c@ex-1.co and x@y.io plus ip 10.0.0.1",
            "call +44 123 456 7890 now",
            "clean text with no pii at all",
            None,
        ]),
    })
    out = pii_scrub_batch(t)
    assert out["n_emails"].to_pylist() == [2, 0, 0, None]
    assert out["n_ipv4"].to_pylist() == [1, 0, 0, None]
    assert out["n_phones"].to_pylist() == [0, 1, 0, None]
    clean = out["text_clean"].to_pylist()
    assert clean[0] == f"mail {EMAIL_TOKEN} and {EMAIL_TOKEN} plus ip {IPV4_TOKEN}"
    assert clean[1] == f"call {PHONE_TOKEN} now"
    assert clean[2] == "clean text with no pii at all"
    assert clean[3] is None
    assert out["n_emails"].type == pa.int64()


def test_pii_sequential_order_email_wins_over_ip():
    # the digits-only local part + dotted host would ALSO match IPv4;
    # email is redacted first so the IP pass sees no digits left.
    t = pa.table({"doc_id": pa.array([1], pa.int64()),
                  "text": pa.array(["u@1.2.3.44 tail"])})
    out = pii_scrub_batch(t)
    # email regex requires an alpha TLD, so here the address does NOT
    # match as email but its dotted quad DOES match as IPv4
    assert out["text_clean"].to_pylist() == [f"u@{IPV4_TOKEN} tail"]
    assert out["n_emails"].to_pylist() == [0]
    assert out["n_ipv4"].to_pylist() == [1]


def test_pii_dataset_streams(ray_session):
    import ray.data as rd
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(100), pa.int64()),
        "text": pa.array([f"u{i}@a.com" if i % 2 else "none" for i in range(100)]),
    }))
    out = scrub_pii(ds).to_pandas()
    assert len(out) == 100
    assert int(out["n_emails"].sum()) == 50


# ---------------------------------------------------------------------------
# duplicate-line removal

def _line_dedup_ref(docs: dict[int, str], min_chars: int = 10) -> dict:
    """Sequential spec: first global occurrence (doc_id, idx) of each
    long line survives; short lines always survive."""
    seen: set[str] = set()
    out = {}
    for doc_id in sorted(docs):
        kept, dropped = [], 0
        for line in docs[doc_id].split("\n"):
            if len(line) < min_chars:
                kept.append(line)
            elif line not in seen:
                seen.add(line)
                kept.append(line)
            else:
                dropped += 1
        out[doc_id] = ("\n".join(kept), len(docs[doc_id].split("\n")), dropped)
    return out


def test_duplicate_line_removal_matches_sequential_spec(ray_session):
    import ray.data as rd
    docs = {
        0: "SHARED HEADER LINE\nunique zero body line\n--\ntail",
        1: "SHARED HEADER LINE\nunique one body line\n--",
        2: "unique two body line\nSHARED HEADER LINE\nunique two body line",
        3: "",
        4: "short\nshort",
    }
    ref = _line_dedup_ref(docs)
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(sorted(docs), pa.int64()),
        "text": pa.array([docs[k] for k in sorted(docs)]),
    }))
    got = duplicate_line_removal(ds).to_pandas().set_index("doc_id")
    assert len(got) == len(docs)
    for doc_id, (clean, n_lines, n_dropped) in ref.items():
        row = got.loc[doc_id]
        assert row["text_clean"] == clean, doc_id
        assert row["n_lines"] == n_lines
        assert row["n_dropped"] == n_dropped


def test_duplicate_line_removal_partition_invariant(ray_session):
    import ray.data as rd
    rng = np.random.RandomState(11)
    lines_pool = [f"duplicated corpus line number {i}" for i in range(10)]
    docs = {}
    for d in range(60):
        n = rng.randint(1, 6)
        docs[d] = "\n".join(
            lines_pool[rng.randint(len(lines_pool))] if rng.rand() < 0.7
            else f"unique line {d}-{j} with padding" for j in range(n))
    t = pa.table({"doc_id": pa.array(sorted(docs), pa.int64()),
                  "text": pa.array([docs[k] for k in sorted(docs)])})
    a = (duplicate_line_removal(rd.from_arrow(t))
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    b = (duplicate_line_removal(rd.from_arrow(t).repartition(13))
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)
    ref = _line_dedup_ref(docs)
    for doc_id, (clean, _, _) in ref.items():
        assert a.loc[a["doc_id"] == doc_id, "text_clean"].iloc[0] == clean


# ---------------------------------------------------------------------------
# temperature sampling

def test_temperature_sample_keeps_rarest_fully(ray_session):
    import ray.data as rd
    langs = ["en"] * 400 + ["es"] * 100 + ["fr"] * 25
    t = pa.table({"doc_id": pa.array(range(len(langs)), pa.int64()),
                  "lang": pa.array(langs)})
    out = temperature_sample(rd.from_arrow(t)).to_pandas()
    by = out.groupby("lang").size()
    # rarest language (fr, n == n_min) keeps EVERYTHING
    assert by.get("fr", 0) == 25
    # en rate = sqrt(25/400) = 0.25, es rate = sqrt(25/100) = 0.5:
    # exact expected counts via the same md5-threshold rule
    for lang, n, rate in (("en", 400, 0.25), ("es", 100, 0.5)):
        thr = rate_to_threshold(rate)
        ids = [i for i, l in zip(range(len(langs)), langs) if l == lang]
        expect = sum(hashlib.md5(str(i).encode()).hexdigest()[:8] < thr
                     for i in ids)
        assert by.get(lang, 0) == expect, lang
    # determinism: identical on re-run with different partitioning
    out2 = temperature_sample(rd.from_arrow(t).repartition(7)).to_pandas()
    assert sorted(out2["doc_id"]) == sorted(out["doc_id"])


def test_temperature_threshold_matches_sql_floor_rule():
    # rate_to_threshold truncates toward zero on rate * 16^8 — the SQL
    # mirror uses floor(); equality for every rate in a dense sweep
    for n in range(1, 200):
        rate = math.sqrt(1.0 / n)
        py = rate_to_threshold(rate)
        if rate >= 1.0:
            assert py == "g"
        else:
            assert py == format(int(math.floor(rate * 4294967296.0)), "08x")


# ---------------------------------------------------------------------------
# decontamination

def test_decontaminate_flags_shared_shingles(ray_session):
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.decontam import (
        decontaminate, eval_shingle_set, text_shingles)

    eval_texts = ["the quick brown fox jumps over the lazy dog"]
    sset = eval_shingle_set(eval_texts, k=5)
    assert "the quick brown fox jumps" in sset
    train = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array([
            # shares 2 windows: "the quick brown fox jumps",
            # "quick brown fox jumps over"
            "prefix the quick brown fox jumps over suffix",
            "completely different content with no overlap here",
            "quick brown fox",                 # < k tokens, no shingles
            "the lazy dog sleeps",             # 4 tokens < k
        ]),
    }))
    out = decontaminate(train, sset, k=5).to_pandas().set_index("doc_id")
    assert bool(out.loc[1, "contaminated"]) and out.loc[1, "n_hits"] == 2
    assert not out.loc[2:, "contaminated"].any()
    # drop=True removes only the contaminated doc
    kept = decontaminate(train, sset, k=5, drop=True).to_pandas()
    assert sorted(kept["doc_id"]) == [2, 3, 4]
    # boundary: exactly k tokens → one shingle
    assert len(text_shingles("a b c d e", k=5)) == 1
    assert text_shingles("a b c d", k=5) == []


# ---------------------------------------------------------------------------
# composed prep pipeline

def test_prep_corpus_partition_invariant_and_bounded(ray_session):
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.pipelines.corpus_prep import prep_corpus

    rng = np.random.RandomState(3)
    words = ["alpha", "beta", "gamma", "delta", "the", "and", "of"]
    n = 300
    texts = [" ".join(words[rng.randint(len(words))]
                      for _ in range(rng.randint(2, 60))) for _ in range(n)]
    langs = [["en", "es", "fr"][i % 3] for i in range(n)]
    t = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "lang": pa.array(langs), "text": pa.array(texts)})
    a = (prep_corpus(rd.from_arrow(t), quality_concurrency=2)
         .to_pandas().sort_values("lang").reset_index(drop=True))
    b = (prep_corpus(rd.from_arrow(t).repartition(11), quality_concurrency=2)
         .to_pandas().sort_values("lang").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)
    assert set(a["lang"]) <= {"en", "es", "fr"}
    assert (a["n_docs"] > 0).all() and (a["n_docs"] <= 100).all()
    assert a["total_tokens"].dtype == "int64"


# ---------------------------------------------------------------------------
# grouped HLL

def test_hll_by_group_matches_per_group_global_sketch(ray_session):
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.sketch import (
        hll_vocab_by_group, hll_vocab_sketch)

    rng = np.random.RandomState(5)
    vocab = [f"tok{i}" for i in range(400)]
    langs, texts = [], []
    for i in range(200):
        lang = ["en", "es", "fr"][i % 3]
        langs.append(lang)
        texts.append(" ".join(vocab[rng.randint(len(vocab))]
                              for _ in range(30)))
    t = pa.table({"lang": pa.array(langs), "text": pa.array(texts)})
    got = (hll_vocab_by_group(rd.from_arrow(t).repartition(9))
           .to_pandas().set_index("lang")["vocab_estimate"])
    for lang in ("en", "es", "fr"):
        sub = t.filter(pa.compute.equal(t["lang"], lang))
        est, _ = hll_vocab_sketch(rd.from_arrow(sub))
        # register-max merging is order independent → exact equality
        assert int(got[lang]) == round(est), lang
        # and the estimate is within HLL's error envelope of the truth
        truth = len({w for tx in sub["text"].to_pylist()
                     for w in tx.split()})
        assert abs(got[lang] - truth) / truth < 0.1


def test_hll_sketch_driver_sees_bounded_sketches(ray_session):
    """Like the Bloom tree-merge: the driver must max-merge O(merge_fan)
    sketches, not one per block, and the bounded merge is register-exact
    vs a sequential single sketch (max is grouping-invariant)."""
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.sketch import (
        HyperLogLog, _batch_token_hashes, _hll_partials, hll_vocab_sketch)

    texts = [" ".join(f"w{i}_{j}" for j in range(20)) for i in range(2000)]
    t = pa.table({"text": pa.array(texts)})
    ds = rd.from_arrow(t).repartition(40)
    fan = 8
    parts = _hll_partials(ds, "text", 12, fan, batch_size=50)
    assert parts.count() <= fan
    seq = HyperLogLog(12)
    seq.add_hashes(_batch_token_hashes(t, "text"))
    est, merged = hll_vocab_sketch(ds, merge_fan=fan)
    assert (merged.registers == seq.registers).all()
    assert est == seq.cardinality()


def test_prep_corpus_checkpoint_identical(ray_session, tmp_path):
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.pipelines.corpus_prep import prep_corpus

    n = 120
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "lang": pa.array([["en", "es"][i % 2] for i in range(n)]),
        "text": pa.array(["some reasonable english words here " * 3] * n),
    })
    a = (prep_corpus(rd.from_arrow(t), quality_concurrency=2)
         .to_pandas().sort_values("lang").reset_index(drop=True))
    b = (prep_corpus(rd.from_arrow(t), quality_concurrency=2,
                     checkpoint_dir=str(tmp_path / "ckpt"))
         .to_pandas().sort_values("lang").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)


def test_exact_vocab_by_group_matches_sets(ray_session):
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.sketch import exact_vocab_by_group

    t = pa.table({
        "lang": pa.array(["en", "en", "es", "es", "es"]),
        "text": pa.array(["a b c", "b c d", "x y", "y z", ""]),
    })
    got = (exact_vocab_by_group(rd.from_arrow(t).repartition(3))
           .to_pandas().set_index("lang")["vocab"])
    # en: {a,b,c,d}; es: {x,y,z,''} — the empty-split token counts,
    # matching the SQL regexp_split contract used by vocab_size
    assert int(got["en"]) == 4
    assert int(got["es"]) == 4


def test_repetition_stats_formulas():
    from ocr_table_extractor_to_csv_ray.functions.textstats import (
        repetition_stats_batch)

    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array([
            "dup line\nunique\ndup line",      # 8 of 22 line chars dup
            "a a a b",                          # top word 3/4, bigram "a a" 2/3
            "solo",                             # one token: no bigrams
            "",                                 # empty: all zeros
        ]),
    })
    out = repetition_stats_batch(t).to_pandas().set_index("doc_id")
    assert out.loc[1, "dup_line_char_frac"] == 8 / 22
    assert out.loc[2, "top_word_frac"] == 3 * 1.0 / 4
    assert out.loc[2, "top_bigram_frac"] == 2 * 1.0 / 3
    assert out.loc[3, "top_word_frac"] == 1.0
    assert out.loc[3, "top_bigram_frac"] == 0.0
    assert (out.loc[4] == 0.0).all()


# ---------------------------------------------------------------------------
# sequence packing (distributed prefix sum)

def test_pack_offsets_matches_sequential_scan(ray_session):
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.pack import pack_offsets

    rng = np.random.RandomState(7)
    n = 150
    # non-contiguous, shuffled ids — the range-bucket contract only
    # needs integer ids, not dense or ordered ones
    ids = rng.permutation(np.arange(0, 3 * n, 3))[:n]
    texts = [" ".join("w" for _ in range(rng.randint(0, 40))) for _ in range(n)]
    t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array(texts)})
    L = 64
    got = (pack_offsets(rd.from_arrow(t).repartition(7), seq_len=L,
                        num_buckets=8)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # sequential spec in doc_id order
    order = np.argsort(ids)
    off = 0
    for row_i in order:
        ntok = len(texts[row_i].split())
        g = got[got["doc_id"] == ids[row_i]].iloc[0]
        assert g["n_tokens"] == ntok
        assert g["start_tok"] == off
        assert g["first_seq"] == off // L
        assert g["last_seq"] == (off + ntok) // L
        off += ntok + 1
    # contiguity: consecutive docs tile the stream with no gaps
    assert got["start_tok"].iloc[0] == 0
    n1 = got["n_tokens"] + 1
    assert (got["start_tok"].iloc[1:].to_numpy()
            == (got["start_tok"] + n1).iloc[:-1].to_numpy()).all()
    # partition invariance
    got2 = (pack_offsets(rd.from_arrow(t).repartition(13), seq_len=L,
                         num_buckets=3)
            .to_pandas().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, got2)


def test_pack_manifest_windows_full(ray_session):
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.pack import pack_manifest

    rng = np.random.RandomState(13)
    n = 100
    texts = [" ".join("w" for _ in range(rng.randint(0, 50))) for _ in range(n)]
    t = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "text": pa.array(texts)})
    L = 32
    m = (pack_manifest(rd.from_arrow(t).repartition(6), seq_len=L,
                       num_buckets=5)
         .to_pandas().sort_values("seq_id").reset_index(drop=True))
    total_positions = sum(len(tx.split()) + 1 for tx in texts)
    # window ids tile [0, ceil(total/L)) with no gaps
    assert m["seq_id"].tolist() == list(range((total_positions + L - 1) // L))
    # every window except possibly the last is exactly full
    assert (m["n_filled"].iloc[:-1] == L).all()
    assert int(m["n_filled"].sum()) == total_positions
    assert (m["n_docs"] >= 1).all()


# ---------------------------------------------------------------------------
# Bloom incremental dedup

def test_bloom_filter_membership_and_merge(ray_session):
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.bloom import (
        BloomFilter, bloom_flag, build_bloom)

    old_texts = [f"historical document number {i}" for i in range(200)]
    new_texts = [f"fresh document number {i}" for i in range(200)]
    f = BloomFilter(1 << 16, 4)
    f.add(old_texts)
    assert f.contains(old_texts).all()          # no false negatives, ever
    fp = f.contains(new_texts).mean()
    assert fp < 0.05                            # well under design rate
    # OR-merge == build over the union
    f1, f2 = BloomFilter(1 << 16, 4), BloomFilter(1 << 16, 4)
    f1.add(old_texts[:100]); f2.add(old_texts[100:])
    assert (f1.merge(f2).bits == f.bits).all()

    # dataset path: distributed build equals sequential build bit-for-bit
    old_ds = rd.from_arrow(pa.table({"text": pa.array(old_texts)})).repartition(7)
    built = build_bloom(old_ds, m_bits=1 << 16)
    assert (built.bits == f.bits).all()
    flagged = bloom_flag(
        rd.from_arrow(pa.table({
            "doc_id": pa.array(range(400), pa.int64()),
            "text": pa.array(old_texts + new_texts)})),
        built).to_pandas()
    assert flagged.loc[:199, "maybe_seen"].all()
    assert flagged.loc[200:, "maybe_seen"].mean() < 0.05


def test_bloom_build_driver_sees_bounded_filters(ray_session):
    """The driver-side merge loop must consume O(merge_fan) filters, not
    one per block — the tree-merge contract that makes build_bloom safe
    at 10^6 blocks (mirrors the no-text-crosses-driver test style)."""
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.bloom import (
        BloomFilter, _bloom_partials, build_bloom)

    texts = [f"doc body {i} with some shared tokens" for i in range(3000)]
    ds = rd.from_arrow(pa.table({"text": pa.array(texts)})).repartition(48)
    fan = 8
    # batch_size=50 → ~60 per-batch filters, far more than the fan
    parts = _bloom_partials(ds, "text", 1 << 16, 4, merge_fan=fan,
                            batch_size=50)
    n_parts = parts.count()
    assert n_parts <= fan                     # bounded fan-in to the driver
    # and the bounded merge is still bit-exact vs the sequential build
    seq = BloomFilter(1 << 16, 4)
    seq.add(texts)
    built = build_bloom(ds.repartition(48), m_bits=1 << 16, merge_fan=fan,
                        batch_size=50)
    assert (built.bits == seq.bits).all()


# ---------------------------------------------------------------------------
# chained hash joins (key-dtype contract)

def test_chained_hash_join_matches_pandas(ray_session):
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.join import hash_join

    rng = np.random.RandomState(21)
    a = pd.DataFrame({"k1": np.arange(50, dtype=np.int64),
                      "v_a": rng.randint(0, 9, 50)})
    b = pd.DataFrame({"k1": rng.randint(0, 50, 120).astype(np.int64),
                      "k2": np.arange(120, dtype=np.int64)})
    c = pd.DataFrame({"k2": rng.randint(0, 120, 200).astype(np.int64),
                      "v_c": rng.randint(0, 9, 200)})
    ab = hash_join(rd.from_pandas(a), rd.from_pandas(b), key="k1",
                   num_buckets=4).select_columns(["k2", "v_a"])
    # re-cast the chained key: the first join's union/pad NA-upcasts it
    # and hash bucketing is dtype-sensitive (see hash_join docstring)
    ab = ab.map_batches(
        lambda t: pa.table({"k2": pa.compute.cast(t["k2"], pa.int64()),
                            "v_a": t["v_a"]}), batch_format="pyarrow")
    got = (hash_join(ab, rd.from_pandas(c), key="k2", num_buckets=4)
           .to_pandas().sort_values(["k2", "v_a", "v_c"])
           .reset_index(drop=True))
    exp = (a.merge(b, on="k1")[["k2", "v_a"]].merge(c, on="k2")
           .sort_values(["k2", "v_a", "v_c"]).reset_index(drop=True))
    assert len(got) == len(exp)
    assert (got["k2"].to_numpy() == exp["k2"].to_numpy()).all()
    assert (got["v_a"].astype("int64").to_numpy()
            == exp["v_a"].to_numpy()).all()
    assert (got["v_c"].astype("int64").to_numpy()
            == exp["v_c"].to_numpy()).all()


def test_hash_join_rejects_key_dtype_mismatch(ray_session):
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.join import hash_join

    l = rd.from_pandas(pd.DataFrame({"k": np.arange(5, dtype=np.int64)}))
    r = rd.from_pandas(pd.DataFrame({"k": np.arange(5, dtype=np.float64),
                                     "v": np.arange(5)}))
    with pytest.raises(ValueError, match="dtype mismatch"):
        hash_join(l, r, key="k")


def test_cli_corpus_prep(ray_session, tmp_path, capsys):
    import json
    import pyarrow.parquet as pq
    from ocr_table_extractor_to_csv_ray import cli

    n = 90
    docs = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "lang": pa.array([["en", "es", "fr"][i % 3] for i in range(n)]),
        # 24 DISTINCT words: clears the quality gate (low repetition,
        # enough tokens) so the report is non-empty
        "text": pa.array([" ".join(f"word{j}" for j in range(24))] * n),
    })
    src = str(tmp_path / "docs.parquet")
    out = str(tmp_path / "report.parquet")
    pq.write_table(docs, src)
    cli.main(["corpus-prep", src, out])
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    report = pq.read_table(out).to_pandas()
    assert summary["languages"] == len(report) > 0
    assert summary["n_docs"] == int(report["n_docs"].sum()) <= n
    assert set(report.columns) == {"lang", "n_docs", "total_tokens"}


def test_duplicate_line_removal_hot_cap_identical(ray_session):
    import ray.data as rd
    # one line duplicated far past the cap + normal dup/unique mix
    docs = {}
    for d in range(80):
        body = [f"MEGA HOT BOILERPLATE LINE"]
        if d % 3 == 0:
            body.append("a cold duplicated line here")
        body.append(f"unique content for doc {d}")
        docs[d] = "\n".join(body)
    t = pa.table({"doc_id": pa.array(sorted(docs), pa.int64()),
                  "text": pa.array([docs[k] for k in sorted(docs)])})
    base = (duplicate_line_removal(rd.from_arrow(t).repartition(9))
            .to_pandas().sort_values("doc_id").reset_index(drop=True))
    hot = (duplicate_line_removal(rd.from_arrow(t).repartition(9),
                                  hot_cap=10)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(base, hot)
    # sanity: the hot line survives exactly once, in doc 0
    assert base.loc[0, "text_clean"].startswith("MEGA HOT")
    assert (base.loc[1:, "text_clean"].str.contains("MEGA HOT") == False).all()


def test_decontaminate_joined_matches_broadcast(ray_session):
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.decontam import (
        decontaminate, decontaminate_joined, eval_shingle_set)

    rng = np.random.RandomState(17)
    words = [f"w{i}" for i in range(30)]
    eval_texts = [" ".join(words[rng.randint(30)] for _ in range(20))
                  for _ in range(10)]
    train_texts = []
    for d in range(120):
        if d % 4 == 0:   # splice an eval passage into some train docs
            ev = eval_texts[d % 10].split()
            train_texts.append(" ".join(["pre"] + ev[3:11] + ["post"]))
        else:
            train_texts.append(" ".join(
                words[rng.randint(30)] for _ in range(rng.randint(2, 25))))
    train = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(120), pa.int64()),
        "text": pa.array(train_texts)}))
    evds = rd.from_arrow(pa.table({"text": pa.array(eval_texts)}))

    a = (decontaminate(train, eval_shingle_set(eval_texts, k=5), k=5)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    b = (decontaminate_joined(train.repartition(7), evds.repartition(3),
                              k=5)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert (a["contaminated"].to_numpy() == b["contaminated"].to_numpy()).all()
    assert (a["n_hits"].to_numpy() == b["n_hits"].to_numpy()).all()
    assert a["contaminated"].any()       # the spliced passages do hit


# ---------------------------------------------------------------------------
# hypothesis properties for the distributed prefix sum + line dedup

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=10, deadline=None)
@given(st.lists(st.tuples(st.integers(-10**6, 10**6),
                          st.integers(0, 30)),
                min_size=1, max_size=40, unique_by=lambda x: x[0]))
def test_pack_offsets_property(ray_session, docs):
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.pack import pack_offsets

    ids = [d[0] for d in docs]
    texts = [" ".join("w" for _ in range(d[1])) for d in docs]
    t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array(texts)})
    got = (pack_offsets(rd.from_arrow(t).repartition(3), seq_len=16,
                        num_buckets=4)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    off = 0
    for i in np.argsort(ids):
        row = got[got["doc_id"] == ids[i]].iloc[0]
        n = docs[i][1]
        assert row["n_tokens"] == n
        assert row["start_tok"] == off
        assert row["first_seq"] == off // 16
        assert row["last_seq"] == (off + n) // 16
        off += n + 1


@settings(max_examples=10, deadline=None)
@given(st.lists(st.lists(st.sampled_from(
    ["a duplicated corpus line", "another repeated long line",
     "xy", "", "some sufficiently long unique-ish line"]),
    min_size=0, max_size=5), min_size=1, max_size=20))
def test_duplicate_line_removal_property(ray_session, line_lists):
    import ray.data as rd
    docs = {i: "\n".join(lines) for i, lines in enumerate(line_lists)}
    ref = _line_dedup_ref(docs)
    t = pa.table({"doc_id": pa.array(sorted(docs), pa.int64()),
                  "text": pa.array([docs[k] for k in sorted(docs)])})
    got = (duplicate_line_removal(rd.from_arrow(t).repartition(3))
           .to_pandas().set_index("doc_id"))
    assert len(got) == len(docs)
    for doc_id, (clean, n_lines, n_dropped) in ref.items():
        assert got.loc[doc_id, "text_clean"] == clean, doc_id
        assert got.loc[doc_id, "n_lines"] == n_lines
        assert got.loc[doc_id, "n_dropped"] == n_dropped


def test_doc_rank_by_length_matches_sql_rank(ray_session, tmp_path):
    """Histogram-CDF global rank == SQL rank() (ties share min rank),
    independent of block layout, no sort in the plan."""
    import duckdb
    import numpy as np
    import __ray_entry__ as E

    rng = np.random.default_rng(11)
    n = 500
    t = pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "text": pa.array(["x"] * n),
        "lang": pa.array(["en"] * n),
        "source": pa.array(["web"] * n),
        # few distinct lengths → heavy ties, the hard case for rank()
        "n_chars": pa.array(rng.integers(10, 25, n), pa.int64()),
    })
    import pyarrow.parquet as pq
    pq.write_table(t, tmp_path / "documents.parquet")
    got = (E._doc_rank_by_length(str(tmp_path)).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    want = duckdb.sql(
        "SELECT doc_id, n_chars, rank() OVER (ORDER BY n_chars) AS length_rank "
        f"FROM read_parquet('{tmp_path}/documents.parquet') ORDER BY doc_id"
    ).df()
    assert (got["length_rank"].to_numpy() == want["length_rank"].to_numpy()).all()
    assert got["length_rank"].dtype == np.int64


def test_corpus_rollup_levels(ray_session, tmp_path):
    """All three ROLLUP levels present; upper levels NULL-padded; totals
    consistent across levels."""
    import numpy as np
    import pyarrow.parquet as pq
    import __ray_entry__ as E

    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array(["a", "b", "c", "d"]),
        "lang": pa.array(["en", "en", "de", "de"]),
        "source": pa.array(["web", "pdf", "web", "web"]),
        "n_chars": pa.array([10, 20, 30, 40], pa.int64()),
    })
    pq.write_table(t, tmp_path / "documents.parquet")
    out = E._corpus_rollup(str(tmp_path)).to_pandas()
    grand = out[out["lang"].isna()]
    assert len(grand) == 1 and grand["chars"].iloc[0] == 100 \
        and grand["docs"].iloc[0] == 4
    langs = out[out["lang"].notna() & out["source"].isna()]
    assert dict(zip(langs["lang"], langs["chars"])) == {"en": 30, "de": 70}
    finest = out[out["source"].notna()]
    assert len(finest) == 3           # (en,web) (en,pdf) (de,web)
    assert finest["chars"].sum() == 100 and finest["docs"].sum() == 4


def _write_events(tmp_path, rows):
    import pyarrow.parquet as pq
    us = 1_000_000
    t = pa.table({
        "event_id": pa.array(range(len(rows)), pa.int64()),
        "ts": pa.array([r[2] * us for r in rows], pa.timestamp("us")),
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "event_type": pa.array([r[1] for r in rows]),
        "value": pa.array([1.0] * len(rows)),
        "props": pa.array(["{}"] * len(rows)),
    })
    pq.write_table(t, tmp_path / "events.parquet")


def test_funnel_conversion_ordering(ray_session, tmp_path):
    """Only strictly-ordered first-touch sequences count; a purchase
    BEFORE the first click must not convert."""
    import __ray_entry__ as E
    rows = [
        # user 1: full ordered funnel
        (1, "view", 10), (1, "click", 20), (1, "purchase", 30),
        # user 2: view then click, purchase BEFORE click → not full
        (2, "view", 10), (2, "purchase", 15), (2, "click", 20),
        # user 3: click before view → no view_click
        (3, "click", 5), (3, "view", 10),
        # user 4: view only
        (4, "view", 10),
        # user 5: no view at all
        (5, "click", 1), (5, "purchase", 2),
    ]
    _write_events(tmp_path, rows)
    out = E._funnel_conversion(str(tmp_path))
    assert out.iloc[0].to_dict() == {
        "n_view": 4, "n_view_click": 2, "n_full_funnel": 1}


def test_user_retention_cohorts_offsets(ray_session, tmp_path):
    """Cohort = first-seen week; duplicates within a week collapse;
    result invariant under block layout (the cross-block dedup case)."""
    import ray.data as rd
    import __ray_entry__ as E
    wk = 7 * 24 * 3600
    rows = (
        # user 1: weeks 0, 0, 2 (dup in week 0)
        [(1, "view", 10), (1, "view", 20), (1, "view", 2 * wk + 5)]
        # user 2: weeks 1, 2
        + [(2, "view", wk + 1), (2, "view", 2 * wk + 1)]
        # user 3: many events same week → single (cohort 0, offset 0)
        + [(3, "view", i * 100) for i in range(50)]
    )
    _write_events(tmp_path, rows)
    out = (E._user_retention_cohorts(str(tmp_path)).to_pandas()
           .sort_values(["cohort_week", "week_offset"]).reset_index(drop=True))
    got = {(r.cohort_week, r.week_offset): r.n_users for r in out.itertuples()}
    assert got == {(0, 0): 2, (0, 2): 1, (1, 0): 1, (1, 1): 1}


def test_docs_above_lang_avg_boundary(ray_session, tmp_path):
    """Strictly-above semantics: a doc exactly AT the group mean is
    excluded; single-doc groups never qualify (n == mean)."""
    import pyarrow.parquet as pq
    import __ray_entry__ as E
    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "text": pa.array(["x"] * 5),
        "lang": pa.array(["en", "en", "en", "de", "fr"]),
        "source": pa.array(["web"] * 5),
        # en: 10, 20, 30 → mean 20; doc 2 AT the mean must not pass
        "n_chars": pa.array([10, 20, 30, 7, 9], pa.int64()),
    })
    pq.write_table(t, tmp_path / "documents.parquet")
    out = E._docs_above_lang_avg(str(tmp_path)).to_pandas()
    assert sorted(out["doc_id"]) == [3]


def test_event_gap_histogram_semantics(ray_session, tmp_path):
    """Gaps are per-user consecutive differences bucketed by minute;
    single-event users contribute nothing; tie order is irrelevant."""
    import __ray_entry__ as E
    rows = [
        (1, "view", 0), (1, "view", 59), (1, "view", 59 + 61),   # gaps 0min, 1min
        (2, "view", 100), (2, "view", 100), (2, "view", 100 + 3600),  # 0min, 60min
        (3, "view", 42),                                          # no gap
    ]
    _write_events(tmp_path, rows)
    out = (E._event_gap_histogram(str(tmp_path)).to_pandas()
           .sort_values("gap_minutes").reset_index(drop=True))
    got = dict(zip(out["gap_minutes"], out["n_gaps"]))
    assert got == {0: 2, 1: 1, 60: 1}


def test_user_feature_pivot_semantics(ray_session, tmp_path):
    """Wide pivot: one row per user, fixed-vocabulary columns; users
    missing a type get 0 (not NULL); value cents floor per row."""
    import __ray_entry__ as E
    rows = [
        (1, "view", 10), (1, "view", 20), (1, "purchase", 30),
        (2, "error", 5),
    ]
    _write_events(tmp_path, rows)
    out = (E._user_feature_pivot(str(tmp_path)).to_pandas()
           .sort_values("user_id").set_index("user_id"))
    assert out.loc[1, "n_view"] == 2 and out.loc[1, "n_purchase"] == 1
    assert out.loc[1, "n_click"] == 0 and out.loc[1, "cents_click"] == 0
    assert out.loc[2, "n_error"] == 1 and out.loc[2, "n_view"] == 0
    # value=1.0 everywhere in the fixture → cents = 100 per event
    assert out.loc[1, "cents_view"] == 200
    assert set(out.dtypes.astype(str)) == {"int64"}


def test_star_join_rejects_unknown_dimension_key(ray_session, tmp_path,
                                                 monkeypatch):
    """A fact row referencing a supplier outside the dimension must
    fail loudly, not wrap into another region's sum — in the dense
    tier (default budget) and in the hash tier (budget 0)."""
    import shutil
    import pytest
    import ray
    import pyarrow.parquet as pq
    import __ray_entry__ as E
    from ocr_table_extractor_to_csv_ray.functions import join

    src = "/root/testdata/sf0.001"
    for t in ("supplier", "nation", "region"):
        shutil.copy(os.path.join(src, f"{t}.parquet"), tmp_path)
    li = pq.read_table(os.path.join(src, "lineitem.parquet"),
                       columns=["l_suppkey", "l_extendedprice", "l_discount"])
    bad = li.set_column(0, "l_suppkey",
                        pa.array([10**6] * li.num_rows, pa.int64()))
    pq.write_table(bad, tmp_path / "lineitem.parquet")
    for budget in (join.DENSE_LOOKUP_BYTES, 0):
        monkeypatch.setattr(join, "DENSE_LOOKUP_BYTES", budget)
        with pytest.raises(ray.exceptions.RayTaskError,
                           match="l_suppkey value has no s_suppkey row"):
            E._star_join_region_revenue(str(tmp_path)).materialize()


def test_cli_evaluate_corpus_vs_corpus(ray_session, tmp_path, capsys):
    """VERDICT r3 #7: `evaluate REF_DIR PRED_DIR` streams two extraction
    output directories through the combined-partials evaluator and
    writes the reference's report schema (eval_cli.py flags:
    --report/--json/--numeric-columns, incl. header-NAME filtering)."""
    import csv as _csv
    import json
    import pyarrow.parquet as pq
    from ocr_table_extractor_to_csv_ray import cli
    from ocr_table_extractor_to_csv_ray.core.spans import grid_to_spans
    from ocr_table_extractor_to_csv_ray.sources.synthetic import SPAN_TYPE

    header = ["amount", "qty", "note"]

    def spanify(rows):
        return [{"kind": k, "text": t, "media_ref": m, "offset": o}
                for k, t, m, o in grid_to_spans(header, rows)]

    n = 40
    ids = [f"d{i:03d}" for i in range(n)]
    refs = [spanify([[str(i), str(2 * i), "x"]]) for i in range(n)]
    preds = [spanify([[str(i), str(2 * i + (i % 4)), "y"]]) for i in range(n)]
    ref_dir, pred_dir = str(tmp_path / "ref"), str(tmp_path / "pred")
    for d, spans in ((ref_dir, refs), (pred_dir, preds)):
        import os
        os.makedirs(d)
        pq.write_table(pa.table({
            "doc_id": pa.array(ids),
            "spans": pa.array(spans, pa.list_(SPAN_TYPE))}),
            os.path.join(d, "part.parquet"))

    report = str(tmp_path / "report.csv")
    jreport = str(tmp_path / "report.json")
    cli.main(["evaluate", ref_dir, pred_dir,
              "--report", report, "--json", jreport])
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["total_cells"] == n * 3
    # col_0 always matches; col_1 matches when i%4==0; col_2 never
    want_matched = n + sum(1 for i in range(n) if i % 4 == 0)
    assert summary["matched_cells"] == want_matched

    with open(report, encoding="utf-8") as fh:
        rows = list(_csv.reader(fh))
    assert rows[0] == ["Metric", "Column", "Value", "N"]   # reference schema
    metrics = [r[0] for r in rows[1:]]
    assert metrics[0] == "text_accuracy"
    assert {"mse", "rmse", "r2"} <= set(metrics)
    assert "overall_mse" in metrics

    j = json.load(open(jreport))
    assert {m["column"] for m in j["numeric_by_column"]} == {"col_0", "col_1"}
    mse1 = next(m for m in j["numeric_by_column"] if m["column"] == "col_1")
    assert mse1["mse"] == pytest.approx(
        sum((i % 4) ** 2 for i in range(n)) / n)

    # --numeric-columns filters by REF HEADER NAME (reference parity)
    cli.main(["evaluate", ref_dir, pred_dir, "--json", jreport,
              "--numeric-columns", "qty"])
    capsys.readouterr()
    j2 = json.load(open(jreport))
    assert {m["column"] for m in j2["numeric_by_column"]} == {"col_1"}
    assert j2["numeric_overall"]["n"] == mse1["n"]        # pooled = col_1 only
    assert j2["total_cells"] == j["total_cells"]      # text metrics untouched


# ---------------------------------------------------------------- round 4

def test_rows_window_agg_matches_pandas_rolling(ray_session):
    """ROWS-frame moving sum/count vs pandas rolling (the frame includes
    exactly min(k+1, position+1) rows; ts ties broken by event_id)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ocr_table_extractor_to_csv_ray.functions.window import rows_window_agg

    rng = np.random.RandomState(7)
    n = 400
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.randint(0, 5, n).astype(np.int64),
        # coarse second resolution so ties are COMMON — exercises tiebreak
        "ts": pd.to_datetime(rng.randint(0, 50, n), unit="s"),
        "cents": rng.randint(-100, 100, n).astype(np.int64),
    })
    out = (rows_window_agg(rd.from_pandas(df).repartition(4),
                           key="user_id", ts="ts",
                           order_tiebreak="event_id",
                           preceding_rows=2, value_cents="cents")
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    exp = df.sort_values(["user_id", "ts", "event_id"]).copy()
    g = exp.groupby("user_id")["cents"]
    exp["moving_sum_cents"] = (g.rolling(3, min_periods=1).sum()
                               .reset_index(level=0, drop=True).astype(np.int64))
    exp["n_frame"] = (g.rolling(3, min_periods=1).count()
                      .reset_index(level=0, drop=True).astype(np.int64))
    exp = exp.sort_values("event_id").reset_index(drop=True)
    assert (out["moving_sum_cents"].to_numpy()
            == exp["moving_sum_cents"].to_numpy()).all()
    assert (out["n_frame"].to_numpy() == exp["n_frame"].to_numpy()).all()


def test_rows_window_agg_rejects_negative_frame(ray_session):
    import pandas as pd
    import ray.data as rd

    from ocr_table_extractor_to_csv_ray.functions.window import rows_window_agg

    ds = rd.from_pandas(pd.DataFrame(
        {"user_id": [1], "ts": pd.to_datetime([0], unit="s"), "cents": [1]}))
    with pytest.raises(ValueError, match="preceding_rows"):
        rows_window_agg(ds, preceding_rows=-1)


def test_heavy_hitter_terms_exact_and_superset_guarantee(ray_session):
    """Union-of-per-block candidates must contain every true φ-heavy
    hitter; the recount must return its EXACT frequency; nothing below
    the threshold may appear. Adversarial layout: the heavy token is
    spread so thin that no single block makes it locally heavy-looking
    by a large margin."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ocr_table_extractor_to_csv_ray.functions.sketch import (
        heavy_hitter_terms)

    rng = np.random.RandomState(3)
    # 3000 docs, 1 token each: 'hh' appears 400x spread uniformly,
    # 'mid' 99x (just below the 1/30 threshold at N=3000), rest unique
    toks = (["hh"] * 400 + ["mid"] * 99
            + [f"u{i}" for i in range(3000 - 499)])
    rng.shuffle(toks)
    docs = pd.DataFrame({"text": toks})
    out = (heavy_hitter_terms(rd.from_pandas(docs).repartition(8),
                              phi_den=30)
           .to_pandas().set_index("token")["freq"])
    # N=3000, threshold = N/30 = 100: hh (400) in, mid (99) out
    assert out.to_dict() == {"hh": 400}

    # exactness across a Zipf-ish corpus vs a brute-force count
    words = [f"w{min(int(rng.zipf(1.5)), 40)}" for _ in range(5000)]
    docs2 = pd.DataFrame({"text": [" ".join(words[i:i + 5])
                                   for i in range(0, 5000, 5)]})
    got = (heavy_hitter_terms(rd.from_pandas(docs2).repartition(6),
                              phi_den=50)
           .to_pandas().set_index("token")["freq"].sort_index())
    vc = pd.Series(words).value_counts()
    exp = vc[vc * 50 >= len(words)].sort_index()
    assert got.index.tolist() == exp.index.tolist()
    assert (got.to_numpy() == exp.to_numpy()).all()


def test_heavy_hitter_terms_rejects_bad_phi(ray_session):
    import pandas as pd
    import ray.data as rd

    from ocr_table_extractor_to_csv_ray.functions.sketch import (
        heavy_hitter_terms)

    ds = rd.from_pandas(pd.DataFrame({"text": ["a"]}))
    with pytest.raises(ValueError, match="phi_den"):
        heavy_hitter_terms(ds, phi_den=1)


def test_grouped_centroid_fixedpoint_exact_and_dtype(ray_session):
    """Per-group vector mean pooling: integer fixed-point sums match a
    numpy reference exactly, the group key keeps its input dtype
    (int32) through Ray's int64-upcasting groupby, and ragged vectors
    fail loudly."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ocr_table_extractor_to_csv_ray.functions.clustering import (
        grouped_centroid_fixedpoint)

    rng = np.random.RandomState(11)
    n, dim = 300, 8
    lab = rng.randint(0, 4, n).astype(np.int32)
    mat = rng.randn(n, dim).astype(np.float32)
    t = pa.table({"label": pa.array(lab),
                  "embedding": pa.array(list(mat),
                                        pa.list_(pa.float32()))})
    out = (grouped_centroid_fixedpoint(rd.from_arrow(t).repartition(5))
           .to_pandas().sort_values(["label", "dim"]).reset_index(drop=True))
    assert out["label"].dtype == np.int32
    fp = np.floor(mat.astype(np.float64) * 1e6).astype(np.int64)
    for g in np.unique(lab):
        sub = out[out["label"] == g]
        assert (sub["sum_fp"].to_numpy() == fp[lab == g].sum(axis=0)).all()
        assert (sub["n"].to_numpy() == (lab == g).sum()).all()

    ragged = pa.table({"label": pa.array([1, 2], pa.int32()),
                       "embedding": pa.array([[1.0, 2.0], [3.0]],
                                             pa.list_(pa.float32()))})
    with pytest.raises(Exception):
        grouped_centroid_fixedpoint(rd.from_arrow(ragged)).to_pandas()


def test_equidepth_buckets_quartiles_and_ties(ray_session):
    """Bucket boundaries are exact type-1 quantiles; equal values always
    share a bucket; bucket populations are balanced up to tie mass."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ocr_table_extractor_to_csv_ray.functions.quantiles import (
        equidepth_buckets)

    rng = np.random.RandomState(5)
    v = rng.randint(0, 50, 1000).astype(np.int64)   # heavy ties
    df = pd.DataFrame({"doc_id": np.arange(1000, dtype=np.int64),
                       "n_chars": v})
    out = (equidepth_buckets(rd.from_pandas(df).repartition(7),
                             value_col="n_chars", id_col="doc_id",
                             n_buckets=4)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # SQL-contract reference: boundaries = smallest value whose cum
    # count >= ceil(i*n/4); bucket = 1 + #(boundaries < value)
    s = np.sort(v)
    n = len(s)
    bnd = np.array([s[(i * n + 3) // 4 - 1] for i in (1, 2, 3)])
    exp = 1 + np.searchsorted(np.sort(bnd), v, side="left")
    assert (out["bucket"].to_numpy() == exp).all()
    # ties: every equal value maps to one bucket
    m = pd.DataFrame({"v": v, "b": out["bucket"]})
    assert (m.groupby("v")["b"].nunique() == 1).all()
    assert set(out["bucket"]) <= {1, 2, 3, 4}

    with pytest.raises(ValueError, match="n_buckets"):
        equidepth_buckets(rd.from_pandas(df), value_col="n_chars",
                          n_buckets=1)


def test_dataset_diff_multiset_semantics(ray_session):
    """Symmetric multiset diff by content hash: equal tables diff empty;
    mutation, deletion and duplication each surface with correct
    per-side excess counts."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ocr_table_extractor_to_csv_ray.functions.diff import (
        dataset_diff, diff_summary)

    a = pd.DataFrame({"k": np.arange(100, dtype=np.int64),
                      "v": [f"row{i}" for i in range(100)]})
    same = dataset_diff(rd.from_pandas(a).repartition(4),
                        rd.from_pandas(a.sample(frac=1, random_state=0))
                        .repartition(3)).to_pandas()
    assert len(same) == 0                      # order-independent

    b = a.copy()
    b.loc[5, "v"] = "mutated"                  # 1 changed
    b = b[b["k"] != 7]                         # 1 deleted from right
    b = pd.concat([b, a.iloc[[9]]])            # 1 duplicated on right
    s = diff_summary(rd.from_pandas(a).repartition(4),
                     rd.from_pandas(b).repartition(4))
    # left excess: old row 5, deleted row 7 -> 2; right excess:
    # mutated row 5, extra copy of row 9 -> 2
    assert s == {"only_left": 2, "only_right": 2}

    # column subset: diff on k only ignores the mutation
    s2 = diff_summary(rd.from_pandas(a), rd.from_pandas(b), columns=["k"])
    assert s2 == {"only_left": 1, "only_right": 1}


def test_rows_window_agg_random_frames(ray_session):
    """ROWS frame at several k values vs pandas rolling (one Ray session,
    deterministic seeds — the hypothesis-style sweep without per-example
    Dataset overhead)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ocr_table_extractor_to_csv_ray.functions.window import rows_window_agg

    for seed, k in [(0, 0), (1, 1), (2, 4), (3, 9)]:
        rng = np.random.RandomState(seed)
        n = 200
        df = pd.DataFrame({
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": rng.randint(0, 4, n).astype(np.int64),
            "ts": pd.to_datetime(rng.randint(0, 30, n), unit="s"),
            "cents": rng.randint(-500, 500, n).astype(np.int64),
        })
        out = (rows_window_agg(rd.from_pandas(df).repartition(3),
                               key="user_id", ts="ts",
                               order_tiebreak="event_id",
                               preceding_rows=k, value_cents="cents")
               .to_pandas().sort_values("event_id").reset_index(drop=True))
        exp = df.sort_values(["user_id", "ts", "event_id"]).copy()
        g = exp.groupby("user_id")["cents"]
        exp["ms"] = (g.rolling(k + 1, min_periods=1).sum()
                     .reset_index(level=0, drop=True).astype(np.int64))
        exp = exp.sort_values("event_id").reset_index(drop=True)
        assert (out["moving_sum_cents"].to_numpy()
                == exp["ms"].to_numpy()).all(), (seed, k)


def test_dataset_diff_random_multisets(ray_session):
    """diff_summary vs a Counter ground truth over random multisets
    (duplicate rows included)."""
    import collections
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ocr_table_extractor_to_csv_ray.functions.diff import diff_summary

    for seed in (0, 1, 2):
        rng = np.random.RandomState(seed)
        a = rng.randint(0, 12, 150)             # small domain -> many dups
        b = rng.randint(0, 12, 140)
        ca, cb = collections.Counter(a.tolist()), collections.Counter(b.tolist())
        only_left = sum(max(ca[k] - cb.get(k, 0), 0) for k in ca)
        only_right = sum(max(cb[k] - ca.get(k, 0), 0) for k in cb)
        s = diff_summary(
            rd.from_pandas(pd.DataFrame({"v": a.astype(np.int64)})).repartition(4),
            rd.from_pandas(pd.DataFrame({"v": b.astype(np.int64)})).repartition(3))
        assert s == {"only_left": only_left, "only_right": only_right}, seed


def test_grouped_centroid_string_group_key(ray_session):
    """The group key dtype restore must work for STRING keys too (the
    by-lang centroid case), not just int32."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from ocr_table_extractor_to_csv_ray.functions.clustering import (
        grouped_centroid_fixedpoint)

    rng = np.random.RandomState(4)
    n, dim = 120, 5
    langs = np.array(["en", "de", "fr"])[rng.randint(0, 3, n)]
    mat = rng.randn(n, dim).astype(np.float32)
    t = pa.table({"lang": pa.array(langs), 
                  "embedding": pa.array(list(mat), pa.list_(pa.float32()))})
    out = (grouped_centroid_fixedpoint(rd.from_arrow(t).repartition(4),
                                       group_col="lang")
           .to_pandas().sort_values(["lang", "dim"]).reset_index(drop=True))
    fp = np.floor(mat.astype(np.float64) * 1e6).astype(np.int64)
    for g in np.unique(langs):
        sub = out[out["lang"] == g]
        assert (sub["sum_fp"].to_numpy() == fp[langs == g].sum(axis=0)).all()
        assert (sub["n"].to_numpy() == int((langs == g).sum())).all()


def test_mixture_sample_targets_weights(ray_session):
    """Keep-rates: binding stratum keeps 100%, others thin so the kept
    budget tracks the weight vector; unweighted strata drop entirely."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from ocr_table_extractor_to_csv_ray.functions.sampling import (
        mixture_sample)

    rng = np.random.RandomState(1)
    langs = np.array(["en"] * 4000 + ["de"] * 500 + ["zh"] * 800)
    df = pd.DataFrame({"doc_id": np.arange(len(langs), dtype=np.int64),
                       "lang": langs,
                       "n_chars": rng.randint(50, 150,
                                              len(langs)).astype(np.int64)})
    weights = {"en": 0.5, "de": 0.5}
    out = (mixture_sample(rd.from_pandas(df).repartition(4), weights,
                          budget_column="n_chars")
           .to_pandas())
    assert set(out["lang"]) <= {"en", "de"}          # zh dropped
    # de is binding (T_de/0.5 < T_en/0.5): every de row kept
    assert (out["lang"] == "de").sum() == 500
    kept = out.groupby("lang")["n_chars"].sum()
    # kept budgets should be ~equal (w 0.5/0.5); md5 thinning is
    # deterministic but stochastic-like — allow 15%
    ratio = kept["en"] / kept["de"]
    assert 0.85 < ratio < 1.15, ratio

    with pytest.raises(ValueError, match="weights"):
        mixture_sample(rd.from_pandas(df), {"en": 0.0})


def test_consistent_sample_stable_under_growth(ray_session):
    """Each row's priority is a pure function of its id, so growing the
    corpus can only swap members in/out — the intersection of the two
    samples must equal the smaller corpus's sample minus displaced ids,
    and every displaced id must be displaced by a smaller priority."""
    import pandas as pd
    import ray.data as rd
    from ocr_table_extractor_to_csv_ray.functions.sampling import (
        consistent_sample)

    def pri(i):
        return (i * 2654435761) % (1 << 32)

    small = pd.DataFrame({"doc_id": range(1, 301)})
    big = pd.DataFrame({"doc_id": range(1, 601)})
    k = 50
    s1 = sorted(r["doc_id"] for r in consistent_sample(
        rd.from_pandas(small).repartition(3), k=k).take_all())
    s2 = sorted(r["doc_id"] for r in consistent_sample(
        rd.from_pandas(big).repartition(4), k=k).take_all())
    exp1 = sorted(sorted(small["doc_id"], key=lambda i: (pri(i), i))[:k])
    exp2 = sorted(sorted(big["doc_id"], key=lambda i: (pri(i), i))[:k])
    assert s1 == exp1 and s2 == exp2
    # determinism across runs
    s1b = sorted(r["doc_id"] for r in consistent_sample(
        rd.from_pandas(small).repartition(5), k=k).take_all())
    assert s1b == s1


def test_dense_lookup_tiers_equivalent(ray_session, monkeypatch):
    """Every ``dense_lookup`` site gives the identical frame through
    the hash tier (byte budget 0) as through the dense tier. For
    nation_trade_matrix also a budget that keeps its supplier lookup
    dense and sends its customer lookup to the hash tier; the tier
    gate keys on the dense array length (max_key + 1), not row count."""
    import __ray_entry__ as E
    from ocr_table_extractor_to_csv_ray.functions import join

    sf = E._SF_DEFAULT
    supp_lut = join._pq_col_max(os.path.join(sf, "supplier.parquet"),
                                "s_suppkey") + 1
    cust_lut = join._pq_col_max(os.path.join(sf, "customer.parquet"),
                                "c_custkey") + 1
    assert supp_lut < cust_lut           # int8 nation codes: 1 B/entry
    budgets = {"star_join_region_revenue": [0],
               "promo_revenue_share": [0],
               "supplier_distinct_parts": [0],
               "nation_trade_matrix": [0, supp_lut]}
    for name, tiers in budgets.items():
        def run():
            out = E.queries()[name](sf)
            out = out.to_pandas() if hasattr(out, "to_pandas") else out
            return out.sort_values(list(out.columns)).reset_index(drop=True)

        monkeypatch.setattr(join, "DENSE_LOOKUP_BYTES", 32 << 20)
        base = run()                                 # dense tier
        for budget in tiers:
            monkeypatch.setattr(join, "DENSE_LOOKUP_BYTES", budget)
            assert base.equals(run()), (name, budget)
        assert len(base) > 0, name


def test_pq_col_max_matches_data(tmp_path):
    import pyarrow.parquet as pq
    from ocr_table_extractor_to_csv_ray.functions.join import _pq_col_max

    t = pa.table({"k": pa.array([7, 3, 9_999, 12], pa.int64())})
    pq.write_table(t, tmp_path / "t.parquet", row_group_size=2)
    assert _pq_col_max(str(tmp_path / "t.parquet"), "k") == 9_999
    assert _pq_col_max(str(tmp_path / "t.parquet"), "absent") is None
