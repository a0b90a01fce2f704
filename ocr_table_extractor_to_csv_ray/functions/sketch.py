"""Mergeable sketches + exact distinct counts over token streams.

The aggregation-at-scale pattern (ray_guide: "for sketches emit one
serialized sketch per batch and merge them in a second, tiny stage"):

- :func:`exact_vocab_size` — exact distinct tokens: per-batch LOCAL
  dedup first (shrinks the shuffle to unique-per-batch tokens), then a
  groupby-distinct counted by row-count metadata (driver never sees a
  token value).
- :class:`HyperLogLog` — classic HLL (Flajolet et al., public
  algorithm) with the standard bias corrections; one sketch per batch,
  pre-merged in ONE bounded-fan-in ``groupby(bucket).map_groups``
  round (register-wise max is commutative/associative/idempotent, so
  the grouping is result-invariant) — the driver max-merges at most
  ``merge_fan`` sketches no matter how many blocks the corpus has
  (same shape as functions/bloom.py's tree merge; at 10^6 blocks a
  driver-serial merge would pull 4 GB through one process).
"""

from __future__ import annotations

from typing import List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .textstats import token_hash64


class HyperLogLog:
    """HLL with ``2**p`` registers (p=12 → ~1.6 % relative error)."""

    def __init__(self, p: int = 12) -> None:
        self.p = p
        self.m = 1 << p
        self.registers = np.zeros(self.m, dtype=np.uint8)

    def add_hashes(self, h: np.ndarray) -> None:
        h = h.astype(np.uint64)
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = (h << np.uint64(self.p)) | np.uint64((1 << self.p) - 1)
        # rank = leading zeros of the remaining 64-p bits, +1
        lz = np.zeros(len(h), dtype=np.uint8)
        cur = rest.copy()
        mask = np.uint64(1) << np.uint64(63)
        for r in range(64 - self.p + 1):
            top = (cur & mask) == 0
            lz = np.where(top & (lz == r), r + 1, lz)
            cur = cur << np.uint64(1)
            if not top.any():
                break
        rank = lz + 1
        np.maximum.at(self.registers, idx, rank.astype(np.uint8))

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        assert self.p == other.p
        out = HyperLogLog(self.p)
        out.registers = np.maximum(self.registers, other.registers)
        return out

    def cardinality(self) -> float:
        m = self.m
        alpha = 0.7213 / (1 + 1.079 / m)
        est = alpha * m * m / np.sum(2.0 ** -self.registers.astype(np.float64))
        if est <= 2.5 * m:
            zeros = int((self.registers == 0).sum())
            if zeros:
                est = m * np.log(m / zeros)      # linear counting
        return float(est)

    def to_bytes(self) -> bytes:
        return self.registers.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, p: int = 12) -> "HyperLogLog":
        h = cls(p)
        h.registers = np.frombuffer(data, dtype=np.uint8).copy()
        return h


def _batch_token_hashes(batch: pa.Table, column: str) -> np.ndarray:
    trimmed = pc.utf8_trim_whitespace(batch[column])
    words = pc.split_pattern_regex(trimmed, r"\s+").combine_chunks()
    uniq = pc.unique(words.flatten()).to_pylist()
    return np.array([token_hash64(w) for w in uniq if w is not None],
                    dtype=np.uint64)


DEFAULT_MERGE_FAN = 64            # max sketches the driver ever sees


def _hll_partials(ds, column: str, p: int, merge_fan: int,
                  batch_size=None):
    """Dataset of ≤ ``merge_fan`` pre-merged HLLs: one sketch per
    batch, bucketed by a content hash of its registers, each bucket
    max-reduced inside ``map_groups`` with a single ``2**p``-byte
    accumulator."""
    import hashlib

    def sketch_batch(t: pa.Table) -> pa.Table:
        h = HyperLogLog(p)
        h.add_hashes(_batch_token_hashes(t, column))
        raw = h.to_bytes()
        bucket = int.from_bytes(hashlib.md5(raw).digest()[:4], "little")
        return pa.table({
            "bucket": pa.array([bucket % merge_fan], pa.int64()),
            "sketch": pa.array([raw], pa.binary()),
        })

    def max_group(t: pa.Table) -> pa.Table:
        acc = np.zeros(1 << p, np.uint8)
        for buf in t["sketch"]:
            np.maximum(acc, np.frombuffer(buf.as_py(), np.uint8), out=acc)
        return pa.table({"sketch": pa.array([acc.tobytes()], pa.binary())})

    kw = {} if batch_size is None else {"batch_size": batch_size}
    return (ds.map_batches(sketch_batch, batch_format="pyarrow", **kw)
              .groupby("bucket")
              .map_groups(max_group, batch_format="pyarrow"))


def hll_vocab_sketch(ds, column: str = "text", p: int = 12,
                     merge_fan: int = DEFAULT_MERGE_FAN):
    """One serialized HLL per batch → bounded tree merge → estimate.

    Returns ``(estimate, merged_sketch)``. The per-batch stage streams;
    the driver max-merges at most ``merge_fan`` sketches (O(1) in
    corpus size)."""
    merged = HyperLogLog(p)
    for row in _hll_partials(ds, column, p, merge_fan).iter_rows():
        merged = merged.merge(HyperLogLog.from_bytes(row["sketch"], p))
    return merged.cardinality(), merged


def exact_vocab_size(ds, column: str = "text") -> int:
    """Exact distinct whitespace tokens: per-batch local dedup, then a
    distributed groupby-distinct whose ROW COUNT (not values) is the
    answer — no token ever reaches the driver; ``Dataset.count()``
    sums block metadata only. The groupby shuffle is bounded by the
    per-batch-unique stream, not the raw token stream."""
    def uniq_batch(t: pa.Table) -> pa.Table:
        trimmed = pc.utf8_trim_whitespace(t[column])
        words = pc.split_pattern_regex(trimmed, r"\s+").combine_chunks()
        return pa.table({"token": pc.unique(words.flatten())})

    tokens = ds.map_batches(uniq_batch, batch_format="pyarrow")
    return int(tokens.groupby("token").count().count())


def top_terms(ds, k: int = 20, column: str = "text"):
    """EXACT top-``k`` terms by total occurrences: per-batch local
    counts (dictionary-encode + bincount) → vocabulary ``groupby.sum``
    → per-batch partial top-k on the aggregated stream → one tiny final
    top-k. Ties break by ascending token."""
    import pandas as pd

    from .agg import grouped_sum

    def partial(t: pa.Table) -> pa.Table:
        text = t[column].combine_chunks() if isinstance(t[column], pa.ChunkedArray) else t[column]
        toks = pc.split_pattern_regex(pc.utf8_trim_whitespace(text), r"\s+")
        toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
        flat = toks.flatten()
        enc = flat.dictionary_encode()
        codes = np.asarray(enc.indices.to_numpy(zero_copy_only=False), np.int64)
        cnt = np.bincount(codes, minlength=len(enc.dictionary))
        return pa.table({"token": enc.dictionary,
                         "n": pa.array(cnt.astype(np.int64))})

    # vocabulary-wide sum via grouped_sum (functions/agg.py): the
    # native aggregate's per-row combine is the bottleneck at
    # vocabulary cardinality
    summed = grouped_sum(ds.select_columns([column])
                         .map_batches(partial, batch_format="pyarrow"),
                         "token", ["n"], num_buckets=16)

    def local_topk(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(["n", "token"],
                                       ascending=[False, True],
                                       kind="mergesort").head(k)
        out = pa.Table.from_pandas(df, preserve_index=False)
        return out.append_column("g", pa.array(np.zeros(len(df), np.int64)))

    def final(g) -> "pd.DataFrame":
        g = g.sort_values(["n", "token"], ascending=[False, True],
                          kind="mergesort").head(k).reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["token", "n", "rank"]]

    return (summed.map_batches(local_topk, batch_format="pyarrow")
            .groupby("g").map_groups(final, batch_format="pandas"))


def hll_vocab_by_group(ds, group_column: str = "lang",
                       column: str = "text", p: int = 12):
    """Distinct-token HLL estimate PER GROUP — the mergeable sketch as
    a distributed aggregate. Per batch: one serialized sketch per group
    present (groups per batch ≈ dozens); then ``groupby(group)`` merges
    register-wise-max inside ``map_groups`` — unlike
    :func:`hll_vocab_sketch` the merge never touches the driver, the
    100 TB path when the group count itself is large. Register-max is
    associative + commutative, so the estimate is block-layout
    invariant (oracle-checkable against a sequential pass)."""
    import pandas as pd

    def sketch_batch(t: pa.Table) -> pa.Table:
        groups, sketches = [], []
        for g in pc.unique(t[group_column]).to_pylist():
            # pc.equal(col, None) yields all-null masks — match nulls
            # explicitly so a null group is aggregated, not dropped
            mask = (pc.is_null(t[group_column]) if g is None
                    else pc.equal(t[group_column], g))
            sub = t.filter(mask)
            h = HyperLogLog(p)
            h.add_hashes(_batch_token_hashes(sub, column))
            groups.append(g)
            sketches.append(h.to_bytes())
        return pa.table({group_column: pa.array(groups),
                         "sketch": pa.array(sketches, pa.binary())})

    def merge_group(g: pd.DataFrame) -> pd.DataFrame:
        merged = HyperLogLog(p)
        for blob in g["sketch"]:
            merged = merged.merge(HyperLogLog.from_bytes(bytes(blob), p))
        return pd.DataFrame({
            group_column: [g[group_column].iloc[0]],
            "vocab_estimate": pd.array([round(merged.cardinality())],
                                       dtype="int64"),
        })

    return (ds.map_batches(sketch_batch, batch_format="pyarrow")
            .groupby(group_column)
            .map_groups(merge_group, batch_format="pandas"))


def exact_vocab_by_group(ds, group_column: str = "lang",
                         column: str = "text"):
    """EXACT distinct tokens per group — the precise sibling of
    :func:`hll_vocab_by_group` (same output shape, ``vocab`` exact).

    Scale shape: per-batch distinct ``(group, token)`` pairs (the local
    combine — the shuffle carries unique-per-batch pairs, not the raw
    token stream) → one ``groupby`` distinct over the pairs → per-batch
    partial counts per group → a tiny final sum groupby. No token ever
    reaches the driver. The pair shuffle is vocabulary×groups-scale;
    beyond that the HLL sibling is the documented path."""
    import numpy as np
    from ray.data.aggregate import Sum

    def pairs(t: pa.Table) -> pa.Table:
        text = pc.fill_null(t[column], "")
        words = pc.split_pattern_regex(pc.utf8_trim_whitespace(text), r"\s+")
        counts = pc.list_value_length(words).to_numpy().astype(np.int64)
        flat = words.combine_chunks().flatten()
        parent = np.repeat(np.arange(len(counts)), counts)
        g = t[group_column].combine_chunks() if isinstance(
            t[group_column], pa.ChunkedArray) else t[group_column]
        pt = pa.table({group_column: g.take(pa.array(parent)), "token": flat})
        return pt.group_by([group_column, "token"]).aggregate([])

    from .agg import grouped_agg
    # (group, token) distinct via grouped_agg — the widest key space in
    # the module (functions/agg.py)
    distinct = grouped_agg(ds.map_batches(pairs, batch_format="pyarrow"),
                           [group_column, "token"], {}, num_buckets=32,
                           count="_c")

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(group_column).aggregate([("token", "count")])
        return pa.table({
            group_column: g[group_column],
            "n": pc.cast(g["token_count"], pa.int64()),
        })

    return (distinct.map_batches(partial, batch_format="pyarrow")
            .groupby(group_column).aggregate(Sum("n", alias_name="vocab")))

# tokens come from a \s+ split, so no real token can contain whitespace
_HH_TOTAL_SENTINEL = " total tokens "


def heavy_hitter_terms(ds, column: str = "text", phi_den: int = 500):
    """EXACT φ-heavy hitters (φ = 1/``phi_den``): every token whose
    total occurrence count is ≥ N/phi_den of the N total tokens, with
    its exact count — in TWO streaming passes and no full-vocabulary
    shuffle (`top_terms` shuffles the whole vocabulary; this shuffles
    only ≤ phi_den candidates per block).

    Pass 1 (candidates): per block, dictionary-encode + bincount, keep
    tokens with local count · phi_den ≥ local block token count. This is
    the vectorized equivalent of a per-block Misra-Gries summary and
    carries the union guarantee MATCHING the final ≥ filter: if a token
    misses EVERY block's cut, then c_b · phi_den < N_b for all blocks,
    so C · phi_den < N — the union of per-block candidates is a strict
    superset of every token the ≥ threshold can emit (a > block rule
    would miss the pathological all-blocks-exactly-at-threshold tie).
    ≤ phi_den candidates per block, merged by a small distributed
    groupby (counts from pass 1 are partial and discarded).

    Pass 2 (exact recount): the candidate token set is broadcast once
    (``ray.put``), each block emits exact counts for candidate tokens
    plus one ``_HH_TOTAL_SENTINEL`` row carrying the block's total token
    count; one groupby over ≤ |candidates|+1 keys sums both, then the
    final filter keeps ``freq * phi_den >= N`` — all-integer math, so
    the result is engine-portable bit-for-bit.

    Scale note: candidate volume is ≤ phi_den per block worst case;
    Zipfian corpora collapse the union to ≈ the true heavy hitters. If
    an adversarial corpus made the union too wide to broadcast, the
    pass-1 output is already a Dataset — pre-filter it against a CMS
    before the ``ray.put`` — but that path is not needed here.

    Returns a Dataset with columns (token, freq:int64).
    """
    import ray
    from ray.data.aggregate import Sum

    if phi_den < 2:
        raise ValueError(f"phi_den must be >= 2, got {phi_den}")

    def _local_counts(t: pa.Table):
        text = (t[column].combine_chunks()
                if isinstance(t[column], pa.ChunkedArray) else t[column])
        toks = pc.split_pattern_regex(pc.utf8_trim_whitespace(text), r"\s+")
        toks = (toks.combine_chunks()
                if isinstance(toks, pa.ChunkedArray) else toks)
        enc = toks.flatten().dictionary_encode()
        codes = np.asarray(enc.indices.to_numpy(zero_copy_only=False),
                           np.int64)
        cnt = np.bincount(codes, minlength=len(enc.dictionary)).astype(np.int64)
        return enc.dictionary, cnt

    def candidates_batch(t: pa.Table) -> pa.Table:
        vocab, cnt = _local_counts(t)
        n_b = int(cnt.sum())
        keep = cnt * phi_den >= n_b
        return pa.table({"token": vocab.filter(pa.array(keep)),
                         "one": pa.array(np.ones(int(keep.sum()), np.int64))})

    cand = (ds.select_columns([column])
            .map_batches(candidates_batch, batch_format="pyarrow")
            .groupby("token").aggregate(Sum("one", alias_name="nb"))
            .select_columns(["token"]))
    cand_arr = pa.array([r["token"] for r in cand.iter_rows()], pa.string())
    cand_ref = ray.put(cand_arr)

    def recount_batch(t: pa.Table) -> pa.Table:
        cs = ray.get(cand_ref)
        vocab, cnt = _local_counts(t)
        keep = pc.is_in(vocab, value_set=cs)
        kept = vocab.filter(keep)
        toks = pa.concat_arrays([kept.cast(pa.string()),
                                 pa.array([_HH_TOTAL_SENTINEL], pa.string())])
        ns = np.concatenate(
            [cnt[keep.to_numpy(zero_copy_only=False)], [cnt.sum()]]
        ).astype(np.int64)
        return pa.table({"token": toks, "n": pa.array(ns)})

    summed = (ds.select_columns([column])
              .map_batches(recount_batch, batch_format="pyarrow")
              .groupby("token").aggregate(Sum("n", alias_name="freq"))
              .materialize())    # ≤ |candidates|+1 rows — tiny by contract
    total = summed.filter(
        lambda r: r["token"] == _HH_TOTAL_SENTINEL).take(1)[0]["freq"]

    def final_filter(t: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(pc.multiply(t["freq"],
                                                 pa.scalar(phi_den, pa.int64())),
                                     pa.scalar(int(total), pa.int64())),
                    pc.not_equal(t["token"], _HH_TOTAL_SENTINEL))
        out = t.filter(m)
        return pa.table({"token": out["token"],
                         "freq": pc.cast(out["freq"], pa.int64())})

    return summed.map_batches(final_filter, batch_format="pyarrow")
