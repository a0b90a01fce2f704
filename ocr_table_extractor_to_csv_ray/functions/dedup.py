"""Corpus deduplication: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup, duplicate lines.

- **exact**: a vectorized content hash, then ONE ``grouped_agg``
  keeping the min ``doc_id`` per hash — it moves (hash, doc_id) pairs,
  not text (generalizes the reference's path-pair dedup set,
  ``dataset_cli.py:189-195``).
- **near-dup**: the four methods are thin callers of ONE pipeline,
  :func:`near_dup`, and differ only in their band keys, payload and
  vectorized pair score. ``grouped_agg`` counts LSH bucket sizes; the
  key rows of buckets with ≥ 2 members cut the payload to the candidate
  ids; ``join.hash_join`` attaches it; ONE ``agg.bucket_shuffle`` over
  hash buckets of the band key scores the candidate pairs of all the
  LSH buckets in a hash bucket at once; the connected components of
  the verified pairs are the clusters. Payloads never visit the driver.
- **duplicate lines**: line instances, then documents, group on
  ``agg.key_buckets`` hash buckets through ``agg.bucket_shuffle``.

Every key-set filter is :func:`collect_or_semi_join`: a collected,
broadcast ``pc.is_in`` up to a size threshold, the Arrow
``join.hash_semi_join`` above it.

LSH buckets of more than ``STAR_CAP`` members (e.g. 10k copies of one
page) are paired as a STAR to the bucket's min id: n−1 candidate edges,
not n², and cluster diameter ≤ 2, so label propagation converges in a
couple of rounds. Members of one LSH bucket at sane thresholds are
near-identical, so the star finds the same clusters as all-pairs.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Callable, Dict, Optional, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import join
from ..stages import pool_size
from .agg import bucket_shuffle, grouped_agg, with_buckets
from .textstats import shingle_hashes

# ---------------------------------------------------------------------------
# exact dedup

def content_hash_batch(batch: pa.Table, column: str = "text") -> pa.Table:
    """Add ``content_hash`` = sha1 hex of the raw column value."""
    vals = batch[column].to_pylist()
    h = pa.array(
        [hashlib.sha1((v or "").encode("utf-8")).hexdigest() for v in vals],
        pa.string(),
    )
    out = batch
    if "content_hash" in out.column_names:
        out = out.drop_columns(["content_hash"])
    return out.append_column("content_hash", h)


def exact_dedup(ds, id_column: str = "doc_id", column: str = "text"):
    """Keep the smallest ``id_column`` per distinct column value.

    Returns a Dataset of ``(content_hash, doc_id)`` — survivors.
    sha1 collisions are treated as equality (2^-80 at any real scale).
    """
    hashed = ds.select_columns([id_column, column]).map_batches(
        functools.partial(content_hash_batch, column=column),
        batch_format="pyarrow",
    ).select_columns([id_column, "content_hash"])
    # key space = distinct documents; grouped_agg, not the native
    # per-row aggregate combine (functions/agg.py)
    return grouped_agg(hashed, "content_hash",
                       {id_column: (id_column, "min")}, num_buckets=32)


# ---------------------------------------------------------------------------
# the one near-duplicate pipeline: band keys → duplicate buckets →
# verified pairs → clusters

STAR_CAP = 64            # LSH buckets above this many members pair as a star
# collect_or_semi_join thresholds: duplicate keys and candidate ids;
# dropped ids and the {id: cluster} dict
DUP_KEYS_COLLECT_THRESHOLD = 5_000_000
LABEL_COLLECT_THRESHOLD = 1_000_000
NEAR_DUP_BUCKETS = 32    # hash buckets of the size count and the verify


def _matrix(col, dtype) -> np.ndarray:
    """A fixed-width list column (chunked or not) as ``(n, width)``."""
    flat = np.asarray(pc.list_flatten(col).to_numpy(zero_copy_only=False),
                      dtype=dtype)
    return flat.reshape(len(col), -1) if len(col) else flat.reshape(0, 0)


def _key_rows(ids, keys: np.ndarray, id_column: str) -> pa.Table:
    """``ids`` and their ``(n, n_bands)`` uint64 band keys → ``(bkey,
    id)`` rows, one per id and band."""
    n, n_bands = keys.shape
    return pa.table({
        "bkey": pa.array(keys.reshape(-1).view(np.int64)),
        id_column: ids.take(pa.array(np.repeat(np.arange(n), n_bands))),
    })


def collect_or_semi_join(ds, keys, key: str, threshold: int,
                         anti: bool = False):
    """Rows of ``ds`` whose ``key`` is (``anti``: is not) among the
    ``key`` values of the Dataset ``keys``.

    ``keys`` is materialized once. Up to ``threshold`` key rows, its
    distinct keys are collected and broadcast to a vectorized
    ``pc.is_in`` filter; above it the filter is the partitioned
    ``join.hash_semi_join``, so nothing key-proportional visits the
    driver. An empty anti-join returns ``ds`` itself."""
    import ray

    keys = keys.materialize()
    n = keys.count()
    if n > threshold:
        return join.hash_semi_join(ds, keys, key=key, anti=anti)
    if n == 0:
        return ds if anti else ds.limit(0)
    ref = ray.put(pa.array(np.unique(keys.to_pandas()[key].to_numpy())))

    def _filter(t: pa.Table) -> pa.Table:
        hit = pc.is_in(t[key], value_set=ray.get(ref))
        return t.filter(pc.invert(hit) if anti else hit)

    return ds.map_batches(_filter, batch_format="pyarrow")


def _compact(ds):
    """``ds`` materialized in the fewest blocks of Ray's target block
    size: a sort shuffle's tasks grow with the square of its input
    blocks, and at candidate-set sizes they, not the rows, set its
    cost."""
    from ray.data import DataContext

    ds = ds.materialize()
    per_block = DataContext.get_current().target_max_block_size
    n = max(1, -(-ds.size_bytes() // per_block))
    return ds.repartition(n).materialize() if ds.num_blocks() > n else ds


def _pair_index(bkey: np.ndarray, cap: int = STAR_CAP
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Candidate row pairs ``(iu, ju)`` of the LSH buckets in ``bkey``
    (sorted, each bucket one run with its ids ascending): all-pairs in a
    bucket of ≤ ``cap`` members, a star to its first (min-id) row above.
    One step per distinct bucket size."""
    starts = np.flatnonzero(np.r_[True, bkey[1:] != bkey[:-1]])
    sizes = np.diff(np.r_[starts, len(bkey)])
    iu, ju = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for m in np.unique(sizes[sizes > 1]):
        s = starts[sizes == m][:, None]
        if m <= cap:
            a, b = np.triu_indices(m, k=1)
        else:
            a, b = np.zeros(m - 1, np.int64), np.arange(1, m)
        iu.append((s + a).ravel())
        ju.append((s + b).ravel())
    return np.concatenate(iu), np.concatenate(ju)


def _verify_bucket(t: pa.Table, score: Callable, threshold: float,
                   id_column: str) -> pa.Table:
    """One hash bucket of ``(bkey, id, payload…)`` rows → the verified
    ``(left, right)`` pairs of every LSH bucket in it."""
    t = t.sort_by([("bkey", "ascending"), (id_column, "ascending")])
    iu, ju = _pair_index(t["bkey"].to_numpy())
    keep = score(t, iu, ju, threshold)
    ids = t[id_column]
    return pa.table({"left": ids.take(pa.array(iu[keep])),
                     "right": ids.take(pa.array(ju[keep]))})


def near_dup(ds, keys, payload, score: Callable, threshold: float,
             id_column: str):
    """The near-duplicate pipeline; returns ``(survivors, cluster)``.

    ``keys``: band rows ``(bkey, id)``, ``bkey`` one int64 that already
    names its band or table (MinHash: the band hash seeded with the band
    index; SimHash ``(band << 16) | bits``; hyperplane ``(table <<
    n_planes) | bits``). ``payload``: ``(id, …)`` rows that ``score(bucket,
    iu, ju, threshold)`` reads to keep or reject the candidate pairs
    ``(iu[i], ju[i])`` of a bucket table. ``survivors`` = ``ds`` minus
    the non-canonical members of each cluster (canonical = min id);
    ``cluster`` as :func:`_cluster_and_filter` returns it. With no
    duplicate bucket ``ds`` comes back as it is."""
    dup_keys = (grouped_agg(keys.select_columns(["bkey"]), "bkey", {},
                            num_buckets=NEAR_DUP_BUCKETS, count="n")
                .filter(expr="n > 1").select_columns(["bkey"]).materialize())
    if dup_keys.count() == 0:
        return ds, {}
    rows = collect_or_semi_join(keys, dup_keys, "bkey",
                                DUP_KEYS_COLLECT_THRESHOLD).materialize()
    cand = _compact(collect_or_semi_join(payload, rows, id_column,
                                         DUP_KEYS_COLLECT_THRESHOLD))
    pairs = bucket_shuffle(
        join.hash_join(rows, cand, key=id_column).map_batches(
            with_buckets, fn_args=(["bkey"], NEAR_DUP_BUCKETS),
            batch_format="pyarrow"),
        functools.partial(_verify_bucket, score=score, threshold=threshold,
                          id_column=id_column))
    return _cluster_and_filter(ds, pairs, id_column)


def _cluster_and_filter(ds, verified_pairs_ds, id_column: str):
    """Verified-pair Dataset → (survivors_ds, cluster): the connected
    components of the pairs (cluster id = min member id), with
    ``LABEL_COLLECT_THRESHOLD`` (read at call time) as their tier bound,
    as the ``{id: cluster_id}`` dict up to that many component rows and
    as the component Dataset ``(node, component)`` above. The
    non-canonical ids leave ``ds`` by :func:`collect_or_semi_join` under
    the same bound. A graph that does not converge in 64 rounds raises
    ``RuntimeError``."""
    from .graph import connected_components

    threshold = LABEL_COLLECT_THRESHOLD
    comp = connected_components(verified_pairs_ds, src="left", dst="right",
                                local_threshold=threshold,
                                broadcast_threshold=threshold)

    def _noncanon(t: pa.Table) -> pa.Table:
        m = pc.not_equal(t["node"], t["component"])
        return pa.table({id_column: t["node"].filter(m)})

    survivors = collect_or_semi_join(
        ds, comp.map_batches(_noncanon, batch_format="pyarrow"), id_column,
        threshold, anti=True)
    if comp.count() > threshold:
        return survivors, comp
    pdf = comp.to_pandas()     # an empty result has no columns at all
    return survivors, (dict(zip(pdf["node"], pdf["component"]))
                       if len(pdf) else {})


# ---------------------------------------------------------------------------
# MinHash signatures and bands

_MERSENNE = (1 << 61) - 1


def _perm_params(n_perm: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=n_perm, dtype=np.int64).astype(np.uint64)
    b = rng.integers(0, _MERSENNE, size=n_perm, dtype=np.int64).astype(np.uint64)
    return a, b


def minhash_signature(shingles: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``sig[i] = min over shingles of h_i(s)`` where ``h_i`` is a
    deterministic 61-bit mix: ``a_i * s`` in wrapping uint64, then two
    Mersenne folds and ``+ b_i``. For products ≥ 2^64 the wrap makes
    this differ from exact ``(a·s+b) mod 2^61−1`` (2^64 ≡ 8 mod p, so
    the dropped high bits re-enter ×8) — deliberately accepted: MinHash
    needs only a well-dispersed deterministic hash family with the
    elementwise min-stability property ``sig(A∪B) = min(sig(A),
    sig(B))`` (fuzz-verified in test_fuzz.py), not textbook modular
    arithmetic, and the wrap-folded form stays fully vectorized in
    uint64. The sequential oracle mirrors this exact formula.
    """
    if len(shingles) == 0:
        return np.full(len(a), np.uint64(_MERSENNE))
    s = (shingles & np.uint64(_MERSENNE))[:, None]
    with np.errstate(over="ignore"):
        lo = s * a[None, :]  # wraps mod 2^64; fold below corrects to mod p
        x = (lo & np.uint64(_MERSENNE)) + (lo >> np.uint64(61)) + b[None, :]
        x = (x & np.uint64(_MERSENNE)) + (x >> np.uint64(61))
    x = np.where(x >= _MERSENNE, x - _MERSENNE, x)
    return x.min(axis=0).astype(np.uint64)


class MinHashStage:
    """Actor-pool stage: permutation params built once per actor."""

    def __init__(self, n_perm: int = 128, k: int = 3, seed: int = 7) -> None:
        self.a, self.b = _perm_params(n_perm, seed)
        self.k = k
        self.n_perm = n_perm

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        cache: Dict[str, int] = {}
        sigs = np.empty((len(texts), self.n_perm), np.uint64)
        n_sh = np.empty(len(texts), np.int64)
        for i, t in enumerate(texts):
            sh = shingle_hashes(t, self.k, cache)
            n_sh[i] = len(sh)
            sigs[i] = minhash_signature(sh, self.a, self.b)
        col = pa.FixedSizeListArray.from_arrays(
            pa.array(sigs.reshape(-1).astype(np.int64)), self.n_perm
        )
        out = batch.drop_columns(
            [c for c in ("minhash", "n_shingles") if c in batch.column_names])
        out = out.append_column("minhash", col)
        return out.append_column("n_shingles", pa.array(n_sh))


def band_keys(sigs: np.ndarray, n_bands: int) -> np.ndarray:
    """(n_docs, n_bands) uint64 band keys: each band's rows mixed into a
    hash seeded with the band index, so equal rows in two bands never
    share a key."""
    n_docs, n_perm = sigs.shape
    r = n_perm // n_bands
    mix = np.uint64(0x9E3779B97F4A7C15)
    keys = np.zeros((n_docs, n_bands), np.uint64)
    with np.errstate(over="ignore"):
        # band b covers sigs[:, b*r:(b+1)*r]
        for b in range(n_bands):
            block = sigs[:, b * r : (b + 1) * r]
            k = np.full(n_docs, b, np.uint64)
            for j in range(r):
                k = k * mix + block[:, j]
            keys[:, b] = k
    return keys


def explode_bands_batch(batch: pa.Table, n_bands: int = 16) -> pa.Table:
    """``(doc_id, minhash, n_shingles)`` → one ``(bkey, doc_id)`` row
    per band. Shingle-less documents (empty/one-token text) are NOT banded: they
    all share the sentinel signature and would form one giant O(n²)
    candidate clique at corpus scale. Exact dedup owns the empty-text
    case.
    """
    batch = batch.filter(pc.greater(batch["n_shingles"], pa.scalar(0)))
    sigs = _matrix(batch["minhash"], np.int64).view(np.uint64)
    return _key_rows(batch["doc_id"], band_keys(sigs, n_bands), "doc_id")


def minhash_signatures(ds, n_perm: int = 128, k: int = 3, seed: int = 7,
                       concurrency: int = 4):
    """``(doc_id, text)`` → MATERIALIZED ``(doc_id, minhash, n_shingles)``.

    The signature set is consumed several times (band keys, candidate
    payload) and re-deriving it means re-shingling the corpus each time
    — so it materializes, but text is dropped FIRST: the object store
    holds ~1 KB/doc (n_perm × 8 B), never the corpus text. At a scale
    where even that outgrows the store, checkpoint to parquet instead —
    same shape.
    """
    return _compact(ds.select_columns(["doc_id", "text"])
                    .map_batches(MinHashStage, batch_format="pyarrow",
                                 fn_constructor_kwargs={"n_perm": n_perm,
                                                        "k": k, "seed": seed},
                                 concurrency=pool_size(concurrency))
                    .select_columns(["doc_id", "minhash", "n_shingles"]))


# ---------------------------------------------------------------------------
# the four near-dup methods: keys, payload and pair score for near_dup

def _agreement(t: pa.Table, iu, ju, threshold: float) -> np.ndarray:
    """Signature-estimated Jaccard (share of agreeing MinHash slots)."""
    sig = _matrix(t["minhash"], np.int64)
    return (sig[iu] == sig[ju]).mean(axis=1) >= threshold


def minhash_lsh_dedup(ds, n_perm: int = 128, n_bands: int = 16, k: int = 3,
                      threshold: float = 0.8, seed: int = 7,
                      concurrency: int = 4):
    """MinHash-LSH near-dup on signature agreement; returns
    ``(survivors_ds, cluster_map)`` (see :func:`near_dup`)."""
    sigs = minhash_signatures(ds, n_perm=n_perm, k=k, seed=seed,
                              concurrency=concurrency)
    keys = sigs.map_batches(explode_bands_batch, fn_args=(n_bands,),
                            batch_format="pyarrow")
    return near_dup(ds, keys, sigs.select_columns(["doc_id", "minhash"]),
                    _agreement, threshold, "doc_id")


def _shingle_jaccard(t: pa.Table, iu, ju, threshold: float,
                     k: int) -> np.ndarray:
    """Exact n-gram Jaccard (two empty shingle sets: 1); each row's text
    is shingled once."""
    cache: Dict[str, int] = {}
    sh = [shingle_hashes(x, k, cache) for x in t["text"].to_pylist()]

    def jaccard(a: np.ndarray, b: np.ndarray) -> float:
        inter = len(np.intersect1d(a, b, assume_unique=True))
        union = len(a) + len(b) - inter
        return inter / union if union else 1.0

    return np.fromiter((jaccard(sh[i], sh[j]) >= threshold
                        for i, j in zip(iu, ju)), dtype=bool, count=len(iu))


def ngram_jaccard_dedup(ds, k: int = 3, threshold: float = 0.7,
                        n_perm: int = 128, n_bands: int = 32, seed: int = 7):
    """MinHash-LSH candidates + EXACT n-gram Jaccard verify; returns
    ``(survivors, clusters)``.

    Wider banding (more bands → lower LSH threshold) so exact
    verification sees enough candidates. The payload is the candidate
    documents' text, cut to the candidate ids before it materializes;
    it is shingled inside the verify buckets and never reaches the
    driver.
    """
    sigs = minhash_signatures(ds, n_perm=n_perm, k=k, seed=seed)
    keys = sigs.map_batches(explode_bands_batch, fn_args=(n_bands,),
                            batch_format="pyarrow")
    return near_dup(ds, keys, ds.select_columns(["doc_id", "text"]),
                    functools.partial(_shingle_jaccard, k=k), threshold,
                    "doc_id")


class SimHashStage:
    """64-bit SimHash per document (token unigrams, count-weighted)."""

    def __init__(self) -> None:
        self._cache: Dict[str, int] = {}

    def simhash(self, text: str) -> int:
        toks = (text or "").lower().split()
        if not toks:
            return 0
        from .textstats import _token_hashes
        th = _token_hashes(toks, self._cache)
        bits = ((th[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.int64)
        v = (2 * bits - 1).sum(axis=0)
        return int(((v > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum())

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        fps = np.array([self.simhash(t) for t in texts], dtype=np.uint64)
        out = batch.drop_columns([c for c in ("simhash",) if c in batch.column_names])
        return out.append_column("simhash", pa.array(fps.astype(np.int64)))


def _simhash_bands(t: pa.Table) -> pa.Table:
    """``(doc_id, simhash)`` → 4 band rows per doc, ``bkey = (band <<
    16) | bits``."""
    band = np.arange(4, dtype=np.uint64)
    sh = t["simhash"].to_numpy().view(np.uint64)[:, None]
    keys = ((sh >> (band * np.uint64(16))) & np.uint64(0xFFFF)) | (
        band << np.uint64(16))
    return _key_rows(t["doc_id"], keys, "doc_id")


def _hamming(t: pa.Table, iu, ju, max_hamming: int) -> np.ndarray:
    """Hamming distance ≤ ``max_hamming`` (XOR + popcount by
    unpackbits)."""
    h = t["simhash"].to_numpy().view(np.uint64)
    x = h[iu] ^ h[ju]
    dist = np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1).sum(axis=1)
    return dist <= max_hamming


def simhash_dedup(ds, max_hamming: int = 3, concurrency: int = 4):
    """SimHash near-dup: 4×16-bit band buckets (pigeonhole: any pair
    within Hamming ≤ 3 of 64 bits shares at least one of 4 bands) →
    Hamming verify → clusters."""
    fps = _compact(ds.select_columns(["doc_id", "text"])
                   .map_batches(SimHashStage, batch_format="pyarrow",
                                concurrency=pool_size(concurrency))
                   .select_columns(["doc_id", "simhash"]))
    keys = fps.map_batches(_simhash_bands, batch_format="pyarrow")
    return near_dup(ds, keys, fps, _hamming, max_hamming, "doc_id")


def _unit_batch(t: pa.Table, id_column: str, vec_column: str) -> pa.Table:
    """``(id, vector)`` → ``(id, unit)``: L2-normalized float32 rows."""
    mat = _matrix(t[vec_column], np.float32)
    unit = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    offsets = pa.array(np.arange(len(unit) + 1) * unit.shape[1], pa.int32())
    return pa.table({id_column: t[id_column],
                     "unit": pa.ListArray.from_arrays(
                         offsets, pa.array(unit.reshape(-1), pa.float32()))})


def _table_planes(dim: int, n_planes: int, seed: int,
                  n_tables: int) -> np.ndarray:
    """``(n_tables, dim, n_planes)`` hyperplane matrices. Table 0
    reproduces the historical single-table planes for any seed, so
    ``n_tables=1`` results are unchanged across versions."""
    out = np.empty((n_tables, dim, n_planes), np.float32)
    for t in range(n_tables):
        rng = np.random.default_rng(seed if t == 0 else seed + 1000003 * t)
        out[t] = rng.standard_normal((dim, n_planes)).astype(np.float32)
    return out


def _hyperplane_bands(t: pa.Table, id_column: str, n_planes: int, seed: int,
                      n_tables: int) -> pa.Table:
    """``(id, unit)`` → one row per table, ``bkey = (table << n_planes)
    | sign bits``; the planes follow the batch's own vector width."""
    unit = _matrix(t["unit"], np.float32)
    planes = _table_planes(unit.shape[1], n_planes, seed, n_tables)
    shifts = np.arange(n_planes, dtype=np.uint64)
    keys = np.stack([(((unit @ planes[ti]) > 0).astype(np.uint64) << shifts)
                     .sum(axis=1, dtype=np.uint64)
                     | np.uint64(ti << n_planes)
                     for ti in range(n_tables)], axis=1)
    return _key_rows(t[id_column], keys, id_column)


def _cosine(t: pa.Table, iu, ju, threshold: float) -> np.ndarray:
    """Cosine of the unit vectors ≥ ``threshold``."""
    unit = _matrix(t["unit"], np.float32)
    return np.einsum("ij,ij->i", unit[iu], unit[ju]) >= threshold


def embedding_neardup(ds, threshold: float = 0.97, n_planes: int = 14,
                      seed: int = 11, id_column: str = "vec_id",
                      vec_column: str = "embedding", n_tables: int = 1):
    """Random-hyperplane LSH buckets → pairwise cosine ≥ threshold →
    clusters. Returns (survivors, cluster_map).

    ``n_tables`` independent LSH tables (different plane seeds) are
    bucketed in ONE pass: each doc emits one key row per table and
    verified pairs from all tables union before clustering — a pair
    split by table 0's planes is recalled when any other table
    co-buckets it (miss probability ``(1−(1−θ/π)^p)^T`` per pair). Cost:
    the candidate unit vectors are joined onto ``n_tables``× as many
    key rows — production runs use 2–4 tables.
    """
    units = _compact(ds.select_columns([id_column, vec_column]).map_batches(
        _unit_batch, fn_args=(id_column, vec_column), batch_format="pyarrow"))
    keys = units.map_batches(_hyperplane_bands,
                             fn_args=(id_column, n_planes, seed, n_tables),
                             batch_format="pyarrow")
    return near_dup(ds, keys, units, _cosine, threshold, id_column)


# ---------------------------------------------------------------------------
# corpus-wide duplicate-LINE removal (C4 / "Deduplicating Training Data
# Makes Language Models Better"-style substring dedup at line granularity)

def _explode_lines_batch(t: pa.Table, id_column: str, column: str,
                         min_chars: int) -> pa.Table:
    """Docs → line instances ``(doc_id, idx, line, lhash, is_long)``.
    Fully vectorized: Arrow split + flatten, numpy ordinals, pandas
    siphash64 (fixed key — deterministic across processes) per line."""
    texts = pc.fill_null(t[column], "")
    lines_list = pc.split_pattern(texts, pattern="\n")
    counts = pc.list_value_length(lines_list).to_numpy().astype(np.int64)
    flat = lines_list.combine_chunks().flatten()
    total = int(counts.sum())
    parent = np.repeat(np.arange(len(counts)), counts)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    idx = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    lhash = pd.util.hash_pandas_object(
        pd.Series(flat.to_pandas()), index=False).to_numpy().view(np.int64)
    return pa.table({
        id_column: t[id_column].take(pa.array(parent)),
        "idx": pa.array(idx),
        "line": flat,
        "lhash": pa.array(lhash),
        "is_long": pc.greater_equal(pc.utf8_length(flat),
                                    pa.scalar(min_chars)),
    })


def duplicate_line_removal(ds, id_column: str = "doc_id",
                           column: str = "text", min_chars: int = 10,
                           hot_cap: Optional[int] = None):
    """Remove every non-first occurrence of any line (≥ ``min_chars``
    chars) ACROSS the whole corpus; rebuild each document from its
    surviving lines. Returns one row per input doc:
    ``(doc_id, text_clean, n_lines, n_dropped)``.

    Shape (the scale contract): explode is a streaming ``map_batches``;
    long lines take ONE ``groupby(lhash)`` all-to-all (rows are
    ``(doc_id, idx, line)`` — each line crosses the wire once) where the
    keep flag is decided in-group; short lines (boilerplate ``""``,
    bullets, separators — the hot values that would make mega-groups)
    BYPASS that shuffle entirely and are always kept, C4-style. One
    final ``groupby(doc_id)`` reassembles documents (group = one doc).
    Hot lines: by default a single long line duplicated ~10^8× lands in
    one flag task. Pass ``hot_cap`` to split the flag path: a cheap
    partial-count aggregate finds line-hashes above the cap (a handful
    by definition), their winner is computed by a MIN aggregate over the
    encoded ``(doc_id, idx)`` instance key and broadcast, and only their
    instances take the vectorized broadcast-flag path — no mega-group
    task. Contract for the hot path: ``idx < 2^21`` and ``doc_id <
    2^42`` (the encoded key), and the winner is keyed by the 64-bit line
    hash alone (a hash collision WITH a hot line could mis-drop — ~2^-64,
    same residual the LSH fused keys document).

    Beyond-reference operator (the reference dedups whole files,
    ``dataset_cli.py:189-195``); matches the line-level exact-substring
    dedup of C4 / Lee et al. 2022 at line granularity.
    """
    import functools

    inst = ds.select_columns([id_column, column]).map_batches(
        functools.partial(_explode_lines_batch, id_column=id_column,
                          column=column, min_chars=min_chars),
        batch_format="pyarrow")

    def _split(want_long: bool):
        def f(t: pa.Table) -> pa.Table:
            m = t["is_long"] if want_long else pc.invert(t["is_long"])
            out = t.filter(m).drop_columns(["is_long"])
            if not want_long:
                out = out.drop_columns(["lhash"]).append_column(
                    "keep", pa.array(np.ones(len(out), dtype=bool)))
            return out
        return f

    long_inst = inst.map_batches(_split(True), batch_format="pyarrow")

    hot_ref = None
    if hot_cap is not None:
        import ray

        def _count_partial(t: pa.Table) -> pa.Table:
            g = t.group_by("lhash").aggregate([("lhash", "count")])
            return pa.table({"lhash": g["lhash"],
                             "n": pc.cast(g["lhash_count"], pa.int64())})

        # only rows ABOVE the cap cross to the driver — the full
        # line-hash count table never does
        counts = (grouped_agg(long_inst.map_batches(
                      _count_partial, batch_format="pyarrow"),
                      "lhash", {"n": ("n", "sum")}, num_buckets=32)
                  .filter(expr=f"n > {int(hot_cap)}")
                  .to_pandas())
        hot = set(counts["lhash"])
        if hot:
            ENC = np.int64(1 << 21)          # idx < 2^21, doc_id < 2^42

            def _min_partial(t: pa.Table) -> pa.Table:
                m = pc.is_in(t["lhash"], value_set=pa.array(sorted(hot)))
                t = t.filter(m)
                key = pc.add(pc.multiply(pc.cast(t[id_column], pa.int64()),
                                         pa.scalar(ENC)), t["idx"])
                g = (pa.table({"lhash": t["lhash"], "key": key})
                     .group_by("lhash").aggregate([("key", "min")]))
                return pa.table({"lhash": g["lhash"], "key": g["key_min"]})

            winners = grouped_agg(long_inst.map_batches(
                _min_partial, batch_format="pyarrow"),
                "lhash", {"win": ("key", "min")}, num_buckets=32
            ).to_pandas()
            hot_ref = ray.put(dict(zip(winners["lhash"], winners["win"])))

    def _route(want_hot: bool):
        import ray

        def f(t: pa.Table) -> pa.Table:
            wins = ray.get(hot_ref)
            m = pc.is_in(t["lhash"], value_set=pa.array(sorted(wins)))
            if not want_hot:
                return t.filter(pc.invert(m))
            t = t.filter(m)
            key = (t[id_column].to_numpy() * (1 << 21)
                   + t["idx"].to_numpy())
            win = np.array([wins[h] for h in t["lhash"].to_pylist()],
                           np.int64)
            return (t.drop_columns(["lhash"])
                    .append_column("keep", pa.array(key == win)))
        return f

    cold_inst = (long_inst if hot_ref is None else
                 long_inst.map_batches(_route(False), batch_format="pyarrow"))

    # Bucketed vectorized flag, NOT groupby(lhash).map_groups: Ray's
    # map_groups calls the UDF once per GROUP (one per distinct line),
    # i.e. O(distinct_lines) Python frames; bucketing by lhash hash
    # keeps the single all-to-all but flags a whole bucket in one
    # sorted pandas pass — per-group semantics are identical because
    # rows are ordered (lhash, doc, idx) and de-duplicated on
    # (lhash, line), which is row-equal to the per-lhash rule.
    FLAG_BUCKETS = 64

    def _flag_bucket(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas().sort_values(["lhash", id_column, "idx"],
                                      kind="mergesort")
        g = g.assign(keep=~g.duplicated(["lhash", "line"], keep="first"))
        return g[[id_column, "idx", "line", "keep"]]

    long_flagged = bucket_shuffle(
        cold_inst.map_batches(with_buckets, fn_args=(["lhash"],
                                                     FLAG_BUCKETS),
                              batch_format="pyarrow"),
        _flag_bucket)
    if hot_ref is not None:
        long_flagged = long_flagged.union(
            long_inst.map_batches(_route(True), batch_format="pyarrow"))
    short_kept = inst.map_batches(_split(False), batch_format="pyarrow")

    # Same bucket trick for reassembly (one UDF frame per doc would be
    # O(n_docs) Python): group = doc-id hash bucket, docs rebuilt with
    # one sorted pass + two C groupbys per bucket.
    REBUILD_BUCKETS = 64

    def _rebuild_bucket(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas().sort_values([id_column, "idx"], kind="mergesort")
        stats = g.groupby(id_column, as_index=False, sort=True).agg(
            n_lines=("keep", "size"), n_kept=("keep", "sum"))
        kept = g[g["keep"]]
        txt = kept.groupby(id_column, sort=True)["line"].agg("\n".join)
        out = stats.merge(txt.rename("text_clean"), on=id_column,
                          how="left")
        out["text_clean"] = out["text_clean"].fillna("")
        out["n_lines"] = out["n_lines"].astype("int64")
        out["n_dropped"] = (out["n_lines"]
                            - out["n_kept"].astype("int64"))
        return out[[id_column, "text_clean", "n_lines", "n_dropped"]]

    return bucket_shuffle(
        long_flagged.union(short_kept).map_batches(
            with_buckets, fn_args=([id_column], REBUILD_BUCKETS),
            batch_format="pyarrow"),
        _rebuild_bucket)
