"""Deterministic sampling / per-group selection for training-data prep.

- :func:`stratified_sample` — per-stratum rates with a CONTENT-HASH
  threshold (md5 prefix), not an RNG: the same document is kept on
  every run, any cluster size, any partitioning — and the rule is
  reproducible in SQL (``substr(md5(key), 1, 8) < threshold``), so the
  sample itself is oracle-checkable. No shuffle: a vectorized filter.
- :func:`temperature_sample` — stratum keep-rates derived from GLOBAL
  stratum counts (``(n_min/n)**alpha``), then the same content-hash
  filter: tiny groupby → broadcast rates → streaming filter.
- :func:`topk_per_group` — k rows per group by a sort column
  (ties broken by id): partition by group key, sort within group.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

import pandas as pd
import pyarrow as pa


def rate_to_threshold(rate: float) -> str:
    """Keep-rate → threshold for a lexicographic ``<`` compare against an
    8-hex-digit md5 prefix.  ``rate >= 1.0`` returns ``"g"`` — every hex
    prefix sorts below it, so "keep everything" IS representable (the
    hex cap ``ffffffff`` with strict ``<`` would drop rows hashing to
    exactly ``ffffffff``); the same literal works in the SQL oracle."""
    if rate >= 1.0:
        return "g"
    return format(min(int(rate * 16 ** 8), 16 ** 8 - 1), "08x")


def stratified_sample(ds, rates: Dict[str, float], stratum_column: str = "lang",
                      id_column: str = "doc_id",
                      default_rate: float = 0.0):
    """Keep each row iff ``md5(str(id))[:8] < threshold(stratum rate)``."""
    import numpy as np

    thresholds = {k: rate_to_threshold(v) for k, v in rates.items()}
    default_thr = rate_to_threshold(default_rate)
    md5 = hashlib.md5

    def _filter(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        ids = t[id_column].to_pylist()
        # md5 per row is irreducible (the SQL-reproducibility contract);
        # the stratum→threshold lookup is vectorized via factorize+take
        prefixes = np.array([md5(str(i).encode("utf-8")).hexdigest()[:8]
                             for i in ids])
        strata = pd.Series(t[stratum_column].to_pandas())
        codes, uniq = pd.factorize(strata)
        thr_per_uniq = np.array([thresholds.get(s, default_thr) for s in uniq])
        if len(thr_per_uniq) == 0:        # all-null stratum column
            thr = np.full(len(codes), default_thr)
        else:
            thr = np.where(codes >= 0, thr_per_uniq[codes], default_thr)
        return t.filter(pa.array(prefixes < thr))

    return ds.map_batches(_filter, batch_format="pyarrow")


def temperature_sample(ds, stratum_column: str = "lang",
                       id_column: str = "doc_id", alpha: float = 0.5):
    """Temperature-based stratum rebalancing (the multilingual-corpus
    flattening rule, α<1 upsamples the tail): keep-rate per stratum is
    ``(n_min / n_stratum) ** alpha`` — the rarest stratum keeps 100%,
    bigger strata are downsampled toward a flat mixture.

    Two-phase, shuffle-light: phase 1 is a tiny ``groupby(stratum)``
    count (output = one row per stratum — the ONLY driver collect, group
    cardinality ≈ dozens at any corpus size); phase 2 broadcasts the
    rate table into the same vectorized content-hash filter as
    :func:`stratified_sample` (no shuffle, no RNG — reproducible and
    SQL-oracle-checkable).

    For ``alpha=0.5`` rates are computed with ``math.sqrt`` (correctly
    rounded IEEE, so DuckDB's ``sqrt`` reproduces them bit-exactly and
    the driver's hash gate can check the sample); other alphas go
    through ``pow`` whose last-ulp behavior is libm-specific —
    documented as rows-only-checkable."""
    import math
    from ray.data.aggregate import Count

    counts = (ds.groupby(stratum_column)
              .aggregate(Count(alias_name="n")).to_pandas())
    if counts.empty:          # empty corpus → nothing to rebalance
        return ds
    n_min = int(counts["n"].min())
    rates = {}
    for s, n in zip(counts[stratum_column], counts["n"]):
        frac = n_min / int(n)
        rates[s] = math.sqrt(frac) if alpha == 0.5 else frac ** alpha
    return stratified_sample(ds, rates, stratum_column=stratum_column,
                             id_column=id_column, default_rate=0.0)


def topk_per_group(ds, group_column: str, sort_column: str, k: int = 3,
                   id_column: str = "doc_id", descending: bool = True):
    """k rows per group ordered by ``sort_column`` (ties → ascending id);
    emits a 1-based ``rank`` column."""
    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([sort_column, id_column],
                          ascending=[not descending, True],
                          kind="mergesort").head(k).reset_index(drop=True)
        g["rank"] = pd.array(range(1, len(g) + 1), dtype="int64")
        return g

    return ds.groupby(group_column).map_groups(per_group, batch_format="pandas")


def mixture_sample(ds, weights: Dict[str, float],
                   stratum_column: str = "lang",
                   id_column: str = "doc_id",
                   budget_column: Optional[str] = None):
    """Resample strata to TARGET MIXTURE WEIGHTS — the
    build-the-training-mixture op: given weights ``w_s`` (any positive
    scale) and per-stratum budget totals ``T_s`` (sum of
    ``budget_column``, or row counts when None), keep-rate is
    ``r_s = (c · w_s) / T_s`` with ``c = min_s(T_s / w_s)`` — the
    largest feasible scale WITHOUT upsampling: the binding stratum
    keeps 100 % and every other thins so the kept budget is ∝ ``w_s``
    in expectation. Strata absent from ``weights`` are dropped.

    Same scale shape as :func:`temperature_sample`: one tiny
    ``groupby(stratum)`` aggregate (one row per stratum — the only
    driver collect), then the broadcast content-hash filter. The rate
    arithmetic is plain correctly-rounded double ops in a fixed order
    (``T/w`` → ``min`` → ``(c·w)/T``), so a SQL oracle reproduces the
    thresholds bit-exactly; the binding stratum is matched by the same
    ``ratio == c`` comparison on both sides (its recomputed rate may
    land one ulp under 1.0, so it is special-cased to keep-all)."""
    from ray.data.aggregate import Count, Sum

    if not weights or any(w <= 0 for w in weights.values()):
        raise ValueError("mixture_sample: weights must be positive")

    g = ds.groupby(stratum_column)
    agg = (g.aggregate(Sum(budget_column, alias_name="t"))
           if budget_column else g.aggregate(Count(alias_name="t")))
    totals = agg.to_pandas()                 # one row per stratum
    ratios = {}
    for s, t in zip(totals[stratum_column], totals["t"]):
        if s in weights and int(t) > 0:
            ratios[s] = int(t) / weights[s]
    if not ratios:
        return stratified_sample(ds, {}, stratum_column=stratum_column,
                                 id_column=id_column, default_rate=0.0)
    c = min(ratios.values())
    tot_of = dict(zip(totals[stratum_column], totals["t"]))
    rates = {s: (1.0 if ratios[s] == c
                 else (c * weights[s]) / int(tot_of[s]))
             for s in ratios}
    return stratified_sample(ds, rates, stratum_column=stratum_column,
                             id_column=id_column, default_rate=0.0)


def consistent_sample(ds, k: int = 100, id_column: str = "doc_id",
                      keep_columns: Optional[list] = None):
    """Deterministic size-``k`` sample: the k rows with the smallest
    Knuth multiplicative-hash priority ``(id · 2654435761) mod 2^32``
    (ties → ascending id). Repeatable across runs, engines, and
    cluster sizes; GROWING the corpus only swaps individual members
    (each row's priority never changes) — the property a stable eval
    subset needs. Pure integer arithmetic, so a SQL oracle reproduces
    it exactly.

    Two-stage exact top-k: per-batch vectorized priority + local head,
    then one tiny final head — the full corpus is never sorted."""
    import numpy as np
    import pyarrow as pa

    cols = keep_columns or [id_column]

    def local(t: pa.Table) -> pa.Table:
        ids = t[id_column].to_numpy(zero_copy_only=False).astype(np.uint64)
        pri = ((ids * np.uint64(2654435761)) % np.uint64(1 << 32))
        t = t.select(cols).append_column(
            "priority", pa.array(pri.astype(np.int64)))
        df = t.to_pandas().sort_values(["priority", id_column],
                                       kind="mergesort").head(k)
        out = pa.Table.from_pandas(df, preserve_index=False)
        return out.append_column("g", pa.array(np.zeros(len(df), np.int64)))

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["priority", id_column],
                          kind="mergesort").head(k).reset_index(drop=True)
        return g[cols + ["priority"]]

    return (ds.map_batches(local, batch_format="pyarrow")
            .groupby("g").map_groups(final, batch_format="pandas"))
