"""The one key→bucket shuffle, and the bucketed grouped aggregate on
top of it — the high-cardinality replacement for
``Dataset.groupby().aggregate()``.

WHY THIS EXISTS (measured, Ray 2.49.2, 32 CPUs):

Ray's sort-based ``groupby().aggregate()`` combines groups with a
per-ROW Python loop (``table_block.py:301`` ``_aggregate`` →
``iter_rows``) on BOTH the map side (cost ∝ input rows) and the reduce
side (cost ∝ group count). The per-row cost is ~5 µs on Arrow blocks
and ~100 µs on pandas blocks, so:

- 3M rows / 10k groups, pandas blocks: **119.6 s**; same data as Arrow
  blocks: **5.1 s** (~24×).
- ONE empty pandas block unioned into an all-Arrow 1.2M-row input:
  **9.9 s → 118.9 s** — the reduce normalizes every pre-aggregated
  block to the detected batch format (``aggregate_task_spec.py:81``).

A ``groupby(key).map_groups`` has the same shape: one UDF call per
distinct key. Every keyed operator here therefore shuffles on a hash
BUCKET of the key instead — ≤ ``num_buckets`` Ray-level groups, so the
sort machinery touches blocks, not rows — and resolves the keys inside
each bucket with one vectorized pass. The step is written once:

- :func:`key_buckets` — the one hash: ``hash_pandas_object`` (fixed
  siphash key, deterministic across processes) over the key columns,
  with integers widened to int64 and floats to float64 first so both
  sides of a join bucket a key alike whatever width each side stores.
- :func:`bucket_shuffle` — ``groupby("__b").map_groups`` in ``pyarrow``
  format; the UDF sees the bucket without ``__b`` and every output
  block is an Arrow table with no schema metadata (``from_pandas``
  metadata makes schemas unhashable in Ray's ``unify_schemas``).

The map that appends ``__b`` runs in ``pyarrow`` format too. Ray fuses
it into the shuffle and the reduce converts every block to that map's
batch format: behind a ``pandas``-format map a bucket arrives as a
pandas frame (int64 columns with nulls turn float64) and empty
partitions come out as pandas blocks.

For a key space of at most a few thousand groups,
:func:`grouped_agg_lowcard` keeps the per-batch partial but reduces it
with Ray's native aggregate: the partials are few enough that the
per-row combine costs less than the bucket shuffle's extra operator.

Users: :func:`grouped_agg`, ``join.hash_join`` / ``join.hash_semi_join``,
``compact.latest_wins``, ``dedup.near_dup`` (its verify step),
``dedup.duplicate_line_removal`` and the catalog's hand-rolled bucket
queries. ``pipelines/extract.add_part_id_batch`` keeps its own hash: it
defines on-disk ``part_id`` values.

What the engine cannot control: Ray's sort shuffle emits schema-less
empty blocks for empty partitions and bypasses the UDF for them
(``plan_udf_map_op.py:452``), so no typed empty table can stand in.

Scale shape: one bucket (~1/B of the key space) must fit a worker's
heap.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


_AGG_FUNCS = ("sum", "min", "max")

Frame = Union[pa.Table, pd.DataFrame]


def to_arrow(frame: Frame) -> pa.Table:
    """Arrow table without schema metadata (pandas frames converted
    without their index)."""
    if isinstance(frame, pd.DataFrame):
        frame = pa.Table.from_pandas(frame, preserve_index=False)
    return frame.replace_schema_metadata(None)


def key_buckets(table: pa.Table, keys: Sequence[str],
                num_buckets: int) -> np.ndarray:
    """int64 bucket id in ``[0, num_buckets)`` per row of ``table``,
    a function of the ``keys`` values alone.

    Null integer keys hash as 0 (filling keeps the column int64; a
    float64 NaN column would hash every key differently); whether nulls
    match is the caller's rule, they only need one bucket."""
    cols = {}
    for k in keys:
        a = table[k]
        if pa.types.is_dictionary(a.type):
            a = a.cast(a.type.value_type)
        if pa.types.is_integer(a.type) or pa.types.is_boolean(a.type):
            a = pc.fill_null(a.cast(pa.int64()), 0)
        elif pa.types.is_floating(a.type):
            a = a.cast(pa.float64())
        cols[k] = a.to_numpy(zero_copy_only=False)
    h = pd.util.hash_pandas_object(pd.DataFrame(cols), index=False)
    return (h.to_numpy() % np.uint64(num_buckets)).astype(np.int64)


def with_buckets(frame: Frame, keys: Sequence[str],
                 num_buckets: int) -> pa.Table:
    """``frame`` as Arrow with the ``__b`` column :func:`bucket_shuffle`
    groups on."""
    t = to_arrow(frame)
    return t.append_column("__b", pa.array(key_buckets(t, keys,
                                                       num_buckets)))


def bucket_shuffle(ds, fn: Callable[[pa.Table], Frame]):
    """One shuffle on ``__b``; ``fn`` maps each bucket (an Arrow table
    without ``__b``) to an Arrow table or pandas frame."""
    def per_bucket(t: pa.Table) -> pa.Table:
        return to_arrow(fn(t.drop_columns(["__b"])))

    return ds.groupby("__b").map_groups(per_bucket, batch_format="pyarrow")


def _key_cols(keys: Union[str, Sequence[str]], aggs: Dict[str, tuple],
              count: Optional[str]) -> List[str]:
    """``keys`` as a list, after checking ``aggs`` and ``count``."""
    for out_col, (in_col, fn) in aggs.items():
        if fn not in _AGG_FUNCS:
            raise ValueError(
                f"grouped_agg supports {_AGG_FUNCS}, got {fn!r} for "
                f"{out_col!r} (non-associative aggregates can't two-level)")
    if count is not None and count in aggs:
        raise ValueError(f"count column {count!r} collides with an agg")
    return [keys] if isinstance(keys, str) else list(keys)


def grouped_agg(ds, keys: Union[str, Sequence[str]],
                aggs: Dict[str, tuple], num_buckets: int = 64,
                count: Optional[str] = None):
    """Distributed ``SELECT keys, agg(col)... GROUP BY keys`` for
    HIGH-cardinality key spaces.

    ``aggs``: output column → ``(input column, fn)`` with fn ∈
    {sum, min, max}. ``count="n"`` adds a COUNT(*) column named ``n``.
    Associative only (mean = sum/count at the call site).

    Two-level: per-batch pandas partial (C groupby) shrinks each batch
    to its distinct keys; one :func:`bucket_shuffle`; each bucket
    re-runs the same aggregation (sum-of-sums, min-of-mins, ...).
    Output blocks are Arrow; dtypes follow pandas aggregation rules
    (int64 sums stay int64). Both levels stay in pandas on purpose:
    pandas float sums are Kahan-compensated and Arrow's ``hash_sum`` is
    not, so an Arrow ``group_by`` drifts from exact float results.
    """
    key_cols = _key_cols(keys, aggs, count)
    # pandas named-agg spec for the partial; the bucket-level re-agg
    # applies the same fn to the PARTIAL column (sum-of-sums etc.)
    partial_spec = {out: (in_col, fn) for out, (in_col, fn) in aggs.items()}
    if count is not None:
        any_col = key_cols[0]
        partial_spec[count] = (any_col, "size")
    final_spec = {out: (out, fn) for out, (_, fn) in aggs.items()}
    if count is not None:
        final_spec[count] = (count, "sum")

    def agg(b: pd.DataFrame, spec) -> pd.DataFrame:
        g = b.groupby(key_cols, as_index=False, sort=False,
                      dropna=False).agg(**spec)
        if count is not None:
            g[count] = g[count].astype("int64")
        return g

    def partial(t: pa.Table) -> pa.Table:
        return with_buckets(agg(t.to_pandas(), partial_spec), key_cols,
                            num_buckets)

    return bucket_shuffle(ds.map_batches(partial, batch_format="pyarrow"),
                          lambda t: agg(t.to_pandas(), final_spec))


def grouped_sum(ds, keys: Union[str, Sequence[str]],
                sums: Union[Dict[str, str], Sequence[str]],
                num_buckets: int = 64, count: Optional[str] = None):
    """Sugar for the common all-sums case. ``sums`` is either
    {input column → output name} or a list of columns summed under
    their own names."""
    if not isinstance(sums, dict):
        sums = {c: c for c in sums}
    return grouped_agg(ds, keys,
                       {out: (in_col, "sum") for in_col, out in sums.items()},
                       num_buckets=num_buckets, count=count)


def grouped_agg_lowcard(ds, keys: Union[str, Sequence[str]],
                        aggs: Dict[str, tuple], count: Optional[str] = None):
    """:func:`grouped_agg` for a key space of at most a few thousand
    groups: each batch shrinks to its groups with one Arrow
    ``group_by``, and Ray's native ``groupby().aggregate`` reduces the
    partials. They are ≤ groups × blocks rows, so the native per-row
    combine stays cheap, and the plan saves the bucket shuffle's sort
    and ``map_groups`` step. Unlike :func:`grouped_agg`, integer keys
    come out int64 and float sums are Arrow's (not compensated)."""
    from ray.data.aggregate import Max, Min, Sum

    key_cols = _key_cols(keys, aggs, count)

    def partial(t: pa.Table) -> pa.Table:
        spec = list(aggs.values())
        if count is not None:       # COUNT(*): null key values count too
            spec.append((key_cols[0], "count", pc.CountOptions(mode="all")))
        g = t.group_by(key_cols).aggregate(spec)
        cols = {k: g[k] for k in key_cols}
        cols.update({out: g[f"{in_col}_{fn}"]
                     for out, (in_col, fn) in aggs.items()})
        if count is not None:
            cols[count] = g[f"{key_cols[0]}_count"]
        return pa.table(cols)

    reduce = {"sum": Sum, "min": Min, "max": Max}
    finals = [reduce[fn](out, alias_name=out)
              for out, (_, fn) in aggs.items()]
    if count is not None:
        finals.append(Sum(count, alias_name=count))
    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby(key_cols).aggregate(*finals))
