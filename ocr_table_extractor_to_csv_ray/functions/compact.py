"""Latest-wins compaction (upsert / CDC merge).

A 100 TB training corpus is never written once: crawls re-fetch pages,
label stores re-emit rows, event logs append corrections. The standard
merge step — "per key, keep the newest version" — is a compaction the
reference (a per-file extractor) never needs, but any corpus that
ingests incrementally does.

Scale shape: the naive plan shuffles EVERY version of every key to its
reducer. :func:`latest_wins` instead runs a per-batch partial argmax
first (``map_batches``): each batch keeps at most one row per key it
sees, so the all-to-all ``groupby`` that follows moves one row per
(key, batch-that-saw-it) — for a hot key appearing millions of times in
a block, one survivor leaves that block. The final per-key pick runs in
``map_groups`` with the same comparator, so the result is independent
of block layout.

Determinism: ordering is (order_by, tiebreak) lexicographic-max. Both
columns must be totally ordered (ints / timestamps); with a unique
tiebreak column (an event/version id) the winner is unique, making the
output bit-reproducible under any partitioning.
"""

from __future__ import annotations

from typing import List, Sequence

import pandas as pd
import pyarrow as pa

from .agg import bucket_shuffle, with_buckets


def _pick_latest(df: pd.DataFrame, keys: List[str], order_by: str,
                 tiebreak: str) -> pd.DataFrame:
    """One row per key group: the (order_by, tiebreak)-max row."""
    if not len(df):
        return df
    # stable mergesort → last row per group is the lexicographic max;
    # dropna=False: NULL keys form a group like SQL row_number()
    # PARTITION BY does, instead of silently vanishing (ADVICE r3)
    df = df.sort_values([order_by, tiebreak], kind="mergesort")
    return df.groupby(keys, as_index=False, sort=False, dropna=False).tail(1)


def latest_wins(ds, keys: Sequence[str], order_by: str, tiebreak: str):
    """Compact ``ds`` to one row per ``keys`` group — the row with the
    largest ``(order_by, tiebreak)``.

    Two-level: per-batch partial pick (local shrink, no shuffle) →
    one ``agg.bucket_shuffle`` over the survivors → vectorized final
    pick per bucket (``_pick_latest`` already resolves every key inside
    a frame, so grouping Ray-side by key-hash bucket rather than by key
    gives identical rows without one Python frame per key — see
    functions/agg.py for the per-group cost this avoids). Output
    columns == input columns; output blocks are Arrow.
    """
    keys = list(keys)
    num_buckets = 64

    def pick(t: pa.Table) -> pd.DataFrame:
        return _pick_latest(t.to_pandas(), keys, order_by, tiebreak)

    def partial(t: pa.Table) -> pa.Table:
        return with_buckets(pick(t), keys, num_buckets)

    return bucket_shuffle(ds.map_batches(partial, batch_format="pyarrow"),
                          pick)
