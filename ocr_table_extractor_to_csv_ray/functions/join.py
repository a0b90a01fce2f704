"""Joins and windowed event aggregates.

The reference has no distributed joins (SURVEY.md §2.5) — these are the
engine-level operators a corpus pipeline needs around it:

- :func:`hash_join` / :func:`hash_semi_join` — partitioned joins of two
  large datasets over Arrow: each side is padded to one union schema
  with typed nulls, bucketed by ``agg.key_buckets`` and shuffled ONCE
  by ``agg.bucket_shuffle``; each bucket joins with Arrow. NULL keys
  never match (SQL semantics).
- :func:`broadcast_join` — small side broadcast ONCE via ``ray.put``,
  Arrow join per batch. No shuffle; the pattern for every
  dimension/metadata enrichment (J2's image↔hocr stem pairing is the
  same join with ``key = stem``).
- :func:`sessionize` — event-time session windows per key: partition by
  key (one ``groupby`` shuffle), sort within group, split where the gap
  exceeds the timeout. The ordering assumption (events of one key fit a
  group and sort in memory) is the documented partitioning contract.
- :func:`pair_by_stem` — the reference's dataset-CLI discovery join
  (``dataset_cli.py:39-67``): filename-stem equijoin, first match wins.

Every join speaks the pandas ``how`` vocabulary and keeps the pandas
``merge`` column order: left columns, then the right side's non-key
columns, suffixed where they collide with a left column.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .agg import bucket_shuffle, key_buckets, to_arrow

_HOW = {"inner": "inner", "left": "left outer", "right": "right outer",
        "outer": "full outer"}


def _arrow_types(sch) -> Dict[str, pa.DataType]:
    """col → Arrow type of a Ray schema. Ray reports pandas ``object``
    columns as ``object``; the joins here carry strings in them."""
    return {c: t if isinstance(t, pa.DataType) else pa.string()
            for c, t in zip(sch.names, sch.types)}


def _check_key_types(op: str, key: str, lt, rt) -> None:
    """Refuse keys of different type classes (int vs float vs string):
    they bucket — and compare — differently, so matches would vanish
    silently. Widths within a class are cast to the left's type."""
    def cls(t) -> str:
        if pa.types.is_boolean(t):
            return "bool"
        if pa.types.is_integer(t):
            return "int"
        if pa.types.is_floating(t) or pa.types.is_decimal(t):
            return "float"
        if pa.types.is_string(t) or pa.types.is_large_string(t):
            return "str"
        return str(t)

    if lt is not None and rt is not None and cls(lt) != cls(rt):
        raise ValueError(
            f"{op} key dtype mismatch on {key!r}: left={lt}, right={rt} "
            "— cast both sides to one dtype before joining")


def _join_tables(l: pa.Table, r: pa.Table, key: str, how: str) -> pa.Table:
    """pandas-``merge``-shaped Arrow join (``r`` already suffixed; keys
    of one type). Joins row numbers and takes the payload, so columns
    of any type ride along — Acero refuses list, struct and null-typed
    payload columns."""
    ij = pa.table({key: l[key], "__li": np.arange(l.num_rows)}).join(
        pa.table({key: r[key], "__ri": np.arange(r.num_rows)}),
        keys=key, join_type=_HOW[how], coalesce_keys=True)
    cols = {c: ij[key] if c == key else l[c].take(ij["__li"])
            for c in l.column_names}
    cols.update({c: r[c].take(ij["__ri"]) for c in r.column_names
                 if c != key})
    return pa.table(cols)


def _pad(t: pa.Table, types: Dict[str, pa.DataType], right: bool
         ) -> pa.Table:
    """``t`` in the union schema ``types`` — typed nulls for the other
    side's columns — tagged with its side in ``__r``."""
    n = t.num_rows
    cols = {c: t[c].cast(typ) if c in t.column_names else pa.nulls(n, typ)
            for c, typ in types.items()}
    cols["__r"] = pa.array(np.full(n, right))
    return pa.table(cols)


def _sides(g: pa.Table) -> Tuple[pa.Table, pa.Table]:
    """A tagged bucket → (left rows, right rows), ``__r`` dropped."""
    r = g["__r"]
    return (g.filter(pc.invert(r)).drop_columns(["__r"]),
            g.filter(r).drop_columns(["__r"]))


def broadcast_join(ds, small_df: pd.DataFrame, key: str,
                   how: str = "inner", suffix: str = "_r"):
    """Join ``ds`` against a driver-side small table without a shuffle.

    ``small_df`` is put in the object store once, as Arrow; every batch
    joins it with Arrow. ``how`` ∈ {inner, left}; NULL keys never match.
    The key check and the suffixing run per batch: asking ``ds`` for
    its schema up front would execute a lazy upstream shuffle twice.
    """
    import ray

    if how not in ("inner", "left"):
        raise ValueError(f"broadcast_join how={how!r} — expected "
                         "'inner' or 'left'")
    ref = ray.put(to_arrow(small_df))

    def _join(batch: pa.Table) -> pa.Table:
        right = ray.get(ref)
        _check_key_types("broadcast_join", key, batch[key].type,
                         right[key].type)
        right = right.rename_columns(
            [c + suffix if c != key and c in batch.column_names else c
             for c in right.column_names])
        right = right.set_column(right.schema.get_field_index(key), key,
                                 right[key].cast(batch[key].type))
        return _join_tables(batch, right, key, how)

    return ds.map_batches(_join, batch_format="pyarrow")


_TS_UNIT_TO_US = {"s": 1_000_000, "ms": 1_000, "us": 1}


def sessionize(ds, key: str = "user_id", ts: str = "ts",
               gap_seconds: int = 1800, ts_unit: str = "us",
               max_events_per_task: Optional[int] = 5_000_000):
    """Session windows: per key, sort by ``ts``; a new session starts
    where the gap from the previous event exceeds ``gap_seconds``.

    Returns one row per (key, session_id) with ``n_events``,
    ``session_start``, ``session_end`` (epoch microseconds, int64).
    SQL-equivalent: ``lag`` + cumulative sum of gap flags.

    ``ts_unit`` declares the epoch unit of a NON-datetime ``ts`` column
    (``"s"``/``"ms"``/``"us"``) — an epoch-seconds int column compared
    raw against microsecond gaps would silently never split sessions.
    Datetime columns carry their own unit and ignore ``ts_unit``.

    MEGA-KEY GUARD (the enforced form of the one-key-fits-a-task
    contract): a cheap probe pass (per-batch ``(key, n, tmin, tmax)``
    partials → one tiny key-shuffle, events never move) finds keys
    whose event count exceeds ``max_events_per_task``. Those keys are
    range-partitioned by time into buckets of ≲ threshold events,
    sessionized per (key, bucket), then STITCHED: sessionization is
    boundary-local, so adjacent-bucket sessions merge iff the gap
    between one session's end and the next's start is ≤ the gap — a
    linear interval merge over session rows (≪ event rows). Cold keys
    take the plain one-task path. ``max_events_per_task=None`` disables
    the probe (one scan instead of two) when the caller knows the key
    space is tame."""
    try:
        to_us = _TS_UNIT_TO_US[ts_unit]
    except KeyError:
        raise ValueError(f"ts_unit must be one of {sorted(_TS_UNIT_TO_US)}, "
                         f"got {ts_unit!r}") from None

    gap_us = gap_seconds * 1_000_000

    def _t_us(arr: np.ndarray) -> np.ndarray:
        if np.issubdtype(arr.dtype, np.datetime64):
            return arr.astype("datetime64[us]").astype(np.int64)   # epoch us
        return arr.astype(np.int64) * to_us

    def _sessions_of(keys: np.ndarray, t: np.ndarray) -> pd.DataFrame:
        """(sorted-by-ts) one-key event arrays → session rows."""
        new_sess = np.ones(len(t), dtype=np.int64)
        if len(t) > 1:
            new_sess[1:] = (t[1:] - t[:-1] > gap_us).astype(np.int64)
        sess_id = np.cumsum(new_sess)                  # 1-based per key
        out = pd.DataFrame({key: keys, "session_id": sess_id, "_t": t})
        agg = out.groupby([key, "session_id"], as_index=False).agg(
            n_events=("_t", "size"),
            session_start=("_t", "min"),
            session_end=("_t", "max"),
        )
        for c in ("n_events", "session_start", "session_end", "session_id"):
            agg[c] = agg[c].astype("int64")
        return agg

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(ts, kind="mergesort")
        return _sessions_of(g[key].to_numpy(), _t_us(g[ts].to_numpy()))

    hot = None
    if max_events_per_task:
        from ray.data.aggregate import Max, Min, Sum

        def probe(b: pd.DataFrame):
            t = _t_us(b[ts].to_numpy())
            f = pd.DataFrame({key: b[key].to_numpy(), "_t": t})
            g = f.groupby(key, as_index=False).agg(
                n=("_t", "size"), tmin=("_t", "min"), tmax=("_t", "max"))
            g["n"] = g["n"].astype("int64")
            # Arrow blocks into the stats aggregate (24× pandas-block
            # combine penalty; see functions/agg.py)
            return to_arrow(g)

        stats = (ds.map_batches(probe, batch_format="pandas")
                 .groupby(key)
                 .aggregate(Sum("n", alias_name="n"),
                            Min("tmin", alias_name="tmin"),
                            Max("tmax", alias_name="tmax")))
        # only the PATHOLOGICAL keys cross to the driver — normally zero
        hot = (stats.map_batches(
            lambda t: t.filter(pc.greater(t["n"], max_events_per_task)),
            batch_format="pyarrow").to_pandas())
        if len(hot) == 0:
            hot = None

    if hot is None:
        return ds.groupby(key).map_groups(per_key, batch_format="pandas")

    # span width per hot key s.t. a uniform timeline gives ≲ threshold
    # events per bucket (a skewed timeline can still exceed it — this is
    # a guard against unbounded single tasks, not a balancer)
    hot_meta = {}
    for _, r in hot.iterrows():
        n_buckets = int(np.ceil(r["n"] / max_events_per_task))
        width = max(1, int(np.ceil((r["tmax"] - r["tmin"] + 1) / n_buckets)))
        hot_meta[r[key]] = (int(r["tmin"]), width)
    hot_keys = set(hot_meta)

    def split_flag(b: pd.DataFrame) -> pd.DataFrame:
        return b[~b[key].isin(hot_keys)]

    cold_sessions = (ds.map_batches(split_flag, batch_format="pandas")
                     .groupby(key).map_groups(per_key, batch_format="pandas"))

    def hot_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b[key].isin(hot_keys)]
        if not len(b):
            return pd.DataFrame({key: b[key], "_t": pd.array([], dtype="int64"),
                                 "__bucket": pd.array([], dtype="int64")})
        t = _t_us(b[ts].to_numpy())
        tmin = b[key].map(lambda k: hot_meta[k][0]).to_numpy(dtype=np.int64)
        width = b[key].map(lambda k: hot_meta[k][1]).to_numpy(dtype=np.int64)
        return pd.DataFrame({key: b[key].to_numpy(), "_t": t,
                             "__bucket": (t - tmin) // width})

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("_t", kind="mergesort")
        return _sessions_of(g[key].to_numpy(), g["_t"].to_numpy(np.int64))

    def stitch(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("session_start", kind="mergesort")
        start = g["session_start"].to_numpy(np.int64)
        end = g["session_end"].to_numpy(np.int64)
        n = g["n_events"].to_numpy(np.int64)
        # merge adjacent sessions whose inter-session gap ≤ gap_us;
        # running max of end guards out-of-order bucket overlaps
        run_end = np.maximum.accumulate(end)
        new = np.ones(len(g), dtype=np.int64)
        if len(g) > 1:
            new[1:] = (start[1:] - run_end[:-1] > gap_us).astype(np.int64)
        sid = np.cumsum(new)
        out = pd.DataFrame({key: g[key].to_numpy(), "session_id": sid,
                            "n_events": n, "session_start": start,
                            "session_end": end})
        agg = out.groupby([key, "session_id"], as_index=False).agg(
            n_events=("n_events", "sum"),
            session_start=("session_start", "min"),
            session_end=("session_end", "max"))
        for c in ("n_events", "session_start", "session_end", "session_id"):
            agg[c] = agg[c].astype("int64")
        return agg

    hot_sessions = (ds.map_batches(hot_bucket, batch_format="pandas")
                    .groupby([key, "__bucket"])
                    .map_groups(per_bucket, batch_format="pandas")
                    .groupby(key)
                    .map_groups(stitch, batch_format="pandas"))
    return cold_sessions.union(hot_sessions)


def hash_join(left, right, key: str, num_buckets: int = 32,
              suffix: str = "_r", how: str = "inner",
              hot_keys: Optional[Sequence] = None, salt_factor: int = 8):
    """Explicit partitioned hash join for two LARGE datasets.

    Both sides are padded to one union schema (typed nulls for the
    other side's columns, the right key cast to the left key's type)
    and bucketed with ``agg.key_buckets``; the tagged union shuffles
    ONCE (``agg.bucket_shuffle``) and each bucket joins its two sides
    with Arrow. ``how`` ∈ {inner, left, right, outer}. NULL keys never
    match. Column types survive the join (an int64 column padded with
    nulls stays int64). B is the partitioning contract: one bucket (all
    rows of ~1/B of the key space, both sides) must fit a worker's heap.

    **Hot-key salting**: pass ``hot_keys`` (the few keys that dominate
    the distribution — e.g. from a cheap pre-count) to split each hot
    key into ``salt_factor`` sub-buckets. Left rows of a hot key are
    sprayed across the sub-buckets; right rows of that key are
    REPLICATED into every sub-bucket, so each sub-bucket still sees the
    full right side of the key and per-task memory is ~1/salt_factor of
    the unsalted hot bucket. Join output is identical to the unsalted
    join for ``inner`` and ``left`` (each left row lands in exactly one
    sub-bucket).
    (Ray ≥ 2.46 also ships ``Dataset.join`` with the same
    hash-partitioned plan; this spells the pattern out explicitly.)

    Key-dtype contract: both sides must carry the key in one type class
    (int, float, string, ...) — int64 8 and float64 8.0 bucket
    differently, so a mismatch raises instead of dropping matches.
    """
    if how not in _HOW:
        raise ValueError(f"hash_join how={how!r} — expected one of "
                         f"{tuple(_HOW)}")
    if hot_keys and how not in ("inner", "left"):
        # right/outer would emit an unmatched right hot row once per
        # sub-bucket (salt_factor duplicates) — refuse instead of
        # silently corrupting the result
        raise ValueError(
            f"hot_keys salting supports how='inner'/'left' only, got {how!r}")
    ltypes = _arrow_types(left.schema())
    rtypes = _arrow_types(right.schema())
    _check_key_types("hash_join", key, ltypes.get(key), rtypes.get(key))
    rname = {c: c + suffix if c in ltypes and c != key else c
             for c in rtypes}
    types = {**ltypes, **{rname[c]: t for c, t in rtypes.items()
                          if c != key}}
    right_cols = [key] + [rname[c] for c in rtypes if c != key]
    hot = pa.array(list(hot_keys), ltypes[key]) if hot_keys else None
    S = max(1, salt_factor) if hot is not None else 1

    def _tag(t: pa.Table, right_side: bool):
        t = _pad(t, types, right_side)
        b = key_buckets(t, [key], num_buckets) * S
        if hot is None:
            return t.append_column("__b", pa.array(b))
        ishot = pc.is_in(t[key], value_set=hot).to_numpy(
            zero_copy_only=False)
        n_hot = int(ishot.sum())
        if not right_side:
            b[ishot] += np.arange(n_hot, dtype=np.int64) % S
            return t.append_column("__b", pa.array(b))
        # one take: cold rows once, hot rows once per sub-bucket
        cold_i, hot_i = np.flatnonzero(~ishot), np.flatnonzero(ishot)
        idx = np.concatenate([cold_i, np.tile(hot_i, S)])
        b = np.concatenate([b[cold_i], np.tile(b[hot_i], S)
                            + np.repeat(np.arange(S, dtype=np.int64), n_hot)])
        return t.take(idx).append_column("__b", pa.array(b))

    def tag_right(t: pa.Table):
        return _tag(t.rename_columns([rname[c] for c in t.column_names]),
                    True)

    def join_bucket(g: pa.Table) -> pa.Table:
        l, r = _sides(g)
        return _join_tables(l.select(list(ltypes)), r.select(right_cols),
                            key, how)

    both = (left.map_batches(_tag, fn_args=(False,), batch_format="pyarrow")
            .union(right.map_batches(tag_right, batch_format="pyarrow")))
    return bucket_shuffle(both, join_bucket)


def join_auto(left, right, key: str, right_key: Optional[str] = None,
              how: str = "inner", num_buckets: int = 32,
              hot_keys: Optional[Sequence] = None, salt_factor: int = 8,
              num_partitions: Optional[int] = None):
    """Large×large join with engine dispatch.

    Ray ≥ 2.46 ships a native hash-partitioned ``Dataset.join`` that
    measures ~1.3× faster than this repo's explicit tagged-union
    :func:`hash_join` on even inputs (BASELINE.md, measured) — but it
    has no hot-key salting and no key-dtype guard. This wrapper
    encodes the decision rule instead of leaving it to folklore:

    - ``hot_keys`` given (skewed key space) → explicit :func:`hash_join`
      with salting; the native path has no skew story.
    - otherwise → native ``Dataset.join`` when available, falling back
      to :func:`hash_join` on older Ray.

    CHAINED-JOIN caveat (measured, BASELINE.md): a pipeline with TWO
    native joins runs ~3× slower than the explicit path on the same
    inputs (min-of-3 interleaved: 53 s vs 16 s at sf0.1/32 CPUs) —
    each native join holds `num_partitions` aggregator actors, so
    chained joins over-subscribe the worker pool, while the explicit
    tagged-union buckets are plain tasks that schedule cooperatively.
    For multi-join pipelines either pass `num_partitions` such that the
    SUM across concurrent joins ≤ cluster CPUs, or use
    :func:`hash_join` directly (what `revenue_by_segment` does).

    ``right_key`` joins differently-named key columns without a rename
    pass (native path only supports that directly; the explicit path
    renames inside a map_batches). Output columns follow the left
    side's naming (the right key column is dropped on the native path
    when it differs, matching hash_join's single-key-column contract).
    """
    # ONE canonical `how` vocabulary (pandas names) across all three
    # dispatch paths; the native Dataset.join speaks 'left_outer' etc.,
    # so translate at its call site (ADVICE r3: join_auto(how='left')
    # used to raise only when the native path was taken).
    _VALID_HOW = ("inner", "left", "right", "outer")
    if how not in _VALID_HOW:
        raise ValueError(
            f"join_auto how={how!r} — expected one of {_VALID_HOW} "
            "(pandas vocabulary, translated internally for the native path)")
    _NATIVE_HOW = {"inner": "inner", "left": "left_outer",
                   "right": "right_outer", "outer": "full_outer"}
    rk = right_key or key
    if hot_keys:
        if rk != key:
            right = right.map_batches(
                lambda b, _rk=rk, _k=key: b.rename(columns={_rk: _k}),
                batch_format="pandas")
        return hash_join(left, right, key, num_buckets=num_buckets,
                         how=how, hot_keys=hot_keys,
                         salt_factor=salt_factor)
    if hasattr(left, "join"):
        if num_partitions is None:
            # the native join runs per-partition aggregator actors;
            # partitions far beyond the cluster's CPUs over-subscribe
            # the worker pool (observed: worker SIGTERMs at 32
            # partitions on a 4-CPU cluster) — cap at cluster width
            try:
                import ray
                cpus = int(ray.cluster_resources().get("CPU", num_buckets))
            except Exception:
                cpus = num_buckets
            num_partitions = max(2, min(num_buckets, cpus))
        joined = left.join(right, join_type=_NATIVE_HOW[how],
                           num_partitions=num_partitions,
                           on=(key,), right_on=(rk,))
        if rk != key and rk in joined.schema().names:
            # Ray versions differ on whether the right key column
            # survives the join — enforce hash_join's single-key contract
            joined = joined.drop_columns([rk])
        return joined
    if rk != key:
        right = right.map_batches(
            lambda b, _rk=rk, _k=key: b.rename(columns={_rk: _k}),
            batch_format="pandas")
    return hash_join(left, right, key, num_buckets=num_buckets, how=how)


def hash_semi_join(left, right, key: str, num_buckets: int = 32,
                   anti: bool = False):
    """Partitioned semi- / anti-join: left rows whose key does (semi) or
    does not (anti) appear on the right. Only LEFT columns come out —
    the right side is reduced to its DISTINCT keys before it moves.
    NULL keys never match: a null-key left row is dropped by the semi
    form and kept by the anti form (SQL ``IN`` / ``NOT EXISTS``).

    Scale shape: the right side is projected to its distinct non-null
    keys per batch (a million repeats of one key leave each block as
    one row), so the tagged-union shuffle moves at most one right row
    per (key, block). Each bucket then does one ``pc.is_in`` probe — no
    join, no row multiplication, which is what distinguishes this from
    ``hash_join(how='left')`` + filter: a left row can never be
    duplicated by multiple right matches. Left columns of any Arrow
    type (lists included) cross the shuffle as they are.

    Same key-dtype contract as :func:`hash_join`.
    """
    ltypes = _arrow_types(left.schema())
    _check_key_types("hash_semi_join", key, ltypes.get(key),
                     _arrow_types(right.schema()).get(key))

    def _tag(t: pa.Table, right_side: bool) -> pa.Table:
        if right_side:
            t = pa.table({key: pc.unique(t[key]).drop_null()})
        t = _pad(t, ltypes, right_side)
        return t.append_column(
            "__b", pa.array(key_buckets(t, [key], num_buckets)))

    def probe_bucket(g: pa.Table) -> pa.Table:
        l, r = _sides(g)
        hit = pc.is_in(l[key], value_set=r[key].combine_chunks(),
                       skip_nulls=True)
        return l.filter(pc.invert(hit) if anti else hit)

    both = (left.map_batches(_tag, fn_args=(False,), batch_format="pyarrow")
            .union(right.map_batches(_tag, fn_args=(True,),
                                     batch_format="pyarrow")))
    return bucket_shuffle(both, probe_bucket)


def pair_by_stem(image_paths: Sequence[str], hocr_paths: Sequence[str]
                 ) -> List[Tuple[str, str]]:
    """J2 (``dataset_cli.py:39-67``): for each image, the hOCR file with
    the same stem; images without a partner are skipped. Deterministic:
    inputs scanned in sorted order, first stem occurrence wins."""
    by_stem: Dict[str, str] = {}
    for h in sorted(hocr_paths):
        stem = os.path.splitext(os.path.basename(h))[0]
        by_stem.setdefault(stem, h)
    out: List[Tuple[str, str]] = []
    for img in sorted(image_paths):
        stem = os.path.splitext(os.path.basename(img))[0]
        if stem in by_stem:
            out.append((img, by_stem[stem]))
    return out
