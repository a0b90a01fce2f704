"""Joins and windowed event aggregates.

The reference has no distributed joins (SURVEY.md §2.5) — these are the
engine-level operators a corpus pipeline needs around it:

- :func:`broadcast_join` — small side broadcast ONCE via ``ray.put``,
  vectorized hash lookup per batch. No shuffle; the pattern for every
  dimension/metadata enrichment (J2's image↔hocr stem pairing is the
  same join with ``key = stem``).
- :func:`sessionize` — event-time session windows per key: partition by
  key (one ``groupby`` shuffle), sort within group, split where the gap
  exceeds the timeout. The ordering assumption (events of one key fit a
  group and sort in memory) is the documented partitioning contract.
- :func:`pair_by_stem` — the reference's dataset-CLI discovery join
  (``dataset_cli.py:39-67``): filename-stem equijoin, first match wins.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa


def _arrow_target_types(*schemas) -> Dict[str, "pa.DataType"]:
    """col → Arrow type from Ray schemas (first schema wins per column).

    Ray schemas carry Arrow types (Arrow blocks) or numpy dtypes (pandas
    blocks); numpy ``object`` is assumed to hold strings — the only
    object payload this repo's joins carry. Columns that can't be
    mapped are simply absent (left to runtime inference)."""
    out: Dict[str, pa.DataType] = {}
    for sch in schemas:
        if sch is None:
            continue
        for c, t in zip(sch.names, sch.types):
            if c in out:
                continue
            if isinstance(t, pa.DataType):
                out[c] = t
            else:
                try:
                    dt = np.dtype(t)
                    out[c] = (pa.string() if dt == np.dtype("O")
                              else pa.from_numpy_dtype(dt))
                except (TypeError, pa.ArrowNotImplementedError):
                    pass
    return out


def _frame_to_arrow(b: pd.DataFrame, target: Dict[str, "pa.DataType"]):
    """pandas frame → Arrow table with schema-stable column types.

    WHY Arrow and not pandas output blocks: Ray 2.49's sort-based
    ``groupby().aggregate()`` combine is ~24× slower on pandas blocks
    than Arrow blocks (measured 119.6 s vs 5.1 s on an identical
    3M-row input), and map operators BYPASS the UDF for all-empty task
    inputs, re-emitting an empty block of the INPUT's format — so one
    empty pandas block from an empty join bucket poisons every
    downstream aggregate (measured 9.9 s → 118.9 s from a single empty
    block). Producing Arrow blocks here, including for the NA-padded
    union columns (typed nulls, so both tagged sides carry one schema),
    keeps the whole downstream plan on the fast path.

    Falls back to returning the pandas frame unchanged when a column
    can't be represented (exotic object payloads) — correct but slow,
    and only for batches that actually carry such a column."""
    _ERRS = (pa.ArrowInvalid, pa.ArrowTypeError, pa.ArrowNotImplementedError,
             ValueError, TypeError)
    try:
        cols = {}
        for c in b.columns:
            s = b[c]
            at = target.get(c)
            if at is not None and s.dtype == object and (
                    len(s) == 0 or s.isna().all()):
                # NA-padded union column: typed nulls, not type null
                cols[c] = pa.nulls(len(s), at)
                continue
            if at is not None:
                try:
                    cols[c] = pa.Array.from_pandas(s, type=at)
                    continue
                except _ERRS:
                    pass                # fall through to inference
            cols[c] = pa.Array.from_pandas(s)
        return pa.table(cols)
    except _ERRS:
        return b


def _np_restore_dtypes(sch) -> Dict[str, np.dtype]:
    """col → numpy dtype for re-casting a to_pandas'd Arrow block back to
    its input dtypes (Arrow int64-with-nulls converts to float64; the
    nulls live only in the OTHER side's padded rows, so the cast back is
    exact)."""
    def _np_dtype(t):
        try:
            return np.dtype(t)
        except TypeError:
            try:
                return np.dtype(t.to_pandas_dtype())
            except (TypeError, NotImplementedError):
                return None

    return {c: d for c, d in
            ((c, _np_dtype(t)) for c, t in zip(sch.names, sch.types))
            if d is not None and d != np.dtype("O")}


def _restore(df: pd.DataFrame, dtypes: Dict[str, np.dtype]) -> pd.DataFrame:
    for c, d in dtypes.items():
        if c in df.columns and df[c].dtype != d:
            try:
                df = df.assign(**{c: df[c].astype(d)})
            except (ValueError, TypeError):
                pass                    # genuine NAs in this column: keep
    return df


def broadcast_join(ds, small_df: pd.DataFrame, key: str,
                   how: str = "inner", suffix: str = "_r"):
    """Join ``ds`` against a driver-side small table without a shuffle.

    ``small_df`` is put in the object store once; every batch does a
    vectorized pandas merge against it. ``how`` ∈ {inner, left}.
    Output blocks are Arrow (see :func:`_frame_to_arrow` for why).
    """
    import ray

    ref = ray.put(small_df)
    # schema-stable output types: left schema + the small side's dtypes
    # (suffixed overlap columns inherit the small side's type)
    target = _arrow_target_types(ds.schema())
    left_names = set(target)
    for c, d in small_df.dtypes.items():
        name = c if (c == key or c not in left_names) else c + suffix
        if name not in target:
            try:
                target[name] = (pa.string() if d == np.dtype("O")
                                else pa.from_numpy_dtype(d))
            except (TypeError, pa.ArrowNotImplementedError):
                pass

    def _join(batch: pd.DataFrame):
        right = ray.get(ref)
        out = batch.merge(right, on=key, how=how, suffixes=("", suffix))
        return _frame_to_arrow(out, target)

    return ds.map_batches(_join, batch_format="pandas")


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
        import pyarrow as pa
        import pyarrow.compute as pc
        from ray.data.aggregate import Max, Min, Sum

        def probe(b: pd.DataFrame):
            t = _t_us(b[ts].to_numpy())
            f = pd.DataFrame({key: b[key].to_numpy(), "_t": t})
            g = f.groupby(key, as_index=False).agg(
                n=("_t", "size"), tmin=("_t", "min"), tmax=("_t", "max"))
            g["n"] = g["n"].astype("int64")
            # Arrow blocks into the stats aggregate (24× pandas-block
            # combine penalty; see _frame_to_arrow)
            return _frame_to_arrow(g, {})

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

    Both sides get a vectorized ``bucket = hash(key) % B`` in
    ``map_batches`` (``pd.util.hash_pandas_object`` — deterministic
    siphash, no per-row Python); the tagged union shuffles ONCE on
    ``bucket`` (``groupby``), and each bucket joins its two sides with a
    pandas merge inside ``map_groups``. B is the partitioning contract:
    one bucket (all rows of ~1/B of the key space, both sides) must fit
    a worker's heap.

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

    Key-dtype contract: bucketing hashes the key column AS TYPED
    (``hash_pandas_object`` is dtype-sensitive — int64 8 and float64
    8.0 bucket differently). Both sides must carry the key in the same
    dtype; in particular, a column that passed through a PREVIOUS
    hash_join's union/pad may have been NA-upcast to float/object and
    must be cast back before chaining a second join on it.
    """
    if hot_keys and how not in ("inner", "left"):
        # right/outer would emit an unmatched right hot row once per
        # sub-bucket (salt_factor duplicates) — refuse instead of
        # silently corrupting the result
        raise ValueError(
            f"hot_keys salting supports how='inner'/'left' only, got {how!r}")
    lsch, rsch = left.schema(), right.schema()
    left_cols = list(lsch.names)
    right_cols = list(rsch.names)

    def _dtype_class(t) -> str:
        # normalize across Arrow-block and pandas-block schemas: arrow
        # `string` and pandas `object` hold (and hash) the same values,
        # while int-vs-float-vs-object IS the silent-drop trap
        s = str(t).lower()
        if "bool" in s:
            return "bool"
        if "int" in s:
            return "int"
        if "float" in s or "double" in s or "decimal" in s:
            return "float"
        if "str" in s or "object" in s or "utf8" in s:
            return "str"
        return s

    lt = dict(zip(lsch.names, lsch.types)).get(key)
    rt = dict(zip(rsch.names, rsch.types)).get(key)
    if (lt is not None and rt is not None
            and _dtype_class(lt) != _dtype_class(rt)):
        # a dtype-class mismatch buckets the two sides differently and
        # silently drops matches — fail loudly instead (the chained-join
        # NA-upcast trap; see the docstring)
        raise ValueError(
            f"hash_join key dtype mismatch on {key!r}: left={lt}, "
            f"right={rt} — cast both sides to one dtype before joining")
    all_cols = left_cols + [c for c in right_cols if c not in left_cols]
    hot = frozenset(hot_keys) if hot_keys else None
    S = max(1, salt_factor) if hot else 1

    # one Arrow schema for BOTH tagged sides (typed nulls for the pad),
    # so the union → sort → aggregate chain downstream stays on Arrow
    # blocks end-to-end; see _frame_to_arrow for the measured 24× cost
    # of letting pandas blocks (or empty-bucket pandas passthroughs)
    # reach a groupby().aggregate()
    target = _arrow_target_types(lsch, rsch)
    target["__bucket"] = pa.int64()
    target["__side"] = pa.string()
    l_restore = _np_restore_dtypes(lsch)
    r_restore = _np_restore_dtypes(rsch)

    def _pad(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        for c in all_cols:              # union needs one schema: pad with NA
            if c not in b.columns:
                b[c] = pd.NA
        return b[all_cols]

    def _buckets(col: pd.Series) -> np.ndarray:
        h = pd.util.hash_pandas_object(col, index=False).to_numpy()
        return (h % np.uint64(num_buckets)).astype(np.int64)

    def tag_left(b: pd.DataFrame):
        b = _pad(b)
        bucket = _buckets(b[key]) * S
        if hot:
            ishot = b[key].isin(hot).to_numpy()
            salt = np.zeros(len(b), dtype=np.int64)
            salt[ishot] = np.arange(int(ishot.sum()), dtype=np.int64) % S
            bucket = bucket + salt
        b["__bucket"] = bucket
        b["__side"] = "l"
        return _frame_to_arrow(b, target)

    def tag_right(b: pd.DataFrame):
        b = _pad(b)
        b["__bucket"] = _buckets(b[key]) * S
        b["__side"] = "r"
        if hot:
            ishot = b[key].isin(hot).to_numpy()
            cold = b[~ishot]
            hot_rows = b[ishot]
            reps = [hot_rows.assign(__bucket=hot_rows["__bucket"] + s)
                    for s in range(S)]
            b = pd.concat([cold, *reps], ignore_index=True)
        return _frame_to_arrow(b, target)

    lt = left.map_batches(tag_left, batch_format="pandas")
    rt = right.map_batches(tag_right, batch_format="pandas")
    both = lt.union(rt)

    def join_bucket(g: pd.DataFrame):
        # the Arrow group block to_pandas-converts int64-with-nulls to
        # float64 (the nulls are the OTHER side's pad rows) — restore
        # each side's input dtypes before the merge so join semantics
        # and output types match the inputs
        l = _restore(g[g["__side"] == "l"][left_cols], l_restore)
        r = _restore(g[g["__side"] == "r"][right_cols], r_restore)
        out = l.merge(r, on=key, how=how, suffixes=("", suffix))
        return _frame_to_arrow(out, target)

    return both.groupby("__bucket").map_groups(join_bucket, batch_format="pandas")


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

    Scale shape: the right side is projected to the key column and
    deduplicated per batch in ``map_batches`` (a million repeats of one
    key leave each block as one row), so the tagged-union shuffle moves
    at most one right row per (key, block). Each bucket then does a
    vectorized ``isin`` probe — no merge, no row multiplication, which
    is what distinguishes this from ``hash_join(how='left')`` + filter:
    a left row can never be duplicated by multiple right matches.

    Same key-dtype contract as :func:`hash_join` (bucketing hashes the
    key AS TYPED; both sides must agree on the dtype class).
    """
    lsch, rsch = left.schema(), right.schema()
    left_cols = list(lsch.names)

    def _cls(t) -> str:
        s = str(t).lower()
        if "bool" in s:
            return "bool"
        if "int" in s:
            return "int"
        if "float" in s or "double" in s or "decimal" in s:
            return "float"
        if "str" in s or "object" in s or "utf8" in s:
            return "str"
        return s

    lt = dict(zip(lsch.names, lsch.types)).get(key)
    rt = dict(zip(rsch.names, rsch.types)).get(key)
    if lt is not None and rt is not None and _cls(lt) != _cls(rt):
        raise ValueError(
            f"hash_semi_join key dtype mismatch on {key!r}: left={lt}, "
            f"right={rt} — cast both sides to one dtype before joining")

    left_dtypes = _np_restore_dtypes(lsch)
    # Arrow output blocks end-to-end (typed nulls for the key-only right
    # rows' pad) — see _frame_to_arrow for the measured aggregate cost
    # of pandas blocks reaching a downstream groupby().aggregate()
    target = _arrow_target_types(lsch, rsch)   # left wins; right fills key
    target["__bucket"] = pa.int64()
    target["__side"] = pa.string()

    def _buckets(col: pd.Series) -> np.ndarray:
        h = pd.util.hash_pandas_object(col, index=False).to_numpy()
        return (h % np.uint64(num_buckets)).astype(np.int64)

    def tag_left(b: pd.DataFrame):
        b = b.copy()
        b["__bucket"] = _buckets(b[key])
        b["__side"] = "l"
        return _frame_to_arrow(b[left_cols + ["__bucket", "__side"]], target)

    def tag_right(b: pd.DataFrame):
        # distinct keys only — the local shrink that keeps the shuffle
        # proportional to key cardinality, not right row count
        kb = b[[key]].drop_duplicates()
        out = pd.DataFrame({key: kb[key].to_numpy()})
        for c in left_cols:
            if c not in out.columns:
                out[c] = pd.NA
        out["__bucket"] = _buckets(out[key])
        out["__side"] = "r"
        return _frame_to_arrow(out[left_cols + ["__bucket", "__side"]],
                               target)

    lt_ds = left.map_batches(tag_left, batch_format="pandas")
    rt_ds = right.map_batches(tag_right, batch_format="pandas")
    both = lt_ds.union(rt_ds)

    def probe_bucket(g: pd.DataFrame):
        l = g[g["__side"] == "l"]
        rkeys = g.loc[g["__side"] == "r", key]
        hit = l[key].isin(set(rkeys)).to_numpy()
        keep = ~hit if anti else hit
        out = l.loc[keep, left_cols]
        # the union's NA-padded right rows upcast the combined group
        # block; restore the left side's input dtypes so the output
        # schema is stable (including when empty)
        out = _restore(out, left_dtypes)
        return _frame_to_arrow(out, target)

    return both.groupby("__bucket").map_groups(probe_bucket,
                                               batch_format="pandas")


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
