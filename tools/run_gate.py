"""Simulate the driver's correctness gate: run each queries() entry and
its oracle_sql() side-by-side at the given sf dir, compare row count,
schema (sorted column names) and values HASH-EXACTLY (rows sorted, NO
float rounding, NO tolerance, dtype-sensitive).

The round-2 version rounded floats to 6 decimals and fell back to
rtol=1e-6, which silently passed DuckDB HUGEINT->float64 columns that
the driver's exact value-hash rejects (VERDICT r2 "What's wrong" #2).
This version mirrors the driver: a float64 oracle column vs an int64
engine column is a FAIL even when every value is numerically equal.

Usage: python tools/run_gate.py /root/testdata/sf0.01 [query ...]
"""
import json
import os
import sys

import duckdb
import numpy as np
import pandas as pd


def canon(df: pd.DataFrame) -> pd.DataFrame:
    """Driver-style canonicalization: columns sorted by name, rows sorted
    by all columns. Dtypes are PRESERVED (no float rounding) so the
    strict ``equals`` compare below is dtype-sensitive like the driver's
    value hash. Object columns are stringified only for a stable sort
    key / comparable representation (bytes vs str etc.)."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def main():
    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    import ray
    ray.init(address="local", num_cpus=16, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    # the checkout this script sits in, so gating a second checkout
    # (e.g. a parent copy for an A/B) imports that copy
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import __ray_entry__ as E

    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
        p = os.path.join(sf, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    qs, osql = E.queries(), E.oracle_sql()
    results = {}
    for name in qs:
        if only and name not in only:
            continue
        if name not in osql:
            results[name] = "no_oracle"
            continue
        try:
            res = qs[name](sf)
            if hasattr(res, "to_pandas"):
                res = res.to_pandas()
            elif not isinstance(res, pd.DataFrame):
                res = pd.DataFrame(res)
            exp = con.execute(osql[name]).df()
            a, b = canon(res), canon(exp)
            rows = len(a) == len(b)
            schema = list(a.columns) == list(b.columns)
            # strict, dtype-sensitive — mirrors the driver's exact value
            # hash; NO rounding, NO rtol fallback.
            vals = rows and schema and a.equals(b)
            detail = ""
            if rows and schema and not vals:
                dt = [f"{c}:{a[c].dtype}!={b[c].dtype}" for c in a.columns
                      if a[c].dtype != b[c].dtype]
                detail = f" dtypes[{','.join(dt)}]" if dt else " value-diff"
            results[name] = ("PASS" if (rows and schema and vals) else
                             f"FAIL rows={len(a)}/{len(b)} schema={schema} "
                             f"vals={vals}{detail}")
            print(f"{name}: {results[name]}", flush=True)
        except Exception as ex:  # noqa: BLE001
            results[name] = f"ERROR {type(ex).__name__}: {ex}"
            print(f"{name}: {results[name]}", flush=True)
    ray.shutdown()
    bad = {k: v for k, v in results.items()
           if v not in ("PASS", "no_oracle")}
    print(json.dumps({"pass": sum(1 for v in results.values() if v == 'PASS'),
                      "no_oracle": sum(1 for v in results.values() if v == 'no_oracle'),
                      "bad": bad}))


if __name__ == "__main__":
    main()
