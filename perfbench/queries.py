"""The ``functions/`` queries timed in ``headline_dynamic``'s traced run:
six ``__ray_entry__.queries()`` entries over the generated star schema, each
consumed fully and checked against a DuckDB oracle with the canonicalization
of ``tools/run_gate.py`` (columns sorted by name, rows sorted, dtypes kept,
no float rounding).

The oracles are the entries of ``__ray_entry__.oracle_sql()``, except for
``dedup_minhash``: its recorded oracle is a precomputed result for the fixed
test corpora only. The generated documents are either unrelated Zipf texts
(3-shingle Jaccard far below the 0.8 threshold) or exact copies of an
earlier doc, so the survivors are exactly the minimum ``doc_id`` of each
distinct text, which is what the SQL below selects.
"""

from __future__ import annotations

import hashlib
import os

QUERIES = ("graph_components", "dedup_minhash", "dedup_lines",
           "nation_trade_matrix", "revenue_by_segment", "heavy_hitter_terms")
TABLES = ("nation", "supplier", "customer", "orders", "lineitem", "documents")
DEDUP_MINHASH_SQL = "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text"


def frame_digest(df) -> str:
    """sha1 over the canonical frame: column names and dtypes, then the
    row hashes in canonical order."""
    import pandas as pd
    from tools.run_gate import canon
    c = canon(df)
    h = hashlib.sha1(repr([(col, str(c[col].dtype)) for col in c.columns]).encode())
    h.update(pd.util.hash_pandas_object(c, index=False).to_numpy().tobytes())
    return h.hexdigest()


def oracle_digests(in_dir: str) -> dict:
    """``{query: digest of its DuckDB oracle result}``."""
    import duckdb
    import __ray_entry__ as E
    sql = dict(E.oracle_sql(), dedup_minhash=DEDUP_MINHASH_SQL)
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{os.path.join(in_dir, t + '.parquet')}')")
    try:
        return {q: frame_digest(con.execute(sql[q]).df()) for q in QUERIES}
    finally:
        con.close()


def run_query(name: str, in_dir: str):
    """Run one query to completion; returns its result as a frame."""
    import pandas as pd
    import __ray_entry__ as E
    res = E.queries()[name](in_dir)
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    return res if isinstance(res, pd.DataFrame) else pd.DataFrame(res)
