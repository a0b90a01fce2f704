"""Entry point 3 — table-conformance evaluation (reference
``evaluation.py:76-142``, AG6), lifted from one CSV pair to a corpus.

Per document pair (grain of the reference): pad both grids (header row
+ body) to identical shape with ``""`` (``evaluation.py:86-100``), count
exact-equal cells, and collect per-column numeric residuals
(``""``/``"-"`` → NaN, both-valid mask, ``evaluation.py:46-50``).

Corpus lift (the one truly corpus-wide aggregation in the engine):
partial sums per document — matched, total, and per column ``(n, Σe²,
Σt, Σt²)`` — combined by a tiny ``groupby(column)`` + global sum.
text_accuracy = Σmatched/Σtotal; per-column MSE/RMSE exactly as the
reference; R² uses the pooled-column mean (equivalent to running the
reference once on the concatenated column).

The ref↔pred pairing (J3) is a ``doc_id`` equijoin done as one
``groupby(doc_id)`` over the tagged union of both sides — the documents
never co-materialize.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..core.spans import span_column_grids


def _pad_pair(ga: List[List[str]], gb: List[List[str]]) -> Tuple[np.ndarray, np.ndarray]:
    """Pad two string grids to a common (rows, cols) shape with ``""``."""
    rows = max(len(ga), len(gb))
    cols = max((max((len(r) for r in g), default=0) for g in (ga, gb)), default=0)
    def mat(g):
        m = np.full((rows, cols), "", dtype=object)
        for i, r in enumerate(g):
            for j, c in enumerate(r):
                m[i, j] = (c or "").strip()
        return m
    return mat(ga), mat(gb)


def _coerce(col: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``""``/``"-"`` → NaN; else pandas to_numeric coercion
    (``evaluation.py:46-50``)."""
    cleaned = np.where((col == "") | (col == "-"), None, col)
    numeric = pd.to_numeric(pd.Series(cleaned), errors="coerce")
    mask = ~numeric.isna()
    return numeric.to_numpy(dtype=np.float64), mask.to_numpy()


def grid_pair_partials(ref_grid: Tuple[List[str], List[List[str]]],
                       pred_grid: Tuple[List[str], List[List[str]]],
                       numeric_columns: Optional[Sequence[str]] = None) -> Dict:
    """Per-document partial metrics (mergeable).

    ``numeric_columns`` mirrors the reference's opt-in filter
    (``eval_cli.py --numeric-columns`` / ``evaluation.py:113-116``):
    when given, only columns whose REF header name or positional
    ``col_{idx}`` alias is listed contribute numeric partials; text
    accuracy is unaffected."""
    header = list(ref_grid[0] or [])
    ra = ([list(ref_grid[0])] if ref_grid[0] else []) + [list(r) for r in ref_grid[1]]
    pb = ([list(pred_grid[0])] if pred_grid[0] else []) + [list(r) for r in pred_grid[1]]
    # the reference compares BODY under a header row; CSV read includes
    # the header as column names, so the compared frame is body-only.
    ra, pb = ra[1:] if ra else ra, pb[1:] if pb else pb
    A, B = _pad_pair(ra, pb)
    total = int(A.size)
    matched = int((A == B).sum())
    ncset = set(numeric_columns) if numeric_columns else None
    per_col = []
    for j in range(A.shape[1]):
        if ncset is not None:
            name = header[j] if j < len(header) else ""
            if name not in ncset and f"col_{j}" not in ncset:
                continue
        t, mt = _coerce(A[:, j])
        p, mp = _coerce(B[:, j])
        m = mt & mp
        if not m.any():
            continue
        t, p = t[m], p[m]
        e = p - t
        per_col.append({
            "col": j, "n": int(m.sum()),
            "sse": float((e ** 2).sum()),
            "sum_t": float(t.sum()), "sumsq_t": float((t ** 2).sum()),
        })
    return {"matched": matched, "total": total, "per_col": per_col}


def eval_pairs_batch(batch: pa.Table,
                     numeric_columns: Optional[Sequence[str]] = None) -> pa.Table:
    """Batch of ``(doc_id, spans_ref, spans_pred)`` → partial-metric rows
    (one row per (doc, col) plus one col=-1 row carrying cell counts)."""
    out = {"doc_id": [], "col": [], "n": [], "sse": [], "sum_t": [],
           "sumsq_t": [], "matched": [], "total": []}
    ids = batch["doc_id"].to_pylist()
    for doc_id, gr, gp in zip(ids, span_column_grids(batch["spans_ref"]),
                              span_column_grids(batch["spans_pred"])):
        part = grid_pair_partials(gr or ([], []), gp or ([], []),
                                  numeric_columns=numeric_columns)
        out["doc_id"].append(doc_id); out["col"].append(-1)
        out["n"].append(0); out["sse"].append(0.0)
        out["sum_t"].append(0.0); out["sumsq_t"].append(0.0)
        out["matched"].append(part["matched"]); out["total"].append(part["total"])
        for c in part["per_col"]:
            out["doc_id"].append(doc_id); out["col"].append(c["col"])
            out["n"].append(c["n"]); out["sse"].append(c["sse"])
            out["sum_t"].append(c["sum_t"]); out["sumsq_t"].append(c["sumsq_t"])
            out["matched"].append(0); out["total"].append(0)
    return pa.table({k: pa.array(v) for k, v in out.items()})


def pair_by_doc(ref_ds, pred_ds):
    """J3: align two extraction outputs on doc_id without materializing
    either side — tagged union → ``groupby(doc_id).map_groups``."""
    ref_t = ref_ds.select_columns(["doc_id", "spans"]).map_batches(
        lambda t: t.append_column("side", pa.array(["ref"] * t.num_rows)),
        batch_format="pyarrow")
    pred_t = pred_ds.select_columns(["doc_id", "spans"]).map_batches(
        lambda t: t.append_column("side", pa.array(["pred"] * t.num_rows)),
        batch_format="pyarrow")
    both = ref_t.union(pred_t)

    def zip_group(g: pa.Table) -> pa.Table:
        # stay in Arrow: list<struct> columns don't survive pandas round-trips
        span_t = g.schema.field("spans").type

        def first(side: str):
            i = pc.index(g["side"], side).as_py()
            return g["spans"].take([i]) if i >= 0 else pa.array([[]], type=span_t)

        return pa.table({
            "doc_id": g["doc_id"].slice(0, 1),
            "spans_ref": first("ref"),
            "spans_pred": first("pred"),
        })

    return both.groupby("doc_id").map_groups(zip_group, batch_format="pyarrow")


def combine_partials_batch(batch: pa.Table) -> pa.Table:
    """Per-batch combine of ``eval_pairs_batch`` partials: drop ``doc_id``
    and sum per ``col`` (the merge math is associative), so the driver
    collects O(n_blocks × n_cols) rows instead of O(n_docs)."""
    pdf = batch.select(["col", "n", "sse", "sum_t", "sumsq_t",
                        "matched", "total"]).to_pandas()
    g = pdf.groupby("col", as_index=False, sort=True).sum()
    return pa.Table.from_pandas(g, preserve_index=False)


def evaluate_corpus(ref_ds, pred_ds,
                    numeric_columns: Optional[Sequence[str]] = None) -> Dict:
    """Corpus-level TableEvaluation: the final (tiny) reduce on the
    driver over per-column partial rows.

    Scale note: ``eval_pairs_batch`` emits one row per doc plus one per
    (doc, col); ``combine_partials_batch`` shrinks that to ≤ n_cols+1
    rows per block BEFORE anything crosses to the driver, so the
    collected frame is O(n_blocks × n_cols), independent of corpus size.
    """
    import functools
    paired = pair_by_doc(ref_ds, pred_ds)
    partials = paired.map_batches(
        functools.partial(eval_pairs_batch, numeric_columns=numeric_columns),
        batch_format="pyarrow") \
                     .map_batches(combine_partials_batch, batch_format="pyarrow")
    pdf = partials.to_pandas()  # ≤ n_blocks × (n_cols+1) rows

    matched = int(pdf["matched"].sum())
    total = int(pdf["total"].sum())
    by_col = []
    overall = {"n": 0, "sse": 0.0, "sum_t": 0.0, "sumsq_t": 0.0}
    for col, g in pdf[pdf["col"] >= 0].groupby("col"):
        n = int(g["n"].sum())
        sse = float(g["sse"].sum())
        sum_t = float(g["sum_t"].sum())
        sumsq_t = float(g["sumsq_t"].sum())
        mse = sse / n if n else float("nan")
        denom = sumsq_t - sum_t * sum_t / n if n else 0.0
        r2 = float("nan") if denom == 0 else 1.0 - sse / denom
        by_col.append({"column": f"col_{col}", "mse": mse,
                       "rmse": math.sqrt(mse) if n else float("nan"),
                       "r2": r2, "n": n})
        for k, v in (("n", n), ("sse", sse), ("sum_t", sum_t), ("sumsq_t", sumsq_t)):
            overall[k] += v
    n = overall["n"]
    if n:
        mse = overall["sse"] / n
        denom = overall["sumsq_t"] - overall["sum_t"] ** 2 / n
        num_overall = {"column": "overall", "mse": mse, "rmse": math.sqrt(mse),
                       "r2": float("nan") if denom == 0 else 1.0 - overall["sse"] / denom,
                       "n": n}
    else:
        num_overall = None
    return {
        "text_accuracy": matched / total if total else 0.0,
        "matched_cells": matched, "total_cells": total,
        "numeric_by_column": by_col, "numeric_overall": num_overall,
    }
