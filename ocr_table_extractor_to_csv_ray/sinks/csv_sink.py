"""Per-document CSV export (K1/K2/K3/K4).

Reference fidelity:
- ``utf-8-sig`` encoding, header row then body rows (``exporters.py:7-12``)
- numeric variant ``foo.num.csv`` sibling naming (``main.py:32-37``)
  written only for the dynamic layout's ``spans_numeric`` column
  (``main.py:134-137``)
- empty documents still produce a (header-less, empty) file —
  ``_write_empty_csv`` (``main.py:40-43``)

Ray mapping: a write KERNEL inside ``map_batches`` — each task writes
the CSVs for its batch's documents under ``out_dir`` and passes the
batch through (so the stage composes with further consumers). File
names are ``{doc_id}.csv`` — collision-free because ``doc_id`` is
unique, so concurrent tasks never write the same path.

``core.spans.span_column_grids`` decodes each span column in one
columnar pass (no Python dict per span); ``csv.writer`` stays the one
place the quoting rules live. Traced on ``mixed_layouts_tail`` (1000
docs, 2000 files, 1-vCPU VM) the sink takes 0.4–0.6 ms/doc, mostly the
per-span grid fold and one ``open`` per file.
"""

from __future__ import annotations

import csv
import io
import os
from typing import Sequence

import pyarrow as pa

from ..core.spans import span_column_grids


def numeric_variant_path(csv_path: str) -> str:
    """``foo.csv`` → ``foo.num.csv`` (``main.py:32-37``)."""
    base, ext = os.path.splitext(csv_path)
    return f"{base}.num{ext}"


def grid_to_csv_bytes(header: Sequence[str], rows: Sequence[Sequence[str]]) -> bytes:
    """CSV bytes exactly as ``exporters.rows_to_csv`` writes them:
    utf-8-sig, header row only when non-empty."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    if header:
        w.writerow(header)
    w.writerows(rows)
    return b"\xef\xbb\xbf" + buf.getvalue().encode("utf-8")


def write_csv_batch(batch: pa.Table, out_dir: str,
                    numeric: bool = True) -> pa.Table:
    """Write one ``{doc_id}.csv`` (+ ``.num.csv``) per document row. A
    null ``spans`` row writes an empty file; a null ``spans_numeric``
    row writes no ``.num.csv``."""
    os.makedirs(out_dir, exist_ok=True)
    ids = batch["doc_id"].to_pylist()
    grids = span_column_grids(batch["spans"])
    numeric_grids = (span_column_grids(batch["spans_numeric"])
                     if numeric and "spans_numeric" in batch.column_names
                     else [None] * len(ids))
    for doc_id, grid, num_grid in zip(ids, grids, numeric_grids):
        path = os.path.join(out_dir, f"{doc_id}.csv")
        with open(path, "wb") as fh:
            fh.write(grid_to_csv_bytes(*(grid or ((), ()))))
        if num_grid is not None:
            with open(numeric_variant_path(path), "wb") as fh:
                fh.write(grid_to_csv_bytes(*num_grid))
    return batch


def export_csvs(ds, out_dir: str, numeric: bool = True) -> int:
    """Consume an extraction-output Dataset into per-doc CSV files;
    returns the number of documents written."""
    import functools
    return (ds.map_batches(functools.partial(write_csv_batch, out_dir=out_dir,
                                             numeric=numeric),
                           batch_format="pyarrow")
              .count())


def write_eval_report_csv(evaluation: dict, output_path: str) -> None:
    """K6: metrics CSV in the reference's report shape
    (``evaluation.py:145-158``)."""
    os.makedirs(os.path.dirname(output_path) or ".", exist_ok=True)
    with open(output_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["Metric", "Column", "Value", "N"])
        w.writerow(["text_accuracy", "-", f"{evaluation['text_accuracy']:.4f}",
                    evaluation["total_cells"]])
        for m in evaluation["numeric_by_column"]:
            w.writerow(["mse", m["column"], f"{m['mse']:.6f}", m["n"]])
            w.writerow(["rmse", m["column"], f"{m['rmse']:.6f}", m["n"]])
            w.writerow(["r2", m["column"], f"{m['r2']:.6f}", m["n"]])
        ov = evaluation.get("numeric_overall")
        if ov:
            w.writerow(["overall_mse", ov["column"], f"{ov['mse']:.6f}", ov["n"]])
            w.writerow(["overall_rmse", ov["column"], f"{ov['rmse']:.6f}", ov["n"]])
            w.writerow(["overall_r2", ov["column"], f"{ov['r2']:.6f}", ov["n"]])
