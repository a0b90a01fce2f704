"""Golden per-document digests of ``extract_batch`` output.

The committed ``kernel_golden.json`` holds one sha1 per document over its
output row: layout, ``n_rows``, ``n_cols``, error and the ordered
``(kind, text, media_ref, offset)`` tuples of ``spans`` then
``spans_numeric``. Three inputs:

* ``dynamic``: 500 ``corpus_table`` docs (seed 42) under layout ``dynamic``;
* ``mixed``: 200 docs (seed 7) with a per-row ``layout`` column cycling
  generic / financial / professional / dynamic / empty (the config's);
* ``crop``: the ``mixed`` docs again under one ``table_bbox`` crop.

The snapshot is the oracle that needs no reference checkout: a change to
any layout kernel that alters one cell of one document fails it.
Regenerate (only for an intended output change) with
``python tests/test_kernel_golden.py``; it rewrites only the ``inputs``
section (:func:`write_section`).
"""

from __future__ import annotations

import hashlib
import json
import os

import pyarrow as pa

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernel_golden.json")
ROW_LAYOUTS = ("generic", "financial", "professional", "dynamic", "")
CROP_BBOX = (150, 150, 1500, 1800)


def _inputs():
    """``{name: (table, LayoutConfig)}`` of the three golden inputs."""
    from ocr_table_extractor_to_csv_ray.config import LayoutConfig
    from ocr_table_extractor_to_csv_ray.sources.synthetic import corpus_table
    mixed = corpus_table(200, seed=7)
    mixed = mixed.append_column(
        "layout", pa.array([ROW_LAYOUTS[i % len(ROW_LAYOUTS)] for i in range(mixed.num_rows)]))
    return {
        "dynamic": (corpus_table(500, seed=42), LayoutConfig(layout="dynamic")),
        "mixed": (mixed, LayoutConfig(layout="dynamic")),
        "crop": (mixed, LayoutConfig(layout="dynamic", table_bbox=CROP_BBOX)),
    }


def _span_tuples(spans):
    return [(s["kind"], s["text"], s["media_ref"], s["offset"]) for s in spans or []]


def doc_digests(out: pa.Table) -> dict:
    """``{doc_id: sha1}`` of each output row of ``extract_batch``."""
    rows = out.to_pylist()
    return {
        r["doc_id"]: hashlib.sha1(json.dumps([
            r["layout"], r["n_rows"], r["n_cols"], r["error"],
            _span_tuples(r["spans"]), _span_tuples(r.get("spans_numeric")),
        ]).encode()).hexdigest()
        for r in rows
    }


def compute() -> dict:
    from ocr_table_extractor_to_csv_ray.stages.extract import extract_batch
    return {name: doc_digests(extract_batch(tbl, cfg)) for name, (tbl, cfg) in _inputs().items()}


def write_section(path: str, key: str, value: dict, what: str) -> None:
    """Replace section ``key`` of the golden file ``path`` with ``value``
    plus a provenance line naming ``what`` and the checked-out sha; every
    other section is kept as it is."""
    import subprocess
    sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                         text=True, cwd=os.path.dirname(path)).stdout.strip()
    golden = {}
    if os.path.exists(path):
        with open(path) as fh:
            golden = json.load(fh)
    golden[key] = dict(value, provenance=f"{what} of the engine at {sha or 'unknown'}")
    with open(path, "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote the {key} section of {path}")


def test_kernel_golden():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    for name, got in compute().items():
        want = golden["inputs"][name]
        diff = sorted(d for d in want if got.get(d) != want[d])
        assert not diff and len(got) == len(want), (
            f"{name}: {len(diff)} docs differ from the snapshot, first {diff[:5]}")


if __name__ == "__main__":
    import sys
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    write_section(GOLDEN, "inputs", compute(), "extract_batch output")
