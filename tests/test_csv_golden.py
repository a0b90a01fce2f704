"""Golden per-document digests of the CSV files ``write_csv_batch`` writes.

The ``csv`` section of ``kernel_golden.json`` holds, for the ``dynamic``
(500 docs) and ``mixed`` (200 docs) inputs of ``test_kernel_golden.py``,
one sha1 per document over the bytes of ``{doc_id}.csv``, then
``b"\\x1d"``, then the bytes of ``{doc_id}.num.csv`` (nothing when that
file is not written). It pins the export byte for byte: BOM, quoting,
header row, numeric variant and which files exist.

Regenerate (only for an intended output change) with
``python tests/test_csv_golden.py``; it rewrites only the ``csv`` section.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

CSV_INPUTS = ("dynamic", "mixed")


def csv_digests(out, tmp: str) -> dict:
    """``{doc_id: sha1}`` of the CSV files written for ``out``."""
    from ocr_table_extractor_to_csv_ray.sinks.csv_sink import write_csv_batch
    write_csv_batch(out, tmp)
    got = {}
    for doc_id in out["doc_id"].to_pylist():
        h = hashlib.sha1()
        with open(os.path.join(tmp, f"{doc_id}.csv"), "rb") as fh:
            h.update(fh.read())
        h.update(b"\x1d")
        num = os.path.join(tmp, f"{doc_id}.num.csv")
        if os.path.exists(num):
            with open(num, "rb") as fh:
                h.update(fh.read())
        got[doc_id] = h.hexdigest()
    return got


def compute() -> dict:
    from ocr_table_extractor_to_csv_ray.stages.extract import extract_batch
    from tests.test_kernel_golden import _inputs
    inputs = _inputs()
    got = {}
    for name in CSV_INPUTS:
        tbl, cfg = inputs[name]
        with tempfile.TemporaryDirectory() as tmp:
            got[name] = csv_digests(extract_batch(tbl, cfg), tmp)
    return got


def test_csv_golden():
    from tests.test_kernel_golden import GOLDEN
    with open(GOLDEN) as fh:
        golden = json.load(fh)["csv"]
    got = compute()
    for name in CSV_INPUTS:
        want = golden[name]
        diff = sorted(d for d in want if got[name].get(d) != want[d])
        assert not diff and len(got[name]) == len(want), (
            f"{name}: {len(diff)} docs' CSV bytes differ from the snapshot, first {diff[:5]}")


if __name__ == "__main__":
    import sys
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from tests.test_kernel_golden import GOLDEN, write_section
    write_section(GOLDEN, "csv", compute(), "write_csv_batch files")
