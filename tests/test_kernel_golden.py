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

The ``locate`` section pins two hand-built documents whose output turns
on an interval-location tie that the corpus never hits (:func:`_locate_input`);
``python tests/test_kernel_golden.py locate`` rewrites only it.
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


def _word(text, x1, y1, x2, y2):
    from ocr_table_extractor_to_csv_ray.core.spans import encode_bbox_ref
    return {"kind": "word", "text": text, "media_ref": encode_bbox_ref(1, x1, y1, x2, y2),
            "offset": 0}


def _numbers(y, *centres):
    return [_word(str(100 + 7 * k + y), c - 10, y, c + 10, y + 8) for k, c in enumerate(centres)]


def _locate_input():
    """Two documents where ``locate``'s tie rules decide a cell.

    ``dynamic-overlap`` (layout ``dynamic``): per-rank medians 300, 500,
    500 give the padded, overlapping columns (276, 424), (376, 524) and
    (476, 524). The numeric span at x 800 and the year span "FY 2019"
    (x ~900) lie right of all three, equally near the right edges of the
    last two: nearest boundary gives the first of them, nearest centre
    the last. Sixty 1-px label tokens keep each line's adaptive gap at
    its floor of 12, so the numbers stay separate spans.

    ``gridpro-cut`` (layout ``professional``): two column blocks with an
    empty valley between x 200 and 300 cut the contiguous intervals at
    249; a zero-width token at x 249 is centred exactly on that cut and
    goes to the right column under ``closed="left"``.
    """
    from ocr_table_extractor_to_csv_ray.sources.synthetic import SPAN_TYPE

    def label(y):
        return [_word("a", 2 * i, y, 2 * i + 1, y + 8) for i in range(60)]

    dyn = label(100) + [_word("FY", 870, 100, 890, 108), _word("2019", 895, 100, 935, 108)]
    for y in range(110, 190, 10):
        dyn += label(y) + _numbers(y, 500)
    dyn += label(190) + _numbers(190, 500, 800)
    for y in range(300, 500, 40):
        dyn += label(y) + _numbers(y, 300, 500, 700)

    pro = []
    for k, y in enumerate(range(100, 160, 20)):
        pro += [_word(f"left{k}", 100, y, 200, y + 8), _word(f"right{k}", 300, y, 400, y + 8)]
    pro.append(_word("cut", 249, 140, 249, 148))
    for i, s in enumerate(dyn + pro):
        s["offset"] = i
    return pa.table({"doc_id": ["dynamic-overlap", "gridpro-cut"],
                     "spans": pa.array([dyn, pro], pa.list_(SPAN_TYPE)),
                     "layout": ["dynamic", "professional"]})


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


def compute_locate() -> dict:
    from ocr_table_extractor_to_csv_ray.config import LayoutConfig
    from ocr_table_extractor_to_csv_ray.stages.extract import extract_batch
    return doc_digests(extract_batch(_locate_input(), LayoutConfig(layout="dynamic")))


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


def test_locate_golden():
    with open(GOLDEN) as fh:
        want = json.load(fh)["locate"]
    got = compute_locate()
    assert got == {d: want[d] for d in got} and len(want) == len(got) + 1, (
        "a locate tie in the dynamic column assignment, its year headers or "
        "gridpro's token → column step changed")


if __name__ == "__main__":
    import sys
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    if sys.argv[1:] == ["locate"]:
        write_section(GOLDEN, "locate", compute_locate(), "extract_batch output")
    else:
        write_section(GOLDEN, "inputs", compute(), "extract_batch output")
