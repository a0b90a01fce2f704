"""Entry point 2 — teacher-labeled dataset generation (reference
``dataset_cli.py`` flow, SURVEY.md §3.2), Ray-Data-first:

    read corpus → exact dedup by doc_id (A4, ``dataset_cli.py:189-195``)
      → map_batches(ExampleBuilder) → write_json (JSONL, one example/line)

The reference dedups (image, hocr) path pairs; here the corpus key is
``doc_id``. Dedup is a hash-partitioned ``groupby.map_groups`` first-
wins — the only shuffle, moving just the key column until the winner
set is known.
"""

from __future__ import annotations

import functools
from typing import Optional

import pyarrow as pa

from ..core.databuild import build_example
from ..core.doc import TokenSOA
from ..stages.extract import decode_token_batch


def build_examples_batch(batch: pa.Table, expected_n_cols=None,
                         header_regexes=None, max_columns: int = 6) -> pa.Table:
    """Arrow batch of documents → Arrow batch of LayoutLM examples.

    Documents the teacher cannot label (no tokens/lines/columns —
    reference raises, ``dataset_builder.py:183-196``) come out with
    ``error`` set instead of poisoning the block (SURVEY.md §4.2)."""
    word_offsets, toks, has_lid = decode_token_batch(batch["spans"])
    doc_ids = batch["doc_id"].to_pylist()
    rows = []
    for i in range(batch.num_rows):
        sl = slice(word_offsets[i], word_offsets[i + 1])
        doc = TokenSOA(text=toks.text[sl], page=toks.page[sl],
                       x1=toks.x1[sl], y1=toks.y1[sl],
                       x2=toks.x2[sl], y2=toks.y2[sl],
                       line_id=toks.line_id[sl] if has_lid[sl].any() else None)
        ex = build_example(str(doc_ids[i]), doc,
                           expected_n_cols=expected_n_cols,
                           header_regexes=header_regexes,
                           max_columns=max_columns)
        if ex is None:
            rows.append({"doc_id": str(doc_ids[i]), "words": [], "bboxes": [],
                         "labels": [], "row_ids": [], "col_ids": [],
                         "is_header": [], "table_header": [], "table_rows": [],
                         "n_rows": 0, "n_cols": 0, "error": "no_tokens_or_columns"})
        else:
            # NOT dataclasses.asdict — that deep-copies every nested list
            # (profiled 2/3 of this stage); the Example is ours to reference
            rows.append({
                "doc_id": ex.doc_id, "words": ex.words, "bboxes": ex.bboxes,
                "labels": ex.labels, "row_ids": ex.row_ids,
                "col_ids": ex.col_ids, "is_header": ex.is_header,
                "table_header": ex.table_header, "table_rows": ex.table_rows,
                "n_rows": ex.n_rows, "n_cols": ex.n_cols, "error": "",
            })
    # table_rows is list<list<string>> — keep Arrow-native
    schema = pa.schema([
        ("doc_id", pa.string()),
        ("words", pa.list_(pa.string())),
        ("bboxes", pa.list_(pa.list_(pa.int64()))),
        ("labels", pa.list_(pa.string())),
        ("row_ids", pa.list_(pa.int64())),
        ("col_ids", pa.list_(pa.int64())),
        ("is_header", pa.list_(pa.bool_())),
        ("table_header", pa.list_(pa.string())),
        ("table_rows", pa.list_(pa.list_(pa.string()))),
        ("n_rows", pa.int64()),
        ("n_cols", pa.int64()),
        ("error", pa.string()),
    ])
    return pa.Table.from_pylist(rows, schema=schema)


def dedup_first_wins(ds, key: str = "doc_id"):
    """A4: cross-document exact dedup, one row per key.

    The naive ``groupby(key).map_groups(first)`` sorts the FULL payload
    all-to-all even when every key is unique — at corpus scale that is
    the whole dataset through the shuffle for nothing. Instead: a
    keys-only ``groupby.count`` finds the (usually empty) duplicate-key
    set; no duplicates → the stream passes through untouched; otherwise
    only duplicate-key rows shuffle while the rest bypass. Arrow
    batches throughout — ``list<struct>`` columns don't survive a
    pandas round-trip."""
    import pyarrow.compute as pc
    import ray

    counts = ds.select_columns([key]).groupby(key).count()
    cnt_col = [c for c in counts.schema().names if c != key][0]
    dup = counts.map_batches(
        lambda t: t.filter(pc.greater_equal(t[cnt_col], pa.scalar(2))),
        batch_format="pyarrow").select_columns([key]).to_pandas()
    if len(dup) == 0:
        return ds
    ref = ray.put(pa.array(dup[key]))

    def _normal(t: pa.Table) -> pa.Table:
        return t.filter(pc.invert(pc.is_in(t[key], value_set=ray.get(ref))))

    def _dups(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t[key], value_set=ray.get(ref)))

    def first(g: pa.Table) -> pa.Table:
        return g.sort_by(key).slice(0, 1)

    deduped = (ds.map_batches(_dups, batch_format="pyarrow")
               .groupby(key).map_groups(first, batch_format="pyarrow"))
    return ds.map_batches(_normal, batch_format="pyarrow").union(deduped)


def build_dataset(ds, out_dir: Optional[str] = None, expected_n_cols=None,
                  header_regexes=None, max_columns: int = 6, dedup: bool = True,
                  ids_known_unique: bool = False):
    """Corpus Dataset → labeled-example Dataset (optionally JSONL-sunk).

    ``ids_known_unique``: manifest fact (``corpus_stats()['doc_ids_unique']``)
    that every ``doc_id`` occurs once — the dedup step then costs
    nothing instead of a keys-only probe."""
    if dedup and not ids_known_unique:
        ds = dedup_first_wins(ds)
    out = ds.map_batches(
        functools.partial(build_examples_batch, expected_n_cols=expected_n_cols,
                          header_regexes=header_regexes, max_columns=max_columns),
        batch_format="pyarrow",
    )
    if out_dir is not None:
        out.write_json(out_dir)   # K5: one JSON object per line
        return out_dir
    return out
