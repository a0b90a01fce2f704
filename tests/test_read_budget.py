"""Each query in ``__ray_entry__.READ_BUDGETS`` runs its Parquet read
exactly as often as it declares, counted by ``tests/read_counter.py``
over a small generated documents + embeddings schema that holds
duplicates for every near-dup method."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from read_counter import count_reads


def _write_schema(path) -> None:
    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(400)]
    base = [" ".join(rng.choice(vocab, 60)) for _ in range(30)]
    texts = base + base[:8] + [t + " tail" for t in base[8:12]]
    pq.write_table(pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                             "text": pa.array(texts)}),
                   os.path.join(path, "documents.parquet"))
    vecs = rng.standard_normal((30, 16)).astype(np.float32)
    vecs = np.concatenate([vecs, vecs[:6]])
    pq.write_table(pa.table({"vec_id": pa.array(range(len(vecs)), pa.int64()),
                             "embedding": pa.array(vecs.tolist(),
                                                   pa.list_(pa.float32()))}),
                   os.path.join(path, "embeddings.parquet"))


def test_dedup_queries_read_as_budgeted(ray_session, tmp_path):
    import __ray_entry__ as E

    _write_schema(str(tmp_path))
    queries = E.queries()
    for name, budget in E.READ_BUDGETS.items():
        with count_reads() as reads:
            out = queries[name](str(tmp_path)).to_pandas()
        (path, n), = reads.items()
        assert n == budget, (name, n)
        # duplicates were found, so every pass of the budget ran
        assert len(out) < pq.read_metadata(path).num_rows, name
