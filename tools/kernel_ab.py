"""Interleaved single-process A/B of ``extract_batch`` between two checkouts.

    python tools/kernel_ab.py OLD_CHECKOUT NEW_CHECKOUT [--seed 42] [--docs 3000] [-k 5]
        [--layout dynamic|generic|financial|professional|mixed|transformers]

Both sides time one corpus, ``corpus_table(docs, seed)``, in batches of
``--batch`` docs; each side is a child process importing the engine from its
checkout, and the sides take turns for ``k`` rounds. ``--layout mixed`` adds
a per-row ``layout`` column cycling generic/financial/professional/dynamic,
as the ``mixed_layouts_tail`` benchmark does, so one run times that kernel
mix. ``--layout transformers`` times the ``media_ocr`` kernels instead: the
``media_interleaved`` corpus is rasterized and OCR'd once, before any timing,
and each round runs ``LayoutScorerStage`` (32-doc batches) then
``TransformersExtractStage`` (256-doc batches) over it. Prints each side's
min-of-k and median ms/doc and the sha1 of its output (Arrow IPC bytes).
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile

WORKER = r"""
import hashlib, sys, time
sys.path.insert(0, sys.argv[1])
import pyarrow as pa, pyarrow.parquet as pq
from ocr_table_extractor_to_csv_ray.config import LayoutConfig
from ocr_table_extractor_to_csv_ray.stages.extract import extract_batch
from ocr_table_extractor_to_csv_ray.stages.model import LayoutScorerStage, TransformersExtractStage
t, bs, cfg = pq.read_table(sys.argv[2]), int(sys.argv[3]), LayoutConfig(layout=sys.argv[4])
slices = lambda t, size: [t.slice(i, size) for i in range(0, t.num_rows, size)]
if cfg.layout == "transformers":
    scorer, compose = LayoutScorerStage(cfg), TransformersExtractStage(cfg)
    run = lambda: [compose(b) for b in slices(pa.concat_tables([scorer(b) for b in slices(t, 32)]), 256)]
else:
    run = lambda: [extract_batch(b, cfg) for b in slices(t, bs)]
for _ in sys.stdin:
    t0 = time.perf_counter()
    outs = run()
    dt = time.perf_counter() - t0
    h = hashlib.sha1()
    for o in outs:
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, o.schema) as w:
            w.write_table(o)
        h.update(sink.getvalue().to_pybytes())
    print(f"{1000 * dt / t.num_rows:.4f} {h.hexdigest()}", flush=True)
"""


MIXED = ("generic", "financial", "professional", "dynamic")


def ocr_corpus(n_docs: int, seed: int):
    """``n_docs`` ``media_interleaved`` docs after rasterize and OCR."""
    import pyarrow as pa
    from ocr_table_extractor_to_csv_ray.config import LayoutConfig
    from ocr_table_extractor_to_csv_ray.sources.synthetic import CORPUS_SCHEMA, make_doc
    from ocr_table_extractor_to_csv_ray.stages.ocr import OcrStage, PdfRasterizeStage
    t = pa.Table.from_pylist([make_doc(i, seed, "media_interleaved") for i in range(n_docs)],
                             schema=CORPUS_SCHEMA)
    for stage in (PdfRasterizeStage(), OcrStage(cfg=LayoutConfig(layout="transformers"))):
        t = pa.concat_tables([stage(t.slice(i, 64)) for i in range(0, t.num_rows, 64)])
    return t


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old")
    ap.add_argument("new")
    for flag, default in (("--seed", 42), ("--docs", 3000), ("--batch", 500), ("-k", 5)):
        ap.add_argument(flag, type=int, default=default)
    ap.add_argument("--layout", default="dynamic")
    a = ap.parse_args()
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import pyarrow as pa
    import pyarrow.parquet as pq
    from ocr_table_extractor_to_csv_ray.sources.synthetic import corpus_table
    layout = a.layout
    corpus = (ocr_corpus if layout == "transformers" else corpus_table)(a.docs, a.seed)
    if layout == "mixed":
        corpus = corpus.append_column("layout", pa.array(
            [MIXED[i % len(MIXED)] for i in range(corpus.num_rows)], pa.string()))
        layout = "dynamic"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corpus.parquet")
        pq.write_table(corpus, path)
        sides = {name: subprocess.Popen(
            [sys.executable, "-c", WORKER, os.path.abspath(d), path, str(a.batch), layout],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for name, d in (("old", a.old), ("new", a.new))}
        runs = {name: [] for name in sides}
        for k in range(a.k):                 # alternate which side goes first
            for name, p in list(sides.items())[::1 if k % 2 == 0 else -1]:
                p.stdin.write("run\n")
                p.stdin.flush()
                ms, sha = p.stdout.readline().split()
                runs[name].append((float(ms), sha))
        for p in sides.values():
            p.communicate()
    for name, r in runs.items():
        ms = [m for m, _ in r]
        print(f"{name}: min {min(ms):.4f} median {statistics.median(ms):.4f} ms/doc "
              f"sha1 {','.join(sorted({s for _, s in r}))}")
    old, new = ([m for m, _ in runs[s]] for s in ("old", "new"))
    wins = sum(n < o for o, n in zip(old, new))
    print(f"speedup (min) {min(old) / min(new):.3f}x, new won {wins}/{a.k} rounds")


if __name__ == "__main__":
    main()
