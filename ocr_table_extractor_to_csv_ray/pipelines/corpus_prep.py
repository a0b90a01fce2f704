"""End-to-end corpus preparation: the composed training-data pipeline
that the individual ``functions/`` operators exist for.

    documents ──▶ PII scrub (vectorized RE2, zero shuffle)
              ──▶ quality features + composite score (actor pool)
              ──▶ quality gate (streaming filter)
              ──▶ temperature resampling of the language mixture
                  (one TINY groupby for stratum counts, then a
                  broadcast content-hash filter)
              ──▶ per-language corpus report (partial per-batch
                  aggregation, small global groupby)

Everything streams: the only all-to-all is the stratum-count groupby
whose output is one row per language, and the final report groupby over
pre-aggregated per-batch partials. At 100 TB the pipeline is
read-bound — no stage materializes the corpus.

Each stage's determinism contract (RE2 kernels, IEEE-exact score
formula, md5-threshold sampling) composes, so the WHOLE pipeline is
hash-exactly SQL-checkable — see ``corpus_prep`` in
``__ray_entry__.py``.
"""

from __future__ import annotations

import functools

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.pii import pii_scrub_batch
from ..functions.sampling import temperature_sample
from ..functions.textstats import QualityStage
from ..stages import pool_size


def prep_corpus(ds, quality_min: float = 0.5, alpha: float = 0.5,
                stratum_column: str = "lang", id_column: str = "doc_id",
                quality_concurrency: int | None = None,
                checkpoint_dir: str | None = None):
    """Run the full prep chain; returns the per-language report dataset
    ``(lang, n_docs, total_tokens)`` over the surviving sample.

    ``temperature_sample`` consumes its input twice (stratum counts,
    then the filter), so by default the scrub+quality chain re-executes
    for the counts pass — recompute-not-materialize, the streaming
    default. Pass ``checkpoint_dir`` to spill the (much smaller) gated
    ``(id, stratum, n_tokens)`` projection to parquet once and feed both
    passes from it — the same escape hatch ``kmeans_embeddings`` uses
    for its cross-iteration scan.

    ``quality_concurrency`` is the quality actor pool's request
    (default 8), capped by ``stages.pool_size`` so the read and task
    stages keep CPUs."""

    scrubbed = ds.map_batches(
        functools.partial(pii_scrub_batch, id_column=id_column),
        batch_format="pyarrow")

    def _to_text(t: pa.Table) -> pa.Table:
        return t.rename_columns(
            [("text" if c == "text_clean" else c) for c in t.column_names])

    scored = (scrubbed.map_batches(_to_text, batch_format="pyarrow")
              .map_batches(QualityStage, batch_format="pyarrow",
                           concurrency=pool_size(quality_concurrency or 8)))

    def _gate(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["quality_score"],
                                         pa.scalar(quality_min)))

    kept = scored.map_batches(_gate, batch_format="pyarrow") \
                 .select_columns([id_column, stratum_column, "n_tokens"])

    if checkpoint_dir is not None:
        import ray.data as rd
        kept.write_parquet(checkpoint_dir)
        kept = rd.read_parquet(checkpoint_dir)

    sampled = temperature_sample(kept, stratum_column=stratum_column,
                                 id_column=id_column, alpha=alpha)

    def _partial(t: pa.Table) -> pa.Table:
        g = t.group_by(stratum_column).aggregate(
            [("n_tokens", "sum"), (id_column, "count")])
        return pa.table({
            stratum_column: g[stratum_column],
            "tokens": pc.cast(g["n_tokens_sum"], pa.int64()),
            "docs": pc.cast(g[f"{id_column}_count"], pa.int64()),
        })

    from ray.data.aggregate import Sum
    return (sampled.map_batches(_partial, batch_format="pyarrow")
            .groupby(stratum_column)
            .aggregate(Sum("docs", alias_name="n_docs"),
                       Sum("tokens", alias_name="total_tokens")))
