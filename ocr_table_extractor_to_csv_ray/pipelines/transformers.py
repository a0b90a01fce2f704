"""The ``transformers`` pipeline (reference entry point 1, layout
``transformers`` — ``layout_transformers.py:446-565``):

    read corpus
      └─ map_batches(OcrStage, concurrency=…)        # media → word spans (actor pool)
      └─ map_batches(LayoutScorerStage, concurrency=…) # model labels (actor pool)
      └─ map_batches(TransformersExtractStage)         # 3-level fallback compose

Both stateful stages are actor pools (A1/A2): engine/model setup once
per actor, batches of ``EngineConfig.{ocr,model}_batch_size``, the two
pools sized together by the one rule, ``stages.pool_size``.
"""

from __future__ import annotations

from typing import Optional

from ..config import EngineConfig, LayoutConfig
from ..stages import pool_size
from ..stages.model import LayoutScorerStage, TransformersExtractStage
from ..stages.ocr import OcrStage, PdfRasterizeStage


UNBOUNDED_MEDIA = 1 << 62


def media_stat_bound(stats: Optional[dict]) -> Optional[int]:
    """Post-rasterize media bound from a ``corpus_stats`` sidecar, or
    None (→ streaming probe). pdf media fan out to an unbounded page
    count, so a pdf-bearing corpus returns :data:`UNBOUNDED_MEDIA` —
    the guard engages directly, still with no probe pass."""
    if not stats:
        return None
    if stats.get("has_pdf_media"):
        return UNBOUNDED_MEDIA
    return stats.get("max_media_per_doc")


def build_transformers_ds(ds, cfg: Optional[EngineConfig] = None,
                          known_max_media: Optional[int] = None):
    """``known_max_media`` is the manifest stat (max media spans per
    doc, ``corpus_stats``): when provided the skew guard decides
    without its probe pass — which here would re-execute the rasterize
    stage a second time."""
    cfg = cfg or EngineConfig(layout=LayoutConfig(layout="transformers"))
    lcfg = cfg.layout
    # 6/6 is the measured sweet spot on 32 CPUs: it halves the wall time
    # of 4/2, and 10/10 regresses on actor startup
    ocr_n, model_n = pool_size(6, 6)

    # decide the guard BEFORE attaching the rasterizer: the probe (when
    # no manifest stat exists) must scan the RAW stream — a
    # post-rasterize probe would execute the rasterizer twice
    guard = False
    if cfg.skew_guard:
        if known_max_media is not None:
            guard = known_max_media > cfg.ocr_pages_per_shard
        else:
            from ..stages.skew import media_probe
            max_media, has_pdf = media_probe(ds)
            guard = has_pdf or max_media > cfg.ocr_pages_per_shard

    # pdf:// media fan out to per-page img:// spans before OCR
    # (vectorized pass-through when a batch has none)
    rasterizer = PdfRasterizeStage()
    ds = ds.map_batches(lambda t: rasterizer(t), batch_format="pyarrow",
                        batch_size=cfg.ocr_batch_size)

    def _ocr(d):
        return d.map_batches(
            OcrStage, batch_format="pyarrow",
            fn_constructor_kwargs={"cfg": lcfg},
            batch_size=cfg.ocr_batch_size,
            concurrency=ocr_n,
        )

    if guard:
        # split AFTER rasterize (a 10k-page pdf is one span until its
        # pages exist) so the OCR pool sees ≤ ocr_pages_per_shard page
        # images per shard; reassemble BEFORE the scorer (the model
        # consumes whole documents).
        from ..core.spans import KIND_MEDIA
        from ..stages.skew import with_skew_guard
        ds = with_skew_guard(ds, _ocr, max_spans=cfg.ocr_pages_per_shard,
                             count_kind=KIND_MEDIA)
    else:
        ds = _ocr(ds)
    ds = ds.map_batches(
        LayoutScorerStage, batch_format="pyarrow",
        fn_constructor_kwargs={"cfg": lcfg},
        batch_size=cfg.model_batch_size,
        concurrency=model_n,
    )
    # the compose stage is stateless geometry — plain task, not a pool
    stage = TransformersExtractStage(lcfg)
    return ds.map_batches(
        lambda t: stage(t), batch_format="pyarrow",
        batch_size=cfg.batch_size,
    )
