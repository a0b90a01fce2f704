"""The ``transformers`` pipeline (reference entry point 1, layout
``transformers`` — ``layout_transformers.py:446-565``):

    read corpus
      └─ map_batches(OcrStage, concurrency=…)        # media → word spans (actor pool)
      └─ map_batches(LayoutScorerStage, concurrency=…) # model labels (actor pool)
      └─ map_batches(TransformersExtractStage)         # 3-level fallback compose

Both stateful stages are actor pools (A1/A2): engine/model setup once
per actor, sized by ``EngineConfig.{ocr,model}_{concurrency,batch_size}``.
"""

from __future__ import annotations

from typing import Optional

from ..config import EngineConfig, LayoutConfig
from ..stages.model import LayoutScorerStage, TransformersExtractStage
from ..stages.ocr import OcrStage, PdfRasterizeStage


def _pool_sizes(cfg: EngineConfig) -> tuple:
    """Cap the two actor pools so they never reserve every CPU — a pool
    that takes the whole cluster starves the read/write stages and the
    streaming pipeline deadlocks (ray_guide: size ``concurrency ×
    num_cpus`` to leave headroom)."""
    import ray
    try:
        avail = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    except Exception:
        avail = 8
    budget = max(2, (avail * 2) // 3)          # at most 2/3 of CPUs in pools
    # concurrency 0 = auto: ~1/3 of the budget each (measured sweet spot
    # on 32 CPUs: 6/6 halves wall vs 4/2; 10/10 regresses on startup)
    ocr_req = cfg.ocr_concurrency or max(1, budget // 3)
    model_req = cfg.model_concurrency or max(1, budget // 3)
    ocr = max(1, min(ocr_req, budget // 2))
    model = max(1, min(model_req, budget - ocr))
    return ocr, model


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
    ocr_n, model_n = _pool_sizes(cfg)

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
