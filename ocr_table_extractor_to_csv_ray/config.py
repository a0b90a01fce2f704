"""Engine configuration.

Every tunable knob of the reference engine, collected in one place
(reference: ``main.py:57-69``, ``columns.py:6,38``, ``rows.py:44,51,84``,
``column_model.py:85-88``, ``layout_transformers.py:25-26``,
``ocr_utils.py:15-17``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple


@dataclass(frozen=True)
class LayoutConfig:
    """Per-run knobs of the table-reconstruction kernels."""

    layout: str = "dynamic"                 # generic | dynamic | financial | professional | transformers
    table_bbox: Optional[Tuple[int, int, int, int]] = None   # crop (parser.py:47-48)
    expected_n_cols: Optional[int] = None   # force column count (columns.py:51-70)
    header_regexes: Optional[Tuple[str, ...]] = None         # rows.py:148-160

    # generic layout (columns.py / rows.py)
    min_col_width: int = 25                 # columns.py:6
    col_valley_px: int = 5                  # columns.py:38 (gap run length must exceed this)
    row_valley_px: int = 2                  # rows.py:44
    row_min_height: int = 5                 # rows.py:51
    # financial/dynamic merge (rows.py:84)
    row_merge_factor: float = 1.30
    # dynamic column model (column_model.py:85-88)
    min_sep_px: int = 35
    cut_quantile: float = 90.0
    pad_px: int = 24
    max_numeric_cols: int = 4               # column_model.py:132-134
    span_gap_default: int = 18              # assign_financial.py:20 / column_model.py:27
    # professional layout (grid_builder.py)
    line_tolerance_px: int = 5              # grid_builder.py:15
    header_text_threshold: float = 0.7      # grid_builder.py:65
    # transformers layout (layout_transformers.py:25-26)
    ocr_min_confidence: int = 60
    max_model_columns: int = 6
    ocr_lang: str = "spa"
    ocr_psm: int = 6
    ocr_oem: int = 3


@dataclass(frozen=True)
class EngineConfig:
    """Ray-level execution knobs for the distributed pipeline."""

    batch_size: int = 256                   # documents per batch in geometry stages
    num_partitions: int = 0                 # 0 => let Ray pick read parallelism
    partition_field: str = "part_id"        # hash(doc_id) % num_output_partitions
    num_output_partitions: int = 32         # resumable-output granularity
    oversize_token_threshold: int = 200_000 # no engine stage reads it; perfbench sets it
    skew_guard: bool = True                 # transformers: page-split OCR of media-heavy docs
    ocr_pages_per_shard: int = 16           # max media spans per OCR shard
    ocr_concurrency: int = 0                # OCR actor pool size (0 = auto: CPU-scaled)
    # batch sizes trade per-call overhead against worker heap: these
    # defaults suit ref-based media rows; drop to 8-16 when rows carry
    # decoded page images (batch × concurrency × image_bytes must fit)
    ocr_batch_size: int = 64
    model_concurrency: int = 0              # layout-model actor pool size (0 = auto)
    model_batch_size: int = 32
    layout: LayoutConfig = field(default_factory=LayoutConfig)
