"""Per-document layout dispatch (reference ``main.py:57-163``).

One pure function: tokens in, (header, rows[, numeric rows]) out.  The
Ray pipeline applies this per document inside ``map_batches``; layout is
selectable per run or per row (SURVEY.md §2.11 — the reference's
strategy-pattern extension point).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..config import LayoutConfig
from .assigners import assign_dynamic, assign_financial, assign_words_to_columns
from .colmodel import infer_numeric_columns
from .doc import TokenSOA
from .geometry import adaptive_line_spans, build_lines, estimate_columns
from .gridpro import professional_grid
from .numeric import to_number
from .postprocess import fill_missing_labels_and_clean
from .records import detect_header_row, merge_financial_rows, merge_lines_into_rows

LAYOUTS = ("generic", "dynamic", "financial", "professional")


@dataclass
class DocResult:
    header: List[str] = field(default_factory=list)
    rows: List[List[str]] = field(default_factory=list)
    rows_numeric: Optional[List[List[str]]] = None   # dynamic layout only

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        widths = [len(r) for r in self.rows] + ([len(self.header)] if self.header else [])
        return max(widths) if widths else 0


def _resolve_header(num_columns: int, names: Optional[List[str]]) -> List[str]:
    """``["Cuenta", names[i] or "Valor_{i+1}", ...]`` (``main.py:46-54``)."""
    numeric = []
    for i in range(num_columns):
        if names and i < len(names) and names[i]:
            numeric.append(str(names[i]))
        else:
            numeric.append(f"Valor_{i + 1}")
    return ["Cuenta"] + numeric


def _numeric_rows(rows: List[List[str]]) -> List[List[str]]:
    """Column-0-is-label normalization (``exporters.py:36-48``)."""
    out: List[List[str]] = []
    for r in rows:
        if not r:
            out.append(list(r))
            continue
        out.append([r[0]] + [to_number(x) for x in r[1:]])
    return out


def extract_document(toks: TokenSOA, cfg: LayoutConfig) -> DocResult:
    """Reconstruct one document's table under ``cfg.layout``.

    Empty-input guard mirrors ``main.py:100-109``: no tokens → an empty
    result (the document still appears in the output — the reference
    writes an empty CSV, never drops the file). Lines and dynamic spans
    come from ``toks`` when a batch pass precomputed them.
    """
    if cfg.table_bbox is not None:
        toks = toks.crop(cfg.table_bbox)
    if len(toks) == 0:
        return DocResult()

    layout = (cfg.layout or "dynamic").lower()
    if layout == "professional":
        header, body = professional_grid(toks)
        return DocResult(header=header, rows=body)

    lines = toks.lines if toks.lines is not None else build_lines(toks)

    if layout == "financial":
        records = assign_financial(lines, toks, span_gap_px=cfg.span_gap_default)
        rows = merge_financial_rows(records, cfg.row_merge_factor)
        rows = fill_missing_labels_and_clean(rows)
        return DocResult(header=["Cuenta", "Valor_1", "Valor_2"], rows=rows)

    if layout == "dynamic":
        spans_per_line = (toks.line_spans if toks.line_spans is not None
                          else adaptive_line_spans(lines, toks))   # shared, computed once
        intervals, names = infer_numeric_columns(
            lines, toks,
            min_sep_px=cfg.min_sep_px,
            cut_quantile=cfg.cut_quantile,
            pad_px=cfg.pad_px,
            max_cols=cfg.max_numeric_cols,
            spans_per_line=spans_per_line,
        )
        records = assign_dynamic(lines, toks, intervals, spans_per_line=spans_per_line)
        rows = merge_financial_rows(records, cfg.row_merge_factor)
        if not rows:
            return DocResult()
        num_cols = max(len(r) for r in rows) - 1
        header = _resolve_header(max(num_cols, 0), names)
        return DocResult(header=header, rows=rows, rows_numeric=_numeric_rows(rows))

    if layout == "generic":
        intervals = estimate_columns(
            lines, toks,
            min_col_width=cfg.min_col_width,
            col_valley_px=cfg.col_valley_px,
            expected_n_cols=cfg.expected_n_cols,
        )
        records = assign_words_to_columns(lines, toks, intervals)
        grid_rows = merge_lines_into_rows(
            records, lines, toks,
            row_valley_px=cfg.row_valley_px,
            row_min_height=cfg.row_min_height,
        )
        header_row, body = detect_header_row(
            grid_rows,
            header_regexes=list(cfg.header_regexes) if cfg.header_regexes else None,
        )
        return DocResult(header=header_row or [], rows=body)

    raise ValueError(f"unknown layout: {cfg.layout!r}")
