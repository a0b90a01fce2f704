"""Layout dispatch (reference ``main.py:57-163``).

:func:`extract_document` is one pure function: one document's tokens in,
(header, rows[, numeric rows]) out. The Ray pipeline applies it per
document inside ``map_batches`` for the financial and professional
layouts; the dynamic and generic layouts run over every such document
of a batch at once (:func:`dynamic_grids`, :func:`generic_grids`), and
``extract_document`` calls the same code on one document. The
transformers compose stage runs :func:`generic_grids` as its primary
path. Layout is selectable per run or per row (SURVEY.md §2.11 — the
reference's strategy-pattern extension point).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..config import LayoutConfig
from .assigners import assign_dynamic_batch, assign_financial, column_cells
from .colmodel import numeric_columns_batch
from .doc import TokenSOA
from .geometry import (LineBatch, build_lines, column_intervals_batch, doc_line_batch,
                       dynamic_spans, gather_lines)
from .gridpro import professional_grid
from .numeric import to_number
from .postprocess import fill_missing_labels_and_clean
from .records import (detect_header_row, merge_financial_rows, merge_lines_batch,
                      merge_rows_batch)
from .spans import GridRows, grid_rows

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


def dynamic_grids(doc_lines: np.ndarray, y1: np.ndarray, y2: np.ndarray, starts: np.ndarray,
                  x1: np.ndarray, x2: np.ndarray, text: np.ndarray, cfg: LayoutConfig
                  ) -> Tuple[GridRows, GridRows, np.ndarray, np.ndarray]:
    """The dynamic layout (``main.py:124-140``) of every doc of a batch, in
    whole-batch passes: spans (:func:`.geometry.dynamic_spans`), column
    model (:func:`.colmodel.numeric_columns_batch`), assignment
    (:func:`.assigners.assign_dynamic_batch`), row merge
    (:func:`.records.merge_rows_batch`), header and numeric rows.

    Doc ``d`` owns the lines ``doc_lines[d]:doc_lines[d + 1]`` (bands
    ``y1``/``y2``); line ``k`` owns the x1-sorted tokens
    ``starts[k]:starts[k + 1]`` of ``x1``/``x2``/``text``. Returns the grid
    rows of ``spans`` and of ``spans_numeric`` (the header is ``Cuenta``
    then each column's year or ``Valor_{i+1}``; numeric cells go through
    :func:`.numeric.to_number`, ``exporters.py:36-48``) and ``n_rows`` /
    ``n_cols`` per doc. A doc without lines gets no rows.
    """
    n_docs = len(doc_lines) - 1
    span_starts, sx1, sx2, stext, is_num = dynamic_spans(x1, x2, text, starts)
    cols = numeric_columns_batch(doc_lines, y1, span_starts, sx1, sx2, stext, is_num,
                                 min_sep_px=cfg.min_sep_px, cut_quantile=cfg.cut_quantile,
                                 pad_px=cfg.pad_px, max_cols=cfg.max_numeric_cols)
    label, values, num_count = assign_dynamic_batch(doc_lines, span_starts, sx1, sx2, stext,
                                                    is_num, cols, starts, text)
    line_doc = np.repeat(np.arange(n_docs), np.diff(doc_lines))
    first, row_label, row_values, row_width = merge_rows_batch(
        doc_lines, y1, y2, num_count, label, values, 1 + cols.count[line_doc],
        cfg.row_merge_factor)
    row_doc = line_doc[first]
    n_rows = np.bincount(row_doc, minlength=n_docs)
    docs = np.flatnonzero(n_rows)
    width = values.shape[1]

    header = np.empty((len(docs), 1 + width), dtype=object)
    header[:, 0] = "Cuenta"
    names = cols.names[docs]
    header[:, 1:] = np.where(names.astype(bool), names,
                             np.array([f"Valor_{i + 1}" for i in range(width)], dtype=object))
    body = np.empty((len(first), 1 + width), dtype=object)
    body[:, 0] = row_label
    body[:, 1:] = row_values
    cells = row_values.ravel().tolist()
    number = {v: to_number(v) for v in set(cells)}
    numeric = body.copy()
    numeric[:, 1:] = np.array([number[v] for v in cells], dtype=object).reshape(row_values.shape)

    doc = np.concatenate((docs, row_doc))
    length = np.concatenate((1 + cols.count[docs], row_width))
    is_header = np.arange(len(doc)) < len(docs)
    inside = np.arange(1 + width) < length[:, None]
    grids = [GridRows(doc, length, is_header, np.vstack((header, rows))[inside])
             for rows in (body, numeric)]
    n_cols = np.where(n_rows > 0, 1 + cols.count, 0)
    return grids[0], grids[1], n_rows, n_cols


def generic_grids(lb: LineBatch, toks: TokenSOA, cfg: LayoutConfig
                  ) -> Tuple[GridRows, np.ndarray, np.ndarray]:
    """The generic layout (``main.py:142-163``) of every doc of ``lb`` in
    whole-batch passes: columns (:func:`.geometry.column_intervals_batch`),
    cells (:func:`.assigners.column_cells`), each line a record, row merge
    (:func:`.records.merge_lines_batch`), the first row as header (with
    ``cfg.header_regexes``, :func:`.records.detect_header_row` per doc).
    Returns grid rows and ``n_rows`` / ``n_cols`` per doc (0 without rows)."""
    n_docs = len(lb.doc_lines) - 1
    tok_line, tok_doc = lb.member_line_doc()
    m = lb.members
    x1, x2, text = toks.x1[m], toks.x2[m], toks.text[m]
    filled = text != ""
    lo, hi, count = column_intervals_batch(
        tok_doc[filled], x1[filled], x2[filled], n_docs, cfg.min_col_width, cfg.col_valley_px,
        cfg.expected_n_cols)
    cell_line, cell_col, cell_text = column_cells(tok_line, tok_doc, (x1 + x2) / 2.0, text,
                                                  lo, hi, count)
    line_doc = np.repeat(np.arange(n_docs), np.diff(lb.doc_lines))
    rec = np.flatnonzero(count[line_doc] > 0)        # every line of a doc with columns
    rec_of = np.full(len(line_doc), -1, dtype=np.int64)
    rec_of[rec] = np.arange(len(rec))
    _, row_doc, _, (r, col, cells) = merge_lines_batch(
        n_docs, tok_doc[filled], toks.y1[m][filled], toks.y2[m][filled], line_doc[rec],
        (lb.y1[rec] + lb.y2[rec]) / 2, rec_of[cell_line], cell_col, cell_text,
        cfg.row_valley_px, cfg.row_min_height)
    grid = np.full((len(row_doc), lo.shape[1]), "", dtype=object)
    grid[r, col] = cells
    length = count[row_doc]
    first = np.r_[True, row_doc[1:] != row_doc[:-1]][:len(row_doc)]
    rows = GridRows(row_doc, length, first, grid[np.arange(lo.shape[1]) < length[:, None]])
    per_doc = np.bincount(row_doc, minlength=n_docs)
    if cfg.header_regexes:
        docs = np.flatnonzero(per_doc)
        grids = rows._replace(header=np.zeros_like(first)).grids(n_docs)
        rows = grid_rows([detect_header_row(grids[d][1], list(cfg.header_regexes))
                          for d in docs], docs)
    return rows, np.maximum(per_doc - 1, 0), np.where(per_doc > 0, count, 0)


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
        x1, x2, text, starts = gather_lines(lines, toks)
        spans, numeric, n_rows, _ = dynamic_grids(
            np.array([0, len(lines)]), np.array([ln.y1 for ln in lines], dtype=np.int64),
            np.array([ln.y2 for ln in lines], dtype=np.int64), starts, x1, x2, text, cfg)
        if not n_rows[0]:
            return DocResult()
        (header, rows), = spans.grids(1)
        (_, rows_numeric), = numeric.grids(1)
        return DocResult(header=header, rows=rows, rows_numeric=rows_numeric)

    if layout == "generic":
        (header, rows), = generic_grids(doc_line_batch(toks), toks, cfg)[0].grids(1)
        return DocResult(header=header, rows=rows)

    raise ValueError(f"unknown layout: {cfg.layout!r}")
