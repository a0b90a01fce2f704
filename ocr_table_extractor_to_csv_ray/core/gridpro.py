"""Professional layout: spatial grid + indentation hierarchy
(reference ``grid_builder.py`` / ``layout_professional.py``).

Divergences from the generic layout that are CONTRACT here (SURVEY.md §7.0):

* line grouping chains on ``|y1 - prev.y1| <= 5`` with NO overlap ratio
  and ignores pages (``grid_builder.py:15-29``);
* column intervals are built contiguously — the left edge only advances
  when an interval is emitted — with a STRICT ``> min_col_width`` test
  (``grid_builder.py:56-63``);
* token → column is ``locate(closed="left", fallback=None)``: a token
  outside every interval is dropped (``grid_builder.py:134-142``);
* ``find_header_row_index`` returns -1 (not None) when nothing matches,
  and the caller treats -1 as a valid index: the LAST row becomes the
  header and the body duplicates rows (``grid_builder.py:65-81,145-152``)
  — a reference quirk preserved for span-equality.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .doc import TokenSOA
from .geometry import locate, valley_cuts


def group_words_into_lines_pro(toks: TokenSOA, tolerance: int = 5) -> List[np.ndarray]:
    """Chain words into lines by y1 proximity; each line's indices end up
    x-sorted (``grid_builder.py:15-29``)."""
    n = len(toks)
    if n == 0:
        return []
    order = np.lexsort((toks.x1, toks.y1))
    lines: List[np.ndarray] = []
    current = [int(order[0])]
    for i in order[1:]:
        i = int(i)
        if abs(int(toks.y1[i]) - int(toks.y1[current[-1]])) <= tolerance:
            current.append(i)
        else:
            cur = np.asarray(current, dtype=np.int64)
            lines.append(cur[np.argsort(toks.x1[cur], kind="stable")])
            current = [i]
    cur = np.asarray(current, dtype=np.int64)
    lines.append(cur[np.argsort(toks.x1[cur], kind="stable")])
    return lines


def estimate_column_positions_pro(
    toks: TokenSOA, min_col_width: int = 25, min_gap_width: int = 5
) -> List[Tuple[int, int]]:
    """Contiguous-interval variant of the projection profile
    (``grid_builder.py:31-63``)."""
    if len(toks) == 0:
        return []
    x_min = int(toks.x1.min())
    x_max = int(toks.x2.max())
    mids = valley_cuts(toks.x1, toks.x2, x_min, x_max, min_gap_width)
    if mids is None:
        return [(x_min, x_max)]
    cuts = [x_min] + mids + [x_max]
    intervals: List[Tuple[int, int]] = []
    left = cuts[0]
    for right in cuts[1:]:
        if right - left > min_col_width:
            intervals.append((left, right))
            left = right
    return intervals


def find_header_row_index(rows: List[List[str]], text_threshold: float = 0.7) -> int:
    """First row with a non-empty first cell and >= 2 cells wins (every
    cell is a str, so the text ratio is always 1.0); -1 when none
    (``grid_builder.py:65-81``)."""
    best = -1
    best_ratio = 0.0
    for i, row in enumerate(rows):
        if not row or not row[0]:
            continue
        rest = row[1:]
        if not rest:
            continue
        ratio = sum(1 for c in rest if isinstance(c, str)) / len(rest)
        if ratio >= text_threshold and ratio > best_ratio:
            best_ratio = ratio
            best = i
    return best


def build_hierarchy(
    line_first_x1: List[int], grid_rows: List[List[str]]
) -> Tuple[List[List[str]], int]:
    """Indentation-stack hierarchy: prefix each row with its ancestors'
    descriptions; a row with only a description becomes a parent
    (``grid_builder.py:83-114``)."""
    if not line_first_x1 or not grid_rows:
        return grid_rows, 0
    stack: List[Tuple[int, str]] = []
    out: List[List[str]] = []
    max_depth = 0
    for i, row in enumerate(grid_rows):
        indent = line_first_x1[i] if i < len(line_first_x1) else -1
        desc = row[0] if row else ""
        while stack and indent <= stack[-1][0]:
            stack.pop()
        out.append([p[1] for p in stack] + row)
        max_depth = max(max_depth, len(stack))
        if desc and (len(row) < 3 or all(c == "" for c in row[1:])):
            stack.append((indent, desc))
    return out, max_depth


def professional_grid(toks: TokenSOA) -> Tuple[List[str], List[List[str]]]:
    """Full professional-layout kernel → (header, body rows), with body
    cells stripped (``cleaners.py:8-26``) but the header left as-is
    (``layout_professional.py:46-53`` cleans only ``grid.rows``)."""
    if len(toks) == 0:
        return [], []

    lines = group_words_into_lines_pro(toks)
    intervals = estimate_column_positions_pro(toks)

    idx = np.concatenate(lines)
    line_of = np.repeat(np.arange(len(lines)), [line_idx.size for line_idx in lines])
    col = locate((toks.x1[idx] + toks.x2[idx]) / 2, intervals, closed="left", fallback=None)
    grid_rows: List[List[str]] = [["" for _ in intervals] for _ in lines]
    for r, j, word in zip(line_of.tolist(), col.tolist(), toks.text[idx].tolist()):
        if j >= 0:
            grid_rows[r][j] = (grid_rows[r][j] + " " + word).strip()

    first_x1 = [int(toks.x1[line_idx[0]]) for line_idx in lines]
    hier_rows, depth = build_hierarchy(first_x1, grid_rows)

    header_idx = find_header_row_index(hier_rows)
    # NOTE: -1 is treated as a normal index (reference quirk): the last
    # row becomes the header and hier_rows[0:] duplicates into the body.
    header_row = hier_rows[header_idx]
    body = hier_rows[:header_idx] + hier_rows[header_idx + 1:]
    header = ["" for _ in range(depth)] + header_row[depth:]

    num_cols = len(header)
    body = [(row + [""] * num_cols)[:num_cols] for row in body]
    body = [[c.strip() for c in row] for row in body]
    return header, body
