"""Struct-of-arrays token container for one document.

The reference materializes per-word ``Token`` dataclasses
(``structures.py:26-50``); in the Ray engine a document's tokens arrive
as slices of a batch's flattened Arrow list column, so the natural
representation is a handful of numpy views — zero object churn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass
class TokenSOA:
    """Tokens of a single document as parallel arrays.

    ``text`` / ``line_id`` are object arrays (python strings; ``line_id``
    entries may be ``None``); coordinates are int64.  All arrays share
    length; slices of batch-level arrays are fine (kernels never mutate).

    ``lines`` optionally carries this doc's visual lines, computed by a
    whole-batch pass (``stages/extract.py``); ``None`` means the kernel
    computes them.
    """

    text: np.ndarray
    page: np.ndarray
    x1: np.ndarray
    y1: np.ndarray
    x2: np.ndarray
    y2: np.ndarray
    line_id: Optional[np.ndarray] = None   # None => no token carries a line id
    lines: Optional[list] = None

    def __len__(self) -> int:
        return len(self.text)

    @property
    def xc(self) -> np.ndarray:
        return (self.x1 + self.x2) / 2.0

    @property
    def yc(self) -> np.ndarray:
        return (self.y1 + self.y2) / 2.0

    def inside(self, bbox: Tuple[int, int, int, int]) -> np.ndarray:
        """Mask of the tokens fully inside ``bbox`` (reference
        ``structures.py:22-24``, applied at parse time, ``parser.py:47-48``)."""
        X1, Y1, X2, Y2 = bbox
        return (self.x1 >= X1) & (self.y1 >= Y1) & (self.x2 <= X2) & (self.y2 <= Y2)

    def crop(self, bbox: Tuple[int, int, int, int]) -> "TokenSOA":
        """Keep tokens fully inside ``bbox``."""
        return self.take(np.flatnonzero(self.inside(bbox)))

    def take(self, idx: np.ndarray) -> "TokenSOA":
        return TokenSOA(
            text=self.text[idx],
            page=self.page[idx],
            x1=self.x1[idx],
            y1=self.y1[idx],
            x2=self.x2[idx],
            y2=self.y2[idx],
            line_id=None if self.line_id is None else self.line_id[idx],
        )

    @staticmethod
    def from_lists(rows) -> "TokenSOA":
        """Build from an iterable of (text, page, x1, y1, x2, y2[, line_id])
        tuples — convenience for tests and the synthetic generator."""
        rows = list(rows)
        lid = None
        if rows and len(rows[0]) > 6:
            lid = np.array([r[6] for r in rows], dtype=object)
        return TokenSOA(
            text=np.array([r[0] for r in rows], dtype=object),
            page=np.array([r[1] for r in rows], dtype=np.int64),
            x1=np.array([r[2] for r in rows], dtype=np.int64),
            y1=np.array([r[3] for r in rows], dtype=np.int64),
            x2=np.array([r[4] for r in rows], dtype=np.int64),
            y2=np.array([r[5] for r in rows], dtype=np.int64),
            line_id=lid,
        )
