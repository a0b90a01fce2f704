"""The reference's three distinct numeric grammars + number normalization.

These are deliberately NOT unified — each layout calls a different one
and their acceptance sets differ (SURVEY.md §2.9):

* :data:`NUM_SPAN_RE` (F1, ``column_model.py:8-11`` ≡ ``assign_dynamic.py:7-10``)
  — every part optional, so ``""``, ``"-"``, ``"$"``, ``"("`` all match;
* :data:`NUM_TOKEN_RE` (F2, ``assign_financial.py:8-18``) — requires a
  digit, or a lone ``-`` meaning zero;
* :func:`is_number_like` (F3, ``postprocess.py:9-16``) — the post-hoc test.

:func:`to_number` preserves the reference's quirk that parenthesized
negatives keep their closing ``)`` after stripping and therefore fail
``float()`` and fall back to the ORIGINAL text (``exporters.py:14-34``).
"""

from __future__ import annotations

import re
from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# F1 — permissive span grammar (matches empty string!)
NUM_SPAN_RE = re.compile(
    r"""^
    [\$\(]?\s* -?
    (?:\d{1,3}(?:[,\s]\d{3})+|\d+)? (?:\.\d+)? \s*[\)]?
    $""",
    re.VERBOSE,
)

# F2 — strict token grammar: lone dash (zero) or at least one digit
NUM_TOKEN_RE = re.compile(
    r"""^(
    -
    |
    \$?\(?-?\d{1,3}(?:[,\s]\d{3})*(?:\.\d+)?\)?
    )$""",
    re.VERBOSE,
)

# F3 — post-processing test
_NUMBER_LIKE_RE = re.compile(r"^\$?\(?-?\d{1,3}(?:[,\s]\d{3})*(?:\.\d+)?\)?$")

# F1 over ASCII text in RE2 syntax (pyarrow): on ASCII, Python's \s is
# this class and \d is [0-9], and Python's $ also matches before one
# trailing newline
_WS = r"\t\n\x0b\x0c\r\x1c-\x1f "
_NUM_SPAN_RE2 = (rf"^[$(]?[{_WS}]*-?(?:[0-9]{{1,3}}(?:[,{_WS}][0-9]{{3}})+|[0-9]+)?"
                 rf"(?:\.[0-9]+)?[{_WS}]*\)?\n?$")

YEAR_RE = re.compile(r"\b(19|20)\d{2}\b")

# keeps digits, '-', '.', AND ')' — the ')' survival is the quirk above
_STRIP_RE = re.compile(r"[^\d\-\.\)]")


def is_num_span(text: str) -> bool:
    """F1 applied the way call sites apply it: spaces removed first
    (``assign_dynamic.py:56``, ``column_model.py:115``)."""
    return bool(NUM_SPAN_RE.match(text.replace(" ", "")))


def num_span_flags(texts: Sequence[str]) -> np.ndarray:
    """:func:`is_num_span` of every text in one vectorized pass: RE2 over
    the ASCII texts, Python ``re`` for the rest (RE2's ``\\d`` and ``\\s``
    are ASCII-only where Python's are Unicode)."""
    squeezed = pc.replace_substring(pa.array(texts, pa.string()), " ", "")
    flags = np.array(pc.match_substring_regex(squeezed, _NUM_SPAN_RE2), dtype=bool)
    for i in np.flatnonzero(~np.array(pc.string_is_ascii(squeezed), dtype=bool)):
        flags[i] = is_num_span(texts[i])
    return flags


def is_numeric_token(text: str) -> bool:
    """F2 applied as ``assign_financial.py:20-24``: strip, drop inner spaces."""
    return bool(NUM_TOKEN_RE.match(text.strip().replace(" ", "")))


def is_number_like(s: str) -> bool:
    """F3 (``postprocess.py:9-16``): lone ``-`` counts as a number."""
    if not s:
        return False
    z = s.strip().replace(" ", "")
    if z == "-":
        return True
    return bool(_NUMBER_LIKE_RE.match(z))


def to_number(s: str) -> str:
    """Normalize a cell to a numeric string (reference ``exporters.py:14-34``).

    ``"-"`` → ``"0"``; integral values render without decimals;
    unparseable input (including ``(1,234)`` — see module docstring)
    returns the stripped original text.
    """
    if s is None:
        return ""
    s = s.strip()
    if not s:
        return ""
    if s == "-":
        return "0"
    neg = s.startswith("(") and s.endswith(")")
    bare = _STRIP_RE.sub("", s)
    if not bare:
        return ""
    try:
        val = float(bare)
        if neg:
            val = -val
        if abs(val - int(val)) < 1e-9:
            return str(int(val))
        return str(val)
    except Exception:
        return s
