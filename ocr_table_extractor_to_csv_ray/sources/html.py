"""HTML main-content extraction: boilerplate strip + embedded tables.

The web-scale half of the corpus (north rule: "HTML boilerplate strip,
PDF/layout parse, DOM heuristics"): given raw HTML, recover

- the MAIN TEXT — block elements outside chrome containers
  (script/style/nav/header/footer/aside/form), with link-dense blocks
  (boilerplate menus, link farms) dropped by a link-density heuristic —
  the classic boilerpipe/readability-style signal (public technique);
- every EMBEDDED ``<table>`` as a (header, rows) grid, serialized to
  the engine's output span schema — HTML-embedded tables reach the same
  ``(kind, text, media_ref, offset)`` contract as OCR-reconstructed
  ones.

Pure stdlib (``html.parser``); each batch function is a stateless
vectorized-over-rows ``map_batches`` stage.
"""

from __future__ import annotations

from html.parser import HTMLParser
from typing import Dict, List, Optional

import pyarrow as pa

from ..core.spans import encode_rows, grid_rows

SKIP_CONTAINERS = frozenset(
    ["script", "style", "noscript", "nav", "header", "footer", "aside",
     "form", "iframe", "svg", "template", "button"])
BLOCK_TAGS = frozenset(
    ["p", "div", "li", "h1", "h2", "h3", "h4", "h5", "h6", "article",
     "section", "main", "blockquote", "pre", "td", "th"])


class _Block:
    __slots__ = ("chars", "link_chars")

    def __init__(self) -> None:
        self.chars: List[str] = []
        self.link_chars = 0

    @property
    def text(self) -> str:
        return " ".join("".join(self.chars).split())

    def link_density(self) -> float:
        total = len("".join(self.chars).strip())
        return self.link_chars / total if total else 1.0


class _MainContentWalker(HTMLParser):
    """One pass: title, text blocks with link densities, tables."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.title: List[str] = []
        self.blocks: List[_Block] = []
        self.tables: List[List[List[str]]] = []
        self._skip_depth = 0
        self._in_title = False
        self._link_depth = 0
        self._block_stack: List[_Block] = []
        # table state
        self._table_stack: List[List[List[str]]] = []
        self._row: Optional[List[str]] = None
        self._cell: Optional[List[str]] = None

    def _flush_cell(self) -> None:
        if self._cell is not None and self._row is not None:
            self._row.append(" ".join("".join(self._cell).split()))
        self._cell = None

    def _flush_row(self) -> None:
        self._flush_cell()
        if self._row is not None and self._table_stack and self._row:
            self._table_stack[-1].append(self._row)
        self._row = None

    def handle_starttag(self, tag, attrs):
        if tag in SKIP_CONTAINERS:
            self._skip_depth += 1
            return
        if self._skip_depth:
            return
        if tag == "title":
            self._in_title = True
        elif tag == "a":
            self._link_depth += 1
        elif tag == "table":
            self._table_stack.append([])
        elif tag == "tr" and self._table_stack:
            self._flush_row()            # implicit </tr>
            self._row = []
        elif tag in ("td", "th") and self._row is not None:
            self._flush_cell()           # implicit </td>
            self._cell = []
        if tag in BLOCK_TAGS and not self._table_stack:
            self._block_stack.append(_Block())

    def handle_endtag(self, tag):
        if tag in SKIP_CONTAINERS:
            self._skip_depth = max(0, self._skip_depth - 1)
            return
        if self._skip_depth:
            return
        if tag == "title":
            self._in_title = False
        elif tag == "a":
            self._link_depth = max(0, self._link_depth - 1)
        elif tag in ("td", "th") and self._cell is not None:
            self._flush_cell()
        elif tag == "tr" and self._row is not None:
            self._flush_row()
        elif tag == "table" and self._table_stack:
            self._flush_row()            # implicit trailing </td></tr>
            t = self._table_stack.pop()
            if t:
                self.tables.append(t)
        if tag in BLOCK_TAGS and self._block_stack and not self._table_stack:
            blk = self._block_stack.pop()
            if blk.text:
                self.blocks.append(blk)

    def handle_data(self, data):
        if self._skip_depth:
            return
        if self._in_title:
            self.title.append(data)
            return
        if self._cell is not None:
            self._cell.append(data)
            return
        if self._block_stack:
            self._block_stack[-1].chars.append(data)
            if self._link_depth:
                self._block_stack[-1].link_chars += len(data.strip())


def extract_main_content(html: str, max_link_density: float = 0.5) -> Dict:
    """``{title, text, tables}`` — blocks over the link-density cutoff
    are boilerplate and dropped from ``text``."""
    w = _MainContentWalker()
    w.feed(html or "")
    w.close()
    keep = [b.text for b in w.blocks if b.link_density() <= max_link_density]
    return {
        "title": " ".join("".join(w.title).split()),
        "text": "\n".join(keep),
        "tables": w.tables,
    }


def html_main_text_batch(batch: pa.Table, html_column: str = "html",
                         max_link_density: float = 0.5) -> pa.Table:
    """``(doc_id, html)`` → ``(doc_id, title, text, n_tables)``."""
    ids = batch["doc_id"].to_pylist()
    htmls = batch[html_column].to_pylist()
    title, text, n_tables = [], [], []
    for h in htmls:
        r = extract_main_content(h, max_link_density)
        title.append(r["title"])
        text.append(r["text"])
        n_tables.append(len(r["tables"]))
    return pa.table({
        "doc_id": pa.array([str(i) for i in ids], pa.string()),
        "title": pa.array(title, pa.string()),
        "text": pa.array(text, pa.string()),
        "n_tables": pa.array(n_tables, pa.int64()),
    })


def html_tables_batch(batch: pa.Table, html_column: str = "html") -> pa.Table:
    """``(doc_id, html)`` → one row per embedded table:
    ``(doc_id, table_idx, n_rows, n_cols, spans)`` — same output span
    contract as the OCR reconstruction (first row = header, reference
    default ``rows.py:146``)."""
    ids = batch["doc_id"].to_pylist()
    htmls = batch[html_column].to_pylist()
    o_id, o_idx, o_nr, o_nc, grids = [], [], [], [], []
    for doc_id, h in zip(ids, htmls):
        for ti, grid in enumerate(extract_main_content(h)["tables"]):
            header, rows = grid[0], grid[1:]
            o_id.append(str(doc_id))
            o_idx.append(ti)
            o_nr.append(len(rows))
            o_nc.append(max((len(r) for r in grid), default=0))
            grids.append((header, rows))
    return pa.table({
        "doc_id": pa.array(o_id, pa.string()),
        "table_idx": pa.array(o_idx, pa.int32()),
        "n_rows": pa.array(o_nr, pa.int32()),
        "n_cols": pa.array(o_nc, pa.int32()),
        "spans": encode_rows(grid_rows(grids), len(grids)),
    })


# ---------------------------------------------------------------------------
# deterministic synthetic HTML page (fixtures / queries)

def make_html_page(doc_id: str, body_text: str, table: Optional[List[List[str]]] = None,
                   with_boilerplate: bool = True) -> str:
    parts = [f"<html><head><title>Doc {doc_id}</title>",
             "<style>body{color:#000}</style>",
             "<script>var x = 'tracking';</script></head><body>"]
    if with_boilerplate:
        parts.append("<nav><ul>" + "".join(
            f'<li><a href="/{i}">menu item {i}</a></li>' for i in range(8)) + "</ul></nav>")
        parts.append('<div class="share"><a href="/x">share</a> <a href="/y">like</a></div>')
    for para in body_text.split("\n"):
        if para.strip():
            parts.append(f"<p>{para}</p>")
    if table:
        parts.append("<table>")
        parts.append("<tr>" + "".join(f"<th>{c}</th>" for c in table[0]) + "</tr>")
        for row in table[1:]:
            parts.append("<tr>" + "".join(f"<td>{c}</td>" for c in row) + "</tr>")
        parts.append("</table>")
    if with_boilerplate:
        parts.append('<footer><a href="/tos">terms</a> <a href="/priv">privacy</a></footer>')
    parts.append("</body></html>")
    return "".join(parts)
