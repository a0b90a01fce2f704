"""OCR actor-pool stage: media spans → word spans.

Mirrors the reference's Tesseract path (S4 ``ocr_utils.py:10-49``, S5
``layout_transformers.py:68-125``): per-word text + bbox + confidence,
words with confidence <= threshold dropped (M3), optional ``table_bbox``
containment crop, ``lang/psm/oem`` knobs.

Ray mapping (SURVEY.md §2.4 A2): a callable CLASS → actor pool via
``ds.map_batches(OcrStage, concurrency=N, batch_size=small)``. Engine
setup happens ONCE per actor in ``__init__``. The real Tesseract binary
is not present in this environment, so the engine resolves to a
DETERMINISTIC FAKE (seeded by the media ref) unless ``pytesseract`` is
importable — the Ray-side plumbing (schema, batching, actor signature,
output layout) is identical either way.
"""

from __future__ import annotations

import zlib
from typing import List, Optional, Tuple

import numpy as np
import pyarrow as pa

from ..config import LayoutConfig
from ..core.spans import KIND_MEDIA, KIND_WORD, count_per_row, encode_bbox_ref, flat_spans

_FAKE_WORDS = [
    "Caja", "Bancos", "Clientes", "Inventario", "Proveedores", "Capital",
    "Total", "Nota", "Saldo", "Importe", "1,234", "56,780", "(9,012)",
    "$4,567", "-", "2021", "2022",
]


class _FakeTesseract:
    """Deterministic stand-in for ``pytesseract.image_to_data``.

    Emits a plausible 3-column page of (word, bbox, conf) tuples, a pure
    function of the media ref — same ref, same tokens, any process.
    """

    def image_to_words(self, media_ref: str) -> List[Tuple[str, int, int, int, int, int]]:
        rng = np.random.default_rng(zlib.crc32(media_ref.encode()))
        out = []
        y = 100
        n_rows = int(rng.integers(4, 12))
        for _ in range(n_rows):
            for cx in (100, 1200, 1600):
                if rng.random() < 0.2:
                    continue
                w = _FAKE_WORDS[int(rng.integers(0, len(_FAKE_WORDS)))]
                conf = int(rng.integers(30, 100))   # some fall under the threshold
                out.append((w, cx, y, cx + 9 * len(w) + 4, y + 20, conf))
            y += int(rng.integers(30, 44))
        return out


class PdfRasterizeStage:
    """``kind="media"`` spans whose ref is ``pdf://…`` → one ``img://``
    media span per page (the rasterize step in front of OCR).

    A real backend (pdfium/poppler) would decode page bitmaps here; this
    container has none, so the page COUNT is a deterministic fake
    (pure function of the ref) while the span fan-out, ordering and
    downstream OCR compatibility are real. Actor pool: rasterizers hold
    codec state; size ``batch_size`` to page-bitmap memory.
    """

    def __init__(self, max_pages: int = 16) -> None:
        self.max_pages = max_pages
        try:
            import pypdfium2  # noqa: F401
            self._backend = "pdfium"
        except ImportError:
            self._backend = "fake"

    def _pdfium_page_count(self, ref: str) -> int:
        """Real path: open the document, count pages."""
        import pypdfium2 as pdfium
        path = ref[len("pdf://"):] if ref.startswith("pdf://") else ref
        pdf = pdfium.PdfDocument(path)
        try:
            return max(1, len(pdf))
        finally:
            close = getattr(pdf, "close", None)
            if callable(close):
                close()

    def _page_count(self, ref: str) -> int:
        if self._backend == "pdfium":
            try:
                return self._pdfium_page_count(ref)
            except Exception:  # unreadable file must not poison the block
                import logging
                logging.getLogger(__name__).warning(
                    "pdfium failed on %s; falling back to synthetic page count", ref)
        return 1 + zlib.crc32(ref.encode()) % self.max_pages

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Arrow-native expansion: only the (few) pdf spans touch
        Python — page counting and ``img://…/pageN`` ref strings. All
        other span fields flow through vectorized ``take``s; per-row
        offsets are renumbered with one arange subtraction."""
        import pyarrow.compute as pc
        values, starts = flat_spans(batch["spans"])
        refs = values.field("media_ref")
        is_pdf_arr = pc.and_(pc.equal(values.field("kind"), KIND_MEDIA),
                             pc.starts_with(refs, "pdf://"))
        if not pc.sum(pc.cast(is_pdf_arr, pa.int64())).as_py():
            return batch
        is_pdf = is_pdf_arr.to_numpy(zero_copy_only=False)
        n_vals = len(values)
        counts = np.ones(n_vals, np.int64)
        pdf_idx = np.nonzero(is_pdf)[0]
        pdf_refs = refs.take(pa.array(pdf_idx)).to_pylist()
        new_refs: List[str] = []
        for j, ref in zip(pdf_idx, pdf_refs):
            base = ref[len("pdf://"):]
            n_pages = self._page_count(ref)
            counts[j] = n_pages
            new_refs.extend(f"img://{base}/page{p}"
                            for p in range(1, n_pages + 1))
        rep_idx = np.repeat(np.arange(n_vals, dtype=np.int64), counts)
        is_new = np.repeat(is_pdf, counts)
        new_seq = np.cumsum(is_new) - 1          # position in new_refs
        # field pools: [originals..., generated...] indexed per final span
        ref_pool = pa.concat_arrays([refs.combine_chunks() if isinstance(refs, pa.ChunkedArray) else refs,
                                     pa.array(new_refs, refs.type)])
        ref_take = np.where(is_new, n_vals + new_seq, rep_idx)
        text = values.field("text")
        text_pool = pa.concat_arrays([text, pa.array([""], text.type)])
        text_take = np.where(is_new, n_vals, rep_idx)  # pages get text=""
        # per-row expansion: new row length = sum of counts in the row
        new_lens = count_per_row(starts, counts)
        new_starts = np.concatenate(([0], np.cumsum(new_lens)))
        # sequential per-row offsets, vectorized
        new_off = (np.arange(int(new_starts[-1]), dtype=np.int64)
                   - np.repeat(new_starts[:-1], new_lens))
        built = {
            "kind": values.field("kind").take(pa.array(rep_idx)),
            "text": text_pool.take(pa.array(text_take)),
            "media_ref": ref_pool.take(pa.array(ref_take)),
            "offset": pa.array(new_off).cast(values.field("offset").type),
        }
        new_values = pa.StructArray.from_arrays(
            [built[f.name] for f in values.type], fields=list(values.type))
        new_col = pa.ListArray.from_arrays(
            pa.array(new_starts, pa.int32()), new_values)
        out_t = batch.drop_columns(["spans"])
        return out_t.append_column("spans", new_col.cast(batch.schema.field("spans").type))


class OcrStage:
    """``map_batches`` actor: expands each ``kind="media"`` span of a
    document into word spans (appended after the existing spans, offsets
    continuing), leaving word spans untouched."""

    def __init__(self, cfg: Optional[LayoutConfig] = None,
                 media_loader=None) -> None:
        """``media_loader``: optional ``media_ref -> image`` resolver for
        the real engine (defaults to PIL-open of the ref as a file
        path, ``img://``/``file://`` prefixes stripped)."""
        self.cfg = cfg or LayoutConfig()
        self._media_loader = media_loader
        try:
            import pytesseract  # noqa: F401
            self._engine = "tesseract"
        except ImportError:
            self._engine = "fake"
        self._fake = _FakeTesseract()

    def _load_media(self, media_ref: str):
        """Resolve a media ref to an image for the real engine; None if
        unresolvable (the span is then skipped, not poisoned)."""
        if self._media_loader is not None:
            return self._media_loader(media_ref)
        try:
            from PIL import Image
            path = media_ref
            for prefix in ("img://", "file://"):
                if path.startswith(prefix):
                    path = path[len(prefix):]
            return Image.open(path).convert("RGB")
        except Exception:
            import logging
            logging.getLogger(__name__).warning(
                "cannot load media %s for OCR; span skipped", media_ref)
            return None

    def _words_tesseract(self, media_ref: str) -> List[Tuple[str, int, int, int, int, int]]:
        """Real engine: ``pytesseract.image_to_data`` with the
        reference's field handling (``layout_transformers.py:68-125``):
        conf parsed via int(float(.)), -1 on parse failure; bbox =
        (left, top, left+width, top+height)."""
        import pytesseract
        image = self._load_media(media_ref)
        if image is None:
            return []
        data = pytesseract.image_to_data(
            image, output_type=pytesseract.Output.DICT, lang=self.cfg.ocr_lang)
        out = []
        for i in range(len(data["level"])):
            try:
                conf = int(float(data["conf"][i]))
            except Exception:
                conf = -1
            x, y = data["left"][i], data["top"][i]
            w, h = data["width"][i], data["height"][i]
            out.append((data["text"][i] or "", x, y, x + w, y + h, conf))
        return out

    def _ocr_one(self, media_ref: str) -> List[Tuple[str, int, int, int, int]]:
        if self._engine == "tesseract":
            words = self._words_tesseract(media_ref)
        else:
            words = self._fake.image_to_words(media_ref)
        out = []
        bbox = self.cfg.table_bbox
        for text, x1, y1, x2, y2, conf in words:
            if conf <= self.cfg.ocr_min_confidence:   # layout_transformers.py:95-100
                continue
            text = text.strip()                       # ref strips BEFORE the empty check
            if not text:
                continue
            if bbox and not (x1 >= bbox[0] and y1 >= bbox[1]
                             and x2 <= bbox[2] and y2 <= bbox[3]):
                continue
            out.append((text, x1, y1, x2, y2))
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Arrow-native append: only MEDIA spans (and the OCR engine
        call itself, inherently Python) leave Arrow. Existing word
        spans are re-emitted via a zero-copy-ish ``take`` permutation;
        the new word spans are built as one flat struct block and
        spliced after each row's originals."""
        import pyarrow.compute as pc
        values, starts = flat_spans(batch["spans"])
        # vectorized fast path: batches with no media rows pass through
        # untouched (most of an interleaved corpus is text-only)
        media_arr = pc.equal(values.field("kind"), KIND_MEDIA)
        if pc.sum(pc.cast(media_arr, pa.int64())).as_py() in (0, None):
            return batch
        lens = np.diff(starts)
        n_rows = len(lens)
        offs_np = values.field("offset").to_numpy(zero_copy_only=False).astype(np.int64)
        media_idx = np.nonzero(media_arr.to_numpy(zero_copy_only=False))[0]
        media_refs = values.field("media_ref").take(pa.array(media_idx)).to_pylist()
        media_row = np.searchsorted(starts, media_idx, side="right") - 1
        # skew-guard shard rows carry media_base = number of media spans
        # in EARLIER shards of the same doc: page numbers stay GLOBAL to
        # the document across the split
        if "media_base" in batch.column_names:
            bases = pc.fill_null(batch["media_base"], 0).to_numpy(
                zero_copy_only=False).astype(np.int64)
        else:
            bases = np.zeros(n_rows, np.int64)
        ex_text: List[str] = []
        ex_ref: List[str] = []
        ex_off: List[int] = []
        ref_words: List[int] = []
        cur_row, page, off = -1, 0, 0
        for r, ref in zip(media_row, media_refs):
            if r != cur_row:
                cur_row, page = int(r), int(bases[r])
                off = (int(offs_np[starts[r]:starts[r + 1]].max()) + 1
                       if lens[r] else 0)
            page += 1
            words = self._ocr_one(ref)
            for text, x1, y1, x2, y2 in words:
                ex_text.append(text)
                ex_ref.append(encode_bbox_ref(page, x1, y1, x2, y2))
                ex_off.append(off)
                off += 1
            ref_words.append(len(words))
        ex_row = np.repeat(media_row, ref_words)
        row_extra = np.bincount(ex_row, minlength=n_rows)
        n_extra = len(ex_text)
        built = {
            "kind": pa.nulls(n_extra, values.field("kind").type).fill_null(KIND_WORD),
            "text": pa.array(ex_text, values.field("text").type),
            "media_ref": pa.array(ex_ref, values.field("media_ref").type),
            "offset": pa.array(ex_off).cast(values.field("offset").type),
        }
        extras = pa.StructArray.from_arrays(
            [built[f.name] for f in values.type], fields=list(values.type))
        combined = pa.concat_arrays([values, extras])
        # splice: row originals, then that row's extras (a stable sort by
        # row keeps the originals, which come first, ahead of the extras)
        new_values = combined.take(pa.array(np.argsort(
            np.concatenate((np.repeat(np.arange(n_rows), lens), ex_row)), kind="stable")))
        new_starts = np.concatenate(([0], np.cumsum(lens + row_extra)))
        new_col = pa.ListArray.from_arrays(
            pa.array(new_starts, pa.int32()), new_values)
        out = batch.drop_columns(["spans"])
        return out.append_column("spans", new_col.cast(batch.schema.field("spans").type))
