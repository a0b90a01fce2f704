"""In-memory span tracer that wraps the engine's public functions from outside.

The engine's source is never edited: each traced function is replaced, for
the length of a traced replay, at every module attribute of the package
bound to it, that is, at the names its callers resolve.

A span is ``[name, start, end, parent, batch, tag, child_s]``: ``parent`` is
the index of the enclosing span (``-1`` for a root), ``batch`` the id of the
input block being replayed, ``tag`` a label children inherit (the doc's
layout) and ``child_s`` the time its direct children cover. A span's self
time is its duration minus ``child_s``, so the self times of a tree add up
to its root's duration. Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "ocr_table_extractor_to_csv_ray"


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.batch = None
        self._stack: list = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------
    def open(self, name: str, tag=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if tag is None and parent >= 0:
            tag = self.spans[parent][5]
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.batch, tag, 0.0])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        s = self.spans[idx]
        s[2] = time.perf_counter()
        self._stack.pop()
        if s[3] >= 0:
            self.spans[s[3]][6] += s[2] - s[1]

    def timed(self, name: str, fn, on_result=None, tag_of=None):
        """Wrap ``fn`` so every call records a span named ``name``;
        ``tag_of(args)`` may tag it and ``on_result(result)`` sees each
        return value (used for counts)."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name, tag_of(args) if tag_of else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(out)
            return out
        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ----------------------------------------------------------
    def patch_function(self, func, wrapper) -> None:
        """Replace ``func`` at every package module attribute bound to it."""
        bound = [(mod, attr) for name, mod in list(sys.modules.items())
                 if mod is not None and name.startswith(PACKAGE)
                 for attr, val in list(vars(mod).items()) if val is func]
        if not bound:
            raise LookupError(f"no module binds {func!r}")
        for mod, attr in bound:
            self._undo.append((mod, attr, func))
            setattr(mod, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            mod, attr, old = self._undo.pop()
            setattr(mod, attr, old)

    # -- results -----------------------------------------------------------
    def self_seconds(self) -> dict:
        """``{(name, tag): self seconds}`` summed over every span."""
        out: dict = defaultdict(float)
        for name, t0, t1, _parent, _batch, tag, child in self.spans:
            out[(name, tag)] += (t1 - t0) - child
        return out

    def durations(self, name: str, tag=None) -> list:
        return [s[2] - s[1] for s in self.spans
                if s[0] == name and (tag is None or s[5] == tag)]

    def root_seconds(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0)

    def dump(self, path: str) -> None:
        fields = ("name", "start", "end", "parent", "batch", "tag", "child_s")
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(fields, s))) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
