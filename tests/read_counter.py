"""Count how often a Ray Data program executes each Parquet read.

``count_reads()`` wraps ``ExecutionPlan.execute`` and
``ExecutionPlan.execute_to_iterator``. Every call that runs a plan walks
the plan's logical DAG to its ``Read`` operators, stopping at
materialized ``InputData``, and adds one execution per ``Read`` reached,
keyed by the paths it reads. A partial execution (``schema()``,
``take(1)``) counts like a full one; a plan whose output is already
computed counts nothing.
"""

from __future__ import annotations

import contextlib
from collections import Counter

from ray.data._internal.logical.operators.read_operator import Read
from ray.data._internal.plan import ExecutionPlan


def _reads(plan: ExecutionPlan) -> list:
    out, seen, stack = [], set(), [plan._logical_plan.dag]
    while stack:
        op = stack.pop()
        if id(op) in seen:
            continue
        seen.add(id(op))
        if isinstance(op, Read):
            paths = getattr(op._datasource, "_unresolved_paths", None)
            out.append(str(paths) if paths else op.name)
        else:
            stack.extend(op.input_dependencies)
    return out


@contextlib.contextmanager
def count_reads():
    """Yields a ``Counter`` of read path → executions inside the block."""
    counts: Counter = Counter()
    originals = {n: getattr(ExecutionPlan, n)
                 for n in ("execute", "execute_to_iterator")}

    def counting(orig):
        def run(self, *a, **kw):
            if not self.has_computed_output():
                counts.update(_reads(self))
            return orig(self, *a, **kw)
        return run

    for name, orig in originals.items():
        setattr(ExecutionPlan, name, counting(orig))
    try:
        yield counts
    finally:
        for name, orig in originals.items():
            setattr(ExecutionPlan, name, orig)
