"""Distributed graph connectivity over edge Datasets.

:func:`connected_components` implements hash-min label propagation —
the standard distributed CC algorithm (HCC, Kang et al., ICDM'09;
Pregel-style min-label flooding). Every round floods each node's label
to its neighbors and keeps the smallest label ever seen per node.
Labels only ever drop and are bounded below by the component minimum,
so "no label dropped this round" is an exact fixpoint witness (no
float tolerance anywhere). It is the repo's only connected-components
code: functions/dedup.py clusters its verified near-duplicate pairs
through it.

Both operators here pick one of three tiers from the input size. The
two vector tiers share one runner (:func:`_edge_scatter`), to which each
operator hands its per-edge update once, as a numpy scatter kernel over
``(src index, nbr index, state)``; the join tiers share one per-round
checkpoint (:func:`_checkpoint`):

- **local tier**: the doubled adjacency fits the driver, so the kernel
  runs in-process. Each distributed round costs a task-scheduling
  floor (~1 s) regardless of data size — for a KB-scale filtered graph
  that floor IS the runtime.
- **broadcast tier**: the per-node state fits the driver. Each round
  the state ships once via ``ray.put`` and is ONE shuffle-free
  streaming pass over the materialized adjacency; per-batch partials
  (touched nodes only) merge into a dense driver vector with the same
  ``ufunc.at`` the kernel scatters with.
- **join tier**: per round one bucketed hash join
  (functions.join.hash_join) of the state table onto the adjacency +
  one :func:`~ocr_table_extractor_to_csv_ray.functions.agg.grouped_agg`
  whose shuffle is pre-shrunk by a per-batch partial. The state table
  is O(n_nodes) rows and IS materialized between rounds — re-deriving
  it would replay the whole upstream chain each round (same checkpoint
  trade as functions/clustering.py). Only per-block scalars reach the
  driver.

CC iteration count = O(graph diameter). Dedup/similarity graphs this
engine feeds it (near-dup clusters, co-occurrence buckets) have small
diameters; for adversarial long chains the opt-in
``mode="pointer_jumping"`` adds one label-of-label shortcut per round
(labels point at nodes, so the label table doubles as a parent-pointer
table), contracting chains exponentially — O(log diameter) rounds.
Deliberately not the default because in the join tier the shortcut is
a second per-round shuffle (a self-join of the label table) that
small-diameter graphs never pay for.

The reference has no graph operator; this is part of the
beyond-reference corpus layer.
"""

from __future__ import annotations

import functools
import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .join import hash_join


def _ids(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """One contiguous id array; integer ids widen to int64, any other
    orderable dtype (string ``doc_id``\\ s) passes through as typed."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if pa.types.is_integer(arr.type):
        arr = pc.cast(arr, pa.int64())
    return arr


def _adjacency(src: str, dst: str):
    """Edge batch → doubled adjacency ``(node, nbr)``, deduped within
    the batch only. Ray's schema-less empty blocks pass through."""
    def to_adj(t: pa.Table) -> pa.Table:
        if src not in t.column_names:
            return t
        s, d = _ids(t[src]), _ids(t[dst])
        both = pa.table({"node": pa.concat_arrays([s, d]),
                         "nbr": pa.concat_arrays([d, s])})
        return both.group_by(["node", "nbr"]).aggregate([]).select(
            ["node", "nbr"])
    return to_adj


def _sever_stats(mat):
    """Cut the DatasetStats parent chain on a per-round materialized
    table. Each round's stats record the previous round's stats object
    as a parent, so over an O(diameter) loop the chain depth grows by
    the full per-round plan depth every round — and Ray's recursive
    ``DatasetStats.to_summary()`` (run by the streaming executor at
    every shutdown) overflows the Python recursion limit after ~60
    rounds. Blocks are already materialized; only lineage *metadata*
    is dropped."""
    try:
        stats = mat._plan._snapshot_stats
        if stats is not None:
            stats.parents = []
    except AttributeError:
        _warn_stats_moved()
    return mat


@functools.cache
def _warn_stats_moved() -> None:
    """Once per process: the Ray internals _sever_stats cuts moved."""
    logging.getLogger(__name__).warning(
        "Ray moved Dataset._plan._snapshot_stats: iterative graph loops "
        "keep their full stats lineage and may hit the recursion limit "
        "after ~60 rounds")


def _checkpoint(ds, num_buckets: int):
    """Join-tier per-round checkpoint. The repartition (task-local
    split/merge, not an all-to-all) caps the state table at
    ``num_buckets`` blocks: each round's hash_join unions the left and
    right block lists and the shuffle's reducer count tracks its input
    block count, so an uncapped state table grows every round —
    linearly, and DOUBLING under pointer jumping (the self-join feeds
    labels in twice) — and per-round shuffle cost blows up with it.
    Measured on a 300-chain at 4 CPUs: rounds went 0.6 s → 61 s by
    iteration 5 uncapped."""
    return _sever_stats(ds.repartition(num_buckets).materialize())


def _edge_scatter(adj, nodes: np.ndarray, kernel, ufunc, identity: int):
    """One round of a per-edge update, in the local or broadcast tier.

    ``kernel(src_i, nbr_i, state)`` returns ``(target_idx, values)``
    for a batch of adjacency rows given as positions into the sorted id
    array ``nodes``; the returned ``scatter(state)`` folds every edge's
    values into an int64 vector of ``len(nodes)`` with ``ufunc.at``
    starting from ``identity``.

    ``adj`` is either the collected adjacency (a pandas frame — local
    tier, positions computed once) or a materialized Dataset (broadcast
    tier: ``nodes`` and the kernel ship once, the state once per round,
    and each batch returns only the touched positions). ``ufunc`` is
    associative and commutative in exact int64, so both tiers are
    bit-equal."""
    import ray

    n = len(nodes)
    if not hasattr(adj, "map_batches"):
        src_i = np.searchsorted(nodes, adj["node"].to_numpy())
        nbr_i = np.searchsorted(nodes, adj["nbr"].to_numpy())

        def scatter(state):
            acc = np.full(n, identity, np.int64)
            ufunc.at(acc, *kernel(src_i, nbr_i, state))
            return acc
        return scatter

    nodes_ref, kernel_ref = ray.put(nodes), ray.put(kernel)

    def scatter(state):
        state_ref = ray.put(state)

        def partial(t: pa.Table) -> pa.Table:
            nd, kern = ray.get(nodes_ref), ray.get(kernel_ref)
            acc = np.full(len(nd), identity, np.int64)
            ufunc.at(acc, *kern(
                np.searchsorted(nd, _ids(t["node"]).to_numpy(
                    zero_copy_only=False)),
                np.searchsorted(nd, _ids(t["nbr"]).to_numpy(
                    zero_copy_only=False)),
                ray.get(state_ref)))
            touched = np.nonzero(acc != identity)[0]
            return pa.table({"idx": pa.array(touched.astype(np.int64)),
                             "v": pa.array(acc[touched])})

        acc = np.full(n, identity, np.int64)
        for b in adj.map_batches(partial, batch_format="pyarrow"
                                 ).iter_batches(batch_format="pyarrow"):
            ufunc.at(acc, b["idx"].to_numpy(zero_copy_only=False),
                     b["v"].to_numpy(zero_copy_only=False))
        return acc
    return scatter


def _until_fixpoint(step, max_iters: int) -> None:
    """Run ``step()`` — one round, returning how many labels dropped —
    until a round drops none; raise after ``max_iters`` rounds."""
    for _ in range(max_iters):
        if step() == 0:
            return
    raise RuntimeError(
        f"connected_components did not converge in {max_iters} "
        "iterations — graph diameter exceeds the bound; raise "
        "max_iters or pass mode='pointer_jumping'")


def _dropped(labels) -> int:
    """Exact count of nodes whose label dropped this round
    (``lbl < own``), via per-block partials — never the native global
    aggregate, whose ``repartition(1)`` + per-row combine costs seconds
    per call (see functions/agg.py)."""
    parts = labels.map_batches(
        lambda t: pa.table({"n": pa.array(
            [pc.sum(pc.less(t["lbl"], t["own"])).as_py() or 0],
            pa.int64())}),
        batch_format="pyarrow").to_pandas()
    return int(parts["n"].sum()) if len(parts) else 0


def connected_components(edges, src: str = "src", dst: str = "dst",
                         max_iters: int = 64, num_buckets: int = 16,
                         broadcast_threshold: int = 2_000_000,
                         local_threshold: int = 4_000_000,
                         mode: str = "hash_min"):
    """Connected components of the undirected graph given by an edge
    Dataset. Returns a Dataset ``(node, component)`` where
    ``component`` is the minimum node id in the node's component.

    Ids may be any orderable dtype: integer ids come out as int64,
    string ids (functions/dedup.py's ``doc_id``\\ s) as strings. Nodes
    are exactly the ids appearing in ``edges`` (either endpoint);
    isolated nodes never enter the edge list, so callers who need them
    union ``(node, node)`` rows afterwards. Duplicate and self-loop
    edges are harmless (min is idempotent), so no global edge dedup is
    performed — per-batch dedup inside the adjacency kernel is a pure
    shuffle-size optimization.

    The input size picks the tier (see the module docstring): the
    doubled adjacency is materialized once and, at ≤
    ``local_threshold`` rows, collected and solved in-process BEFORE
    any shuffle — a small graph costs one pass and one collect.
    Otherwise one seed ``grouped_agg`` builds the label table; at ≤
    ``broadcast_threshold`` nodes it is collected and every round is
    one streaming broadcast pass, above it every round is a hash join
    + ``grouped_agg``. The vector tiers label by int64 positions into
    the sorted unique ids, starting from the identity (min over
    positions is min over ids, for ints and strings alike; the output
    is ``nodes[lbl]``). The join tier carries ids; its flood also
    emits each node's own label in an ``own`` column (flooded-in rows
    carry the dtype's least value), so ``min(lbl)`` / ``max(own)``
    per node yields the exact count of dropped labels with no extra
    shuffle. All tiers apply the identical min-update rule, so their
    fixpoints are bit-equal.

    Every tier iterates until a round drops no label and raises
    ``RuntimeError`` when that takes more than ``max_iters`` rounds —
    it never returns a partial labeling.

    ``mode="pointer_jumping"`` (opt-in, for high-diameter graphs):
    every round appends one shortcut step ``lbl(v) ← lbl(lbl(v))``
    after the flood — valid because a label always names a node of the
    same component whose own label is never larger, which makes the
    label table its own parent-pointer table. Distances to the
    component minimum contract exponentially, so convergence takes
    O(log diameter) rounds instead of O(diameter), at the cost of one
    extra label-table self-join (join tier) or an O(n_nodes) gather
    (vector tiers) per round.
    """
    import ray.data as rd

    from .agg import grouped_agg

    if mode not in ("hash_min", "pointer_jumping"):
        raise ValueError(f"unknown connected_components mode: {mode!r}")
    jump = mode == "pointer_jumping"

    adj = edges.map_batches(_adjacency(src, dst),
                            batch_format="pyarrow").materialize()
    if adj.count() <= local_threshold:
        adj = adj.to_pandas()
        if adj.empty:
            empty = pa.array([], pa.int64())
            return rd.from_arrow(pa.table({"node": empty,
                                           "component": empty}))
        nodes = np.unique(adj["node"].to_numpy())
    else:
        def seed(t: pa.Table) -> pa.Table:
            # init fused with round 0: each endpoint proposes both ids
            node, nbr = _ids(t["node"]), _ids(t["nbr"])
            g = pa.table({"node": pa.concat_arrays([node, node, nbr]),
                          "lbl": pa.concat_arrays([node, nbr, nbr])}
                         ).group_by("node").aggregate([("lbl", "min")])
            return pa.table({"node": g["node"], "lbl": g["lbl_min"]})

        labels = grouped_agg(adj.map_batches(seed, batch_format="pyarrow"),
                             "node", {"lbl": ("lbl", "min")},
                             num_buckets=num_buckets).materialize()
        if labels.count() > broadcast_threshold:
            return _components_join(adj, labels, jump, max_iters,
                                    num_buckets)
        nodes = np.unique(labels.to_pandas()["node"].to_numpy())

    scatter = _edge_scatter(adj, nodes, lambda s, nb, lbl: (nb, lbl[s]),
                            np.minimum, np.iinfo(np.int64).max)
    lbl = np.arange(len(nodes), dtype=np.int64)

    def step() -> int:
        nonlocal lbl
        new = np.minimum(lbl, scatter(lbl))
        if jump:
            new = new[new]
        dropped = int(np.count_nonzero(new < lbl))
        lbl = new
        return dropped

    _until_fixpoint(step, max_iters)
    return rd.from_arrow(pa.table({"node": pa.array(nodes),
                                   "component": pa.array(nodes[lbl])}))


def _components_join(adj, labels, jump: bool, max_iters: int,
                     num_buckets: int):
    """Join tier of :func:`connected_components`: ``labels`` is the
    seeded ``(node, lbl)`` table; nothing O(n_nodes) visits the
    driver."""
    from .agg import grouped_agg

    def flood(t: pa.Table) -> pa.Table:
        # label flows across the edge to the neighbor; keep the node's
        # own label too so min never regresses, and record it in `own`,
        # where flooded-in rows carry the dtype's least value
        # (grouped_agg's own partial does the per-batch shrink)
        lbl = _ids(t["lbl"])
        least = pa.scalar(np.iinfo(np.int64).min
                          if pa.types.is_integer(lbl.type) else "", lbl.type)
        return pa.table({
            "node": pa.concat_arrays([_ids(t["nbr"]), _ids(t["node"])]),
            "lbl": pa.concat_arrays([lbl, lbl]),
            "own": pa.concat_arrays([pa.repeat(least, len(lbl)), lbl])})

    def shortcut(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["lbl"], "orig": t["node"],
                         "own": t["own"]})

    def unshortcut(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["orig"], "lbl": t["lbl"],
                         "own": t["own"]})

    def step() -> int:
        nonlocal labels
        joined = hash_join(adj, labels.select_columns(["node", "lbl"]),
                           key="node", num_buckets=num_buckets)
        labels = _checkpoint(grouped_agg(
            joined.map_batches(flood, batch_format="pyarrow"), "node",
            {"lbl": ("lbl", "min"), "own": ("own", "max")},
            num_buckets=num_buckets), num_buckets)
        if jump:
            # shortcut shuffle: look up each label's OWN label via a
            # self-join of the O(n_nodes) label table (every label is a
            # node id, so every pointer target has exactly one row)
            labels = _checkpoint(hash_join(
                labels.map_batches(shortcut, batch_format="pyarrow"),
                labels.select_columns(["node", "lbl"]), key="node",
                num_buckets=num_buckets,
            ).map_batches(unshortcut, batch_format="pyarrow"), num_buckets)
        return _dropped(labels)

    _until_fixpoint(step, max_iters)
    return labels.map_batches(
        lambda t: pa.table({"node": t["node"], "component": t["lbl"]}),
        batch_format="pyarrow")


def pagerank(edges, src: str = "src", dst: str = "dst",
             iterations: int = 10, damping_pct: int = 85,
             unit: int = 1_000_000, num_buckets: int = 16,
             broadcast_threshold: int = 2_000_000,
             local_threshold: int = 4_000_000):
    """Fixed-point integer PageRank over the undirected graph (each
    edge doubled). Returns ``(node:int64, rank_micro:int64)``.

    All arithmetic is exact int64: each node starts at ``unit``
    micro-units; every iteration each node sends
    ``floor(rank * damping_pct / (100 * degree))`` along each edge
    (floored PER EDGE, so the global sum is order-independent —
    associativity is what makes the distributed result bit-equal to a
    sequential replay), and receives a teleport base of
    ``unit * (100 - damping_pct) / 100``. Unit drift from flooring is
    part of the defined algorithm, not error — the point is a
    DETERMINISTIC iterative rank both a test oracle and a 256-node
    cluster reproduce bit-for-bit.

    Scale shape — the same three tiers as :func:`connected_components`:

    - ``n_nodes <= broadcast_threshold``: the rank vector is broadcast
      once per iteration and every iteration is ONE streaming pass over
      the adjacency (or, at ≤ ``local_threshold`` adjacency rows, an
      in-process pass over the collected adjacency) — no shuffle at
      all; O(n_nodes) driver memory (same bounded-partial contract as
      functions/clustering.py's kmeans and the HLL sketch merge).
    - above the threshold: the degree-annotated adjacency is built once
      and materialized (consumed ``iterations`` times); per iteration
      one bucketed hash join (ranks are O(n_nodes) rows, never
      collected) + one pre-shrunk groupby-sum. Nothing but block
      metadata reaches the driver.

    All tiers floor per edge, so they are bit-identical.
    """
    import ray.data as rd

    from .agg import grouped_agg

    # global edge dedup IS required here (unlike connected_components):
    # a duplicate edge would double a contribution. grouped_agg, not
    # the native aggregate: edge cardinality is the largest key space
    # in the pipeline (see functions/agg.py for the per-row-combine
    # pathology this avoids)
    adj = grouped_agg(edges.map_batches(_adjacency(src, dst),
                                        batch_format="pyarrow"),
                      ["node", "nbr"], {}, num_buckets=num_buckets,
                      count="_c").select_columns(["node", "nbr"])

    def deg_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("node").aggregate([("nbr", "count")])
        return pa.table({"node": g["node"],
                         "deg": pc.cast(g["nbr_count"], pa.int64())})

    deg = grouped_agg(adj.map_batches(deg_partial, batch_format="pyarrow"),
                      "node", {"deg": ("deg", "sum")},
                      num_buckets=num_buckets).materialize()
    n_nodes = deg.count()
    if n_nodes == 0:
        return deg.map_batches(
            lambda t: pa.table({"node": pa.array([], pa.int64()),
                                "rank_micro": pa.array([], pa.int64())}),
            batch_format="pyarrow")
    base = unit * (100 - damping_pct) // 100

    if n_nodes <= broadcast_threshold:
        deg_df = deg.to_pandas()          # <= broadcast_threshold rows
        nodes = np.sort(deg_df["node"].to_numpy().astype(np.int64))
        deg_arr = np.empty(len(nodes), np.int64)
        deg_arr[np.searchsorted(nodes, deg_df["node"].to_numpy())] = \
            deg_df["deg"].to_numpy()

        def send(s, nb, ranks):
            return nb, ranks[s] * np.int64(damping_pct) \
                // (np.int64(100) * deg_arr[s])

        adj = adj.materialize()           # consumed `iterations` times
        if adj.count() <= local_threshold:
            adj = adj.to_pandas()
        scatter = _edge_scatter(adj, nodes, send, np.add, 0)
        ranks = np.full(len(nodes), unit, np.int64)
        for _ in range(iterations):
            ranks = scatter(ranks) + np.int64(base)
        return rd.from_arrow(pa.table({
            "node": pa.array(nodes), "rank_micro": pa.array(ranks)}))

    adj_deg = hash_join(adj, deg, key="node",
                        num_buckets=num_buckets).materialize()

    def init_ranks(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": _ids(t["node"]),
            "rank_micro": pa.array(
                np.full(t.num_rows, unit, np.int64))})

    ranks = deg.map_batches(init_ranks, batch_format="pyarrow") \
               .select_columns(["node", "rank_micro"]).materialize()

    for _ in range(iterations):
        joined = hash_join(adj_deg, ranks, key="node",
                           num_buckets=num_buckets, how="inner")

        def contrib(b) -> pa.Table:
            r = b["rank_micro"].to_numpy().astype(np.int64)
            d = b["deg"].to_numpy().astype(np.int64)
            send = r * np.int64(damping_pct) // (np.int64(100) * d)
            t = pa.table({"node": pa.array(
                b["nbr"].to_numpy().astype(np.int64)),
                "inflow": pa.array(send)})
            g = t.group_by("node").aggregate([("inflow", "sum")])
            return pa.table({"node": g["node"],
                             "inflow": g["inflow_sum"]})

        inflow = grouped_agg(
            joined.map_batches(contrib, batch_format="pandas"),
            "node", {"inflow": ("inflow", "sum")},
            num_buckets=num_buckets)

        def add_base(t: pa.Table) -> pa.Table:
            r = t["inflow"].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table({"node": _ids(t["node"]),
                             "rank_micro": pa.array(r + np.int64(base))})

        # every node has degree >= 1 in the doubled adjacency, so the
        # inflow table covers all nodes — no outer-join pad needed
        ranks = _checkpoint(inflow.map_batches(
            add_base, batch_format="pyarrow"), num_buckets)

    return ranks
