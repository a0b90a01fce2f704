"""connected_components vs a pure-Python union-find oracle.

Random graphs (several seeds/densities), int64 and string ids in every
tier, a long chain (diameter stress: propagation must iterate, not just
seed), disjoint cliques, self-loops/duplicate edges, empty input, and
determinism.
"""

import logging

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from ocr_table_extractor_to_csv_ray.functions import graph
from ocr_table_extractor_to_csv_ray.functions.graph import (
    connected_components)

ID_DTYPES = ("int64", "string")


def _uf_components(pairs):
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return sorted((n, find(n)) for n in parent)


def _as_ids(pairs, dtype):
    # unpadded names, so string order differs from numeric order
    # ("n10" < "n9") and the oracle's min follows the string order
    if dtype == "int64":
        return pairs
    return [(f"n{a}", f"n{b}") for a, b in pairs]


def _run(pairs, **kw):
    src = pa.array([a for a, _ in pairs])
    dst = pa.array([b for _, b in pairs])
    ds = rd.from_arrow(pa.table({"src": src, "dst": dst}))
    if len(pairs) > 3:
        ds = ds.repartition(4)
    kw.setdefault("num_buckets", 4)  # tiny graphs; keep CI fast
    out = connected_components(ds, **kw)
    return sorted((r["node"], r["component"]) for r in out.take_all())


@pytest.mark.parametrize("seed,n,m", [(0, 40, 25), (1, 60, 60),
                                      (2, 80, 200), (3, 30, 8)])
def test_random_graphs_match_union_find(ray_session, seed, n, m):
    rng = np.random.default_rng(seed)
    pairs = [(int(a), int(b))
             for a, b in zip(rng.integers(0, n, m), rng.integers(0, n, m))]
    assert _run(pairs) == _uf_components(pairs)


@pytest.mark.parametrize("tier_kw", [
    {},                                        # local (driver) tier
    {"local_threshold": 0},                    # streaming broadcast tier
    {"local_threshold": 0, "broadcast_threshold": 0},  # join tier
])
def test_all_three_tiers_bit_equal(ray_session, tier_kw):
    # the same graph through every size-adaptive tier must produce the
    # identical component table for every id dtype (the tiers differ
    # only in WHERE the identical min-update rule runs)
    rng = np.random.default_rng(11)
    pairs = [(int(a), int(b))
             for a, b in zip(rng.integers(0, 70, 90),
                             rng.integers(0, 70, 90))]
    for dtype in ID_DTYPES:
        ids = _as_ids(pairs, dtype)
        assert _run(ids, **tier_kw) == _uf_components(ids), dtype


def test_long_chain_needs_propagation(ray_session):
    # path graph 0-1-...-15: diameter 15 — the seed step alone cannot
    # solve it, so this exercises true multi-round propagation
    pairs = [(i, i + 1) for i in range(15)]
    got = _run(pairs)
    assert got == [(i, 0) for i in range(16)]


def test_disjoint_cliques_and_duplicates(ray_session):
    pairs = []
    for base in (0, 100, 200):
        nodes = range(base, base + 5)
        pairs += [(a, b) for a in nodes for b in nodes]  # incl. self-loops
    pairs += pairs[:7]  # duplicate edges are harmless
    got = _run(pairs)
    assert got == [(base + i, base) for base in (0, 100, 200)
                   for i in range(5)]


@pytest.mark.parametrize("tier_kw", [
    {},                                        # local (driver) tier
    {"local_threshold": 0},                    # streaming broadcast tier
    {"local_threshold": 0, "broadcast_threshold": 0},  # join tier
])
def test_pointer_jumping_equivalent_all_tiers(ray_session, tier_kw):
    # same fixpoint as hash-min on random graphs, in every tier, for
    # every id dtype
    rng = np.random.default_rng(23)
    pairs = [(int(a), int(b))
             for a, b in zip(rng.integers(0, 70, 90),
                             rng.integers(0, 70, 90))]
    for dtype in ID_DTYPES:
        ids = _as_ids(pairs, dtype)
        assert (_run(ids, mode="pointer_jumping", **tier_kw)
                == _uf_components(ids)), dtype


def test_pointer_jumping_contracts_long_chain(ray_session):
    # path graph of diameter 300: hash-min needs O(diameter) rounds and
    # must FAIL its 24-round budget; pointer jumping contracts distances
    # exponentially and converges well inside the same budget
    pairs = [(i, i + 1) for i in range(300)]
    with pytest.raises(RuntimeError, match="did not converge"):
        _run(pairs, max_iters=24)
    got = _run(pairs, max_iters=24, mode="pointer_jumping")
    assert got == [(i, 0) for i in range(301)]
    # and in the join tier too (the distributed shortcut self-join);
    # budget sized log-style, far below the 300-round hash-min need
    got_join = _run(pairs, max_iters=24, mode="pointer_jumping",
                    local_threshold=0, broadcast_threshold=0)
    assert got_join == [(i, 0) for i in range(301)]


def test_unknown_mode_rejected(ray_session):
    with pytest.raises(ValueError, match="unknown"):
        _run([(0, 1)], mode="frontier")


def test_empty_edges(ray_session):
    src = pa.array([], pa.int64())
    ds = rd.from_arrow(pa.table({"src": src, "dst": src}))
    assert connected_components(ds).count() == 0


def test_join_tier_block_count_stays_bounded(ray_session):
    # regression: each join-tier round once GREW the label table's
    # block count (hash_join unions the two block lists; the shuffle's
    # reducer count tracks input blocks) — doubling per round under
    # pointer jumping, so a 300-chain went 0.6 s -> 61 s per round by
    # iteration 5. The per-round repartition cap makes the returned
    # table (last round's labels through a block-preserving rename)
    # land at <= num_buckets blocks no matter how many rounds ran.
    pairs = [(i, i + 1) for i in range(60)]  # diameter forces rounds
    src = pa.array([a for a, _ in pairs], pa.int64())
    dst = pa.array([b for _, b in pairs], pa.int64())
    ds = rd.from_arrow(pa.table({"src": src, "dst": dst})).repartition(4)
    for mode in ("hash_min", "pointer_jumping"):
        out = connected_components(
            ds, mode=mode, num_buckets=4, max_iters=64,
            local_threshold=0, broadcast_threshold=0).materialize()
        assert out.num_blocks() <= 4, (mode, out.num_blocks())
        assert sorted(
            (r["node"], r["component"]) for r in out.take_all()
        ) == [(i, 0) for i in range(61)]


def test_sever_stats_reaches_ray_lineage(ray_session):
    # _sever_stats reaches into Ray internals and only logs when they
    # move; this pins the attribute so a Ray upgrade that moves it
    # fails here instead of silently regrowing the stats chain
    ds = rd.range(8).map_batches(lambda t: t,
                                 batch_format="pyarrow").materialize()
    stats = ds._plan._snapshot_stats
    assert stats is not None and hasattr(stats, "parents")
    assert graph._sever_stats(ds)._plan._snapshot_stats.parents == []


def test_sever_stats_warns_once(caplog):
    graph._warn_stats_moved.cache_clear()
    with caplog.at_level(logging.WARNING, logger=graph.__name__):
        graph._sever_stats(object())
        graph._sever_stats(object())
    assert len(caplog.records) == 1


def test_deterministic(ray_session):
    rng = np.random.default_rng(7)
    pairs = [(int(a), int(b))
             for a, b in zip(rng.integers(0, 50, 40),
                             rng.integers(0, 50, 40))]
    assert _run(pairs) == _run(pairs)


def _py_pagerank(pairs, iterations=10, damping=85, unit=10**6):
    """Sequential exact replay of the fixed-point algorithm."""
    from collections import Counter
    edges = set()
    for a, b in pairs:
        edges.add((a, b))
        edges.add((b, a))
    nodes = sorted({x for e in edges for x in e})
    deg = Counter(a for a, _ in edges)
    rank = {n: unit for n in nodes}
    base = unit * (100 - damping) // 100
    for _ in range(iterations):
        inflow = {n: 0 for n in nodes}
        for a, b in edges:
            inflow[b] += rank[a] * damping // (100 * deg[a])
        rank = {n: inflow[n] + base for n in nodes}
    return sorted(rank.items())


@pytest.mark.parametrize("seed,n,m,iters,thresh,local", [
    (0, 30, 60, 5, 0, 0),           # join path (threshold below n)
    (1, 50, 40, 10, 2_000_000, 0),  # streaming broadcast path
    (0, 30, 60, 5, 2_000_000, 0),   # broadcast on the join graph ...
    (0, 30, 60, 5, 2_000_000, 4_000_000),  # ... and the local tier,
    (1, 50, 40, 10, 2_000_000, 4_000_000),  # proving all three ≡
])
def test_pagerank_matches_sequential_replay(ray_session, seed, n, m,
                                            iters, thresh, local):
    # the (0,30,60,5) graph runs through all three tiers, proving
    # join ≡ streaming-broadcast ≡ driver-local bit-for-bit
    from ocr_table_extractor_to_csv_ray.functions.graph import pagerank
    rng = np.random.default_rng(seed)
    pairs = [(int(a), int(b))
             for a, b in zip(rng.integers(0, n, m), rng.integers(0, n, m))]
    # duplicate edges must NOT double contributions
    pairs += pairs[:5]
    src = pa.array([a for a, _ in pairs], pa.int64())
    dst = pa.array([b for _, b in pairs], pa.int64())
    ds = rd.from_arrow(pa.table({"src": src, "dst": dst})).repartition(4)
    got = sorted((r["node"], r["rank_micro"])
                 for r in pagerank(ds, iterations=iters, num_buckets=4,
                                   broadcast_threshold=thresh,
                                   local_threshold=local).take_all())
    assert got == _py_pagerank(pairs, iterations=iters)
