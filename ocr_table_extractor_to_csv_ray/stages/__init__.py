"""``map_batches`` stage callables: stateless geometry kernels and
stateful actor-pool classes (OCR, layout model)."""


def pool_size(*requests: int):
    """The one actor-pool sizing rule: one request per pool of a
    pipeline. Each pool gets at least 1 actor, and all of them together
    at most ``max(n_pools, cpus − 2)``: pools that claim every CPU
    starve the upstream read and downstream shuffle tasks, and the
    streaming executor stalls. Over that budget the actors are dealt
    one at a time, round-robin, to the pools still below their request.

    ``cpus`` is the Ray cluster's CPU count (the local CPUs when Ray is
    not started yet). One request returns an int, several a tuple."""
    import os

    import ray
    cpus = (int(ray.cluster_resources().get("CPU", 1))
            if ray.is_initialized() else os.cpu_count() or 1)
    free = max(len(requests), cpus - 2) - len(requests)
    sizes = [1] * len(requests)
    while free > 0 and any(s < r for s, r in zip(sizes, requests)):
        for i, r in enumerate(requests):
            if free > 0 and sizes[i] < r:
                sizes[i] += 1
                free -= 1
    return sizes[0] if len(sizes) == 1 else tuple(sizes)
