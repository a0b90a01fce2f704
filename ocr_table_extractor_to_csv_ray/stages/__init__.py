"""``map_batches`` stage callables: stateless geometry kernels and
stateful actor-pool classes (OCR, layout model)."""


def pool_size(requested: int) -> int:
    """Cap an actor pool two CPUs below the cluster's CPU count: a pool
    that claims every CPU starves the upstream read and downstream
    shuffle tasks, and the streaming executor stalls."""
    import ray
    if not ray.is_initialized():
        return requested
    cpus = int(ray.cluster_resources().get("CPU", requested + 2))
    return max(1, min(requested, cpus - 2))
