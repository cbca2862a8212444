"""Batch entry points over stacked paths (internal).

The kernels live once, in `lifts` and `seminorms`, and take any number of
batch axes: values (..., n+1, d) and basepoint tensors (..., n+1, d, ...)
lead with them, while the blocks of entries X_{s,t} put them last, so that
elementwise steps run along the batch and a block stays O(chunk * n).  A single path is the batch with no batch axis: the
Monte Carlo route and the eta0 search pass values of shape (C, n+1, d), and
the selftest passes one lift's own arrays.  `pair_base_batch` is
`lifts._pair_base`, the level-2 accumulator of one path per batch row, under
the name `asymptotics._collect_statistics` builds its base tensors with.
`homogeneous_norm_plan` is `seminorms.homogeneous_norm` over
`lifts.norm_plan`, which works out its dispatch once per (ambient, grid),
reads level-2/3 entries from the basepoint tensors a block at a time and
never builds a surface: the eta0 search evaluates thousands of small batches
on one grid.
`homogeneous_norm_batch` is that plan called once.
"""

from __future__ import annotations

import numpy as np

from .grids import TimeGrid
from .lifts import _pair_base, norm_plan
from .seminorms import AmbientSpec, homogeneous_norm


def pair_base_batch(values: np.ndarray, scheme: str) -> np.ndarray:
    """Level-2 basepoint tensors for a batch: (C, n+1, d, d)."""
    return _pair_base(values, scheme)


def homogeneous_norm_plan(ambient: AmbientSpec, grid: TimeGrid):
    """sum_tau ||X_tau||^(1/degree) for one (ambient, grid), dispatched once: (values, base2, base3) -> norms."""
    norms = norm_plan(ambient, grid)
    return lambda values, base2=None, base3=None: homogeneous_norm(norms(values, base2, base3))


def homogeneous_norm_batch(
    ambient: AmbientSpec,
    grid: TimeGrid,
    values: np.ndarray,
    base2: np.ndarray | None = None,
    base3: np.ndarray | None = None,
) -> np.ndarray | float:
    """`homogeneous_norm_plan` called once."""
    return homogeneous_norm_plan(ambient, grid)(values, base2, base3)


def parallel_chunks(total: int, chunk: int, worker, threads: int = 1) -> None:
    """Run worker(start, count) over disjoint chunks of 0..total.

    Chunk content depends only on its start index (derived-seed contract) and
    each worker writes a disjoint output slice, so any schedule gives
    identical results.  With two chunks or more and threads > 1 a pool of
    min(threads, chunks) workers runs them.
    """
    tasks = [(start, min(chunk, total - start)) for start in range(0, total, chunk)]
    workers = min(threads, len(tasks))
    # no pool for one worker: a one-worker pool raised peak RSS by 1.1-2.1 MB on three benchmark workloads
    if workers <= 1:
        for start, count in tasks:
            worker(start, count)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(lambda t: worker(*t), tasks))
