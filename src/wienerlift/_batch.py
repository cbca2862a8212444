"""Monte Carlo entry points over stacked paths (internal).

The kernels live once, in `lifts` and `seminorms`, and take any number of
leading axes: values (..., n+1, d), basepoint tensors (..., n+1, d, ...),
entry surfaces (..., n+1, n+1).  A single path is the batch with no leading
axis.  The names here are the batch route's calls into those kernels, on
values of shape (C, n+1, d).
"""

from __future__ import annotations

import numpy as np

from .grids import TimeGrid
from .lifts import _pair_base, _symbol_payload
from .seminorms import AmbientSpec, symbol_norm


def pair_base_batch(values: np.ndarray, scheme: str) -> np.ndarray:
    """Level-2 basepoint tensors for a batch: (C, n+1, d, d)."""
    return _pair_base(values, values, scheme)


def homogeneous_norm_batch(
    ambient: AmbientSpec,
    grid: TimeGrid,
    values: np.ndarray,
    base2: np.ndarray | None = None,
    base3: np.ndarray | None = None,
) -> np.ndarray | float:
    """Homogeneous norms over the leading axes; one path gets a built-in float."""
    total = 0.0
    for sym in ambient.symbols:
        payload = _symbol_payload(sym, values, base2, base3)
        total += symbol_norm(payload, grid, sym) ** (1.0 / sym.degree)
    return total


def parallel_chunks(total: int, chunk: int, worker, threads: int = 1) -> None:
    """Run worker(start, count) over disjoint chunks of 0..total.

    Chunk content depends only on its start index (derived-seed contract) and
    each worker writes a disjoint output slice, so any schedule gives
    identical results; threads > 1 uses a thread pool.
    """
    tasks = [(start, min(chunk, total - start)) for start in range(0, total, chunk)]
    if threads <= 1:
        for start, count in tasks:
            worker(start, count)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(lambda t: worker(*t), tasks))
