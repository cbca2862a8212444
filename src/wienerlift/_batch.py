"""Batch entry points over stacked paths (internal).

The kernels live once, in `lifts` and `seminorms`, and take any number of
leading axes: values (..., n+1, d), basepoint tensors (..., n+1, d, ...),
entry column blocks.  A single path is the batch with no leading axis: the
Monte Carlo route and the eta0 search pass values of shape (C, n+1, d), and
`norm` and the selftest pass one lift's own arrays.  Graded norms read
level-2/3 entries from the basepoint tensors column by column and never
build a surface.
"""

from __future__ import annotations

import numpy as np

from .grids import TimeGrid
from .lifts import _pair_base, entry_columns
from .seminorms import AmbientSpec, column_norm, symbol_norm


def pair_base_batch(values: np.ndarray, scheme: str) -> np.ndarray:
    """Level-2 basepoint tensors for a batch: (C, n+1, d, d)."""
    return _pair_base(values, values, scheme)


def symbol_norms(
    ambient: AmbientSpec,
    grid: TimeGrid,
    values: np.ndarray,
    base2: np.ndarray | None = None,
    base3: np.ndarray | None = None,
):
    """(symbol, its norm over the leading axes) for each symbol of `ambient`, in order.

    Level-2/3 entries stream from the basepoint tensors: O(C n) memory, no surface.
    """
    for sym in ambient.symbols:
        if sym.degree == 1:
            norm = symbol_norm(values[..., sym.indices[0] - 1], grid, sym)
        elif sym.arity != 2:
            raise ValueError(f"symbol {sym.name!r} of degree {sym.degree} needs a two-parameter payload")
        else:
            columns = entry_columns(values, base2, base3, sym.indices)
            norm = column_norm(columns, values.shape[:-2], grid.n_steps, sym.norm, grid.dt)
        yield sym, norm


def homogeneous_norm_batch(
    ambient: AmbientSpec,
    grid: TimeGrid,
    values: np.ndarray,
    base2: np.ndarray | None = None,
    base3: np.ndarray | None = None,
) -> np.ndarray | float:
    """Homogeneous norms sum_tau ||X_tau||^(1/degree) over the leading axes; one path gets a built-in float."""
    total = 0.0
    for sym, norm in symbol_norms(ambient, grid, values, base2, base3):
        total += norm ** (1.0 / sym.degree)
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
