"""Cameron-Martin shifts, densities, and measure-change checks.

The log-density of the h-shifted Wiener measure against the unshifted one is
h_pw(x) - |h|^2/2, where the Paley-Wiener functional h_pw(x) is realized as
the grid Ito sum of h' against the increments of x.  Since h' is piecewise
constant, that sum is exact for the piecewise-linear class, and the algebraic
identities below (inversion, chain rule) hold to rounding rather than up to
discretization error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._batch import homogeneous_norm_batch, pair_base_batch, parallel_chunks
from .grids import (
    CameronMartinPath,
    GaussianSpec,
    SamplePath,
    TimeGrid,
    cm_inner,
    sample_values_batch,
)
from .lifts import _triple_base
from .seminorms import AmbientSpec, ambient_for_levels

REWEIGHT_FUNCTIONALS = ("sup-level1", "terminal-level1", "level2-entry", "hom-norm")


@dataclass(frozen=True)
class CmDensityEval:
    """log f_h(x) split into its Paley-Wiener and energy halves."""

    log_density: float
    paley_wiener_term: float
    half_norm_sq: float


def shift_path(x: SamplePath, h: CameronMartinPath) -> SamplePath:
    """Pointwise sum x + h on the shared grid."""
    if h.grid != x.grid:
        raise ValueError("grid mismatch between path and shift direction")
    if h.dim != x.dim:
        raise ValueError(f"dimension mismatch: path d={x.dim}, shift d={h.dim}")
    return SamplePath(x.grid, x.values + h.values)


def cm_log_density(x: SamplePath, h: CameronMartinPath) -> CmDensityEval:
    """Evaluate log f_h(x) = h_pw(x) - |h|^2_H / 2 on the grid.

    Valid as a density evaluation when x is Brownian-distributed; the grid
    Paley-Wiener sum is sum over cells and components of h' (x(t_{k+1}) -
    x(t_k)).
    """
    if h.grid != x.grid:
        raise ValueError("grid mismatch between path and shift direction")
    if h.dim != x.dim:
        raise ValueError(f"dimension mismatch: path d={x.dim}, shift d={h.dim}")
    pw = float(np.sum(h.derivative_values * x.increments))
    half_sq = 0.5 * cm_inner(h, h)
    return CmDensityEval(
        log_density=pw - half_sq, paley_wiener_term=pw, half_norm_sq=half_sq
    )


@dataclass(frozen=True)
class ReweightReport:
    functional: str
    n_samples: int
    estimate_lhs: float
    estimate_rhs: float
    se_lhs: float
    se_rhs: float
    z_score: float

    def to_document(self) -> dict:
        return {
            "functional": self.functional,
            "n_samples": self.n_samples,
            "estimate_lhs": self.estimate_lhs,
            "estimate_rhs": self.estimate_rhs,
            "se_lhs": self.se_lhs,
            "se_rhs": self.se_rhs,
            "z_score": self.z_score,
        }


def _functional_batch(
    name: str,
    values: np.ndarray,
    scheme: str,
    grid: TimeGrid,
    ambient: AmbientSpec,
    entry: tuple[int, int],
) -> np.ndarray:
    if name == "sup-level1":
        return np.max(values, axis=(1, 2))
    if name == "terminal-level1":
        return values[:, -1, 0]
    base2 = pair_base_batch(values, scheme)
    if name == "level2-entry":
        i, j = entry
        return base2[:, -1, i - 1, j - 1]
    if name == "hom-norm":
        level3 = ambient.max_degree >= 3
        base3 = _triple_base(values, values, values, scheme, pair_ab=base2) if level3 else None
        return homogeneous_norm_batch(ambient, grid, values, base2, base3)
    raise ValueError(f"functional must be one of {REWEIGHT_FUNCTIONALS}, got {name!r}")


def reweight_check(
    functional: str,
    h: CameronMartinPath,
    *,
    spec: GaussianSpec,
    grid: TimeGrid,
    n_samples: int,
    seed: int,
    scheme: str = "ito",
    ambient: AmbientSpec | None = None,
    entry: tuple[int, int] = (1, 1),
    chunk: int = 2048,
    threads: int = 1,
) -> ReweightReport:
    """Compare E[g(lift(x+h))] against E[g(lift(x)) f_h(x)] by Monte Carlo.

    Both estimators use common random numbers (the same driving paths), which
    is unbiased for each side and shrinks the variance of their difference;
    the z-score is computed from the paired differences.
    """
    if functional not in REWEIGHT_FUNCTIONALS:
        raise ValueError(f"functional must be one of {REWEIGHT_FUNCTIONALS}, got {functional!r}")
    if h.grid != grid:
        raise ValueError("grid mismatch between shift direction and run grid")
    if ambient is None:
        ambient = ambient_for_levels(spec.dim, 2, norm_kind="holder", alpha=0.4)
    hv = h.values
    hderiv = h.derivative_values
    half_sq = 0.5 * cm_inner(h, h)
    lhs = np.empty(n_samples)
    rhs = np.empty(n_samples)

    def worker(start, count):
        values = sample_values_batch(spec, grid, seed, count, start=start)
        shifted = values + hv[None]
        lhs[start : start + count] = _functional_batch(
            functional, shifted, scheme, grid, ambient, entry
        )
        g_plain = _functional_batch(functional, values, scheme, grid, ambient, entry)
        pw = np.einsum("ki,cki->c", hderiv, np.diff(values, axis=1))
        rhs[start : start + count] = g_plain * np.exp(pw - half_sq)

    parallel_chunks(n_samples, chunk, worker, threads)
    diff = lhs - rhs
    se_diff = float(np.std(diff, ddof=1) / math.sqrt(n_samples))
    z = float(np.mean(diff) / se_diff) if se_diff > 0 else 0.0
    return ReweightReport(
        functional=functional,
        n_samples=n_samples,
        estimate_lhs=float(np.mean(lhs)),
        estimate_rhs=float(np.mean(rhs)),
        se_lhs=float(np.std(lhs, ddof=1) / math.sqrt(n_samples)),
        se_rhs=float(np.std(rhs, ddof=1) / math.sqrt(n_samples)),
        z_score=z,
    )
