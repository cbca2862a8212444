"""Uniform time grids, Gaussian path samplers, and Cameron-Martin paths.

Paths live on uniform grids t_k = k*T/n.  Cameron-Martin elements are stored
through their piecewise-constant derivative, one value per grid cell, so the
induced path is piecewise linear with h(0) = 0 and the Dirichlet energy
sum(|h'|^2) * dt is exact for this class.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _files


class EmbeddingFailure(RuntimeError):
    """Circulant embedding of the fBm increment covariance is not PSD."""


def derived_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Counter-style per-sample stream: sample `index` of a run keyed by `seed`.

    Serial and parallel runs agree because the stream depends only on
    (seed, index), never on scheduling.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with points t_k = k*T/n_steps."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def points(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)


@dataclass(frozen=True, eq=False)
class SamplePath:
    """A d-dimensional path on a grid: values[k] = x(t_k), shape (n+1, d)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[1] == 0:
            raise ValueError(f"values must be 2-d (n_steps+1, dim) with dim >= 1, got shape {values.shape}")
        if values.shape[0] != self.grid.n_steps + 1:
            raise ValueError(
                f"values has {values.shape[0]} rows, grid needs {self.grid.n_steps + 1}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("values contains non-finite entries")
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def increments(self) -> np.ndarray:
        """Per-cell increments x(t_{k+1}) - x(t_k), shape (n, d)."""
        return np.diff(self.values, axis=0)


@dataclass(frozen=True, eq=False)
class CameronMartinPath:
    """Piecewise-linear path stored via its derivative, one value per cell."""

    grid: TimeGrid
    derivative_values: np.ndarray

    def __post_init__(self):
        deriv = np.asarray(self.derivative_values, dtype=float)
        if deriv.ndim != 2:
            raise ValueError(
                f"derivative_values must be 2-d (n_steps, dim), got shape {deriv.shape}"
            )
        if deriv.shape[0] != self.grid.n_steps:
            raise ValueError(
                f"derivative_values has {deriv.shape[0]} rows, grid needs {self.grid.n_steps}"
            )
        if not np.all(np.isfinite(deriv)):
            raise ValueError("derivative_values contains non-finite entries")
        object.__setattr__(self, "derivative_values", deriv)

    @property
    def dim(self) -> int:
        return self.derivative_values.shape[1]

    @property
    def values(self) -> np.ndarray:
        """Induced path values at grid points, h(0) = 0. Shape (n+1, d)."""
        out = np.zeros((self.grid.n_steps + 1, self.dim))
        np.cumsum(self.derivative_values * self.grid.dt, axis=0, out=out[1:])
        return out

    def as_sample_path(self) -> SamplePath:
        return SamplePath(self.grid, self.values)

    def __add__(self, other: "CameronMartinPath") -> "CameronMartinPath":
        if other.grid != self.grid:
            raise ValueError("grid mismatch between Cameron-Martin paths")
        return CameronMartinPath(self.grid, self.derivative_values + other.derivative_values)

    def __neg__(self) -> "CameronMartinPath":
        return CameronMartinPath(self.grid, -self.derivative_values)

    def scaled(self, c: float) -> "CameronMartinPath":
        return CameronMartinPath(self.grid, c * self.derivative_values)


def cm_inner(h: CameronMartinPath, k: CameronMartinPath) -> float:
    """Inner product int h'.k' dt, exact for the piecewise-constant class."""
    if h.grid != k.grid:
        raise ValueError("grid mismatch between Cameron-Martin paths")
    return float(np.sum(h.derivative_values * k.derivative_values) * h.grid.dt)


def paley_wiener(h: CameronMartinPath, values: np.ndarray) -> np.ndarray:
    """Grid Paley-Wiener sums of h' against the increments of paths `values` (..., n+1, d): shape (...)."""
    return np.einsum("ki,...ki->...", h.derivative_values, np.diff(values, axis=-2))


def cm_norm(h: CameronMartinPath) -> float:
    """Cameron-Martin norm (sum over cells and components of |h'|^2 dt)^(1/2)."""
    return math.sqrt(cm_inner(h, h))


@dataclass(frozen=True)
class GaussianSpec:
    """Centered Gaussian process with independent components.

    kind "bm" has R(s,t) = min(s,t); kind "fbm" needs hurst in (0,1) and has
    R(s,t) = (s^2H + t^2H - |t-s|^2H)/2.
    """

    kind: str
    dim: int
    hurst: float | None = None

    def __post_init__(self):
        if self.kind not in ("bm", "fbm"):
            raise ValueError(f"kind must be 'bm' or 'fbm', got {self.kind!r}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.kind == "fbm":
            if self.hurst is None or not 0.0 < self.hurst < 1.0:
                raise ValueError(f"hurst must lie in (0,1) for fbm, got {self.hurst}")

    def covariance(self, s, t) -> np.ndarray:
        """Component covariance R(s,t); broadcasts over array arguments."""
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        if self.kind == "bm":
            return np.minimum(s, t)
        two_h = 2.0 * self.hurst
        return 0.5 * (s**two_h + t**two_h - np.abs(t - s) ** two_h)

    def grid_covariance(self, grid: TimeGrid) -> np.ndarray:
        """Covariance matrix of (x(t_1), ..., x(t_n)) for one component."""
        t = grid.points[1:]
        return self.covariance(t[:, None], t[None, :])


@functools.lru_cache(maxsize=16)
def _fbm_cholesky(hurst: float, n_steps: int) -> np.ndarray:
    """Scaled square roots of the circulant embedding's eigenvalues, (n+1,).

    Unit-step fractional Gaussian noise has autocovariance
    g(k) = (|k+1|^2H - 2|k|^2H + |k-1|^2H) / 2.  Its first n lags are embedded
    in a symmetric circulant of size m = 2n whose eigenvalues l_0..l_{m-1}
    are one FFT of the first row (Davies & Harte 1987; Dietrich & Newsam
    1997).  Entry k is sqrt(m l_k) at k = 0 and k = n and sqrt(m l_k / 2)
    in between: a Hermitian spectrum with standard normal real and imaginary
    parts scaled by these values has, under `numpy.fft.irfft`, exactly the
    circulant covariance, whose leading n x n block is the fGn covariance.

    It keeps the name of the dense Cholesky factor it replaced because
    `perfbench/spans.py` wraps it under that name to time and count the
    factor step.  Cached per (hurst, n_steps); the returned array is
    read-only.
    """
    n, m = n_steps, 2 * n_steps
    two_h = 2.0 * hurst
    # g(k) = k^2H ((1+1/k)^2H - 1 + (1-1/k)^2H - 1) / 2 through expm1/log1p:
    # the plain second difference cancels about k^2 of its digits, enough to
    # turn eigenvalues negative at H=0.99, n=2^20
    k = np.arange(1, n + 1, dtype=float)
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf at k = 1 is exact
        gamma = 0.5 * k**two_h * (
            np.expm1(two_h * np.log1p(1.0 / k)) + np.expm1(two_h * np.log1p(-1.0 / k))
        )
    row = np.concatenate([[1.0], gamma, gamma[-2::-1]])
    eig = np.fft.rfft(row).real
    tol = m * np.finfo(float).eps * float(np.max(np.abs(eig)))
    if eig.min() < -tol:
        raise EmbeddingFailure(
            f"circulant embedding of the fBm covariance has eigenvalue {eig.min():.3e} "
            f"< 0 (n={n}, hurst={hurst}); the exact sampler needs a PSD embedding"
        )
    weight = np.full(n + 1, 0.5 * m)
    weight[[0, n]] = m
    scale = np.sqrt(weight * np.maximum(eig, 0.0))
    scale.flags.writeable = False
    return scale


def sample(spec: GaussianSpec, grid: TimeGrid, seed: int, index: int = 0) -> SamplePath:
    """Draw one path, exact in distribution on the grid, started at 0.

    Deterministic given (spec, grid, seed, index); `index` selects the derived
    per-sample stream so Monte Carlo runs are scheduling-independent.  It is
    sample `index` of `sample_values_batch`.
    """
    return SamplePath(grid, sample_values_batch(spec, grid, seed, 1, start=index)[0])


def sample_values_batch(
    spec: GaussianSpec, grid: TimeGrid, seed: int, count: int, start: int = 0
) -> np.ndarray:
    """Values of samples start..start+count-1 stacked as (count, n+1, d)."""
    n, d = grid.n_steps, spec.dim
    out = np.zeros((count, n + 1, d))
    if spec.kind == "bm":
        sqdt = math.sqrt(grid.dt)
        for i in range(count):
            rng = derived_rng(seed, start + i)
            np.cumsum(rng.standard_normal((n, d)) * sqdt, axis=0, out=out[i, 1:])
    else:
        # m real normals per path and component: the real parts of the
        # Hermitian spectrum's n+1 entries, then the imaginary parts of
        # entries 1..n-1 (entries 0 and n are real)
        scale = _fbm_cholesky(spec.hurst, n) * grid.dt**spec.hurst
        normals = np.empty((count, 2 * n, d))
        for i in range(count):
            derived_rng(seed, start + i).standard_normal(out=normals[i])
        spectrum = normals[:, : n + 1].astype(complex)
        spectrum.imag[:, 1:n] = normals[:, n + 1 :]
        spectrum *= scale[:, None]
        np.cumsum(np.fft.irfft(spectrum, 2 * n, axis=1)[:, :n], axis=1, out=out[:, 1:])
    return out


def brownian_onb(k: int, grid: TimeGrid) -> CameronMartinPath:
    """k-th Cameron-Martin basis element for Brownian motion on [0, T].

    e_k(t) = sqrt(2T) sin((k-1/2) pi t / T) / ((k-1/2) pi), unit CM norm.
    The stored derivative samples e_k' at cell midpoints.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    T = grid.horizon
    omega = (k - 0.5) * math.pi / T
    mid = (grid.points[:-1] + grid.points[1:]) / 2.0
    deriv = math.sqrt(2.0 / T) * np.cos(omega * mid)
    return CameronMartinPath(grid, deriv[:, None])


def _onb_derivative_at(k_max: int, t: np.ndarray, T: float) -> np.ndarray:
    """e_k'(t) for k = 1..k_max, shape (k_max, len(t))."""
    ks = np.arange(1, k_max + 1)
    omega = (ks - 0.5) * math.pi / T
    return math.sqrt(2.0 / T) * np.cos(omega[:, None] * t[None, :])


def kl_truncate(x: SamplePath, m: int) -> CameronMartinPath:
    """Spectral truncation of a Brownian path onto the first m basis elements.

    Coefficients are grid Paley-Wiener sums sum_i e_k'(t_i) (x(t_{i+1})-x(t_i)),
    one per component; the returned derivative is the exact basis derivative
    (sampled at cell midpoints) weighted by those coefficients.  Valid for
    paths distributed as Brownian motion, where the closed-form basis applies.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    grid, T = x.grid, x.grid.horizon
    left = grid.points[:-1]
    mid = (grid.points[:-1] + grid.points[1:]) / 2.0
    e_left = _onb_derivative_at(m, left, T)  # (m, n)
    e_mid = _onb_derivative_at(m, mid, T)
    coeff = e_left @ x.increments  # (m, d)
    deriv = e_mid.T @ coeff  # (n, d)
    return CameronMartinPath(grid, deriv)


def piecewise_linear(x: SamplePath, m: int) -> CameronMartinPath:
    """Piecewise-linear interpolation of x on the dyadic dissection D_m.

    The derivative on each dyadic cell is the slope of x between consecutive
    dyadic points; the result interpolates x exactly on D_m.  Requires 2^m to
    divide n_steps.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    n = x.grid.n_steps
    pieces = 2**m
    if n % pieces != 0:
        raise ValueError(f"2^m = {pieces} must divide n_steps = {n}")
    stride = n // pieces
    nodes = x.values[::stride]  # (2^m + 1, d)
    cell_width = x.grid.horizon / pieces
    slopes = np.diff(nodes, axis=0) / cell_width  # (2^m, d)
    deriv = np.repeat(slopes, stride, axis=0)
    # subtract x(0) so the induced path starts at the origin like every
    # Cameron-Martin element; interpolation of x - x(0) is exact on D_m
    return CameronMartinPath(x.grid, deriv)


def write_path_csv(path: SamplePath, filename) -> None:
    """CSV with header t,x1,...,xd and one row per grid point."""
    header = ["t"] + [f"x{i}" for i in range(1, path.dim + 1)]
    rows = [[t, *row] for t, row in zip(path.grid.points.tolist(), path.values.tolist())]
    _files.write_csv_rows(filename, [header] + rows)


def read_path_csv(filename) -> SamplePath:
    """Read a path CSV; malformed content raises ValueError naming the file."""
    with open(filename, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if len(header) < 2 or header[0] != "t":
            raise ValueError(f"bad CSV header in {filename}: expected a leading 't' column and a value column")
        rows = []
        for line, row in enumerate(reader, start=2):
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields where the header has {len(header)}")
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ValueError(f"{filename} line {line}: {exc}") from None
    if len(rows) < 2:
        raise ValueError(f"{filename} holds {len(rows)} data rows; a path needs two grid points")
    data = np.asarray(rows)
    t, values = data[:, 0], data[:, 1:]
    grid = TimeGrid(horizon=float(t[-1]), n_steps=len(t) - 1)
    if not np.allclose(t, grid.points, rtol=0, atol=1e-12 * max(1.0, grid.horizon)):
        raise ValueError(f"{filename} does not carry a uniform grid from 0 to T")
    return SamplePath(grid, values)
