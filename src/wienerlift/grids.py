"""Uniform time grids, Gaussian path samplers, and Cameron-Martin paths.

Paths live on uniform grids t_k = k*T/n.  Cameron-Martin elements are stored
through their piecewise-constant derivative, one value per grid cell, so the
induced path is piecewise linear with h(0) = 0 and the Dirichlet energy
sum(|h'|^2) * dt is exact for this class.

Sample i of a run keyed by `seed` draws from its own PCG64 stream,
bit-identical to `default_rng(SeedSequence(entropy=seed, spawn_key=(i,)))`.
`sample_values_batch` derives a chunk's streams in one vectorized pass rather
than building a SeedSequence and a Generator per path.  Indices stop at
2**32 - 1: a larger one would take a two-word spawn key.

The grid law of a process, the covariance Sigma = toeplitz(row) of one
component's increments and a square root R with R R^T = Sigma, is one
`_GridLaw` per (spec, grid).  Paths are drawn a block at a time, as many as
fit their normals in `BLOCK_BYTES` and at least one: each path's normals are
drawn into the block, one product by R maps the block to increments and one
call sums them, so a block stays in cache and the NumPy call overhead is paid
per block, not per path.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import numbers
import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import _files


# byte budget of one block of work: the normals of the paths
# `sample_values_batch` draws at once, and the columns a `seminorms.column_kernel` asks for
BLOCK_BYTES = 2**17


class EmbeddingFailure(RuntimeError):
    """Circulant embedding of the fBm increment covariance is not PSD."""


# numpy's SeedSequence hash (pool of four uint32 words) and the 128-bit
# multiplier PCG64 seeds its state with
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32, _M128 = 2**32 - 1, 2**128 - 1
# derived streams are indexed 0.._STREAMS - 1: a larger index takes a two-word spawn key
_STREAMS = 2**32
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash(value: np.ndarray, const: int, mult: int, rows: int):
    """SeedSequence's hash of `rows` consecutive words in one uint32 step: (hashed rows, next constant).

    Row k of `value` is hashed against the k-th constant from `const`.  The
    constants depend only on how many hashes came before, never on the data,
    so they are known up front; uint32 arithmetic wraps mod 2**32.
    """
    consts = [const]
    for _ in range(rows):
        consts.append(consts[-1] * mult & _M32)
    c = np.array(consts, dtype=np.uint32)[:, None]
    value = (value ^ c[:-1]) * c[1:]
    return value ^ value >> 16, consts[-1]


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words `x` with hashed words `y` (uint32 arrays)."""
    r = x * _MIX_L - y * _MIX_R
    return r ^ r >> 16


def _check_streams(start: int, count: int) -> None:
    """Refuse streams start..start+count-1 that run past the last derived stream, 2**32 - 1."""
    if start + count > _STREAMS:
        raise ValueError(f"stream indices reach {start + count - 1}; derived streams stop at index 2**32 - 1")


def _check_seed(seed: int, start: int, count: int) -> tuple[int, int, int]:
    """(seed, start, count) as ints, after refusing a negative or non-integer one and streams past the last."""
    seed, start, count = _count("seed", seed, 0), _count("index", start, 0), _count("count", count, 0)
    _check_streams(start, count)
    return seed, start, count


def _stream_states(seed: int, start: int, count: int):
    """PCG64 states of the streams start..start+count-1 keyed by `seed`: an iterator of dicts.

    Stream i is bit-identical to
    `default_rng(SeedSequence(entropy=seed, spawn_key=(i,)))`.  The seed
    words are shared, and `SeedSequence(seed).pool` is that sequence's pool
    before its spawn word: padding the seed to four words with zeros, as a
    spawned sequence does, hashes the same words.  Only the spawn word
    differs per stream.  It is hashed against all four pool words in one
    (4, count) uint32 step, and `generate_state(4, uint64)` makes its eight
    output words in one (8, count) step.  The per-stream 128-bit step is
    PCG64's `pcg64_set_seed`.  The arguments are those `_check_seed` returns.
    """
    # one hash per pool word for each of the seed's uint32 words, at least four of them
    hashes = _POOL * max(-(-seed.bit_length() // 32), _POOL)
    const = _INIT_A * pow(_MULT_A, hashes, 2**32) & _M32
    spawn = np.arange(start, start + count, dtype=np.uint64).astype(np.uint32)
    hashed, _ = _hash(spawn, const, _MULT_A, _POOL)
    pool = _mix(np.random.SeedSequence(seed).pool[:, None], hashed)
    # generate_state(4, uint64) cycles the pool twice and pairs its words
    # little-endian: initstate high, low, then initseq high, low
    out, _ = _hash(np.concatenate((pool, pool)), _INIT_B, _MULT_B, 2 * _POOL)
    return map(_pcg64_state, out.T.astype("<u4", order="C").view("<u8"))


def _pcg64_state(row: np.ndarray) -> dict:
    """PCG64's state dict after `pcg64_set_seed` from generate_state's four uint64 words."""
    s_hi, s_lo, q_hi, q_lo = row.tolist()
    inc = ((q_hi << 64 | q_lo) << 1 | 1) & _M128
    state = ((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc & _M128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}


def derived_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Counter-style per-sample stream: sample `index` of a run keyed by `seed`.

    Serial and parallel runs agree because the stream depends only on
    (seed, index), never on scheduling.  It is numpy's
    `default_rng(SeedSequence(entropy=seed, spawn_key=(index,)))`, whose
    states `_stream_states` derives for a whole batch at once.
    """
    seed, index, _ = _check_seed(seed, index, 1)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _count(name: str, value, minimum: int = 1, maximum: int | None = None) -> int:
    """`value` as an int, after refusing a bool, a non-integer or a value outside minimum..maximum."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {value}")
    return value


def _real(name: str, value):
    """`value` itself, after refusing a bool, a string or anything else that is not a real number.

    The real-number twin of `_count`: each caller still checks its own range.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with points t_k = k*T/n_steps."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not (math.isfinite(_real("horizon", self.horizon)) and self.horizon > 0):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        object.__setattr__(self, "n_steps", _count("n_steps", self.n_steps))

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def points(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)


def _grid_array(name: str, values, shape: tuple) -> np.ndarray:
    """`values` as a float array, after refusing a non-finite entry or a shape other than `shape`.

    Every array a path object holds passes here; None in `shape` is a component count >= 1.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != len(shape) or any(
        size < 1 if want is None else size != want for size, want in zip(values.shape, shape)
    ):
        expected = ", ".join("dim >= 1" if want is None else str(want) for want in shape)
        raise ValueError(f"{name} has shape {values.shape}, expected ({expected})")
    if not np.isfinite(values).all():
        raise ValueError(f"{name} contains non-finite entries")
    return values


@dataclass(frozen=True, eq=False)
class SamplePath:
    """A d-dimensional path on a grid: values[k] = x(t_k), shape (n+1, d)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _grid_array("values", self.values, (self.grid.n_steps + 1, None)))

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
        deriv = _grid_array("derivative_values", self.derivative_values, (self.grid.n_steps, None))
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

    def check_fits(self, grid: TimeGrid, dim: int) -> None:
        """Refuse to pair with a path or shift on another grid or of another dimension."""
        if grid != self.grid:
            raise ValueError(f"grid mismatch: the shift lives on {self.grid}, its partner on {grid}")
        if dim != self.dim:
            raise ValueError(f"dimension mismatch: the shift has d={self.dim}, its partner d={dim}")

    def __add__(self, other: "CameronMartinPath") -> "CameronMartinPath":
        self.check_fits(other.grid, other.dim)
        return CameronMartinPath(self.grid, self.derivative_values + other.derivative_values)

    def scaled(self, c: float) -> "CameronMartinPath":
        return CameronMartinPath(self.grid, _real("c", c) * self.derivative_values)


def cm_inner(h: CameronMartinPath, k: CameronMartinPath) -> float:
    """Inner product int h'.k' dt, exact for the piecewise-constant class."""
    h.check_fits(k.grid, k.dim)
    return float(np.sum(h.derivative_values * k.derivative_values) * h.grid.dt)


def paley_wiener(h: CameronMartinPath, values: np.ndarray) -> np.ndarray:
    """Grid Paley-Wiener sums of h' on the increments of paths `values` (..., n+1, d) with h's n and d: shape (...)."""
    if np.shape(values)[-2:] != (h.grid.n_steps + 1, h.dim):
        raise ValueError(f"paths of shape {np.shape(values)} do not fit the shift's grid and dimension, d={h.dim}")
    return np.einsum("ki,...ki->...", h.derivative_values, np.diff(values, axis=-2))


def cm_norm(h: CameronMartinPath) -> float:
    """Cameron-Martin norm (sum over cells and components of |h'|^2 dt)^(1/2)."""
    return math.sqrt(cm_inner(h, h))


@dataclass(frozen=True)
class GaussianSpec:
    """Centered Gaussian process with independent components.

    kind "bm" has R(s,t) = min(s,t) and no hurst; kind "fbm" needs hurst in
    (0,1) and has R(s,t) = (s^2H + t^2H - |t-s|^2H)/2.
    """

    kind: str
    dim: int
    hurst: float | None = None

    def __post_init__(self):
        if self.kind not in ("bm", "fbm"):
            raise ValueError(f"kind must be 'bm' or 'fbm', got {self.kind!r}")
        object.__setattr__(self, "dim", _count("dim", self.dim))
        if self.kind == "fbm":
            if self.hurst is None or not 0.0 < _real("hurst", self.hurst) < 1.0:
                raise ValueError(f"hurst must lie in (0,1) for fbm, got {self.hurst}")
        elif self.hurst is not None:
            raise ValueError(f"a Hurst index describes fbm, not {self.kind!r}, got hurst={self.hurst}")

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


def _fgn_autocovariance(hurst: float, n: int) -> np.ndarray:
    """Autocovariance g(0..n) of unit-step fractional Gaussian noise, shape (n+1,).

    g(k) = (|k+1|^2H - 2|k|^2H + |k-1|^2H) / 2, taken as
    k^2H ((1+1/k)^2H - 1 + (1-1/k)^2H - 1) / 2 through expm1/log1p: the
    plain second difference cancels about k^2 of its digits, enough to turn
    the embedding's eigenvalues negative at H=0.99, n=2^20.
    """
    two_h = 2.0 * hurst
    k = np.arange(1, n + 1, dtype=float)
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf at k = 1 is exact
        gamma = 0.5 * k**two_h * (
            np.expm1(two_h * np.log1p(1.0 / k)) + np.expm1(two_h * np.log1p(-1.0 / k))
        )
    return np.concatenate([[1.0], gamma])


@functools.lru_cache(maxsize=16)
def _fbm_cholesky(hurst: float, n_steps: int) -> np.ndarray:
    """Scaled square roots of the circulant embedding's eigenvalues, (n+1,).

    The first n lags of `_fgn_autocovariance` are embedded in a symmetric
    circulant of size m = 2n whose eigenvalues l_0..l_{m-1} are one FFT of
    the first row (Davies & Harte 1987; Dietrich & Newsam 1997).  Entry k is
    sqrt(m l_k) at k = 0 and k = n and sqrt(m l_k / 2) in between: a
    Hermitian spectrum with standard normal real and imaginary parts scaled
    by these values has, under `numpy.fft.irfft`, exactly the circulant
    covariance, whose leading n x n block is the fGn covariance.

    It keeps the name of the dense Cholesky factor it replaced because
    `perfbench/spans.py` wraps it under that name to time and count the
    factor step.  Cached per (hurst, n_steps); the returned array is
    read-only.
    """
    n, m = n_steps, 2 * n_steps
    lags = _fgn_autocovariance(hurst, n)
    eig = np.fft.rfft(np.concatenate([lags, lags[-2:0:-1]])).real
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


@dataclass(frozen=True, eq=False)
class _GridLaw:
    """The Gaussian law of one component's n grid increments under a (spec, grid).

    The increments have covariance Sigma = toeplitz(row), and
    Sigma = R R^T for the n x `normals` matrix R that `times_r` applies:
    `times_r(z, out)` maps a block of standard normals z, shape
    (b, normals, d), to increments `out`, shape (b, n, d), one column of z
    per component.
    """

    row: np.ndarray
    normals: int
    times_r: Callable[[np.ndarray, np.ndarray], None]


def _grid_law(spec: GaussianSpec, grid: TimeGrid) -> _GridLaw:
    """The law of `spec`'s increments on `grid`.

    Brownian motion is the scalar case R = sqrt(dt) I.  For fBm, R is the
    first n rows of the circulant embedding's square root, applied through
    one Hermitian spectrum and one irfft: a path's 2n normals per component
    are the real parts of the spectrum's n+1 entries, then the imaginary
    parts of entries 1..n-1 (entries 0 and n are real).
    """
    n = grid.n_steps
    if spec.kind == "bm":
        row = np.zeros(n)
        row[0] = grid.dt
        sqdt = math.sqrt(grid.dt)

        def times_r(z, out):
            np.multiply(z, sqdt, out=out)

        return _GridLaw(row, n, times_r)
    step = grid.dt**spec.hurst
    scale = _fbm_cholesky(spec.hurst, n) * step
    # a variance past the float range (dt^2H at a horizon near 1e308) reads
    # inf; the product by R needs only dt^H, so sampling still works there
    with np.errstate(over="ignore"):
        row = _fgn_autocovariance(spec.hurst, n)[:n] * step * step

    def times_r(z, out):
        spectrum = z[:, : n + 1].astype(complex)
        spectrum.imag[:, 1:n] = z[:, n + 1 :]
        spectrum *= scale[:, None]
        out[...] = np.fft.irfft(spectrum, 2 * n, axis=1)[:, :n]

    return _GridLaw(row, 2 * n, times_r)


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
    """Values of samples start..start+count-1 stacked as (count, n+1, d).

    Paths take blocks of at most `BLOCK_BYTES` of normals, and at least one
    path: each path's normals are drawn into one block buffer per call, the
    law's product by R maps the block to increments in the block's rows of
    the output, and they are summed along time in place.  The bits are those
    of drawing, mapping and summing every path on its own.
    """
    seed, start, count = _check_seed(seed, start, count)
    law = _grid_law(spec, grid)
    n, d = grid.n_steps, spec.dim
    # row t=0 is the start; every later entry is written by the law's product and the sum
    out = np.empty((count, n + 1, d))
    out[:, 0] = 0.0
    rows = max(1, BLOCK_BYTES // (8 * law.normals * d))
    buffer = np.empty((min(rows, count), law.normals, d))
    # one Generator per call, so threads never share one; each path sets its stream's state
    rng = np.random.Generator(np.random.PCG64(0))
    states = _stream_states(seed, start, count)
    for b0 in range(0, count, rows):
        steps = out[b0 : b0 + rows, 1:]
        normals = buffer[: len(steps)]
        for row, state in zip(normals, itertools.islice(states, rows)):
            rng.bit_generator.state = state
            rng.standard_normal(out=row)
        law.times_r(normals, steps)
        np.cumsum(steps, axis=1, out=steps)
    return out


def brownian_onb(k: int, grid: TimeGrid) -> CameronMartinPath:
    """k-th Cameron-Martin basis element for Brownian motion on [0, T].

    e_k(t) = sqrt(2T) sin((k-1/2) pi t / T) / ((k-1/2) pi), unit CM norm.
    The stored derivative samples e_k' at cell midpoints.
    """
    k = _count("k", k)
    T = grid.horizon
    omega = (k - 0.5) * math.pi / T
    mid = (grid.points[:-1] + grid.points[1:]) / 2.0
    deriv = math.sqrt(2.0 / T) * np.cos(omega * mid)
    return CameronMartinPath(grid, deriv[:, None])


def piecewise_linear(x: SamplePath, m: int) -> CameronMartinPath:
    """Piecewise-linear interpolation of x - x(0) on the dyadic dissection D_m.

    The derivative on each dyadic cell is the slope of x between consecutive
    dyadic points.  Like every Cameron-Martin element the result starts at
    the origin, so it equals x - x(0), not x, on D_m.  Requires 2^m to divide
    n_steps.
    """
    m = _count("m", m, 0)
    n = x.grid.n_steps
    # the bit length refuses a 2^m above n before building it
    if m >= n.bit_length() or n % 2**m:
        raise ValueError(f"2^{m} must divide the path's {n} steps")
    pieces = 2**m
    stride = n // pieces
    nodes = x.values[::stride]  # (2^m + 1, d)
    cell_width = x.grid.horizon / pieces
    with np.errstate(over="raise"):  # a slope past the float range is a numerical failure, not a bad level
        slopes = np.diff(nodes, axis=0) / cell_width  # (2^m, d)
    deriv = np.repeat(slopes, stride, axis=0)
    return CameronMartinPath(x.grid, deriv)


def write_path_csv(path: SamplePath, filename) -> None:
    """CSV with header t,x1,...,xd and one row per grid point."""
    header = ["t"] + [f"x{i}" for i in range(1, path.dim + 1)]
    rows = [[t, *row] for t, row in zip(path.grid.points.tolist(), path.values.tolist())]
    _files.write_csv_rows(filename, [header] + rows)


def read_path_csv(filename) -> SamplePath:
    """Read a path CSV; malformed content raises ValueError naming the file."""
    return _files.read_file(filename, _path_from_csv)


def _path_from_csv(fh) -> SamplePath:
    """The path whose grid points and values are the rows of the path CSV open as `fh`."""
    reader = csv.reader(fh)
    header = next(reader, [])
    if len(header) < 2 or header[0] != "t":
        raise ValueError("bad CSV header: expected a leading 't' column and a value column")
    rows = []
    for line, row in enumerate(reader, start=2):
        try:
            if len(row) != len(header):
                raise ValueError(f"{len(row)} fields where the header has {len(header)}")
            rows.append([float(v) for v in row])
        except ValueError as exc:
            raise ValueError(f"line {line}: {exc}") from None
    if len(rows) < 2:
        raise ValueError(f"{len(rows)} data rows; a path needs two grid points")
    data = np.asarray(rows)
    t, values = data[:, 0], data[:, 1:]
    grid = TimeGrid(horizon=float(t[-1]), n_steps=len(t) - 1)
    if not np.allclose(t, grid.points, rtol=0, atol=1e-12 * max(1.0, grid.horizon)):
        raise ValueError("the t column is not a uniform grid from 0 to T")
    return SamplePath(grid, values)
