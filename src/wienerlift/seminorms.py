"""Graded ambient-space norms and the homogeneous and Banach sums.

An ambient spec lists symbols with degrees 1-3: a degree-k symbol names a
word of k component indices, read as a one-parameter path (k = 1) or as a
two-parameter entry X^w_{s,t} (k = 2, 3), and carries a norm choice.  The
homogeneous norm sum_tau ||X_tau||^(1/deg) is compatible with the
degree-weighted dilations of a lift: |||delta_eps X||| = eps * |||X|||.

Two-parameter payloads X_{s,t} take the homogeneous rough-path norms on the
grid, which converge under refinement: the exact q-variation over the
consecutive intervals of grid partitions, and Hoelder and sup over s < t.
One kernel, `column_kernel`, reads them through `pairs(s, t)`, which gives
X_{s,t} at index tuples s, t into the time axis with the batch axes last,
so every elementwise step runs along the contiguous batch, and builds its
own blocks of O(C n) entries.  pvar reads blocks of columns t -> X_{.,t},
indexed [t - t0, s, ...batch].  Hoelder and sup read the same blocks, or
one lag t - s a block where a block holds one column: their divisor
depends on the lag alone, and division by a positive constant is monotone,
so they divide once per lag and path and keep every bit.  The
one-parameter p-variation and Hoelder norms are X_{s,t} = x_t - x_s.  The
plain Banach norm sum_tau ||v_tau|| induces the same topology as the
homogeneous distance, but no quantitative equivalence is asserted here.

Every kernel takes any number of leading axes and gives norms of shape
(...); a single path is the batch with no leading axis and gets a built-in
float.  `column_kernel` and `path_kernel` fix a norm and a grid once and
return the kernel as a function, the one entry point for every caller.
`lifts.norm_plan` streams a lift's entries from its basepoint tensors;
`homogeneous_norm` and `banach_norm` sum the (symbol, norm) pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import _files
from .grids import BLOCK_BYTES, TimeGrid, _count, _real

NORM_KINDS = ("pvar", "holder", "sup", "terminal")


@dataclass(frozen=True)
class SymbolNorm:
    """Norm choice for one symbol: kind and (for pvar/holder) its exponent."""

    kind: str
    exponent: float | None = None

    def __post_init__(self):
        if self.kind not in NORM_KINDS:
            raise ValueError(f"norm kind must be one of {NORM_KINDS}, got {self.kind!r}")
        if self.exponent is not None:
            _real(f"{self.kind} exponent", self.exponent)
        if self.kind == "pvar" and (self.exponent is None or not 1 <= self.exponent < math.inf):
            raise ValueError(f"pvar exponent must be finite and >= 1, got {self.exponent}")
        if self.kind == "holder" and (self.exponent is None or not 0 < self.exponent <= 2):
            raise ValueError(f"holder exponent must lie in (0, 2], got {self.exponent}")


@dataclass(frozen=True)
class SymbolSpec:
    """One graded symbol: a word of component indices and its norm; its degree and arity follow from the word."""

    name: str
    indices: tuple[int, ...]
    norm: SymbolNorm
    degree: int = field(init=False)
    arity: int = field(init=False)

    def __post_init__(self):
        try:
            indices = tuple(_count("index", i) for i in self.indices)
        except TypeError:
            raise ValueError(f"indices must be a word of integers, got {self.indices!r}") from None
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "degree", _count("degree", len(indices), 1, 3))
        object.__setattr__(self, "arity", 1 if self.degree == 1 else 2)


@dataclass(frozen=True)
class AmbientSpec:
    """Symbol set with degrees, distinguished noise symbols, and norms."""

    symbols: tuple[SymbolSpec, ...]
    distinguished: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("an ambient needs at least one symbol")
        names = [s.name for s in self.symbols]
        if len(set(names)) != len(names):
            raise ValueError("symbol names must be unique")
        for s in self.symbols:
            if s.degree == 1 and s.norm.kind == "holder" and s.norm.exponent > 1:
                raise ValueError(f"symbol {s.name!r}: a degree-1 holder exponent must lie in (0, 1], got {s.norm.exponent}")
        by_name = {s.name: s for s in self.symbols}
        for name in self.distinguished:
            if name not in by_name:
                raise ValueError(f"distinguished symbol {name!r} not in symbol list")
            if by_name[name].degree != 1:
                raise ValueError(f"distinguished symbol {name!r} must have degree 1")

    @property
    def max_degree(self) -> int:
        return max(s.degree for s in self.symbols)

    @property
    def noise_dim(self) -> int:
        return len(self.distinguished)

    def check_fits(self, dim: int, level: int) -> None:
        """Refuse, naming the symbol, one that reads a component above `dim` or a level above `level`."""
        for s in self.symbols:
            if max(s.indices) > dim:
                raise ValueError(f"symbol {s.name!r} reads component {max(s.indices)}, but the path has d={dim}")
            if s.degree > level:
                raise ValueError(f"symbol {s.name!r} has degree {s.degree}, but the lift stops at level {level}")

    def check_process(self, spec) -> None:
        """Refuse, naming the symbol, one whose norm is infinite in the continuum on the process `spec`.

        On fBm of Hurst index H a degree-k symbol is finite only under a pvar
        exponent above 1/(kH) or a holder exponent below kH, and a degree
        above 1 needs H > 1/4, below which there is no canonical lift (Coutin
        and Qian 2002).  On a grid every norm is finite, so such a norm would
        grow without limit as n grows.  Sup and terminal norms have no
        exponent to check, and Brownian motion passes every symbol.
        """
        if spec.kind != "fbm":
            return
        hurst = spec.hurst
        for s in self.symbols:
            kind, exponent, k = s.norm.kind, s.norm.exponent, s.degree
            if k >= 2 and hurst <= 0.25:
                raise ValueError(
                    f"symbol {s.name!r} has degree {k}, but fbm with hurst {hurst} <= 1/4 has no lift above level 1"
                )
            if kind == "pvar" and exponent <= 1 / (k * hurst):
                raise ValueError(
                    f"symbol {s.name!r} has pvar exponent {exponent}, but fbm with hurst {hurst} needs one "
                    f"above 1/(kH) = {1 / (k * hurst)!r} at degree {k}"
                )
            if kind == "holder" and exponent >= k * hurst:
                raise ValueError(
                    f"symbol {s.name!r} has holder exponent {exponent}, but fbm with hurst {hurst} needs one "
                    f"below kH = {k * hurst!r} at degree {k}"
                )

    def to_config(self) -> dict:
        return {
            "symbols": [
                {
                    "symbol": s.name,
                    "indices": list(s.indices),
                    "degree": s.degree,
                    "norm": {"kind": s.norm.kind, "exponent": s.norm.exponent},
                    "arity": s.arity,
                }
                for s in self.symbols
            ],
            "distinguished": list(self.distinguished),
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "AmbientSpec":
        """Inverse of `to_config`; a missing or mistyped field raises ValueError."""
        with _files.document_fields("ambient config"):
            symbols = tuple(map(_symbol_from_config, cfg["symbols"]))
            return cls(symbols=symbols, distinguished=tuple(cfg["distinguished"]))

    def save(self, filename) -> None:
        _files.write_json(filename, self.to_config(), indent=2)

    @classmethod
    def load(cls, filename) -> "AmbientSpec":
        """Read an ambient JSON file; malformed content raises ValueError naming it."""
        return _files.read_json(filename, cls.from_config)


def _symbol_from_config(entry: dict) -> SymbolSpec:
    """One `to_config` symbol entry; its stated degree and arity must be the word's."""
    name, degree = entry["symbol"], _count("degree", entry["degree"])
    norm, arity = SymbolNorm(entry["norm"]["kind"], entry["norm"].get("exponent")), _count("arity", entry["arity"])
    sym = SymbolSpec(name, entry["indices"], norm)
    if sym.degree != degree:
        raise ValueError(f"a degree-{degree} symbol needs a word of length {degree}, got {sym.indices!r}")
    if sym.arity != arity:
        raise ValueError(f"a degree-{degree} symbol has arity {sym.arity}, got {arity}")
    return sym


def _symbol_name(indices: tuple[int, ...]) -> str:
    return (
        "".join(str(i) for i in indices)
        if max(indices) <= 9
        else ".".join(str(i) for i in indices)
    )


def ambient_for_levels(
    dim: int,
    level: int,
    norm_kind: str = "pvar",
    p: float = 2.5,
    alpha: float = 0.4,
) -> AmbientSpec:
    """Standard graded spec for a dim-dimensional lift up to `level`.

    Level-k symbols are index words of length k.  With pvar norms the level-k
    exponent is p at k = 1 and max(p/k, 1) above; with holder norms it is k*alpha
    (two-parameter payloads are measured against |t-s|^(k alpha)).
    """
    dim, level = _count("dim", dim), _count("level", level, 1, 3)
    if norm_kind not in ("pvar", "holder"):
        raise ValueError(f"norm_kind must be 'pvar' or 'holder', got {norm_kind!r}")
    symbols = []
    for k in range(1, level + 1):
        for word in product(range(1, dim + 1), repeat=k):
            if norm_kind == "pvar":
                # level 1 takes p itself, so SymbolNorm refuses a p below 1 or a NaN p
                norm = SymbolNorm("pvar", p if k == 1 else max(p / k, 1.0))
            else:
                norm = SymbolNorm("holder", k * alpha)
            symbols.append(SymbolSpec(_symbol_name(word), word, norm))
    distinguished = tuple(s.name for s in symbols if s.degree == 1)
    return AmbientSpec(symbols=tuple(symbols), distinguished=distinguished)


def classical_ambient(dim: int, kind: str = "sup") -> AmbientSpec:
    """Level-1-only spec, one symbol per component; default sup norm."""
    dim = _count("dim", dim)
    norm = SymbolNorm(kind, None if kind in ("sup", "terminal") else 1.0)
    symbols = tuple(
        SymbolSpec(str(i), (i,), norm)
        for i in range(1, dim + 1)
    )
    return AmbientSpec(symbols=symbols, distinguished=tuple(s.name for s in symbols))


# ---------------------------------------------------------------------------
# symbol norms: one kernel each, over leading axes
# ---------------------------------------------------------------------------


def _unbox(value):
    """A 0-d result as a built-in float; batched results pass through.

    Roots are taken after unboxing: C pow on a float and NumPy's vectorised
    power can differ in the last bit, and a single path keeps the former.
    `value` is a NumPy array or scalar.
    """
    return float(value) if value.ndim == 0 else value


def _path_values(values) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    if x.ndim == 0 or x.shape[-1] < 2:
        raise ValueError("path needs at least two points")
    return x


def column_kernel(norm: SymbolNorm, n: int, dt: float = 1.0):
    """One symbol norm of a two-parameter payload X_{s,t} on an n-step grid: a function (pairs, shape) -> norms.

    `pairs(s, t)` returns X_{s,t} for s and t that index the time axis 0..n
    and broadcast together (ints, slices or index tuples, as
    `lifts._entry_pairs` takes them), with the batch axes `shape` last, so
    each elementwise step runs along the batch; entries with s >= t are
    never read.  Each call must return a fresh array: the kernel overwrites
    it with its absolute value, power or Hoelder quotient rather than
    allocating another.  The kernel builds its own blocks, each at most
    `BLOCK_BYTES` or one column, so memory is O(C n).

    pvar is the exact q-variation over consecutive intervals of grid
    partitions, by the recursion best[t] = max_{s<t} best[s] + |X_{s,t}|^q,
    run in place in blocks of columns [t - t0, s, ...].  holder is the
    largest |X_{s,t}| / ((t-s) dt)^e and sup the largest |X_{s,t}| over
    s < t: from the same column blocks, each pair divided by its lag's
    divisor, where a block holds several columns, and from one lag
    t - s = k a block, pairs(slice(0, n+1-k), slice(k, n+1)), where it
    holds one.  A lag takes one divide per path: division by a positive
    constant is monotone, so max_s fl(|X|/c) = fl(max_s |X| / c) and both
    routes give the same bits.  The choice goes by block width because a
    lag a block costs n Python steps where wide column blocks take n / width.
    terminal is |X_{0,n}|, one pair.  The dispatch on the norm kind and the
    Hoelder divisor per lag are worked out here, once.
    """
    kind, e = norm.kind, norm.exponent
    if kind == "terminal":
        return lambda pairs, shape: _unbox(np.abs(pairs(0, n)))
    if kind != "pvar":
        # divisor per lag t - s, by scalar pow; inf masks the pairs s >= t
        scale = np.array([np.inf] + [(k * dt) ** e if kind == "holder" else 1.0 for k in range(1, n + 1)])

    def kernel(pairs, shape):
        # an empty batch takes one column a block; its blocks hold no entries
        width = max(1, BLOCK_BYTES // (8 * (n + 1) * max(1, math.prod(shape))))
        best = np.zeros((n + 1,) + shape if kind == "pvar" else shape)
        if width == 1 and kind != "pvar":
            # one diagonal t - s = k a step, no larger than a column, and one divide per lag and path
            for k in range(1, n + 1):
                diagonal = pairs(slice(0, n + 1 - k), slice(k, n + 1))
                top = np.maximum.reduce(np.abs(diagonal, out=diagonal), axis=0)
                if kind == "holder":
                    top /= scale[k]
                np.maximum(best, top, out=best)
            return _unbox(best)
        for t0 in range(1, n + 1, width):
            t1 = min(n + 1, t0 + width)
            size = pairs((None, slice(0, t1)), (slice(t0, t1), None))
            np.abs(size, out=size)
            if kind == "pvar":
                # `**=` keeps NumPy's scalar fast paths (square at e=2), as `**` does
                size **= e
                for t in range(t0, t1):
                    row = size[t - t0, :t]
                    row += best[:t]
                    np.maximum.reduce(row, axis=0, out=best[t, ...])
            else:
                lag = np.maximum(np.arange(t0, t1)[:, None] - np.arange(t1), 0)
                size /= scale[lag].reshape(lag.shape + (1,) * len(shape))
                np.maximum(best, np.maximum.reduce(size, axis=(0, 1)), out=best)
        if kind == "pvar":
            return _unbox(best[n]) ** (1.0 / e)
        return _unbox(best)

    return kernel


def _time_view(a: np.ndarray) -> np.ndarray:
    """a (..., n+1) viewed as (n+1, ...)."""
    return a.transpose(a.ndim - 1, *range(a.ndim - 1))


def _time_first(a: np.ndarray) -> np.ndarray:
    """a (..., n+1) as a contiguous (n+1, ...) array, the layout of a column block."""
    return np.ascontiguousarray(_time_view(a))


def _increments(x: np.ndarray):
    """pairs(s, t) -> x_t - x_s of a one-parameter path, s and t index tuples into its time axis."""
    xt = _time_first(x)
    return lambda s, t: xt[t] - xt[s]


def path_kernel(norm: SymbolNorm, n: int, dt: float = 1.0):
    """A degree-1 norm on path values (..., n+1): a function of the values, dispatched once.

    pvar is |x_0| plus the p-variation of the increments, and holder the
    largest |x_t - x_s| / ((t-s) dt)^alpha, both by `column_kernel`; sup is
    the largest |x_t| and terminal |x_n|.
    """
    kind = norm.kind
    if kind == "sup":
        return lambda x: _unbox(np.maximum.reduce(np.abs(x), axis=-1))
    if kind == "terminal":
        return lambda x: _unbox(np.abs(x[..., -1]))
    if kind == "holder" and not 0 < norm.exponent <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {norm.exponent}")
    column = column_kernel(norm, n, dt)
    if kind == "holder":
        return lambda x: column(_increments(x), x.shape[:-1])
    return lambda x: _unbox(np.abs(x[..., 0])) + column(_increments(x), x.shape[:-1])


def p_variation_1d(values: np.ndarray, p: float) -> float | np.ndarray:
    """|x_0| + (max over grid partitions of sum |increments|^p)^(1/p).

    The inner maximum is exact over all subsets of grid points containing the
    endpoints: `column_kernel` on the increments.
    """
    x = _path_values(values)
    return path_kernel(SymbolNorm("pvar", p), x.shape[-1] - 1)(x)


def holder_norm_1d(values: np.ndarray, grid: TimeGrid, alpha: float) -> float | np.ndarray:
    """max over grid pairs s < t of |x_t - x_s| / |t - s|^alpha; the path's last axis must hold the grid's points."""
    x = _path_values(values)
    if x.shape[-1] != grid.n_steps + 1:
        raise ValueError(f"path has {x.shape[-1]} points, but the grid has {grid.n_steps + 1}")
    return path_kernel(SymbolNorm("holder", alpha), grid.n_steps, grid.dt)(x)


# ---------------------------------------------------------------------------
# graded operations
# ---------------------------------------------------------------------------


def homogeneous_norm(norms) -> float | np.ndarray:
    """sum over (symbol, norm) pairs of norm^(1/degree); homogeneous under `dilate_enhanced`.

    A degree-1 norm enters as it is and the sum starts from the first term:
    no norm is -0.0, so x^1 and 0 + x would give x to the last bit.
    """
    total = None
    for sym, norm in norms:
        term = norm if sym.degree == 1 else norm ** (1.0 / sym.degree)
        total = term if total is None else total + term
    return 0.0 if total is None else total


def banach_norm(norms) -> float | np.ndarray:
    """Plain sum over (symbol, norm) pairs, without degree weighting."""
    total = 0.0
    for _, norm in norms:
        total += norm
    return total

