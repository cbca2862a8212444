"""Graded ambient-space norms, homogeneous distance, and dilation.

An ambient spec lists symbols with integer degrees; each symbol carries a
one- or two-parameter payload and a norm choice.  The homogeneous distance
sum_tau ||v_tau||^(1/deg) is compatible with the degree-weighted dilation:
|||dilation(v, eps)||| = eps * |||v|||.

Two-parameter variation and the covariance rho-variation are evaluated on
grid partitions only, giving lower bounds for the suprema over arbitrary
partitions; every scaling identity used elsewhere is exact regardless.
The plain Banach norm sum_tau ||v_tau|| is provided for completeness; it
induces the same topology as the homogeneous distance (the identity map is
locally uniformly continuous both ways) but no quantitative equivalence is
asserted here.

Each symbol-norm kernel exists once and takes any number of leading axes:
payloads (..., n+1) or (..., n+1, n+1) give norms of shape (...).  A single
path is the batch with no leading axis and gets a built-in float; the Monte
Carlo route in `_batch` runs the same kernels on stacked paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product

import numpy as np

from .grids import GaussianSpec, TimeGrid

NORM_KINDS = ("pvar", "holder", "sup", "terminal")


@dataclass(frozen=True)
class SymbolNorm:
    """Norm choice for one symbol: kind and (for pvar/holder) its exponent."""

    kind: str
    exponent: float | None = None

    def __post_init__(self):
        if self.kind not in NORM_KINDS:
            raise ValueError(f"norm kind must be one of {NORM_KINDS}, got {self.kind!r}")
        if self.kind == "pvar" and (self.exponent is None or self.exponent < 1):
            raise ValueError(f"pvar exponent must be >= 1, got {self.exponent}")
        if self.kind == "holder" and (self.exponent is None or not 0 < self.exponent <= 2):
            raise ValueError(f"holder exponent must lie in (0, 2], got {self.exponent}")


@dataclass(frozen=True)
class SymbolSpec:
    """One graded symbol: component indices, degree, norm, payload arity."""

    name: str
    indices: tuple[int, ...]
    degree: int
    norm: SymbolNorm
    arity: int

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        if self.arity not in (1, 2):
            raise ValueError(f"arity must be 1 or 2, got {self.arity}")


@dataclass(frozen=True)
class AmbientSpec:
    """Symbol set with degrees, distinguished noise symbols, and norms."""

    symbols: tuple[SymbolSpec, ...]
    distinguished: tuple[str, ...]

    def __post_init__(self):
        names = [s.name for s in self.symbols]
        if len(set(names)) != len(names):
            raise ValueError("symbol names must be unique")
        by_name = {s.name: s for s in self.symbols}
        for name in self.distinguished:
            if name not in by_name:
                raise ValueError(f"distinguished symbol {name!r} not in symbol list")
            if by_name[name].degree != 1:
                raise ValueError(f"distinguished symbol {name!r} must have degree 1")

    def __getitem__(self, name: str) -> SymbolSpec:
        for s in self.symbols:
            if s.name == name:
                return s
        raise KeyError(name)

    @property
    def max_degree(self) -> int:
        return max(s.degree for s in self.symbols)

    @property
    def noise_dim(self) -> int:
        return len(self.distinguished)

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
        try:
            symbols = tuple(
                SymbolSpec(
                    name=entry["symbol"],
                    indices=tuple(entry["indices"]),
                    degree=int(entry["degree"]),
                    norm=SymbolNorm(entry["norm"]["kind"], entry["norm"].get("exponent")),
                    arity=int(entry["arity"]),
                )
                for entry in cfg["symbols"]
            )
            return cls(symbols=symbols, distinguished=tuple(cfg["distinguished"]))
        except KeyError as exc:
            raise ValueError(f"ambient config lacks field {exc.args[0]!r}") from None
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"ambient config is malformed: {exc}") from None

    def save(self, filename) -> None:
        with open(filename, "w") as fh:
            json.dump(self.to_config(), fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, filename) -> "AmbientSpec":
        """Read an ambient JSON file; malformed content raises ValueError naming it."""
        try:
            with open(filename) as fh:
                return cls.from_config(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{filename}: {exc}") from exc


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
    exponent is p/k; with holder norms it is k*alpha (two-parameter payloads
    are measured against |t-s|^(k alpha)).
    """
    if level not in (1, 2, 3):
        raise ValueError(f"level must be 1, 2 or 3, got {level}")
    if norm_kind not in ("pvar", "holder"):
        raise ValueError(f"norm_kind must be 'pvar' or 'holder', got {norm_kind!r}")
    symbols = []
    for k in range(1, level + 1):
        for word in product(range(1, dim + 1), repeat=k):
            if norm_kind == "pvar":
                norm = SymbolNorm("pvar", max(1.0, p / k))
            else:
                norm = SymbolNorm("holder", k * alpha)
            symbols.append(
                SymbolSpec(
                    name=_symbol_name(word),
                    indices=word,
                    degree=k,
                    norm=norm,
                    arity=1 if k == 1 else 2,
                )
            )
    distinguished = tuple(s.name for s in symbols if s.degree == 1)
    return AmbientSpec(symbols=tuple(symbols), distinguished=distinguished)


def classical_ambient(dim: int, kind: str = "sup") -> AmbientSpec:
    """Level-1-only spec, one symbol per component; default sup norm."""
    norm = SymbolNorm(kind, None if kind in ("sup", "terminal") else 1.0)
    symbols = tuple(
        SymbolSpec(name=str(i), indices=(i,), degree=1, norm=norm, arity=1)
        for i in range(1, dim + 1)
    )
    return AmbientSpec(symbols=symbols, distinguished=tuple(s.name for s in symbols))


@dataclass(frozen=True, eq=False)
class GradedVector:
    """Ambient spec plus one scalar payload array per symbol.

    One-parameter payloads are path values of shape (n+1,); two-parameter
    payloads are increment surfaces of shape (n+1, n+1) indexed [s, t].
    """

    ambient: AmbientSpec
    grid: TimeGrid
    payloads: dict

    def __post_init__(self):
        for sym in self.ambient.symbols:
            if sym.name not in self.payloads:
                raise ValueError(f"missing payload for symbol {sym.name!r}")
            arr = np.asarray(self.payloads[sym.name], dtype=float)
            expected = (self.grid.n_steps + 1,) if sym.arity == 1 else (
                self.grid.n_steps + 1,
                self.grid.n_steps + 1,
            )
            if arr.shape != expected:
                raise ValueError(
                    f"payload for {sym.name!r} has shape {arr.shape}, expected {expected}"
                )
            self.payloads[sym.name] = arr


# ---------------------------------------------------------------------------
# symbol norms: one kernel each, over leading axes
# ---------------------------------------------------------------------------


def _unbox(value):
    """A 0-d result as a built-in float; batched results pass through.

    Roots are taken after unboxing: C pow on a float and NumPy's vectorised
    power can differ in the last bit, and a single path keeps the former.
    """
    return float(value) if np.ndim(value) == 0 else value


def _path_values(values) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    if x.ndim == 0 or x.shape[-1] < 2:
        raise ValueError("path needs at least two points")
    return x


def p_variation_1d(values: np.ndarray, p: float) -> float | np.ndarray:
    """|x_0| + (max over grid partitions of sum |increments|^p)^(1/p).

    The inner maximum is exact over all subsets of grid points containing the
    endpoints, by the O(n^2) recursion best[j] = max_i (best[i] + |x_j-x_i|^p).
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    x = _path_values(values)
    n = x.shape[-1] - 1
    best = np.zeros(x.shape)
    for j in range(1, n + 1):
        gain = np.abs(x[..., j, None] - x[..., :j]) ** p
        best[..., j] = np.max(best[..., :j] + gain, axis=-1)
    return _unbox(np.abs(x[..., 0])) + _unbox(best[..., n]) ** (1.0 / p)


def p_variation_1d_bruteforce(values: np.ndarray, p: float) -> float:
    """Exhaustive reference over all 2^(n-1) partitions; n <= ~16 only."""
    x = np.asarray(values, dtype=float).ravel()
    n = len(x) - 1
    best = 0.0
    for mask in range(2 ** (n - 1)):
        idx = [0] + [i for i in range(1, n) if (mask >> (i - 1)) & 1] + [n]
        best = max(best, sum(abs(x[b] - x[a]) ** p for a, b in zip(idx, idx[1:])))
    return float(abs(x[0]) + best ** (1.0 / p))


def holder_norm_1d(values: np.ndarray, grid: TimeGrid, alpha: float) -> float | np.ndarray:
    """max over grid pairs s != t of |x_t - x_s| / |t - s|^alpha."""
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    x = _path_values(values)
    out = np.zeros(x.shape[:-1])
    for lag in range(1, x.shape[-1]):
        num = np.max(np.abs(x[..., lag:] - x[..., :-lag]), axis=-1)
        np.maximum(out, num / (lag * grid.dt) ** alpha, out=out)
    return _unbox(out)


def sup_norm_1d(values: np.ndarray) -> float | np.ndarray:
    return _unbox(np.max(np.abs(values), axis=-1))


def terminal_norm_1d(values: np.ndarray) -> float | np.ndarray:
    return _unbox(np.abs(np.asarray(values)[..., -1]))


def holder_norm_2param(surface: np.ndarray, grid: TimeGrid, exponent: float) -> float | np.ndarray:
    """max over s != t of |X_{s,t}| / |t - s|^exponent.

    For a degree-2 payload in the Hoelder scale the exponent is 2*alpha.
    """
    if not 0 < exponent <= 2:
        raise ValueError(f"exponent must lie in (0, 2], got {exponent}")
    X = np.asarray(surface, dtype=float)
    n = grid.n_steps
    if X.shape[-2:] != (n + 1, n + 1):
        raise ValueError(f"surface must end in the grid's ({n + 1}, {n + 1}), got {X.shape}")
    gaps = np.abs(grid.points[None, :] - grid.points[:, None])
    with np.errstate(divide="ignore"):
        scale = np.where(gaps > 0, gaps ** (-exponent), 0.0)
    return _unbox(np.max(np.abs(X) * scale, axis=(-2, -1)))


def _grid_partitions(n: int) -> list[slice]:
    """The full grid partition and all dyadic coarsenings, as strided slices."""
    parts = [slice(None)]
    stride = 2
    while n % stride == 0 and n // stride >= 1:
        parts.append(slice(0, n + 1, stride))
        stride *= 2
    return parts


def p_variation_2param(surface: np.ndarray, grid: TimeGrid, p: float) -> float | np.ndarray:
    """Grid-restricted two-parameter p-variation.

    Evaluates (sum over pairs (t_i, t_j) in Q x Q of |X_{t_i,t_j}|^p)^(1/p) on
    the full grid partition and all dyadic coarsenings, returning the largest
    value: a lower bound for the supremum over arbitrary partitions.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    X = np.asarray(surface, dtype=float)
    best = 0.0
    for part in _grid_partitions(grid.n_steps):
        best = np.maximum(best, np.sum(np.abs(X[..., part, part]) ** p, axis=(-2, -1)))
    return _unbox(best) ** (1.0 / p)


def sup_norm_2param(surface: np.ndarray) -> float | np.ndarray:
    return _unbox(np.max(np.abs(surface), axis=(-2, -1)))


def terminal_norm_2param(surface: np.ndarray) -> float | np.ndarray:
    return _unbox(np.abs(np.asarray(surface)[..., 0, -1]))


def symbol_norm(payload: np.ndarray, grid: TimeGrid, spec: SymbolSpec) -> float | np.ndarray:
    """Evaluate one symbol's configured norm on its payload (or a batch of them)."""
    kind = spec.norm.kind
    if spec.arity == 1:
        if kind == "pvar":
            return p_variation_1d(payload, spec.norm.exponent)
        if kind == "holder":
            return holder_norm_1d(payload, grid, spec.norm.exponent)
        if kind == "sup":
            return sup_norm_1d(payload)
        return terminal_norm_1d(payload)
    if kind == "pvar":
        return p_variation_2param(payload, grid, spec.norm.exponent)
    if kind == "holder":
        return holder_norm_2param(payload, grid, spec.norm.exponent)
    if kind == "sup":
        return sup_norm_2param(payload)
    return terminal_norm_2param(payload)


# ---------------------------------------------------------------------------
# graded operations
# ---------------------------------------------------------------------------


def homogeneous_norm(v: GradedVector) -> float:
    """sum over symbols of ||v_tau||^(1/degree); the dilation-compatible metric."""
    total = 0.0
    for sym in v.ambient.symbols:
        total += symbol_norm(v.payloads[sym.name], v.grid, sym) ** (1.0 / sym.degree)
    return total


def banach_norm(v: GradedVector) -> float:
    """Plain sum of per-symbol norms, without degree weighting."""
    return sum(symbol_norm(v.payloads[sym.name], v.grid, sym) for sym in v.ambient.symbols)


def dilation(v: GradedVector, eps: float) -> GradedVector:
    """Degree-weighted scaling: symbol tau is multiplied by eps^degree(tau)."""
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    payloads = {
        sym.name: eps**sym.degree * v.payloads[sym.name] for sym in v.ambient.symbols
    }
    return GradedVector(v.ambient, v.grid, payloads)


def rho_variation_covariance(spec: GaussianSpec, grid: TimeGrid, rho: float) -> float:
    """Grid-restricted rho-variation of the increment covariance.

    Uses the full grid partition for both partitions of the defining supremum
    (a lower bound): (sum_{i,j} |E[dX_i dX_j]|^rho)^(1/rho), computed from the
    scalar component covariance.
    """
    if rho < 1:
        raise ValueError(f"rho must be >= 1, got {rho}")
    t = grid.points
    R = spec.covariance(t[:, None], t[None, :])
    incr_cov = R[1:, 1:] - R[1:, :-1] - R[:-1, 1:] + R[:-1, :-1]
    return float(np.sum(np.abs(incr_cov) ** rho) ** (1.0 / rho))
