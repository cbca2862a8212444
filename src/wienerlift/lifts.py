"""Level-2/3 enhancements of grid paths and the lifted shift operator.

Level-2 data is stored as basepoint tensors A[k] = X_{0,t_k}; the general
increment is reconstructed through the multiplicative (Chen) relation

    X_{s,t} = X_{0,t} - X_{0,s} - x_{0,s} (x) x_{s,t},

which the discrete schemes satisfy exactly: the Ito scheme uses left-point
sums (the discrete signature of per-step increments), and every other scheme
the trapezoid rule, i.e. the Chen product of per-step tensor exponentials.
For a piecewise-linear path that product is its signature, so the Young lift
of a Cameron-Martin skeleton is the same accumulator and exact on that class.
Memory is O(n d^level) instead of O(n^2 d^level), and the Chen relation
becomes a verifiable identity rather than an assumption.

The basepoint accumulators and the entry-surface reconstructions take any
number of leading axes: values (..., n+1, d), basepoint tensors
(..., n+1, d, d[, d]) and surfaces (..., n+1, n+1).  One path is the batch
with no leading axis; the Monte Carlo route in `_batch` stacks paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .grids import CameronMartinPath, SamplePath, TimeGrid
from .seminorms import AmbientSpec, GradedVector, ambient_for_levels

FORMAT_VERSION = "enhanced-path/v1"

SCHEMES = ("ito", "stratonovich", "young")


@dataclass(frozen=True, eq=False)
class Level2Surface:
    """Basepoint level-2 tensors A[k] = X_{0,t_k} plus the level-1 reference."""

    grid: TimeGrid
    base: np.ndarray  # (n+1, d, d)
    level1_values: np.ndarray  # (n+1, d)

    def __post_init__(self):
        base = np.asarray(self.base, dtype=float)
        n, d = self.grid.n_steps, self.level1_values.shape[1]
        if base.shape != (n + 1, d, d):
            raise ValueError(f"level-2 base has shape {base.shape}, expected {(n + 1, d, d)}")
        object.__setattr__(self, "base", base)

    @property
    def dim(self) -> int:
        return self.level1_values.shape[1]

    def increment(self, s: int, t: int) -> np.ndarray:
        """X_{s,t} via Chen reconstruction; s, t are grid indices."""
        v = self.level1_values
        x0s = v[s] - v[0]
        xst = v[t] - v[s]
        return self.base[t] - self.base[s] - np.outer(x0s, xst)

    def entry_surface(self, i: int, j: int) -> np.ndarray:
        """Full (n+1, n+1) surface of X^{ij}_{s,t}; 1-based component indices."""
        return level2_entry_surface(self.level1_values, self.base, (i, j))


@dataclass(frozen=True, eq=False)
class Level3Surface:
    """Basepoint level-3 tensors B[k] = X_{0,t_k}, with level-1/2 references."""

    grid: TimeGrid
    base: np.ndarray  # (n+1, d, d, d)
    level2: Level2Surface

    def __post_init__(self):
        base = np.asarray(self.base, dtype=float)
        n, d = self.grid.n_steps, self.level2.dim
        if base.shape != (n + 1, d, d, d):
            raise ValueError(f"level-3 base has shape {base.shape}, expected {(n + 1, d, d, d)}")
        object.__setattr__(self, "base", base)

    def increment(self, s: int, t: int) -> np.ndarray:
        """Level-3 Chen reconstruction of X_{s,t}; s, t are grid indices."""
        v = self.level2.level1_values
        x0s = v[s] - v[0]
        xst = v[t] - v[s]
        x2_st = self.level2.increment(s, t)
        x2_0s = self.level2.base[s]
        return (
            self.base[t]
            - self.base[s]
            - np.einsum("i,jk->ijk", x0s, x2_st)
            - np.einsum("ij,k->ijk", x2_0s, xst)
        )

    def entry_surface(self, i: int, j: int, k: int) -> np.ndarray:
        """Full (n+1, n+1) surface of X^{ijk}_{s,t}; 1-based indices."""
        l2 = self.level2
        return level3_entry_surface(l2.level1_values, l2.base, self.base, (i, j, k))


@dataclass(frozen=True, eq=False)
class EnhancedPath:
    """Graded levels of a lifted path: increments, level-2, optional level-3."""

    level1: SamplePath
    level2: Level2Surface
    level3: Level3Surface | None = None
    scheme: str = "ito"
    ambient: AmbientSpec | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.level2.grid != self.level1.grid:
            raise ValueError("level-2 grid differs from level-1 grid")
        if self.level3 is not None and self.level3.grid != self.level1.grid:
            raise ValueError("level-3 grid differs from level-1 grid")

    @property
    def grid(self) -> TimeGrid:
        return self.level1.grid

    @property
    def dim(self) -> int:
        return self.level1.dim

    @property
    def max_level(self) -> int:
        return 3 if self.level3 is not None else 2


# ---------------------------------------------------------------------------
# scheme-consistent multilinear accumulators
# ---------------------------------------------------------------------------


def _pair_base(a_values: np.ndarray, b_values: np.ndarray, scheme: str) -> np.ndarray:
    """Basepoint tensors of the discrete integral int a (x) db: (..., n+1, d, d).

    Ito: left-point sums  sum_m a_{0,m} (x) db_m.
    Any other scheme: trapezoid sums sum_m (a_{0,m} + da_m/2) (x) db_m.
    Both are bilinear in (a, b), which is what makes the lifted shift exact.
    """
    a0 = a_values - a_values[..., :1, :]
    da = np.diff(a_values, axis=-2)
    db = np.diff(b_values, axis=-2)
    contrib = np.einsum("...mi,...mj->...mij", a0[..., :-1, :], db)
    if scheme != "ito":
        # bracket kept as a separate exactly-symmetric term so the
        # antisymmetric parts of the two schemes agree to the last bit
        contrib = contrib + 0.5 * np.einsum("...mi,...mj->...mij", da, db)
    base = np.zeros(a_values.shape[:-1] + contrib.shape[-2:])
    np.cumsum(contrib, axis=-3, out=base[..., 1:, :, :])
    return base


def _triple_base(
    a_values: np.ndarray,
    b_values: np.ndarray,
    c_values: np.ndarray,
    scheme: str,
    pair_ab: np.ndarray | None = None,
) -> np.ndarray:
    """Basepoint tensors of the discrete double integral int (int a db) (x) dc.

    Ito: left-point sums over the level-2 accumulator.  Any other scheme: the
    level-3 part of the per-step tensor-exponential product, whose level-2
    part is exactly the trapezoid rule.  Shape (..., n+1, d, d, d).
    """
    if pair_ab is None:
        pair_ab = _pair_base(a_values, b_values, scheme)
    a0 = a_values - a_values[..., :1, :]
    da = np.diff(a_values, axis=-2)
    db = np.diff(b_values, axis=-2)
    dc = np.diff(c_values, axis=-2)
    contrib = np.einsum("...mij,...mk->...mijk", pair_ab[..., :-1, :, :], dc)
    if scheme != "ito":
        contrib = contrib + 0.5 * np.einsum("...mi,...mj,...mk->...mijk", a0[..., :-1, :], db, dc)
        contrib = contrib + (1.0 / 6.0) * np.einsum("...mi,...mj,...mk->...mijk", da, db, dc)
    base = np.zeros(a_values.shape[:-1] + contrib.shape[-3:])
    np.cumsum(contrib, axis=-4, out=base[..., 1:, :, :, :])
    return base


def level2_entry_surface(values: np.ndarray, base: np.ndarray, indices) -> np.ndarray:
    """Chen surface of X^{ij}_{s,t} over all grid pairs, (..., n+1, n+1); 1-based (i, j)."""
    i, j = indices[0] - 1, indices[1] - 1
    b = base[..., i, j]
    xi0 = values[..., i] - values[..., :1, i]
    xj = values[..., j]
    return (
        b[..., None, :]
        - b[..., :, None]
        - xi0[..., :, None] * (xj[..., None, :] - xj[..., :, None])
    )


def level3_entry_surface(
    values: np.ndarray, base2: np.ndarray, base3: np.ndarray, indices
) -> np.ndarray:
    """Chen surface of X^{ijk}_{s,t} over all grid pairs, (..., n+1, n+1); 1-based (i, j, k)."""
    i, j, k = indices[0] - 1, indices[1] - 1, indices[2] - 1
    b = base3[..., i, j, k]
    xi0 = values[..., i] - values[..., :1, i]
    xk = values[..., k]
    x2_jk = level2_entry_surface(values, base2, indices[1:])
    x2_0s_ij = base2[..., i, j]
    return (
        b[..., None, :]
        - b[..., :, None]
        - xi0[..., :, None] * x2_jk
        - x2_0s_ij[..., :, None] * (xk[..., None, :] - xk[..., :, None])
    )


def _scheme_lift(x: SamplePath, level: int, scheme: str) -> EnhancedPath:
    if level not in (2, 3):
        raise ValueError(f"level must be 2 or 3, got {level}")
    v = x.values
    base2 = _pair_base(v, v, scheme)
    level2 = Level2Surface(x.grid, base2, v)
    level3 = None
    if level == 3:
        base3 = _triple_base(v, v, v, scheme, pair_ab=base2)
        level3 = Level3Surface(x.grid, base3, level2)
    return EnhancedPath(x, level2, level3, scheme=scheme)


def ito_lift(x: SamplePath, level: int = 2) -> EnhancedPath:
    """Left-point enhancement: A[k] = sum_{m<k} x_{0,t_m} (x) x_{t_m,t_{m+1}}."""
    return _scheme_lift(x, level, "ito")


def stratonovich_lift(x: SamplePath, level: int = 2) -> EnhancedPath:
    """Trapezoid enhancement; X_{s,t} matches int (x - x_s) (x) circ dx.

    Differs from the Ito enhancement by the symmetric bracket term
    sum_m dx_m (x) dx_m / 2, so the antisymmetric parts coincide exactly.
    """
    return _scheme_lift(x, level, "stratonovich")


def young_skeleton_lift(h: CameronMartinPath, level: int = 2) -> EnhancedPath:
    """Exact iterated integrals of a piecewise-linear path: its signature.

    On each cell h is linear, so its signature there is the tensor
    exponential of the cell increment, and the lift is the Chen product of
    those exponentials: the trapezoid accumulator, without quadrature error.
    """
    return _scheme_lift(h.as_sample_path(), level, "young")


# ---------------------------------------------------------------------------
# diagnostics and operators
# ---------------------------------------------------------------------------


def chen_residual(e: EnhancedPath, s: int, u: int, t: int) -> float:
    """Max-abs defect of the multiplicative relation at grid indices s <= u <= t.

    Level 2: X_{s,t} - X_{s,u} - X_{u,t} - x_{s,u} (x) x_{u,t}, where the
    (s, u) leg is recomputed from level 1 by the path's own scheme and the
    other legs come from the stored basepoint tensors.  Reconstructing all
    three legs by telescoping would make the defect vanish for any base
    whatsoever; anchoring one leg to the direct per-interval sums turns the
    relation into an actual constraint on the stored data (algebraically the
    defect equals "stored increment minus direct integral" on [s, u]), so a
    corrupted base tensor shows up while honest lifts stay at rounding level.
    The level-3 analogue is included when the path carries a third level.
    """
    if not 0 <= s <= u <= t <= e.grid.n_steps:
        raise ValueError(f"need 0 <= s <= u <= t <= n, got ({s}, {u}, {t})")
    v = e.level1.values
    vsub = v[s : u + 1]
    xsu = v[u] - v[s]
    xut = v[t] - v[u]
    l2 = e.level2
    direct2 = _pair_base(vsub, vsub, e.scheme)
    defect2 = (
        l2.increment(s, t) - direct2[-1] - l2.increment(u, t) - np.outer(xsu, xut)
    )
    out = float(np.max(np.abs(defect2)))
    if e.level3 is not None:
        l3 = e.level3
        direct3 = _triple_base(vsub, vsub, vsub, e.scheme, pair_ab=direct2)
        defect3 = (
            l3.increment(s, t)
            - direct3[-1]
            - l3.increment(u, t)
            - np.einsum("i,jk->ijk", xsu, l2.increment(u, t))
            - np.einsum("ij,k->ijk", direct2[-1], xut)
        )
        out = max(out, float(np.max(np.abs(defect3))))
    return out


def dyadic_triples(n: int) -> list[tuple[int, int, int]]:
    """(start, midpoint, end) of every dyadic interval of every level."""
    triples = []
    span = n
    while span >= 2 and span % 2 == 0:
        for s in range(0, n, span):
            triples.append((s, s + span // 2, s + span))
        span //= 2
    if span >= 2:  # non-power-of-two remainder: split each leftover interval
        for s in range(0, n, span):
            triples.append((s, s + span // 2, s + span))
    return triples


def max_chen_residual(e: EnhancedPath) -> float:
    """Largest Chen defect over all dyadic (s, u, t) triples."""
    return max(chen_residual(e, s, u, t) for s, u, t in dyadic_triples(e.grid.n_steps))


def lifted_shift(e: EnhancedPath, h: CameronMartinPath) -> EnhancedPath:
    """Shift an enhanced path by a Cameron-Martin direction.

    Level 1 becomes x + h; higher levels gain every mixed discrete integral
    with at least one h-slot, computed with the same scheme that built `e`
    (left-point for Ito, trapezoid for Stratonovich).  Since those sums are
    multilinear in their slots, shifting a lift of x reproduces the lift of
    x + h exactly, and the group law T_h T_k = T_{h+k} holds to rounding.
    """
    if e.scheme not in ("ito", "stratonovich"):
        raise ValueError(f"lifted shift needs an ito or stratonovich lift, got {e.scheme!r}")
    if h.grid != e.grid:
        raise ValueError("grid mismatch between enhanced path and shift direction")
    if h.dim != e.dim:
        raise ValueError(f"dimension mismatch: path has d={e.dim}, shift has d={h.dim}")
    scheme = e.scheme
    xv = e.level1.values
    hv = h.values
    new1 = SamplePath(e.grid, xv + hv)
    base2 = (
        e.level2.base
        + _pair_base(hv, xv, scheme)
        + _pair_base(xv, hv, scheme)
        + _pair_base(hv, hv, scheme)
    )
    level2 = Level2Surface(e.grid, base2, new1.values)
    level3 = None
    if e.level3 is not None:
        base3 = e.level3.base.copy()
        for word in range(1, 8):  # every {x,h}^3 word with at least one h
            slots = [hv if (word >> b) & 1 else xv for b in (2, 1, 0)]
            base3 += _triple_base(slots[0], slots[1], slots[2], scheme)
        level3 = Level3Surface(e.grid, base3, level2)
    return EnhancedPath(new1, level2, level3, scheme=scheme, ambient=e.ambient)


def dilate_enhanced(e: EnhancedPath, eps: float) -> EnhancedPath:
    """Degree-weighted scaling: level k is multiplied by eps^k."""
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    new1 = SamplePath(e.grid, eps * e.level1.values)
    level2 = Level2Surface(e.grid, eps**2 * e.level2.base, new1.values)
    level3 = None
    if e.level3 is not None:
        level3 = Level3Surface(e.grid, eps**3 * e.level3.base, level2)
    return EnhancedPath(new1, level2, level3, scheme=e.scheme, ambient=e.ambient)


def _symbol_payload(sym, values, base2, base3) -> np.ndarray:
    """One symbol's payload with leading axes: a level-1 component or an entry surface."""
    if sym.degree == 1:
        return values[..., sym.indices[0] - 1]
    level = min(sym.degree, 3)
    if (base2 if level == 2 else base3) is None:
        raise ValueError(
            f"ambient symbol {sym.name!r} has degree {sym.degree} but the path has no level {level}"
        )
    if level == 2:
        return level2_entry_surface(values, base2, sym.indices)
    return level3_entry_surface(values, base2, base3, sym.indices)


def to_graded(e: EnhancedPath, ambient: AmbientSpec | None = None) -> GradedVector:
    """Pair an enhanced path with an ambient spec, materializing payloads."""
    spec = ambient or e.ambient
    if spec is None:
        spec = ambient_for_levels(e.dim, e.max_level)
    base3 = None if e.level3 is None else e.level3.base
    payloads = {
        sym.name: _symbol_payload(sym, e.level1.values, e.level2.base, base3)
        for sym in spec.symbols
    }
    return GradedVector(spec, e.grid, payloads)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def enhanced_to_document(e: EnhancedPath) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "scheme": e.scheme,
        "grid": {"horizon": e.grid.horizon, "n_steps": e.grid.n_steps},
        "dim": e.dim,
        "level1": {
            "shape": list(e.level1.values.shape),
            "data": e.level1.values.ravel().tolist(),
        },
        "level2": {
            "shape": list(e.level2.base.shape),
            "data": e.level2.base.ravel().tolist(),
        },
    }
    if e.level3 is not None:
        doc["level3"] = {
            "shape": list(e.level3.base.shape),
            "data": e.level3.base.ravel().tolist(),
        }
    if e.ambient is not None:
        doc["ambient"] = e.ambient.to_config()
    return doc


def enhanced_from_document(doc: dict) -> EnhancedPath:
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r}, expected {FORMAT_VERSION!r}")
    try:
        grid = TimeGrid(horizon=doc["grid"]["horizon"], n_steps=doc["grid"]["n_steps"])
        lvl1 = np.asarray(doc["level1"]["data"]).reshape(doc["level1"]["shape"])
        path = SamplePath(grid, lvl1)
        base2 = np.asarray(doc["level2"]["data"]).reshape(doc["level2"]["shape"])
        level2 = Level2Surface(grid, base2, path.values)
        level3 = None
        if "level3" in doc:
            base3 = np.asarray(doc["level3"]["data"]).reshape(doc["level3"]["shape"])
            level3 = Level3Surface(grid, base3, level2)
        ambient = AmbientSpec.from_config(doc["ambient"]) if "ambient" in doc else None
        return EnhancedPath(path, level2, level3, scheme=doc["scheme"], ambient=ambient)
    except KeyError as exc:
        raise ValueError(f"enhanced-path document lacks field {exc.args[0]!r}") from None


def save_enhanced(e: EnhancedPath, filename) -> None:
    with open(filename, "w") as fh:
        json.dump(enhanced_to_document(e), fh, sort_keys=True)


def load_enhanced(filename) -> EnhancedPath:
    """Read an enhanced-path JSON file; malformed content raises ValueError naming it."""
    try:
        with open(filename) as fh:
            return enhanced_from_document(json.load(fh))
    except ValueError as exc:
        raise ValueError(f"{filename}: {exc}") from exc
