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

Each accumulator runs over one path.  They are multilinear, so the lifted
shift needs no mixed integrals of its own: `lifted_shift` adds to e the lift
of x + h minus the lift of x, both built with e's scheme.

An `EnhancedPath` is these arrays: level-1 values (n+1, d) and basepoint
tensors `base2` (n+1, d, d) and `base3` (n+1, d, d, d).  The accumulators
and the Chen reconstructions take any number of leading axes; one path is
the batch with no leading axis.  `chen_increment` rebuilds whole tensors
X_{s,t} for the Chen check.  The graded norms read entries X^w_{s,t}
through `_entry_pairs`, pairs(s, t) at index tuples into the time axis, in
the blocks `seminorms.column_kernel` builds (columns, or one lag t - s), so
no (n+1, n+1) surface is ever stored: `norm_plan` works out each ambient
symbol's dispatch once per ambient and grid and lists its norm over the
leading axes, and `to_graded` is that list for one lift.  Every operand is
stored time first and the batch axes last, so the Chen arithmetic runs
along the contiguous batch axis, and a block holds O(C n) entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _files
from .grids import CameronMartinPath, SamplePath, TimeGrid, _count, _grid_array, _real
from .seminorms import AmbientSpec, SymbolSpec, _time_first, _time_view, ambient_for_levels, column_kernel, path_kernel

FORMAT_VERSION = "enhanced-path/v1"

SCHEMES = ("ito", "stratonovich", "young")


@dataclass(frozen=True, eq=False)
class EnhancedPath:
    """A lifted path: level-1 values, level-2 and optional level-3 basepoint tensors, every entry finite."""

    level1: SamplePath
    base2: np.ndarray
    base3: np.ndarray | None = None
    scheme: str = "ito"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        n, d = self.grid.n_steps, self.dim
        object.__setattr__(self, "base2", _grid_array("base2", self.base2, (n + 1, d, d)))
        if self.base3 is not None:
            object.__setattr__(self, "base3", _grid_array("base3", self.base3, (n + 1, d, d, d)))

    @property
    def grid(self) -> TimeGrid:
        return self.level1.grid

    @property
    def dim(self) -> int:
        return self.level1.dim

    @property
    def max_level(self) -> int:
        return 3 if self.base3 is not None else 2


# ---------------------------------------------------------------------------
# scheme-consistent multilinear accumulators
# ---------------------------------------------------------------------------


def _pair_base(values: np.ndarray, scheme: str) -> np.ndarray:
    """Basepoint tensors of the discrete integral int x (x) dx: (..., n+1, d, d).

    Ito: left-point sums  sum_m x_{0,m} (x) dx_m.
    Any other scheme: trapezoid sums sum_m (x_{0,m} + dx_m/2) (x) dx_m.
    """
    x0 = values - values[..., :1, :]
    dx = np.diff(values, axis=-2)
    contrib = np.einsum("...mi,...mj->...mij", x0[..., :-1, :], dx)
    if scheme != "ito":
        # bracket kept as a separate exactly-symmetric term so the
        # antisymmetric parts of the two schemes agree to the last bit
        contrib = contrib + 0.5 * np.einsum("...mi,...mj->...mij", dx, dx)
    base = np.zeros(values.shape[:-1] + contrib.shape[-2:])
    np.cumsum(contrib, axis=-3, out=base[..., 1:, :, :])
    return base


def _triple_base(values: np.ndarray, scheme: str, base2: np.ndarray) -> np.ndarray:
    """Basepoint tensors of the discrete double integral int (int x (x) dx) (x) dx, given base2.

    Ito: left-point sums over the level-2 accumulator `base2`.  Any other
    scheme: the level-3 part of the per-step tensor-exponential product, whose
    level-2 part is exactly the trapezoid rule.  Shape (..., n+1, d, d, d).
    """
    dx = np.diff(values, axis=-2)
    contrib = np.einsum("...mij,...mk->...mijk", base2[..., :-1, :, :], dx)
    if scheme != "ito":
        x0 = (values - values[..., :1, :])[..., :-1, :]
        contrib = contrib + 0.5 * np.einsum("...mi,...mj,...mk->...mijk", x0, dx, dx)
        contrib = contrib + (1.0 / 6.0) * np.einsum("...mi,...mj,...mk->...mijk", dx, dx, dx)
    base = np.zeros(values.shape[:-1] + contrib.shape[-3:])
    np.cumsum(contrib, axis=-4, out=base[..., 1:, :, :, :])
    return base


def _lift_tensors(values: np.ndarray, scheme: str, level: int):
    """(base2, base3) of `values` under `scheme`; base3 is None below level 3."""
    base2 = _pair_base(values, scheme)
    return base2, _triple_base(values, scheme, base2) if level == 3 else None


def _entry_pairs(values, base2, base3, indices):
    """pairs(s, t) -> X^w_{s,t} by the Chen relation, for a 1-based word w of length 2 or 3.

    With x0 = x - x_0: X^{ij}_{s,t} = (b_t - c_s) - x0^i_s x^j_t, b = X^{ij}_{0,.},
    c = b - x0^i x^j; X^{ijk}_{s,t} = ((B_t - D_s) - x0^i_s X^{jk}_{s,t}) - b_s x^k_t,
    B = X^{ijk}_{0,.}, D = B - b x^k.  Every operand is stored time first,
    (n+1, ...batch), so s and t are index tuples into the leading time axis
    that broadcast together, and every caller does the same arithmetic.
    Each call returns a fresh array, which `seminorms.column_kernel`
    overwrites in place.
    """
    level = len(indices)
    if (base2 if level == 2 else base3) is None:
        raise ValueError(f"entry {tuple(indices)} needs level {level}, but the path has no level {level}")
    i, j = indices[0] - 1, indices[1] - 1
    x0i = np.subtract(_time_view(values[..., i]), values[..., 0, i], order="C")
    last = _time_first(values[..., indices[-1] - 1])
    if level == 2:
        top, lead, inner = _time_first(base2[..., i, j]), x0i, None
    else:
        top, lead = _time_first(base3[..., i, j, indices[2] - 1]), _time_first(base2[..., i, j])
        inner = _entry_pairs(values, base2, None, indices[1:])
    low = top - lead * last

    def pairs(s, t):
        out = top[t] - low[s]
        if inner is not None:
            out -= x0i[s] * inner(s, t)
        out -= lead[s] * last[t]
        return out

    return pairs


def chen_increment(values, base2, base3, s: int, t: int):
    """(X^2_{s,t}, X^3_{s,t}) at grid indices s, t by the Chen relation; X^3 is None without base3.

    X^2_{s,t} = X^2_{0,t} - X^2_{0,s} - x_{0,s} (x) x_{s,t} and
    X^3_{s,t} = X^3_{0,t} - X^3_{0,s} - x_{0,s} (x) X^2_{s,t} - X^2_{0,s} (x) x_{s,t}.
    """
    x0s = values[s] - values[0]
    xst = values[t] - values[s]
    x2 = base2[t] - base2[s] - np.outer(x0s, xst)
    if base3 is None:
        return x2, None
    x3 = base3[t] - base3[s] - np.einsum("i,jk->ijk", x0s, x2) - np.einsum("ij,k->ijk", base2[s], xst)
    return x2, x3


def norm_plan(ambient: AmbientSpec, grid: TimeGrid):
    """A function (values, base2=None, base3=None) -> [(symbol, its norm over the leading axes)], in order.

    Degree-1 symbols read a component of `values`; level-2/3 entries stream
    from the basepoint tensors by `_entry_pairs`: O(C n) memory, no surface.
    Each symbol's dispatch on degree and norm kind, and its norm's tables,
    are worked out here once per (ambient, grid).
    """
    n, dt = grid.n_steps, grid.dt
    kernels = []
    for sym in ambient.symbols:
        if sym.degree == 1:
            path, i = path_kernel(sym.norm, n, dt), sym.indices[0] - 1
            kernels.append(lambda values, base2, base3, path=path, i=i: path(values[..., i]))
        else:
            column, word = column_kernel(sym.norm, n, dt), sym.indices
            kernels.append(lambda values, base2, base3, column=column, word=word: column(
                _entry_pairs(values, base2, base3, word), values.shape[:-2]))

    def norms(values: np.ndarray, base2: np.ndarray | None = None, base3: np.ndarray | None = None):
        return [(sym, kernel(values, base2, base3)) for sym, kernel in zip(ambient.symbols, kernels)]

    return norms


def _scheme_lift(x: SamplePath, level: int, scheme: str) -> EnhancedPath:
    level = _count("level", level, 2, 3)
    with np.errstate(over="ignore", invalid="ignore"):  # EnhancedPath refuses a non-finite tensor
        tensors = _lift_tensors(x.values, scheme, level)
    return EnhancedPath(x, *tensors, scheme=scheme)


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
    n = e.grid.n_steps
    s = _count("s", s, 0, n)
    u = _count("u", u, s, n)
    t = _count("t", t, u, n)
    v = e.level1.values
    xsu = v[u] - v[s]
    xut = v[t] - v[u]
    st2, st3 = chen_increment(v, e.base2, e.base3, s, t)
    ut2, ut3 = chen_increment(v, e.base2, e.base3, u, t)
    direct2, direct3 = _lift_tensors(v[s : u + 1], e.scheme, e.max_level)
    defect2 = st2 - direct2[-1] - ut2 - np.outer(xsu, xut)
    out = float(np.max(np.abs(defect2)))
    if e.base3 is not None:
        defect3 = (
            st3
            - direct3[-1]
            - ut3
            - np.einsum("i,jk->ijk", xsu, ut2)
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
    """Largest Chen defect over all dyadic (s, u, t) triples; 0.0 on a one-step grid, which has none."""
    return max((chen_residual(e, s, u, t) for s, u, t in dyadic_triples(e.grid.n_steps)), default=0.0)


def lifted_shift(e: EnhancedPath, h: CameronMartinPath) -> EnhancedPath:
    """Shift an enhanced path by a Cameron-Martin direction: T_h e = e + (lift(x + h) - lift(x)).

    Level 1 becomes x + h; each higher level gains the difference of the
    lifts of x + h and of x, both built with the scheme that built `e`
    (left-point for Ito, trapezoid for Stratonovich).  Those accumulators
    are multilinear, so the difference is every mixed discrete integral with
    at least one h-slot: shifting a lift of x gives the lift of x + h, any
    other enhancement of x keeps its offset from that lift, and the group law
    T_h T_k = T_{h+k} holds to rounding.
    """
    if e.scheme not in ("ito", "stratonovich"):
        raise ValueError(f"lifted shift needs an ito or stratonovich lift, got {e.scheme!r}")
    h.check_fits(e.grid, e.dim)
    xv = e.level1.values
    moved = xv + h.values
    old2, old3 = _lift_tensors(xv, e.scheme, e.max_level)
    new2, new3 = _lift_tensors(moved, e.scheme, e.max_level)
    base3 = None if e.base3 is None else e.base3 + (new3 - old3)
    return EnhancedPath(SamplePath(e.grid, moved), e.base2 + (new2 - old2), base3, scheme=e.scheme)


def dilate_enhanced(e: EnhancedPath, eps: float) -> EnhancedPath:
    """Degree-weighted scaling: level k is multiplied by eps^k."""
    if not 0 <= _real("eps", eps) < np.inf:
        raise ValueError(f"eps must be >= 0 and finite, got {eps}")
    new1 = SamplePath(e.grid, eps * e.level1.values)
    base3 = None if e.base3 is None else eps**3 * e.base3
    return EnhancedPath(new1, eps**2 * e.base2, base3, scheme=e.scheme)


def to_graded(e: EnhancedPath, ambient: AmbientSpec | None = None) -> list[tuple[SymbolSpec, float]]:
    """(symbol, norm) pairs of lift e under `ambient`, else the standard levels of e.

    An `ambient` that does not fit e raises ValueError naming the symbol.
    """
    if ambient is not None:
        ambient.check_fits(e.dim, e.max_level)
    spec = ambient or ambient_for_levels(e.dim, e.max_level)
    return norm_plan(spec, e.grid)(e.level1.values, e.base2, e.base3)


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
            "shape": list(e.base2.shape),
            "data": e.base2.ravel().tolist(),
        },
    }
    if e.base3 is not None:
        doc["level3"] = {
            "shape": list(e.base3.shape),
            "data": e.base3.ravel().tolist(),
        }
    return doc


def enhanced_from_document(doc: dict) -> EnhancedPath:
    _files.check_format(doc, FORMAT_VERSION)
    if "ambient" in doc:
        raise ValueError("enhanced-path document has an 'ambient' field; embedded ambients are not read, pass --ambient")
    with _files.document_fields("enhanced-path document"):
        grid = TimeGrid(horizon=doc["grid"]["horizon"], n_steps=doc["grid"]["n_steps"])
        lvl1 = np.asarray(doc["level1"]["data"]).reshape(doc["level1"]["shape"])
        path = SamplePath(grid, lvl1)
        base2 = np.asarray(doc["level2"]["data"]).reshape(doc["level2"]["shape"])
        base3 = None
        if "level3" in doc:
            base3 = np.asarray(doc["level3"]["data"]).reshape(doc["level3"]["shape"])
        return EnhancedPath(path, base2, base3, scheme=doc["scheme"])


def save_enhanced(e: EnhancedPath, filename) -> None:
    _files.write_json(filename, enhanced_to_document(e))


def load_enhanced(filename) -> EnhancedPath:
    """Read an enhanced-path JSON file; malformed content raises ValueError naming it."""
    return _files.read_json(filename, enhanced_from_document)
