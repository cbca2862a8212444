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
from dataclasses import asdict, dataclass

import numpy as np

from .asymptotics import _check_statistic, _collect_statistics
# perfbench/spans.py patches these names here as well as in asymptotics
from .asymptotics import homogeneous_norm_batch, pair_base_batch, sample_values_batch  # noqa: F401
from .grids import CameronMartinPath, GaussianSpec, SamplePath, TimeGrid, _count, cm_inner, paley_wiener
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
    h.check_fits(x.grid, x.dim)
    return SamplePath(x.grid, x.values + h.values)


def cm_log_density(x: SamplePath, h: CameronMartinPath) -> CmDensityEval:
    """Evaluate log f_h(x) = h_pw(x) - |h|^2_H / 2 on the grid.

    Valid as a density evaluation when x is Brownian-distributed; the grid
    Paley-Wiener sum is `paley_wiener` on the batch of one.
    """
    h.check_fits(x.grid, x.dim)
    pw = float(paley_wiener(h, x.values))
    half_sq = _half_energy(h)
    return CmDensityEval(log_density=pw - half_sq, paley_wiener_term=pw, half_norm_sq=half_sq)


def _half_energy(h: CameronMartinPath) -> float:
    """|h|^2_H / 2, refused unless finite: a shift of infinite energy has no density."""
    with np.errstate(over="ignore"):  # an energy past the float range is refused below
        energy = cm_inner(h, h)
    if not math.isfinite(energy):
        raise ValueError(f"the shift's energy |h|^2_H is {energy!r}; a Cameron-Martin shift has finite energy")
    return 0.5 * energy


@dataclass(frozen=True)
class ReweightReport:
    functional: str
    n_samples: int
    estimate_lhs: float
    estimate_rhs: float
    se_lhs: float
    se_rhs: float
    z_score: float


@dataclass(frozen=True)
class CameronMartinCheck:
    """E[G(X + h)] = E[G(X) f_h(X)] on one pass over Brownian paths.

    `reweight` has a report per functional G; E[f_h] = 1 and E[exp(h_pw)] = exp(|h|^2/2) are G = 1.
    The mgf fields are None where exp(|h|^2/2) is not a finite float (|h|^2/2 above about 709.78).
    """

    reweight: dict[str, ReweightReport]
    half_norm_sq: float
    mgf_target: float | None
    mean_density: float
    mean_density_se: float
    mgf_estimate: float | None
    mgf_se: float | None

    def to_document(self) -> dict:
        return asdict(self)


def reweight_check(
    functionals: tuple[str, ...],
    h: CameronMartinPath,
    *,
    spec: GaussianSpec,
    grid: TimeGrid,
    n_samples: int,
    seed: int,
    scheme: str = "ito",
    ambient: AmbientSpec | None = None,
    entry: tuple[int, int] = (1, 1),
    chunk: int | None = None,
    threads: int = 1,
) -> CameronMartinCheck:
    """Compare E[g(lift(x+h))] against E[g(lift(x)) f_h(x)] by Monte Carlo.

    One report per named statistic g, all from one pass over the paths.  Both
    estimators use common random numbers (the same driving paths), which is
    unbiased for each side and shrinks the variance of their difference; the
    z-score is computed from the paired differences; a nonzero mean
    difference with no spread reads +-inf, never 0.  `spec` must be Brownian,
    and an h off `grid` or `spec.dim`, or of infinite energy, is refused
    before any path is drawn.  The driver sizes its chunks by bytes
    (`grids.CHUNK_BYTES`); `chunk`, when given, caps the paths a chunk takes.
    """
    for name in functionals:
        _check_statistic(name, "functional")
    if spec.kind != "bm":
        raise ValueError(f"the Cameron-Martin density is Brownian-only, got process {spec.kind!r}")
    n_samples = _count("n_samples", n_samples, 2)  # two at least, for a standard error
    half_sq = _half_energy(h)
    if ambient is None:
        ambient = ambient_for_levels(spec.dim, 2, norm_kind="holder", alpha=0.4)
    plain, shifted, pw = _collect_statistics(
        spec, scheme, grid, seed, n_samples, chunk, threads,
        names=tuple(functionals), entry=entry, ambient=ambient, shift=h,
    )
    density = np.exp(pw - half_sq)
    root_n = math.sqrt(n_samples)

    def mean_se(a: np.ndarray) -> tuple[float, float]:
        return float(np.mean(a)), float(np.std(a, ddof=1) / root_n)

    reports = {}
    for name in functionals:
        lhs, rhs = shifted[name], plain[name] * density
        (est_lhs, se_lhs), (est_rhs, se_rhs) = mean_se(lhs), mean_se(rhs)
        mean_diff, se_diff = mean_se(lhs - rhs)
        if se_diff > 0:
            z_score = mean_diff / se_diff
        else:  # no spread: a zero difference reads 0, any other +-inf
            z_score = math.copysign(math.inf, mean_diff) if mean_diff else 0.0
        reports[name] = ReweightReport(name, n_samples, est_lhs, est_rhs, se_lhs, se_rhs, z_score)
    with np.errstate(over="ignore"):  # past the float range the mgf check is skipped below
        target = float(np.exp(half_sq))
    finite = math.isfinite(target)
    mgf_estimate, mgf_se = mean_se(np.exp(pw)) if finite else (None, None)
    return CameronMartinCheck(reports, half_sq, target if finite else None, *mean_se(density), mgf_estimate, mgf_se)
