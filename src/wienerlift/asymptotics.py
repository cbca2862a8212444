"""Small-noise rate estimation, tail constants, and their analytic oracles.

Raw Monte Carlo can only see events with probability down to ~2e-3, so the
epsilon -> 0 limits are carried by closed-form Gaussian oracles (reflection
principle, Gaussian tails, the B_T^2/2 identity of the trapezoid diagonal);
Monte Carlo verifies the moderate-epsilon regime against the same oracles.
Every event statistic used here is homogeneous under dilation, so one batch
of statistics serves every epsilon by rescaling the threshold; the identity
P(dilate(eps, lift) in A_c) = P(stat >= c / eps^degree) is exact and tested.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy import optimize, stats

from ._batch import homogeneous_norm_batch, pair_base_batch, parallel_chunks
from .grids import CameronMartinPath, GaussianSpec, TimeGrid, cm_norm, derived_rng, sample_values_batch
from .lifts import EnhancedPath, _triple_base
from .seminorms import AmbientSpec
# unused here, but perfbench/spans.py patches these names in this module
from .lifts import to_graded, young_skeleton_lift  # noqa: F401
from .seminorms import homogeneous_norm  # noqa: F401

# the Monte Carlo schemes: left-point sums or the trapezoid rule
MC_SCHEMES = ("ito", "stratonovich")

# each oracle is a closed form for one registry statistic
ORACLES = {
    "reflection": "sup-level1",
    "terminal-gauss": "terminal-abs",
    "level2-diag-gauss": "level2-entry",
}

# largest (chunk, n+1, n+1) float64 surface the driver lets one chunk build
SURFACE_BYTES = 64 * 2**20


class Statistic(NamedTuple):
    """One registry entry: a statistic of enhanced paths over any leading axes.

    `fn(values=, base2=, base3=, entry=, ambient=, grid=)` is homogeneous of
    order `degree` under dilation and reads basepoint tensors up to `level`
    (None: the ambient's max degree).
    """

    degree: int
    level: int | None
    fn: Callable[..., np.ndarray]


STATISTICS = {
    "sup-level1": Statistic(1, 1, lambda values, **_: np.max(values, axis=(-2, -1))),
    "terminal-abs": Statistic(1, 1, lambda values, **_: np.linalg.norm(values[..., -1, :], axis=-1)),
    "terminal-level1": Statistic(1, 1, lambda values, **_: values[..., -1, 0]),
    "level2-entry": Statistic(2, 2, lambda base2, entry, **_: base2[..., -1, entry[0] - 1, entry[1] - 1]),
    "hom-norm": Statistic(1, None, lambda values, base2, base3, ambient, grid, **_: (
        homogeneous_norm_batch(ambient, grid, values, base2, base3))),
}


def _check_statistic(name: str, what: str) -> None:
    if name not in STATISTICS:
        raise ValueError(f"{what} must be one of {tuple(STATISTICS)}, got {name!r}")


@dataclass(frozen=True)
class EventSpec:
    """Closed event {statistic >= threshold} evaluated on an enhanced path.

    The statistic is positively homogeneous of order `degree` under dilation,
    which lets one sample of statistics serve every epsilon.
    """

    kind: str
    threshold: float
    entry: tuple[int, int] = (1, 1)
    ambient: AmbientSpec | None = None

    def __post_init__(self):
        _check_statistic(self.kind, "event kind")
        if self.kind == "hom-norm" and self.ambient is None:
            raise ValueError("hom-norm events need an ambient spec")

    @property
    def degree(self) -> int:
        return STATISTICS[self.kind].degree

    def statistic(self, e: EnhancedPath) -> float:
        """The registry statistic on `e`'s own arrays, as a batch of one."""
        base3 = None if e.level3 is None else e.level3.base[None]
        stat = STATISTICS[self.kind].fn(
            values=e.level1.values[None], base2=e.level2.base[None], base3=base3,
            entry=self.entry, ambient=self.ambient, grid=e.grid,
        )
        return float(stat[0])


def _check_oracle(oracle: str, event: EventSpec, spec: GaussianSpec, scheme: str) -> None:
    """Refuse an oracle that is not a closed form for this event, process and scheme."""
    if oracle not in ORACLES:
        raise ValueError(f"oracle must be one of {tuple(ORACLES)}, got {oracle!r}")
    if event.kind != ORACLES[oracle]:
        raise ValueError(
            f"oracle {oracle!r} is a closed form for {ORACLES[oracle]!r} events, got {event.kind!r}"
        )
    if oracle == "level2-diag-gauss" and (event.entry[0] != event.entry[1] or scheme == "ito"):
        raise ValueError(
            f"oracle {oracle!r} holds for a diagonal entry of a trapezoid lift, "
            f"got entry {event.entry} under {scheme!r}"
        )
    if oracle != "level2-diag-gauss" and spec.dim > 1:
        raise ValueError(f"oracle {oracle!r} is a one-dimensional closed form, got d={spec.dim}")
    if oracle == "reflection" and spec.kind != "bm":
        raise ValueError(f"oracle {oracle!r} holds for Brownian motion only, got {spec.kind!r}")


def _oracle_log_prob(
    oracle: str, event: EventSpec, spec: GaussianSpec, grid: TimeGrid, eps: float
) -> float:
    """log P(dilate(eps, lift(X)) in event) for an oracle `_check_oracle` accepts.

    All three are one-dimensional: x_T ~ N(0, R(T, T)) for the terminal and
    level-2 diagonal tails, and the reflection principle, which holds for
    Brownian motion only, for the running maximum.
    """
    c = event.threshold
    var = float(spec.covariance(grid.horizon, grid.horizon))
    if oracle == "level2-diag-gauss":
        # trapezoid diagonal is x_T^2/2 exactly, so the event is an x_T tail
        return math.log(2.0) + float(stats.norm.logcdf(-math.sqrt(2.0 * c / var) / eps))
    # reflection: P(max_{t<=T} B_t >= a) = 2 P(B_T >= a) = P(|B_T| >= a)
    return math.log(2.0) + float(stats.norm.logcdf(-c / (eps * math.sqrt(var))))


@dataclass
class RateEstimate:
    """Per-epsilon scaled log-probabilities with uncertainty and oracles.

    `scaled` holds eps^2 log p_hat; censored epsilons (expected hits below the
    floor, or zero observed hits) carry NaN there and are listed in
    `censored`.  The extrapolated rate is the intercept of an ordinary
    least-squares fit of the scaled values against eps^2, a heuristic for the
    leading finite-epsilon correction which is exact-in-form only for the
    oracle events.
    """

    epsilons: list
    n_samples: int
    hits: list
    log_probs: list
    log_prob_ses: list
    scaled: list
    scaled_ses: list
    oracle_values: list | None
    extrapolated_rate: float
    censored: list = field(default_factory=list)

    def to_document(self) -> dict:
        return asdict(self)

    def csv_rows(self) -> list[list]:
        header = [
            "epsilon",
            "hits",
            "log_prob",
            "log_prob_se",
            "scaled",
            "scaled_se",
            "oracle_scaled",
            "censored",
        ]
        rows = [header]
        for i, eps in enumerate(self.epsilons):
            rows.append(
                [
                    eps,
                    self.hits[i],
                    self.log_probs[i],
                    self.log_prob_ses[i],
                    self.scaled[i],
                    self.scaled_ses[i],
                    self.oracle_values[i] if self.oracle_values else "",
                    int(eps in self.censored),
                ]
            )
        return rows


def empirical_rate(
    spec: GaussianSpec,
    scheme: str,
    event: EventSpec,
    epsilons,
    n_samples: int,
    seed: int,
    *,
    grid: TimeGrid,
    oracle: str | None = None,
    min_expected_hits: int = 20,
    pilot_samples: int = 2000,
    chunk: int = 512,
    threads: int = 1,
) -> RateEstimate:
    """Monte Carlo estimate of eps^2 log P(dilate(eps, lift(X)) in event).

    A pilot run drops epsilons whose expected hit count falls below
    `min_expected_hits` (they are reported as censored, with a warning, and
    never enter the fit); an epsilon that still records zero hits in the main
    run is likewise censored rather than reported as -inf.
    """
    epsilons = sorted(float(e) for e in epsilons)[::-1]
    if not epsilons:
        raise ValueError("epsilons must be non-empty")
    deg = event.degree
    oracle_values = None
    if oracle is not None:
        _check_oracle(oracle, event, spec, scheme)
        oracle_values = [
            eps**2 * _oracle_log_prob(oracle, event, spec, grid, eps) for eps in epsilons
        ]

    pilot_stats = _event_statistics(
        spec, scheme, event, grid, seed + 1, pilot_samples, chunk, threads
    )
    live: list[float] = []
    censored: list[float] = []
    for eps in epsilons:
        cut = event.threshold / eps**deg
        expected = float(np.mean(pilot_stats >= cut)) * n_samples
        if expected < min_expected_hits:
            censored.append(eps)
            warnings.warn(
                f"epsilon={eps} excluded: expected hits {expected:.1f} < "
                f"{min_expected_hits} at n_samples={n_samples}",
                stacklevel=2,
            )
        else:
            live.append(eps)

    stats_main = (
        _event_statistics(spec, scheme, event, grid, seed, n_samples, chunk, threads)
        if live
        else np.empty(0)
    )

    hits, log_probs, log_ses, scaled, scaled_ses = [], [], [], [], []
    for eps in epsilons:
        k = 0 if eps in censored else int(np.sum(stats_main >= event.threshold / eps**deg))
        if k == 0:
            if eps not in censored:
                censored.append(eps)
            hits.append(0)
            for acc in (log_probs, log_ses, scaled, scaled_ses):
                acc.append(float("nan"))
            continue
        p_hat = k / n_samples
        se_p = math.sqrt(p_hat * (1.0 - p_hat) / n_samples)
        se_log = se_p / p_hat
        hits.append(k)
        log_probs.append(math.log(p_hat))
        log_ses.append(se_log)
        scaled.append(eps**2 * math.log(p_hat))
        scaled_ses.append(eps**2 * se_log)

    fit_eps = [e for e in epsilons if e not in censored]
    fit_scaled = [s for s in scaled if not math.isnan(s)]
    if len(fit_eps) >= 2:
        coeffs = np.polyfit(np.asarray(fit_eps) ** 2, np.asarray(fit_scaled), 1)
        extrapolated = float(coeffs[1])
    elif len(fit_eps) == 1:
        extrapolated = fit_scaled[0]
    else:
        extrapolated = float("nan")

    return RateEstimate(
        epsilons=epsilons,
        n_samples=n_samples,
        hits=hits,
        log_probs=log_probs,
        log_prob_ses=log_ses,
        scaled=scaled,
        scaled_ses=scaled_ses,
        oracle_values=oracle_values,
        extrapolated_rate=extrapolated,
        censored=censored,
    )


def _collect_statistics(
    spec, scheme, grid, seed, count, chunk, threads=1, *,
    names=(), entry=(1, 1), ambient=None, shift=None,
):
    """The Monte Carlo driver: sample each chunk once, evaluate every statistic.

    Returns `(plain, shifted, pw)`.  `plain[name]` holds registry statistic
    `name` on each of the `count` paths drawn from `seed`.  With a
    Cameron-Martin `shift` h, `shifted[name]` holds it on x + h and `pw` the
    grid Paley-Wiener sums of h' against the increments of x; without one,
    `shifted` is empty and `pw` is None.  Base tensors are built once per
    path set, up to the highest level any named statistic reads.
    """
    if scheme not in MC_SCHEMES:
        raise ValueError(f"scheme must be one of {MC_SCHEMES}, got {scheme!r}")
    level = max(
        (ambient.max_degree if STATISTICS[n].level is None else STATISTICS[n].level for n in names),
        default=1,
    )
    if "hom-norm" in names and ambient.max_degree >= 2:
        # its symbol norms build (chunk, n+1, n+1) surfaces
        chunk = max(1, min(chunk, SURFACE_BYTES // (8 * (grid.n_steps + 1) ** 2)))
    plain = {name: np.empty(count) for name in names}
    shifted = {} if shift is None else {name: np.empty(count) for name in names}
    pw = None if shift is None else np.empty(count)

    def evaluate(values, out, rows):
        base2, base3 = _base_tensors(values, scheme, level)
        for name in names:
            out[name][rows] = STATISTICS[name].fn(
                values=values, base2=base2, base3=base3, entry=entry, ambient=ambient, grid=grid
            )

    def worker(start, c):
        values = sample_values_batch(spec, grid, seed, c, start=start)
        rows = slice(start, start + c)
        if shift is not None:
            if names:
                evaluate(values + shift.values[None], shifted, rows)
            pw[rows] = np.einsum("ki,cki->c", shift.derivative_values, np.diff(values, axis=1))
        evaluate(values, plain, rows)

    parallel_chunks(count, chunk, worker, threads)
    return plain, shifted, pw


def _base_tensors(values, scheme, level):
    """Level-2 and level-3 basepoint tensors of `values` up to `level`; None above it."""
    base2 = pair_base_batch(values, scheme) if level >= 2 else None
    base3 = _triple_base(values, values, values, scheme, pair_ab=base2) if level >= 3 else None
    return base2, base3


def _event_statistics(spec, scheme, event, grid, seed, count, chunk, threads):
    plain, _, _ = _collect_statistics(
        spec, scheme, grid, seed, count, chunk, threads,
        names=(event.kind,), entry=event.entry, ambient=event.ambient,
    )
    return plain[event.kind]


def rate_functional(h: CameronMartinPath) -> float:
    """Good-rate value of a Cameron-Martin direction: |h|_H^2 / 2."""
    return 0.5 * cm_norm(h) ** 2


# ---------------------------------------------------------------------------
# eta0: scale-invariant quotient minimization
# ---------------------------------------------------------------------------


@dataclass
class Eta0Result:
    eta0_hat: float
    argmin_h: CameronMartinPath
    restarts_used: int
    quotient_history: list
    all_converged: bool

    def to_document(self) -> dict:
        return {
            "eta0_hat": self.eta0_hat,
            "restarts_used": self.restarts_used,
            "quotient_history": self.quotient_history,
            "all_converged": self.all_converged,
            "argmin_derivative": self.argmin_h.derivative_values.tolist(),
        }


def skeleton_norm(h: CameronMartinPath, ambient: AmbientSpec) -> float:
    """Homogeneous norm of the exact (Young) lift of h, at the ambient's max degree."""
    v = h.values
    base2, base3 = _base_tensors(v, "young", ambient.max_degree)
    return homogeneous_norm_batch(ambient, h.grid, v, base2, base3)


def eta0_quotient(h: CameronMartinPath, ambient: AmbientSpec) -> float:
    """R(h) = (|h|_H^2 / 2) / |||lift(h)|||^2; invariant under h -> c h."""
    norm = skeleton_norm(h, ambient)
    if norm <= 0:
        return float("inf")
    return rate_functional(h) / norm**2


def eta0_estimate(
    ambient: AmbientSpec,
    segments: int,
    restarts: int,
    seed: int,
    *,
    horizon: float = 1.0,
    maxiter: int | None = None,
) -> Eta0Result:
    """Estimate the tail constant as the infimum of the scale-invariant quotient.

    By homogeneity of the skeleton lift, minimizing R(h) over nonzero
    piecewise-linear h equals the constrained infimum of |h|_H^2/2 over the
    unit sphere of the lifted homogeneous norm, so no constraint handling is
    needed.  Sup-type norms make R nonsmooth; a derivative-free simplex
    search with random restarts is used and the best quotient is returned.
    """
    if segments < 2:
        raise ValueError(f"segments must be >= 2, got {segments}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    d = ambient.noise_dim
    grid = TimeGrid(horizon, segments)
    n_var = segments * d

    def objective(vec: np.ndarray) -> float:
        if not np.all(np.isfinite(vec)) or np.max(np.abs(vec)) < 1e-12:
            return float("inf")
        h = CameronMartinPath(grid, vec.reshape(segments, d))
        return eta0_quotient(h, ambient)

    best_val = float("inf")
    best_vec = None
    history = []
    all_converged = True
    for r in range(restarts):
        rng = derived_rng(seed, r)
        x0 = rng.standard_normal(n_var)
        x0 /= math.sqrt(float(np.mean(x0**2)))
        res = optimize.minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={
                "maxiter": maxiter or 400 * n_var,
                "xatol": 1e-8,
                "fatol": 1e-12,
            },
        )
        val = float(res.fun)
        history.append(val)
        all_converged = all_converged and bool(res.success)
        if val < best_val:
            best_val = val
            best_vec = res.x
    if best_vec is None or not math.isfinite(best_val):
        raise RuntimeError("all restarts collapsed to the zero path")
    # polish the winning restart; the simplex often stalls on sup-type norms
    polish = optimize.minimize(
        objective,
        best_vec,
        method="Nelder-Mead",
        options={"maxiter": maxiter or 400 * n_var, "xatol": 1e-10, "fatol": 1e-14},
    )
    if math.isfinite(polish.fun) and polish.fun < best_val:
        best_val = float(polish.fun)
        best_vec = polish.x
    argmin = CameronMartinPath(grid, best_vec.reshape(segments, d))
    # report the argmin on the unit sphere of the lifted norm
    scale = skeleton_norm(argmin, ambient)
    argmin = argmin.scaled(1.0 / scale)
    return Eta0Result(
        eta0_hat=best_val,
        argmin_h=argmin,
        restarts_used=restarts,
        quotient_history=history,
        all_converged=all_converged,
    )


# ---------------------------------------------------------------------------
# Fernique tail fit
# ---------------------------------------------------------------------------


@dataclass
class TailFit:
    """Fitted Gaussian-tail slope of log-survival against t^2."""

    sample_count: int
    thresholds: list
    log_survival: list
    exceedances: list
    eta_hat: float
    fit_range: tuple

    def to_document(self) -> dict:
        return asdict(self)

    def csv_rows(self) -> list[list]:
        rows = [["threshold", "log_survival", "exceedances"]]
        for t, ls, k in zip(self.thresholds, self.log_survival, self.exceedances):
            rows.append([t, ls, k])
        return rows


def lift_norm_samples(
    spec: GaussianSpec,
    scheme: str,
    ambient: AmbientSpec,
    grid: TimeGrid,
    n_samples: int,
    seed: int,
    chunk: int = 512,
    threads: int = 1,
) -> np.ndarray:
    """Homogeneous norms of n_samples independent lifts."""
    norm = EventSpec("hom-norm", 0.0, ambient=ambient)  # its statistic is the norm
    return _event_statistics(spec, scheme, norm, grid, seed, n_samples, chunk, threads)


def fernique_tail_fit(
    spec: GaussianSpec,
    scheme: str,
    ambient: AmbientSpec,
    n_samples: int,
    seed: int,
    *,
    grid: TimeGrid,
    n_thresholds: int = 12,
    min_exceedances: int = 30,
    chunk: int = 512,
    threads: int = 1,
) -> TailFit:
    """Fit exp(-eta t^2) decay to the upper tail of the lifted norm.

    Thresholds are spaced evenly in t^2 from the 90th percentile up to the
    largest threshold that keeps at least `min_exceedances` samples above it;
    the slope of log-survival against t^2 over those points gives eta_hat.
    """
    if n_samples < 10**4:
        raise ValueError(f"n_samples must be >= 10^4, got {n_samples}")
    norms = lift_norm_samples(spec, scheme, ambient, grid, n_samples, seed, chunk, threads)
    if np.max(norms) - np.min(norms) <= 1e-15 * max(1.0, abs(float(np.max(norms)))):
        raise ValueError("degenerate norm sample: all values equal")
    sorted_norms = np.sort(norms)
    t_lo = float(np.quantile(norms, 0.9))
    t_hi = float(sorted_norms[-min_exceedances])
    if not t_hi > t_lo:
        raise ValueError(
            "tail too short to fit: the 90th percentile already has fewer "
            f"than {min_exceedances} exceedances"
        )
    ts = np.sqrt(np.linspace(t_lo**2, t_hi**2, n_thresholds))
    exceed = np.array([int(np.sum(norms >= t)) for t in ts])
    keep = exceed >= min_exceedances
    ts, exceed = ts[keep], exceed[keep]
    log_surv = np.log(exceed / n_samples)
    slope, _ = np.polyfit(ts**2, log_surv, 1)
    eta_hat = float(-slope)
    if not math.isfinite(eta_hat):
        raise ValueError("tail fit produced a non-finite slope")
    return TailFit(
        sample_count=n_samples,
        thresholds=ts.tolist(),
        log_survival=log_surv.tolist(),
        exceedances=exceed.tolist(),
        eta_hat=eta_hat,
        fit_range=(float(ts[0]), float(ts[-1])),
    )
