"""Small-noise rate estimation, tail constants, and their analytic oracles.

Raw Monte Carlo can only see events with probability down to ~2e-3, so the
epsilon -> 0 limits are carried by closed-form Gaussian oracles (reflection
principle, Gaussian tails, the B_T^2/2 identity of the trapezoid diagonal);
Monte Carlo verifies the moderate-epsilon regime against the same oracles.
Each oracle is one standard-normal tail: `_oracle_terms` gives its (u, s)
once per run, and `_oracle_scaled` alone turns them into eps^2 log p.
Every event statistic used here is homogeneous under dilations, so one batch
of statistics serves every epsilon by rescaling the threshold; the identity
P(dilate(eps, lift) in A_c) = P(stat >= c / eps^degree) is exact and tested.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from ._batch import homogeneous_norm_batch, homogeneous_norm_plan, pair_base_batch, parallel_chunks
from .grids import (
    CHUNK_BYTES, CameronMartinPath, GaussianSpec, TimeGrid, _check_streams, _count, _real, derived_rng,
    paley_wiener, sample_values_batch,
)
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


class Statistic(NamedTuple):
    """One registry entry: a statistic of enhanced paths over any leading axes.

    `fn(values=, base2=, base3=, entry=, ambient=, grid=)` is homogeneous of
    order `degree` under dilations and reads basepoint tensors up to `level`
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


def _check_entry(entry, dim: int | None = None) -> tuple[int, int]:
    """A level-2 entry as two ints >= 1, after refusing one that reads a component above `dim`."""
    try:
        i, j = entry
    except (TypeError, ValueError):
        raise ValueError(f"entry must be two integers, got {entry!r}") from None
    entry = (_count("entry index", i), _count("entry index", j))
    if dim is not None and max(entry) > dim:
        raise ValueError(f"entry {entry} reads component {max(entry)}, but the path has d={dim}")
    return entry


@dataclass(frozen=True)
class EventSpec:
    """Closed event {statistic >= threshold} evaluated on an enhanced path.

    The statistic is positively homogeneous of order `degree` under dilations,
    which lets one sample of statistics serve every epsilon.
    """

    kind: str
    threshold: float
    entry: tuple[int, int] = (1, 1)
    ambient: AmbientSpec | None = None

    def __post_init__(self):
        _check_statistic(self.kind, "event kind")
        if not math.isfinite(_real("threshold", self.threshold)):
            raise ValueError(f"threshold must be finite, got {self.threshold!r}")
        object.__setattr__(self, "entry", _check_entry(self.entry))
        if self.kind == "hom-norm" and self.ambient is None:
            raise ValueError("hom-norm events need an ambient spec")

    @property
    def degree(self) -> int:
        return STATISTICS[self.kind].degree

    def statistic(self, e: EnhancedPath) -> float:
        """The registry statistic on `e`'s own arrays, as a batch of one, after `_collect_statistics`'s checks."""
        if self.ambient is not None:
            self.ambient.check_fits(e.dim, e.max_level)
        _check_entry(self.entry, e.dim)
        base3 = None if e.base3 is None else e.base3[None]
        stat = STATISTICS[self.kind].fn(
            values=e.level1.values[None], base2=e.base2[None], base3=base3,
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


def _oracle_terms(oracle: str, event: EventSpec, spec: GaussianSpec, grid: TimeGrid) -> tuple[float, float]:
    """(u, s) with P(dilate(eps, lift(X)) in event) = P(|N(0, 1)| >= z), z = u / (eps s).

    For an oracle `_check_oracle` accepts; computed once per run.  All three
    are one-dimensional: x_T ~ N(0, R(T, T)) for the terminal and level-2
    diagonal tails, and the reflection principle, which holds for Brownian
    motion only, for the running maximum.  Each statistic is >= 0 (the
    running max starts at 0), so every event holds surely at c <= 0, where
    z = 0 gives P = 1.  A threshold is refused unless the limit -a^2/2,
    a = u / s = eps z, is finite: a is c / sqrt(R(T, T)) for `reflection`
    and `terminal-gauss` and sqrt(2 c / R(T, T)) for `level2-diag-gauss`, so
    at T = 1 a sup or terminal threshold above about 1.34e154 is refused.
    """
    c = max(event.threshold, 0.0)
    var = float(spec.covariance(grid.horizon, grid.horizon))
    if oracle == "level2-diag-gauss":
        # trapezoid diagonal is x_T^2/2 exactly, so the event is an x_T tail
        u, s = math.sqrt(2.0 * c / var), 1.0
    else:
        # reflection: P(max_{t<=T} B_t >= a) = 2 P(B_T >= a) = P(|B_T| >= a)
        u, s = c, math.sqrt(var)
    a = u / s
    if not math.isfinite(a * a):
        raise ValueError(
            f"threshold {event.threshold!r} puts the {oracle!r} oracle's limit -a^2/2 out of range (a = {a!r})"
        )
    return u, s


def _oracle_scaled(u: float, s: float, eps: float) -> float:
    """eps^2 log P(|N(0, 1)| >= z), z = u / (eps s), finite however small eps is.

    It is eps^2 (log 2 + log_ndtr(-z)) wherever that product is finite.  Once
    z^2 overflows (eps below about 1e-154) log_ndtr(-z) is -inf, and the
    value is taken in scaled form: the limit -(eps z)^2 / 2 plus eps^2 times
    the remainder log 2 + log_ndtr(-z) + z^2/2, which is log 2 - log z
    - log(2 pi)/2 up to O(1/z^2).  Where z overflows itself, eps z is
    a = u / s and log z is log a - log eps.  (u, s) come from
    `_oracle_terms`, which refuses an a whose limit is not finite.
    """
    # scipy.special is imported here, not at module level, so that runs which
    # ask for no oracle never load scipy
    from scipy.special import log_ndtr

    z = u / (eps * s)
    scaled = eps**2 * (math.log(2.0) + float(log_ndtr(-z)))
    if math.isfinite(scaled):
        return scaled
    if math.isfinite(z):
        eps_z, log_z = eps * z, math.log(z)
    else:
        a = u / s
        eps_z, log_z = a, math.log(a) - math.log(eps)
    return -0.5 * eps_z**2 + eps**2 * (math.log(2.0) - log_z - 0.5 * math.log(2.0 * math.pi))


@dataclass
class RateEstimate:
    """Per-epsilon scaled log-probabilities with uncertainty and oracles.

    `scaled` holds eps^2 log p_hat; censored epsilons (expected hits below the
    floor, or zero observed hits) carry NaN there and are listed in
    `censored`.  The extrapolated rate is -I from `_tail_fit` at u = 1/eps,
    the limit of eps^2 log p; it is NaN when fewer than two epsilons have
    between 30 hits and a tenth of the samples.
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
        header = ["epsilon", "hits", "log_prob", "log_prob_se", "scaled", "scaled_se", "oracle_scaled", "censored"]
        oracle = self.oracle_values or [""] * len(self.epsilons)
        columns = zip(self.epsilons, self.hits, self.log_probs, self.log_prob_ses, self.scaled, self.scaled_ses, oracle)
        return [header] + [[*row, int(row[0] in self.censored)] for row in columns]


MIN_EXPECTED_HITS = 20  # empirical_rate censors an epsilon expected to hit fewer times
PILOT_SAMPLES = 2000  # empirical_rate's default pilot, drawn from the streams after its main run
TAIL_MIN_HITS = 30  # a `_tail_fit` point has at least this many hits, and at most a tenth of the sample
MAX_THREADS = 64  # the most worker threads a Monte Carlo run takes, each holding its own chunk


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
    pilot_samples: int = PILOT_SAMPLES,
    chunk: int | None = None,
    threads: int = 1,
) -> RateEstimate:
    """Monte Carlo estimate of eps^2 log P(dilate(eps, lift(X)) in event).

    One driver pass draws samples 0..n_samples+pilot_samples-1 of `seed`: the
    first `n_samples` are the main run, the rest the pilot.  The pilot drops
    epsilons whose expected hit count falls below `MIN_EXPECTED_HITS` (they
    are reported as censored, with a warning, and never enter the fit); an
    epsilon that still records zero hits in the main run is likewise
    censored rather than reported as -inf.  pilot_samples=0 means no pilot
    censoring: the expected-hits test is skipped, and only zero-hit epsilons
    are censored.  The pilot and the main run each count the samples at or
    above every epsilon's threshold c / eps^degree from one sorted copy,
    as `fernique_tail_fit` counts its norms.  The epsilons must be distinct
    and positive, with eps^2 neither 0 nor inf (`_check_epsilons`).  An
    oracle's (u, s) is computed and range-checked once, before any draw
    (`_oracle_terms`), and `_oracle_scaled` turns it into each epsilon's
    eps^2 log p.  The driver sizes its chunks by bytes (`grids.CHUNK_BYTES`);
    `chunk`, when given, caps the paths a chunk takes.
    """
    epsilons = sorted(float(_real("epsilon", e)) for e in epsilons)[::-1]
    _check_epsilons(epsilons)
    # one pass splits at n_samples, so a negative count would move the split
    n_samples, pilot_samples = _count("n_samples", n_samples, 0), _count("pilot_samples", pilot_samples, 0)
    oracle_values = None
    if oracle is not None:
        _check_oracle(oracle, event, spec, scheme)
        u, s = _oracle_terms(oracle, event, spec, grid)
        oracle_values = [_oracle_scaled(u, s, eps) for eps in epsilons]

    plain, _, _ = _collect_statistics(
        spec, scheme, grid, seed, n_samples + pilot_samples, chunk, threads,
        names=(event.kind,), entry=event.entry, ambient=event.ambient,
    )
    stats_main, pilot_stats = np.split(plain[event.kind], [n_samples])
    thresholds = [event.threshold / eps**event.degree for eps in epsilons]
    censored: list[float] = []
    if pilot_samples:
        expected = _exceedances(pilot_stats, thresholds) / pilot_samples * n_samples
        for eps, e in zip(epsilons, expected):
            if e < MIN_EXPECTED_HITS:
                censored.append(eps)
                warnings.warn(
                    f"epsilon={eps} excluded: expected hits {e:.1f} < "
                    f"{MIN_EXPECTED_HITS} at n_samples={n_samples}",
                    stacklevel=2,
                )
    hits = [0 if eps in censored else int(k) for eps, k in zip(epsilons, _exceedances(stats_main, thresholds))]
    for eps, k in zip(epsilons, hits):
        if k == 0 and eps not in censored:
            censored.append(eps)

    def log_prob(k: int) -> tuple[float, float]:
        """log p_hat and its delta-method se; NaN for no hits, so n_samples=0 divides nothing."""
        if not k:
            return math.nan, math.nan
        p_hat = k / n_samples
        return math.log(p_hat), math.sqrt(p_hat * (1.0 - p_hat) / n_samples) / p_hat

    log_probs, log_ses = map(list, zip(*map(log_prob, hits)))
    scaled = [eps**2 * v for eps, v in zip(epsilons, log_probs)]
    scaled_ses = [eps**2 * v for eps, v in zip(epsilons, log_ses)]

    return RateEstimate(
        epsilons=epsilons,
        n_samples=n_samples,
        hits=hits,
        log_probs=log_probs,
        log_prob_ses=log_ses,
        scaled=scaled,
        scaled_ses=scaled_ses,
        oracle_values=oracle_values,
        extrapolated_rate=-_tail_fit([1.0 / eps for eps in epsilons], hits, n_samples)[0],
        censored=censored,
    )


def _check_epsilons(epsilons) -> None:
    """Refuse an empty list, a repeat, or an epsilon whose eps^degree is 0 or inf at degree 1 or 2."""
    if not epsilons or not all(e > 0 and 0.0 < e * e < math.inf for e in epsilons):
        raise ValueError(f"epsilons must be positive and finite, at least one, with eps^2 not 0 or inf, got {epsilons}")
    if len(set(epsilons)) < len(epsilons):
        raise ValueError(f"epsilons must be distinct, got {epsilons}")


def _exceedances(sample: np.ndarray, thresholds) -> np.ndarray:
    """How many entries of `sample` lie at or above each threshold: all but those sorted below it."""
    return len(sample) - np.searchsorted(np.sort(sample), thresholds)


def _tail_fit(u, hits, n: int) -> tuple[float, np.ndarray]:
    """The rate I of log(hits / n) = -I u^2 + a log u + b, and the mask of the points it used.

    A point enters when TAIL_MIN_HITS <= hits <= n / 10, weighted by sqrt(hits) ~ 1 / se(log p_hat).
    The log term needs four points; two or three fit -I u^2 + b, and fewer give NaN.  The fit runs
    in u / u0, u0 the first point used, so no power of u overflows and I scales as u^-2.
    """
    u, hits = np.asarray(u, dtype=float), np.asarray(hits)
    used = (hits >= TAIL_MIN_HITS) & (10 * hits <= n)
    if used.sum() < 2:
        return math.nan, used
    u0 = float(u[used][0])
    x, w = u[used] / u0, np.sqrt(hits[used])
    columns = [-x * x, np.ones_like(x)] + ([np.log(x)] if len(x) >= 4 else [])
    coef = np.linalg.lstsq(np.column_stack(columns) * w[:, None], np.log(hits[used] / n) * w, rcond=None)[0]
    return float(coef[0]) / u0 / u0, used


def _collect_statistics(
    spec, scheme, grid, seed, count, chunk=None, threads=1, *,
    names=(), entry=(1, 1), ambient=None, shift=None,
):
    """The Monte Carlo driver: sample each chunk once, evaluate every statistic.

    Every estimator makes one pass.  Returns `(plain, shifted, pw)`.
    `plain[name]` holds registry statistic `name` on samples 0..count-1 of
    `seed`.  With a Cameron-Martin `shift` h, `shifted[name]` holds it on
    x + h and `pw` the grid Paley-Wiener sums of h' against the increments
    of x; without one, `shifted` is empty and `pw` is None.  Base tensors are
    built once per path set, up to the highest level any named statistic
    reads.

    A chunk holds, per path, float64 values (n+1) d and base tensors
    (n+1) d^k for each level k from 2 up, all twice with a shift.  It takes
    as many paths as fit `grids.CHUNK_BYTES` split among the threads, at
    least one and at most `chunk` when one is given, so memory stays bounded
    at any grid size.  Each statistic depends only on its path's index, so
    the chunking changes no bit.
    """
    if scheme not in MC_SCHEMES:
        raise ValueError(f"scheme must be one of {MC_SCHEMES}, got {scheme!r}")
    # refused before the result arrays are allocated, which a count past the streams may not fit;
    # a chunk below 1 would run no chunk and leave those arrays unwritten
    count = _count("count", count, 0)
    _check_streams(0, count)
    threads = _count("threads", threads, 1, MAX_THREADS)
    level = max(
        (ambient.max_degree if STATISTICS[n].level is None else STATISTICS[n].level for n in names),
        default=1,
    )
    per_path = 8 * (grid.n_steps + 1) * sum(spec.dim**k for k in range(1, level + 1))
    per_path *= 1 if shift is None else 2
    paths = max(1, CHUNK_BYTES // (threads * per_path))
    chunk = paths if chunk is None else min(_count("chunk", chunk), paths)
    if ambient is not None:
        ambient.check_fits(spec.dim, ambient.max_degree)
        ambient.check_process(spec)
    entry = _check_entry(entry, spec.dim)
    if shift is not None:
        shift.check_fits(grid, spec.dim)
    plain = {name: np.empty(count) for name in names}
    shifted = {} if shift is None else {name: np.empty(count) for name in names}
    pw = None if shift is None else np.empty(count)

    def evaluate(values, out, rows):
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, not warned
            base2, base3 = _base_tensors(values, scheme, level)
            for name in names:
                out[name][rows] = STATISTICS[name].fn(
                    values=values, base2=base2, base3=base3, entry=entry, ambient=ambient, grid=grid
                )
                if not np.isfinite(out[name][rows]).all():
                    raise FloatingPointError(f"statistic {name!r} is not finite on samples from {rows.start}")

    def worker(first, c):
        values = sample_values_batch(spec, grid, seed, c, start=first)
        rows = slice(first, first + c)
        if shift is not None:
            if names:
                evaluate(values + shift.values[None], shifted, rows)
            pw[rows] = paley_wiener(shift, values)
        evaluate(values, plain, rows)

    parallel_chunks(count, chunk, worker, threads)
    return plain, shifted, pw


def _base_tensors(values, scheme, level):
    """Level-2 and level-3 basepoint tensors of `values` up to `level`; None above it."""
    base2 = pair_base_batch(values, scheme) if level >= 2 else None
    base3 = _triple_base(values, scheme, base2) if level >= 3 else None
    return base2, base3


# ---------------------------------------------------------------------------
# eta0: scale-invariant quotient minimization
# ---------------------------------------------------------------------------


@dataclass
class Eta0Result:
    """The search outcome, one entry per random start in each list.

    `quotient_history` holds each start's best value after its restart leg,
    and `eta0_hat` is the least of them.  `evaluations` counts both legs.
    `converged` is true for a start whose restart leg converged to within
    1e-12 of the value its first leg ended at.
    """

    eta0_hat: float
    argmin_h: CameronMartinPath
    restarts_used: int
    quotient_history: list
    all_converged: bool
    evaluations: list
    converged: list

    def to_document(self) -> dict:
        return {
            "eta0_hat": self.eta0_hat,
            "restarts_used": self.restarts_used,
            "quotient_history": self.quotient_history,
            "all_converged": self.all_converged,
            "evaluations": self.evaluations,
            "converged": self.converged,
            "argmin_derivative": self.argmin_h.derivative_values.tolist(),
        }


def skeleton_norm(h: CameronMartinPath, ambient: AmbientSpec) -> float:
    """Homogeneous norm of the exact (Young) lift of h, at the ambient's max degree."""
    v = h.values
    base2, base3 = _base_tensors(v, "young", ambient.max_degree)
    return homogeneous_norm_batch(ambient, h.grid, v, base2, base3)


def _eta0_objective(ambient: AmbientSpec, grid: TimeGrid):
    """R(h) for one (ambient, grid), its norm dispatch worked out once: a function of `vecs` (k, n d).

    Each row of `vecs` holds the cell derivatives of one h.  Non-finite rows,
    rows within 1e-12 of zero and rows whose lift has norm 0 give inf.  A
    row's value does not depend, to the last bit, on the other rows.
    """
    n, d, dt, level = grid.n_steps, ambient.noise_dim, grid.dt, ambient.max_degree
    norm_of = homogeneous_norm_plan(ambient, grid)

    def quotients(vecs: np.ndarray) -> np.ndarray:
        # NaN propagates through the max and fails both tests; inf fails the second
        size = np.maximum.reduce(np.abs(vecs), axis=1)
        ok = (size >= 1e-12) & (size < np.inf)
        rows = len(vecs)
        # a row that fails is evaluated as ones, so every row takes one route, and its value is dropped
        if np.count_nonzero(ok) == rows:
            deriv = np.ascontiguousarray(vecs, dtype=float)
        else:
            deriv = np.where(ok[:, None], vecs, 1.0)
        values = np.zeros((rows, n + 1, d))
        np.add.accumulate((deriv * dt).reshape(rows, n, d), axis=1, out=values[:, 1:])
        norm = norm_of(values, *_base_tensors(values, "young", level))
        energy = 0.5 * np.add.reduce(np.square(deriv), axis=1) * dt
        valid = norm > 0
        valid &= ok
        if np.count_nonzero(valid) == rows:
            return energy / np.square(norm)
        return np.divide(energy, np.square(norm), out=np.full(rows, np.inf), where=valid)

    return quotients


def eta0_quotient(h: CameronMartinPath, ambient: AmbientSpec) -> float:
    """R(h) = (|h|_H^2 / 2) / |||lift(h)|||^2; invariant under h -> c h.

    The search's objective on a batch of one.
    """
    return float(_eta0_objective(ambient, h.grid)(h.derivative_values.reshape(1, -1))[0])


class _SimplexResult(NamedTuple):
    """Per start: best vertex (R, N), its value, evaluation count, convergence."""

    x: np.ndarray
    fun: np.ndarray
    evaluations: np.ndarray
    converged: np.ndarray


def _nelder_mead(fun, x0: np.ndarray, maxiter: int, xatol: float, fatol: float) -> _SimplexResult:
    """Minimize `fun` from every row of x0 (R, N) by Nelder-Mead, all starts in lock step.

    `fun` maps (k, N) points to (k,) values, each row's value independent of
    the others.  Each start follows scipy's non-adaptive method on its own
    (Lagarias et al. 1998): reflection, expansion, contraction and shrink
    coefficients 1, 2, 1/2, 1/2, and an initial simplex that scales one
    coordinate of x0 by 1.05 (a zero becomes 0.00025).  A start is frozen,
    converged, once its vertices lie within `xatol` and their values within
    `fatol` of its best vertex; starts still moving after `maxiter - 1`
    iterations are unconverged.

    Each iteration evaluates all four candidate points of every live start
    (reflection, expansion, outside and inside contraction) in one call of
    `fun`, then each start takes its point by scipy's comparisons; only
    shrinks make a second call.  `evaluations` counts what scipy's `nfev`
    counts: the initial simplex, the reflection, the expansion or contraction
    point when scipy's step reads it, and the N shrunk vertices, but not the
    candidates a start left unused.
    """
    starts, n = x0.shape
    # the vertex axis leads: vertex j of every live start is sim[j], its values fsim[j]
    sim = np.repeat(x0[None], n + 1, axis=0)
    diag = np.arange(n)
    sim[diag + 1, :, diag] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025).T
    fsim = fun(sim.reshape(-1, n)).reshape(n + 1, starts)
    result = _SimplexResult(
        np.empty((starts, n)), np.empty(starts), np.empty(starts, dtype=int), np.zeros(starts, dtype=bool)
    )
    # candidate points a xbar - b worst: reflection, expansion, outside and inside contraction
    a = np.array([2.0, 3.0, 1.5, 0.5])[:, None, None]
    b = np.array([1.0, 2.0, 0.5, -0.5])[:, None, None]
    live, evaluations = np.arange(starts), np.full(starts, n + 1)
    cols = live
    for iteration in range(maxiter):
        # row j * live.size + r of the flattened simplices is vertex j of start r, so one gather sorts them all
        flat = fsim.argsort(axis=0) * live.size + cols
        sim, fsim = sim.reshape(-1, n).take(flat, axis=0), fsim.take(flat)
        if iteration == maxiter - 1:
            break
        # sorted values: the largest |f_0 - f_j| is f_N - f_0
        done = fsim[-1] - fsim[0] <= fatol
        if np.count_nonzero(done):
            done[done] = np.abs(sim[1:, done] - sim[:1, done]).max(axis=(0, 2)) <= xatol
            if np.count_nonzero(done):
                frozen = live[done]
                result.x[frozen], result.fun[frozen] = sim[0, done], fsim[0, done]
                result.evaluations[frozen], result.converged[frozen] = evaluations[done], True
                keep = ~done
                live, sim, fsim, evaluations = live[keep], sim[:, keep], fsim[:, keep], evaluations[keep]
                if not live.size:
                    break
                cols = np.arange(live.size)
        # summed over contiguous vertex rows in order, as scipy sums them
        xbar = np.add.reduce(sim[:-1], 0) / n
        points = a * xbar - b * sim[-1]
        f = fun(points.reshape(-1, n)).reshape(4, -1)
        fr, fe, fo, fi = f
        expand = fr < fsim[0]
        # fr below the second-worst and below the worst value
        below = fr < fsim[-2:]
        reflect = expand | below[0]
        # each start's point: 0 reflection, 1 expansion, 2 outside, 3 inside contraction
        choice = np.where(reflect, expand & (fe < fr), 3 - below[1])
        shrink = ~(reflect | np.where(below[1], fo <= fr, fi < fsim[-1]))
        # a reflection taken without trying the expansion costs one evaluation, every other move two
        evaluations += 2 - (reflect ^ expand)
        flat = choice * live.size + cols
        step = slice(None)
        if np.count_nonzero(shrink):
            best = sim[:1, shrink]
            moved = best + 0.5 * (sim[1:, shrink] - best)
            sim[1:, shrink] = moved
            fsim[1:, shrink] = fun(moved.reshape(-1, n)).reshape(n, -1)
            evaluations[shrink] += n
            step = ~shrink
        sim[-1, step], fsim[-1, step] = points.reshape(-1, n).take(flat[step], axis=0), f.take(flat[step])
    result.x[live], result.fun[live], result.evaluations[live] = sim[0], fsim[0], evaluations
    return result


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
    needed.  `restarts` counts the random starts of a derivative-free simplex
    search, all run in lock step, one batched objective call for all of them
    at a time.  Sup-type norms make R nonsmooth and the simplex stalls on it
    (McKinnon 1998), so each start restarts once from its own best vertex
    (Kelley 1999): `maxiter - maxiter // 2` iterations, then `maxiter // 2`
    more from that vertex rescaled to unit RMS, with no second leg when
    `maxiter` is 1.  `maxiter` is thus each start's whole budget.
    """
    segments = _count("segments", segments, 2)
    restarts = _count("restarts", restarts)
    d = ambient.noise_dim
    # the skeleton h has one component per distinguished symbol
    ambient.check_fits(d, ambient.max_degree)
    grid = TimeGrid(horizon, segments)
    n_var = segments * d
    maxiter = 400 * n_var if maxiter is None else _count("maxiter", maxiter)

    fatol = 1e-12

    objective = _eta0_objective(ambient, grid)

    def leg(x: np.ndarray, budget: int) -> _SimplexResult:
        """`budget` lock-step iterations from every row of `x` rescaled to unit RMS."""
        x = x / np.sqrt(np.mean(x**2, axis=1, keepdims=True))
        return _nelder_mead(objective, x, budget, xatol=1e-8, fatol=fatol)

    x0 = np.stack([derived_rng(seed, r).standard_normal(n_var) for r in range(restarts)])
    legs = [leg(x0, maxiter - maxiter // 2)]
    if maxiter // 2:
        legs.append(leg(legs[0].x, maxiter // 2))
    first, last = legs[0], legs[-1]
    # a start has converged when its last leg did and agrees with the leg before it;
    # a one-iteration leg never converges, so maxiter=1 reports no start converged
    converged = last.converged & (np.abs(last.fun - first.fun) <= fatol)
    winner = int(np.argmin(last.fun))
    best_val, best_vec = float(last.fun[winner]), last.x[winner]
    if not math.isfinite(best_val):
        raise RuntimeError("all restarts collapsed to the zero path")
    argmin = CameronMartinPath(grid, best_vec.reshape(segments, d))
    # report the argmin on the unit sphere of the lifted norm
    argmin = argmin.scaled(1.0 / skeleton_norm(argmin, ambient))
    return Eta0Result(
        eta0_hat=best_val,
        argmin_h=argmin,
        restarts_used=restarts,
        quotient_history=last.fun.tolist(),
        all_converged=bool(converged.all()),
        evaluations=sum(leg.evaluations for leg in legs).tolist(),
        converged=converged.tolist(),
    )


# ---------------------------------------------------------------------------
# Fernique tail fit
# ---------------------------------------------------------------------------

FERNIQUE_MIN_SAMPLES = 10**4
FERNIQUE_THRESHOLDS = 12


@dataclass
class TailFit:
    """Gaussian-tail rate of log-survival in t, and the thresholds `_tail_fit` used."""

    sample_count: int
    thresholds: list
    log_survival: list
    exceedances: list
    eta_hat: float
    fit_range: tuple

    def to_document(self) -> dict:
        return asdict(self)

    def csv_rows(self) -> list[list]:
        columns = zip(self.thresholds, self.log_survival, self.exceedances)
        return [["threshold", "log_survival", "exceedances"]] + [list(row) for row in columns]


def lift_norm_samples(
    spec: GaussianSpec,
    scheme: str,
    ambient: AmbientSpec,
    grid: TimeGrid,
    n_samples: int,
    seed: int,
    chunk: int | None = None,
    threads: int = 1,
) -> np.ndarray:
    """Homogeneous norms of n_samples independent lifts.

    The driver sizes its chunks by bytes (`grids.CHUNK_BYTES`); `chunk`,
    when given, caps the paths a chunk takes.
    """
    plain, _, _ = _collect_statistics(
        spec, scheme, grid, seed, n_samples, chunk, threads, names=("hom-norm",), ambient=ambient
    )
    return plain["hom-norm"]


def fernique_tail_fit(
    spec: GaussianSpec,
    scheme: str,
    ambient: AmbientSpec,
    n_samples: int,
    seed: int,
    *,
    grid: TimeGrid,
    threads: int = 1,
) -> TailFit:
    """Fit exp(-eta t^2) decay to the upper tail of the lifted norm.

    `FERNIQUE_THRESHOLDS` thresholds are spaced evenly in t^2 from the 90th
    percentile up to the largest threshold that keeps at least
    `TAIL_MIN_HITS` samples at or above it, counted from one sorted sample
    as `empirical_rate` counts its hits.  `_tail_fit` at u = t gives eta_hat,
    and the result lists the thresholds it used.  A threshold whose t^2 is
    not finite is refused.
    """
    n_samples = _count("n_samples", n_samples, FERNIQUE_MIN_SAMPLES)
    norms = np.sort(lift_norm_samples(spec, scheme, ambient, grid, n_samples, seed, threads=threads))
    if norms[-1] - norms[0] <= 1e-15 * max(1.0, abs(float(norms[-1]))):
        raise ValueError("degenerate norm sample: all values equal")
    t_lo = float(np.quantile(norms, 0.9))
    t_hi = float(norms[-TAIL_MIN_HITS])
    if not math.isfinite(t_hi * t_hi):
        raise ValueError(f"tail thresholds overflow: t^2 is not finite at t={t_hi!r}")
    ts = np.sqrt(np.linspace(t_lo**2, t_hi**2, FERNIQUE_THRESHOLDS))
    exceed = _exceedances(norms, ts)
    eta_hat, used = _tail_fit(ts, exceed, n_samples)
    if math.isnan(eta_hat):
        raise ValueError(f"tail too short to fit: under two thresholds with {TAIL_MIN_HITS} <= exceedances <= n/10")
    ts, exceed = ts[used], exceed[used]
    log_surv = np.log(exceed / n_samples)
    return TailFit(
        sample_count=n_samples,
        thresholds=ts.tolist(),
        log_survival=log_surv.tolist(),
        exceedances=exceed.tolist(),
        eta_hat=eta_hat,
        fit_range=(float(ts[0]), float(ts[-1])),
    )
