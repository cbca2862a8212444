import math
import warnings

import numpy as np
import pytest
from scipy import stats

from wienerlift.asymptotics import (
    STATISTICS,
    EventSpec,
    _check_oracle,
    _collect_statistics,
    _eta0_objective,
    _oracle_scaled,
    _oracle_terms,
    empirical_rate,
    eta0_estimate,
    eta0_quotient,
    fernique_tail_fit,
    lift_norm_samples,
)
from wienerlift.grids import CameronMartinPath, GaussianSpec, TimeGrid, cm_norm, sample
from wienerlift.lifts import _lift_tensors, dilate_enhanced, ito_lift, stratonovich_lift, to_graded
from wienerlift.seminorms import AmbientSpec, ambient_for_levels, classical_ambient


def test_event_validation():
    with pytest.raises(ValueError, match="kind must be one of .*'terminal-level1'.*got 'max'"):
        EventSpec("max", 1.0)
    with pytest.raises(ValueError, match="ambient"):
        EventSpec("hom-norm", 1.0)
    for threshold in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="threshold must be finite"):
            EventSpec("sup-level1", threshold)
    for entry, message in (
        ((0, 1), "entry index must be >= 1, got 0"),
        ((1, -1), "entry index must be >= 1, got -1"),
        ((1,), r"entry must be two integers, got \(1,\)"),
        (5, "entry must be two integers, got 5"),
        ((1, 1.0), "entry index must be an integer, got 1.0"),
        ((True, 1), "entry index must be an integer, got True"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            EventSpec("level2-entry", 1.0, entry=entry)
    # a NumPy int is an integer, and a list entry is stored as a hashable tuple of ints
    for entry in ((np.int64(1), np.int64(2)), [1, 2]):
        event = EventSpec("level2-entry", 1.0, entry=entry)
        assert event.entry == (1, 2) and all(type(i) is int for i in event.entry)
        assert hash(event) == hash(EventSpec("level2-entry", 1.0, entry=(1, 2)))
    for threshold in (True, "0.5"):
        with pytest.raises(ValueError, match="threshold must be a real number"):
            EventSpec("sup-level1", threshold)


def test_event_dilation_identity():
    # P(dilate(eps, lift) in {|||.||| >= c}) = P(|||lift||| >= c/eps), exactly
    grid = TimeGrid(1.0, 32)
    ambient = ambient_for_levels(2, 2, norm_kind="holder", alpha=0.4)
    event = EventSpec("hom-norm", 1.5, ambient=ambient)
    for seed in range(20):
        x = sample(GaussianSpec("bm", 2), grid, seed=seed)
        e = stratonovich_lift(x)
        stat = event.statistic(e)
        for eps in (0.3, 1.0, 2.5):
            direct = event.statistic(dilate_enhanced(e, eps))
            assert direct == pytest.approx(eps * stat, rel=1e-12)
            assert (direct >= event.threshold) == (stat >= event.threshold / eps)


def test_event_batch_matches_single_path():
    from wienerlift.grids import SamplePath, sample_values_batch

    grid = TimeGrid(1.0, 16)
    spec = GaussianSpec("bm", 2)
    ambient = ambient_for_levels(2, 2, norm_kind="pvar", p=2.5)
    values = sample_values_batch(spec, grid, seed=5, count=8)
    batch, _, _ = _collect_statistics(
        spec, "stratonovich", grid, 5, 8, 3, names=tuple(STATISTICS), entry=(1, 2), ambient=ambient
    )
    for kind in STATISTICS:
        event = EventSpec(kind, 0.1, entry=(1, 2), ambient=ambient)
        for i in range(values.shape[0]):
            e = stratonovich_lift(SamplePath(grid, values[i]))
            assert batch[kind][i] == pytest.approx(event.statistic(e), rel=1e-12)


def test_oracle_scaled_sequence_monotone_to_half():
    event = EventSpec("sup-level1", 1.0)
    u, s = _oracle_terms("reflection", event, GaussianSpec("bm", 1), TimeGrid(1.0, 16))
    eps_list = [0.5, 0.4, 0.3, 0.2, 0.1, 0.05, 0.01]
    scaled = [_oracle_scaled(u, s, eps) for eps in eps_list]
    assert all(a < b for a, b in zip(scaled, scaled[1:]))
    assert abs(scaled[-1] + 0.5) <= 0.01


def _log_prob(u, s, eps):
    """log P(|N(0, 1)| >= u / (eps s)) unscaled, through scipy.stats."""
    return math.log(2.0) + float(stats.norm.logcdf(-u / (eps * s)))


@pytest.mark.parametrize(
    "oracle, event, limit",
    [
        ("reflection", EventSpec("sup-level1", 1.2), -1.2**2 / (2 * 2.0)),
        ("terminal-gauss", EventSpec("terminal-abs", 1.2), -1.2**2 / (2 * 2.0)),
        ("level2-diag-gauss", EventSpec("level2-entry", 0.5), -0.5 / 2.0),
    ],
)
def test_oracle_stays_finite_where_z_squared_overflows(oracle, event, limit):
    # at eps = 1e-160, eps^2 is subnormal and z^2 overflows, so log_ndtr(-z) is -inf; the
    # scaled form gives the limit -c^2/(2T) (reflection, terminal) or -c/T (level-2 diagonal)
    spec, grid = GaussianSpec("bm", 1), TimeGrid(2.0, 8)
    u, s = _oracle_terms(oracle, event, spec, grid)
    assert _log_prob(u, s, 1e-160) == -math.inf
    assert _oracle_scaled(u, s, 1e-160) == pytest.approx(limit, rel=1e-14)
    # a finite value keeps the bits of eps^2 times the log-probability
    for eps in (0.5, 1e-150):
        assert _oracle_scaled(u, s, eps) == eps**2 * _log_prob(u, s, eps)
    est = empirical_rate(spec, "stratonovich", event, [1e-160], 10, 1, grid=grid, oracle=oracle, pilot_samples=0)
    assert est.oracle_values == [_oracle_scaled(u, s, 1e-160)]


@pytest.mark.parametrize(
    "oracle, event, limit",
    [
        ("reflection", EventSpec("sup-level1", 1e150), -1e150**2 / (2 * 2.0)),
        ("terminal-gauss", EventSpec("terminal-abs", 1e150), -1e150**2 / (2 * 2.0)),
        ("level2-diag-gauss", EventSpec("level2-entry", 1e300), -1e300 / 2.0),
    ],
)
def test_oracle_stays_finite_where_z_itself_overflows(oracle, event, limit):
    # at eps = 1e-160, z = a / eps overflows although a = eps z does not: the scaled form
    # takes eps z = a and log z = log a - log eps, and its value is the limit -a^2/2
    spec, grid = GaussianSpec("bm", 1), TimeGrid(2.0, 8)
    u, s = _oracle_terms(oracle, event, spec, grid)
    assert u / (1e-160 * s) == math.inf
    assert _oracle_scaled(u, s, 1e-160) == pytest.approx(limit, rel=1e-14)
    est = empirical_rate(spec, "stratonovich", event, [1e-160, 0.5], 10, 1, grid=grid, oracle=oracle, pilot_samples=0)
    assert all(math.isfinite(v) for v in est.oracle_values)


@pytest.mark.parametrize(
    "oracle, event",
    [
        # a = c / sqrt(R(T, T)) at T = 1: a^2 overflows above about 1.34e154
        ("reflection", EventSpec("sup-level1", 1e200)),
        ("terminal-gauss", EventSpec("terminal-abs", 1.4e154)),
        # a = sqrt(2 c / R(T, T)): 2 c overflows
        ("level2-diag-gauss", EventSpec("level2-entry", 1e308)),
    ],
)
def test_oracle_threshold_whose_limit_overflows_is_refused_before_sampling(monkeypatch, oracle, event):
    import wienerlift.asymptotics as asy

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the threshold was refused")

    monkeypatch.setattr(asy, "sample_values_batch", no_sampling)
    spec, grid = GaussianSpec("bm", 1), TimeGrid(1.0, 4)
    refusal = f"puts the '{oracle}' oracle's limit -a\\^2/2 out of range"
    with pytest.raises(ValueError, match=refusal):
        empirical_rate(spec, "stratonovich", event, [0.5], 10, 1, grid=grid, oracle=oracle)
    with pytest.raises(ValueError, match=refusal):
        _oracle_terms(oracle, event, spec, grid)
    # just below the bound the limit is finite, and so is every oracle value
    below = EventSpec(event.kind, 1.3e154 if oracle != "level2-diag-gauss" else 8e307)
    u, s = _oracle_terms(oracle, below, spec, grid)
    assert math.isfinite((u / s) ** 2)


def test_stream_limit_is_refused_before_allocating(monkeypatch):
    # a count past the derived streams is refused before the driver allocates its result arrays
    monkeypatch.setattr(np, "empty", lambda *args, **kwargs: pytest.fail("allocated"))
    grid, spec, event = TimeGrid(1.0, 4), GaussianSpec("bm", 1), EventSpec("sup-level1", 1.0)
    with pytest.raises(ValueError, match=r"stream indices reach 4294967296; derived streams stop at index 2\*\*32 - 1"):
        _collect_statistics(spec, "ito", grid, 1, 2**32 + 1, 512, names=("sup-level1",))
    with pytest.raises(ValueError, match="stream indices reach 4294969295"):
        empirical_rate(spec, "ito", event, [0.5], 2**32, 1, grid=grid)


@pytest.mark.parametrize("chunk", [0, -1, 2.5, True])
@pytest.mark.parametrize("estimator", ["empirical_rate", "lift_norm_samples", "reweight_check"])
def test_chunk_that_is_not_a_count_is_refused_before_allocating(monkeypatch, estimator, chunk):
    # a chunk of -1 once ran no chunk and returned the driver's uninitialised arrays
    from wienerlift.girsanov import reweight_check

    spec, grid = GaussianSpec("bm", 1), TimeGrid(1.0, 8)
    h = CameronMartinPath(grid, np.full((8, 1), 0.5))
    run = {
        "empirical_rate": lambda: empirical_rate(
            spec, "ito", EventSpec("sup-level1", 1.0), [0.5], 5, 1, grid=grid, pilot_samples=0, chunk=chunk
        ),
        "lift_norm_samples": lambda: lift_norm_samples(spec, "ito", classical_ambient(1), grid, 5, 1, chunk=chunk),
        "reweight_check": lambda: reweight_check(("sup-level1",), h, spec=spec, grid=grid, n_samples=5, seed=1,
                                                 chunk=chunk),
    }[estimator]
    monkeypatch.setattr(np, "empty", lambda *args, **kwargs: pytest.fail("allocated"))
    with pytest.raises(ValueError, match="chunk must be"):
        run()


def test_empirical_rate_matches_reflection_oracle():
    grid = TimeGrid(1.0, 2048)
    event = EventSpec("sup-level1", 1.0)
    est = empirical_rate(
        GaussianSpec("bm", 1), "ito", event, [0.5, 0.4], 20_000, 101,
        grid=grid, oracle="reflection",
    )
    for i in range(2):
        assert abs(est.scaled[i] - est.oracle_values[i]) <= 3 * est.scaled_ses[i]


def test_empirical_rate_censors_small_epsilons():
    grid = TimeGrid(1.0, 64)
    event = EventSpec("sup-level1", 1.0)
    with pytest.warns(UserWarning, match="excluded"):
        est = empirical_rate(
            GaussianSpec("bm", 1), "ito", event, [0.5, 0.01], 2_000, 7,
            grid=grid, oracle="reflection",
        )
    assert est.censored == [0.01]
    assert math.isnan(est.scaled[-1])
    assert math.isfinite(est.oracle_values[-1])  # oracle still attached


def test_empirical_rate_without_pilot_censors_only_zero_hits():
    args = (GaussianSpec("bm", 1), "ito", EventSpec("sup-level1", 1.0), [0.5, 0.38, 0.35, 0.01], 2_000, 7)
    with pytest.warns(UserWarning, match="excluded"):
        piloted = empirical_rate(*args, grid=TimeGrid(1.0, 32))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        bare = empirical_rate(*args, grid=TimeGrid(1.0, 32), pilot_samples=0)
    assert piloted.censored == [0.38, 0.35, 0.01]
    assert bare.censored == [0.01] and bare.hits[1:3] == [11, 5]
    # the main samples are the same draws, so the entries the pilot kept agree bit for bit
    kept = [i for i, e in enumerate(piloted.epsilons) if e not in piloted.censored]
    for field in ("hits", "log_probs", "log_prob_ses", "scaled", "scaled_ses"):
        assert [getattr(bare, field)[i] for i in kept] == [getattr(piloted, field)[i] for i in kept]


def _reference_rate_counts(stats, pilot, epsilons, c, degree):
    """hits, censored list and warnings of empirical_rate, counted one epsilon at a time."""
    n, censored, warned = len(stats), [], []
    for eps in epsilons if len(pilot) else ():
        expected = float(np.mean(pilot >= c / eps**degree)) * n
        if expected < 20:
            censored.append(eps)
            warned.append(f"epsilon={eps} excluded: expected hits {expected:.1f} < 20 at n_samples={n}")
    hits = []
    for eps in epsilons:
        k = 0 if eps in censored else int(np.sum(stats >= c / eps**degree))
        if k == 0 and eps not in censored:
            censored.append(eps)
        hits.append(k)
    return hits, censored, warned


@pytest.mark.parametrize("n_samples, pilot_samples", [(400, 200), (400, 0), (0, 200), (0, 0)])
@pytest.mark.parametrize("kind, c", [("sup-level1", 1.0), ("level2-entry", 0.5)])
def test_empirical_rate_counts_ties_as_hits(monkeypatch, n_samples, pilot_samples, kind, c):
    from wienerlift import asymptotics

    event = EventSpec(kind, c)
    epsilons = [1.0, 0.8, 0.5, 0.4, 0.25, 0.1]
    thresholds = [c / eps**event.degree for eps in epsilons]
    rng = np.random.default_rng(5)
    # rounded statistics with ties, each of the first four thresholds among them; the main
    # run stays below the fifth threshold, and the pilot holds exactly ten values at or above
    # it, half of them on it, so that epsilon's expected hits are exactly the floor of 20
    stats = np.round(rng.uniform(0.0, thresholds[3], n_samples), 2)
    stats[: min(4, n_samples)] = thresholds[: min(4, n_samples)]
    pilot = np.round(rng.uniform(0.0, 0.99 * thresholds[4], pilot_samples), 2)
    pilot[: min(10, pilot_samples)] = np.repeat([thresholds[4], 2 * thresholds[4]], 5)[:pilot_samples]
    sample = np.concatenate([stats, pilot])

    def collected(spec, scheme, grid, seed, count, *args, names, **kwargs):
        assert count == len(sample)
        return {names[0]: sample}, {}, None

    monkeypatch.setattr(asymptotics, "_collect_statistics", collected)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = empirical_rate(
            GaussianSpec("bm", 1), "stratonovich", event, epsilons, n_samples, 1,
            grid=TimeGrid(1.0, 8), pilot_samples=pilot_samples,
        )
    hits, censored, warned = _reference_rate_counts(stats, pilot, epsilons, c, event.degree)
    assert est.hits == hits and est.censored == censored
    assert [str(w.message) for w in caught] == warned
    assert [math.isnan(v) for v in est.scaled] == [k == 0 for k in hits]
    if n_samples:
        assert hits[:4] == [int(np.sum(stats >= t)) for t in thresholds[:4]] and hits[4] == 0
    if n_samples and pilot_samples:
        # the tie at the floor keeps epsilon=0.25 in the pilot; its zero main hits censor it after
        # the pilot-censored 0.1
        assert censored == [0.1, 0.25]


def test_empirical_rate_draws_each_path_once_from_its_seed(monkeypatch):
    from wienerlift import asymptotics

    drawn = []
    original = asymptotics.sample_values_batch

    def counting(spec, grid, seed, count, start=0):
        drawn.extend((seed, i) for i in range(start, start + count))
        return original(spec, grid, seed, count, start=start)

    monkeypatch.setattr(asymptotics, "sample_values_batch", counting)
    empirical_rate(
        GaussianSpec("bm", 1), "ito", EventSpec("sup-level1", 0.5), [0.8, 0.6], 700, 11,
        grid=TimeGrid(1.0, 8), pilot_samples=300, chunk=128,
    )
    # the main run reads samples 0..699, the pilot the 300 after them
    assert sorted(drawn) == [(11, i) for i in range(1_000)]


@pytest.mark.filterwarnings("ignore:epsilon=")
@pytest.mark.parametrize("threshold, censored", [(0.5, []), (50.0, [0.8, 0.6])])
def test_empirical_rate_makes_one_driver_pass(monkeypatch, threshold, censored):
    from wienerlift import asymptotics

    counts = []
    original = asymptotics._collect_statistics

    def counting(spec, scheme, grid, seed, count, *args, **kwargs):
        counts.append(count)
        return original(spec, scheme, grid, seed, count, *args, **kwargs)

    monkeypatch.setattr(asymptotics, "_collect_statistics", counting)
    est = empirical_rate(
        GaussianSpec("bm", 1), "ito", EventSpec("sup-level1", threshold), [0.8, 0.6], 700, 11,
        grid=TimeGrid(1.0, 8), pilot_samples=300, chunk=128,
    )
    # the main run and its pilot share one pass, also when the pilot censors every epsilon
    assert counts == [1_000]
    assert est.censored == censored


def test_empirical_rate_threshold_zero_is_certain():
    grid = TimeGrid(1.0, 32)
    event = EventSpec("sup-level1", 0.0)
    est = empirical_rate(
        GaussianSpec("bm", 1), "ito", event, [0.5, 0.1], 2_000, 8, grid=grid
    )
    assert est.scaled == [0.0, 0.0]
    assert est.hits == [2_000, 2_000]


def test_empirical_rate_level2_strat_diag_oracle():
    # trapezoid diagonal is B_T^2/2 exactly: event reduces to a Gaussian tail
    grid = TimeGrid(1.0, 128)
    c = 0.5  # threshold T c'^2 / 2 with c' = 1
    event = EventSpec("level2-entry", c, entry=(1, 1))
    est = empirical_rate(
        GaussianSpec("bm", 1), "stratonovich", event, [0.5, 0.4], 20_000, 9,
        grid=grid, oracle="level2-diag-gauss",
    )
    for i in range(2):
        assert abs(est.scaled[i] - est.oracle_values[i]) <= 3 * est.scaled_ses[i]
    # closed form for the oracle: 2 Phi(-1/eps)
    ref = 0.25 * (math.log(2.0) + float(stats.norm.logcdf(-2.0)))
    assert est.oracle_values[0] == pytest.approx(ref, rel=1e-12)


def test_empirical_rate_threads_deterministic():
    grid = TimeGrid(1.0, 64)
    event = EventSpec("sup-level1", 0.5)
    kwargs = dict(grid=grid, oracle="reflection")
    a = empirical_rate(GaussianSpec("bm", 1), "ito", event, [0.5], 4_000, 3, **kwargs)
    b = empirical_rate(
        GaussianSpec("bm", 1), "ito", event, [0.5], 4_000, 3, threads=4, **kwargs
    )
    assert a.scaled == b.scaled and a.hits == b.hits


@pytest.mark.parametrize("seed, maxiter", [(5, None), (977589956, 4000)])
def test_eta0_classical_recovers_half(seed, maxiter):
    # 977589956 is the eta0 benchmark's classical seed at its seed 78, where
    # every start stalls above 0.53 unless it restarts from its best vertex
    ambient = classical_ambient(1, "sup")
    result = eta0_estimate(ambient, segments=16, restarts=8, seed=seed, maxiter=maxiter)
    assert 0.5 - 1e-12 <= result.eta0_hat <= 0.5 + 1e-5
    assert result.eta0_hat == min(result.quotient_history)
    # quotient scale invariance and self-consistency at the argmin
    assert eta0_quotient(result.argmin_h, ambient) == pytest.approx(
        result.eta0_hat, abs=1e-10
    )
    assert eta0_quotient(result.argmin_h.scaled(2.0), ambient) == pytest.approx(
        result.eta0_hat, abs=1e-10
    )


def test_eta0_constrained_search_consistency():
    # infimum of |h|^2/2 over {sup h >= 1} equals 1/(2T) = 1/2, and the
    # rate at any admissible argmin cannot undercut the quotient optimum
    ambient = classical_ambient(1, "sup")
    result = eta0_estimate(ambient, segments=8, restarts=6, seed=21)
    assert result.eta0_hat == pytest.approx(0.5, abs=0.02)
    from wienerlift.asymptotics import skeleton_norm

    argmin = result.argmin_h
    unit = argmin.scaled(1.0 / skeleton_norm(argmin, ambient))
    assert 0.5 * cm_norm(unit) ** 2 >= result.eta0_hat * 0.95


def test_eta0_level2_reproducible_and_positive():
    ambient = ambient_for_levels(1, 2, norm_kind="pvar", p=2.5)
    vals = [
        eta0_estimate(ambient, segments=8, restarts=4, seed=seed).eta0_hat
        for seed in (30, 31, 32)
    ]
    assert all(v > 0 for v in vals)
    spread = (max(vals) - min(vals)) / np.mean(vals)
    assert spread <= 0.10
    # d = 1: |||S(h)||| <= sqrt(T) |h|_H (1 + 1/sqrt 2), with equality on the
    # straight line, so eta0 = (3 - 2 sqrt 2) / T at any segment count
    assert vals == pytest.approx([3.0 - 2.0 * math.sqrt(2.0)] * 3, rel=1e-9)


def test_eta0_validation():
    ambient = classical_ambient(1)
    with pytest.raises(ValueError, match="segments must be >= 2"):
        eta0_estimate(ambient, segments=1, restarts=2, seed=0)
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        eta0_estimate(ambient, segments=4, restarts=0, seed=0)
    for maxiter in (-1, 0):
        with pytest.raises(ValueError, match="maxiter"):
            eta0_estimate(ambient, segments=4, restarts=1, seed=0, maxiter=maxiter)
    # each count names its own argument, and a float or a bool is not a count
    for name, value in (("segments", 4.0), ("restarts", 2.5), ("restarts", True), ("maxiter", 20.5)):
        args = dict(segments=4, restarts=2, maxiter=20) | {name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            eta0_estimate(ambient, seed=0, **args)
    # maxiter 1 leaves the restart leg empty, and maxiter 2 gives each leg one
    # iteration, which evaluates its initial simplex of 5 vertices and stops
    for maxiter in (1, 2):
        result = eta0_estimate(ambient, segments=4, restarts=2, seed=0, maxiter=maxiter)
        assert result.evaluations == [5 * maxiter] * 2 and result.converged == [False] * 2
        assert result.eta0_hat == min(result.quotient_history)


# at each library entry point, an ambient reading a component the path lacks
UNFITTED_AMBIENT = {
    "to_graded": (
        lambda: to_graded(ito_lift(sample(GaussianSpec("bm", 2), TimeGrid(1.0, 8), 1)), ambient_for_levels(3, 1)),
        "symbol '3' reads component 3, but the path has d=2",
    ),
    "lift_norm_samples": (
        lambda: lift_norm_samples(GaussianSpec("bm", 1), "ito", ambient_for_levels(2, 2), TimeGrid(1.0, 8), 4, 1),
        "symbol '2' reads component 2, but the path has d=1",
    ),
    "eta0_estimate": (  # the skeleton has one component per distinguished symbol
        lambda: eta0_estimate(AmbientSpec(classical_ambient(2).symbols, ("1",)), 4, 1, 1),
        "symbol '2' reads component 2, but the path has d=1",
    ),
}


UNFITTED_AMBIENT["empirical_rate-entry"] = (
    lambda: empirical_rate(
        GaussianSpec("bm", 2), "ito", EventSpec("level2-entry", 0.5, entry=(3, 1)), [1.0], 4, 1,
        grid=TimeGrid(1.0, 8), pilot_samples=4,
    ),
    r"entry \(3, 1\) reads component 3, but the path has d=2",
)
UNFITTED_AMBIENT["EventSpec.statistic"] = (  # once numpy's IndexError
    lambda: EventSpec("hom-norm", 1.0, ambient=ambient_for_levels(3, 2)).statistic(
        ito_lift(sample(GaussianSpec("bm", 2), TimeGrid(1.0, 8), 1))),
    "symbol '3' reads component 3, but the path has d=2",
)
UNFITTED_AMBIENT["EventSpec.statistic-level"] = (
    lambda: EventSpec("hom-norm", 1.0, ambient=ambient_for_levels(1, 3)).statistic(
        ito_lift(sample(GaussianSpec("bm", 1), TimeGrid(1.0, 8), 1))),
    "symbol '111' has degree 3, but the lift stops at level 2",
)
UNFITTED_AMBIENT["EventSpec.statistic-entry"] = (
    lambda: EventSpec("level2-entry", 1.0, entry=(3, 1)).statistic(
        ito_lift(sample(GaussianSpec("bm", 2), TimeGrid(1.0, 8), 1))),
    r"entry \(3, 1\) reads component 3, but the path has d=2",
)


@pytest.mark.parametrize("route", sorted(UNFITTED_AMBIENT))
def test_library_refuses_an_ambient_that_does_not_fit(route):
    call, message = UNFITTED_AMBIENT[route]
    with pytest.raises(ValueError, match=message):
        call()


def test_fernique_gaussian_control():
    # |||x||| = |x(T)| gives the exact tail 2 Phi(-t/sqrt(T)): slope 1/(2T).
    # The top-decile fit carries a known upward finite-threshold bias of
    # about 12%, inside the 15% target band.
    fit = fernique_tail_fit(
        GaussianSpec("bm", 1), "ito", classical_ambient(1, "terminal"),
        100_000, 40, grid=TimeGrid(1.0, 16),
    )
    assert abs(fit.eta_hat - 0.5) <= 0.15 * 0.5
    assert min(fit.exceedances) >= 30


def test_fernique_level2_positive_and_band():
    # tail slope against the quotient optimum, with norms evaluated at the
    # same grid resolution (the two-parameter norms are grid-dependent)
    ambient = ambient_for_levels(1, 2, norm_kind="holder", alpha=0.4)
    grid = TimeGrid(1.0, 16)
    fit = fernique_tail_fit(
        GaussianSpec("bm", 1), "stratonovich", ambient, 20_000, 41, grid=grid
    )
    assert fit.eta_hat > 0
    eta0 = eta0_estimate(ambient, segments=16, restarts=4, seed=42).eta0_hat
    assert 0.5 * eta0 <= fit.eta_hat <= 5.0 * eta0


def test_fernique_validation():
    ambient = classical_ambient(1, "terminal")
    with pytest.raises(ValueError, match="n_samples must be >= 10000"):
        fernique_tail_fit(
            GaussianSpec("bm", 1), "ito", ambient, 100, 1, grid=TimeGrid(1.0, 8)
        )


def test_fernique_degenerate_sample():
    # a path with a single step has |x(T)| ~ N(0,T): not degenerate; use a
    # zero-variance functional instead by shrinking the grid horizon is not
    # possible, so check via monkeypatched norms
    ambient = classical_ambient(1, "terminal")
    import wienerlift.asymptotics as asy

    original = asy.lift_norm_samples
    try:
        asy.lift_norm_samples = lambda *a, **k: np.ones(10_000)
        with pytest.raises(ValueError, match="degenerate"):
            asy.fernique_tail_fit(
                GaussianSpec("bm", 1), "ito", ambient, 10_000, 1, grid=TimeGrid(1.0, 8)
            )
    finally:
        asy.lift_norm_samples = original


def test_fernique_exceedances_count_the_samples_at_or_above_each_threshold(monkeypatch):
    import wienerlift.asymptotics as asy

    # rounded norms carry ties, and the top threshold is itself a sample
    norms = np.round(np.abs(np.random.default_rng(3).standard_normal(10_000)), 2)
    monkeypatch.setattr(asy, "lift_norm_samples", lambda *a, **k: norms)
    fit = fernique_tail_fit(
        GaussianSpec("bm", 1), "ito", classical_ambient(1, "terminal"), 10_000, 1, grid=TimeGrid(1.0, 8)
    )
    assert fit.thresholds[0] == np.quantile(norms, 0.9)
    assert fit.thresholds[-1] in norms
    assert fit.exceedances == [int(np.sum(norms >= t)) for t in fit.thresholds]


@pytest.mark.parametrize("driver", ["empirical_rate", "lift_norm_samples"])
def test_driver_refuses_an_overflowing_statistic_without_a_warning(driver):
    # at T = 1e250 the level-3 tensors of a finite path overflow: once 200 of 200 hits and a rate of 0.0
    ambient, spec, grid = ambient_for_levels(2, 3), GaussianSpec("bm", 2), TimeGrid(1e250, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="^statistic 'hom-norm' is not finite on samples from 0$"):
            if driver == "empirical_rate":
                empirical_rate(spec, "stratonovich", EventSpec("hom-norm", 1.0, ambient=ambient), [0.5], 200, 1,
                               grid=grid)
            else:
                lift_norm_samples(spec, "stratonovich", ambient, grid, 200, 1)


def test_lift_norm_samples_threads_deterministic():
    ambient = ambient_for_levels(1, 2, norm_kind="holder", alpha=0.4)
    grid = TimeGrid(1.0, 16)
    a = lift_norm_samples(GaussianSpec("bm", 1), "ito", ambient, grid, 2_000, 77)
    b = lift_norm_samples(
        GaussianSpec("bm", 1), "ito", ambient, grid, 2_000, 77, threads=3
    )
    assert np.array_equal(a, b)


def test_level3_batch_norms_match_single_path():
    from wienerlift.grids import SamplePath, sample_values_batch
    from wienerlift.lifts import _pair_base, _triple_base, to_graded
    from wienerlift.seminorms import homogeneous_norm

    grid = TimeGrid(1.0, 16)
    spec = GaussianSpec("bm", 2)
    ambient = ambient_for_levels(2, 3, norm_kind="pvar", p=2.5)
    norms = lift_norm_samples(spec, "stratonovich", ambient, grid, 6, 12, chunk=4)
    values = sample_values_batch(spec, grid, 12, 6)
    for row, v in zip(norms, values):
        e = stratonovich_lift(SamplePath(grid, v), 3)
        assert row == pytest.approx(homogeneous_norm(to_graded(e, ambient)), rel=1e-14)
    base2 = _pair_base(values, "stratonovich")
    base3 = _triple_base(values, "stratonovich", base2)
    whole = STATISTICS["hom-norm"].fn(
        values=values, base2=base2, base3=base3, entry=(1, 1), ambient=ambient, grid=grid
    )
    assert np.array_equal(whole, norms)


def test_terminal_gauss_oracle_uses_process_variance():
    # x_T ~ N(0, T^{2H}) for fBm: log p = log 2 Phi(-c / (eps T^H))
    grid = TimeGrid(2.0, 8)
    event = EventSpec("terminal-abs", 0.6)
    spec = GaussianSpec("fbm", 1, hurst=0.3)
    u, s = _oracle_terms("terminal-gauss", event, spec, grid)
    logp = [_oracle_scaled(u, s, eps) / eps**2 for eps in (0.4, 0.5)]
    assert logp == pytest.approx([-1.500, -1.110], abs=5e-4)
    bm = _oracle_scaled(*_oracle_terms("terminal-gauss", event, GaussianSpec("bm", 1), grid), 0.4) / 0.4**2
    assert bm == pytest.approx(math.log(2.0 * stats.norm.sf(0.6 / (0.4 * math.sqrt(2.0)))))


@pytest.mark.parametrize(
    "oracle, spec, event",
    [
        ("reflection", GaussianSpec("bm", 1), EventSpec("sup-level1", 1.0)),
        ("terminal-gauss", GaussianSpec("bm", 1), EventSpec("terminal-abs", 0.6)),
        ("terminal-gauss", GaussianSpec("fbm", 1, hurst=0.3), EventSpec("terminal-abs", 0.6)),
        ("level2-diag-gauss", GaussianSpec("bm", 1), EventSpec("level2-entry", 0.5)),
    ],
)
def test_oracle_keeps_the_bits_of_scipy_stats(oracle, spec, event):
    # scipy.stats is only the reference here: the package calls log_ndtr itself
    grid = TimeGrid(2.0, 8)
    var = float(spec.covariance(2.0, 2.0))
    c = event.threshold
    for eps in (0.5, 0.1, 0.01, 0.001):
        if oracle == "level2-diag-gauss":
            x = -math.sqrt(2.0 * c / var) / eps
        else:
            x = -c / (eps * math.sqrt(var))
        expected = math.log(2.0) + float(stats.norm.logcdf(x))
        assert _oracle_scaled(*_oracle_terms(oracle, event, spec, grid), eps) == eps**2 * expected


@pytest.mark.parametrize(
    "oracle, spec, event",
    [
        ("terminal-gauss", GaussianSpec("bm", 2), EventSpec("terminal-abs", 1.0)),
        ("reflection", GaussianSpec("bm", 2), EventSpec("sup-level1", 1.0)),
        ("reflection", GaussianSpec("fbm", 1, hurst=0.3), EventSpec("sup-level1", 1.0)),
        # an oracle is a closed form for one statistic only
        ("reflection", GaussianSpec("bm", 1),
         EventSpec("hom-norm", 1.0, ambient=ambient_for_levels(1, 2, norm_kind="holder", alpha=0.4))),
        ("reflection", GaussianSpec("bm", 1), EventSpec("terminal-abs", 1.0)),
        ("terminal-gauss", GaussianSpec("bm", 1), EventSpec("sup-level1", 1.0)),
        ("terminal-gauss", GaussianSpec("bm", 1), EventSpec("terminal-level1", 1.0)),
        ("level2-diag-gauss", GaussianSpec("bm", 1), EventSpec("terminal-abs", 1.0)),
        # the Ito diagonal is not x_T^2/2
        ("level2-diag-gauss", GaussianSpec("bm", 1), EventSpec("level2-entry", 0.5)),
    ],
)
def test_oracle_refused_outside_its_closed_form(monkeypatch, oracle, spec, event):
    import wienerlift.asymptotics as asy

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the oracle was checked")

    monkeypatch.setattr(asy, "sample_values_batch", no_sampling)
    with pytest.raises(ValueError, match=oracle):
        empirical_rate(spec, "ito", event, [0.5], 100, 1, grid=TimeGrid(1.0, 8), oracle=oracle)


def test_level2_diag_oracle_needs_a_trapezoid_diagonal():
    diag, off = EventSpec("level2-entry", 0.5), EventSpec("level2-entry", 0.5, entry=(1, 2))
    for spec in (GaussianSpec("bm", 2), GaussianSpec("fbm", 2, hurst=0.3)):
        _check_oracle("level2-diag-gauss", diag, spec, "stratonovich")
        with pytest.raises(ValueError, match="diagonal entry of a trapezoid lift"):
            _check_oracle("level2-diag-gauss", diag, spec, "ito")
        with pytest.raises(ValueError, match=r"entry \(1, 2\)"):
            _check_oracle("level2-diag-gauss", off, spec, "stratonovich")


@pytest.mark.parametrize("scheme", ["Stratonovich", "young", "typo"])
def test_unknown_monte_carlo_scheme_refused(scheme):
    grid = TimeGrid(1.0, 8)
    spec = GaussianSpec("bm", 1)
    with pytest.raises(ValueError, match=r"\('ito', 'stratonovich'\)"):
        lift_norm_samples(spec, scheme, ambient_for_levels(1, 2), grid, 10, 1)
    with pytest.raises(ValueError, match=r"\('ito', 'stratonovich'\)"):
        empirical_rate(spec, scheme, EventSpec("sup-level1", 0.5), [0.5], 100, 1, grid=grid)


def test_level2_norm_memory_linear_in_grid(monkeypatch):
    # columns are streamed from the basepoint tensors: O(C n), never C (n+1)^2
    import tracemalloc

    import wienerlift.asymptotics as asy

    spec = GaussianSpec("bm", 2)
    level2 = ambient_for_levels(2, 2, norm_kind="pvar", p=2.5)
    tracemalloc.start()
    try:
        norms = lift_norm_samples(spec, "stratonovich", level2, TimeGrid(1.0, 1024), 64, 1, chunk=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert norms.shape == (64,) and np.all(np.isfinite(norms))
    assert peak < 16 * 2**20  # one (64, 1025, 1025) surface is 514 MiB
    chunks = []
    monkeypatch.setattr(asy, "parallel_chunks", lambda total, chunk, worker, threads=1: chunks.append(chunk))
    lift_norm_samples(spec, "stratonovich", level2, TimeGrid(1.0, 1024), 4096, 1)
    lift_norm_samples(spec, "stratonovich", classical_ambient(2), TimeGrid(1.0, 1024), 4096, 1, chunk=64)
    _collect_statistics(spec, "stratonovich", TimeGrid(1.0, 1024), 1, 4096, 256,
                        names=("level2-entry",))
    assert chunks == [512, 64, 256]  # every run takes the requested chunk


def test_eta0_quotient_converges_under_refinement():
    # a fixed smooth h, h' = cos 3t: with a norm that has a continuum limit the
    # quotient settles (an all-pairs q-variation halves it at every doubling)
    ambient = ambient_for_levels(1, 2, norm_kind="pvar", p=2.5)
    quotients = []
    for segments in (32, 64):
        grid = TimeGrid(1.0, segments)
        h = CameronMartinPath(grid, np.cos(3.0 * (grid.points[:-1] + grid.dt / 2))[:, None])
        quotients.append(eta0_quotient(h, ambient))
    assert abs(quotients[1] - quotients[0]) < 0.05 * quotients[0]


def test_empirical_rate_refuses_nonpositive_epsilons():
    event = EventSpec("sup-level1", 0.5)
    for bad in ([0.0], [0.5, -1.0], [math.inf], [math.nan]):
        with pytest.raises(ValueError, match="epsilons must be positive and finite"):
            empirical_rate(GaussianSpec("bm", 1), "ito", event, bad, 100, 1, grid=TimeGrid(1.0, 8))
    for n, pilot in ((-10, 100), (100, -50)):
        with pytest.raises(ValueError, match="n_samples must be >= 0" if n < 0 else "pilot_samples must be >= 0"):
            empirical_rate(GaussianSpec("bm", 1), "ito", event, [0.5], n, 1, grid=TimeGrid(1.0, 8), pilot_samples=pilot)


@pytest.mark.parametrize("kind, epsilons, message", [
    ("sup-level1", [0.5, 0.5], "distinct"),
    ("sup-level1", [0.5, 0.35, 0.5], "distinct"),
    ("level2-entry", [1e-200], r"eps\^2 not 0 or inf"),  # eps^2 underflows to 0
    ("level2-entry", [1e200], r"eps\^2 not 0 or inf"),  # eps^2 overflows
    ("sup-level1", [1e200], r"eps\^2 not 0 or inf"),
    ("sup-level1", [1e300, 0.5], r"eps\^2 not 0 or inf"),
    ("sup-level1", [], "at least one"),
    ("sup-level1", ["0.5"], "epsilon must be a real number, got '0.5'"),
    ("sup-level1", [0.5, True], "epsilon must be a real number, got True"),
])
def test_epsilon_rule_refuses_before_sampling(monkeypatch, kind, epsilons, message):
    import wienerlift.asymptotics as asy

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the epsilons were checked")

    monkeypatch.setattr(asy, "sample_values_batch", no_sampling)
    with pytest.raises(ValueError, match=message):
        empirical_rate(GaussianSpec("bm", 1), "ito", EventSpec(kind, 0.5), epsilons, 100, 1, grid=TimeGrid(1.0, 8))


def _shifted_quadratic(x):
    return np.sum((x - np.array([0.3, -1.2, 2.0, 0.7])) ** 2, axis=-1)


def _rosenbrock(x):
    return np.sum(100.0 * (x[..., 1:] - x[..., :-1] ** 2) ** 2 + (1.0 - x[..., :-1]) ** 2, axis=-1)


# objective, starts (R, N), maxiter; the eta0 caps stop some starts unconverged
SCIPY_CASES = {
    "_shifted_quadratic": (_shifted_quadratic, np.random.default_rng(3).standard_normal((5, 4)), 2000),
    "_rosenbrock": (_rosenbrock, np.random.default_rng(3).standard_normal((5, 4)), 2000),
    "eta0-classical-sup": (_eta0_objective(classical_ambient(1, "sup"), TimeGrid(1.0, 6)),
                           np.random.default_rng(4).standard_normal((4, 6)), 150),
    "eta0-level2": (_eta0_objective(ambient_for_levels(1, 2, norm_kind="pvar", p=2.5), TimeGrid(1.0, 4)),
                    np.random.default_rng(5).standard_normal((4, 4)), 60),
    # three starts freeze at different iterations, two shrink on until the cap
    "eta0-classical-terminal": (_eta0_objective(classical_ambient(1, "terminal"), TimeGrid(1.0, 3)),
                                np.random.default_rng(6).standard_normal((5, 3)), 150),
}


@pytest.mark.parametrize("case", list(SCIPY_CASES))
def test_lockstep_simplex_reaches_the_scipy_minimizer(case):
    # scipy's own Nelder-Mead is the oracle here, one start at a time, to the last bit
    from scipy import optimize

    from wienerlift.asymptotics import _nelder_mead

    fun, x0, maxiter = SCIPY_CASES[case]
    found = _nelder_mead(fun, x0, maxiter, xatol=1e-8, fatol=1e-12)
    if case.startswith("_"):
        assert found.converged.all()
    else:
        assert not found.converged.all()
    for start, x, value, evaluations, converged in zip(x0, *found):
        ref = optimize.minimize(lambda v: float(fun(v[None])[0]), start, method="Nelder-Mead",
                                options={"maxiter": maxiter, "xatol": 1e-8, "fatol": 1e-12})
        assert converged == ref.success
        assert np.array_equal(x, ref.x)
        assert value == ref.fun
        assert evaluations == ref.nfev


# level-1, -2 and -3 ambients over every norm kind, on a d=2 skeleton
ROW_AMBIENTS = {
    "classical-sup": classical_ambient(2, "sup"),
    "classical-terminal": classical_ambient(2, "terminal"),
    **{f"level{k}-{kind}": ambient_for_levels(2, k, norm_kind=kind) for k in (1, 2, 3) for kind in ("pvar", "holder")},
    **{f"mixed-{kind}": AmbientSpec.from_config({
        "symbols": [
            {"symbol": "1", "indices": [1], "degree": 1, "norm": {"kind": "pvar", "exponent": 2.5}, "arity": 1},
            {"symbol": "2", "indices": [2], "degree": 1, "norm": {"kind": "holder", "exponent": 0.4}, "arity": 1},
            {"symbol": "12", "indices": [1, 2], "degree": 2, "norm": {"kind": kind, "exponent": e}, "arity": 2},
            {"symbol": "121", "indices": [1, 2, 1], "degree": 3, "norm": {"kind": kind, "exponent": e}, "arity": 2},
        ],
        "distinguished": ["1", "2"],
    }) for kind, e in (("sup", None), ("terminal", None), ("pvar", 1.3), ("holder", 1.1))},
}


def _plain_entry(values, base2, base3, word):
    """X^w_{s,t} over all grid pairs, (k, n+1, n+1) indexed [., s, t], by the Chen arithmetic of `lifts._entry_pairs`."""
    i, j = word[0] - 1, word[1] - 1
    x0i = values[..., i] - values[..., :1, i]
    last = values[..., word[-1] - 1]
    if len(word) == 2:
        top, lead, inner = base2[..., i, j], x0i, None
    else:
        top, lead = base3[..., i, j, word[2] - 1], base2[..., i, j]
        inner = _plain_entry(values, base2, None, word[1:])
    low = top - lead * last
    out = top[:, None, :] - low[:, :, None]
    if inner is not None:
        out -= x0i[:, :, None] * inner
    out -= lead[:, :, None] * last[:, None, :]
    return out


def _plain_norm(surface, norm, dt):
    """One norm of surfaces X[., s, t] over the pairs s < t, spelled out; (k,)."""
    n = surface.shape[-1] - 1
    if norm.kind == "terminal":
        return np.abs(surface[:, 0, n])
    size = np.abs(surface)
    if norm.kind == "pvar":
        size **= norm.exponent
        best = np.zeros((n + 1, len(surface)))
        for t in range(1, n + 1):
            best[t] = np.maximum.reduce(best[:t] + size[:, :t, t].T, axis=0)
        return best[n] ** (1.0 / norm.exponent)
    best = np.zeros(len(surface))
    for t in range(1, n + 1):
        for s in range(t):
            divisor = ((t - s) * dt) ** norm.exponent if norm.kind == "holder" else 1.0
            best = np.maximum(best, size[:, s, t] / divisor)
    return best


def _plain_quotients(ambient, grid, vecs):
    """The eta0 quotient R(h) per row, written out step by step as a reference for `_eta0_objective`."""
    n, d, dt = grid.n_steps, ambient.noise_dim, grid.dt
    size = np.abs(vecs).max(axis=1)
    ok = (size >= 1e-12) & (size < np.inf)
    deriv = np.where(ok[:, None], vecs, 1.0).reshape(-1, n, d)
    values = np.zeros((len(deriv), n + 1, d))
    np.cumsum(deriv * dt, axis=1, out=values[:, 1:])
    base2, base3 = _lift_tensors(values, "young", 3)
    norm = 0.0
    for sym in ambient.symbols:
        if sym.degree == 1:
            x = values[..., sym.indices[0] - 1]
            if sym.norm.kind == "sup":
                value = np.abs(x).max(axis=-1)
            elif sym.norm.kind == "terminal":
                value = np.abs(x[:, -1])
            else:
                value = _plain_norm(x[:, None, :] - x[:, :, None], sym.norm, dt)
                if sym.norm.kind == "pvar":
                    value = np.abs(x[:, 0]) + value
        else:
            value = _plain_norm(_plain_entry(values, base2, base3, sym.indices), sym.norm, dt)
        norm += value ** (1.0 / sym.degree)
    energy = 0.5 * (deriv**2).sum(axis=(1, 2)) * dt
    return np.divide(energy, norm**2, out=np.full(len(deriv), np.inf), where=ok & (norm > 0))


def _awkward_rows(rng, rows, width):
    """Rows over four decades of scale, with a zero, a NaN, a +inf, a -inf and a near-zero row among them."""
    vecs = rng.standard_normal((rows, width)) * rng.uniform(0.01, 100.0, (rows, 1))
    vecs[1] = 0.0
    vecs[2, 3] = np.nan
    vecs[3, 0] = np.inf
    vecs[4, 5] = -np.inf
    vecs[5] = rng.uniform(-9e-13, 9e-13, width)
    return vecs


@pytest.mark.parametrize("name", list(ROW_AMBIENTS))
@pytest.mark.parametrize("horizon, segments", [(1.0, 7), (2.5, 4)])
def test_eta0_objective_matches_the_plain_reference(name, horizon, segments):
    ambient = ROW_AMBIENTS[name]
    grid = TimeGrid(horizon, segments)
    vecs = _awkward_rows(np.random.default_rng(12), 12, 2 * segments)
    # out along the diagonal for a cell and back the next: its terminal norms are 0, so its quotient is inf
    vecs[6] = 0.0
    vecs[6, :2], vecs[6, 2:4] = 1.0, -1.0
    objective = _eta0_objective(ambient, grid)
    got = objective(vecs)
    assert got.tobytes() == _plain_quotients(ambient, grid, vecs).tobytes()
    assert np.isinf(got[1:6]).all() and np.isfinite(got[7:]).all()
    assert np.isinf(got[6]) == (name == "classical-terminal")
    # a batch of valid rows alone, where no row is masked
    assert objective(vecs[7:]).tobytes() == got[7:].tobytes()


@pytest.mark.parametrize("name", list(ROW_AMBIENTS))
def test_eta0_quotient_rows_do_not_depend_on_their_batch(name):
    # the lock-step search evaluates every start's candidates in one call
    ambient = ROW_AMBIENTS[name]
    vecs = _awkward_rows(np.random.default_rng(11), 12, 14)
    objective = _eta0_objective(ambient, TimeGrid(1.0, 7))
    batch = objective(vecs)
    alone = np.concatenate([objective(row[None]) for row in vecs])
    assert batch.tobytes() == alone.tobytes()
    assert np.isinf(batch[1:6]).all() and np.isfinite(batch[6:]).all()
    # a batch of valid rows alone gives the same bits as the rows among failing ones
    assert objective(vecs[6:]).tobytes() == alone[6:].tobytes()


def test_eta0_restarts_do_not_depend_on_their_neighbours():
    ambient = classical_ambient(1, "sup")
    four = eta0_estimate(ambient, segments=6, restarts=4, seed=9, maxiter=300)
    eight = eta0_estimate(ambient, segments=6, restarts=8, seed=9, maxiter=300)
    assert eight.quotient_history[:4] == four.quotient_history
    assert eight.evaluations[:4] == four.evaluations
    assert eight.converged[:4] == four.converged


def test_eta0_reports_evaluations_per_restart():
    ambient = ambient_for_levels(1, 2, norm_kind="pvar", p=2.5)
    capped = eta0_estimate(ambient, segments=4, restarts=3, seed=1, maxiter=10)
    # two legs of 5 iterations, each 5 initial vertices and 1 to 2 + 4
    # evaluations in each of the 4 iterations that step
    assert all(2 * (5 + 4) <= e <= 2 * (5 + 4 * 6) for e in capped.evaluations)
    assert capped.converged == [False] * 3 and not capped.all_converged
    free = eta0_estimate(classical_ambient(1, "terminal"), segments=2, restarts=3, seed=1)
    assert free.all_converged and free.converged == [True] * 3
    doc = free.to_document()
    assert doc["evaluations"] == free.evaluations and doc["converged"] == [True] * 3
