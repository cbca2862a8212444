import math
import re
import tracemalloc

import numpy as np
import pytest

from wienerlift import grids as grids_mod
from wienerlift.grids import (
    CameronMartinPath,
    GaussianSpec,
    SamplePath,
    TimeGrid,
    brownian_onb,
    cm_inner,
    cm_norm,
    piecewise_linear,
    read_path_csv,
    sample,
    sample_values_batch,
    write_path_csv,
)


def test_grid_validation():
    grid = TimeGrid(2.0, 4)
    assert grid.dt == 0.5
    assert np.allclose(grid.points, [0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    # a grid is finite and has a whole number of steps, stored as an int
    for horizon in (math.inf, math.nan):
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            TimeGrid(horizon, 4)
    for steps in (2.5, 4.0, True):
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            TimeGrid(1.0, steps)
    for horizon in (True, "1.0", None):
        with pytest.raises(ValueError, match="horizon must be a real number"):
            TimeGrid(horizon, 4)
    steps = TimeGrid(1.0, np.int64(4)).n_steps
    assert steps == 4 and type(steps) is int


def test_sample_path_validation():
    grid = TimeGrid(1.0, 4)
    with pytest.raises(ValueError):
        SamplePath(grid, np.zeros((3, 1)))
    with pytest.raises(ValueError):
        SamplePath(grid, np.full((5, 1), np.nan))
    with pytest.raises(ValueError, match="dim >= 1"):
        SamplePath(grid, np.zeros((5, 0)))


@pytest.mark.parametrize(
    "make, array, message",
    [
        (SamplePath, np.zeros((3, 1)), r"values has shape (3, 1), expected (5, dim >= 1)"),
        (SamplePath, np.zeros(5), r"values has shape (5,), expected (5, dim >= 1)"),
        (SamplePath, np.full((5, 2), np.inf), "values contains non-finite entries"),
        (CameronMartinPath, np.zeros((4, 0)), "derivative_values has shape (4, 0), expected (4, dim >= 1)"),
        (CameronMartinPath, np.zeros((5, 1)), "derivative_values has shape (5, 1), expected (4, dim >= 1)"),
        (CameronMartinPath, np.full((4, 1), -np.inf), "derivative_values contains non-finite entries"),
    ],
)
def test_grid_arrays_take_one_shape_and_finiteness_check(make, array, message):
    # a path has grid-many rows and at least one component, and every entry finite
    with pytest.raises(ValueError, match=re.escape(message)):
        make(TimeGrid(1.0, 4), array)


def test_seeded_determinism():
    spec = GaussianSpec("bm", 2)
    grid = TimeGrid(1.0, 64)
    a = sample(spec, grid, seed=42)
    b = sample(spec, grid, seed=42)
    assert np.array_equal(a.values, b.values)
    c = sample(spec, grid, seed=42, index=1)
    assert not np.array_equal(a.values, c.values)
    batch = sample_values_batch(spec, grid, seed=42, count=2)
    assert np.array_equal(batch[0], a.values)
    assert np.array_equal(batch[1], c.values)


def test_bm_variance_matches_covariance():
    # Monte Carlo variance at a few grid times against R(t,t) = t
    grid = TimeGrid(1.0, 16)
    values = sample_values_batch(GaussianSpec("bm", 1), grid, seed=7, count=100_000)
    for k in (4, 8, 16):
        t = grid.points[k]
        est = float(np.var(values[:, k, 0]))
        se = t * math.sqrt(2.0 / values.shape[0])
        assert abs(est - t) <= 3 * se


def test_bm_single_step_fourth_moment():
    grid = TimeGrid(2.0, 1)
    values = sample_values_batch(GaussianSpec("bm", 1), grid, seed=3, count=100_000)
    xT = values[:, -1, 0]
    fourth = float(np.mean(xT**4))
    T = 2.0
    se = math.sqrt(96.0) * T**2 / math.sqrt(len(xT))
    assert abs(fourth - 3 * T**2) <= 3 * se


def test_fbm_half_covariance_equals_bm_exactly():
    grid = TimeGrid(1.0, 64)  # dyadic points are exact binary floats
    bm = GaussianSpec("bm", 1).grid_covariance(grid)
    fbm = GaussianSpec("fbm", 1, hurst=0.5).grid_covariance(grid)
    assert np.array_equal(bm, fbm)


def test_fbm_sampling_variance():
    grid = TimeGrid(1.0, 32)
    spec = GaussianSpec("fbm", 1, hurst=0.25)
    values = sample_values_batch(spec, grid, seed=11, count=50_000)
    t = grid.points[-1]
    est = float(np.var(values[:, -1, 0]))
    target = t ** (2 * 0.25)
    se = target * math.sqrt(2.0 / values.shape[0])
    assert abs(est - target) <= 3 * se


def test_fbm_no_grid_cap():
    # no grid cap on the fBm sampler
    spec = GaussianSpec("fbm", 1, hurst=0.3)
    for n in (8192, 16384):
        x = sample(spec, TimeGrid(1.0, n), seed=0)
        assert x.values.shape == (n + 1, 1)
        assert x.values[0, 0] == 0.0


def test_fbm_embedding_reproduces_grid_covariance():
    # the law's own product by R, applied to unit normals, gives R with
    # R R^T = toeplitz(row) = the second difference of the dense grid
    # covariance, to rounding (deterministic, no sampling)
    specs = [GaussianSpec("bm", 1)] + [GaussianSpec("fbm", 1, hurst=h) for h in (0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.95)]
    for spec in specs:
        for n in (1, 2, 7, 16, 33, 64):
            grid = TimeGrid(2.0, n)
            law = grids_mod._grid_law(spec, grid)
            columns = np.empty((law.normals, n, 1))
            law.times_r(np.eye(law.normals)[:, :, None], columns)
            r = columns[:, :, 0].T  # (n, normals)
            lags = np.arange(n)
            toeplitz = law.row[np.abs(lags[:, None] - lags[None, :])]
            values_cov = np.zeros((n + 1, n + 1))
            values_cov[1:, 1:] = spec.grid_covariance(grid)
            second_difference = np.diff(np.diff(values_cov, axis=0), axis=1)
            tol = 1e-12 * np.max(second_difference)
            assert np.max(np.abs(r @ r.T - toeplitz)) <= tol, (spec, n)
            assert np.max(np.abs(toeplitz - second_difference)) <= tol, (spec, n)


def test_fbm_samples_where_the_increment_variance_overflows():
    # dt^2H is past the float range at this horizon, dt^H is not: the law's
    # row reads inf, and sampling, which needs only dt^H, still works
    spec, grid = GaussianSpec("fbm", 1, hurst=0.9), TimeGrid(1e308, 4)
    with np.errstate(all="raise"):
        assert grids_mod._grid_law(spec, grid).row[0] == math.inf
        assert np.isfinite(sample(spec, grid, seed=1).values).all()


def test_fbm_embedding_psd_near_hurst_one():
    # a plain second difference for the lag covariance loses ~k^2 of its
    # digits and gives a negative eigenvalue here
    try:
        assert np.all(grids_mod._fbm_cholesky(0.99, 2**20) >= 0.0)
    finally:
        grids_mod._fbm_cholesky.cache_clear()


def test_fbm_empirical_covariance_matches_dense_oracle():
    # zero-mean product moments E[x_i x_j] of every pair of coordinates
    # (times and components) have standard error sqrt((C_ii C_jj + C_ij^2)/N);
    # about 350 entries in all, so a 4.5 SE band fails by chance < 0.3%
    count = 40_000
    for hurst in (0.2, 0.5, 0.8):
        for n in (1, 2, 7):
            spec = GaussianSpec("fbm", 2, hurst=hurst)
            grid = TimeGrid(2.0, n)
            values = sample_values_batch(spec, grid, seed=31, count=count)
            flat = values[:, 1:, :].transpose(0, 2, 1).reshape(count, 2 * n)
            est = flat.T @ flat / count
            target = np.kron(np.eye(2), spec.grid_covariance(grid))
            var = np.diag(target)
            se = np.sqrt((var[:, None] * var[None, :] + target**2) / count)
            assert np.all(np.abs(est - target) <= 4.5 * se), (hurst, n)


def test_fbm_sample_is_batch_row_and_chunking_free():
    spec = GaussianSpec("fbm", 3, hurst=0.35)
    grid = TimeGrid(1.5, 17)
    batch = sample_values_batch(spec, grid, seed=5, count=10, start=3)
    for k in range(10):
        assert np.array_equal(sample(spec, grid, seed=5, index=3 + k).values, batch[k])
    pieces = [
        sample_values_batch(spec, grid, seed=5, count=c, start=s)
        for s, c in ((3, 4), (7, 1), (8, 5))
    ]
    assert np.array_equal(np.concatenate(pieces), batch)


def test_gaussian_spec_validation():
    with pytest.raises(ValueError):
        GaussianSpec("ou", 1)
    with pytest.raises(ValueError):
        GaussianSpec("fbm", 1, hurst=1.5)
    with pytest.raises(ValueError):
        GaussianSpec("bm", 0)
    for dim in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="dim must be an integer"):
            GaussianSpec("bm", dim)
    assert type(GaussianSpec("bm", np.int64(2)).dim) is int
    # a Hurst index describes fBm; Brownian motion refuses one rather than record it
    with pytest.raises(ValueError, match="a Hurst index describes fbm, not 'bm', got hurst=0.3"):
        GaussianSpec("bm", 1, hurst=0.3)
    # a Hurst index is a real number: "0.3" once raised a raw TypeError
    for hurst in ("0.3", True):
        with pytest.raises(ValueError, match=f"^hurst must be a real number, got {hurst!r}$"):
            GaussianSpec("fbm", 1, hurst=hurst)


def test_cm_norm_values():
    grid = TimeGrid(1.0, 64)
    zero = CameronMartinPath(grid, np.zeros((64, 1)))
    assert cm_norm(zero) == 0.0
    ramp = CameronMartinPath(grid, np.ones((64, 1)))
    assert cm_norm(ramp) == pytest.approx(1.0, abs=1e-14)
    e1 = brownian_onb(1, TimeGrid(1.0, 1024))
    assert abs(cm_norm(e1) - 1.0) <= 1e-3
    assert cm_norm(ramp.scaled(-2.0)) == pytest.approx(2.0, abs=1e-14)
    for c in (True, "2"):  # True once returned the path unchanged, "2" once raised a raw TypeError
        with pytest.raises(ValueError, match=f"^c must be a real number, got {c!r}$"):
            ramp.scaled(c)


def test_brownian_onb_is_orthonormal_in_cameron_martin_space():
    grid = TimeGrid(1.0, 1024)
    basis = [brownian_onb(k, grid) for k in range(1, 5)]
    gram = np.array([[cm_inner(e, f) for f in basis] for e in basis])
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-4


def test_brownian_onb_matches_its_closed_form():
    T = 2.0
    grid = TimeGrid(T, 2048)
    for k in (1, 3):
        omega = (k - 0.5) * math.pi / T
        closed = math.sqrt(2.0 * T) * np.sin(omega * grid.points) / ((k - 0.5) * math.pi)
        values = brownian_onb(k, grid).values
        assert values[0, 0] == 0.0
        assert np.max(np.abs(values[:, 0] - closed)) <= 1e-5
    with pytest.raises(ValueError, match="k must be >= 1"):
        brownian_onb(0, grid)


def test_piecewise_linear_exact_on_linear_paths():
    grid = TimeGrid(1.0, 64)
    x = SamplePath(grid, np.stack([2.0 * grid.points, -grid.points], axis=1))
    out = piecewise_linear(x, 3)
    assert np.allclose(out.derivative_values[:, 0], 2.0, atol=1e-12)
    assert np.allclose(out.derivative_values[:, 1], -1.0, atol=1e-12)


def test_piecewise_linear_finest_level():
    grid = TimeGrid(1.0, 64)
    x = sample(GaussianSpec("bm", 2), grid, seed=8)
    out = piecewise_linear(x, 6)
    assert np.allclose(out.derivative_values, x.increments / grid.dt, atol=1e-12)
    assert np.max(np.abs(out.values - x.values)) <= 1e-12


def test_piecewise_linear_is_projection():
    grid = TimeGrid(1.0, 64)
    x = sample(GaussianSpec("bm", 1), grid, seed=9)
    once = piecewise_linear(x, 3)
    twice = piecewise_linear(once.as_sample_path(), 3)
    assert np.max(np.abs(once.derivative_values - twice.derivative_values)) <= 1e-12


def test_piecewise_linear_divisibility_error():
    # 2^(10^6) has over 300k digits: formatting it once broke Python's integer-to-string limit
    for n, m in ((12, 3), (8, 10**6)):
        x = SamplePath(TimeGrid(1.0, n), np.zeros((n + 1, 1)))
        with pytest.raises(ValueError, match=rf"^2\^{m} must divide the path's {n} steps$"):
            piecewise_linear(x, m)


def test_piecewise_linear_sup_error_decreases():
    grid = TimeGrid(1.0, 256)
    spec = GaussianSpec("bm", 1)
    ms = [2, 4, 6]
    meds = []
    for m in ms:
        errs = []
        for seed in range(100):
            x = sample(spec, grid, seed=seed)
            approx = piecewise_linear(x, m)
            errs.append(float(np.max(np.abs(approx.values - x.values))))
        meds.append(float(np.median(errs)))
    assert meds[0] >= meds[1] >= meds[2]


def test_piecewise_linear_energy_nondecreasing_in_m():
    grid = TimeGrid(1.0, 256)
    x = sample(GaussianSpec("bm", 1), grid, seed=10)
    norms = [cm_norm(piecewise_linear(x, m)) for m in range(0, 9)]
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


def test_cm_inner_grid_mismatch():
    a = CameronMartinPath(TimeGrid(1.0, 8), np.ones((8, 1)))
    b = CameronMartinPath(TimeGrid(1.0, 16), np.ones((16, 1)))
    with pytest.raises(ValueError, match="grid"):
        cm_inner(a, b)


def test_csv_round_trip(tmp_path):
    grid = TimeGrid(1.0, 32)
    x = sample(GaussianSpec("bm", 3), grid, seed=21)
    target = tmp_path / "path.csv"
    write_path_csv(x, target)
    header = target.read_text().splitlines()[0]
    assert header == "t,x1,x2,x3"
    back = read_path_csv(target)
    assert back.grid == grid
    assert np.array_equal(back.values, x.values)


def test_fbm_embedding_failure_message(monkeypatch):
    spec = GaussianSpec("fbm", 1, hurst=0.3)
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda row: -rfft(row))
    grids_mod._fbm_cholesky.cache_clear()
    with pytest.raises(grids_mod.EmbeddingFailure, match="circulant embedding"):
        sample(spec, TimeGrid(1.0, 8), seed=0)


def _oracle_rng(seed, index):
    """numpy's own route to stream `index` of a run keyed by `seed`."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 2, 2**32 + 5, 2**130 + 1])
@pytest.mark.parametrize("index", [0, 9999, 2**32 - 1])
def test_stream_states_equal_seed_sequence_streams(seed, index):
    # 2**32 + 5 has two seed words, 2**130 + 1 more words than the four-word pool
    (state,) = grids_mod._stream_states(seed, index, 1)
    assert state == _oracle_rng(seed, index).bit_generator.state
    rng = grids_mod.derived_rng(seed, index)
    assert np.array_equal(rng.standard_normal(8), _oracle_rng(seed, index).standard_normal(8))


def test_stream_states_of_a_range_are_its_single_streams():
    states = list(grids_mod._stream_states(2**32 + 5, 9990, 20))
    assert states == [_oracle_rng(2**32 + 5, i).bit_generator.state for i in range(9990, 10010)]


def _reference_values(spec, grid, seed, count, start):
    """Per-path reference for sample_values_batch, each path drawn from its oracle stream."""
    n, d = grid.n_steps, spec.dim
    out = np.zeros((count, n + 1, d))
    for k in range(count):
        rng = _oracle_rng(seed, start + k)
        if spec.kind == "bm":
            increments = rng.standard_normal((n, d)) * math.sqrt(grid.dt)
        else:
            z = rng.standard_normal((2 * n, d))
            spectrum = z[: n + 1].astype(complex)
            spectrum.imag[1:n] = z[n + 1 :]
            spectrum *= (grids_mod._fbm_cholesky(spec.hurst, n) * grid.dt**spec.hurst)[:, None]
            increments = np.fft.irfft(spectrum, 2 * n, axis=0)[:n]
        np.cumsum(increments, axis=0, out=out[k, 1:])
    return out


@pytest.mark.parametrize(
    "spec",
    [GaussianSpec("bm", 1), GaussianSpec("bm", 3), GaussianSpec("fbm", 2, hurst=0.3)],
    ids=["bm-d1", "bm-d3", "fbm-h0.3-d2"],
)
def test_sample_values_batch_matches_per_path_oracle_bytes(spec, monkeypatch):
    grid = TimeGrid(1.5, 24)
    # the default budget, one byte (each path a block of its own) and five
    # paths a block, which leaves a last block of two of the twelve
    for block_bytes in (grids_mod.BLOCK_BYTES, 1, 5 * 8 * grid.n_steps * spec.dim):
        monkeypatch.setattr(grids_mod, "BLOCK_BYTES", block_bytes)
        batch = sample_values_batch(spec, grid, seed=2**32 + 5, count=12, start=9995)
        assert batch.tobytes() == _reference_values(spec, grid, 2**32 + 5, 12, 9995).tobytes()
        empty = sample_values_batch(spec, grid, seed=2**32 + 5, count=0, start=9995)
        assert empty.shape == (0, grid.n_steps + 1, spec.dim)


@pytest.mark.parametrize(
    "spec, n",
    [(GaussianSpec("bm", 1), 2**15), (GaussianSpec("fbm", 1, hurst=0.3), 2**14)],
    ids=["bm", "fbm-h0.3"],
)
def test_path_larger_than_the_block_budget_matches_per_path_oracle_bytes(spec, n):
    # one d=1 path of 2**15 Brownian steps, or of 2**14 fBm steps at two
    # normals a step, holds 256 KiB of normals, twice the budget
    grid = TimeGrid(1.0, n)
    assert 8 * grids_mod._grid_law(spec, grid).normals > grids_mod.BLOCK_BYTES
    batch = sample_values_batch(spec, grid, seed=11, count=3, start=40)
    assert batch.tobytes() == _reference_values(spec, grid, 11, 3, 40).tobytes()


def test_fbm_sampling_peak_memory_stays_within_a_block_of_its_output():
    # normals, spectrum and irfft output live one block at a time, not one chunk at a time
    spec, grid = GaussianSpec("fbm", 1, hurst=0.3), TimeGrid(2.0, 1024)
    tracemalloc.start()
    try:
        out = sample_values_batch(spec, grid, seed=1, count=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 1e6


def test_stream_index_limit_is_refused():
    grid = TimeGrid(1.0, 4)
    with pytest.raises(ValueError, match=r"2\*\*32"):
        sample_values_batch(GaussianSpec("bm", 1), grid, seed=1, count=2, start=2**32 - 1)
    with pytest.raises(ValueError, match=r"2\*\*32"):
        grids_mod.derived_rng(1, 2**32)
    assert sample_values_batch(GaussianSpec("bm", 1), grid, seed=1, count=1, start=2**32 - 1).shape == (1, 5, 1)


def _integer_entry_points():
    """(function, parameter, call taking the bad value, bad values) for every integer the library checks."""
    from wienerlift.asymptotics import EventSpec, empirical_rate, fernique_tail_fit, lift_norm_samples
    from wienerlift.chaos import (
        ChaosPolynomial, GradedChaos, chaos_from_document, chaos_norm_equivalence_probe, chaos_project,
        proxy_restriction_mc,
    )
    from wienerlift.girsanov import reweight_check
    from wienerlift.lifts import chen_residual, ito_lift
    from wienerlift.seminorms import AmbientSpec, ambient_for_levels, classical_ambient

    spec, grid = GaussianSpec("bm", 1), TimeGrid(1.0, 8)
    path, event = sample(spec, grid, 1), EventSpec("sup-level1", 1.0)
    shift = CameronMartinPath(grid, np.full((8, 1), 0.5))
    psi = ChaosPolynomial(1, {(1,): 1.0, (2,): 0.5})
    graded = GradedChaos(1, {"a": psi}, {"a": 2})
    lift = ito_lift(path)

    def chaos_doc(dimension=2, pair=(1, 1)):
        term = {"symbol": None, "multi_index": [list(pair)], "coefficient": 1.0}
        return chaos_from_document({"format_version": "chaos/v1", "dimension": dimension, "terms": [term]})

    def ambient(**fields):
        entry = {"symbol": "1", "indices": [1], "degree": 1, "norm": {"kind": "sup"}, "arity": 1} | fields
        return AmbientSpec.from_config({"symbols": [entry], "distinguished": ["1"]})

    return [
        ("sample", "seed", lambda v: sample(spec, grid, v), (1.5, True, -1)),
        ("sample", "index", lambda v: sample(spec, grid, 1, index=v), (1.5, True, -1)),
        # start is the index of the batch's first stream
        ("sample_values_batch", "index", lambda v: sample_values_batch(spec, grid, 1, 2, start=v), (1.5, True, -1)),
        ("sample_values_batch", "count", lambda v: sample_values_batch(spec, grid, 1, v), (1.5, True, -1)),
        ("derived_rng", "seed", lambda v: grids_mod.derived_rng(v), (1.5, True, -1)),
        ("derived_rng", "index", lambda v: grids_mod.derived_rng(1, v), (1.5, True, -1)),
        ("brownian_onb", "k", lambda v: brownian_onb(v, grid), (1.5, True, 0)),
        ("piecewise_linear", "m", lambda v: piecewise_linear(path, v), (1.5, True, -1)),
        ("empirical_rate", "n_samples",
         lambda v: empirical_rate(spec, "ito", event, [0.5], v, 1, grid=grid), (1.5, True, -1)),
        ("empirical_rate", "pilot_samples",
         lambda v: empirical_rate(spec, "ito", event, [0.5], 5, 1, grid=grid, pilot_samples=v), (1.5, True, -1)),
        ("empirical_rate", "threads",
         lambda v: empirical_rate(spec, "ito", event, [0.5], 5, 1, grid=grid, threads=v), (0, -3, True, 2.5)),
        # the Monte Carlo driver checks the count of every estimator; lift_norm_samples has no check of its own
        ("lift_norm_samples", "count",
         lambda v: lift_norm_samples(spec, "ito", classical_ambient(1), grid, v, 1), (2.5, True, -1)),
        ("lift_norm_samples", "threads",
         lambda v: lift_norm_samples(spec, "ito", classical_ambient(1), grid, 4, 1, threads=v), (0, -3, True, 2.5)),
        ("fernique_tail_fit", "n_samples",
         lambda v: fernique_tail_fit(spec, "ito", classical_ambient(1), v, 1, grid=grid),
         (10**4 + 0.5, True, 10**4 - 1)),
        ("reweight_check", "n_samples",
         lambda v: reweight_check(("sup-level1",), shift, spec=spec, grid=grid, n_samples=v, seed=1), (2.5, True, 1)),
        ("proxy_restriction_mc", "n_samples",
         lambda v: proxy_restriction_mc(graded, np.array([0.4]), v, 1), (1000.5, True, 999)),
        ("chaos_project", "k", lambda v: chaos_project(psi, v), (1.5, True, -1)),
        ("probe", "k", lambda v: chaos_norm_equivalence_probe(v, 2.0, 4.0, 5), (1.5, True, -1, 5)),
        ("probe", "trials", lambda v: chaos_norm_equivalence_probe(2, 2.0, 4.0, v), (1.5, True, 0)),
        ("probe", "dimension",
         lambda v: chaos_norm_equivalence_probe(2, 2.0, 4.0, 5, dimension=v), (1.5, True, 0, 4)),
        ("ambient_for_levels", "level", lambda v: ambient_for_levels(1, v), (1.5, True, 0, 4)),
        ("ambient_for_levels", "dim", lambda v: ambient_for_levels(v, 2), (1.5, True, 0)),
        ("classical_ambient", "dim", lambda v: classical_ambient(v), (1.5, True, 0)),
        ("ito_lift", "level", lambda v: ito_lift(path, v), (2.5, True, 1, 4)),
        # grid indices 0 <= s <= u <= t <= n; a bool index once read as a numpy mask
        ("chen_residual", "s", lambda v: chen_residual(lift, v, 4, 8), (1.5, True, -1, 9)),
        ("chen_residual", "u", lambda v: chen_residual(lift, 2, v, 8), (1.5, True, 1)),
        ("chen_residual", "t", lambda v: chen_residual(lift, 2, 4, v), (1.5, True, 3)),
        # the integers a chaos or ambient document carries: int() once read 1.5 as 1, 2.9 as 2 and "1" as 1
        ("ChaosPolynomial", "dimension", lambda v: ChaosPolynomial(v, {}), (1.5, True, 0)),
        ("ChaosPolynomial", "multi-index entry", lambda v: ChaosPolynomial(1, {(v,): 1.0}), (1.5, True, -1)),
        ("GradedChaos", "degree of 'a'", lambda v: GradedChaos(1, {"a": psi}, {"a": v}), (2.9, True, -1)),
        ("chaos_from_document", "dimension", lambda v: chaos_doc(dimension=v), (1.7, True, 0)),
        ("chaos_from_document", "power", lambda v: chaos_doc(pair=(1, v)), (2.5, True, -1)),
        ("chaos_from_document", "coordinate", lambda v: chaos_doc(pair=(v, 1)), (1.5, True, 0, 3)),
        ("AmbientSpec.from_config", "degree", lambda v: ambient(degree=v), ("1", True, 2.0)),
        ("AmbientSpec.from_config", "arity", lambda v: ambient(arity=v), ("1", True, 2.0)),
    ]


@pytest.mark.parametrize(
    "entry, value",
    [
        pytest.param(i, v, id=f"{function}-{name}-{v!r}")
        for i, (function, name, _, values) in enumerate(_integer_entry_points())
        for v in values
    ],
)
def test_every_integer_argument_takes_one_check(entry, value):
    # a float, a bool or a value out of range names its parameter; 1.5, True and
    # trials=0 once ran on, as stream 1, a non-basis path, an empty projection and a vacuous pass
    _, name, call, _ = _integer_entry_points()[entry]
    with pytest.raises(ValueError, match=rf"^{name} must be (an integer|>= |<= )"):
        call(value)
