import math

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
    kl_truncate,
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


def test_sample_path_validation():
    grid = TimeGrid(1.0, 4)
    with pytest.raises(ValueError):
        SamplePath(grid, np.zeros((3, 1)))
    with pytest.raises(ValueError):
        SamplePath(grid, np.full((5, 1), np.nan))
    with pytest.raises(ValueError, match="dim >= 1"):
        SamplePath(grid, np.zeros((5, 0)))


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
    # the covariance the spectrum induces, summed into path values, is the
    # dense grid covariance to rounding (deterministic, no sampling)
    for hurst in (0.1, 0.3, 0.5, 0.8, 0.95):
        for n in (1, 2, 7, 16, 33):
            scale = grids_mod._fbm_cholesky(hurst, n)
            weight = np.full(n + 1, float(n))
            weight[[0, n]] = 2.0 * n
            lag_cov = np.fft.irfft(scale**2 / weight, 2 * n)
            lags = np.arange(n)
            incr_cov = lag_cov[np.abs(lags[:, None] - lags[None, :])]
            grid = TimeGrid(float(n), n)  # unit steps
            dense = GaussianSpec("fbm", 1, hurst=hurst).grid_covariance(grid)
            induced = np.cumsum(np.cumsum(incr_cov, axis=0), axis=1)
            assert np.max(np.abs(induced - dense)) <= 1e-12 * np.max(dense)


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


def test_cm_norm_values():
    grid = TimeGrid(1.0, 64)
    zero = CameronMartinPath(grid, np.zeros((64, 1)))
    assert cm_norm(zero) == 0.0
    ramp = CameronMartinPath(grid, np.ones((64, 1)))
    assert cm_norm(ramp) == pytest.approx(1.0, abs=1e-14)
    e1 = brownian_onb(1, TimeGrid(1.0, 1024))
    assert abs(cm_norm(e1) - 1.0) <= 1e-3


def test_kl_truncate_recovers_basis_element():
    grid = TimeGrid(1.0, 1024)
    e1 = brownian_onb(1, grid)
    out = kl_truncate(e1.as_sample_path(), 1)
    # coefficient extracted from the first cell (output is c * e1' at midpoints)
    mid0 = grid.dt / 2.0
    ref = math.sqrt(2.0) * math.cos(0.5 * math.pi * mid0)
    coeff = out.derivative_values[0, 0] / ref
    assert abs(coeff - 1.0) <= 1e-3
    sup_err = np.max(np.abs(out.values - e1.values))
    assert sup_err <= 2e-3


def test_kl_truncate_zero_and_validation():
    grid = TimeGrid(1.0, 64)
    zero = SamplePath(grid, np.zeros((65, 1)))
    out = kl_truncate(zero, 1)
    assert np.array_equal(out.derivative_values, np.zeros((64, 1)))
    with pytest.raises(ValueError):
        kl_truncate(zero, 0)


def test_kl_truncate_linearity():
    grid = TimeGrid(1.0, 128)
    x = sample(GaussianSpec("bm", 2), grid, seed=5)
    y = sample(GaussianSpec("bm", 2), grid, seed=6)
    combo = SamplePath(grid, 0.3 * x.values - 1.7 * y.values)
    lhs = kl_truncate(combo, 8).derivative_values
    rhs = (
        0.3 * kl_truncate(x, 8).derivative_values
        - 1.7 * kl_truncate(y, 8).derivative_values
    )
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_kl_sup_error_decreases_in_m():
    grid = TimeGrid(1.0, 256)
    spec = GaussianSpec("bm", 1)
    ms = [4, 16, 64]
    errs = {m: [] for m in ms}
    for seed in range(100):
        x = sample(spec, grid, seed=seed)
        for m in ms:
            approx = kl_truncate(x, m)
            errs[m].append(float(np.max(np.abs(approx.values - x.values))))
    medians = [float(np.median(errs[m])) for m in ms]
    assert medians[0] >= medians[1] >= medians[2]


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
    grid = TimeGrid(1.0, 12)
    x = SamplePath(grid, np.zeros((13, 1)))
    with pytest.raises(ValueError, match="divide"):
        piecewise_linear(x, 3)


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
