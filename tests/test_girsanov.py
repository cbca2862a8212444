import math

import numpy as np
import pytest

from wienerlift.girsanov import (
    cm_log_density,
    reweight_check,
    shift_path,
)
from wienerlift.grids import (
    CameronMartinPath,
    GaussianSpec,
    TimeGrid,
    cm_inner,
    cm_norm,
    sample,
    sample_values_batch,
)


def _ramp(grid, d, slope=1.0):
    return CameronMartinPath(grid, np.full((grid.n_steps, d), slope))


def _random_cm(seed, grid, d, scale=1.0):
    rng = np.random.default_rng(seed)
    return CameronMartinPath(grid, scale * rng.standard_normal((grid.n_steps, d)))


def test_shift_path_basics():
    grid = TimeGrid(1.0, 64)
    x = sample(GaussianSpec("bm", 2), grid, seed=1)
    h = _random_cm(2, grid, 2)
    zero = CameronMartinPath(grid, np.zeros((64, 2)))
    assert np.array_equal(shift_path(x, zero).values, x.values)
    back = shift_path(shift_path(x, h), h.scaled(-1.0))
    assert np.max(np.abs(back.values - x.values)) <= 1e-12
    assert cm_norm(h) == cm_norm(h)  # shifting paths never touches h
    with pytest.raises(ValueError, match="grid"):
        shift_path(x, _random_cm(3, TimeGrid(1.0, 32), 2))


def test_log_density_zero_shift():
    grid = TimeGrid(1.0, 32)
    x = sample(GaussianSpec("bm", 1), grid, seed=4)
    zero = CameronMartinPath(grid, np.zeros((32, 1)))
    ev = cm_log_density(x, zero)
    assert ev.log_density == 0.0
    assert ev.paley_wiener_term == 0.0
    assert ev.half_norm_sq == 0.0


def test_density_normalization_and_mgf():
    grid = TimeGrid(1.0, 64)
    h = _random_cm(5, grid, 1, scale=0.7)
    half_sq = 0.5 * cm_inner(h, h)
    values = sample_values_batch(GaussianSpec("bm", 1), grid, seed=6, count=100_000)
    pw = np.einsum("ki,cki->c", h.derivative_values, np.diff(values, axis=1))
    density = np.exp(pw - half_sq)
    se = float(np.std(density, ddof=1) / math.sqrt(len(density)))
    assert abs(float(np.mean(density)) - 1.0) <= 3 * se
    mgf = np.exp(pw)
    se_mgf = float(np.std(mgf, ddof=1) / math.sqrt(len(mgf)))
    assert abs(float(np.mean(mgf)) - math.exp(half_sq)) <= 3 * se_mgf


def test_log_density_inversion_identity():
    # log f_h evaluated on the shifted path cancels log f_{-h} on the original
    grid = TimeGrid(1.0, 128)
    x = sample(GaussianSpec("bm", 2), grid, seed=7)
    h = _random_cm(8, grid, 2)
    lhs = cm_log_density(shift_path(x, h), h).log_density
    rhs = -cm_log_density(x, h.scaled(-1.0)).log_density
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_log_density_chain_rule():
    # f_{h+k}(x) = f_h(x) f_k(x+h) exp(-2 <h,k>), exact on grid sums
    grid = TimeGrid(1.0, 128)
    x = sample(GaussianSpec("bm", 2), grid, seed=9)
    h = _random_cm(10, grid, 2)
    k = _random_cm(11, grid, 2)
    lhs = cm_log_density(x, h + k).log_density
    rhs = (
        cm_log_density(x, h).log_density
        + cm_log_density(shift_path(x, h), k).log_density
        - 2.0 * cm_inner(h, k)
    )
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_density_lp_integrability_bound():
    grid = TimeGrid(1.0, 64)
    h = _random_cm(12, grid, 1, scale=0.6)
    norm_sq = cm_inner(h, h)
    values = sample_values_batch(GaussianSpec("bm", 1), grid, seed=13, count=100_000)
    pw = np.einsum("ki,cki->c", h.derivative_values, np.diff(values, axis=1))
    density = np.exp(pw - 0.5 * norm_sq)
    for p in (1.0, 2.0):
        moment = density**p
        est = float(np.mean(moment))
        se = float(np.std(moment, ddof=1) / math.sqrt(len(moment)))
        bound = math.exp(p**2 * norm_sq / 2.0)
        assert est ** (1.0 / p) <= bound * (1.0 + 3 * se / max(est, 1e-12))


def test_reweight_terminal_matches_shifted_mean():
    grid = TimeGrid(1.0, 32)
    h = _ramp(grid, 1, slope=0.8)
    rep = reweight_check(
        "terminal-level1", h, spec=GaussianSpec("bm", 1), grid=grid,
        n_samples=40_000, seed=14,
    )
    # both estimators target E[x(T) + h(T)] = h(T)
    assert abs(rep.estimate_lhs - 0.8) <= 3 * rep.se_lhs
    assert abs(rep.estimate_rhs - 0.8) <= 3 * rep.se_rhs
    assert abs(rep.z_score) <= 3.0


def test_reweight_all_functionals_agree():
    grid = TimeGrid(1.0, 32)
    h = _random_cm(15, grid, 2, scale=0.5)
    for name in ("sup-level1", "terminal-level1", "level2-entry", "hom-norm"):
        rep = reweight_check(
            name, h, spec=GaussianSpec("bm", 2), grid=grid,
            n_samples=20_000, seed=16, scheme="ito", entry=(1, 2),
        )
        assert abs(rep.z_score) <= 3.0, (name, rep)


def test_reweight_threads_do_not_change_results():
    grid = TimeGrid(1.0, 16)
    h = _random_cm(17, grid, 1)
    kwargs = dict(spec=GaussianSpec("bm", 1), grid=grid, n_samples=5_000, seed=18)
    a = reweight_check("terminal-level1", h, **kwargs, threads=1)
    b = reweight_check("terminal-level1", h, **kwargs, threads=3)
    assert a == b


def test_reweight_validation():
    grid = TimeGrid(1.0, 16)
    h = _random_cm(19, grid, 1)
    with pytest.raises(ValueError, match="functional"):
        reweight_check("mean", h, spec=GaussianSpec("bm", 1), grid=grid, n_samples=10, seed=0)
    with pytest.raises(ValueError, match="grid"):
        reweight_check(
            "terminal-level1", h, spec=GaussianSpec("bm", 1),
            grid=TimeGrid(1.0, 32), n_samples=10, seed=0,
        )


def test_reweight_hom_norm_level3_ambient():
    from wienerlift.seminorms import ambient_for_levels

    grid = TimeGrid(1.0, 16)
    h = _random_cm(20, grid, 2, scale=0.5)
    rep = reweight_check(
        "hom-norm", h, spec=GaussianSpec("bm", 2), grid=grid, n_samples=4_000,
        seed=21, scheme="stratonovich", ambient=ambient_for_levels(2, 3, p=2.5),
    )
    assert abs(rep.z_score) <= 3.0
