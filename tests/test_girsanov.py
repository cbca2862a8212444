import dataclasses
import math

import numpy as np
import pytest

from wienerlift.girsanov import (
    REWEIGHT_FUNCTIONALS,
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
    paley_wiener,
    sample,
    sample_values_batch,
)
from wienerlift.lifts import ito_lift, lifted_shift


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
        ("terminal-level1",), h, spec=GaussianSpec("bm", 1), grid=grid,
        n_samples=40_000, seed=14,
    ).reweight["terminal-level1"]
    # both estimators target E[x(T) + h(T)] = h(T)
    assert abs(rep.estimate_lhs - 0.8) <= 3 * rep.se_lhs
    assert abs(rep.estimate_rhs - 0.8) <= 3 * rep.se_rhs
    assert abs(rep.z_score) <= 3.0


def test_reweight_all_functionals_agree():
    grid = TimeGrid(1.0, 32)
    h = _random_cm(15, grid, 2, scale=0.5)
    reports = reweight_check(
        REWEIGHT_FUNCTIONALS, h, spec=GaussianSpec("bm", 2), grid=grid,
        n_samples=20_000, seed=16, scheme="ito", entry=(1, 2),
    ).reweight
    assert list(reports) == list(REWEIGHT_FUNCTIONALS)
    for name, rep in reports.items():
        assert abs(rep.z_score) <= 3.0, (name, rep)


def test_reweight_one_pass_equals_one_name_calls():
    grid = TimeGrid(1.0, 16)
    h = _random_cm(22, grid, 2, scale=0.5)
    kwargs = dict(spec=GaussianSpec("bm", 2), grid=grid, n_samples=1_500, seed=23,
                  entry=(1, 2), chunk=400)
    together = reweight_check(REWEIGHT_FUNCTIONALS, h, **kwargs)
    for name in REWEIGHT_FUNCTIONALS:
        alone = reweight_check((name,), h, **kwargs)
        assert together.reweight[name] == alone.reweight[name]
        assert together.mean_density == alone.mean_density and together.mgf_estimate == alone.mgf_estimate


def test_reweight_draws_each_path_once(monkeypatch):
    from wienerlift import asymptotics

    drawn = []
    original = asymptotics.sample_values_batch

    def counting(spec, grid, seed, count, start=0):
        drawn.extend(range(start, start + count))
        return original(spec, grid, seed, count, start=start)

    monkeypatch.setattr(asymptotics, "sample_values_batch", counting)
    grid = TimeGrid(1.0, 8)
    reweight_check(
        REWEIGHT_FUNCTIONALS, _random_cm(24, grid, 2), spec=GaussianSpec("bm", 2),
        grid=grid, n_samples=1_000, seed=25, chunk=300,
    )
    assert sorted(drawn) == list(range(1_000))


def test_density_and_mgf_read_the_reweighting_draws():
    grid = TimeGrid(1.0, 16)
    h = _random_cm(26, grid, 2, scale=0.5)
    spec = GaussianSpec("bm", 2)
    check = reweight_check(("terminal-level1",), h, spec=spec, grid=grid, n_samples=3_000, seed=27)
    values = sample_values_batch(spec, grid, seed=27, count=3_000)
    pw = np.einsum("ki,cki->c", h.derivative_values, np.diff(values, axis=1))
    half_sq = 0.5 * cm_inner(h, h)
    density, mgf = np.exp(pw - half_sq), np.exp(pw)
    root_n = math.sqrt(3_000)
    assert check.half_norm_sq == half_sq
    assert check.mgf_target == pytest.approx(math.exp(half_sq), rel=1e-14)
    assert check.mean_density == pytest.approx(np.mean(density), rel=1e-12)
    assert check.mean_density_se == pytest.approx(np.std(density, ddof=1) / root_n, rel=1e-9)
    assert check.mgf_estimate == pytest.approx(np.mean(mgf), rel=1e-12)
    assert check.mgf_se == pytest.approx(np.std(mgf, ddof=1) / root_n, rel=1e-9)
    assert abs(check.mean_density - 1.0) <= 3 * check.mean_density_se
    doc = check.to_document()
    assert set(doc) == {"mean_density", "mean_density_se", "mgf_estimate", "mgf_se", "mgf_target",
                        "half_norm_sq", "reweight"}
    assert doc["reweight"]["terminal-level1"] == dataclasses.asdict(check.reweight["terminal-level1"])


def test_reweight_refuses_a_non_brownian_process():
    grid = TimeGrid(1.0, 16)
    with pytest.raises(ValueError, match="Brownian-only, got process 'fbm'"):
        reweight_check(
            ("terminal-level1",), _random_cm(28, grid, 1), spec=GaussianSpec("fbm", 1, hurst=0.3),
            grid=grid, n_samples=10, seed=0,
        )


def test_reweight_threads_do_not_change_results():
    grid = TimeGrid(1.0, 16)
    h = _random_cm(17, grid, 1)
    kwargs = dict(spec=GaussianSpec("bm", 1), grid=grid, n_samples=5_000, seed=18)
    a = reweight_check(("terminal-level1",), h, **kwargs, threads=1)
    b = reweight_check(("terminal-level1",), h, **kwargs, threads=3)
    assert a == b


def test_reweight_validation():
    grid = TimeGrid(1.0, 16)
    h = _random_cm(19, grid, 1)
    kwargs = dict(spec=GaussianSpec("bm", 1), grid=grid, seed=0)
    with pytest.raises(ValueError, match="functional must be one of .*'hom-norm'.*got 'mean'"):
        reweight_check(("terminal-level1", "mean"), h, n_samples=10, **kwargs)
    with pytest.raises(ValueError, match="grid"):
        reweight_check(
            ("terminal-level1",), h, spec=GaussianSpec("bm", 1),
            grid=TimeGrid(1.0, 32), n_samples=10, seed=0,
        )
    for n in (0, 1):
        with pytest.raises(ValueError, match="n_samples must be >= 2"):
            reweight_check(("terminal-level1",), h, n_samples=n, **kwargs)
    for entry in ((0, 1), (1, -1)):
        with pytest.raises(ValueError, match="entry must be two integers >= 1"):
            reweight_check(("level2-entry",), h, n_samples=10, entry=entry, **kwargs)
    with pytest.raises(ValueError, match=r"entry \(1, 2\) reads component 2, but the path has d=1"):
        reweight_check(("level2-entry",), h, n_samples=10, entry=(1, 2), **kwargs)


# each pairing of a shift h with a path x or a shift k, as f(h, k, x)
PAIRINGS = {
    "h + k": lambda h, k, x: h + k,
    "cm_inner": lambda h, k, x: cm_inner(h, k),
    "paley_wiener": lambda h, k, x: paley_wiener(h, x.values),
    "shift_path": lambda h, k, x: shift_path(x, h),
    "cm_log_density": lambda h, k, x: cm_log_density(x, h),
    "lifted_shift": lambda h, k, x: lifted_shift(ito_lift(x, level=3), h),
    "reweight_check": lambda h, k, x: reweight_check(
        ("terminal-level1",), h, spec=GaussianSpec("bm", x.dim), grid=x.grid, n_samples=10, seed=0
    ),
}


@pytest.mark.parametrize("pairing", sorted(PAIRINGS))
@pytest.mark.parametrize("mismatch", ["grid", "dimension"])
def test_every_pairing_refuses_a_shift_that_does_not_fit(monkeypatch, pairing, mismatch):
    import wienerlift.asymptotics as asy

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the shift was checked")

    monkeypatch.setattr(asy, "sample_values_batch", no_sampling)
    grid = TimeGrid(1.0, 16)
    # the partner: a d=2 path and shift on 32 cells, or on h's own 16
    other = TimeGrid(1.0, 32) if mismatch == "grid" else grid
    h = _ramp(grid, 2 if mismatch == "grid" else 1, 0.5)
    with pytest.raises(ValueError, match=mismatch):
        PAIRINGS[pairing](h, _ramp(other, 2), sample(GaussianSpec("bm", 2), other, seed=1))


def test_reweight_refuses_a_one_component_shift_on_two_component_paths():
    # broadcast over both components, this shift read E[f_h] = 1.12 against |h|^2/2 of one
    grid = TimeGrid(1.0, 16)
    with pytest.raises(ValueError, match="the shift has d=1, its partner d=2"):
        reweight_check(REWEIGHT_FUNCTIONALS, _ramp(grid, 1, 0.5), spec=GaussianSpec("bm", 2), grid=grid,
                       n_samples=40_000, seed=3)


# exp(|h|^2/2) overflows at these slopes, so the mgf check is skipped, and it warns no more
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_reweight_z_reads_inf_where_a_nonzero_difference_has_no_spread():
    # at slopes of 1e20 the path is lost to rounding in x + h, so the shifted level-2 entry is one
    # number on every path, while f_h underflows to 0: the difference has no spread but is not 0
    grid = TimeGrid(1.0, 8)
    h = CameronMartinPath(grid, np.tile([1e20, -1e20], (grid.n_steps, 1)))
    check = reweight_check(("level2-entry", "terminal-level1"), h, spec=GaussianSpec("bm", 2), grid=grid,
                           n_samples=1_000, seed=1, entry=(1, 2))
    rep = check.reweight["level2-entry"]
    assert (rep.estimate_lhs, rep.se_lhs, rep.estimate_rhs) == (-4.375e39, 0.0, 0.0)
    assert rep.z_score == -math.inf
    assert math.isfinite(check.reweight["terminal-level1"].z_score)
    assert (check.mgf_target, check.mgf_estimate, check.mgf_se) == (None, None, None)
    h = _ramp(grid, 1, 1e20)
    rep = reweight_check(("level2-entry",), h, spec=GaussianSpec("bm", 1), grid=grid, n_samples=1_000,
                         seed=1).reweight["level2-entry"]
    assert rep.z_score == math.inf
    # a zero difference is the only one that reads 0: at h = 0 both sides are the same numbers
    zero = reweight_check(REWEIGHT_FUNCTIONALS, _ramp(grid, 2, 0.0), spec=GaussianSpec("bm", 2), grid=grid,
                          n_samples=1_000, seed=1)
    assert all(rep.z_score == 0.0 and rep.se_lhs > 0 for rep in zero.reweight.values())


def test_reweight_refuses_a_shift_of_infinite_energy(monkeypatch):
    import wienerlift.asymptotics as asy

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the shift's energy was checked")

    monkeypatch.setattr(asy, "sample_values_batch", no_sampling)
    grid = TimeGrid(1.0, 8)
    # slope 1e200 is finite, but |h|^2_H = 1e400 overflows, and with it |h|^2/2 and f_h
    with pytest.raises(ValueError, match=r"the shift's energy \|h\|\^2_H is inf"):
        reweight_check(REWEIGHT_FUNCTIONALS, _ramp(grid, 1, 1e200), spec=GaussianSpec("bm", 1), grid=grid,
                       n_samples=10, seed=1)


def test_reweight_hom_norm_level3_ambient():
    from wienerlift.seminorms import ambient_for_levels

    grid = TimeGrid(1.0, 16)
    h = _random_cm(20, grid, 2, scale=0.5)
    rep = reweight_check(
        ("hom-norm",), h, spec=GaussianSpec("bm", 2), grid=grid, n_samples=4_000,
        seed=21, scheme="stratonovich", ambient=ambient_for_levels(2, 3, p=2.5),
    ).reweight["hom-norm"]
    assert abs(rep.z_score) <= 3.0
