import math

import numpy as np
import pytest

from wienerlift.grids import GaussianSpec, TimeGrid
from wienerlift.seminorms import (
    AmbientSpec,
    GradedVector,
    SymbolNorm,
    SymbolSpec,
    ambient_for_levels,
    banach_norm,
    classical_ambient,
    dilation,
    holder_norm_1d,
    holder_norm_2param,
    homogeneous_norm,
    p_variation_1d,
    p_variation_1d_bruteforce,
    p_variation_2param,
    rho_variation_covariance,
    symbol_norm,
)


def test_pvar_tiny_cases():
    grid_vals = np.array([0.0, 1.0, 0.0])
    assert p_variation_1d(grid_vals, 1.0) == pytest.approx(2.0, abs=1e-14)
    assert p_variation_1d(grid_vals, 2.0) == pytest.approx(math.sqrt(2.0), abs=1e-14)
    # brute force oracle over both partitions agrees
    assert p_variation_1d_bruteforce(grid_vals, 1.0) == pytest.approx(2.0, abs=1e-14)
    assert p_variation_1d_bruteforce(grid_vals, 2.0) == pytest.approx(
        math.sqrt(2.0), abs=1e-14
    )


def test_pvar_monotone_path():
    x = np.cumsum(np.abs(np.random.default_rng(0).standard_normal(10))) + 1.0
    for p in (1.0, 1.7, 3.0):
        assert p_variation_1d(x, p) == pytest.approx(abs(x[0]) + x[-1] - x[0], rel=1e-12)


def test_pvar_matches_bruteforce():
    rng = np.random.default_rng(42)
    for n in (5, 8, 11):
        for p in (1.0, 1.5, 2.0, 3.0):
            x = rng.standard_normal(n + 1)
            assert p_variation_1d(x, p) == pytest.approx(
                p_variation_1d_bruteforce(x, p), rel=1e-12
            )


def test_pvar_large_p_approaches_max_increment():
    rng = np.random.default_rng(1)
    x = np.concatenate([[0.0], np.cumsum(rng.standard_normal(9))])
    dp = p_variation_1d(x, 64.0)
    mx = max(
        abs(x[j] - x[i]) for i in range(len(x)) for j in range(i + 1, len(x))
    )
    assert abs(dp - abs(x[0]) - mx) <= 0.05 * mx


def test_pvar_nonincreasing_in_p():
    rng = np.random.default_rng(2)
    x = np.concatenate([[0.0], np.cumsum(rng.standard_normal(24))])
    vals = [p_variation_1d(x, p) for p in (1.0, 1.5, 2.0, 3.0, 5.0)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_pvar_rejects_small_p():
    with pytest.raises(ValueError):
        p_variation_1d(np.zeros(4), 0.5)
    with pytest.raises(ValueError):
        p_variation_2param(np.zeros((4, 4)), TimeGrid(1.0, 3), 0.9)


def test_holder_closed_forms():
    grid = TimeGrid(1.0, 100)
    assert holder_norm_1d(grid.points, grid, 1.0) == pytest.approx(1.0, rel=1e-12)
    # |t - s| / |t - s|^(1/2) maximized at the full interval
    assert holder_norm_1d(grid.points, grid, 0.5) == pytest.approx(1.0, rel=1e-12)
    assert holder_norm_2param(np.zeros((101, 101)), grid, 0.8) == 0.0


def test_holder_exponent_comparison():
    rng = np.random.default_rng(3)
    grid = TimeGrid(1.0, 64)
    x = np.concatenate([[0.0], np.cumsum(rng.standard_normal(64) * math.sqrt(grid.dt))])
    for alpha, beta in ((0.25, 0.5), (0.4, 0.9)):
        lhs = holder_norm_1d(x, grid, alpha)
        rhs = holder_norm_1d(x, grid, beta) * grid.horizon ** (beta - alpha)
        assert lhs <= rhs + 1e-12


def test_two_param_pvar_small_case():
    grid = TimeGrid(1.0, 2)
    pts = grid.points
    X = pts[None, :] - pts[:, None]  # X_{s,t} = t - s
    val = p_variation_2param(X, grid, 1.0)
    # brute force over the two admissible grid partitions
    full = sum(abs(X[i, j]) for i in range(3) for j in range(3))
    coarse = sum(abs(X[i, j]) for i in (0, 2) for j in (0, 2))
    assert val == pytest.approx(max(full, coarse), rel=1e-14)
    assert full >= coarse


def test_two_param_pvar_full_grid_dominates_coarsenings():
    rng = np.random.default_rng(4)
    grid = TimeGrid(1.0, 8)
    X = rng.standard_normal((9, 9))
    p = 1.5
    full = float(np.sum(np.abs(X) ** p)) ** (1.0 / p)
    assert p_variation_2param(X, grid, p) == pytest.approx(full, rel=1e-12)
    for stride in (2, 4, 8):
        idx = np.arange(0, 9, stride)
        sub = X[np.ix_(idx, idx)]
        assert float(np.sum(np.abs(sub) ** p)) ** (1.0 / p) <= full + 1e-12


def _single_symbol_vector(norm_kind, payload, grid, degree=2):
    sym = SymbolSpec(
        name="s", indices=(1,) * degree, degree=degree,
        norm=SymbolNorm(norm_kind, None), arity=2,
    )
    ambient = AmbientSpec(symbols=(sym,), distinguished=())
    return GradedVector(ambient, grid, {"s": payload})


def test_homogeneous_norm_degree_weighting():
    grid = TimeGrid(1.0, 4)
    zero = _single_symbol_vector("sup", np.zeros((5, 5)), grid)
    assert homogeneous_norm(zero) == 0.0
    payload = np.zeros((5, 5))
    payload[0, -1] = 4.0
    v = _single_symbol_vector("sup", payload, grid)
    assert homogeneous_norm(v) == pytest.approx(2.0, rel=1e-14)
    assert banach_norm(v) == pytest.approx(4.0, rel=1e-14)


def _random_graded(seed, grid, ambient):
    rng = np.random.default_rng(seed)
    payloads = {}
    for sym in ambient.symbols:
        if sym.arity == 1:
            z = np.concatenate([[0.0], np.cumsum(rng.standard_normal(grid.n_steps))])
            payloads[sym.name] = z
        else:
            payloads[sym.name] = rng.standard_normal((grid.n_steps + 1,) * 2)
    return GradedVector(ambient, grid, payloads)


def test_dilation_homogeneity_and_semigroup():
    grid = TimeGrid(1.0, 16)
    ambient = ambient_for_levels(2, 2, norm_kind="pvar", p=2.5)
    for seed in range(5):
        v = _random_graded(seed, grid, ambient)
        base = homogeneous_norm(v)
        for eps in (0.1, 0.5, 2.0):
            assert homogeneous_norm(dilation(v, eps)) == pytest.approx(
                eps * base, rel=1e-12
            )
        w = dilation(dilation(v, 0.7), 3.0)
        ref = dilation(v, 2.1)
        for sym in ambient.symbols:
            assert np.allclose(
                w.payloads[sym.name], ref.payloads[sym.name], rtol=1e-12, atol=0
            )


def test_dilation_edge_cases():
    grid = TimeGrid(1.0, 8)
    ambient = classical_ambient(1)
    v = _random_graded(1, grid, ambient)
    same = dilation(v, 1.0)
    assert np.array_equal(same.payloads["1"], v.payloads["1"])
    zero = dilation(v, 0.0)
    assert np.all(zero.payloads["1"] == 0.0)
    with pytest.raises(ValueError):
        dilation(v, -0.2)


def test_homogeneous_distance_triangle_inequality():
    grid = TimeGrid(1.0, 16)
    ambient = ambient_for_levels(1, 2, norm_kind="pvar", p=2.5)
    vs = [_random_graded(seed, grid, ambient) for seed in range(3)]

    def diff(a, b):
        payloads = {
            s.name: a.payloads[s.name] - b.payloads[s.name] for s in ambient.symbols
        }
        return GradedVector(ambient, grid, payloads)

    u, v, w = vs
    duw = homogeneous_norm(diff(u, w))
    duv = homogeneous_norm(diff(u, v))
    dvw = homogeneous_norm(diff(v, w))
    assert duw <= duv + dvw + 1e-12


def test_rho_variation_brownian_and_fbm():
    grid = TimeGrid(1.0, 128)
    assert rho_variation_covariance(GaussianSpec("bm", 1), grid, 1.0) == pytest.approx(
        1.0, abs=1e-12
    )
    assert rho_variation_covariance(
        GaussianSpec("fbm", 1, hurst=0.5), grid, 1.0
    ) == pytest.approx(1.0, abs=1e-10)
    rough = GaussianSpec("fbm", 1, hurst=0.25)
    a = rho_variation_covariance(rough, TimeGrid(1.0, 256), 2.0)
    b = rho_variation_covariance(rough, TimeGrid(1.0, 512), 2.0)
    assert math.isfinite(a) and math.isfinite(b)
    assert abs(a - b) <= 0.02 * abs(b)


def test_ambient_config_round_trip(tmp_path):
    ambient = ambient_for_levels(2, 3, norm_kind="pvar", p=3.0)
    target = tmp_path / "ambient.json"
    ambient.save(target)
    back = AmbientSpec.load(target)
    assert back == ambient


def test_ambient_validation():
    bad = SymbolSpec("a", (1,), 2, SymbolNorm("sup"), 1)
    with pytest.raises(ValueError, match="degree 1"):
        AmbientSpec(symbols=(bad,), distinguished=("a",))
    with pytest.raises(ValueError, match="unique"):
        dup = SymbolSpec("a", (1,), 1, SymbolNorm("sup"), 1)
        AmbientSpec(symbols=(dup, dup), distinguished=("a",))
    with pytest.raises(ValueError):
        SymbolNorm("pvar", 0.5)
    with pytest.raises(ValueError):
        SymbolNorm("holder", 3.0)
    with pytest.raises(ValueError):
        SymbolNorm("l2")


@pytest.mark.parametrize("arity", [1, 2])
@pytest.mark.parametrize("kind", ["pvar", "holder", "sup", "terminal"])
def test_batch_of_paths_matches_each_path_alone(kind, arity):
    # one kernel serves both routes: a batch row equals the path computed alone
    from wienerlift.grids import sample_values_batch
    from wienerlift.lifts import _pair_base, level2_entry_surface

    grid = TimeGrid(1.0, 64)
    values = sample_values_batch(GaussianSpec("bm", 2), grid, seed=8, count=8)
    exponent = {"pvar": 2.5 / arity, "holder": 0.4 * arity}.get(kind)
    sym = SymbolSpec("s", (1, 2)[:arity], arity, SymbolNorm(kind, exponent), arity)
    if arity == 1:
        payloads = values[:, :, 0]
    else:
        payloads = level2_entry_surface(values, _pair_base(values, values, "ito"), (1, 2))
    batch = symbol_norm(payloads, grid, sym)
    assert batch.shape == (8,)
    for row, payload in zip(batch, payloads):
        alone = symbol_norm(payload, grid, sym)
        assert type(alone) is float
        if kind == "pvar":
            # the root of a float and of an array may differ in the last bit
            assert row == pytest.approx(alone, rel=1e-15)
        else:
            assert row == alone
