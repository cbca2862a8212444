import dataclasses
import math

import numpy as np
import pytest

from wienerlift.grids import (
    CameronMartinPath,
    GaussianSpec,
    SamplePath,
    TimeGrid,
    sample,
    sample_values_batch,
)
from wienerlift.lifts import (
    chen_residual,
    dilate_enhanced,
    dyadic_triples,
    enhanced_from_document,
    enhanced_to_document,
    ito_lift,
    lifted_shift,
    max_chen_residual,
    stratonovich_lift,
    to_graded,
    young_skeleton_lift,
)
from wienerlift.seminorms import ambient_for_levels


def _random_cm(seed, grid, d):
    rng = np.random.default_rng(seed)
    return CameronMartinPath(grid, rng.standard_normal((grid.n_steps, d)))


def _young_level2_reference(h):
    """Exact cross integrals of PL paths, summed cell by cell (oracle)."""
    v, dv, dt = h.values, h.derivative_values, h.grid.dt
    base = np.zeros((h.grid.n_steps + 1, h.dim, h.dim))
    for m in range(h.grid.n_steps):
        base[m + 1] = base[m] + np.outer(v[m], dv[m]) * dt + 0.5 * np.outer(dv[m], dv[m]) * dt**2
    return base


def _young_level3_reference(h):
    """All level-3 entries by direct per-cell integration (oracle)."""
    v, dv, dt = h.values, h.derivative_values, h.grid.dt
    base2 = _young_level2_reference(h)
    base3 = np.zeros((h.grid.n_steps + 1, h.dim, h.dim, h.dim))
    for m in range(h.grid.n_steps):
        # Y2_{0,r} = c0 + c1 (r - t_m) + c2 (r - t_m)^2 on the cell
        c0, c1, c2 = base2[m], np.outer(v[m], dv[m]), 0.5 * np.outer(dv[m], dv[m])
        cell = c0 * dt + c1 * dt**2 / 2.0 + c2 * dt**3 / 3.0
        base3[m + 1] = base3[m] + np.einsum("ij,k->ijk", cell, dv[m])
    return base3


def test_ito_deterministic_closed_form():
    grid = TimeGrid(1.0, 256)
    lin = SamplePath(grid, np.stack([grid.points, grid.points], axis=1))
    e = ito_lift(lin)
    expected = 0.5 - 0.5 * grid.dt  # sum of t_m dt = T^2/2 - T dt / 2
    assert e.level2.base[-1, 0, 1] == pytest.approx(expected, rel=1e-13)


def test_zero_path_zero_enhancement():
    grid = TimeGrid(1.0, 32)
    zero = SamplePath(grid, np.zeros((33, 2)))
    e = ito_lift(zero, level=3)
    assert np.all(e.level2.base == 0.0)
    assert np.all(e.level3.base == 0.0)


def test_ito_offdiagonal_is_centered():
    grid = TimeGrid(1.0, 32)
    values = sample_values_batch(GaussianSpec("bm", 2), grid, seed=17, count=100_000)
    v0 = values - values[:, :1]
    dv = np.diff(values, axis=1)
    terminal = np.einsum("cmi,cmj->cij", v0[:, :-1], dv)
    est = float(np.mean(terminal[:, 0, 1]))
    se = float(np.std(terminal[:, 0, 1], ddof=1) / math.sqrt(values.shape[0]))
    assert abs(est) <= 3 * se


def test_bracket_diagonal_and_antisymmetry():
    grid = TimeGrid(1.0, 64)
    values = sample_values_batch(GaussianSpec("bm", 2), grid, seed=23, count=20_000)
    dv = np.diff(values, axis=1)
    bracket = 0.5 * np.einsum("cmi,cmi->ci", dv, dv)  # strat - ito diagonal
    for i in range(2):
        est = float(np.mean(bracket[:, i]))
        se = float(np.std(bracket[:, i], ddof=1) / math.sqrt(values.shape[0]))
        assert abs(est - 0.5) <= 3 * se
    x = SamplePath(grid, values[0])
    ei, es = ito_lift(x), stratonovich_lift(x)
    diff = es.level2.base - ei.level2.base
    asym = diff - np.swapaxes(diff, 1, 2)
    scale = max(1.0, float(np.max(np.abs(es.level2.base))))
    assert np.max(np.abs(asym)) <= 1e-13 * scale


def test_strat_matches_young_on_smooth_path():
    # x(t) = (t, t^2): int_0^T x1 dx2 = 2T^3/3, trapezoid error O(dt^2)
    for n in (64, 128):
        grid = TimeGrid(1.0, n)
        pts = grid.points
        x = SamplePath(grid, np.stack([pts, pts**2], axis=1))
        e = stratonovich_lift(x)
        err = abs(e.level2.base[-1, 0, 1] - 2.0 / 3.0)
        assert err <= 2.0 * grid.dt**2


def test_young_closed_forms():
    grid = TimeGrid(1.0, 128)
    h = CameronMartinPath(grid, np.ones((128, 2)))
    e = young_skeleton_lift(h, level=3)
    assert e.level2.base[-1, 0, 1] == pytest.approx(0.5, rel=1e-14)
    assert e.level3.base[-1, 0, 0, 0] == pytest.approx(1.0 / 6.0, rel=1e-14)


def test_young_diagonal_identity_on_increments():
    grid = TimeGrid(1.0, 32)
    h = _random_cm(5, grid, 2)
    e = young_skeleton_lift(h)
    v = h.values
    for i in (1, 2):
        surf = e.level2.entry_surface(i, i)
        ref = 0.5 * (v[None, :, i - 1] - v[:, None, i - 1]) ** 2
        assert np.max(np.abs(surf - ref)) <= 1e-12


def test_young_level2_matches_reference():
    grid = TimeGrid(1.0, 64)
    h = _random_cm(6, grid, 3)
    e = young_skeleton_lift(h)
    assert np.max(np.abs(e.level2.base - _young_level2_reference(h))) <= 1e-12


def test_young_level3_matches_direct_integration():
    # every block, mixed iji/jii ones included, equals direct iterated integrals
    for d, seed in [(d, seed) for d in (1, 2, 3) for seed in range(5)]:
        grid = TimeGrid(1.0, 32)
        h = _random_cm(seed, grid, d)
        e = young_skeleton_lift(h, level=3)
        ref = _young_level3_reference(h)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(e.level3.base - ref)) <= 1e-12 * scale


def test_shuffle_identities_pointwise():
    grid = TimeGrid(1.0, 32)
    h = _random_cm(7, grid, 2)
    e = young_skeleton_lift(h, level=3)
    v = h.values
    for i, j in ((1, 2), (2, 1)):
        m_i = v[None, :, i - 1] - v[:, None, i - 1]
        m_j = v[None, :, j - 1] - v[:, None, j - 1]
        m_ij = e.level2.entry_surface(i, j)
        m_ii = e.level2.entry_surface(i, i)
        m_iij = e.level3.entry_surface(i, i, j)
        m_iji = e.level3.entry_surface(i, j, i)
        m_jii = e.level3.entry_surface(j, i, i)
        assert np.max(np.abs(m_ij * m_i - m_iji - 2.0 * m_iij)) <= 1e-10
        assert np.max(np.abs(m_ii * m_j - m_iij - m_iji - m_jii)) <= 1e-10


def test_multilinearity_level2():
    grid = TimeGrid(1.0, 64)
    h = _random_cm(8, grid, 2)
    k = _random_cm(9, grid, 2)
    a, b = 0.7, -1.3

    def cross(hp, kp):
        # exact Young integral int hp (x) dkp for PL paths (oracle)
        v, dvk, dt = hp.values, kp.derivative_values, grid.dt
        dvh = hp.derivative_values
        out = np.zeros((2, 2))
        for m in range(grid.n_steps):
            out += np.outer(v[m], dvk[m]) * dt + 0.5 * np.outer(dvh[m], dvk[m]) * dt**2
        return out

    combo = CameronMartinPath(
        grid, a * h.derivative_values + b * k.derivative_values
    )
    lhs = young_skeleton_lift(combo).level2.base[-1]
    rhs = (
        a * a * cross(h, h)
        + a * b * cross(h, k)
        + b * a * cross(k, h)
        + b * b * cross(k, k)
    )
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_projection_property():
    grid = TimeGrid(1.0, 64)
    x = sample(GaussianSpec("bm", 2), grid, seed=31)
    for e in (ito_lift(x), stratonovich_lift(x)):
        assert np.array_equal(e.level1.values, x.values)
    h = _random_cm(10, grid, 2)
    ey = young_skeleton_lift(h)
    assert np.max(np.abs(ey.level1.values - h.values)) == 0.0


def test_chen_residuals_all_schemes():
    grid = TimeGrid(1.0, 256)
    x = sample(GaussianSpec("bm", 2), grid, seed=37)
    h = _random_cm(11, grid, 2)
    for e in (
        ito_lift(x, level=3),
        stratonovich_lift(x, level=3),
        young_skeleton_lift(h, level=3),
    ):
        scale = max(1.0, float(np.max(np.abs(e.level2.base))))
        assert max_chen_residual(e) <= 1e-10 * scale


def test_chen_residual_degenerate_and_errors():
    grid = TimeGrid(1.0, 16)
    x = sample(GaussianSpec("bm", 2), grid, seed=38)
    e = ito_lift(x)
    assert chen_residual(e, 4, 4, 9) == 0.0
    with pytest.raises(ValueError):
        chen_residual(e, 5, 3, 9)


def test_chen_residual_detects_corruption():
    grid = TimeGrid(1.0, 16)
    x = sample(GaussianSpec("bm", 2), grid, seed=39)
    e = ito_lift(x)
    corrupted = e.level2.base.copy()
    corrupted[8, 0, 1] += 1.0
    from wienerlift.lifts import EnhancedPath, Level2Surface

    bad = EnhancedPath(x, Level2Surface(grid, corrupted, x.values), scheme="ito")
    assert chen_residual(bad, 0, 8, 16) >= 0.99


def test_single_step_grid_is_degenerate_not_error():
    grid = TimeGrid(1.0, 1)
    x = sample(GaussianSpec("bm", 2), grid, seed=40)
    e = ito_lift(x)
    assert np.all(e.level2.base[0] == 0.0)
    assert np.all(e.level2.base[-1] == 0.0)  # single left-point term vanishes


def test_young_homogeneity():
    grid = TimeGrid(1.0, 64)
    h = _random_cm(12, grid, 2)
    base = young_skeleton_lift(h, level=3)
    for eps in (0.5, 2.0, 10.0):
        scaled = young_skeleton_lift(h.scaled(eps), level=3)
        ref = dilate_enhanced(base, eps)
        for lhs, rhs in (
            (scaled.level1.values, ref.level1.values),
            (scaled.level2.base, ref.level2.base),
            (scaled.level3.base, ref.level3.base),
        ):
            scale = max(1.0, float(np.max(np.abs(rhs))))
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_lifted_shift_identity_and_zero():
    grid = TimeGrid(1.0, 128)
    x = sample(GaussianSpec("bm", 2), grid, seed=41)
    h = _random_cm(13, grid, 2)
    zero = CameronMartinPath(grid, np.zeros((128, 2)))
    for lift in (ito_lift, stratonovich_lift):
        e = lift(x, level=3)
        unchanged = lifted_shift(e, zero)
        assert np.array_equal(unchanged.level2.base, e.level2.base)
        shifted = lifted_shift(e, h)
        direct = lift(SamplePath(grid, x.values + h.values), level=3)
        assert np.max(np.abs(shifted.level2.base - direct.level2.base)) <= 1e-10
        assert np.max(np.abs(shifted.level3.base - direct.level3.base)) <= 1e-10


def test_lifted_shift_of_zero_path_approximates_young():
    for n in (64, 128):
        grid = TimeGrid(1.0, n)
        h = _random_cm(14, grid, 2)
        zero = SamplePath(grid, np.zeros((n + 1, 2)))
        shifted = lifted_shift(ito_lift(zero), h)
        young = young_skeleton_lift(h)
        gap = np.max(np.abs(shifted.level2.base - young.level2.base))
        # left-point vs exact integration differs by the half bracket, O(dt)
        bound = 0.6 * float(np.sum(h.derivative_values**2)) * grid.dt**2
        assert gap <= bound


def test_lifted_shift_group_law():
    grid = TimeGrid(1.0, 64)
    x = sample(GaussianSpec("bm", 2), grid, seed=43)
    h = _random_cm(15, grid, 2)
    k = _random_cm(16, grid, 2)
    e = ito_lift(x, level=3)
    lhs = lifted_shift(lifted_shift(e, h), k)
    rhs = lifted_shift(e, h + k)
    assert np.max(np.abs(lhs.level2.base - rhs.level2.base)) <= 1e-10
    assert np.max(np.abs(lhs.level3.base - rhs.level3.base)) <= 1e-10


def test_lifted_shift_rejects_young_and_mismatch():
    grid = TimeGrid(1.0, 32)
    h = _random_cm(17, grid, 2)
    e = young_skeleton_lift(h)
    with pytest.raises(ValueError, match="ito or stratonovich"):
        lifted_shift(e, h)
    x = sample(GaussianSpec("bm", 2), grid, seed=44)
    other = _random_cm(18, TimeGrid(1.0, 16), 2)
    with pytest.raises(ValueError, match="grid"):
        lifted_shift(ito_lift(x), other)


def test_dyadic_triples_cover_all_levels():
    triples = dyadic_triples(8)
    assert (0, 4, 8) in triples
    assert (0, 1, 2) in triples and (6, 7, 8) in triples
    assert len(triples) == 1 + 2 + 4


def test_serialization_round_trip(tmp_path):
    grid = TimeGrid(1.0, 32)
    x = sample(GaussianSpec("bm", 2), grid, seed=45)
    ambient = ambient_for_levels(2, 3, p=2.5)
    e = dataclasses.replace(ito_lift(x, level=3), ambient=ambient)
    doc = enhanced_to_document(e)
    back = enhanced_from_document(doc)
    assert back.scheme == "ito"
    assert np.array_equal(back.level1.values, e.level1.values)
    assert np.array_equal(back.level2.base, e.level2.base)
    assert np.array_equal(back.level3.base, e.level3.base)
    assert back.ambient == ambient
    with pytest.raises(ValueError, match="format_version"):
        enhanced_from_document({"format_version": "bogus"})


def test_to_graded_payload_shapes():
    grid = TimeGrid(1.0, 16)
    x = sample(GaussianSpec("bm", 2), grid, seed=46)
    e = stratonovich_lift(x, level=3)
    gv = to_graded(e, ambient_for_levels(2, 3, p=2.5))
    assert gv.payloads["1"].shape == (17,)
    assert gv.payloads["12"].shape == (17, 17)
    assert gv.payloads["121"].shape == (17, 17)
    with pytest.raises(ValueError, match="level 3"):
        to_graded(stratonovich_lift(x, level=2), ambient_for_levels(2, 3))
