import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest

from wienerlift import grids
from wienerlift.grids import (
    CameronMartinPath,
    GaussianSpec,
    SamplePath,
    TimeGrid,
    piecewise_linear,
    sample,
    sample_values_batch,
)
from wienerlift.lifts import (
    EnhancedPath,
    _lift_tensors,
    _pair_base,
    chen_residual,
    dilate_enhanced,
    dyadic_triples,
    enhanced_from_document,
    enhanced_to_document,
    ito_lift,
    lifted_shift,
    load_enhanced,
    max_chen_residual,
    stratonovich_lift,
    to_graded,
    young_skeleton_lift,
)
from wienerlift.seminorms import ambient_for_levels

from surface_oracle import lift_surface as _surface


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
    assert e.base2[-1, 0, 1] == pytest.approx(expected, rel=1e-13)


def test_zero_path_zero_enhancement():
    grid = TimeGrid(1.0, 32)
    zero = SamplePath(grid, np.zeros((33, 2)))
    e = ito_lift(zero, level=3)
    assert np.all(e.base2 == 0.0)
    assert np.all(e.base3 == 0.0)


def test_ito_offdiagonal_is_centered():
    grid = TimeGrid(1.0, 32)
    values = sample_values_batch(GaussianSpec("bm", 2), grid, seed=17, count=100_000)
    v0 = values - values[:, :1]
    dv = np.diff(values, axis=1)
    terminal = np.einsum("cmi,cmj->cij", v0[:, :-1], dv)
    est = float(np.mean(terminal[:, 0, 1]))
    se = float(np.std(terminal[:, 0, 1], ddof=1) / math.sqrt(values.shape[0]))
    assert abs(est) <= 3 * se


def _level2_second_moment(spec, grid, scheme, i, j):
    """Exact E[(X^{ij}_{0,T})^2] of the grid lift, from the law's increment covariance Sigma.

    X^{ij} = dx^i . L dx^j with L the strictly upper-triangular ones, plus I/2
    under the trapezoid scheme; components are independent, each with Sigma.
    """
    n = grid.n_steps
    row = grids._grid_law(spec, grid).row
    lags = np.arange(n)
    sigma = row[np.abs(lags[:, None] - lags[None, :])]
    upper = np.triu(np.ones((n, n)), 1) + (0.0 if scheme == "ito" else 0.5) * np.eye(n)
    ls, lts = upper @ sigma, upper.T @ sigma
    if i != j:
        return float(np.trace(lts @ ls))
    return float(np.trace(ls) ** 2 + np.trace(ls @ ls) + np.trace(ls @ lts))


@pytest.mark.parametrize("hurst", [None, 0.3, 0.7])
def test_level2_second_moments_match_the_grid_law(hurst):
    # 18 cases (3 processes, 2 schemes, 3 entries) at 4.5 SE on a fixed seed
    spec = GaussianSpec("bm", 2) if hurst is None else GaussianSpec("fbm", 2, hurst=hurst)
    grid = TimeGrid(1.0, 16)
    count = 40_000
    values = sample_values_batch(spec, grid, seed=3, count=count)
    for scheme in ("ito", "stratonovich"):
        squares = _pair_base(values, scheme)[:, -1] ** 2
        for i, j in ((0, 0), (0, 1), (1, 0)):
            exact = _level2_second_moment(spec, grid, scheme, i, j)
            est = float(np.mean(squares[:, i, j]))
            se = float(np.std(squares[:, i, j], ddof=1)) / math.sqrt(count)
            assert abs(est - exact) <= 4.5 * se, (hurst, scheme, i, j, (est - exact) / se)


def _pairings(items):
    """Every perfect matching of `items`, as lists of pairs."""
    if not items:
        yield []
        return
    for k in range(1, len(items)):
        for rest in _pairings(items[1:k] + items[k + 1:]):
            yield [(items[0], items[k])] + rest


def _level3_second_moment(spec, grid, scheme, word):
    """Exact E[(X^w_{0,T})^2] of the grid lift for a word w of three letters, from the law's Sigma.

    X^w = sum_abc W_abc dx^{w1}_a dx^{w2}_b dx^{w3}_c, with W = 1{a < b < c}
    under Ito; the trapezoid scheme adds 1/2 on a = b < c and on a < b = c,
    and 1/6 on a = b = c.  Components are independent, each with Sigma, so
    Isserlis' theorem sums one contraction of W, W and three Sigmas over the
    pairings of the six increments that pair equal letters only: 1 for 123,
    3 for 112, 15 for 111.
    """
    n = grid.n_steps
    row = grids._grid_law(spec, grid).row
    lags = np.arange(n)
    sigma = row[np.abs(lags[:, None] - lags[None, :])]
    a, b, c = np.meshgrid(lags, lags, lags, indexing="ij")
    w = ((a < b) & (b < c)).astype(float)
    if scheme != "ito":
        w += 0.5 * ((a == b) & (b < c)) + 0.5 * ((a < b) & (b == c)) + ((a == b) & (b == c)) / 6.0
    letters, axes = tuple(word) * 2, "abcdef"
    return sum(
        float(np.einsum(",".join(["abc", "def"] + [axes[i] + axes[j] for i, j in pairs]) + "->",
                        w, w, sigma, sigma, sigma, optimize=True))
        for pairs in _pairings(list(range(6)))
        if all(letters[i] == letters[j] for i, j in pairs)
    )


LEVEL3_WORDS = ((1, 2, 3), (1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 1, 1))


@pytest.mark.parametrize("hurst", [None, 0.3, 0.7])
def test_level3_second_moments_match_the_grid_law(hurst):
    # 30 cases (3 processes, 2 schemes, 5 words) at 4.5 SE, on the level-2 test's seed
    spec = GaussianSpec("bm", 3) if hurst is None else GaussianSpec("fbm", 3, hurst=hurst)
    grid = TimeGrid(1.0, 16)
    count, chunk = 40_000, 5_000
    entries = tuple(np.array(LEVEL3_WORDS).T - 1)
    for scheme in ("ito", "stratonovich"):
        # lifted a chunk at a time: the whole batch's level-3 tensors alone would take 147 MB
        squares = []
        for start in range(0, count, chunk):
            values = sample_values_batch(spec, grid, seed=3, count=chunk, start=start)
            squares.append(_lift_tensors(values, scheme, 3)[1][(slice(None), -1, *entries)] ** 2)
        squares = np.concatenate(squares)
        for word, column in zip(LEVEL3_WORDS, squares.T):
            exact = _level3_second_moment(spec, grid, scheme, word)
            est = float(np.mean(column))
            se = float(np.std(column, ddof=1)) / math.sqrt(count)
            assert abs(est - exact) <= 4.5 * se, (hurst, scheme, word, (est - exact) / se)


def test_level3_second_moment_closed_forms():
    # Brownian Ito: Sigma = dt I, so every word's moment counts the C(16, 3) = 560 increasing triples,
    # dt^3 each; the other pairings of a repeated letter need a < b with b < a, or Sigma off its diagonal
    grid = TimeGrid(1.0, 16)
    for word in LEVEL3_WORDS:
        assert _level3_second_moment(GaussianSpec("bm", 3), grid, "ito", word) == pytest.approx(560 / 4096, rel=1e-14)
    targets = {(None, "stratonovich"): 0.151476, (0.3, "ito"): 0.503551, (0.3, "stratonovich"): 0.380182}
    for (hurst, scheme), target in targets.items():
        spec = GaussianSpec("bm", 3) if hurst is None else GaussianSpec("fbm", 3, hurst=hurst)
        assert _level3_second_moment(spec, grid, scheme, (1, 2, 3)) == pytest.approx(target, abs=5e-7)
    # the trapezoid 111 entry is x_T^3 / 6, so its second moment is E[x_T^6] / 36 = 15 R(T, T)^3 / 36
    for spec in (GaussianSpec("bm", 1), GaussianSpec("fbm", 1, hurst=0.3), GaussianSpec("fbm", 1, hurst=0.7)):
        assert _level3_second_moment(spec, grid, "stratonovich", (1, 1, 1)) == pytest.approx(15 / 36, rel=1e-12)


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
    diff = es.base2 - ei.base2
    asym = diff - np.swapaxes(diff, 1, 2)
    scale = max(1.0, float(np.max(np.abs(es.base2))))
    assert np.max(np.abs(asym)) <= 1e-13 * scale


def test_strat_matches_young_on_smooth_path():
    # x(t) = (t, t^2): int_0^T x1 dx2 = 2T^3/3, trapezoid error O(dt^2)
    for n in (64, 128):
        grid = TimeGrid(1.0, n)
        pts = grid.points
        x = SamplePath(grid, np.stack([pts, pts**2], axis=1))
        e = stratonovich_lift(x)
        err = abs(e.base2[-1, 0, 1] - 2.0 / 3.0)
        assert err <= 2.0 * grid.dt**2


def test_young_closed_forms():
    grid = TimeGrid(1.0, 128)
    h = CameronMartinPath(grid, np.ones((128, 2)))
    e = young_skeleton_lift(h, level=3)
    assert e.base2[-1, 0, 1] == pytest.approx(0.5, rel=1e-14)
    assert e.base3[-1, 0, 0, 0] == pytest.approx(1.0 / 6.0, rel=1e-14)


def test_young_diagonal_identity_on_increments():
    grid = TimeGrid(1.0, 32)
    h = _random_cm(5, grid, 2)
    e = young_skeleton_lift(h)
    v = h.values
    for i in (1, 2):
        surf = _surface(e, i, i)
        ref = 0.5 * (v[None, :, i - 1] - v[:, None, i - 1]) ** 2
        assert np.max(np.abs(surf - ref)) <= 1e-12


def test_young_level2_matches_reference():
    grid = TimeGrid(1.0, 64)
    h = _random_cm(6, grid, 3)
    e = young_skeleton_lift(h)
    assert np.max(np.abs(e.base2 - _young_level2_reference(h))) <= 1e-12


def test_young_level3_matches_direct_integration():
    # every block, mixed iji/jii ones included, equals direct iterated integrals
    for d, seed in [(d, seed) for d in (1, 2, 3) for seed in range(5)]:
        grid = TimeGrid(1.0, 32)
        h = _random_cm(seed, grid, d)
        e = young_skeleton_lift(h, level=3)
        ref = _young_level3_reference(h)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(e.base3 - ref)) <= 1e-12 * scale


def test_shuffle_identities_pointwise():
    grid = TimeGrid(1.0, 32)
    h = _random_cm(7, grid, 2)
    e = young_skeleton_lift(h, level=3)
    v = h.values
    for i, j in ((1, 2), (2, 1)):
        m_i = v[None, :, i - 1] - v[:, None, i - 1]
        m_j = v[None, :, j - 1] - v[:, None, j - 1]
        m_ij = _surface(e, i, j)
        m_ii = _surface(e, i, i)
        m_iij = _surface(e, i, i, j)
        m_iji = _surface(e, i, j, i)
        m_jii = _surface(e, j, i, i)
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
    lhs = young_skeleton_lift(combo).base2[-1]
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
        scale = max(1.0, float(np.max(np.abs(e.base2))))
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
    corrupted = e.base2.copy()
    corrupted[8, 0, 1] += 1.0
    from wienerlift.lifts import EnhancedPath

    bad = EnhancedPath(x, corrupted, scheme="ito")
    assert chen_residual(bad, 0, 8, 16) >= 0.99


def test_single_step_grid_is_degenerate_not_error():
    grid = TimeGrid(1.0, 1)
    x = sample(GaussianSpec("bm", 2), grid, seed=40)
    e = ito_lift(x)
    assert np.all(e.base2[0] == 0.0)
    assert np.all(e.base2[-1] == 0.0)  # single left-point term vanishes


def test_young_homogeneity():
    grid = TimeGrid(1.0, 64)
    h = _random_cm(12, grid, 2)
    base = young_skeleton_lift(h, level=3)
    for eps in (0.5, 2.0, 10.0):
        scaled = young_skeleton_lift(h.scaled(eps), level=3)
        ref = dilate_enhanced(base, eps)
        for lhs, rhs in (
            (scaled.level1.values, ref.level1.values),
            (scaled.base2, ref.base2),
            (scaled.base3, ref.base3),
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
        assert np.array_equal(unchanged.base2, e.base2)
        shifted = lifted_shift(e, h)
        direct = lift(SamplePath(grid, x.values + h.values), level=3)
        assert np.max(np.abs(shifted.base2 - direct.base2)) <= 1e-10
        assert np.max(np.abs(shifted.base3 - direct.base3)) <= 1e-10


def _mixed_shift_reference(x, h, scheme):
    """Every {x,h} word with an h-letter, summed step by step in explicit loops (oracle).

    Level 2: the h (x) dx, x (x) dh and h (x) dh sums; level 3: the seven words
    of {x,h}^3 other than xxx.  The trapezoid schemes add the half bracket at
    level 2 and the tensor-exponential terms at level 3.
    """
    n, d = x.shape[0] - 1, x.shape[1]
    half = 0.0 if scheme == "ito" else 0.5
    sixth = 0.0 if scheme == "ito" else 1.0 / 6.0
    slots = {"x": x, "h": h}

    def pair(a, b):
        out = np.zeros((n + 1, d, d))
        for m in range(n):
            for i in range(d):
                for j in range(d):
                    left = a[m, i] - a[0, i] + half * (a[m + 1, i] - a[m, i])
                    out[m + 1, i, j] = out[m, i, j] + left * (b[m + 1, j] - b[m, j])
        return out

    def triple(a, b, c):
        ab = pair(a, b)
        out = np.zeros((n + 1, d, d, d))
        for m in range(n):
            for i, j, k in itertools.product(range(d), repeat=3):
                da, db, dc = a[m + 1, i] - a[m, i], b[m + 1, j] - b[m, j], c[m + 1, k] - c[m, k]
                step = ab[m, i, j] * dc + half * (a[m, i] - a[0, i]) * db * dc + sixth * da * db * dc
                out[m + 1, i, j, k] = out[m, i, j, k] + step
        return out

    base2 = sum(pair(slots[w[0]], slots[w[1]]) for w in ("hx", "xh", "hh"))
    words = [w for w in itertools.product("xh", repeat=3) if "h" in w]
    base3 = sum(triple(*(slots[letter] for letter in w)) for w in words)
    return base2, base3


@pytest.mark.parametrize("lift", [ito_lift, stratonovich_lift])
@pytest.mark.parametrize("n", [5, 8])
def test_lifted_shift_adds_the_mixed_sums_to_the_given_levels(lift, n):
    grid = TimeGrid(1.0, n)
    x = sample(GaussianSpec("bm", 2), grid, seed=45)
    h = _random_cm(19, grid, 2)
    e = lift(x, level=3)
    rng = np.random.default_rng(20)
    # an enhancement of x that is not its lift: both levels moved off it, row 0 kept zero
    offset2, offset3 = rng.standard_normal(e.base2.shape), rng.standard_normal(e.base3.shape)
    offset2[0], offset3[0] = 0.0, 0.0
    other = EnhancedPath(e.level1, e.base2 + offset2, e.base3 + offset3, scheme=e.scheme)
    shifted = lifted_shift(other, h)
    ref2, ref3 = _mixed_shift_reference(x.values, h.values, e.scheme)
    assert np.max(np.abs(shifted.base2 - other.base2 - ref2)) <= 1e-12
    assert np.max(np.abs(shifted.base3 - other.base3 - ref3)) <= 1e-12
    # the shift keeps the offset from the lift of x + h
    direct = lift(SamplePath(grid, x.values + h.values), level=3)
    assert np.max(np.abs(shifted.base2 - direct.base2 - offset2)) <= 1e-12
    assert np.max(np.abs(shifted.base3 - direct.base3 - offset3)) <= 1e-12


@pytest.mark.parametrize("lift", [ito_lift, stratonovich_lift])
def test_lifted_shift_of_a_large_path_matches_the_direct_lift(lift):
    # the lifts of x + h and of x are about 1e12 at level 3; their difference
    # still matches the direct lift to rounding relative to that size
    grid = TimeGrid(1.0, 64)
    x = SamplePath(grid, 1e4 * sample(GaussianSpec("bm", 2), grid, seed=46).values)
    h = _random_cm(21, grid, 2)
    shifted = lifted_shift(lift(x, level=3), h)
    direct = lift(SamplePath(grid, x.values + h.values), level=3)
    for got, want in ((shifted.base2, direct.base2), (shifted.base3, direct.base3)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_lifted_shift_of_zero_path_approximates_young():
    for n in (64, 128):
        grid = TimeGrid(1.0, n)
        h = _random_cm(14, grid, 2)
        zero = SamplePath(grid, np.zeros((n + 1, 2)))
        shifted = lifted_shift(ito_lift(zero), h)
        young = young_skeleton_lift(h)
        gap = np.max(np.abs(shifted.base2 - young.base2))
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
    assert np.max(np.abs(lhs.base2 - rhs.base2)) <= 1e-10
    assert np.max(np.abs(lhs.base3 - rhs.base3)) <= 1e-10


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
    e = ito_lift(x, level=3)
    doc = enhanced_to_document(e)
    back = enhanced_from_document(doc)
    assert back.scheme == "ito"
    assert np.array_equal(back.level1.values, e.level1.values)
    assert np.array_equal(back.base2, e.base2)
    assert np.array_equal(back.base3, e.base3)
    assert "ambient" not in doc
    with pytest.raises(ValueError, match="format_version"):
        enhanced_from_document({"format_version": "bogus"})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("level", [2, 3])
def test_lift_with_a_non_finite_tensor_is_refused(tmp_path, level, bad):
    # every array of a lift is finite; a document with a NaN or inf tensor entry is refused, naming the file
    e = ito_lift(sample(GaussianSpec("bm", 2), TimeGrid(1.0, 8), seed=45), level=3)
    base2, base3 = e.base2.copy(), e.base3.copy()
    (base2 if level == 2 else base3)[3].flat[1] = bad
    with pytest.raises(ValueError, match=f"base{level} contains non-finite entries"):
        EnhancedPath(e.level1, base2, base3, scheme="ito")
    doc = enhanced_to_document(e)
    doc[f"level{level}"]["data"][20] = bad
    target = tmp_path / "lift.json"
    target.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(f"{target}: base{level} contains non-finite entries")):
        load_enhanced(target)


@pytest.mark.parametrize("level", [2, 3])
def test_lift_whose_tensors_overflow_warns_nothing(level):
    # inf - inf in the bracket term once printed a numpy RuntimeWarning before the refusal
    path = SamplePath(TimeGrid(1.0, 2), np.array([[0.0], [1e200], [-1e200]]))
    skeleton = piecewise_linear(path, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="base2 contains non-finite entries"):
            stratonovich_lift(path, level)
        with pytest.raises(ValueError, match="base2 contains non-finite entries"):
            young_skeleton_lift(skeleton, level)


def test_load_refuses_a_document_that_embeds_an_ambient(tmp_path):
    # the ambient is given on its own; a document that embeds one is refused, naming the file
    e = ito_lift(sample(GaussianSpec("bm", 2), TimeGrid(1.0, 8), seed=45))
    target = tmp_path / "lift.json"
    target.write_text(json.dumps(enhanced_to_document(e) | {"ambient": ambient_for_levels(2, 2).to_config()}))
    with pytest.raises(ValueError, match=re.escape(f"{target}: enhanced-path document has an 'ambient' field")):
        load_enhanced(target)


def test_to_graded_payload_shapes():
    # one built-in float per symbol, in the ambient's order; the default ambient follows the lift
    grid = TimeGrid(1.0, 16)
    x = sample(GaussianSpec("bm", 2), grid, seed=46)
    e = stratonovich_lift(x, level=3)
    ambient = ambient_for_levels(2, 3, p=2.5)
    norms = to_graded(e, ambient)
    assert [sym for sym, _ in norms] == list(ambient.symbols)
    assert all(type(norm) is float and norm > 0 for _, norm in norms)
    assert to_graded(e) == norms
    with pytest.raises(ValueError, match="symbol '111' has degree 3, but the lift stops at level 2"):
        to_graded(stratonovich_lift(x, level=2), ambient_for_levels(2, 3))
