import dataclasses
import math
import re

import numpy as np
import pytest

from wienerlift._batch import homogeneous_norm_batch, pair_base_batch
from wienerlift.grids import CameronMartinPath, GaussianSpec, SamplePath, TimeGrid, sample, sample_values_batch
from wienerlift.lifts import _triple_base, dilate_enhanced, stratonovich_lift, to_graded
from wienerlift.seminorms import (
    NORM_KINDS,
    AmbientSpec,
    SymbolNorm,
    SymbolSpec,
    ambient_for_levels,
    banach_norm,
    column_kernel,
    holder_norm_1d,
    homogeneous_norm,
    p_variation_1d,
    path_kernel,
)

from surface_oracle import entry_surface, lift_surface, surface_columns


def _surface_norm(surface, grid, norm):
    """One symbol norm of stored surfaces X[..., s, t] through `column_kernel`."""
    return column_kernel(norm, grid.n_steps, grid.dt)(surface_columns(surface), surface.shape[:-2])


def _pvar_over_all_partitions(surface, q):
    """(max over partitions 0 = t_0 < ... < t_k = n of sum |X_{t_i, t_i+1}|^q)^(1/q)."""
    n = surface.shape[-1] - 1
    best = 0.0
    for mask in range(2 ** (n - 1)):
        idx = [0] + [i for i in range(1, n) if (mask >> (i - 1)) & 1] + [n]
        best = max(best, sum(abs(surface[a, b]) ** q for a, b in zip(idx, idx[1:])))
    return best ** (1.0 / q)


def p_variation_1d_bruteforce(values, p):
    """Exhaustive reference over all 2^(n-1) partitions; n <= ~16 only."""
    x = np.asarray(values, dtype=float)
    return abs(x[0]) + _pvar_over_all_partitions(x[None, :] - x[:, None], p)


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
        SymbolSpec("s", (1, 2), SymbolNorm("pvar", 0.9))


def test_holder_closed_forms():
    grid = TimeGrid(1.0, 100)
    assert holder_norm_1d(grid.points, grid, 1.0) == pytest.approx(1.0, rel=1e-12)
    # |t - s| / |t - s|^(1/2) maximized at the full interval
    assert holder_norm_1d(grid.points, grid, 0.5) == pytest.approx(1.0, rel=1e-12)
    assert _surface_norm(np.zeros((101, 101)), grid, SymbolNorm("holder", 0.8)) == 0.0


def test_holder_norm_refuses_a_path_off_its_grid():
    # five points read on an eight-step grid once gave 2.0, the unit slope on the wrong time scale
    assert holder_norm_1d(np.linspace(0, 1, 5), TimeGrid(1.0, 4), 1.0) == pytest.approx(1.0, rel=1e-15)
    for steps in (8, 3):
        with pytest.raises(ValueError, match=rf"^path has 5 points, but the grid has {steps + 1}$"):
            holder_norm_1d(np.linspace(0, 1, 5), TimeGrid(1.0, steps), 1.0)


def test_holder_exponent_comparison():
    rng = np.random.default_rng(3)
    grid = TimeGrid(1.0, 64)
    x = np.concatenate([[0.0], np.cumsum(rng.standard_normal(64) * math.sqrt(grid.dt))])
    for alpha, beta in ((0.25, 0.5), (0.4, 0.9)):
        lhs = holder_norm_1d(x, grid, alpha)
        rhs = holder_norm_1d(x, grid, beta) * grid.horizon ** (beta - alpha)
        assert lhs <= rhs + 1e-12


def _two_param_paths(n, count=2, seed=4, dim=2):
    """Stratonovich level-2/3 basepoint tensors of `count` BM paths."""
    grid = TimeGrid(1.0, n)
    values = sample_values_batch(GaussianSpec("bm", dim), grid, seed, count)
    base2 = pair_base_batch(values, "stratonovich")
    return grid, values, base2, _triple_base(values, "stratonovich", base2)


@pytest.mark.parametrize("word", [(1, 2), (2, 2), (1, 2, 1), (2, 1, 1)])
def test_two_param_pvar_matches_bruteforce_over_partitions(word):
    from wienerlift.lifts import entry_columns

    for n in (5, 9, 12):
        grid, values, base2, base3 = _two_param_paths(n)
        surfaces = entry_surface(values, base2, base3, word)
        for q in (1.0, 1.25, 2.0):
            streamed = column_kernel(SymbolNorm("pvar", q), n)(entry_columns(values, base2, base3, word), (2,))
            for k, surface in enumerate(surfaces):
                oracle = _pvar_over_all_partitions(surface, q)
                assert streamed[k] == pytest.approx(oracle, rel=1e-12)
                assert _surface_norm(surface, grid, SymbolNorm("pvar", q)) == pytest.approx(oracle, rel=1e-12)


def test_two_param_pvar_of_linear_path_is_its_single_interval():
    # x_t = v t lifts to x_{s,t}^{(x)k} / k!, and |X_{s,t}|^q = c (t-s)^(kq) is
    # superadditive for kq > 1, so the one interval [0, T] attains the q-variation
    from wienerlift.lifts import young_skeleton_lift

    grid = TimeGrid(2.0, 16)
    v = np.array([0.7, -1.3])
    e = young_skeleton_lift(CameronMartinPath(grid, np.tile(v, (16, 1))), level=3)
    dx = grid.points[None, :] - grid.points[:, None]
    for i, j in ((1, 1), (1, 2), (2, 1)):
        surface = lift_surface(e, i, j)
        expected = v[i - 1] * v[j - 1] * dx**2 / 2
        assert np.max(np.abs(surface - expected)) <= 1e-14
        for q in (1.0, 1.25, 2.0):
            assert _surface_norm(surface, grid, SymbolNorm("pvar", q)) == pytest.approx(abs(expected[0, -1]), rel=1e-13)
    surface = lift_surface(e, 1, 2, 1)
    expected = v[0] * v[1] * v[0] * dx**3 / 6
    assert np.max(np.abs(surface - expected)) <= 1e-13
    for q in (1.0, 1.5):
        assert _surface_norm(surface, grid, SymbolNorm("pvar", q)) == pytest.approx(abs(expected[0, -1]), rel=1e-13)


def test_two_param_holder_and_sup_range_over_s_before_t():
    rng = np.random.default_rng(4)
    grid = TimeGrid(1.0, 8)
    surface = rng.standard_normal((9, 9))
    surface[np.tril_indices(9)] = 1e6  # s >= t: never read
    pairs = [(s, t) for t in range(9) for s in range(t)]
    for e in (0.4, 0.8, 1.6):
        oracle = max(abs(surface[s, t]) / ((t - s) * grid.dt) ** e for s, t in pairs)
        assert _surface_norm(surface, grid, SymbolNorm("holder", e)) == pytest.approx(oracle, rel=1e-15)
    assert _surface_norm(surface, grid, SymbolNorm("sup")) == max(abs(surface[s, t]) for s, t in pairs)
    assert _surface_norm(surface, grid, SymbolNorm("terminal")) == abs(surface[0, 8])


def test_brownian_level2_qvariation_bounded_under_refinement():
    # the grid q-variation has a continuum limit; an all-pairs sum grows like
    # n^(2/q), about 80-fold from n = 64 to 1024
    from wienerlift.grids import sample_values_batch
    from wienerlift.lifts import _pair_base, entry_columns

    fine = sample_values_batch(GaussianSpec("bm", 2), TimeGrid(1.0, 1024), 2024, 16)
    medians = []
    for n in (64, 128, 256, 512, 1024):
        values = fine[:, :: 1024 // n]
        base2 = _pair_base(values, "stratonovich")
        qvar = column_kernel(SymbolNorm("pvar", 1.25), n)(entry_columns(values, base2, None, (1, 2)), (16,))
        medians.append(float(np.median(qvar)))
    assert max(medians) <= 1.5 * min(medians)


def _loop_norm(payload, grid, norm):
    """One symbol norm by explicit loops, on a path (n+1,) or on a surface X[s, t] at s < t."""
    n, kind, e = grid.n_steps, norm.kind, norm.exponent
    if payload.ndim == 1:
        if kind in ("sup", "terminal"):
            return abs(payload[-1]) if kind == "terminal" else max(abs(v) for v in payload)
        start = abs(payload[0]) if kind == "pvar" else 0.0
        return start + _loop_norm(payload[None, :] - payload[:, None], grid, norm)
    pairs = [(s, t) for t in range(n + 1) for s in range(t)]
    if kind == "pvar":
        return _pvar_over_all_partitions(payload, e)
    if kind == "holder":
        return max(abs(payload[s, t]) / ((t - s) * grid.dt) ** e for s, t in pairs)
    if kind == "sup":
        return max(abs(payload[s, t]) for s, t in pairs)
    return abs(payload[0, n])


def _reference_paths(grid):
    """BM, fBm with H = 0.3, a linear path and the zero path, d = 2."""
    return {
        "bm": sample(GaussianSpec("bm", 2), grid, seed=31),
        "fbm": sample(GaussianSpec("fbm", 2, hurst=0.3), grid, seed=32),
        "linear": SamplePath(grid, grid.points[:, None] * np.array([0.7, -1.3])),
        "zero": SamplePath(grid, np.zeros((grid.n_steps + 1, 2))),
    }


def _ambient(kind, level, dim=2):
    """The standard symbols of a d=`dim` lift up to `level`, each under a `kind` norm."""
    ambient = ambient_for_levels(dim, level, norm_kind="holder" if kind == "holder" else "pvar", p=2.5)
    if kind in ("sup", "terminal"):
        ambient = AmbientSpec(
            tuple(dataclasses.replace(s, norm=SymbolNorm(kind)) for s in ambient.symbols),
            ambient.distinguished,
        )
    return ambient


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("kind", NORM_KINDS)
def test_to_graded_norms_match_explicit_loops(kind, level):
    # streamed from the basepoint tensors vs loops over the oracle's stored surfaces
    grid = TimeGrid(1.0, 10)
    ambient = _ambient(kind, level)
    for name, x in _reference_paths(grid).items():
        e = stratonovich_lift(x, level=level)
        norms = to_graded(e, ambient)
        assert [sym for sym, _ in norms] == list(ambient.symbols)
        loops = [
            _loop_norm(x.values[:, sym.indices[0] - 1] if sym.degree == 1 else lift_surface(e, *sym.indices),
                       grid, sym.norm)
            for sym in ambient.symbols
        ]
        for (sym, norm), loop in zip(norms, loops):
            assert norm == pytest.approx(loop, rel=1e-12, abs=0), (name, sym.name)
        hom = sum(loop ** (1.0 / sym.degree) for sym, loop in zip(ambient.symbols, loops))
        assert homogeneous_norm(norms) == pytest.approx(hom, rel=1e-12, abs=0), name
        assert banach_norm(norms) == pytest.approx(sum(loops), rel=1e-12, abs=0), name


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("kind", NORM_KINDS)
def test_empty_batch_gives_empty_norms(kind, level):
    grid, values, base2, base3 = _two_param_paths(8, count=0)
    norms = homogeneous_norm_batch(_ambient(kind, level), grid, values, base2, base3)
    assert norms.shape == (0,)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("kind", NORM_KINDS)
def test_norms_never_write_to_their_inputs(kind, level, dim):
    # the kernel overwrites its column blocks in place, so a block that
    # aliased a caller's array would change it; d=1 arrays are contiguous
    # along time, where a time-first view needs no copy
    grid, values, base2, base3 = _two_param_paths(12, count=5, seed=9, dim=dim)
    ambient = _ambient(kind, level, dim)
    e = stratonovich_lift(SamplePath(grid, values[0]), level=3)
    for norms, arrays in (
        (lambda: homogeneous_norm_batch(ambient, grid, values, base2, base3), (values, base2, base3)),
        (lambda: to_graded(e, ambient), (e.level1.values, e.base2, e.base3)),
    ):
        before = [a.tobytes() for a in arrays]
        norms()
        assert [a.tobytes() for a in arrays] == before


def test_homogeneous_norm_degree_weighting():
    grid = TimeGrid(1.0, 4)
    sym = SymbolSpec("s", (1, 1), SymbolNorm("sup"))
    assert homogeneous_norm([(sym, _surface_norm(np.zeros((5, 5)), grid, sym.norm))]) == 0.0
    payload = np.zeros((5, 5))
    payload[0, -1] = 4.0
    norms = [(sym, _surface_norm(payload, grid, sym.norm))]
    assert homogeneous_norm(norms) == pytest.approx(2.0, rel=1e-14)
    assert banach_norm(norms) == pytest.approx(4.0, rel=1e-14)
    cube = SymbolSpec("c", (1, 1, 1), SymbolNorm("sup"))
    assert homogeneous_norm(norms + [(cube, 27.0)]) == pytest.approx(5.0, rel=1e-14)


def _lift_arrays(e):
    return e.level1.values, e.base2, e.base3


def test_dilation_homogeneity_and_semigroup():
    # dilate_enhanced scales level k by eps^k, so the homogeneous norm scales by eps
    grid = TimeGrid(1.0, 16)
    ambients = (ambient_for_levels(2, 3, norm_kind="pvar", p=2.5),
                ambient_for_levels(2, 3, norm_kind="holder", alpha=0.4))
    for seed in range(5):
        e = stratonovich_lift(sample(GaussianSpec("bm", 2), grid, seed=seed), level=3)
        for ambient in ambients:
            base = homogeneous_norm(to_graded(e, ambient))
            for eps in (0.1, 0.5, 2.0):
                scaled = homogeneous_norm(to_graded(dilate_enhanced(e, eps), ambient))
                assert scaled == pytest.approx(eps * base, rel=1e-12)
        w = dilate_enhanced(dilate_enhanced(e, 0.7), 3.0)
        for a, b in zip(_lift_arrays(w), _lift_arrays(dilate_enhanced(e, 2.1))):
            assert np.allclose(a, b, rtol=1e-12, atol=0)


def test_dilation_edge_cases():
    e = stratonovich_lift(sample(GaussianSpec("bm", 2), TimeGrid(1.0, 8), seed=1), level=3)
    for a, b in zip(_lift_arrays(dilate_enhanced(e, 1.0)), _lift_arrays(e)):
        assert np.array_equal(a, b)
    assert all(np.all(a == 0.0) for a in _lift_arrays(dilate_enhanced(e, 0.0)))
    for eps in (-0.2, math.nan, math.inf):
        with pytest.raises(ValueError, match=rf"^eps must be >= 0 and finite, got {eps}$"):
            dilate_enhanced(e, eps)
    for eps in (True, "0.5"):  # True once dilated by 1, "0.5" once raised TypeError
        with pytest.raises(ValueError, match=f"^eps must be a real number, got {eps!r}$"):
            dilate_enhanced(e, eps)


def test_homogeneous_distance_triangle_inequality():
    # random paths (degree 1) and surfaces (degree 2); distances on their differences
    grid = TimeGrid(1.0, 16)
    n = grid.n_steps
    ambient = ambient_for_levels(1, 2, norm_kind="pvar", p=2.5)

    def element(seed):
        rng = np.random.default_rng(seed)
        return {
            sym.name: np.concatenate([[0.0], np.cumsum(rng.standard_normal(n))])
            if sym.degree == 1 else rng.standard_normal((n + 1, n + 1))
            for sym in ambient.symbols
        }

    def distance(a, b):
        return homogeneous_norm(
            (sym, path_kernel(sym.norm, n, grid.dt)(a[sym.name] - b[sym.name]) if sym.degree == 1
             else _surface_norm(a[sym.name] - b[sym.name], grid, sym.norm))
            for sym in ambient.symbols
        )

    u, v, w = (element(seed) for seed in range(3))
    assert distance(u, w) <= distance(u, v) + distance(v, w) + 1e-12


def test_ambient_config_round_trip(tmp_path):
    ambient = ambient_for_levels(2, 3, norm_kind="pvar", p=3.0)
    target = tmp_path / "ambient.json"
    ambient.save(target)
    back = AmbientSpec.load(target)
    assert back == ambient


def test_ambient_validation():
    bad = SymbolSpec("a", (1, 1), SymbolNorm("sup"))
    with pytest.raises(ValueError, match="degree 1"):
        AmbientSpec(symbols=(bad,), distinguished=("a",))
    with pytest.raises(ValueError, match="unique"):
        dup = SymbolSpec("a", (1,), SymbolNorm("sup"))
        AmbientSpec(symbols=(dup, dup), distinguished=("a",))
    for exponent in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="pvar exponent"):
            SymbolNorm("pvar", exponent)
    # a NaN p is not clamped to exponent 1
    with pytest.raises(ValueError, match="pvar exponent"):
        ambient_for_levels(2, 2, p=math.nan)
    with pytest.raises(ValueError):
        SymbolNorm("holder", 3.0)
    # a degree-1 holder norm has exponent at most 1; degree 2 allows up to 2
    holder = SymbolSpec("h", (1,), SymbolNorm("holder", 1.5))
    with pytest.raises(ValueError, match=r"symbol 'h': a degree-1 holder exponent must lie in \(0, 1\], got 1.5"):
        AmbientSpec(symbols=(holder,), distinguished=("h",))
    with pytest.raises(ValueError):
        SymbolNorm("l2")
    # a symbol is a word of one to three indices into components 1, 2, ...
    for indices, message in (
        ((0,), "index must be >= 1, got 0"),
        ((-1,), "index must be >= 1, got -1"),
        (("1", "2"), "index must be an integer, got '1'"),
        ((True,), "index must be an integer, got True"),
        (5, "indices must be a word of integers, got 5"),
        ((), "degree must be >= 1, got 0"),
        ((1, 1, 1, 1), "degree must be <= 3, got 4"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SymbolSpec("s", indices, SymbolNorm("sup"))
    # a NumPy int is an index, stored as an int
    word = SymbolSpec("s", (np.int64(1), np.int64(2)), SymbolNorm("pvar", 1.0)).indices
    assert word == (1, 2) and all(type(i) is int for i in word)
    with pytest.raises(ValueError, match="at least one symbol"):
        AmbientSpec(symbols=(), distinguished=())


def _two_level_ambient(norm1: SymbolNorm, norm2: SymbolNorm) -> AmbientSpec:
    """d=2 symbols 1, 2 under `norm1` and 11, 12, 21, 22 under `norm2`."""
    words = [(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]
    symbols = tuple(SymbolSpec("".join(map(str, w)), w, norm1 if len(w) == 1 else norm2) for w in words)
    return AmbientSpec(symbols, ("1", "2"))


# an fBm ambient whose continuum norm is infinite: (spec, ambient, the refusal), each at its boundary
INFINITE_ON_FBM = {
    "pvar-at-1/(kH)": (GaussianSpec("fbm", 1, hurst=0.4), ambient_for_levels(1, 1, p=2.5),
                       "symbol '1' has pvar exponent 2.5, but fbm with hurst 0.4 needs one above 1/(kH) = 2.5"),
    "level2-pvar-at-1/(kH)": (GaussianSpec("fbm", 2, hurst=0.4),
                              _two_level_ambient(SymbolNorm("pvar", 3.0), SymbolNorm("pvar", 1.25)),
                              "symbol '11' has pvar exponent 1.25, but fbm with hurst 0.4 needs one above 1/(kH)"),
    "holder-at-kH": (GaussianSpec("fbm", 2, hurst=0.4), ambient_for_levels(2, 2, norm_kind="holder", alpha=0.4),
                     "symbol '1' has holder exponent 0.4, but fbm with hurst 0.4 needs one below kH = 0.4 at degree 1"),
    "level2-holder-at-kH": (GaussianSpec("fbm", 2, hurst=0.4),
                            _two_level_ambient(SymbolNorm("holder", 0.3), SymbolNorm("holder", 0.8)),
                            "symbol '11' has holder exponent 0.8, but fbm with hurst 0.4 needs one below kH = 0.8"),
    "level2-at-quarter": (GaussianSpec("fbm", 2, hurst=0.25), ambient_for_levels(2, 2, p=8.0),
                          "symbol '11' has degree 2, but fbm with hurst 0.25 <= 1/4 has no lift above level 1"),
}


@pytest.mark.parametrize("case", sorted(INFINITE_ON_FBM))
def test_check_process_refuses_an_ambient_infinite_on_fbm(case):
    spec, ambient, message = INFINITE_ON_FBM[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        ambient.check_process(spec)


@pytest.mark.parametrize("spec, ambient", [
    (GaussianSpec("bm", 2), ambient_for_levels(2, 3, p=2.5)),
    (GaussianSpec("bm", 2), ambient_for_levels(2, 2, norm_kind="holder", alpha=0.4)),
    (GaussianSpec("bm", 1), ambient_for_levels(1, 1, p=1.0)),  # BM passes every symbol
    (GaussianSpec("fbm", 2, hurst=0.45), ambient_for_levels(2, 2, p=2.5)),
    (GaussianSpec("fbm", 2, hurst=0.4), ambient_for_levels(2, 1, norm_kind="holder", alpha=0.39)),
    # sup and terminal norms are finite at any Hurst index
    (GaussianSpec("fbm", 2, hurst=0.1), AmbientSpec(
        (SymbolSpec("1", (1,), SymbolNorm("sup")), SymbolSpec("2", (2,), SymbolNorm("terminal"))), ("1", "2"))),
])
def test_check_process_passes_finite_norms(spec, ambient):
    ambient.check_process(spec)


def test_a_norm_exponent_is_a_real_number():
    for kind, exponent in (("pvar", True), ("pvar", "2.5"), ("holder", False), ("holder", "0.5")):
        with pytest.raises(ValueError, match=f"{kind} exponent must be a real number"):
            SymbolNorm(kind, exponent)


def test_level_one_takes_p_itself():
    # a p below 1 was once raised to 1 at level 1, so level2:0.5 read as level2:1
    for p in (0.5, 0.0, -3.0, math.nan):
        with pytest.raises(ValueError, match="pvar exponent must be finite and >= 1"):
            ambient_for_levels(1, 2, p=p)
    for p in (1.0, 2.5):
        level1, level2 = (s.norm.exponent for s in ambient_for_levels(1, 2, p=p).symbols)
        assert (level1, level2) == (p, max(p / 2, 1.0))


def test_degree_and_arity_follow_from_the_word():
    # degree is the word's length, arity 1 for a path and 2 for an entry; neither can be set
    for indices, degree, arity in (((2,), 1, 1), ((1, 2), 2, 2), ((2, 1, 2), 3, 2)):
        sym = SymbolSpec("s", indices, SymbolNorm("sup"))
        assert (sym.degree, sym.arity) == (degree, arity)
    with pytest.raises(TypeError):
        SymbolSpec("s", (1,), SymbolNorm("sup"), degree=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sym.degree = 2


# a stated degree or arity that disagrees with the word, in an ambient config
STATED = {
    "degree-2-word-121": ([1, 2, 1], 2, 2, "a degree-2 symbol needs a word of length 2, got (1, 2, 1)"),
    "degree-1-word-12": ([1, 2], 1, 1, "a degree-1 symbol needs a word of length 1, got (1, 2)"),
    "degree-3-word-1": ([1], 3, 2, "a degree-3 symbol needs a word of length 3, got (1,)"),
    "arity-1-word-12": ([1, 2], 2, 1, "a degree-2 symbol has arity 2, got 1"),
    "arity-2-word-1": ([1], 1, 2, "a degree-1 symbol has arity 1, got 2"),
}


@pytest.mark.parametrize("case", sorted(STATED))
def test_from_config_refuses_a_stated_degree_or_arity_off_the_word(case):
    indices, degree, arity, message = STATED[case]
    entry = {"symbol": "s", "indices": indices, "degree": degree, "norm": {"kind": "sup"}, "arity": arity}
    with pytest.raises(ValueError, match=re.escape(message)):
        AmbientSpec.from_config({"symbols": [entry], "distinguished": []})


@pytest.mark.parametrize("arity", [1, 2])
@pytest.mark.parametrize("kind", ["pvar", "holder", "sup", "terminal"])
def test_batch_of_paths_matches_each_path_alone(kind, arity):
    # one kernel serves both routes: a batch row equals the path computed alone
    from wienerlift.grids import sample_values_batch
    from wienerlift.lifts import _pair_base

    grid = TimeGrid(1.0, 64)
    values = sample_values_batch(GaussianSpec("bm", 2), grid, seed=8, count=8)
    exponent = {"pvar": 2.5 / arity, "holder": 0.4 * arity}.get(kind)
    sym = SymbolSpec("s", (1, 2)[:arity], SymbolNorm(kind, exponent))
    if arity == 1:
        payloads = values[:, :, 0]
        norm_of = path_kernel(sym.norm, grid.n_steps, grid.dt)
    else:
        payloads = entry_surface(values, _pair_base(values, "ito"), None, (1, 2))
        norm_of = lambda payload: _surface_norm(payload, grid, sym.norm)  # noqa: E731
    batch = norm_of(payloads)
    assert batch.shape == (8,)
    for row, payload in zip(batch, payloads):
        alone = norm_of(payload)
        assert type(alone) is float
        if kind == "pvar":
            # the root of a float and of an array may differ in the last bit
            assert row == pytest.approx(alone, rel=1e-15)
        else:
            assert row == alone


def _mixed_ambient():
    """d=2 symbols of degree 1-3 whose level-2/3 norms cycle through all four kinds."""
    cycle = [SymbolNorm("pvar", 1.25), SymbolNorm("sup"), SymbolNorm("holder", 0.8), SymbolNorm("terminal")]
    symbols = [SymbolSpec(str(i), (i,), SymbolNorm("sup")) for i in (1, 2)]
    words = [(1, 2), (2, 1), (2, 2), (1, 1), (1, 2, 1), (2, 1, 2), (1, 1, 2), (2, 2, 1)]
    for k, word in enumerate(words):
        symbols.append(SymbolSpec("".join(map(str, word)), word, cycle[k % 4]))
    return AmbientSpec(symbols=tuple(symbols), distinguished=("1", "2"))


def test_column_blocks_do_not_change_bits(monkeypatch):
    # one column per block and one block for all columns give the same floats,
    # for every norm kind, a batch with two leading axes and a single path
    import wienerlift.seminorms as sm
    from wienerlift.lifts import norm_plan

    grid, values, base2, base3 = _two_param_paths(24, count=6, seed=12)
    ambients = [ambient_for_levels(2, 3, norm_kind="pvar", p=2.5),
                ambient_for_levels(2, 2, norm_kind="holder", alpha=0.4),
                _mixed_ambient()]

    def norms(ambient, shape=(6,), row=slice(None)):
        arrays = (a[row].reshape(shape + a.shape[1:]) for a in (values, base2, base3))
        return [norm for _, norm in norm_plan(ambient, grid)(*arrays)]

    whole = [norms(a) for a in ambients]
    for block_bytes in (sm.BLOCK_BYTES, 1):
        monkeypatch.setattr(sm, "BLOCK_BYTES", block_bytes)
        for ambient, ref in zip(ambients, whole):
            rows = zip(ambient.symbols, ref, norms(ambient), norms(ambient, (2, 3)), norms(ambient, (), 4))
            for sym, flat, blocked, two_axes, alone in rows:
                assert np.array_equal(blocked, flat), sym.name
                assert two_axes.shape == (2, 3) and np.array_equal(two_axes.ravel(), flat), sym.name
                assert type(alone) is float
                # the root of a float and of an array may differ in the last bit
                assert alone == pytest.approx(flat[4], rel=1e-15), sym.name
