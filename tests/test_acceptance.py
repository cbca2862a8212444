"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Sample counts and tolerances follow the stated targets; every stochastic run
is seeded and therefore reproducible bit for bit.
"""

import json
import math
import time
from itertools import product

import numpy as np
import pytest
from scipy import stats

from wienerlift._batch import pair_base_batch
from wienerlift.asymptotics import (
    EventSpec,
    empirical_rate,
    eta0_estimate,
    eta0_quotient,
    fernique_tail_fit,
)
from wienerlift.chaos import (
    chaos_norm_equivalence_probe,
    gauss_hermite_nodes,
    hermite,
    hermite_binomial_expand,
    multi_index_factorial,
)
from wienerlift.cli import main as cli_main
from wienerlift.girsanov import REWEIGHT_FUNCTIONALS, reweight_check
from wienerlift.grids import (
    CameronMartinPath,
    GaussianSpec,
    SamplePath,
    TimeGrid,
    cm_inner,
    sample,
    sample_values_batch,
)
from wienerlift.lifts import (
    dilate_enhanced,
    ito_lift,
    lifted_shift,
    max_chen_residual,
    stratonovich_lift,
    to_graded,
    young_skeleton_lift,
)
from wienerlift.seminorms import (
    ambient_for_levels,
    classical_ambient,
    homogeneous_norm,
)

from surface_oracle import lift_surface as _surface


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'} [{criterion}] {detail}", flush=True)
    assert ok, f"{criterion}: {detail}"


def _random_cm(seed, grid, d, scale=1.0):
    rng = np.random.default_rng(seed)
    return CameronMartinPath(grid, scale * rng.standard_normal((grid.n_steps, d)))


def test_criterion_01_chen_relation():
    start = time.perf_counter()
    grid = TimeGrid(1.0, 1024)
    x = sample(GaussianSpec("bm", 2), grid, seed=1001)
    h = _random_cm(1002, grid, 2)
    worst = 0.0
    for e in (
        ito_lift(x, level=3),
        stratonovich_lift(x, level=3),
        young_skeleton_lift(h, level=3),
    ):
        scale = max(
            1.0,
            float(np.max(np.abs(e.base2))),
            float(np.max(np.abs(e.base3))),
        )
        worst = max(worst, max_chen_residual(e) / scale)
    elapsed = time.perf_counter() - start
    _report(
        "1 chen-relation",
        worst <= 1e-10 and elapsed < 5.0,
        f"max relative residual {worst:.2e} over all dyadic triples, {elapsed:.1f}s",
    )


def test_criterion_02_bracket_law():
    grid = TimeGrid(1.0, 256)
    spec = GaussianSpec("bm", 2)
    n_samples, chunk = 100_000, 1024
    diag = np.empty((n_samples, 2))
    worst_asym = 0.0
    done = 0
    while done < n_samples:
        c = min(chunk, n_samples - done)
        values = sample_values_batch(spec, grid, 2001, c, start=done)
        ito_term = pair_base_batch(values, "ito")[:, -1]
        strat_term = pair_base_batch(values, "stratonovich")[:, -1]
        diff = strat_term - ito_term
        diag[done : done + c] = diff[:, (0, 1), (0, 1)]
        asym = diff - np.swapaxes(diff, 1, 2)
        scale = max(1.0, float(np.max(np.abs(strat_term))))
        worst_asym = max(worst_asym, float(np.max(np.abs(asym))) / scale)
        done += c
    ok = True
    details = []
    for i in range(2):
        est = float(np.mean(diag[:, i]))
        se = float(np.std(diag[:, i], ddof=1) / math.sqrt(n_samples))
        ok = ok and abs(est - 0.5) <= 3 * se
        details.append(f"diag{i + 1}: {est:.5f} (3se {3 * se:.5f})")
    # independently accumulated schemes agree in their antisymmetric parts
    # to rounding; bit-for-bit zero is not attainable, 1e-13 stands in for it
    ok = ok and worst_asym <= 1e-13
    _report(
        "2 bracket-law",
        ok,
        f"target 0.5T: {'; '.join(details)}; antisym defect {worst_asym:.1e}",
    )


def test_criterion_03_homogeneity():
    grid = TimeGrid(1.0, 32)
    epsilons = (0.1, 0.5, 2.0, 10.0)
    ambients = (
        ambient_for_levels(2, 2, norm_kind="pvar", p=2.5),
        ambient_for_levels(2, 2, norm_kind="holder", alpha=0.4),
    )
    worst_norm = worst_lift = 0.0
    for case in range(100):
        x = sample(GaussianSpec("bm", 2), grid, seed=3000 + case)
        e = stratonovich_lift(x)
        ambient = ambients[case % 2]
        base = homogeneous_norm(to_graded(e, ambient))
        h = _random_cm(3200 + case, grid, 2)
        ref = young_skeleton_lift(h, level=3)
        for eps in epsilons:
            scaled_norm = homogeneous_norm(to_graded(dilate_enhanced(e, eps), ambient))
            worst_norm = max(worst_norm, abs(scaled_norm - eps * base) / (eps * base))
            lifted = young_skeleton_lift(h.scaled(eps), level=3)
            target = dilate_enhanced(ref, eps)
            for lhs, rhs in (
                (lifted.level1.values, target.level1.values),
                (lifted.base2, target.base2),
                (lifted.base3, target.base3),
            ):
                scale = max(1e-30, float(np.max(np.abs(rhs))))
                worst_lift = max(worst_lift, float(np.max(np.abs(lhs - rhs))) / scale)
    ok = worst_norm <= 1e-12 and worst_lift <= 1e-12
    _report(
        "3 homogeneity",
        ok,
        f"norm defect {worst_norm:.1e}, skeleton defect {worst_lift:.1e} "
        f"(100 cases, eps in {epsilons})",
    )


def test_criterion_04_shuffle_identities():
    grid = TimeGrid(1.0, 32)
    worst = 0.0
    for case in range(50):
        h = _random_cm(4000 + case, grid, 2)
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
            worst = max(
                worst,
                float(np.max(np.abs(m_ij * m_i - m_iji - 2.0 * m_iij))),
                float(np.max(np.abs(m_ii * m_j - m_iij - m_iji - m_jii))),
            )
    _report(
        "4 shuffle-identities",
        worst <= 1e-10,
        f"max pointwise defect {worst:.2e} over 50 piecewise-linear paths",
    )


def test_criterion_05_proxy_restriction_of_ito_lift():
    start = time.perf_counter()
    grid = TimeGrid(1.0, 256)
    spec = GaussianSpec("bm", 2)
    n_samples, chunk = 100_000, 1024
    shifts = [_random_cm(5000 + i, grid, 2, scale=0.8) for i in range(5)]
    sums = np.zeros((5, 2, 2))
    sums_sq = np.zeros((5, 2, 2))
    done = 0
    while done < n_samples:
        c = min(chunk, n_samples - done)
        values = sample_values_batch(spec, grid, 5100, c, start=done)
        dv_base = np.diff(values, axis=1)
        for k, h in enumerate(shifts):
            shifted0 = values[:, :-1] + h.values[None, :-1]
            dv = dv_base + np.diff(h.values, axis=0)[None]
            term = np.einsum("cmi,cmj->cij", shifted0, dv)
            sums[k] += term.sum(axis=0)
            sums_sq[k] += (term**2).sum(axis=0)
        done += c
    ok = True
    worst_z = 0.0
    for k, h in enumerate(shifts):
        mean = sums[k] / n_samples
        var = sums_sq[k] / n_samples - mean**2
        se = np.sqrt(var / n_samples)
        exact = young_skeleton_lift(h).base2[-1]
        z = np.max(np.abs(mean - exact) / np.maximum(se, 1e-15))
        worst_z = max(worst_z, float(z))
        ok = ok and z <= 3.0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(
        "5 proxy-restriction",
        ok,
        f"worst |mc - young|/se = {worst_z:.2f} over 5 shifts, {elapsed:.1f}s",
    )


def test_criterion_06_hermite_chaos():
    rng = np.random.default_rng(6000)
    worst_binom = 0.0
    for k in range(11):
        for _ in range(20):
            x, y = rng.standard_normal(2)
            lhs = hermite_binomial_expand(k, x, y)
            rhs = hermite(k, x + y)
            worst_binom = max(worst_binom, abs(lhs - rhs) / max(1.0, abs(rhs)))
    # orthogonality in n = 3 via one tensor quadrature
    n = 3
    indices = [a for a in product(range(5), repeat=n) if sum(a) <= 4]
    nodes, weights = gauss_hermite_nodes(4, n)
    table = np.stack([np.stack([hermite(k, nodes[:, i]) for k in range(5)]) for i in range(n)])
    H = np.ones((len(indices), len(nodes)))
    for row, alpha in enumerate(indices):
        for i, a in enumerate(alpha):
            H[row] *= table[i, a]
    gram = H @ (weights[:, None] * H.T)
    target = np.diag([multi_index_factorial(a) for a in indices])
    worst_orth = float(np.max(np.abs(gram - target)))
    probe = chaos_norm_equivalence_probe(2, 2.0, 4.0, trials=100, dimension=2, seed=6001)
    ok = worst_binom <= 1e-9 and worst_orth <= 1e-9 and probe["violations"] == 0
    _report(
        "6 hermite-chaos",
        ok,
        f"binomial {worst_binom:.1e}, orthogonality {worst_orth:.1e}, "
        f"norm-equivalence violations {probe['violations']}/100",
    )


def test_criterion_07_cameron_martin():
    grid = TimeGrid(1.0, 32)
    spec = GaussianSpec("bm", 2)
    n_samples = 100_000
    h = _random_cm(7000, grid, 2, scale=0.5)
    half_sq = 0.5 * cm_inner(h, h)
    values = sample_values_batch(spec, grid, 7100, n_samples)
    pw = np.einsum("ki,cki->c", h.derivative_values, np.diff(values, axis=1))
    density = np.exp(pw - half_sq)
    se_d = float(np.std(density, ddof=1) / math.sqrt(n_samples))
    mean_d = float(np.mean(density))
    mgf = np.exp(pw)
    se_m = float(np.std(mgf, ddof=1) / math.sqrt(n_samples))
    mean_m = float(np.mean(mgf))
    ok = abs(mean_d - 1.0) <= 3 * se_d
    ok = ok and abs(mean_m - math.exp(half_sq)) <= 3 * se_m
    reports = reweight_check(
        REWEIGHT_FUNCTIONALS, h, spec=spec, grid=grid, n_samples=n_samples, seed=7200,
        scheme="ito", entry=(1, 2),
    ).reweight
    zs = {name: rep.z_score for name, rep in reports.items()}
    ok = ok and all(abs(z) <= 3.0 for z in zs.values())
    _report(
        "7 cameron-martin",
        ok,
        f"E[f_h]={mean_d:.4f} (3se {3 * se_d:.4f}), mgf gap "
        f"{abs(mean_m - math.exp(half_sq)):.4f} (3se {3 * se_m:.4f}), "
        f"z: {', '.join(f'{k}={v:+.2f}' for k, v in zs.items())}",
    )


def test_criterion_08_lifted_shift():
    grid = TimeGrid(1.0, 128)
    worst = 0.0
    for case in range(50):
        x = sample(GaussianSpec("bm", 2), grid, seed=8000 + case)
        h = _random_cm(8200 + case, grid, 2)
        e = ito_lift(x, level=3)
        shifted = lifted_shift(e, h)
        direct = ito_lift(SamplePath(grid, x.values + h.values), level=3)
        worst = max(
            worst,
            float(np.max(np.abs(shifted.base2 - direct.base2))),
            float(np.max(np.abs(shifted.base3 - direct.base3))),
        )
    _report(
        "8 lifted-shift",
        worst <= 1e-10,
        f"max residual {worst:.2e} over 50 random (x, h) on Ito lifts",
    )


def test_criterion_09_schilder_quantitative():
    start = time.perf_counter()
    grid = TimeGrid(1.0, 8192)
    event = EventSpec("sup-level1", 1.0)
    with pytest.warns(UserWarning, match="excluded"):
        est = empirical_rate(
            GaussianSpec("bm", 1), "ito", event, [0.5, 0.4, 0.01],
            100_000, 9000, grid=grid, oracle="reflection", chunk=256,
        )
    elapsed = time.perf_counter() - start
    oracle_small = est.oracle_values[-1]  # eps = 0.01 after descending sort
    ok = abs(oracle_small + 0.5) <= 0.01
    gaps = []
    for i in range(2):  # eps = 0.5, 0.4 carry Monte Carlo values
        gap = abs(est.scaled[i] - est.oracle_values[i])
        gaps.append(f"eps={est.epsilons[i]}: gap {gap:.4f} vs ci {3 * est.scaled_ses[i]:.4f}")
        ok = ok and gap <= 3 * est.scaled_ses[i]
    ok = ok and est.censored == [0.01] and elapsed < 120.0
    _report(
        "9 schilder",
        ok,
        f"oracle(0.01) = {oracle_small:.4f}; {'; '.join(gaps)}; {elapsed:.0f}s",
    )


def test_criterion_10_eta0_optimizer():
    classical = classical_ambient(1, "sup")
    result = eta0_estimate(classical, segments=16, restarts=8, seed=5)
    ok = 0.49 <= result.eta0_hat <= 0.53
    invariance = abs(
        eta0_quotient(result.argmin_h.scaled(2.0), classical) - result.eta0_hat
    )
    ok = ok and invariance <= 1e-10
    level2 = ambient_for_levels(1, 2, norm_kind="pvar", p=2.5)
    vals = [
        eta0_estimate(level2, segments=8, restarts=4, seed=seed).eta0_hat
        for seed in range(30, 35)
    ]
    spread = (max(vals) - min(vals)) / float(np.mean(vals))
    ok = ok and all(v > 0 for v in vals) and spread <= 0.10
    _report(
        "10 eta0",
        ok,
        f"classical {result.eta0_hat:.4f} in [0.49, 0.53], scale defect "
        f"{invariance:.1e}, level-2 spread {100 * spread:.2f}% over 5 seeds",
    )


def test_criterion_11_fernique():
    level2 = ambient_for_levels(2, 2, norm_kind="holder", alpha=0.4)
    fit = fernique_tail_fit(
        GaussianSpec("bm", 2), "stratonovich", level2, 100_000, 1100,
        grid=TimeGrid(1.0, 32),
    )
    control = fernique_tail_fit(
        GaussianSpec("bm", 1), "ito", classical_ambient(1, "terminal"),
        100_000, 40, grid=TimeGrid(1.0, 16),
    )
    ok = fit.eta_hat > 0 and abs(control.eta_hat - 0.5) <= 0.15 * 0.5
    _report(
        "11 fernique",
        ok,
        f"level-2 eta {fit.eta_hat:.4f} > 0; control eta {control.eta_hat:.4f} "
        f"vs 0.5 +- 15%",
    )


def test_criterion_12_determinism(tmp_path):
    out = tmp_path / "det.json"

    def run(threads):
        rc = cli_main(
            [
                "ldp", "--process", "bm", "--dim", "1", "--steps", "256",
                "--horizon", "1", "--event", "sup-ge:1", "--oracle",
                "reflection", "--epsilons", "0.5,0.4", "--samples", "20000",
                "--seed", "3", "--threads", str(threads), "--out", str(out),
                "--force",
            ]
        )
        assert rc == 0
        return out.read_bytes() + (tmp_path / "det.json.summary.json").read_bytes()

    first = run(1)
    second = run(1)
    third = run(4)
    sample_out = tmp_path / "s.csv"
    args = [
        "sample", "--process", "bm", "--dim", "2", "--steps", "64",
        "--horizon", "1", "--seed", "7", "--out", str(sample_out), "--force",
    ]
    assert cli_main(args) == 0
    csv_a = sample_out.read_bytes()
    assert cli_main(args) == 0
    csv_b = sample_out.read_bytes()
    ok = first == second == third and csv_a == csv_b
    _report(
        "12 determinism",
        ok,
        "byte-identical outputs across repeated runs and thread counts",
    )
