import math
from itertools import product

import numpy as np
import pytest

from wienerlift.chaos import (
    ChaosPolynomial,
    GradedChaos,
    chaos_from_document,
    chaos_norm_equivalence_probe,
    chaos_project,
    chaos_to_document,
    expectation_quadrature,
    hermite,
    hermite_binomial_expand,
    multi_index_factorial,
    proxy_restriction_exact,
    proxy_restriction_mc,
)


def test_hermite_low_degrees():
    xs = np.linspace(-3, 3, 11)
    assert np.allclose(hermite(0, xs), 1.0)
    assert np.allclose(hermite(1, xs), xs)
    assert np.allclose(hermite(2, xs), xs**2 - 1.0)
    assert hermite(3, 2.0) == pytest.approx(2.0)  # 8 - 6


def test_hermite_degree_guard():
    assert np.isfinite(hermite(60, np.linspace(-3, 3, 7))).all()
    # one guard serves the single polynomial, the binomial expansion and a polynomial's evaluation
    with pytest.raises(ValueError, match="^Hermite degree must be <= 60, got 61$") as single:
        hermite(61, 0.0)
    with pytest.raises(ValueError) as expanded:
        hermite_binomial_expand(61, 0.3, 0.7)
    with pytest.raises(ValueError) as evaluated:
        ChaosPolynomial(1, {(61,): 1.0}).evaluate(np.zeros((3, 1)))
    assert str(single.value) == str(expanded.value) == str(evaluated.value)
    with pytest.raises(ValueError, match="^Hermite degree must be >= 0, got -1$"):
        hermite(-1, 0.0)
    # a degree is an integer: True once indexed the table as a mask and returned [[1., 0.5]]
    for call in (lambda: hermite(True, 0.5), lambda: hermite_binomial_expand(True, 0.5, 0.1)):
        with pytest.raises(ValueError, match="^Hermite degree must be an integer, got True$"):
            call()
    with pytest.raises(ValueError, match="^Hermite degree must be an integer, got 2.5$"):
        hermite(2.5, 0.5)
    assert hermite(np.int64(3), 2.0) == hermite(3, 2.0)


def test_hermite_orthogonality_by_quadrature():
    for j in range(9):
        for k in range(9):
            val = expectation_quadrature(
                lambda z, j=j, k=k: hermite(j, z[:, 0]) * hermite(k, z[:, 0]), 1, 8
            )
            target = math.factorial(k) if j == k else 0.0
            assert abs(val - target) <= 1e-9 * max(1.0, target)
    # the quadrature's degree and dimension are integers: dimension 0 once gave one empty node, 2.5 a raw TypeError
    for max_degree, dimension, message in ((2, 0, "dimension must be >= 1, got 0"),
                                           (2.5, 1, "max_degree must be an integer, got 2.5"),
                                           (2, True, "dimension must be an integer, got True")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            expectation_quadrature(lambda z: z[:, 0], dimension, max_degree)


def test_binomial_expansion():
    assert hermite_binomial_expand(0, 0.3, 0.7) == pytest.approx(1.0)
    # k = 2: (x^2 - 1) + 2xy + y^2 = (x+y)^2 - 1
    x, y = 1.3, -0.4
    assert hermite_binomial_expand(2, x, y) == pytest.approx((x + y) ** 2 - 1.0, rel=1e-14)
    rng = np.random.default_rng(0)
    for k in range(11):
        x, y = rng.standard_normal(2)
        lhs = hermite_binomial_expand(k, x, y)
        rhs = hermite(k, x + y)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def _random_poly(rng, dimension, max_degree):
    coeffs = {}
    for alpha in product(range(max_degree + 1), repeat=dimension):
        if sum(alpha) <= max_degree and rng.random() < 0.6:
            coeffs[alpha] = rng.standard_normal()
    return ChaosPolynomial(dimension, coeffs)


def test_projection_idempotent_and_sums_to_identity():
    rng = np.random.default_rng(1)
    psi = _random_poly(rng, 3, 4)
    for k in range(5):
        pk = chaos_project(psi, k)
        again = chaos_project(pk, k)
        assert pk.coeffs == again.coeffs
    total = ChaosPolynomial(3, {})
    for k in range(5):
        total = total + chaos_project(psi, k)
    assert total.coeffs == psi.coeffs


def test_projection_of_coordinates_and_products():
    z1 = ChaosPolynomial(2, {(1, 0): 1.0})
    assert chaos_project(z1, 1).coeffs == {(1, 0): 1.0}
    prod = ChaosPolynomial(2, {(1, 1): 1.0})  # z1 z2 = H_(1,1)
    assert chaos_project(prod, 2).coeffs == {(1, 1): 1.0}
    assert chaos_project(prod, 0).coeffs == {}


def test_evaluate_matches_monomials_in_the_hermite_basis():
    # z^2 = h_2 + 1 and z^3 = h_3 + 3 h_1, so z1^3 z2^2 = (H_3 + 3 H_1)(H_2 + 1)
    expansions = {
        (2, 0): {(2, 0): 1.0, (0, 0): 1.0},
        (1, 1): {(1, 1): 1.0},
        (3, 2): {(3, 2): 1.0, (3, 0): 1.0, (1, 2): 3.0, (1, 0): 3.0},
    }
    z = np.random.default_rng(2).standard_normal((50, 2))
    for powers, coeffs in expansions.items():
        psi = ChaosPolynomial(2, coeffs)
        direct = z[:, 0] ** powers[0] * z[:, 1] ** powers[1]
        assert np.max(np.abs(psi.evaluate(z) - direct)) <= 1e-10


def test_multivariate_hermite_orthogonality_by_quadrature():
    # E[H_alpha H_beta] = delta_{alpha,beta} alpha!
    indices = [a for a in product(range(4), repeat=2) if sum(a) <= 3]
    for alpha in indices:
        h_alpha = ChaosPolynomial(2, {alpha: 1.0})
        for beta in indices:
            h_beta = ChaosPolynomial(2, {beta: 1.0})
            val = expectation_quadrature(lambda z: h_alpha.evaluate(z) * h_beta.evaluate(z), 2, 3)
            target = float(multi_index_factorial(alpha)) if alpha == beta else 0.0
            assert abs(val - target) <= 1e-9 * max(1.0, target)


def _graded_example(rng, dimension=4):
    return GradedChaos(
        dimension,
        components={
            "a": _random_poly(rng, dimension, 1),
            "b": _random_poly(rng, dimension, 2),
        },
        degrees={"a": 1, "b": 2},
    )


def test_proxy_exact_on_top_degree_hermite():
    # proxy of H_alpha with |alpha| = degree is the monomial h^alpha
    psi = ChaosPolynomial(3, {(1, 2, 0): 1.0})
    graded = GradedChaos(3, components={"s": psi}, degrees={"s": 3})
    h = np.array([0.5, -1.5, 2.0])
    out = proxy_restriction_exact(graded, h)
    assert out["s"] == pytest.approx(0.5 * (-1.5) ** 2, rel=1e-14)


def test_proxy_of_low_degree_component_vanishes():
    psi = ChaosPolynomial(2, {(1, 0): 3.0, (0, 0): 1.0})  # degree <= 1 only
    graded = GradedChaos(2, components={"s": psi}, degrees={"s": 2})
    for h in (np.zeros(2), np.array([1.0, -2.0])):
        assert proxy_restriction_exact(graded, h)["s"] == 0.0


def test_proxy_exact_matches_mc():
    rng = np.random.default_rng(3)
    graded = _graded_example(rng)
    h = np.array([0.3, -0.2, 0.5, 0.1])
    exact = proxy_restriction_exact(graded, h)
    mc = proxy_restriction_mc(graded, h, 200_000, seed=4)
    for name in exact:
        est, se = mc[name]
        assert abs(est - exact[name]) <= 3 * max(se, 1e-12)


def test_proxy_mc_centered_at_zero_shift():
    psi = ChaosPolynomial(2, {(1, 1): 2.0})
    graded = GradedChaos(2, components={"s": psi}, degrees={"s": 2})
    est, se = proxy_restriction_mc(graded, np.zeros(2), 50_000, seed=5)["s"]
    assert abs(est) <= 3 * se
    linear = GradedChaos(2, components={"t": ChaosPolynomial(2, {(1, 0): 1.0})}, degrees={"t": 1})
    est, se = proxy_restriction_mc(linear, np.array([0.7, 0.0]), 50_000, seed=6)["t"]
    assert abs(est - 0.7) <= 3 * se


def test_proxy_homogeneity_and_linearity():
    rng = np.random.default_rng(7)
    graded = _graded_example(rng)
    h = rng.standard_normal(4)
    base = proxy_restriction_exact(graded, h)
    for eps in (0.5, 2.0, 3.0):
        scaled = proxy_restriction_exact(graded, eps * h)
        for name, deg in graded.degrees.items():
            assert scaled[name] == pytest.approx(eps**deg * base[name], rel=1e-12, abs=1e-14)
    # linearity in the polynomial argument
    other = _graded_example(np.random.default_rng(8))
    combo = GradedChaos(
        4,
        components={
            name: graded.components[name].scaled(2.0) + other.components[name]
            for name in ("a", "b")
        },
        degrees={"a": 1, "b": 2},
    )
    lhs = proxy_restriction_exact(combo, h)
    rhs_a = proxy_restriction_exact(graded, h)
    rhs_b = proxy_restriction_exact(other, h)
    for name in ("a", "b"):
        assert lhs[name] == pytest.approx(2.0 * rhs_a[name] + rhs_b[name], rel=1e-12)


def test_proxy_lifting_property():
    # degree-1 symbols carrying the coordinate functionals return h itself
    n = 3
    comps = {f"e{i}": ChaosPolynomial(n, {tuple(int(j == i) for j in range(n)): 1.0}) for i in range(n)}
    graded = GradedChaos(n, components=comps, degrees={f"e{i}": 1 for i in range(n)})
    h = np.array([0.25, -1.0, 2.5])
    out = proxy_restriction_exact(graded, h)
    for i in range(n):
        assert out[f"e{i}"] == pytest.approx(h[i], rel=1e-14)


def test_norm_equivalence_probe():
    # ||z1||_4 / ||z1||_2 = 3^(1/4) <= sqrt(3)
    report = chaos_norm_equivalence_probe(1, 2.0, 4.0, trials=1, dimension=1, seed=0)
    assert report["bound"] == pytest.approx(math.sqrt(3.0))
    assert report["worst_ratio"] == pytest.approx(3.0**0.25, rel=1e-8)
    assert report["violations"] == 0
    report = chaos_norm_equivalence_probe(2, 2.0, 4.0, trials=100, dimension=2, seed=1)
    assert report["violations"] == 0
    same = chaos_norm_equivalence_probe(2, 2.0, 2.0, trials=10, dimension=2, seed=2)
    assert same["worst_ratio"] == pytest.approx(1.0, rel=1e-12)


def test_norm_equivalence_probe_validation(monkeypatch):
    import wienerlift.chaos as chaos_mod

    with pytest.raises(ValueError):
        chaos_norm_equivalence_probe(5, 2.0, 4.0, trials=1)
    with pytest.raises(ValueError):
        chaos_norm_equivalence_probe(2, 1.0, 4.0, trials=1)
    with pytest.raises(ValueError):
        chaos_norm_equivalence_probe(2, 2.0, 4.0, trials=1, dimension=4)
    for q in (math.inf, math.nan):
        with pytest.raises(ValueError, match="1 < p <= q < inf"):
            chaos_norm_equivalence_probe(2, 2.0, q, trials=1)
    for p, q, name in (("2", 4.0, "p"), (2.0, True, "q"), (0.5, "4", "q")):  # a string once raised TypeError
        with pytest.raises(ValueError, match=f"^{name} must be a real number"):
            chaos_norm_equivalence_probe(2, p, q, trials=3)
    # about (k q)^dimension nodes: q = 30 needs 122^3 at k = 4, dimension 3, refused before any is built
    monkeypatch.setattr(chaos_mod, "gauss_hermite_nodes", lambda *args: pytest.fail("built the nodes"))
    with pytest.raises(ValueError, match="needs 1815848 quadrature nodes, above the bound of 1000000"):
        chaos_norm_equivalence_probe(4, 2.0, 30.0, trials=1, dimension=3)


@pytest.mark.parametrize("proxy", [proxy_restriction_exact, lambda g, h: proxy_restriction_mc(g, h, 1000, 1)])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_proxy_refuses_a_non_finite_shift(proxy, bad):
    # a NaN h once gave a NaN restriction with no error
    graded = GradedChaos(1, {"a": ChaosPolynomial(1, {(1,): 1.0})}, {"a": 1})
    with pytest.raises(ValueError, match="^h contains non-finite entries$"):
        proxy(graded, [bad])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_polynomial_refuses_a_non_finite_coefficient(bad):
    with pytest.raises(ValueError, match=r"multi-index \(1, 0\) has non-finite coefficient"):
        ChaosPolynomial(2, {(0, 0): 1.0, (1, 0): bad})


@pytest.mark.parametrize("bad", ["1.5", True, None])
def test_polynomial_refuses_a_coefficient_that_is_not_a_number(bad):
    with pytest.raises(ValueError, match=r"coefficient of \(1, 0\) must be a real number"):
        ChaosPolynomial(2, {(0, 0): 1.0, (1, 0): bad})
    # nor is a scaling factor: True once returned the polynomial unchanged, "1.5" once raised a raw TypeError
    with pytest.raises(ValueError, match=f"^c must be a real number, got {bad!r}$"):
        ChaosPolynomial(2, {(1, 0): 1.0}).scaled(bad)


def test_chaos_serialization_round_trip():
    rng = np.random.default_rng(12)
    psi = _random_poly(rng, 3, 3)
    doc = chaos_to_document(psi)
    back = chaos_from_document(doc)
    assert isinstance(back, ChaosPolynomial)
    assert back.coeffs == psi.coeffs
    graded = _graded_example(rng, dimension=3)
    doc = chaos_to_document(graded)
    back = chaos_from_document(doc)
    assert isinstance(back, GradedChaos)
    assert back.degrees == graded.degrees
    for name, comp in graded.components.items():
        assert back.components[name].coeffs == comp.coeffs


def test_graded_degree_budget_enforced():
    with pytest.raises(ValueError, match="grading"):
        GradedChaos(
            2,
            components={"s": ChaosPolynomial(2, {(2, 1): 1.0})},
            degrees={"s": 2},
        )


def test_multi_index_factorial():
    assert multi_index_factorial((2, 0, 3)) == 12
