"""Finite-dimensional Wiener-Ito chaos on (R^n, standard Gaussian).

Polynomials are stored by their coefficients in the monic probabilists'
Hermite basis H_alpha(z) = prod_i h_{alpha_i}(z_i), with h_0 = 1, h_1 = x,
h_2 = x^2 - 1, ...  In this convention E[H_alpha H_beta] = delta_{alpha,beta}
alpha!, so projections that are written against unnormalized H_alpha need the
1/alpha! factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import _files
from .grids import _count, _grid_array, _real, derived_rng

MAX_HERMITE_DEGREE = 60  # above it h_k overflows at moderate x
# the norm-equivalence probe's tensor quadrature has about (k q)^dimension nodes, at most
# _PROBE_MAX_NODES: at k = 4 and dimension 3 that keeps q = 20 (551k) and refuses q = 30 (1.8M)
PROBE_MAX_DEGREE = 4
PROBE_MAX_DIMENSION = 3
_PROBE_MAX_NODES = 10**6
PROXY_MIN_SAMPLES = 1000

MultiIndex = tuple[int, ...]


def _hermite_table(k: int, x) -> np.ndarray:
    """table[j] = h_j(x) for j = 0..k, by h_{j+1} = x h_j - j h_{j-1}."""
    k = _count("Hermite degree", k, 0, MAX_HERMITE_DEGREE)
    x = np.asarray(x, dtype=float)
    table = np.ones((k + 1,) + x.shape)
    if k >= 1:
        table[1] = x
    for j in range(1, k):
        table[j + 1] = x * table[j] - j * table[j - 1]
    return table


def hermite(k: int, x) -> np.ndarray | float:
    """Monic probabilists' Hermite polynomial h_k(x); h_k' = k h_{k-1}."""
    h = _hermite_table(k, x)[k]
    return h if h.ndim else float(h)


def hermite_binomial_expand(k: int, x: float, y: float) -> float:
    """sum_l binom(k,l) h_l(x) y^(k-l); equals h_k(x+y)."""
    h = _hermite_table(k, x).tolist()
    return float(sum(math.comb(k, l) * h[l] * y ** (k - l) for l in range(k + 1)))


def multi_index_degree(alpha: MultiIndex) -> int:
    return sum(alpha)


def multi_index_factorial(alpha: MultiIndex) -> int:
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


@dataclass
class ChaosPolynomial:
    """Finite linear combination sum_alpha c_alpha H_alpha on R^dimension."""

    dimension: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        self.dimension = _count("dimension", self.dimension)
        cleaned = {}
        for alpha, c in self.coeffs.items():
            alpha = tuple(_count("multi-index entry", a, 0) for a in alpha)
            if len(alpha) != self.dimension:
                raise ValueError(
                    f"multi-index {alpha} has length {len(alpha)}, expected {self.dimension}"
                )
            c = float(_real(f"coefficient of {alpha}", c))
            if not math.isfinite(c):
                raise ValueError(f"multi-index {alpha} has non-finite coefficient {c}")
            if c != 0.0:
                cleaned[alpha] = c
        self.coeffs = cleaned

    def degree(self) -> int:
        return max((multi_index_degree(a) for a in self.coeffs), default=0)

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        """Evaluate at points z of shape (..., dimension)."""
        z = np.asarray(z, dtype=float)
        if z.shape[-1] != self.dimension:
            raise ValueError(f"points have dimension {z.shape[-1]}, expected {self.dimension}")
        # table[k, ..., i] = h_k(z_i)
        table = _hermite_table(self.degree(), z)
        out = np.zeros(z.shape[:-1])
        for alpha, c in self.coeffs.items():
            term = np.full(z.shape[:-1], c)
            for i, a in enumerate(alpha):
                if a:
                    term = term * table[a, ..., i]
            out += term
        return out

    def __add__(self, other: "ChaosPolynomial") -> "ChaosPolynomial":
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        coeffs = dict(self.coeffs)
        for alpha, c in other.coeffs.items():
            coeffs[alpha] = coeffs.get(alpha, 0.0) + c
        return ChaosPolynomial(self.dimension, coeffs)

    def scaled(self, c: float) -> "ChaosPolynomial":
        c = _real("c", c)
        return ChaosPolynomial(self.dimension, {a: c * v for a, v in self.coeffs.items()})


def chaos_project(psi: ChaosPolynomial, k: int) -> ChaosPolynomial:
    """Projection onto the homogeneous chaos of degree k (keep |alpha| = k)."""
    k = _count("k", k, 0)
    return ChaosPolynomial(
        psi.dimension, {a: c for a, c in psi.coeffs.items() if multi_index_degree(a) == k}
    )


@dataclass
class GradedChaos:
    """Per-symbol chaos polynomials with a degree budget per symbol.

    `degrees` maps symbol name to its grading [tau]; each component may only
    carry multi-indices of degree <= [tau].
    """

    dimension: int
    components: dict
    degrees: dict

    def __post_init__(self):
        self.degrees = {name: _count(f"degree of {name!r}", k, 0) for name, k in self.degrees.items()}
        for name, psi in self.components.items():
            if name not in self.degrees:
                raise ValueError(f"symbol {name!r} has no degree assigned")
            if psi.dimension != self.dimension:
                raise ValueError(f"component {name!r} lives on R^{psi.dimension}")
            if psi.degree() > self.degrees[name]:
                raise ValueError(
                    f"component {name!r} has chaos degree {psi.degree()} "
                    f"above its grading {self.degrees[name]}"
                )


def proxy_restriction_exact(graded: GradedChaos, h: np.ndarray) -> dict:
    """Closed-form proxy-restriction at h.

    For each symbol tau, E[(Pi_{[tau]} Psi_tau)(Z + h)] collapses to the
    top-degree coefficients paired with monomials of h:
    sum_{|alpha| = [tau]} c_alpha prod_i h_i^{alpha_i}, because shifted Hermite
    polynomials of positive degree are centered except for their monomial top
    part.
    """
    h = _grid_array("h", h, (graded.dimension,))
    out = {}
    for name, psi in graded.components.items():
        k = graded.degrees[name]
        total = 0.0
        for alpha, c in psi.coeffs.items():
            if multi_index_degree(alpha) == k:
                total += c * float(np.prod(h**np.asarray(alpha)))
        out[name] = total
    return out


def proxy_restriction_mc(
    graded: GradedChaos, h: np.ndarray, n_samples: int, seed: int
) -> dict:
    """Monte Carlo proxy-restriction: averages (Pi_{[tau]} Psi_tau)(Z + h).

    Returns {symbol: (estimate, standard_error)}.
    """
    n_samples = _count("n_samples", n_samples, PROXY_MIN_SAMPLES)
    h = _grid_array("h", h, (graded.dimension,))
    tops = {name: chaos_project(psi, graded.degrees[name]) for name, psi in graded.components.items()}
    # refuse a degree the Hermite table cannot reach before drawing a sample
    for top in tops.values():
        _count("Hermite degree", top.degree(), 0, MAX_HERMITE_DEGREE)
    rng = derived_rng(seed)
    z = rng.standard_normal((n_samples, graded.dimension)) + h
    out = {}
    for name, top in tops.items():
        vals = top.evaluate(z)
        est = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(n_samples))
        out[name] = (est, se)
    return out


# ---------------------------------------------------------------------------
# Gauss-Hermite quadrature (probabilists' weight)
# ---------------------------------------------------------------------------


def _quadrature_order(max_degree: int) -> int:
    """Points per dimension of `gauss_hermite_nodes`'s quadrature."""
    return (2 * max_degree + 4 + 1) // 2


def gauss_hermite_nodes(max_degree: int, dimension: int):
    """Tensorized nodes/weights exact for polynomials up to max_degree.

    Per-dimension order follows ceil((2*max_degree + 4)/2) so products of two
    basis polynomials at the working degree stay inside the exactness range.
    """
    max_degree, dimension = _count("max_degree", max_degree, 0), _count("dimension", dimension)
    x, w = np.polynomial.hermite_e.hermegauss(_quadrature_order(max_degree))
    w = w / math.sqrt(2.0 * math.pi)
    nodes = np.array(list(product(x, repeat=dimension)))
    weights = np.prod(np.array(list(product(w, repeat=dimension))), axis=1)
    return nodes, weights


def expectation_quadrature(fn, dimension: int, max_degree: int) -> float:
    """E[fn(Z)] for Z standard Gaussian on R^dimension via tensor quadrature."""
    nodes, weights = gauss_hermite_nodes(max_degree, dimension)
    return float(np.dot(weights, fn(nodes)))


def chaos_norm_equivalence_probe(
    k: int,
    p: float,
    q: float,
    trials: int,
    dimension: int = 2,
    seed: int = 0,
) -> dict:
    """Check ||psi||_p <= ||psi||_q <= ((q-1)/(p-1))^(k/2) ||psi||_p.

    Draws random homogeneous degree-k polynomials and evaluates both
    Bochner-Lebesgue norms by Gauss-Hermite quadrature (exact for even
    integer p, q; quadrature-accurate otherwise).  Returns a report with the
    worst ratios and any violations.
    """
    p, q = _real("p", p), _real("q", q)
    if not 1 < p <= q < math.inf:
        raise ValueError(f"need 1 < p <= q < inf, got p={p}, q={q}")
    k, trials = _count("k", k, 0, PROBE_MAX_DEGREE), _count("trials", trials)
    dimension = _count("dimension", dimension, 1, PROBE_MAX_DIMENSION)
    max_deg = int(math.ceil(k * q / 2.0) * 2)
    count = _quadrature_order(max_deg) ** dimension
    if count > _PROBE_MAX_NODES:
        raise ValueError(
            f"q={q} at degree {k} and dimension {dimension} needs {count} quadrature nodes, "
            f"above the bound of {_PROBE_MAX_NODES}"
        )
    rng = derived_rng(seed)
    bound = ((q - 1.0) / (p - 1.0)) ** (k / 2.0)
    nodes, weights = gauss_hermite_nodes(max_deg, dimension)
    indices = [
        alpha
        for alpha in product(range(k + 1), repeat=dimension)
        if sum(alpha) == k
    ]
    worst_upper = 0.0
    violations = 0
    ratios = []
    for _ in range(trials):
        coeffs = {alpha: rng.standard_normal() for alpha in indices}
        psi = ChaosPolynomial(dimension, coeffs)
        vals = psi.evaluate(nodes)
        norm_p = float(np.dot(weights, np.abs(vals) ** p)) ** (1.0 / p)
        norm_q = float(np.dot(weights, np.abs(vals) ** q)) ** (1.0 / q)
        ratio = norm_q / norm_p if norm_p > 0 else 1.0
        ratios.append(ratio)
        worst_upper = max(worst_upper, ratio)
        if ratio > bound * (1 + 1e-9) or norm_p > norm_q * (1 + 1e-9):
            violations += 1
    return {
        "k": k,
        "p": p,
        "q": q,
        "trials": trials,
        "bound": bound,
        "worst_ratio": worst_upper,
        "violations": violations,
        "ratios": ratios,
    }


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

CHAOS_FORMAT_VERSION = "chaos/v1"


def _terms_to_list(psi: ChaosPolynomial, symbol: str | None) -> list:
    terms = []
    for alpha in sorted(psi.coeffs):
        pairs = [[i + 1, a] for i, a in enumerate(alpha) if a > 0]
        terms.append(
            {"symbol": symbol, "multi_index": pairs, "coefficient": psi.coeffs[alpha]}
        )
    return terms


def _terms_from_list(terms: list, dimension: int) -> dict:
    coeffs: dict[MultiIndex, float] = {}
    for term in terms:
        alpha = [0] * dimension
        for coord, power in term["multi_index"]:
            alpha[_count("coordinate", coord, 1, dimension) - 1] = _count("power", power, 0)
        key = tuple(alpha)
        coeffs[key] = coeffs.get(key, 0.0) + _real("coefficient", term["coefficient"])
    return coeffs


def chaos_to_document(obj: "ChaosPolynomial | GradedChaos") -> dict:
    doc = {"format_version": CHAOS_FORMAT_VERSION}
    if isinstance(obj, ChaosPolynomial):
        doc["dimension"] = obj.dimension
        doc["terms"] = _terms_to_list(obj, None)
        return doc
    doc["dimension"] = obj.dimension
    doc["degrees"] = dict(sorted(obj.degrees.items()))
    terms: list = []
    for name in sorted(obj.components):
        terms.extend(_terms_to_list(obj.components[name], name))
    doc["terms"] = terms
    return doc


def chaos_from_document(doc: dict) -> "ChaosPolynomial | GradedChaos":
    """Rebuild a chaos object; a missing or mistyped field raises ValueError."""
    _files.check_format(doc, CHAOS_FORMAT_VERSION)
    with _files.document_fields("chaos document"):
        dim = _count("dimension", doc["dimension"])
        if "degrees" not in doc:
            return ChaosPolynomial(dim, _terms_from_list(doc["terms"], dim))
        by_symbol: dict[str, list] = {}
        for term in doc["terms"]:
            by_symbol.setdefault(term["symbol"], []).append(term)
        components = {
            name: ChaosPolynomial(dim, _terms_from_list(terms, dim))
            for name, terms in by_symbol.items()
        }
        degrees = dict(doc["degrees"])
    for name in degrees:
        components.setdefault(name, ChaosPolynomial(dim, {}))
    return GradedChaos(dim, components, degrees)
