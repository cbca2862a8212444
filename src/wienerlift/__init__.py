"""Rough-path lifts of Gaussian processes on uniform grids.

The package provides samplers for Brownian and fractional Brownian paths,
their level-2/3 enhancements (Ito, Stratonovich, Young), graded path-space
norms, finite-dimensional Wiener-Ito chaos utilities,
Cameron-Martin reweighting, and Monte Carlo estimators for small-noise
rates and Gaussian tail constants.
"""

from .grids import (
    TimeGrid,
    SamplePath,
    CameronMartinPath,
    GaussianSpec,
    sample,
    sample_values_batch,
    piecewise_linear,
    cm_norm,
    cm_inner,
    paley_wiener,
    brownian_onb,
    write_path_csv,
    read_path_csv,
)
from .seminorms import (
    SymbolNorm,
    SymbolSpec,
    AmbientSpec,
    ambient_for_levels,
    classical_ambient,
    p_variation_1d,
    holder_norm_1d,
    homogeneous_norm,
    banach_norm,
)
from .lifts import (
    EnhancedPath,
    ito_lift,
    stratonovich_lift,
    young_skeleton_lift,
    chen_residual,
    lifted_shift,
    dilate_enhanced,
    to_graded,
)
from .chaos import (
    hermite,
    hermite_binomial_expand,
    ChaosPolynomial,
    GradedChaos,
    chaos_project,
    proxy_restriction_exact,
    proxy_restriction_mc,
    chaos_norm_equivalence_probe,
)
from .girsanov import (
    CmDensityEval,
    shift_path,
    cm_log_density,
    reweight_check,
)
from .asymptotics import (
    EventSpec,
    RateEstimate,
    Eta0Result,
    TailFit,
    empirical_rate,
    eta0_estimate,
    fernique_tail_fit,
)

__version__ = "0.1.0"
