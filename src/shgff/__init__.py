"""Form-factor bootstrap for an integrable 1+1d model with a single massive
particle species, plus numerical truncated k-point correlation functions via
shifted-contour multidimensional quadrature."""

from .combin import (
    CompositionVector, PoleChain, Slot, blocks, cauchy_decomposition,
    chain_decomposition, enumerate_compositions, inverted_pairs,
    iter_partitions, omega_ba_t, s_product, signature,
)
from .correlator import (
    CorrelatorRequest, CorrelatorResult, GaussianSmearing, SpacetimePoint, check_region,
    compute_I_n, compute_W_r, compute_W_r_mixed, smeared_correlator,
)
from .formfactor import (
    AxiomReport, ExponentialPn, FixtureExponentialLikeProvider,
    FixtureUnitProvider, FormFactorProvider, KTransformProvider, OperatorSpec,
    k_transform, load_operator, numerical_residue, verify_axioms,
)
from .kernelalg import (
    FormalKernelSum, FormalTerm, expand_direct, expand_dual, expand_mixed,
    jump_terms, pair_numeric, pair_numeric_with_tail, term_count,
)
from .ladder import ContourLadder, default_ladder, eta_max
from .specfun import (
    ModelParams, SpecialFunctionError, log_barnes_g, min_form_factor,
    minkowski_dot, momentum, s_matrix, varpi,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport", "CompositionVector", "ContourLadder", "CorrelatorRequest",
    "CorrelatorResult", "ExponentialPn", "FixtureExponentialLikeProvider",
    "FixtureUnitProvider", "FormFactorProvider", "FormalKernelSum",
    "FormalTerm", "GaussianSmearing", "KTransformProvider", "ModelParams",
    "OperatorSpec", "PoleChain", "Slot", "SpacetimePoint",
    "SpecialFunctionError", "blocks",
    "cauchy_decomposition", "chain_decomposition", "check_region",
    "compute_I_n", "compute_W_r", "compute_W_r_mixed",
    "default_ladder", "enumerate_compositions", "eta_max", "expand_direct",
    "expand_dual", "expand_mixed", "inverted_pairs", "iter_partitions",
    "jump_terms", "k_transform", "load_operator", "log_barnes_g",
    "min_form_factor", "minkowski_dot", "momentum", "numerical_residue",
    "omega_ba_t", "pair_numeric", "pair_numeric_with_tail",
    "s_matrix", "s_product", "signature", "smeared_correlator", "term_count",
    "varpi", "verify_axioms",
]
