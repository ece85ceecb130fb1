"""Exact-arithmetic verification of nonnegative k-subset sum bounds.

Everything here computes in Python ints and fractions.Fraction; no floats
enter any verification path. The package offers counting engines over
zero-sum weight vectors, association-scheme identity checks, instance
verifiers for the bound lemmas, and an exhaustive pattern search, plus a
CLI wrapping all of it.
"""

from .combinat import KSubset, binomial, rank_colex, unrank_colex
from .counting import (
    CountReport,
    MultiplicityPattern,
    Restriction,
    count_nonnegative,
    count_nonnegative_dp,
    family_size,
    nonnegative_family,
    overlap_sums,
    restricted_sum,
    star_family_size,
)
from .lemmas import (
    PartitionTrial,
    simulate_partition,
    single_overlap_coefficient,
    verify_contains_top_bound,
    verify_disjoint_bound,
    verify_intersecting_bound,
    verify_mms_bound,
    verify_scalar_inequalities,
    verify_second_block_bound,
)
from .report import Claim, LemmaReport, Precondition
from .scheme import (
    StructureMatrix,
    bose_mesner_eigenvalue,
    build_structure_matrix,
    verify_eigenvector,
    verify_eigenvector_all,
    verify_factorization,
    verify_wilson_identities,
)
from .search import SearchReport, SearchSpace, find_counterexample, sweep_patterns
from .weights import (
    WeightVector,
    gen_random_zero_sum,
    gen_star,
    load_weights,
    normalize,
    subset_sums,
)

__version__ = "0.1.0"

__all__ = [
    "Claim",
    "CountReport",
    "KSubset",
    "LemmaReport",
    "MultiplicityPattern",
    "PartitionTrial",
    "Precondition",
    "Restriction",
    "SearchReport",
    "SearchSpace",
    "StructureMatrix",
    "WeightVector",
    "binomial",
    "bose_mesner_eigenvalue",
    "build_structure_matrix",
    "count_nonnegative",
    "count_nonnegative_dp",
    "family_size",
    "find_counterexample",
    "gen_random_zero_sum",
    "gen_star",
    "load_weights",
    "nonnegative_family",
    "normalize",
    "overlap_sums",
    "rank_colex",
    "restricted_sum",
    "simulate_partition",
    "single_overlap_coefficient",
    "star_family_size",
    "subset_sums",
    "sweep_patterns",
    "unrank_colex",
    "verify_contains_top_bound",
    "verify_disjoint_bound",
    "verify_eigenvector",
    "verify_eigenvector_all",
    "verify_factorization",
    "verify_intersecting_bound",
    "verify_mms_bound",
    "verify_scalar_inequalities",
    "verify_second_block_bound",
    "verify_wilson_identities",
    "__version__",
]
