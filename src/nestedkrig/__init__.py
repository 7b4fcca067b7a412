"""Nested Kriging: Gaussian-process regression by optimal aggregation of sub-models.

Sub-models fitted on subsets of the observations are merged through their
full cross-covariance matrix into the best linear unbiased combination,
possibly recursively along a tree.  The package also ships the exact full
model, the classic expert-fusion baselines, leave-one-out parameter
estimation and the benchmark harnesses comparing all of them.
"""

from .aggregation import (AggregatedPrediction, AggregatedProcess, aggregate,
                          aggregated_posterior, diagnostics_vs_full)
from .data import (CsvSchema, Dataset, Partition, load_csv, partition_consecutive,
                   partition_kmeans, partition_random)
from .estimation import (EstimationSettings, LooRecord, estimate,
                         estimate_sigma2, grid_profile_loglik, loo_criterion,
                         loo_predict, sgd_fit)
from .gpcore import FullModel, SubModelBank, sample_conditional, sample_paths
from .kernels import KernelSpec, cross_matrix
from .linalg import SpdFactor, factor_spd, pseudo_solve, solve
from .metrics import criteria, run_consistency_demo
from .tree import (AggregationTree, complexity_estimate, nested_predict_batch,
                   plan_tree)

__version__ = "0.1.0"

__all__ = [
    "AggregatedPrediction", "AggregatedProcess", "AggregationTree",
    "CsvSchema", "Dataset", "EstimationSettings", "FullModel", "KernelSpec",
    "LooRecord", "Partition", "SpdFactor", "SubModelBank", "aggregate",
    "aggregated_posterior", "complexity_estimate", "criteria", "cross_matrix",
    "diagnostics_vs_full", "estimate", "estimate_sigma2", "factor_spd",
    "grid_profile_loglik", "load_csv", "loo_criterion", "loo_predict",
    "nested_predict_batch", "partition_consecutive", "partition_kmeans",
    "partition_random", "pseudo_solve", "run_consistency_demo",
    "sample_conditional", "sample_paths", "sgd_fit",
    "solve", "plan_tree",
]
