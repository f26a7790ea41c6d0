"""Treatment personalization from observational data via recursive partitioning.

Modules log to the "perstrees" logger, which is silent until the
application configures logging. DEBUG records count the nearest-neighbour
queries that the screen left to exact rescoring (kNN prediction and
greedy submatching), give each exact solve's search counts, and give each
experiment cell's fit and evaluate seconds.
"""

import logging

from .baselines import (
    KnnRegressor,
    OlsRegressor,
    OneVsAllPolicy,
    OneVsOnePolicy,
    RcPolicy,
    fit_1v1,
    fit_1va,
    fit_rc,
    make_cate,
    make_regressor,
)
from .data import (
    Dataset,
    Feature,
    FeatureSchema,
    SyntheticSpec,
    bootstrap,
    confounded_propensity,
    generate_synthetic,
    load_csv,
    save_csv,
    split,
)
from .experiment import (
    ALGORITHMS,
    ExperimentConfig,
    experiment_config_from_doc,
    fit_algorithm,
    run_experiment,
    synthetic_spec_from_doc,
)
from .forest import PersonalizationForest, PfConfig, fit_pf
from .model_io import load_model, save_model
from .opt import (
    CutMenu,
    OptConfig,
    OptResult,
    TreeAssignment,
    build_cut_menu,
    build_mip,
    check_solution,
    evaluate_assignment,
    export_mps,
    solve_exact,
    warm_start_from_pt,
)
from .risk import (
    FunctionPolicy,
    Partition,
    PolicyScore,
    impurity,
    ipw_risk,
    oracle_metrics,
    partition_risk_estimate,
    prescriptions,
)
from .submatch import (
    MatchedTestSet,
    Metric,
    greedy_submatch,
    load_matched_csv,
    mahalanobis_metric,
    matched_metrics,
    matched_risk,
    optimal_submatch,
    p1_hat,
    p2_hat,
    save_matched_csv,
)
from .tree import PersonalizationTree, PtConfig, best_split, fit_pt

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "ALGORITHMS",
    "CutMenu",
    "Dataset",
    "ExperimentConfig",
    "Feature",
    "FeatureSchema",
    "FunctionPolicy",
    "KnnRegressor",
    "MatchedTestSet",
    "Metric",
    "OlsRegressor",
    "OneVsAllPolicy",
    "OneVsOnePolicy",
    "OptConfig",
    "OptResult",
    "Partition",
    "PersonalizationForest",
    "PersonalizationTree",
    "PfConfig",
    "PolicyScore",
    "PtConfig",
    "RcPolicy",
    "SyntheticSpec",
    "TreeAssignment",
    "best_split",
    "bootstrap",
    "build_cut_menu",
    "build_mip",
    "check_solution",
    "confounded_propensity",
    "evaluate_assignment",
    "experiment_config_from_doc",
    "export_mps",
    "fit_1v1",
    "fit_1va",
    "fit_algorithm",
    "fit_pf",
    "fit_pt",
    "fit_rc",
    "generate_synthetic",
    "greedy_submatch",
    "impurity",
    "ipw_risk",
    "load_csv",
    "load_matched_csv",
    "load_model",
    "mahalanobis_metric",
    "make_cate",
    "make_regressor",
    "matched_metrics",
    "matched_risk",
    "optimal_submatch",
    "oracle_metrics",
    "p1_hat",
    "p2_hat",
    "partition_risk_estimate",
    "prescriptions",
    "run_experiment",
    "save_csv",
    "save_matched_csv",
    "save_model",
    "solve_exact",
    "split",
    "synthetic_spec_from_doc",
    "warm_start_from_pt",
]
