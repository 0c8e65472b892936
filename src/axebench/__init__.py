"""axebench: evaluate local feature-importance explanations of tabular binary
classifiers without ground-truth annotations.

The headline metric scores an explanation by how accurately a per-datapoint
k-nearest-neighbor model, restricted to the explanation's top-n features,
recovers the classifier's own predictions. Reference agreement metrics,
perturbation-gap baselines, four explainer families, and an adversarial
fairwashing testbed ship alongside it.
"""

from .axe import AxeConfig, axe_quality, axe_quality_many
from .core import (Dataset, Explanation, ExplanationSet, Predictor, QualityReport,
                   bottom_n_features, rank_vector, top_n_features)
from .data import (BENCHMARK_PROXIES, DatasetSchema, SyntheticSpec,
                   benchmark_proxy, generate_synthetic, load_csv, save_csv)
from .experiments import (AttackConfig, DetectionVerdict, RegionGridSpec,
                          build_attack_bundle, bundle_from_config,
                          default_attack_configs, principle_matrix,
                          run_fairwash_detection, run_principle_suite,
                          run_region_grid, write_region_grid)
from .explainers import (ExplainerConfig, explain_dataset, explain_gradient,
                         explain_integrated_gradients, explain_kernel_shapley,
                         explain_local_surrogate, make_manual_explanations)
from .metrics_reference import (GroundTruthPair, feature_agreement,
                                pairwise_rank_agreement, rank_agreement,
                                rank_correlation, reference_quality_report,
                                sign_agreement, signed_rank_agreement)
from .metrics_sensitivity import PerturbConfig, pgi, pgu, sensitivity_quality_report
from .models import (LinearModelSpec, MlpSpec, RuleModelSpec, ScaffoldSpec,
                     build_scaffold, load_predictor, make_linear_predictor,
                     make_rule_predictor, save_predictor, train_logistic,
                     train_mlp, train_ood_detector)

__version__ = "0.1.0"

__all__ = [
    "AxeConfig", "axe_quality", "axe_quality_many",
    "Dataset", "Explanation", "ExplanationSet", "Predictor", "QualityReport",
    "bottom_n_features", "rank_vector", "top_n_features",
    "BENCHMARK_PROXIES", "DatasetSchema", "SyntheticSpec", "benchmark_proxy",
    "generate_synthetic", "load_csv", "save_csv",
    "AttackConfig", "DetectionVerdict", "RegionGridSpec", "build_attack_bundle",
    "bundle_from_config", "default_attack_configs", "principle_matrix",
    "run_fairwash_detection", "run_principle_suite", "run_region_grid",
    "write_region_grid",
    "ExplainerConfig", "explain_dataset", "explain_gradient",
    "explain_integrated_gradients", "explain_kernel_shapley",
    "explain_local_surrogate", "make_manual_explanations",
    "GroundTruthPair", "feature_agreement", "pairwise_rank_agreement",
    "rank_agreement", "rank_correlation", "reference_quality_report",
    "sign_agreement", "signed_rank_agreement",
    "PerturbConfig", "pgi", "pgu", "sensitivity_quality_report",
    "LinearModelSpec", "MlpSpec", "RuleModelSpec", "ScaffoldSpec",
    "build_scaffold", "load_predictor", "make_linear_predictor",
    "make_rule_predictor", "save_predictor", "train_logistic", "train_mlp",
    "train_ood_detector",
]
