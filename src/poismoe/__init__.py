"""Mixture of Poisson regressions with a multinomial-logit gating network.

Estimation runs a stochastic EM whose M-step solves penalized IRWLS
updates: unpenalized (ML), ridge, or Liu-type shrinkage anchored on the
ridge fit. The package also ships the tuning plug-ins, synthetic-study
generators, replication harness, evaluation metrics, and a CLI.
"""

from .errors import (DataFormatError, DimensionError, EmptyPartition,
                     FitFailed, NumericalFailure, PoismoeError,
                     SingularSystem, SummaryUndefined, TuningFailed)
from .gating import (GatingWorkspace, build_gating_workspace,
                     coordinate_descent_alphas, gating_probabilities,
                     irwls_alpha_step, q1_gradient, q1_value)
from .heart import HeartRecord, load_heart_dataset, load_heart_records
from .metrics import (ReplicationSummary, align_components,
                      classification_accuracy, sqrt_mse,
                      summarize_replicates, write_summary_csv)
from .model import (Coefficients, Dataset, FitResult, MixtureSpec,
                    PartitionState, SemOptions, TuningParams,
                    complete_loglik, observed_loglik, responsibilities)
from .penalties import Penalty
from .pipeline import (PipelineResult, bic_scan, bic_value, fit_all_methods,
                       fit_method)
from .poisson import (ComponentWorkspace, build_workspace, irwls_beta_step,
                      poisson_mean, poisson_means, q2_gradient)
from .replication import (StudyConfig, StudyResult, default_study_options,
                          load_config, run_replication_study, save_config)
from .sem import (SemState, e_step, hard_partition, initialize, m_step,
                  run_sem, s_step)
from .simulate import (FmpreSample, SimulationDesign, generate_covariates,
                       generate_fmpre_sample, load_design, save_design,
                       simulate_dataset, study_presets)
from .tuning import (estimate_ridge_lambdas, lt_mse_alpha, lt_mse_beta,
                     optimize_bias_correction, plug_in_bias_corrections)

__version__ = "0.1.0"

__all__ = [
    "PoismoeError", "DimensionError", "NumericalFailure", "SingularSystem",
    "EmptyPartition", "FitFailed", "TuningFailed", "SummaryUndefined",
    "DataFormatError",
    "Dataset", "Coefficients", "PartitionState", "MixtureSpec", "SemOptions",
    "TuningParams", "FitResult", "observed_loglik", "complete_loglik",
    "responsibilities",
    "Penalty",
    "ComponentWorkspace", "poisson_mean", "poisson_means", "build_workspace",
    "irwls_beta_step", "q2_gradient",
    "GatingWorkspace", "gating_probabilities", "build_gating_workspace",
    "irwls_alpha_step", "coordinate_descent_alphas", "q1_value", "q1_gradient",
    "SemState", "e_step", "s_step", "hard_partition", "m_step", "initialize",
    "run_sem",
    "estimate_ridge_lambdas", "lt_mse_beta", "lt_mse_alpha",
    "optimize_bias_correction", "plug_in_bias_corrections",
    "PipelineResult", "fit_all_methods", "fit_method", "bic_value", "bic_scan",
    "SimulationDesign", "FmpreSample", "generate_covariates",
    "generate_fmpre_sample", "simulate_dataset", "study_presets",
    "save_design", "load_design",
    "ReplicationSummary", "align_components", "sqrt_mse",
    "classification_accuracy", "summarize_replicates", "write_summary_csv",
    "HeartRecord", "load_heart_records", "load_heart_dataset",
    "StudyConfig", "StudyResult", "default_study_options",
    "run_replication_study", "save_config", "load_config",
]
