"""Mixture of Poisson regressions with a multinomial-logit gating network.

Estimation runs a stochastic EM whose M-step solves penalized IRWLS
updates of one two-parameter family: unpenalized (ML), ridge (lambda),
or Liu-type (lambda, d), the shrinkage S^-1 (S - d I) of the ridge
result with S = G + lambda I and 0 <= d <= lambda_min(S). The package
also ships the tuning plug-ins, synthetic-study generators, replication
harness, evaluation metrics, and a CLI.
"""

from .errors import (DataFormatError, DimensionError, EmptyPartition,
                     FitFailed, NumericalFailure, PoismoeError,
                     SingularSystem, SummaryUndefined, TuningFailed)
from .gating import (build_gating_workspace, coordinate_descent_alphas,
                     gating_probabilities, q1_value)
from .heart import load_heart_dataset
from .metrics import (ReplicationSummary, align_components,
                      classification_accuracy, sqrt_mse,
                      summarize_replicates, write_summary_csv)
from .model import (Coefficients, Dataset, FitResult, MixtureSpec,
                    SemOptions, TuningParams, e_step, observed_loglik,
                    responsibilities)
from .pipeline import (PipelineResult, bic_scan, bic_value, fit_all_methods,
                       fit_method)
from .poisson import (ComponentWorkspace, build_workspace, irwls_beta_step,
                      poisson_means)
from .replication import (StudyConfig, StudyResult, default_study_options,
                          load_config, run_replication_study, save_config)
from .sem import initialize, m_step, run_sem, s_step
from .simulate import SimulationDesign, simulate_dataset, study_presets
from .tuning import (estimate_ridge_lambdas, lt_mse_alpha, lt_mse_beta,
                     optimize_bias_correction)

__version__ = "0.1.0"

__all__ = [
    "PoismoeError", "DimensionError", "NumericalFailure", "SingularSystem",
    "EmptyPartition", "FitFailed", "TuningFailed", "SummaryUndefined",
    "DataFormatError",
    "Dataset", "Coefficients", "MixtureSpec", "SemOptions",
    "TuningParams", "FitResult", "observed_loglik", "responsibilities",
    "ComponentWorkspace", "poisson_means", "build_workspace",
    "irwls_beta_step",
    "gating_probabilities", "build_gating_workspace",
    "coordinate_descent_alphas", "q1_value",
    "e_step", "s_step", "m_step", "initialize", "run_sem",
    "estimate_ridge_lambdas", "lt_mse_beta", "lt_mse_alpha",
    "optimize_bias_correction",
    "PipelineResult", "fit_all_methods", "fit_method", "bic_value", "bic_scan",
    "SimulationDesign", "simulate_dataset", "study_presets",
    "ReplicationSummary", "align_components", "sqrt_mse",
    "classification_accuracy", "summarize_replicates", "write_summary_csv",
    "load_heart_dataset",
    "StudyConfig", "StudyResult", "default_study_options",
    "run_replication_study", "save_config", "load_config",
]
