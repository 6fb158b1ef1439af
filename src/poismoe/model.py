"""Core value types and log-likelihood evaluation.

The observation model is a J-component mixture of Poisson regressions:
each count y_i has mean exp(x_i' beta_j) inside component j, and the
component weights follow a multinomial-logit model in the concomitant
covariates omega_i with one class fixed at zero as the reference.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
from scipy.special import gammaln, logsumexp

from .errors import DimensionError, NumericalFailure
from .gating import gating_log_probabilities

# Poisson means are kept inside [MU_MIN, MU_MAX]: poisson_means returns
# exactly MU_MAX for a linear predictor eta > ETA_MAX and exactly MU_MIN for
# a mean exp(eta) below MU_MIN, and its warning counts those entries.
# ETA_MAX caps the exponent so exp() cannot overflow. The log-likelihood
# (_log_poisson_kernels) clips eta itself into [ETA_FLOOR, ETA_MAX];
# ETA_FLOOR bounds the linear predictor below so products like y * eta stay
# finite for any finite coefficients.
MU_MIN = 1e-300
MU_MAX = 1e300
ETA_MAX = float(np.log(MU_MAX))
ETA_FLOOR = -1e12

__all__ = [
    "MU_MIN", "MU_MAX", "ETA_MAX",
    "Dataset", "Coefficients", "PartitionState", "MixtureSpec",
    "SemOptions", "TuningParams", "FitResult",
    "observed_loglik", "complete_loglik", "responsibilities", "draw_labels",
]


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    """Counts with component regressors X and gating concomitants Omega.

    Both design matrices are expected to carry a leading constant column
    when an intercept is wanted; nothing enforces that convention.
    """

    y: np.ndarray
    X: np.ndarray
    Omega: np.ndarray

    def __post_init__(self) -> None:
        y = np.asarray(self.y)
        if y.ndim != 1 or y.shape[0] < 1:
            raise DimensionError("y must be a nonempty vector")
        if np.any(y < 0) or not np.all(np.equal(np.mod(y, 1), 0)):
            raise ValueError("y must contain nonnegative integers")
        X = np.array(self.X, dtype=float)
        Omega = np.array(self.Omega, dtype=float)
        if X.ndim != 2 or Omega.ndim != 2:
            raise DimensionError("X and Omega must be matrices")
        n = y.shape[0]
        if X.shape[0] != n or Omega.shape[0] != n:
            raise DimensionError("X and Omega must have one row per observation")
        if X.shape[1] < 1 or Omega.shape[1] < 1:
            raise DimensionError("X and Omega need at least one column")
        object.__setattr__(self, "y", _readonly(np.array(y, dtype=np.int64)))
        object.__setattr__(self, "X", _readonly(X))
        object.__setattr__(self, "Omega", _readonly(Omega))

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def q(self) -> int:
        return self.Omega.shape[1]


@dataclass(frozen=True)
class Coefficients:
    """Stacked regression and gating coefficients for all J components.

    ``beta`` is (J, p), ``alpha`` is (J, q); the row at
    ``reference_class`` of ``alpha`` is identically zero.
    """

    beta: np.ndarray
    alpha: np.ndarray
    reference_class: int = 0

    def __post_init__(self) -> None:
        beta = np.array(self.beta, dtype=float, ndmin=2)
        alpha = np.array(self.alpha, dtype=float, ndmin=2)
        if beta.shape[0] != alpha.shape[0]:
            raise DimensionError("beta and alpha must have one row per component")
        if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(alpha))):
            raise ValueError("coefficients must be finite")
        ref = int(self.reference_class)
        if not 0 <= ref < alpha.shape[0]:
            raise ValueError("reference_class out of range")
        if np.any(alpha[ref] != 0.0):
            raise ValueError("the reference gating row must be zero")
        object.__setattr__(self, "beta", _readonly(beta))
        object.__setattr__(self, "alpha", _readonly(alpha))
        object.__setattr__(self, "reference_class", ref)

    @property
    def n_components(self) -> int:
        return self.beta.shape[0]

    @property
    def p(self) -> int:
        return self.beta.shape[1]

    @property
    def q(self) -> int:
        return self.alpha.shape[1]

    def permute(self, order: Sequence[int]) -> "Coefficients":
        """Relabel components so that new component j is old ``order[j]``.

        The gating rows are re-expressed against the new reference class
        (scores are shift-invariant, so probabilities just permute).
        """
        order = tuple(int(j) for j in order)
        if sorted(order) != list(range(self.n_components)):
            raise ValueError(f"{order!r} is not a permutation")
        beta = self.beta[list(order)]
        alpha = self.alpha[list(order)] - self.alpha[order[self.reference_class]]
        return Coefficients(beta=beta, alpha=alpha,
                            reference_class=self.reference_class)


@dataclass(frozen=True)
class PartitionState:
    """Hard component assignment from one stochastic classification step."""

    assignment: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        assignment = np.array(self.assignment, dtype=np.int64)
        counts = np.array(self.counts, dtype=np.int64)
        if assignment.ndim != 1 or counts.ndim != 1:
            raise DimensionError("assignment and counts must be vectors")
        expected = np.bincount(assignment, minlength=counts.shape[0])
        if expected.shape[0] > counts.shape[0] or np.any(expected != counts):
            raise ValueError("counts do not match the assignment")
        object.__setattr__(self, "assignment", _readonly(assignment))
        object.__setattr__(self, "counts", _readonly(counts))

    @classmethod
    def from_assignment(cls, assignment: np.ndarray, n_components: int) -> "PartitionState":
        assignment = np.asarray(assignment, dtype=np.int64)
        counts = np.bincount(assignment, minlength=n_components)
        return cls(assignment=assignment, counts=counts)

    @property
    def n_components(self) -> int:
        return self.counts.shape[0]


@dataclass(frozen=True)
class MixtureSpec:
    """Structural description of the mixture: J and the reference class."""

    n_components: int
    reference_class: int = 0

    def __post_init__(self) -> None:
        if self.n_components < 1:
            raise ValueError("need at least one component")
        if not 0 <= self.reference_class < self.n_components:
            raise ValueError("reference_class out of range")


@dataclass(frozen=True)
class SemOptions:
    """Controls for one stochastic EM run.

    ``hard_assignment`` replaces the stochastic classification draw with
    an argmax rule (a deterministic variant used in tests only).
    ``inner_tol`` and ``inner_max`` bound the gating M-step: the largest
    coordinate change that ends it and its number of joint Newton steps.
    """

    epsilon: float = 1e-6
    max_iters: int = 500
    burn_in: int = 100
    n_restarts: int = 5
    estimate_selection: str = "best_loglik"  # or "post_burnin_mean"
    rng_seed: int = 0
    hard_assignment: bool = False
    init_strategy: str = "random"  # or "quantile"
    inner_tol: float = 1e-8
    inner_max: int = 50

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.max_iters < 1 or self.n_restarts < 1:
            raise ValueError("max_iters and n_restarts must be positive")
        if not 0 <= self.burn_in < self.max_iters:
            raise ValueError("need 0 <= burn_in < max_iters")
        if self.estimate_selection not in ("best_loglik", "post_burnin_mean"):
            raise ValueError(f"unknown selection {self.estimate_selection!r}")
        if self.init_strategy not in ("random", "quantile"):
            raise ValueError(f"unknown init strategy {self.init_strategy!r}")


@dataclass(frozen=True)
class TuningParams:
    """Per-component ridge parameters and Liu-type bias corrections.

    ``source`` records which stage supplied the plug-in estimates; the
    capped flags mark lambdas that hit the 1e6 ceiling because the
    source vector had (near-)zero norm.
    """

    lambda_beta: np.ndarray
    lambda_alpha: np.ndarray
    d_beta: np.ndarray
    d_alpha: np.ndarray
    source: str = ""
    lambda_beta_capped: tuple[bool, ...] = field(default=())
    lambda_alpha_capped: tuple[bool, ...] = field(default=())

    def __post_init__(self) -> None:
        lb = np.array(self.lambda_beta, dtype=float)
        la = np.array(self.lambda_alpha, dtype=float)
        db = np.array(self.d_beta, dtype=float)
        da = np.array(self.d_alpha, dtype=float)
        if not (np.all(lb > 0) and np.all(la > 0)):
            raise ValueError("lambda entries must be strictly positive")
        if not (np.all(np.isfinite(db)) and np.all(np.isfinite(da))):
            raise ValueError("bias corrections must be finite")
        for name, arr in (("lambda_beta", lb), ("lambda_alpha", la),
                          ("d_beta", db), ("d_alpha", da)):
            object.__setattr__(self, name, _readonly(arr))

    @classmethod
    def ridge_only(cls, lambda_beta, lambda_alpha, source: str = "",
                   lambda_beta_capped: tuple[bool, ...] = (),
                   lambda_alpha_capped: tuple[bool, ...] = ()) -> "TuningParams":
        lb = np.asarray(lambda_beta, dtype=float)
        la = np.asarray(lambda_alpha, dtype=float)
        return cls(lambda_beta=lb, lambda_alpha=la,
                   d_beta=np.zeros_like(lb), d_alpha=np.zeros_like(la),
                   source=source, lambda_beta_capped=lambda_beta_capped,
                   lambda_alpha_capped=lambda_alpha_capped)

    def with_bias_corrections(self, d_beta, d_alpha) -> "TuningParams":
        return replace(self, d_beta=np.asarray(d_beta, dtype=float),
                       d_alpha=np.asarray(d_alpha, dtype=float))


@dataclass(frozen=True)
class FitResult:
    """Outcome of one stochastic EM fit (best restart)."""

    psi_hat: Coefficients
    loglik_trace: np.ndarray
    converged: bool
    iterations_run: int
    selected_iteration: int
    tuning: TuningParams | None = None
    method: str = "ml"
    n_failed_restarts: int = 0

    def __post_init__(self) -> None:
        trace = np.array(self.loglik_trace, dtype=float)
        if trace.shape[0] != self.iterations_run:
            raise ValueError("trace length must equal iterations_run")
        if not 0 <= self.selected_iteration <= self.iterations_run:
            raise ValueError("selected_iteration out of range")
        object.__setattr__(self, "loglik_trace", _readonly(trace))


def _check_dimensions(data: Dataset, psi: Coefficients) -> None:
    if psi.p != data.p or psi.q != data.q:
        raise DimensionError(
            f"coefficients expect p={psi.p}, q={psi.q} but data has "
            f"p={data.p}, q={data.q}")


def _log_poisson_kernels(data: Dataset, psi: Coefficients) -> np.ndarray:
    """(n, J) matrix of y*eta - exp(eta) - log(y!) with eta = x' beta_j."""
    eta = np.clip(data.X @ psi.beta.T, ETA_FLOOR, ETA_MAX)
    y = data.y.astype(float)
    return y[:, None] * eta - np.exp(eta) - gammaln(y + 1.0)[:, None]


def observed_loglik(data: Dataset, psi: Coefficients) -> float:
    """Log-likelihood of the mixture: sum_i log sum_j pi_ij Poi(y_i | mu_ij)."""
    _check_dimensions(data, psi)
    log_terms = gating_log_probabilities(data.Omega, psi.alpha) \
        + _log_poisson_kernels(data, psi)
    value = float(logsumexp(log_terms, axis=1).sum())
    if not np.isfinite(value):
        raise NumericalFailure("observed log-likelihood is not finite")
    return value


def complete_loglik(data: Dataset, psi: Coefficients, part: PartitionState) -> float:
    """Log-likelihood of (y, z) for a fixed hard assignment z."""
    _check_dimensions(data, psi)
    if part.assignment.shape[0] != data.n:
        raise DimensionError("partition length does not match the data")
    rows = np.arange(data.n)
    z = part.assignment
    log_pi = gating_log_probabilities(data.Omega, psi.alpha)[rows, z]
    kernels = _log_poisson_kernels(data, psi)[rows, z]
    value = float(log_pi.sum() + kernels.sum())
    if not np.isfinite(value):
        raise NumericalFailure("complete log-likelihood is not finite")
    return value


def responsibilities(data: Dataset, psi: Coefficients) -> np.ndarray:
    """Posterior component probabilities, normalized row-wise in log space."""
    _check_dimensions(data, psi)
    log_terms = gating_log_probabilities(data.Omega, psi.alpha) \
        + _log_poisson_kernels(data, psi)
    norms = logsumexp(log_terms, axis=1, keepdims=True)
    if not np.all(np.isfinite(norms)):
        raise NumericalFailure("responsibility normalization underflowed")
    return np.exp(log_terms - norms)


def draw_labels(probabilities: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One categorical draw per row of ``probabilities`` (inverse CDF).

    Uses one uniform per row; rounding that leaves a row's cumulative sum
    below its uniform gives the last class.
    """
    u = rng.random(probabilities.shape[0])
    cutpoints = np.cumsum(probabilities, axis=1)
    return np.minimum((cutpoints < u[:, None]).sum(axis=1),
                      probabilities.shape[1] - 1)
