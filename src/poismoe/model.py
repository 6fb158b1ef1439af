"""Core value types and log-likelihood evaluation.

The observation model is a J-component mixture of Poisson regressions:
each count y_i has mean exp(x_i' beta_j) inside component j, and the
component weights follow a multinomial-logit model in the concomitant
covariates omega_i with one class fixed at zero as the reference.

The mixture log-terms are class-major (J, n), like the gate's; the
public :func:`e_step`, :func:`responsibilities` and :func:`draw_labels`
keep (n, J). The chain driver (:mod:`~poismoe.sem`) advances several
chains in lockstep, so :class:`Coefficients`, :func:`e_step` and
:func:`draw_labels` also take a leading chain axis B, one row per chain,
which every per-chain result ignores: a chain's rows give the same
values, bit for bit, alone or in a batch. A partition is the plain
label array :func:`draw_labels` returns, (n,) or (B, n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .errors import DimensionError, NumericalFailure
from .gating import gating_log_probabilities, log_sum_exp
from .linalg import outer_basis

# ETA_MAX, the log of a 1e300 mean, is the largest linear predictor a chain
# may use: poisson_means raises NumericalFailure above it. The log-likelihood
# (_log_terms) clips eta itself into [ETA_FLOOR, ETA_MAX]; ETA_FLOOR bounds
# the linear predictor below so products like y * eta stay finite for any
# finite coefficients.
ETA_MAX = float(np.log(1e300))
ETA_FLOOR = -1e12

__all__ = [
    "ETA_MAX",
    "Dataset", "Coefficients", "MixtureSpec",
    "SemOptions", "TuningParams", "FitResult",
    "observed_loglik", "e_step", "responsibilities", "draw_labels",
]


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


_FIELD_RULES = {"int": ((int, np.integer), "an integer"),
                "float": ((int, float, np.integer, np.floating), "a number"),
                "str": (str, "a string"),
                "str | None": ((str, type(None)), "a string or None")}


def check_fields(instance) -> None:
    """ValueError naming the first field of the dataclass ``instance``
    whose value its declared type refuses (``_FIELD_RULES``; a bool is
    neither an integer nor a number); each entry of a
    ``tuple[tuple[float, ...], ...]`` field must be a number."""
    for f in fields(instance):
        name, rule, values = f.name, f.type, [getattr(instance, f.name)]
        if rule == "tuple[tuple[float, ...], ...]":
            name, rule = f"{name} entry", "float"
            values = [entry for row in values[0] for entry in row]
        if rule in _FIELD_RULES:
            kinds, noun = _FIELD_RULES[rule]
            for value in values:
                if isinstance(value, bool) or not isinstance(value, kinds):
                    raise ValueError(f"{name} must be {noun}, not {value!r}")


@dataclass(frozen=True)
class Dataset:
    """Counts with component regressors X and gating concomitants Omega.

    Both design matrices are expected to carry a leading constant column
    when an intercept is wanted; nothing enforces that convention.
    Computed once on construction: ``log_y_factorial`` holds log(y_i!),
    and ``X_outer`` and ``Omega_outer`` the outer-product bases of the
    designs (:func:`~poismoe.linalg.outer_basis`), from which each weighted
    Gram of an M-step is one matrix product; a design whose outer products
    overflow is refused.
    """

    y: np.ndarray
    X: np.ndarray
    Omega: np.ndarray
    log_y_factorial: np.ndarray = field(init=False, repr=False, compare=False)
    X_outer: np.ndarray = field(init=False, repr=False, compare=False)
    Omega_outer: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        y = np.asarray(self.y)
        if y.ndim != 1 or y.shape[0] < 1:
            raise DimensionError("y must be a nonempty vector")
        if np.any(y >= 2**63):  # before np.mod, which warns on inf
            raise ValueError("y counts must be below 2**63, the int64 range")
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
        for name, design in (("X", X), ("Omega", Omega)):
            peak = float(np.abs(design).max())
            if not peak < np.inf:  # NaN too
                raise ValueError("X and Omega must be finite")
            if not peak * peak < np.inf:  # the largest outer product
                raise ValueError(f"{name} is too large: its outer products "
                                 "are not finite")
        object.__setattr__(self, "y", _readonly(np.array(y, dtype=np.int64)))
        object.__setattr__(self, "log_y_factorial", _readonly(np.array(
            [math.lgamma(count + 1.0) for count in self.y.tolist()])))
        object.__setattr__(self, "X", _readonly(X))
        object.__setattr__(self, "Omega", _readonly(Omega))
        object.__setattr__(self, "X_outer", _readonly(outer_basis(X)))
        object.__setattr__(self, "Omega_outer", _readonly(outer_basis(Omega)))

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
    ``reference_class`` of ``alpha`` is identically zero. A batch of
    chains stacks them as (B, J, p) and (B, J, q).
    """

    beta: np.ndarray
    alpha: np.ndarray
    reference_class: int = 0

    def __post_init__(self) -> None:
        beta = np.array(self.beta, dtype=float, ndmin=2)
        alpha = np.array(self.alpha, dtype=float, ndmin=2)
        if beta.shape[:-1] != alpha.shape[:-1] or beta.ndim > 3:
            raise DimensionError("beta and alpha must have one row per component")
        if not (np.isfinite(beta).all() and np.isfinite(alpha).all()):
            raise ValueError("coefficients must be finite")
        ref = self.reference_class
        if type(ref) is bool or not isinstance(ref, (int, np.integer)):
            raise ValueError(f"reference_class must be an integer, not {ref!r}")
        if not 0 <= ref < alpha.shape[-2]:
            raise ValueError("reference_class out of range")
        if (alpha[..., ref, :] != 0.0).any():
            raise ValueError("the reference gating row must be zero")
        object.__setattr__(self, "beta", _readonly(beta))
        object.__setattr__(self, "alpha", _readonly(alpha))
        object.__setattr__(self, "reference_class", int(ref))

    @property
    def n_components(self) -> int:
        return self.beta.shape[-2]

    @property
    def p(self) -> int:
        return self.beta.shape[-1]

    @property
    def q(self) -> int:
        return self.alpha.shape[-1]

    def permute(self, order: Sequence[int]) -> "Coefficients":
        """Relabel components so that new component j is old ``order[j]``.

        The gating rows are re-expressed against the new reference class
        (scores are shift-invariant, so probabilities just permute). A
        batch of chains permutes each chain's components alike.
        """
        order = [int(j) for j in order]
        if sorted(order) != list(range(self.n_components)):
            raise ValueError(f"{tuple(order)!r} is not a permutation")
        beta = self.beta[..., order, :]
        alpha = (self.alpha[..., order, :]
                 - self.alpha[..., order[self.reference_class], None, :])
        return Coefficients(beta=beta, alpha=alpha,
                            reference_class=self.reference_class)


@dataclass(frozen=True)
class MixtureSpec:
    """Structural description of the mixture: J and the reference class."""

    n_components: int
    reference_class: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.n_components < 1:
            raise ValueError("need at least one component")
        if not 0 <= self.reference_class < self.n_components:
            raise ValueError("reference_class out of range")


@dataclass(frozen=True)
class SemOptions:
    """Controls for one stochastic EM run.

    A chain stops once the observed log-likelihood moves by less than
    ``epsilon`` or after ``max_iters`` iterations; ``n_restarts`` chains
    are seeded from ``rng_seed``. The estimate is the best-log-likelihood
    iterate or the label-aligned mean (``estimate_selection``) of the
    iterates after ``burn_in``, or of all of them if the chain stops first.
    """

    epsilon: float = 1e-6
    max_iters: int = 500
    burn_in: int = 100
    n_restarts: int = 5
    estimate_selection: str = "best_loglik"  # or "post_burnin_mean"
    rng_seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.max_iters < 1 or self.n_restarts < 1:
            raise ValueError("max_iters and n_restarts must be positive")
        if not 0 <= self.burn_in < self.max_iters:
            raise ValueError("need 0 <= burn_in < max_iters")
        if self.estimate_selection not in ("best_loglik", "post_burnin_mean"):
            raise ValueError(f"unknown selection {self.estimate_selection!r}")


@dataclass(frozen=True)
class TuningParams:
    """Per-component ridge parameters and Liu-type bias corrections.

    Every lambda is positive and every d finite and non-negative: a
    negative d would scale the ridge result up, not shrink it; a ridge
    fit's d are zero. ``source`` records which stage supplied the plug-ins.
    """

    lambda_beta: np.ndarray
    lambda_alpha: np.ndarray
    d_beta: np.ndarray
    d_alpha: np.ndarray
    source: str = ""

    def __post_init__(self) -> None:
        lb = np.array(self.lambda_beta, dtype=float)
        la = np.array(self.lambda_alpha, dtype=float)
        if not ((lb > 0).all() and (la > 0).all()):
            raise ValueError("lambda entries must be strictly positive")
        db = np.array(self.d_beta, dtype=float)
        da = np.array(self.d_alpha, dtype=float)
        if not all(np.isfinite(d).all() and (d >= 0).all() for d in (db, da)):
            raise ValueError("bias corrections must be finite and non-negative")
        for name, arr in (("lambda_beta", lb), ("lambda_alpha", la),
                          ("d_beta", db), ("d_alpha", da)):
            object.__setattr__(self, name, _readonly(arr))


@dataclass(frozen=True)
class FitResult:
    """Outcome of one stochastic EM fit (best restart); ``restart_ends``
    says how each restart's chain ended, in restart order: ``"epsilon"``,
    ``"cap"`` (``max_iters``) or its interruption's ``"Type: message"``."""

    psi_hat: Coefficients
    loglik_trace: np.ndarray
    converged: bool
    selected_iteration: int
    tuning: TuningParams | None = None
    method: str = "ml"
    n_failed_restarts: int = 0
    restart_ends: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        trace = np.array(self.loglik_trace, dtype=float)
        if not 0 <= self.selected_iteration < trace.shape[0]:
            raise ValueError("selected_iteration out of range")
        object.__setattr__(self, "loglik_trace", _readonly(trace))

    @property
    def iterations_run(self) -> int:
        return len(self.loglik_trace)


def _log_terms(data: Dataset, psi: Coefficients,
               log_pi: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """Mixture log-terms and their column normalizers.

    Returns the class-major (J, n) matrix log pi_ij + log Poi(y_i | mu_ij),
    whose Poisson part is y*eta - exp(eta) - log(y!) at eta = x' beta_j,
    and its (1, n) log-sum-exp over classes, whose sum is the observed
    log-likelihood. ``log_pi``, when given, is the gate log-softmax at
    ``psi.alpha``, used instead of recomputing it.
    """
    if psi.p != data.p or psi.q != data.q:
        raise DimensionError(
            f"coefficients expect p={psi.p}, q={psi.q} but data has "
            f"p={data.p}, q={data.q}")
    eta = np.minimum(np.maximum(psi.beta @ data.X.T, ETA_FLOOR), ETA_MAX)
    if log_pi is None:
        log_pi = gating_log_probabilities(data.Omega, psi.alpha)
    log_terms = log_pi + (
        data.y * eta - np.exp(eta) - data.log_y_factorial)
    return log_terms, log_sum_exp(log_terms)


def _total_loglik(norms: np.ndarray) -> float | np.ndarray:
    """Sum of the (1, n) row normalizers, one per chain for a (B, 1, n)
    batch; NumericalFailure when any is not finite."""
    value = norms[..., 0, :].sum(axis=-1)
    totals = value.tolist()
    if not all(map(math.isfinite, totals if value.ndim else [totals])):
        raise NumericalFailure("observed log-likelihood is not finite")
    return totals if value.ndim == 0 else value


def observed_loglik(data: Dataset, psi: Coefficients) -> float:
    """Log-likelihood of the mixture: sum_i log sum_j pi_ij Poi(y_i | mu_ij)."""
    return _total_loglik(_log_terms(data, psi)[1])


def e_step(data: Dataset, psi: Coefficients,
           log_pi: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Posterior tau (one row per observation) and log-likelihood at ``psi``.

    The one E-step pass: a single sweep over the class-major mixture
    log-terms gives both. tau is an (n, J) view of that (J, n) posterior,
    and the log-likelihood equals ``observed_loglik(data, psi)`` bit for
    bit; a non-finite log-likelihood raises :class:`NumericalFailure`.
    ``log_pi``, when given, is the (J, n) gate log-softmax at
    ``psi.alpha`` (the one the gate ascent hands back), used instead of
    recomputing it. For a batch of chains (``psi`` with a chain axis,
    ``log_pi`` (B, J, n)) tau is (B, n, J) and the log-likelihoods a (B,)
    array, and any chain's non-finite log-likelihood raises.
    """
    log_terms, norms = _log_terms(data, psi, log_pi)
    loglik = _total_loglik(norms)
    return np.exp(log_terms - norms).swapaxes(-1, -2), loglik


def responsibilities(data: Dataset, psi: Coefficients) -> np.ndarray:
    """Posterior component probabilities as an (n, J) view: the posterior
    of :func:`e_step`."""
    return e_step(data, psi)[0]


def draw_labels(probabilities: np.ndarray,
                rng: np.random.Generator | Sequence[np.random.Generator]
                ) -> np.ndarray:
    """One categorical draw per row of the (n, J) ``probabilities``
    (inverse CDF, summed over the class-major transpose).

    Uses one uniform per row; rounding that leaves a row's cumulative sum
    below its uniform gives the last class. A batch (B, n, J) of chains
    takes one generator per chain, in chain order, and each draws its
    chain's n uniforms as it would alone, giving (B, n) labels.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    n = probabilities.shape[-2]
    if probabilities.ndim == 2:
        u = rng.random(n)
    else:
        u = np.empty((len(rng), 1, n))
        for chain, row in zip(rng, u):
            chain.random(out=row[0])
    cutpoints = np.cumsum(probabilities.swapaxes(-1, -2)[..., :-1, :],
                          axis=-2)
    return (cutpoints < u).sum(axis=-2)
