"""Stochastic EM driver.

Each iteration computes posterior component probabilities (E), draws a
hard assignment from them (S), and refits the component regressions and
the gating network on the partitioned data (M). The chain stops when
the observed log-likelihood change falls below ``epsilon`` or at the
iteration cap; several independent restarts are run and the best chain
is kept. Because the chain fluctuates rather than converges point-wise,
the returned estimate is either the post-burn-in iterate with the best
observed log-likelihood (default) or the label-aligned post-burn-in
mean.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import (EmptyPartition, FitFailed, NumericalFailure,
                     SingularSystem, TuningFailed)
from .gating import coordinate_descent_alphas
from .metrics import align_components
from .model import (Coefficients, Dataset, FitResult, MixtureSpec,
                    PartitionState, SemOptions, TuningParams, draw_labels,
                    observed_loglik, responsibilities)
from .penalties import Penalty
from .poisson import ComponentWorkspace, build_workspace, irwls_beta_step, poisson_means

__all__ = [
    "SemState",
    "e_step",
    "s_step",
    "hard_partition",
    "m_step",
    "initialize",
    "run_sem",
]

IterationHook = Callable[["SemState", np.ndarray], None]
Retuner = Callable[[Dataset, PartitionState, Coefficients, Coefficients | None],
                   TuningParams]


@dataclass(frozen=True)
class SemState:
    """Snapshot of one chain iteration (passed to iteration hooks)."""

    iteration: int
    psi: Coefficients
    partition: PartitionState
    loglik: float
    rng_state: Any = None


def e_step(data: Dataset, psi: Coefficients) -> np.ndarray:
    """Posterior membership probabilities tau, one row per observation."""
    return responsibilities(data, psi)


def s_step(tau: np.ndarray, rng: np.random.Generator) -> PartitionState:
    """Draw one hard component assignment per row of ``tau``."""
    tau = np.asarray(tau, dtype=float)
    assignment = draw_labels(tau, rng)
    counts = np.bincount(assignment, minlength=tau.shape[1])
    if np.any(counts == 0):
        empty = int(np.flatnonzero(counts == 0)[0])
        raise EmptyPartition(f"component {empty} received no observations")
    return PartitionState(assignment=assignment, counts=counts)


def hard_partition(tau: np.ndarray) -> PartitionState:
    """Argmax assignment (deterministic variant; may leave components empty)."""
    tau = np.asarray(tau, dtype=float)
    assignment = tau.argmax(axis=1)
    return PartitionState.from_assignment(assignment, tau.shape[1])


def _component_penalties(method: str, tuning: TuningParams | None,
                         n_components: int, block: str) -> list[Penalty]:
    if method == "ml":
        return [Penalty.ml() for _ in range(n_components)]
    if tuning is None:
        raise ValueError(f"method {method!r} requires tuning parameters")
    lam = tuning.lambda_beta if block == "beta" else tuning.lambda_alpha
    if method == "ridge":
        return [Penalty.ridge(lam[j]) for j in range(n_components)]
    if method == "lt":
        # Self-anchored: each update anchors on its own ridge solve,
        # which is the estimator form the tuning MSE describes.
        d = tuning.d_beta if block == "beta" else tuning.d_alpha
        return [Penalty.liu_type(lam[j], d[j]) for j in range(n_components)]
    raise ValueError(f"unknown method {method!r}")


def m_step(data: Dataset, part: PartitionState, psi_t: Coefficients,
           method: str = "ml", tuning: TuningParams | None = None, *,
           inner_tol: float = 1e-8, inner_max: int = 50,
           step_acceptance: bool = True) -> Coefficients:
    """Refit all component regressions and the gating network once."""
    n_components = psi_t.n_components
    beta_penalties = _component_penalties(method, tuning, n_components, "beta")
    alpha_penalties = _component_penalties(method, tuning, n_components,
                                           "alpha")
    beta_new = np.empty_like(psi_t.beta)
    for j in range(n_components):
        workspace = build_workspace(data, part, j, psi_t.beta[j])
        beta_new[j] = irwls_beta_step(workspace, beta_penalties[j])
    alpha_new = coordinate_descent_alphas(
        data.Omega, psi_t.alpha, part, alpha_penalties,
        psi_t.reference_class, inner_tol=inner_tol, inner_max=inner_max,
        step_acceptance=step_acceptance)
    return Coefficients(beta=beta_new, alpha=alpha_new,
                        reference_class=psi_t.reference_class)


def _intercept_only_beta(y_group: np.ndarray, p: int) -> np.ndarray:
    beta = np.zeros(p)
    beta[0] = np.log(y_group.mean() + 0.5)
    return beta


def _warm_start_beta(X_group: np.ndarray, y_group: np.ndarray,
                     n_steps: int = 3) -> np.ndarray:
    """A few unpenalized IRWLS steps from an intercept-only start."""
    fallback = _intercept_only_beta(y_group, X_group.shape[1])
    beta = fallback
    try:
        for _ in range(n_steps):
            mu = poisson_means(X_group, beta)
            workspace = ComponentWorkspace(
                X=X_group, y=y_group.astype(float), mu=mu, weights=mu,
                z_star=X_group @ beta + (y_group - mu) / mu)
            beta = irwls_beta_step(workspace, Penalty.ml())
    except (SingularSystem, NumericalFailure):
        return fallback
    if not np.all(np.isfinite(beta)):
        return fallback
    return beta


def _fill_empty_groups(assignment: np.ndarray, n_components: int) -> np.ndarray:
    """Move single observations out of the largest group until none is empty."""
    assignment = np.array(assignment, dtype=np.int64)
    if assignment.shape[0] < n_components:
        raise ValueError("fewer observations than components")
    counts = np.bincount(assignment, minlength=n_components)
    for j in np.flatnonzero(counts == 0):
        donor = int(counts.argmax())
        take = int(np.flatnonzero(assignment == donor)[0])
        assignment[take] = j
        counts = np.bincount(assignment, minlength=n_components)
    return assignment


def initialize(data: Dataset, spec: MixtureSpec, rng: np.random.Generator,
               strategy: str = "random") -> Coefficients:
    """Starting coefficients from a coarse split of the observations.

    ``random`` assigns observations uniformly at random; ``quantile``
    bins them by the response quantiles. Each group's beta is warmed up
    with a few unpenalized IRWLS steps (falling back to an
    intercept-only fit if the group is degenerate); the gating starts at
    zero.
    """
    n_components = spec.n_components
    if n_components == 1:
        assignment = np.zeros(data.n, dtype=np.int64)
    elif strategy == "random":
        assignment = rng.integers(0, n_components, size=data.n)
    elif strategy == "quantile":
        edges = np.quantile(data.y, [(j + 1) / n_components
                                     for j in range(n_components - 1)])
        assignment = np.searchsorted(edges, data.y, side="left")
    else:
        raise ValueError(f"unknown init strategy {strategy!r}")
    assignment = _fill_empty_groups(assignment, n_components)
    beta = np.empty((n_components, data.p))
    for j in range(n_components):
        rows = assignment == j
        beta[j] = _warm_start_beta(data.X[rows], data.y[rows].astype(float))
    alpha = np.zeros((n_components, data.q))
    return Coefficients(beta=beta, alpha=alpha,
                        reference_class=spec.reference_class)


@dataclass
class _ChainOutcome:
    psis: list[Coefficients]
    logliks: list[float]
    converged: bool
    interruption: str | None = None

    def select(self, opts: SemOptions, data: Dataset) -> tuple[Coefficients, int, float]:
        iterations = len(self.psis)
        start = opts.burn_in if opts.burn_in < iterations else 0
        trace = np.asarray(self.logliks)
        best_index = start + int(np.argmax(trace[start:]))
        if opts.estimate_selection == "best_loglik":
            return self.psis[best_index], best_index, float(trace[best_index])
        reference = self.psis[best_index]
        betas, alphas = [], []
        for psi in self.psis[start:]:
            aligned = psi.permute(align_components(psi, reference))
            betas.append(aligned.beta)
            alphas.append(aligned.alpha)
        psi_mean = Coefficients(beta=np.mean(betas, axis=0),
                                alpha=np.mean(alphas, axis=0),
                                reference_class=reference.reference_class)
        return psi_mean, best_index, observed_loglik(data, psi_mean)


_CHAIN_INTERRUPTIONS = (EmptyPartition, SingularSystem, NumericalFailure,
                        TuningFailed)


def _run_chain(data: Dataset, spec: MixtureSpec, opts: SemOptions, method: str,
               tuning: TuningParams | None, anchors: Coefficients | None,
               rng: np.random.Generator, psi0: Coefficients | None,
               on_iteration: IterationHook | None,
               retune: Retuner | None) -> _ChainOutcome:
    """One chain; an interruption keeps the iterates completed so far.

    Empty partitions and singular systems end the chain the way the
    stopping rule would, except ``converged`` stays False and the cause
    is recorded. A chain interrupted before its first completed
    iteration has nothing to select from and counts as a failed restart.
    """
    psis: list[Coefficients] = []
    logliks: list[float] = []
    converged = False
    interruption = None
    tuning_t = tuning
    try:
        psi = psi0 if psi0 is not None else initialize(data, spec, rng,
                                                       opts.init_strategy)
        loglik_prev = observed_loglik(data, psi)
        for t in range(opts.max_iters):
            tau = e_step(data, psi)
            part = hard_partition(tau) if opts.hard_assignment else s_step(tau, rng)
            if opts.hard_assignment and np.any(part.counts == 0):
                raise EmptyPartition("argmax assignment left a component empty")
            if retune is not None:
                tuning_t = retune(data, part, psi, anchors)
            psi = m_step(data, part, psi, method=method, tuning=tuning_t,
                         inner_tol=opts.inner_tol, inner_max=opts.inner_max,
                         step_acceptance=opts.step_acceptance)
            loglik = observed_loglik(data, psi)
            psis.append(psi)
            logliks.append(loglik)
            if on_iteration is not None:
                on_iteration(SemState(iteration=t, psi=psi, partition=part,
                                      loglik=loglik, rng_state=rng), tau)
            if abs(loglik - loglik_prev) < opts.epsilon:
                converged = True
                break
            loglik_prev = loglik
    except _CHAIN_INTERRUPTIONS as exc:
        interruption = f"{type(exc).__name__}: {exc}"
    return _ChainOutcome(psis=psis, logliks=logliks, converged=converged,
                         interruption=interruption)


def run_sem(data: Dataset, spec: MixtureSpec, opts: SemOptions,
            method: str = "ml", tuning: TuningParams | None = None,
            anchors: Coefficients | None = None, *,
            psi0: Coefficients | None = None,
            on_iteration: IterationHook | None = None,
            retune: Retuner | None = None) -> FitResult:
    """Run ``opts.n_restarts`` chains and keep the best final estimate.

    Chains that lose a component to an empty stochastic assignment or
    hit a singular unpenalized system are recorded as failed restarts;
    if every restart fails a :class:`FitFailed` is raised with the
    per-restart diagnostics.
    """
    if method not in ("ml", "ridge", "lt"):
        raise ValueError(f"unknown method {method!r}")
    best: tuple[float, Coefficients, int, _ChainOutcome] | None = None
    failures: list[str] = []
    for restart in range(opts.n_restarts):
        rng = np.random.default_rng(
            np.random.SeedSequence(opts.rng_seed, spawn_key=(restart,)))
        outcome = _run_chain(data, spec, opts, method, tuning, anchors,
                             rng, psi0, on_iteration, retune)
        if not outcome.psis:
            failures.append(f"restart {restart}: "
                            f"{outcome.interruption or 'no iterations'}")
            continue
        try:
            psi_sel, index_sel, loglik_sel = outcome.select(opts, data)
        except _CHAIN_INTERRUPTIONS as exc:
            failures.append(f"restart {restart}: selection failed: {exc}")
            continue
        if best is None or loglik_sel > best[0]:
            best = (loglik_sel, psi_sel, index_sel, outcome)
    if best is None:
        raise FitFailed(f"all {opts.n_restarts} restarts failed", failures)
    _, psi_sel, index_sel, outcome = best
    return FitResult(psi_hat=psi_sel,
                     loglik_trace=np.asarray(outcome.logliks),
                     converged=outcome.converged,
                     iterations_run=len(outcome.logliks),
                     selected_iteration=index_sel,
                     tuning=tuning if method != "ml" else None,
                     method=method,
                     n_failed_restarts=len(failures))
