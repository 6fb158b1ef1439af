"""Stochastic EM driver.

Each iteration draws a hard assignment (S) from the posterior component
probabilities (E) and refits the component regressions and the gating
network on the partitioned data (M). One pass over the mixture
log-terms of each iterate gives both its posterior, which feeds the
next S-step, and its observed log-likelihood. The chain stops when the
observed log-likelihood change falls below ``epsilon`` or at the
iteration cap; several independent restarts are run and the best chain
is kept. Because the chain fluctuates rather than converges point-wise,
the returned estimate is either the post-burn-in iterate with the best
observed log-likelihood (default) or the label-aligned post-burn-in
mean.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EmptyPartition, FitFailed, NumericalFailure, TuningFailed
from .gating import coordinate_descent_alphas, gating_log_probabilities
from .metrics import align_components
from .model import (Coefficients, Dataset, FitResult, MixtureSpec,
                    PartitionState, SemOptions, TuningParams, draw_labels,
                    e_step, observed_loglik)
from .poisson import ComponentWorkspace, build_workspace, irwls_beta_step

__all__ = [
    "s_step",
    "m_step",
    "initialize",
    "run_sem",
]

Retuner = Callable[[Dataset, ComponentWorkspace, np.ndarray], TuningParams]


def s_step(tau: np.ndarray, rng: np.random.Generator) -> PartitionState:
    """Draw one hard component assignment per row of ``tau``."""
    tau = np.asarray(tau, dtype=float)
    assignment = draw_labels(tau, rng)
    counts = np.bincount(assignment, minlength=tau.shape[1])
    if (counts == 0).any():
        empty = int(np.flatnonzero(counts == 0)[0])
        raise EmptyPartition(f"component {empty} received no observations")
    return PartitionState(assignment=assignment, counts=counts)


def m_step(data: Dataset, part: PartitionState, psi_t: Coefficients,
           method: str = "ml", tuning: TuningParams | None = None, *,
           workspace: ComponentWorkspace | None = None,
           log_pi: np.ndarray | None = None) -> Coefficients:
    """Refit all component regressions and the gating network once.

    Every beta takes one IRWLS step from ``psi_t`` on its component's
    rows, all J in one stacked solve of the class-major systems of
    ``workspace`` (``build_workspace(data, part, psi_t.beta)``, built
    here when not given); the gate is refit by
    :func:`coordinate_descent_alphas` at its default tolerance and step
    cap. ``tuning`` holds the ridge lambdas and Liu-type bias corrections
    of ``method``, one per component or class; every Liu-type update
    anchors on its own ridge solve, the estimator form the tuning MSE
    describes. ``log_pi``, when given, is the (J, n) gate log-softmax at
    ``psi_t.alpha``; the gate ascent starts from it and leaves in it the
    log-softmax of the new gating rows.
    """
    lam_beta = lam_alpha = d_beta = d_alpha = None
    if method != "ml":
        if tuning is None:
            raise ValueError(f"method {method!r} requires tuning parameters")
        lam_beta, lam_alpha = tuning.lambda_beta, tuning.lambda_alpha
        if method == "lt":
            d_beta, d_alpha = tuning.d_beta, tuning.d_alpha
        elif method != "ridge":
            raise ValueError(f"unknown method {method!r}")
    if workspace is None:
        workspace = build_workspace(data, part, psi_t.beta)
    beta_new = irwls_beta_step(workspace, lam_beta, d_beta)
    alpha_new = coordinate_descent_alphas(
        data.Omega, psi_t.alpha, part, lam_alpha, d_alpha,
        psi_t.reference_class, basis=data.Omega_outer, log_pi=log_pi)
    return Coefficients(beta=beta_new, alpha=alpha_new,
                        reference_class=psi_t.reference_class)


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


def initialize(data: Dataset, spec: MixtureSpec,
               rng: np.random.Generator) -> Coefficients:
    """Starting coefficients from a uniform random split of the observations.

    The split is one partition, and every component's beta is warmed up
    on it from the intercept-only start log(mean y_j + 0.5) by three
    unpenalized stacked M-step updates, ``irwls_beta_step`` of
    ``build_workspace``, the path every later M-step takes. If any of
    those solves refuses (a degenerate group), every component keeps its
    intercept-only start. The gating starts at zero.
    """
    n_components = spec.n_components
    assignment = _fill_empty_groups(
        rng.integers(0, n_components, size=data.n), n_components)
    part = PartitionState.from_assignment(assignment, n_components)
    start = np.zeros((n_components, data.p))
    start[:, 0] = np.log(np.bincount(assignment, weights=data.y,
                                     minlength=n_components)
                         / part.counts + 0.5)
    beta = start
    try:
        for _ in range(3):
            beta = irwls_beta_step(build_workspace(data, part, beta))
    except NumericalFailure:  # SingularSystem included
        beta = start
    return Coefficients(beta=beta, alpha=np.zeros((n_components, data.q)),
                        reference_class=spec.reference_class)


@dataclass
class _ChainOutcome:
    psis: list[Coefficients]
    logliks: list[float]
    tunings: list[TuningParams | None]
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


# NumericalFailure covers SingularSystem.
_CHAIN_INTERRUPTIONS = (EmptyPartition, NumericalFailure, TuningFailed)


def _run_chain(data: Dataset, spec: MixtureSpec, opts: SemOptions, method: str,
               tuning: TuningParams | None, rng: np.random.Generator,
               retune: Retuner | None) -> _ChainOutcome:
    """One chain; an interruption keeps the iterates completed so far.

    Each iterate gets one ``e_step``, whose posterior feeds the next
    S-step. Each M-step's systems are built once, for the retune and the
    update alike, and the gate log-softmax passes from E-step to gate
    ascent and back without being recomputed. Empty partitions and
    singular systems end the chain the way the stopping rule would,
    except ``converged`` stays False and the cause is recorded. A chain
    interrupted before its first completed iteration has nothing to
    select from and counts as a failed restart.
    """
    psis: list[Coefficients] = []
    logliks: list[float] = []
    tunings: list[TuningParams | None] = []
    converged = False
    interruption = None
    tuning_t = tuning
    try:
        psi = initialize(data, spec, rng)
        log_pi = gating_log_probabilities(data.Omega, psi.alpha)
        tau, loglik_prev = e_step(data, psi, log_pi)
        for _ in range(opts.max_iters):
            part = s_step(tau, rng)
            workspace = build_workspace(data, part, psi.beta)
            if retune is not None:
                tuning_t = retune(data, workspace, log_pi)
            psi = m_step(data, part, psi, method=method, tuning=tuning_t,
                         workspace=workspace, log_pi=log_pi)
            tau, loglik = e_step(data, psi, log_pi)
            psis.append(psi)
            logliks.append(loglik)
            tunings.append(tuning_t)
            if abs(loglik - loglik_prev) < opts.epsilon:
                converged = True
                break
            loglik_prev = loglik
    except _CHAIN_INTERRUPTIONS as exc:
        interruption = f"{type(exc).__name__}: {exc}"
    return _ChainOutcome(psis=psis, logliks=logliks, tunings=tunings,
                         converged=converged, interruption=interruption)


def run_sem(data: Dataset, spec: MixtureSpec, opts: SemOptions,
            method: str = "ml", tuning: TuningParams | None = None, *,
            retune: Retuner | None = None) -> FitResult:
    """Run ``opts.n_restarts`` chains and keep the best final estimate.

    ``retune(data, workspace, log_pi)``, when given, supplies each
    M-step's tuning from the systems of the partition just drawn at the
    current iterate and the iterate's gate log-softmax.
    Chains that lose a component to an empty stochastic assignment or
    hit a singular unpenalized system are recorded as failed restarts;
    if every restart fails a :class:`FitFailed` is raised with the
    per-restart diagnostics. ``FitResult.tuning`` holds the tuning the
    selected iteration's M-step used.
    """
    if method not in ("ml", "ridge", "lt"):
        raise ValueError(f"unknown method {method!r}")
    best: tuple[float, Coefficients, int, _ChainOutcome] | None = None
    failures: list[str] = []
    for restart in range(opts.n_restarts):
        rng = np.random.default_rng(
            np.random.SeedSequence(opts.rng_seed, spawn_key=(restart,)))
        outcome = _run_chain(data, spec, opts, method, tuning, rng, retune)
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
                     tuning=(outcome.tunings[index_sel] if method != "ml"
                             else None),
                     method=method,
                     n_failed_restarts=len(failures))
