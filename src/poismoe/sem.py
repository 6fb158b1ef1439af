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

The restarts of a fit share their data, so one driver advances them in
lockstep: every array of an iteration carries a leading chain axis B,
the chains still running, and each step (E, S, the beta systems and
their solve, the gate ascent, the LT retune) is one stacked computation
for all of them, handed the arrays the loop holds: the S-step's (B, n)
labels, the lambdas and each iteration's d. One chain is the B=1 case
of the same loop. Each chain keeps its own random stream and every
stacked product rounds a chain's rows as a call of its own would, so a
chain's iterates do not depend on which other chains run beside it. A
chain that stops leaves the batch and the others go on unchanged. A
step that raises for the batch is retried chain by chain: the chains
that raise alone are interrupted, and the others take the step again
as one batch, with the bits each got alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import (DimensionError, EmptyPartition, FitFailed,
                     NumericalFailure, TuningFailed)
from .gating import coordinate_descent_alphas, gating_log_probabilities
from .metrics import align_components
from .model import (Coefficients, Dataset, FitResult, MixtureSpec,
                    SemOptions, TuningParams, draw_labels, e_step,
                    observed_loglik)
from .poisson import ComponentWorkspace, build_workspace, irwls_beta_step

__all__ = [
    "s_step",
    "m_step",
    "initialize",
    "run_sem",
]

# retune(workspace, log_pi) -> a Liu-type M-step's d; see run_sem.
Retuner = Callable[[ComponentWorkspace, np.ndarray], tuple]


# The S-step (see draw_labels). A draw may leave a component empty;
# ``build_workspace`` raises :class:`EmptyPartition` for it.
s_step = draw_labels


def m_step(data: Dataset, labels: np.ndarray, psi_t: Coefficients,
           lam: tuple[np.ndarray, np.ndarray] | None = None,
           d: tuple[np.ndarray, np.ndarray] | None = None, *,
           workspace: ComponentWorkspace | None = None,
           log_pi: np.ndarray | None = None) -> Coefficients:
    """Refit all component regressions and the gating network once.

    Every beta takes one IRWLS step from ``psi_t`` on its component's
    rows of the partition ``labels``, all J in one stacked solve of the
    class-major systems of ``workspace`` (``build_workspace(data,
    labels, psi_t.beta)``, built here when not given); the gate is refit
    by :func:`coordinate_descent_alphas`. ``lam`` holds the ridge
    lambdas ``(lambda_beta, lambda_alpha)``, one per component or class,
    and ``d`` the Liu-type bias corrections ``(d_beta, d_alpha)``;
    ``lam=None`` is ML and ``d=None`` ridge, as in every solver below,
    and a ``d`` without ``lam`` raises ``ValueError``. Every Liu-type
    update is the shrinkage ``S^-1 (S - d I) b_r`` of its ridge result
    b_r, the estimator the tuning MSE scores: for beta the ridge IRWLS
    step, for the gate the ridge ascent's result, shrunk on its last
    Newton system.
    ``log_pi``, when given, is the (J, n) gate log-softmax at
    ``psi_t.alpha``; the gate ascent starts from it and leaves in it the
    log-softmax of the new gating rows.

    A batch of chains runs as one M-step: ``psi_t``, ``labels``,
    ``workspace`` and ``log_pi`` carry a leading chain axis, the lambdas
    are shared and the bias corrections are shared or (B, J), one row
    per chain. The beta systems are one stacked solve and the gates one
    lockstep ascent; the result is every chain's update, each bit for
    bit its own call's. A failure in any chain raises for the batch, and
    ``build_workspace`` and the gate check the labels' shape and range.
    """
    if lam is None and d is not None:
        raise ValueError("a Liu-type M-step needs the ridge lambdas of its d")
    lam_beta, lam_alpha = (None, None) if lam is None else lam
    d_beta, d_alpha = (None, None) if d is None else d
    if workspace is None:
        workspace = build_workspace(data, labels, psi_t.beta)
    beta_new = irwls_beta_step(workspace, lam_beta, d_beta)
    alpha_new = coordinate_descent_alphas(
        data.Omega, psi_t.alpha, labels, lam_alpha, d_alpha,
        psi_t.reference_class, basis=data.Omega_outer, log_pi=log_pi)
    return Coefficients(beta=beta_new, alpha=alpha_new,
                        reference_class=psi_t.reference_class)


def _fill_empty_groups(assignment: np.ndarray, n_components: int) -> np.ndarray:
    """Move single observations out of the largest group until none is empty."""
    assignment = np.array(assignment, dtype=np.int64)
    if assignment.shape[0] < n_components:
        raise DimensionError("fewer observations than components")
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
    those updates fails (a degenerate group, an overflowing mean), every
    component keeps its intercept-only start. The gating starts at zero.
    """
    n_components = spec.n_components
    assignment = _fill_empty_groups(
        rng.integers(0, n_components, size=data.n), n_components)
    start = np.zeros((n_components, data.p))
    start[:, 0] = np.log(np.bincount(assignment, weights=data.y,
                                     minlength=n_components)
                         / np.bincount(assignment, minlength=n_components)
                         + 0.5)
    beta = start
    try:
        for _ in range(3):
            beta = irwls_beta_step(build_workspace(data, assignment, beta))
    except NumericalFailure:  # SingularSystem included
        beta = start
    return Coefficients(beta=beta, alpha=np.zeros((n_components, data.q)),
                        reference_class=spec.reference_class)


@dataclass
class _ChainOutcome:
    """One restart's completed iterates, kept as the batch arrays' rows;
    ``ds`` holds a retuned chain's (d_beta, d_alpha) rows per iterate
    and ``end`` its entry of ``FitResult.restart_ends``."""

    reference_class: int
    betas: list[np.ndarray] = field(default_factory=list)
    alphas: list[np.ndarray] = field(default_factory=list)
    logliks: list[float] = field(default_factory=list)
    ds: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    end: str = "cap"

    def psi(self, index: int) -> Coefficients:
        return Coefficients(beta=self.betas[index], alpha=self.alphas[index],
                            reference_class=self.reference_class)

    def select(self, opts: SemOptions, data: Dataset) -> tuple[Coefficients, int, float]:
        iterations = len(self.logliks)
        start = opts.burn_in if opts.burn_in < iterations else 0
        trace = np.asarray(self.logliks)
        best_index = start + int(np.argmax(trace[start:]))
        if opts.estimate_selection == "best_loglik":
            return self.psi(best_index), best_index, float(trace[best_index])
        reference = self.psi(best_index)
        betas, alphas = [], []
        for index in range(start, iterations):
            psi = self.psi(index)
            aligned = psi.permute(align_components(psi, reference))
            betas.append(aligned.beta)
            alphas.append(aligned.alpha)
        psi_mean = Coefficients(beta=np.mean(betas, axis=0),
                                alpha=np.mean(alphas, axis=0),
                                reference_class=reference.reference_class)
        return psi_mean, best_index, observed_loglik(data, psi_mean)


# NumericalFailure covers SingularSystem.
_CHAIN_INTERRUPTIONS = (EmptyPartition, NumericalFailure, TuningFailed)


@dataclass
class _Batch:
    """The chains still running, one row each: ``chains`` holds their
    restart numbers, ``psi`` their iterates (with a chain axis),
    ``log_pi`` the (B, J, n) gate log-softmax at ``psi.alpha``, ``tau``
    and ``loglik`` its E-step, ``previous`` the log-likelihood of each
    chain's preceding iterate and ``d`` a retune's (d_beta, d_alpha)."""

    chains: list[int]
    psi: Coefficients
    log_pi: np.ndarray
    tau: np.ndarray | None = None
    loglik: list[float] | None = None
    previous: list[float] | None = None
    d: tuple[np.ndarray, np.ndarray] | None = None

    def take(self, rows: list[int]) -> "_Batch":
        """The state the chains in ``rows`` need for their next step (an
        iterate's ``previous`` and ``d`` are recorded by then)."""
        return _Batch(chains=[self.chains[row] for row in rows],
                      psi=Coefficients(beta=self.psi.beta[rows],
                                       alpha=self.psi.alpha[rows],
                                       reference_class=self.psi.reference_class),
                      log_pi=self.log_pi[rows],
                      tau=None if self.tau is None else self.tau[rows],
                      loglik=[self.loglik[row] for row in rows]
                      if self.loglik is not None else None)


def _step_survivors(step, batch: _Batch, labels: np.ndarray | None,
                    outcomes: list[_ChainOutcome]) -> _Batch | None:
    """``step(batch, labels)`` for the whole batch. If it raises a chain
    interruption, the step is retried for each chain alone: the chains
    that raise end with their own reason, and the others take the step
    once more as one batch. A chain's result does not depend on the
    chains beside it, so each survivor gets what it got alone."""
    try:
        return step(batch, labels)
    except _CHAIN_INTERRUPTIONS:
        pass

    def take(rows: list[int]) -> tuple[_Batch, np.ndarray | None]:
        return batch.take(rows), None if labels is None else labels[rows]

    rows = []
    for row, chain in enumerate(batch.chains):
        try:
            step(*take([row]))
            rows.append(row)
        except _CHAIN_INTERRUPTIONS as exc:
            outcomes[chain].end = f"{type(exc).__name__}: {exc}"
    return step(*take(rows)) if rows else None


def _run_chains(data: Dataset, spec: MixtureSpec, opts: SemOptions,
                lam: tuple[np.ndarray, np.ndarray] | None,
                rngs: Sequence[np.random.Generator],
                retune: Retuner | None) -> list[_ChainOutcome]:
    """Every chain of a fit, advanced in lockstep; an interruption keeps
    the iterates a chain completed so far.

    Each chain starts from :func:`initialize` with its own generator; no
    start is interrupted, since ``run_sem`` refuses fewer observations
    than components and the warm start keeps its own failures.
    Each lockstep iteration then takes one ``s_step``, one
    ``build_workspace``, one retune (Liu-type only), one :func:`m_step`
    (``lam`` and the retuned d) and one ``e_step`` for the whole batch, and
    records each chain's new iterate; the posterior of each E-step feeds
    the next S-step, and the gate log-softmax passes from E-step to gate
    ascent and back without being recomputed. Each chain's ``end`` says
    how it left the batch: ``"epsilon"`` when its log-likelihood change
    falls below ``epsilon``, ``"cap"`` for a chain still running at
    ``opts.max_iters``, or an interruption's ``"Type: message"``. An
    interruption (see :func:`run_sem`) belongs to one chain: it ends
    that chain the way the stopping rule would, and the other chains go
    on. A step that raises an interruption, an empty component drawn by
    the S-step included, is retried chain by chain to find which chains
    raise, and the others take it again as one batch. A chain
    interrupted before its first completed iteration has nothing to
    select from and counts as a failed restart.
    """
    outcomes = [_ChainOutcome(reference_class=spec.reference_class)
                for _ in rngs]
    starts = [initialize(data, spec, rng) for rng in rngs]
    alpha = np.stack([start.alpha for start in starts])
    batch = _Batch(chains=list(range(len(rngs))),
                   psi=Coefficients(beta=np.stack([s.beta for s in starts]),
                                    alpha=alpha,
                                    reference_class=spec.reference_class),
                   log_pi=gating_log_probabilities(data.Omega, alpha))

    def start(batch: _Batch, labels: None) -> _Batch:
        tau, loglik = e_step(data, batch.psi, batch.log_pi)
        return replace(batch, tau=tau, loglik=loglik.tolist())

    def iterate(batch: _Batch, labels: np.ndarray) -> _Batch:
        workspace = build_workspace(data, labels, batch.psi.beta)
        d_t = None if retune is None else retune(workspace, batch.log_pi)
        log_pi = batch.log_pi.copy()  # the batch's stays for a retry
        psi = m_step(data, labels, batch.psi, lam, d_t, workspace=workspace,
                     log_pi=log_pi)
        tau, loglik = e_step(data, psi, log_pi)
        return _Batch(chains=batch.chains, psi=psi, log_pi=log_pi, tau=tau,
                      loglik=loglik.tolist(), previous=batch.loglik, d=d_t)

    batch = _step_survivors(start, batch, None, outcomes)
    for _ in range(opts.max_iters):
        if batch is None:
            break
        labels = s_step(batch.tau, [rngs[chain] for chain in batch.chains])
        batch = _step_survivors(iterate, batch, labels, outcomes)
        if batch is None:
            break
        stopped = False
        for row, (chain, loglik, previous) in enumerate(
                zip(batch.chains, batch.loglik, batch.previous)):
            outcome = outcomes[chain]
            outcome.betas.append(batch.psi.beta[row])
            outcome.alphas.append(batch.psi.alpha[row])
            outcome.logliks.append(loglik)
            if batch.d is not None:
                outcome.ds.append((batch.d[0][row], batch.d[1][row]))
            if abs(loglik - previous) < opts.epsilon:
                outcome.end = "epsilon"
                stopped = True
        if stopped:
            rows = [row for row, chain in enumerate(batch.chains)
                    if outcomes[chain].end == "cap"]
            if not rows:
                break
            batch = batch.take(rows)
    return outcomes


def run_sem(data: Dataset, spec: MixtureSpec, opts: SemOptions,
            method: str = "ml", tuning: TuningParams | None = None, *,
            retune: Retuner | None = None) -> FitResult:
    """Run ``opts.n_restarts`` chains and keep the best final estimate.

    The restarts run in lockstep as one batch of chains (see the module
    notes); restart r draws from
    ``SeedSequence(opts.rng_seed, spawn_key=(r,))`` and gives the same
    chain whether it runs alone or beside others.
    ``retune(workspace, log_pi)``, required for ``"lt"`` and refused
    otherwise (``ValueError``), is the Liu-type d's one source: it supplies
    each M-step's ``(d_beta, d_alpha)`` under the lambdas of ``tuning``,
    from the systems of the partitions just drawn at the current iterates
    and the iterates' gate log-softmax, for the whole batch: ``workspace``
    and ``log_pi`` carry a leading chain axis, and each d is (B, J).
    A chain is interrupted by an empty assignment, a failed retune or a
    :class:`NumericalFailure`: a singular or indefinite system, an
    overflowing Poisson mean, a non-finite gate objective or
    log-likelihood; the interruption ends that chain only. If every
    restart fails a :class:`FitFailed` is raised with each restart's
    end, in restart order; fewer observations than components raise
    :class:`DimensionError` before any chain runs.
    ``FitResult.tuning`` holds the tuning the selected iteration's M-step
    used, for the selected chain: None for ML, ``tuning`` for ridge, and
    its lambdas with that iteration's retuned d for Liu-type. A chain
    that stops before ``burn_in`` selects among all its iterates.
    """
    if method not in ("ml", "ridge", "lt"):
        raise ValueError(f"unknown method {method!r}")
    if method != "ml" and tuning is None:
        raise ValueError(f"method {method!r} requires tuning parameters")
    if (retune is not None) != (method == "lt"):
        raise ValueError("a Liu-type fit, and only one, needs a retuner")
    if data.n < spec.n_components:
        raise DimensionError("fewer observations than components")
    rngs = [np.random.default_rng(
        np.random.SeedSequence(opts.rng_seed, spawn_key=(restart,)))
        for restart in range(opts.n_restarts)]
    lam = None if method == "ml" else (tuning.lambda_beta,
                                       tuning.lambda_alpha)
    outcomes = _run_chains(data, spec, opts, lam, rngs, retune)
    best: tuple[float, Coefficients, int, _ChainOutcome] | None = None
    failures: list[str] = []
    for restart, outcome in enumerate(outcomes):
        if not outcome.logliks:
            failures.append(f"restart {restart}: {outcome.end}")
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
    if retune is not None:
        d_beta, d_alpha = outcome.ds[index_sel]
        tuning = replace(tuning, d_beta=d_beta, d_alpha=d_alpha)
    return FitResult(psi_hat=psi_sel,
                     loglik_trace=np.asarray(outcome.logliks),
                     converged=outcome.end == "epsilon",
                     selected_iteration=index_sel,
                     tuning=None if method == "ml" else tuning,
                     method=method,
                     n_failed_restarts=len(failures),
                     restart_ends=tuple(chain.end for chain in outcomes))
