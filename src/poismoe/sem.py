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
for all of them. One chain is the B=1 case of the same loop. Each chain
keeps its own random stream and every stacked product rounds a chain's
rows as a call of its own would, so a chain's iterates do not depend on
which other chains run beside it. A chain that stops, or is
interrupted, leaves the batch and the others go on unchanged.
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


def _empty_partition(counts: np.ndarray) -> EmptyPartition:
    empty = int(np.flatnonzero(counts == 0)[0])
    return EmptyPartition(f"component {empty} received no observations")


def s_step(tau: np.ndarray,
           rng: np.random.Generator | Sequence[np.random.Generator]
           ) -> PartitionState:
    """Draw one hard component assignment per row of ``tau``.

    ``tau`` is one chain's (n, J) posterior with its generator, or a
    (B, n, J) batch of chains with one generator per chain, each drawing
    its chain's uniforms as it would alone. One chain's empty component
    raises :class:`EmptyPartition`; a batch returns every chain's draw,
    and the caller ends the chains whose ``counts`` hold a zero.
    """
    tau = np.asarray(tau, dtype=float)
    part = PartitionState.from_assignment(draw_labels(tau, rng), tau.shape[-1])
    if tau.ndim == 2 and (part.counts == 0).any():
        raise _empty_partition(part.counts)
    return part


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
    of ``method``, one per component or class. Every Liu-type update is
    the shrinkage ``S^-1 (S - d I) b_r`` of its ridge result b_r, the
    estimator the tuning MSE scores: for beta the ridge IRWLS step, for
    the gate the ridge ascent's result, shrunk on its last Newton system.
    ``log_pi``, when given, is the (J, n) gate log-softmax at
    ``psi_t.alpha``; the gate ascent starts from it and leaves in it the
    log-softmax of the new gating rows.

    A batch of chains runs as one M-step: ``psi_t``, ``part``,
    ``workspace`` and ``log_pi`` carry a leading chain axis, the lambdas
    are shared and the bias corrections are shared or (B, J), one row
    per chain. The beta systems are one stacked solve and the gates one
    lockstep ascent; the result is every chain's update, each bit for
    bit its own call's. A failure in any chain raises for the batch.
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
    """One restart's completed iterates, kept as the batch arrays' rows.

    ``tunings`` holds, per iterate, the M-step's tuning and the chain's
    row in its (B, J) bias corrections, or None when they are shared.
    """

    reference_class: int
    betas: list[np.ndarray] = field(default_factory=list)
    alphas: list[np.ndarray] = field(default_factory=list)
    logliks: list[float] = field(default_factory=list)
    tunings: list[tuple[TuningParams | None, int | None]] = field(
        default_factory=list)
    converged: bool = False
    interruption: str | None = None

    def psi(self, index: int) -> Coefficients:
        return Coefficients(beta=self.betas[index], alpha=self.alphas[index],
                            reference_class=self.reference_class)

    def tuning(self, index: int) -> TuningParams | None:
        tuning, row = self.tunings[index]
        if row is None:
            return tuning
        return tuning.with_bias_corrections(tuning.d_beta[row],
                                            tuning.d_alpha[row])

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


def _interruption(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


@dataclass
class _Batch:
    """The chains still running, one row each: ``chains`` holds their
    restart numbers, ``psi`` their iterates (with a chain axis),
    ``log_pi`` the (B, J, n) gate log-softmax at ``psi.alpha``, ``tau``
    and ``loglik`` its E-step, ``previous`` the log-likelihood of each
    chain's preceding iterate and ``tuning`` the M-step's tuning."""

    chains: list[int]
    psi: Coefficients
    log_pi: np.ndarray
    tau: np.ndarray | None = None
    loglik: list[float] | None = None
    previous: list[float] | None = None
    tuning: TuningParams | None = None

    def take(self, rows: list[int]) -> "_Batch":
        """The state the chains in ``rows`` need for their next step (an
        iterate's ``previous`` and ``tuning`` are recorded by then)."""
        return _Batch(chains=[self.chains[row] for row in rows],
                      psi=Coefficients(beta=self.psi.beta[rows],
                                       alpha=self.psi.alpha[rows],
                                       reference_class=self.psi.reference_class),
                      log_pi=self.log_pi[rows],
                      tau=None if self.tau is None else self.tau[rows],
                      loglik=[self.loglik[row] for row in rows]
                      if self.loglik is not None else None)

    @staticmethod
    def concatenate(parts: list["_Batch"]) -> "_Batch":
        """One batch of the chains of ``parts``, each re-run alone and
        recorded; their tunings were each their own, so none is kept."""
        if len(parts) == 1:
            return parts[0]
        first = parts[0]
        return _Batch(
            chains=[chain for part in parts for chain in part.chains],
            psi=Coefficients(beta=np.concatenate([b.psi.beta for b in parts]),
                             alpha=np.concatenate([b.psi.alpha for b in parts]),
                             reference_class=first.psi.reference_class),
            log_pi=np.concatenate([b.log_pi for b in parts]),
            tau=np.concatenate([b.tau for b in parts]),
            loglik=[value for part in parts for value in part.loglik],
            previous=(None if first.previous is None else
                      [value for part in parts for value in part.previous]))


def _take_part(part: PartitionState | None,
               rows: list[int]) -> PartitionState | None:
    return None if part is None else PartitionState(
        assignment=part.assignment[rows], counts=part.counts[rows])


def _each_chain_on_failure(step, batch: _Batch, part: PartitionState | None,
                           outcomes: list[_ChainOutcome],
                           record) -> _Batch | None:
    """``step(batch, part)`` for the whole batch; if it raises a chain
    interruption, the same step for each chain alone, so that only the
    failing chains end, each with its own reason. Every step is
    deterministic given its inputs, so a chain re-run alone computes what
    it computed in the batch. ``record(batch)`` stores each surviving
    chain's new iterate; the survivors come back as one batch."""
    try:
        done = step(batch, part)
    except _CHAIN_INTERRUPTIONS as exc:
        if len(batch.chains) == 1:
            outcomes[batch.chains[0]].interruption = _interruption(exc)
            return None
        survivors = [_each_chain_on_failure(step, batch.take([row]),
                                            _take_part(part, [row]),
                                            outcomes, record)
                     for row in range(len(batch.chains))]
        survivors = [chain for chain in survivors if chain is not None]
        return _Batch.concatenate(survivors) if survivors else None
    record(done)
    return done


def _run_chains(data: Dataset, spec: MixtureSpec, opts: SemOptions,
                method: str, tuning: TuningParams | None,
                rngs: Sequence[np.random.Generator],
                retune: Retuner | None) -> list[_ChainOutcome]:
    """Every chain of a fit, advanced in lockstep; an interruption keeps
    the iterates a chain completed so far.

    Each chain starts from :func:`initialize` with its own generator.
    Each lockstep iteration then takes one ``s_step``, one
    ``build_workspace``, one retune, one :func:`m_step` and one
    ``e_step`` for the whole batch; the posterior of each E-step feeds
    the next S-step, and the gate log-softmax passes from E-step to gate
    ascent and back without being recomputed. A chain leaves the batch
    when its log-likelihood change falls below ``epsilon`` (converged),
    and all stop at ``opts.max_iters``. An interruption (see
    :func:`run_sem`) belongs to one chain: it ends that chain the way the
    stopping rule would, except ``converged`` stays False and the cause
    is recorded, and the other chains go on. An empty component is read
    from the drawn counts; any other interruption re-runs the step chain
    by chain to find which chains raise. A chain interrupted before its
    first completed iteration has nothing to select from and counts as a
    failed restart.
    """
    outcomes = [_ChainOutcome(reference_class=spec.reference_class)
                for _ in rngs]
    starts, chains = [], []
    for chain, rng in enumerate(rngs):
        try:
            starts.append(initialize(data, spec, rng))
            chains.append(chain)
        except _CHAIN_INTERRUPTIONS as exc:
            outcomes[chain].interruption = _interruption(exc)
    if not starts:
        return outcomes
    alpha = np.stack([start.alpha for start in starts])
    batch = _Batch(chains=chains,
                   psi=Coefficients(beta=np.stack([s.beta for s in starts]),
                                    alpha=alpha,
                                    reference_class=spec.reference_class),
                   log_pi=gating_log_probabilities(data.Omega, alpha))

    def start(batch: _Batch, part: None) -> _Batch:
        tau, loglik = e_step(data, batch.psi, batch.log_pi)
        return replace(batch, tau=tau, loglik=loglik.tolist())

    def iterate(batch: _Batch, part: PartitionState) -> _Batch:
        workspace = build_workspace(data, part, batch.psi.beta)
        tuning_t = (tuning if retune is None
                    else retune(data, workspace, batch.log_pi))
        log_pi = batch.log_pi.copy()  # the batch's stays for a re-run
        psi = m_step(data, part, batch.psi, method=method, tuning=tuning_t,
                     workspace=workspace, log_pi=log_pi)
        tau, loglik = e_step(data, psi, log_pi)
        return _Batch(chains=batch.chains, psi=psi, log_pi=log_pi, tau=tau,
                      loglik=loglik.tolist(), previous=batch.loglik,
                      tuning=tuning_t)

    def record(batch: _Batch) -> None:
        if batch.previous is None:
            return
        shared = batch.tuning is None or batch.tuning.d_beta.ndim < 2
        for row, (chain, loglik) in enumerate(zip(batch.chains,
                                                  batch.loglik)):
            outcome = outcomes[chain]
            outcome.betas.append(batch.psi.beta[row])
            outcome.alphas.append(batch.psi.alpha[row])
            outcome.logliks.append(loglik)
            outcome.tunings.append((batch.tuning, None if shared else row))

    batch = _each_chain_on_failure(start, batch, None, outcomes, record)
    for _ in range(opts.max_iters):
        if batch is None:
            break
        part = s_step(batch.tau, [rngs[chain] for chain in batch.chains])
        counts = part.counts.tolist()
        if any(0 in row for row in counts):
            for chain, row in zip(batch.chains, counts):
                if 0 in row:
                    outcomes[chain].interruption = _interruption(
                        _empty_partition(np.array(row)))
            rows = [row for row, sizes in enumerate(counts) if 0 not in sizes]
            if not rows:
                break
            batch, part = batch.take(rows), _take_part(part, rows)
        batch = _each_chain_on_failure(iterate, batch, part, outcomes, record)
        if batch is None:
            break
        converged = [abs(loglik - previous) < opts.epsilon
                     for loglik, previous in zip(batch.loglik, batch.previous)]
        if any(converged):
            for chain, done in zip(batch.chains, converged):
                outcomes[chain].converged = done
            rows = [row for row, done in enumerate(converged) if not done]
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
    ``retune(data, workspace, log_pi)``, when given, supplies each
    M-step's tuning from the systems of the partitions just drawn at the
    current iterates and the iterates' gate log-softmax, for the whole
    batch: ``workspace`` and ``log_pi`` carry a leading chain axis, and
    the returned bias corrections are shared or (B, J), one row per chain.
    A chain is interrupted by an empty assignment, a failed retune or a
    :class:`NumericalFailure`: a singular or indefinite system, an
    overflowing Poisson mean, a non-finite gate objective or
    log-likelihood; the interruption ends that chain only. If every
    restart fails a :class:`FitFailed` is raised with the per-restart
    diagnostics, in restart order; fewer observations than components
    raise :class:`DimensionError` before any chain runs.
    ``FitResult.tuning`` holds the tuning the selected iteration's M-step
    used, for the selected chain.
    """
    if method not in ("ml", "ridge", "lt"):
        raise ValueError(f"unknown method {method!r}")
    if data.n < spec.n_components:
        raise DimensionError("fewer observations than components")
    rngs = [np.random.default_rng(
        np.random.SeedSequence(opts.rng_seed, spawn_key=(restart,)))
        for restart in range(opts.n_restarts)]
    outcomes = _run_chains(data, spec, opts, method, tuning, rngs, retune)
    best: tuple[float, Coefficients, int, _ChainOutcome] | None = None
    failures: list[str] = []
    for restart, outcome in enumerate(outcomes):
        if not outcome.logliks:
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
                     tuning=outcome.tuning(index_sel) if method != "ml" else None,
                     method=method,
                     n_failed_restarts=len(failures))
