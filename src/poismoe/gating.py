"""Multinomial-logit gating network.

Mixing probabilities follow a softmax over linear scores of the
concomitant covariates, with one class pinned at zero as the reference.
The non-reference rows are refit jointly by penalized Newton ascent on
the assignment log-likelihood: each step solves one stacked
(J-1)q-dimensional system whose blocks are Omega' diag(pi_j(delta_jk -
pi_k)) Omega, with step halving when a step lowers the objective. Every
block comes from one stacked product of the (J-1)^2 block weights with
the outer-product basis of Omega (:func:`~poismoe.linalg.outer_basis`).
Each iterate's log-softmax is computed once, when its objective is
evaluated, and also yields the next step's system. The ascent starts
from the log-softmax the E-step of its start already used and hands the
one of its result back to the next E-step. The ascent is ML or ridge;
a Liu-type gate runs the ridge ascent and then shrinks its result by
one Liu-type step on the last Newton system (Liu 2003; Inan & Erdogan
2013 for the logit model), the form
:func:`~poismoe.linalg.penalized_wls_solve` defines for both sides.

The ascent stops once further steps cannot pay, judged by the Newton
decrement (the objective gain the quadratic model predicts for a full
step) against the tolerance taken relative to the objective
(Boyd & Vandenberghe 2004, sections 9.5-9.6):

* R1, before a trial: a step whose decrement is within the tolerance is
  the last one, and it is taken untried. Its gain is below the
  tolerance and, near the maximum, below the objective's rounding, so a
  trial comparison would only let rounding decide whether to halve it.
  The step still rides the trial round, as kept: the round's
  log-softmax at its rows is the one the ascent hands back;
* R2, after two full steps: Newton's quadratic convergence makes
  delta_k**2 / delta_{k-1} an upper bound on the next decrement (exact at
  a linear rate), so the ascent stops when that bound is within the
  tolerance instead of building a system only to confirm it;
* R3, on a separated tail: on a partition the gate (quasi-)separates the
  objective has no maximizer (Albert & Anderson 1984), alpha drifts
  along the separating direction and the decrements fall linearly or
  slower. The ascent stops when they have fallen by less than half on
  each of the last two full steps, are within ``SEPARATED_TAIL_LEVEL``
  times the tolerance, and could not reach the tolerance within the
  steps left at their current rate, so the step cap would end it with
  a gain of that order anyway.

Every stop (R1, R2/R3, a step that never recovers, the step cap) is one
flag per chain, applied once per Newton step.

Every array over classes and observations here is class-major (J, n),
so a reduction over classes runs over J contiguous rows; only
:func:`gating_probabilities` returns the public (n, J) layout, as a view.
The assignment is the S-step's label array, (n,) or (B, n) for a batch.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DimensionError, NumericalFailure
from .linalg import outer_basis, penalized_wls_solve

# Probabilities are clipped into [PI_FLOOR, 1 - PI_FLOOR] before they
# form the weights pi*(1-pi) of a diagonal Gram block, so that block
# stays positive definite when a class probability underflows.
PI_FLOOR = 1e-10

# R3 ends a separated tail only once its decrements are within this
# multiple of the ascent's tolerance, so it leaves the damped opening
# steps and the quadratic phase of a well-posed ascent alone.
SEPARATED_TAIL_LEVEL = 1e4

# The ascent's tolerance, relative to the objective, and its step cap,
# read each time it runs.
INNER_TOL = 1e-11
INNER_MAX = 50

__all__ = [
    "PI_FLOOR",
    "SEPARATED_TAIL_LEVEL",
    "INNER_TOL",
    "INNER_MAX",
    "log_sum_exp",
    "gating_log_probabilities",
    "gating_probabilities",
    "gate_variance_weights",
    "build_gating_workspace",
    "q1_value",
    "coordinate_descent_alphas",
]


def log_sum_exp(values: np.ndarray) -> np.ndarray:
    """log(sum(exp(values))) over the class axis -2 of a (..., J, n)
    array, as (..., 1, n), ready to broadcast against it, each column
    shifted by its maximum so no exp overflows (an all -inf column: nan)."""
    peak = values.max(axis=-2, keepdims=True)
    return peak + np.log(np.exp(values - peak).sum(axis=-2, keepdims=True))


def gating_log_probabilities(Omega: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Log-softmax of the class scores alpha @ Omega.T, class-major (J, n);
    (B, J, n) for a (B, J, q) batch of chains' rows."""
    scores = np.asarray(alpha, dtype=float) @ Omega.T
    return scores - log_sum_exp(scores)


def gating_probabilities(Omega: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Class probabilities for every row of ``Omega``, one row per
    observation: an (n, J) view of the class-major array, (B, n, J) for
    a (B, J, q) batch of chains' rows.

    Probabilities are shift-invariant in the scores, so they do not
    depend on which class carries the zero vector. Rows sum to one up to
    floating-point rounding.
    """
    return np.exp(gating_log_probabilities(Omega, alpha)).swapaxes(-1, -2)


def gate_variance_weights(pi: np.ndarray) -> np.ndarray:
    """pi (1 - pi) with pi clipped into [PI_FLOOR, 1 - PI_FLOOR]: the
    weights of the diagonal Gram blocks, elementwise."""
    pi = np.minimum(np.maximum(pi, PI_FLOOR), 1.0 - PI_FLOOR)
    return pi * (1.0 - pi)


def build_gating_workspace(Omega: np.ndarray, basis: np.ndarray,
                           log_pi: np.ndarray, coef: np.ndarray,
                           indicator: np.ndarray, free: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Stacked Newton system ``(gram, rhs)`` for the free gating rows.

    ``log_pi`` is the (J, n) log-softmax
    (:func:`gating_log_probabilities`) at the rows whose free part,
    stacked class by class, is ``coef`` (length ``len(free) * q``), and
    ``basis`` is ``outer_basis(Omega)``.
    Block (j, k) of ``gram`` is Omega' diag(pi_j (delta_jk - pi_k))
    Omega, the negative Hessian of the assignment log-likelihood, with
    the diagonal blocks weighted by :func:`gate_variance_weights`; all
    blocks come from one stacked product of their weights with ``basis``
    (``np.vecmat``, see :mod:`~poismoe.linalg`), so relabeling the classes
    permutes the blocks bit for bit.
    ``indicator`` is (len(free), n), one row per free class in the order
    of ``free`` (an index array, or the equivalent slice), holding 1
    where an observation is assigned to that class.
    ``rhs = gram @ coef + Omega'(indicator - pi)``, so
    ``rhs - gram @ coef`` is the stacked gradient of the assignment
    log-likelihood. With a leading chain axis on ``log_pi``, ``coef``
    and ``indicator`` the result is every chain's system, (B, F, F) and
    (B, F), each bit for bit its own call's.
    """
    pi = np.exp(log_pi[..., free, :])
    *lead, m, _ = pi.shape
    q = Omega.shape[1]
    if m == 1:  # one block, diagonal, and one gradient row
        gram = np.vecmat(gate_variance_weights(pi), basis).reshape(
            *lead, q, q)
        gradient = np.vecmat(indicator - pi, Omega)
    else:
        weights = -(pi[..., :, None, :] * pi[..., None, :, :])
        pairs = weights.reshape(*lead, m * m, -1)
        pairs[..., ::m + 1, :] = gate_variance_weights(pi)
        gram = np.vecmat(pairs, basis).reshape(*lead, m, m, q, q)
        gram = gram.swapaxes(-3, -2).reshape(*lead, m * q, m * q)
        # BLAS rounds this product by the layout of its left factor; the
        # transposed (n, F) copy keeps it observation-major (for one row
        # both layouts are the row itself).
        residual = np.ascontiguousarray((indicator - pi).swapaxes(-1, -2))
        gradient = residual.swapaxes(-1, -2) @ Omega
    rhs = np.matvec(gram, coef) + gradient.reshape(*lead, m * q)
    return gram, rhs


def q1_value(log_pi: np.ndarray, picks: np.ndarray) -> float | np.ndarray:
    """Assignment log-likelihood sum_i log pi_{i, z_i} (no penalty terms)
    from the (J, n) log-softmax ``log_pi``. ``picks`` holds the flat
    indices ``z_i * n + i`` of the assigned entries. For a (B, J, n)
    batch of chains ``picks`` is (B, n), flat indices into the batch,
    and the result one value per chain."""
    value = log_pi.take(picks).sum(axis=-1)
    return float(value) if value.ndim == 0 else value


def penalty_value(coef: np.ndarray, lam: np.ndarray | None) -> float | np.ndarray:
    """Ridge term ``-1/2 * sum(lam * coef**2)`` of the gate objective,
    whose gradient ``-lam*coef`` is the shift the solve applies; exactly
    0.0 for ML (``lam=None``). A (B, F) batch gives one value per chain."""
    if lam is None:
        return 0.0
    value = -0.5 * (lam * coef * coef).sum(axis=-1)
    return float(value) if value.ndim == 0 else value


def _further_steps_cannot_pay(decrements: list[float], threshold: float,
                              steps_left: int) -> bool:
    """Rules R2 and R3 on the decrements of the run of full steps that
    ended at the current iterate, oldest first (see the module notes)."""
    if len(decrements) < 2 or not decrements[-2] > 0.0:
        return False
    last = decrements[-1]
    rate = last / decrements[-2]
    if last * rate <= threshold:  # R2: predicted next decrement
        return True
    return (len(decrements) >= 3  # R3: a linear-or-slower tail
            and rate > 0.5 and decrements[-2] > 0.5 * decrements[-3]
            and last <= SEPARATED_TAIL_LEVEL * threshold
            and last * min(rate, 1.0) ** steps_left > threshold)


def coordinate_descent_alphas(Omega: np.ndarray, alpha_t: np.ndarray,
                              labels: np.ndarray,
                              lam: np.ndarray | None, d: np.ndarray | None,
                              reference: int, *,
                              basis: np.ndarray | None = None,
                              log_pi: np.ndarray | None = None) -> np.ndarray:
    """Penalized Newton ascent on all non-reference gating rows jointly.

    The name predates the joint update and stays because the benchmark
    tracer looks this function up by name. Each step solves the whole
    stacked system of :func:`build_gating_workspace` once, through
    ``penalized_wls_solve``. ``lam`` and ``d`` hold one value per class
    (the reference entry is ignored), or are None for ML and ridge as in
    ``penalized_wls_solve``; each free class's value is repeated over its
    q coordinates. The ascent itself is ML (``lam=None``) or ridge; a
    Liu-type call runs the ridge ascent with its ``lam`` and then takes
    one Liu-type step from the ridge result alpha_r on the last Newton
    system built, ``alpha_r - S^-1 (d * alpha_r)`` with S that system's
    ``gram + diag(lam)``.

    The objective F is the penalized assignment log-likelihood
    ``q1_value + penalty_value``. One log-softmax per iterate serves both
    F and the next step's system. A step that lowers F is halved toward
    the current rows up to 10 times; if it never recovers, the current
    rows are kept and the ascent ends; a trial whose F is not finite
    raises :class:`NumericalFailure` instead. The Newton decrement
    ``delta = 1/2 * step' (gram + diag(lam)) step`` of each full step,
    against the tolerance ``INNER_TOL * (1 + |F|)`` with F at the
    current rows, ends the ascent by the rules R1-R3 of the module
    notes, and in any case after ``INNER_MAX`` Newton steps. The
    reference row comes back as zeros.

    ``alpha_t`` is one chain's (J, q) rows with ``labels`` its (n,)
    partition, or a (B, J, q) batch of chains with (B, n) ``labels``, one
    row per chain; ``lam`` is shared by every chain and ``d`` is (J,) or
    one row per chain, (B, J). The chains ascend in lockstep: every
    Newton step and every round of trials is one stacked computation
    over the chains still taking it, and each chain's decrement, rules
    R1-R3 and halvings are its own, so each chain's result is bit for
    bit its own call's. A non-finite trial objective of any chain that
    tries its step raises for the whole call. ``INNER_MAX`` below 1 and a
    label outside [0, J) raise ``ValueError``, labels not shaped one row
    of n per chain :class:`DimensionError`.

    ``basis``, when given, is ``outer_basis(Omega)`` (``Dataset.Omega_outer``).
    ``log_pi``, when given, is the (J, n) (or (B, J, n)) log-softmax at
    ``alpha_t`` (whose reference row must be zero), used instead of
    recomputing it; on return it holds the log-softmax at the returned
    rows.
    """
    if INNER_MAX < 1:
        raise ValueError(f"gating.INNER_MAX must be at least 1: {INNER_MAX}")
    alpha = np.array(alpha_t, dtype=float)
    if labels.shape != alpha.shape[:-2] + Omega.shape[:1]:
        raise DimensionError(f"labels of shape {labels.shape} are not one "
                             f"row of {Omega.shape[0]} per chain of alpha")
    single = alpha.ndim == 2
    if single:
        alpha = alpha[None]
    chains, n_classes, q = alpha.shape
    if not (0 <= labels.min() and labels.max() < n_classes):
        raise ValueError(f"labels must lie in [0, {n_classes})")
    if n_classes == 1:
        return np.zeros_like(alpha[0] if single else alpha)
    m = n_classes - 1
    # The free rows as a slice (a view) when the reference is at an end.
    free = (slice(1, None) if reference == 0 else
            slice(0, m) if reference == m else
            np.flatnonzero(np.arange(n_classes) != reference))
    assignment = labels.reshape(chains, -1)
    n = assignment.shape[1]
    if basis is None:
        basis = outer_basis(Omega)
    if lam is not None:
        lam = np.repeat(np.asarray(lam, dtype=float)[free], q)
    # The working stack: one row per chain still ascending, ``ids`` its
    # chain. ``picks`` indexes each chain's own (J, n) log-softmax, and
    # ``stacked_picks`` the same entries in the working stack.
    ids = np.arange(chains)
    coef = alpha[:, free].reshape(chains, m * q)
    # A view of ``log_pi``: read, never written, until it gets the result.
    current = (gating_log_probabilities(Omega, alpha) if log_pi is None
               else log_pi.reshape(chains, n_classes, n))
    picks = assignment * n + np.arange(n)
    offsets = n_classes * n * ids[:, None]
    stacked_picks = picks + offsets
    indicator = (assignment[:, None, :]
                 == np.arange(n_classes)[free, None]).astype(float)
    # Each row's F at its current rows; after a step it is the kept
    # trial's F, the same sum of the same terms a recomputation gives.
    objective = (q1_value(current, stacked_picks)
                 + penalty_value(coef, lam)).tolist()
    full_steps: list[list[float]] = [[] for _ in range(chains)]
    # Each chain's result, written by index when it stops: its free
    # rows, its log-softmax and the gram of its last Newton system.
    rows, log_pis = np.empty((chains, m * q)), np.empty(current.shape)
    systems = np.empty((chains, m * q, m * q))
    for taken in range(1, INNER_MAX + 1):
        gram, rhs = build_gating_workspace(Omega, basis, current, coef,
                                           indicator, free)
        proposal = penalized_wls_solve(gram, rhs, lam)
        step = proposal - coef
        curvature = np.matvec(gram, step)
        if lam is not None:
            curvature = curvature + lam * step
        decrement = (0.5 * np.vecdot(step, curvature)).tolist()
        last = [gain <= INNER_TOL * (1.0 + abs(level))  # R1
                for gain, level in zip(decrement, objective)]
        # Rounds of trials over the working stack: a row that no longer
        # lowers F keeps its proposal, and its trial repeats bit for bit,
        # so the last round holds each row's first kept trial and
        # ``halvings`` the halvings it took (-1: never kept). An R1 row
        # counts as kept untried: its F decides nothing.
        halvings = [-1] * ids.size
        for round_ in range(11):
            trial = alpha.copy()
            trial[:, free] = proposal.reshape(-1, m, q)
            trial_log_pi = gating_log_probabilities(Omega, trial)
            levels = (objective if all(last) else
                      (q1_value(trial_log_pi, stacked_picks)
                       + penalty_value(proposal, lam)).tolist())
            if not all(map(math.isfinite, levels)) and not all(
                    untried or math.isfinite(level)
                    for untried, level in zip(last, levels)):
                raise NumericalFailure("gate objective is not finite")
            kept = [untried or level >= base
                    for untried, level, base in zip(last, levels, objective)]
            halvings = [round_ if keep and halved < 0 else halved
                        for keep, halved in zip(kept, halvings)]
            if all(kept):
                break
            proposal = np.where(np.array(kept)[:, None], proposal,
                                0.5 * (proposal + coef))
        if min(halvings) >= 0:
            alpha, coef, current, objective = (trial, proposal, trial_log_pi,
                                               levels)
        else:  # a row that never recovered keeps its rows and ends there
            recovered = np.array([halved >= 0 for halved in halvings])
            alpha = np.where(recovered[:, None, None], trial, alpha)
            coef = np.where(recovered[:, None], proposal, coef)
            current = np.where(recovered[:, None, None], trial_log_pi,
                               current)
            objective = [level if halved >= 0 else base for level, base,
                         halved in zip(levels, objective, halvings)]
        stop = []
        for chain, untried, halved, gain, level in zip(
                ids.tolist(), last, halvings, decrement, objective):
            if untried or halved < 0 or taken == INNER_MAX:  # or the cap
                stop.append(True)
            elif halved:
                full_steps[chain].clear()
                stop.append(False)
            else:
                full_steps[chain].append(gain)
                stop.append(_further_steps_cannot_pay(
                    full_steps[chain], INNER_TOL * (1.0 + abs(level)),
                    INNER_MAX - taken))
        if any(stop):  # the one exit: stopped rows leave the stack
            leaving = np.array(stop)
            for result, final in zip((rows, log_pis, systems),
                                     (coef, current, gram)):
                result[ids[leaving]] = final[leaving]
            if all(stop):
                break
            going = ~leaving
            ids, coef, current = ids[going], coef[going], current[going]
            alpha, indicator = alpha[going], indicator[going]
            stacked_picks = picks[ids] + offsets[:ids.size]
            objective = list(itertools.compress(objective, going.tolist()))
    if d is not None:
        d = np.repeat(np.asarray(d, dtype=float)[..., free], q, axis=-1)
        rows = rows - penalized_wls_solve(systems, d * rows, lam)
    alpha = np.zeros((chains, n_classes, q))
    alpha[:, free] = rows.reshape(chains, m, q)
    if log_pi is not None:  # only the Liu-type step moves the rows again
        log_pi[...] = (log_pis if d is None else
                       gating_log_probabilities(Omega, alpha)
                       ).reshape(log_pi.shape)
    return alpha[0] if single else alpha
