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
one of its result back to the next E-step.

The ascent stops once further steps cannot pay, judged by the Newton
decrement (the objective gain the quadratic model predicts for a full
step) against the tolerance taken relative to the objective
(Boyd & Vandenberghe 2004, sections 9.5-9.6):

* R1, before a trial: a step whose decrement is within the tolerance is
  the last one, and it is taken untried. Its gain is below the
  tolerance and, near the maximum, below the objective's rounding, so a
  trial comparison would only let rounding decide whether to halve it;
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

Every array over classes and observations here is class-major (J, n),
so a reduction over classes runs over J contiguous rows; only
:func:`gating_probabilities` returns the public (n, J) layout, as a view.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .linalg import outer_basis, penalized_wls_solve, rowwise_product

if TYPE_CHECKING:
    from .model import PartitionState

# Probabilities are clipped into [PI_FLOOR, 1 - PI_FLOOR] before they
# form the weights pi*(1-pi) of a diagonal Gram block, so that block
# stays positive definite when a class probability underflows.
PI_FLOOR = 1e-10

# R3 ends a separated tail only once its decrements are within this
# multiple of the ascent's tolerance, so it leaves the damped opening
# steps and the quadratic phase of a well-posed ascent alone.
SEPARATED_TAIL_LEVEL = 1e4

__all__ = [
    "PI_FLOOR",
    "SEPARATED_TAIL_LEVEL",
    "log_sum_exp",
    "gating_log_probabilities",
    "gating_probabilities",
    "gate_variance_weights",
    "build_gating_workspace",
    "q1_value",
    "penalty_value",
    "coordinate_descent_alphas",
]


def log_sum_exp(values: np.ndarray) -> np.ndarray:
    """log(sum(exp(values))) over the class axis 0 of a (J, n) array, as
    an (n,) vector, each column shifted by its maximum so no exp
    overflows (an all -inf column: nan)."""
    peak = values.max(axis=0)
    return peak + np.log(np.exp(values - peak).sum(axis=0))


def gating_log_probabilities(Omega: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Log-softmax of the class scores alpha @ Omega.T, class-major (J, n)."""
    scores = np.asarray(alpha, dtype=float) @ Omega.T
    return scores - log_sum_exp(scores)


def gating_probabilities(Omega: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Class probabilities for every row of ``Omega``, one row per
    observation: an (n, J) view of the class-major array.

    Probabilities are shift-invariant in the scores, so they do not
    depend on which class carries the zero vector. Rows sum to one up to
    floating-point rounding.
    """
    return np.exp(gating_log_probabilities(Omega, alpha)).T


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
    (:func:`~poismoe.linalg.rowwise_product`), so relabeling the classes
    permutes the blocks bit for bit.
    ``indicator`` is (len(free), n), one row per free class in the order
    of ``free``, holding 1 where an observation is assigned to that
    class. ``rhs = gram @ coef + Omega'(indicator - pi)``, so
    ``rhs - gram @ coef`` is the stacked gradient of the assignment
    log-likelihood.
    """
    pi = np.exp(log_pi[free])
    m, q = len(free), Omega.shape[1]
    weights = -(pi[:, None] * pi)
    pairs = weights.reshape(m * m, -1)
    pairs[::m + 1] = gate_variance_weights(pi)
    gram = rowwise_product(pairs, basis).reshape(m, m, q, q)
    gram = gram.transpose(0, 2, 1, 3)
    gram = gram.reshape(m * q, m * q)
    # BLAS rounds this product by the layout of its left factor; the
    # transposed (n, F) copy keeps it observation-major.
    residual = np.ascontiguousarray((indicator - pi).T)
    rhs = gram @ coef + (residual.T @ Omega).ravel()
    return gram, rhs


def q1_value(log_pi: np.ndarray, picks: np.ndarray) -> float:
    """Assignment log-likelihood sum_i log pi_{i, z_i} (no penalty terms)
    from the (J, n) log-softmax ``log_pi``. ``picks`` holds the flat
    indices ``z_i * n + i`` of the assigned entries."""
    return float(log_pi.take(picks).sum())


def penalty_value(coef: np.ndarray, lam: np.ndarray | None,
                  d: np.ndarray | None = None,
                  anchor: np.ndarray | None = None) -> float:
    """Shrinkage term of the gate objective, in ``penalized_wls_solve``'s sign.

    ``-1/2 * sum(lam * coef**2) - sum(d * coef * anchor)``, whose
    gradient ``-lam*coef - d*anchor`` is the shift the solve applies;
    exactly 0.0 for ML (``lam=None``).
    """
    if lam is None:
        return 0.0
    value = -0.5 * (lam * coef * coef).sum()
    if d is not None:
        value -= (d * coef * anchor).sum()
    return float(value)


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
                              part: "PartitionState",
                              lam: np.ndarray | None, d: np.ndarray | None,
                              reference: int,
                              inner_tol: float = 1e-11,
                              inner_max: int = 50, *,
                              basis: np.ndarray | None = None,
                              log_pi: np.ndarray | None = None) -> np.ndarray:
    """Penalized Newton ascent on all non-reference gating rows jointly.

    The name predates the joint update and stays because the benchmark
    tracer looks this function up by name. Each step solves the whole
    stacked system of :func:`build_gating_workspace` once, through
    ``penalized_wls_solve``. ``lam`` and ``d`` hold one value per class
    (the reference entry is ignored), or are None for ML and ridge as in
    ``penalized_wls_solve``; each free class's value is repeated over its
    q coordinates. The Liu-type step anchors on the ridge solve of the
    same stacked system, taken from the factorization of its own solve,
    so its anchor moves with every step.

    The objective F is the penalized assignment log-likelihood
    ``q1_value + penalty_value``. One log-softmax per iterate serves both
    F and the next step's system. A step that lowers F is halved toward
    the current rows up to 10 times; if it never recovers, the current
    rows are kept and the ascent ends. The Newton decrement
    ``delta = 1/2 * step' (gram + diag(lam)) step`` of each full step
    is compared with the tolerance ``inner_tol * (1 + |F|)``, F at the
    current rows:

    * R1: a step with delta within the tolerance is taken without a
      trial evaluation, and the ascent ends on it;
    * R2: after a full step that followed a full step, the ascent stops
      if ``delta_k**2 / delta_{k-1}`` is within the tolerance;
    * R3: it also stops on a separated tail, where the last two full
      steps each cut delta by less than half, delta is within
      ``SEPARATED_TAIL_LEVEL`` times the tolerance and, at its current
      rate, would still exceed the tolerance after the steps left.

    In any case stepping ends after ``inner_max`` Newton steps. None of
    the rules fires at ``inner_tol=0`` unless delta is not positive (a
    step of zero), so there the ascent tries and halves every step as the
    plain halving ascent does. ``inner_max=0`` returns the input
    unchanged. The reference row comes back as zeros.

    ``basis``, when given, is ``outer_basis(Omega)`` (``Dataset.Omega_outer``).
    ``log_pi``, when given, is the (J, n) log-softmax at ``alpha_t``
    (whose reference row must be zero), used instead of recomputing it;
    on return it holds the log-softmax at the returned rows.
    """
    alpha = np.array(alpha_t, dtype=float)
    free = np.flatnonzero(np.arange(alpha.shape[0]) != reference)
    if not free.size:
        return np.zeros_like(alpha)
    n, q = Omega.shape
    picks = part.assignment * n + np.arange(n)
    indicator = (part.assignment == free[:, None]).astype(float)
    if basis is None:
        basis = outer_basis(Omega)
    anchor = None
    if lam is not None:
        lam = np.repeat(np.asarray(lam, dtype=float)[free], q)
    if d is not None:
        d = np.repeat(np.asarray(d, dtype=float)[free], q)
        anchor = np.empty(len(free) * q)
    coef = alpha[free].ravel()
    handed_over = log_pi
    if log_pi is None:
        log_pi = gating_log_probabilities(Omega, alpha)
    q1 = q1_value(log_pi, picks)
    full_steps: list[float] = []  # decrements of the latest full steps
    for taken in range(1, inner_max + 1):
        gram, rhs = build_gating_workspace(Omega, basis, log_pi, coef,
                                           indicator, free)
        proposal = penalized_wls_solve(gram, rhs, lam, d, anchor_out=anchor)
        baseline = q1 if lam is None else (  # ML: no penalty terms
            q1 + penalty_value(coef, lam, d, anchor))
        step = proposal - coef
        curvature = gram @ step if lam is None else gram @ step + lam * step
        decrement = 0.5 * float(step @ curvature)
        if decrement <= inner_tol * (1.0 + abs(baseline)):  # R1
            alpha[free] = proposal.reshape(len(free), q)
            log_pi = None
            break
        trial = alpha.copy()
        for halvings in range(11):
            trial[free] = proposal.reshape(len(free), q)
            trial_log_pi = gating_log_probabilities(Omega, trial)
            trial_q1 = q1_value(trial_log_pi, picks)
            value = trial_q1 if lam is None else (
                trial_q1 + penalty_value(proposal, lam, d, anchor))
            if value >= baseline:
                break
            proposal = 0.5 * (proposal + coef)
        else:  # never recovered: keep the current rows
            break
        alpha, coef, log_pi, q1 = trial, proposal, trial_log_pi, trial_q1
        if halvings:
            full_steps.clear()
            continue
        full_steps.append(decrement)
        if _further_steps_cannot_pay(full_steps,
                                     inner_tol * (1.0 + abs(value)),
                                     inner_max - taken):
            break
    alpha[reference] = 0.0
    if handed_over is not None:
        handed_over[...] = (gating_log_probabilities(Omega, alpha)
                            if log_pi is None else log_pi)
    return alpha
