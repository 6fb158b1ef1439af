"""Multinomial-logit gating network.

Mixing probabilities follow a softmax over linear scores of the
concomitant covariates, with one class pinned at zero as the reference.
The non-reference rows are refit jointly by penalized Newton ascent on
the assignment log-likelihood: each step solves one stacked
(J-1)q-dimensional system whose blocks are Omega' diag(pi_j(delta_jk -
pi_k)) Omega, with step halving when a step lowers the objective.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from .linalg import penalized_wls_solve
from .penalties import Penalty

if TYPE_CHECKING:
    from .model import PartitionState

# Probabilities are clipped into [PI_FLOOR, 1 - PI_FLOOR] before they
# form the weights pi*(1-pi) of a diagonal Gram block, so that block
# stays positive definite when a class probability underflows.
PI_FLOOR = 1e-10

__all__ = [
    "PI_FLOOR",
    "gating_log_probabilities",
    "gating_probabilities",
    "build_gating_workspace",
    "q1_value",
    "q1_gradient",
    "coordinate_descent_alphas",
]


def gating_log_probabilities(Omega: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of the class scores Omega @ alpha.T."""
    scores = Omega @ np.asarray(alpha, dtype=float).T
    shifted = scores - scores.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return shifted - log_norm


def gating_probabilities(Omega: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Class probabilities for every row of ``Omega``.

    Probabilities are shift-invariant in the scores, so they do not
    depend on which class carries the zero vector. Rows sum to one up to
    floating-point rounding.
    """
    return np.exp(gating_log_probabilities(Omega, alpha))


def build_gating_workspace(Omega: np.ndarray, alpha: np.ndarray,
                           indicator: np.ndarray, free: Sequence[int]
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Stacked Newton system ``(gram, rhs)`` for the free gating rows.

    The rows ``alpha[free]`` are stacked class by class into one vector
    a of length ``len(free) * q``. Block (j, k) of ``gram`` is
    Omega' diag(pi_j (delta_jk - pi_k)) Omega, the negative Hessian of
    the assignment log-likelihood, with pi_j clipped into
    [PI_FLOOR, 1 - PI_FLOOR] in the diagonal blocks. ``indicator`` has
    one column per free class, in the order of ``free``, holding 1 where
    a row is assigned to that class. ``rhs = gram @ a +
    Omega'(indicator - pi)``, so ``rhs - gram @ a`` is the stacked
    gradient of the assignment log-likelihood.
    """
    pi = gating_probabilities(Omega, alpha)[:, free]
    q = Omega.shape[1]
    gram = np.empty((len(free) * q, len(free) * q))
    for a in range(len(free)):
        rows = slice(a * q, (a + 1) * q)
        pi_a = np.clip(pi[:, a], PI_FLOOR, 1.0 - PI_FLOOR)
        gram[rows, rows] = Omega.T @ ((pi_a * (1.0 - pi_a))[:, None] * Omega)
        for b in range(a):
            cols = slice(b * q, (b + 1) * q)
            block = Omega.T @ ((-pi[:, a] * pi[:, b])[:, None] * Omega)
            gram[rows, cols] = block
            gram[cols, rows] = block.T
    rhs = gram @ alpha[free].ravel() + ((indicator - pi).T @ Omega).ravel()
    return gram, rhs


def q1_value(Omega: np.ndarray, alpha: np.ndarray, part: "PartitionState") -> float:
    """Assignment log-likelihood sum_i log pi_{i, z_i} (no penalty terms)."""
    log_pi = gating_log_probabilities(Omega, alpha)
    return float(log_pi[np.arange(Omega.shape[0]), part.assignment].sum())


def q1_gradient(Omega: np.ndarray, alpha: np.ndarray, part: "PartitionState",
                j: int, penalty: Penalty) -> np.ndarray:
    """Gradient of the penalized assignment log-likelihood for class j."""
    pi = gating_probabilities(Omega, alpha)
    U = (part.assignment == j).astype(float) - pi[:, j]
    return Omega.T @ U + penalty.gradient(np.asarray(alpha, dtype=float)[j])


def _stacked_penalty(penalties: Sequence[Penalty], q: int) -> Penalty:
    """One penalty over the stacked rows, each class's lam and d repeated q times.

    A single free class keeps its own penalty.
    """
    if len(penalties) == 1:
        return penalties[0]
    kind = penalties[0].kind
    if any(penalty.kind != kind for penalty in penalties):
        raise ValueError("the free gating classes need one penalty kind")
    if kind == "ml":
        return Penalty.ml()
    lam = np.repeat([penalty.lam for penalty in penalties], q)
    if kind == "ridge":
        return Penalty.ridge(lam)
    anchors = [penalty.anchor for penalty in penalties]
    anchor = None if all(a is None for a in anchors) else np.concatenate(anchors)
    return Penalty.liu_type(lam, np.repeat([penalty.d for penalty in penalties], q),
                            anchor=anchor)


def coordinate_descent_alphas(Omega: np.ndarray, alpha_t: np.ndarray,
                              part: "PartitionState",
                              penalties: Sequence[Penalty],
                              reference: int,
                              inner_tol: float = 1e-8,
                              inner_max: int = 50) -> np.ndarray:
    """Penalized Newton ascent on all non-reference gating rows jointly.

    The name predates the joint update: each step now solves the whole
    stacked system of :func:`build_gating_workspace` once, through
    ``penalized_wls_solve``, under the per-class penalties stacked
    coordinate-wise. A self-anchored Liu-type penalty anchors on the
    ridge solve of the same stacked system, so its anchor moves with
    every step. A step that lowers the penalized assignment
    log-likelihood is halved toward the current rows up to 10 times;
    if it never recovers, the current rows are kept and the ascent
    ends. Stepping stops once the largest coordinate change falls below
    ``inner_tol`` or after ``inner_max`` Newton steps; ``inner_max=0``
    returns the input unchanged. The reference row comes back as zeros.
    """
    alpha = np.array(alpha_t, dtype=float)
    free = [j for j in range(alpha.shape[0]) if j != reference]
    if not free:
        return np.zeros_like(alpha)
    q = Omega.shape[1]
    indicator = (part.assignment[:, None] == free).astype(float)
    stacked = _stacked_penalty([penalties[j] for j in free], q)
    ridge = (Penalty.ridge(stacked.lam)
             if stacked.kind == "liu" and stacked.anchor is None else None)
    penalty, coef, baseline = stacked, alpha[free].ravel(), None
    for _ in range(inner_max):
        gram, rhs = build_gating_workspace(Omega, alpha, indicator, free)
        if ridge is not None:  # a new anchor changes the objective
            penalty = stacked.with_anchor(penalized_wls_solve(gram, rhs, ridge))
            baseline = None
        proposal = penalized_wls_solve(gram, rhs, penalty)
        if baseline is None:
            baseline = q1_value(Omega, alpha, part) + penalty.value(coef)
        trial = alpha.copy()
        for _ in range(11):
            trial[free] = proposal.reshape(len(free), q)
            value = q1_value(Omega, trial, part) + penalty.value(proposal)
            if value >= baseline:
                break
            proposal = 0.5 * (proposal + coef)
        else:  # never recovered: keep the current rows
            break
        change = float(np.max(np.abs(proposal - coef)))
        alpha, coef, baseline = trial, proposal, value
        if change < inner_tol:
            break
    alpha[reference] = 0.0
    return alpha
