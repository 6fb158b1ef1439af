"""Multinomial-logit gating network.

Mixing probabilities follow a softmax over linear scores of the
concomitant covariates, with one class pinned at zero as the reference.
Each class is refit by a single weighted least-squares step (working
weights pi*(1-pi), working response built from indicator residuals),
cycled over the non-reference classes by coordinate descent.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .linalg import penalized_wls_solve
from .penalties import Penalty

if TYPE_CHECKING:
    from .model import PartitionState

# Probabilities are clipped into [PI_FLOOR, 1 - PI_FLOOR] before the
# working weights and their inverse are formed.
PI_FLOOR = 1e-10

__all__ = [
    "PI_FLOOR",
    "GatingWorkspace",
    "gating_log_probabilities",
    "gating_probabilities",
    "build_gating_workspace",
    "irwls_alpha_step",
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


@dataclass(frozen=True)
class GatingWorkspace:
    """Per-class quantities for one weighted least-squares step.

    ``pi`` holds the raw softmax probabilities for all classes; the
    floored copy enters only ``weights`` (pi_j*(1-pi_j)) and the working
    response ``v = Omega @ alpha_j + U / weights``.
    """

    Omega: np.ndarray
    pi: np.ndarray
    weights: np.ndarray
    U: np.ndarray
    v: np.ndarray
    class_index: int

    @property
    def n_obs(self) -> int:
        return self.Omega.shape[0]


def build_gating_workspace(Omega: np.ndarray, alpha_t: np.ndarray,
                           part: "PartitionState", j: int) -> GatingWorkspace:
    """Assemble weights, indicator residuals, and working response for class j."""
    pi = gating_probabilities(Omega, alpha_t)
    pi_j = np.clip(pi[:, j], PI_FLOOR, 1.0 - PI_FLOOR)
    weights = pi_j * (1.0 - pi_j)
    indicator = (part.assignment == j).astype(float)
    U = indicator - pi[:, j]
    v = Omega @ np.asarray(alpha_t, dtype=float)[j] + U / weights
    return GatingWorkspace(Omega=Omega, pi=pi, weights=weights, U=U, v=v,
                           class_index=j)


def _class_system(ws: GatingWorkspace) -> tuple[np.ndarray, np.ndarray]:
    gram = ws.Omega.T @ (ws.weights[:, None] * ws.Omega)
    rhs = ws.Omega.T @ (ws.weights * ws.v)
    return gram, rhs


def irwls_alpha_step(ws: GatingWorkspace, penalty: Penalty) -> np.ndarray:
    """One weighted least-squares update of a single gating class."""
    gram, rhs = _class_system(ws)
    return penalized_wls_solve(gram, rhs, penalty)


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


def _penalized_q1(Omega: np.ndarray, alpha: np.ndarray, part: "PartitionState",
                  j: int, penalty: Penalty) -> float:
    return q1_value(Omega, alpha, part) + penalty.value(alpha[j])


def coordinate_descent_alphas(Omega: np.ndarray, alpha_t: np.ndarray,
                              part: "PartitionState",
                              penalties: Sequence[Penalty],
                              reference: int,
                              inner_tol: float = 1e-8,
                              inner_max: int = 50,
                              step_acceptance: bool = True) -> np.ndarray:
    """Cycle single-class updates over the non-reference classes.

    Probabilities are rebuilt after every class update. Sweeping stops
    once the largest coordinate change falls below ``inner_tol`` or
    after ``inner_max`` sweeps; ``inner_max=0`` returns the input
    unchanged. With ``step_acceptance`` a class update that lowers its
    penalized assignment log-likelihood is halved toward the previous
    vector up to 10 times and reverted if it never recovers.
    """
    alpha = np.array(alpha_t, dtype=float)
    n_classes = alpha.shape[0]
    free = [j for j in range(n_classes) if j != reference]
    for _ in range(inner_max):
        max_change = 0.0
        for j in free:
            ws = build_gating_workspace(Omega, alpha, part, j)
            gram, rhs = _class_system(ws)
            penalty = penalties[j]
            if penalty.kind == "liu" and penalty.anchor is None:
                ridge_solve = penalized_wls_solve(gram, rhs,
                                                  Penalty.ridge(penalty.lam))
                penalty = penalty.with_anchor(ridge_solve)
            proposal = penalized_wls_solve(gram, rhs, penalty)
            if step_acceptance:
                proposal = _accept_step(Omega, alpha, part, j, penalty, proposal)
            max_change = max(max_change, float(np.max(np.abs(proposal - alpha[j]))))
            alpha[j] = proposal
        if max_change < inner_tol:
            break
    alpha[reference] = 0.0
    return alpha


def _accept_step(Omega: np.ndarray, alpha: np.ndarray, part: "PartitionState",
                 j: int, penalty: Penalty, proposal: np.ndarray) -> np.ndarray:
    """Halve a class update toward the current vector until it does not hurt."""
    current = alpha[j].copy()
    baseline = _penalized_q1(Omega, alpha, part, j, penalty)
    trial = np.array(alpha, dtype=float)
    candidate = proposal
    for _ in range(11):
        trial[j] = candidate
        if _penalized_q1(Omega, trial, part, j, penalty) >= baseline:
            return candidate
        candidate = 0.5 * (candidate + current)
    return current
