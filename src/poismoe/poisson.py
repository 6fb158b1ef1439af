"""Per-component Poisson regression updates.

Inside a component the count mean is exp(x' beta). One M-step update is
a single weighted least-squares solve on the working response
``z* = X beta + (y - mu) / mu`` with weights mu, optionally shrunk by a
ridge lambda and a Liu-type bias correction d
(:func:`~poismoe.linalg.penalized_wls_solve`).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import EmptyPartition, NumericalFailure
from .linalg import penalized_wls_solve
from .model import ETA_MAX, MU_MAX, MU_MIN

if TYPE_CHECKING:
    from .model import Dataset, PartitionState

__all__ = [
    "ComponentWorkspace",
    "poisson_means",
    "build_workspace",
    "irwls_beta_step",
]


def poisson_means(X: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """exp(X @ beta) clamped into [MU_MIN, MU_MAX]; warns when clamping.

    An entry with eta > ETA_MAX comes back as exactly MU_MAX, and one whose
    exp falls below MU_MIN as exactly MU_MIN; the warning counts those
    entries. Means in range are exp(eta) unchanged. A NaN eta raises
    :class:`NumericalFailure`. The log-likelihood does not use these
    means; it clips eta itself (``model._log_terms``).
    """
    eta = X @ beta
    mu = np.exp(np.minimum(eta, ETA_MAX))
    if np.isnan(mu).any():
        raise NumericalFailure("linear predictor is NaN")
    over = eta > ETA_MAX
    under = mu < MU_MIN
    clamped = np.count_nonzero(over | under)
    if clamped:
        warnings.warn(f"{clamped} Poisson mean(s) clamped into "
                      f"[{MU_MIN:g}, {MU_MAX:g}]", RuntimeWarning, stacklevel=2)
        mu[over] = MU_MAX
        mu[under] = MU_MIN
    return mu


@dataclass(frozen=True)
class ComponentWorkspace:
    """Rows of one component plus the IRWLS working quantities.

    ``mu`` is both the mean and the IRWLS weight (the Poisson variance
    function), and ``z_star = X beta + (y - mu)/mu`` elementwise.
    """

    X: np.ndarray
    y: np.ndarray
    mu: np.ndarray
    z_star: np.ndarray


def _workspace(X: np.ndarray, y: np.ndarray,
               beta: np.ndarray) -> ComponentWorkspace:
    """Working quantities of rows ``X``, float counts ``y`` at ``beta``."""
    mu = poisson_means(X, beta)
    return ComponentWorkspace(X=X, y=y, mu=mu, z_star=X @ beta + (y - mu) / mu)


def build_workspace(data: "Dataset", part: "PartitionState", j: int,
                    beta_t: np.ndarray) -> ComponentWorkspace:
    """Collect the rows assigned to component j and form working quantities."""
    rows = part.assignment == j
    if not rows.any():
        raise EmptyPartition(f"component {j} received no observations")
    return _workspace(data.X[rows], data.y[rows].astype(float),
                      np.asarray(beta_t, dtype=float))


def irwls_beta_step(ws: ComponentWorkspace, lam: float | None = None,
                    d: float | None = None) -> np.ndarray:
    """One weighted least-squares update of a component's beta.

    ``lam=None`` is the ML step, ``d=None`` the ridge step, and otherwise
    the step is Liu-type, anchored on its own ridge solve.
    """
    gram = ws.X.T @ (ws.mu[:, None] * ws.X)
    rhs = ws.X.T @ (ws.mu * ws.z_star)
    return penalized_wls_solve(gram, rhs, lam, d)

