"""Component Poisson regression updates, stacked over components.

Inside a component the count mean is exp(x' beta). One M-step update is
a weighted least-squares solve on the working response
``z* = X beta + (y - mu) / mu`` with weights mu, optionally shrunk by a
ridge lambda, and its result then by a Liu-type bias correction d
(:func:`~poismoe.linalg.penalized_wls_solve`).

All J components are updated together, in the class-major (J, n) layout
of the E-step: each component's IRWLS weights cover every observation
and are exactly zero on the rows it was not assigned, so one stacked
product against the design's outer-product basis (``Dataset.X_outer``,
:func:`~poismoe.linalg.rowwise_product`) forms every component's Gram,
one more forms every right-hand side, and one stacked solve updates
every beta.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import EmptyPartition, NumericalFailure
from .linalg import penalized_wls_solve, rowwise_product
from .model import ETA_MAX, MU_MAX, MU_MIN

if TYPE_CHECKING:
    from .model import Dataset, PartitionState

__all__ = [
    "ComponentWorkspace",
    "poisson_means",
    "build_workspace",
    "irwls_beta_step",
]


def _clamped_exp(eta: np.ndarray) -> np.ndarray:
    """exp(eta) clamped into [MU_MIN, MU_MAX]; warns when clamping."""
    mu = np.exp(np.minimum(eta, ETA_MAX))
    if np.isnan(mu).any():
        raise NumericalFailure("linear predictor is NaN")
    over = eta > ETA_MAX
    under = mu < MU_MIN
    clamped = np.count_nonzero(over | under)
    if clamped:
        warnings.warn(f"{clamped} Poisson mean(s) clamped into "
                      f"[{MU_MIN:g}, {MU_MAX:g}]", RuntimeWarning, stacklevel=3)
        mu[over] = MU_MAX
        mu[under] = MU_MIN
    return mu


def poisson_means(X: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """exp(beta . x) for every row x of ``X``, clamped into [MU_MIN, MU_MAX];
    warns when clamping.

    ``beta`` is one coefficient vector, giving an (n,) vector, or a stack
    (J, p), giving the class-major (J, n) means. An entry with
    eta > ETA_MAX comes back as exactly MU_MAX, and one whose exp falls
    below MU_MIN as exactly MU_MIN; the warning counts those entries.
    Means in range are exp(eta) unchanged. A NaN eta raises
    :class:`NumericalFailure`. The log-likelihood does not use these
    means; it clips eta itself (``model._log_terms``).
    """
    return _clamped_exp(np.asarray(beta, dtype=float) @ X.T)


@dataclass(frozen=True)
class ComponentWorkspace:
    """The IRWLS systems of all J components at one iterate, class-major.

    ``weights`` (J, n) holds each component's IRWLS weights: its Poisson
    means (the Poisson variance function) on its own rows and exactly 0
    on every other row. ``gram`` (J, p, p) stacks X' diag(weights_j) X,
    and ``rhs`` (J, p) stacks X' (weights_j * z*_j), built row by row as
    mu*eta + y - mu so that a row outside the component adds exactly 0.
    """

    weights: np.ndarray
    gram: np.ndarray
    rhs: np.ndarray


def build_workspace(data: "Dataset", part: "PartitionState",
                    beta_t: np.ndarray) -> ComponentWorkspace:
    """The systems of every component of ``part`` at the (J, p) ``beta_t``.

    This is the only builder of beta systems: every M-step and the warm
    start of every chain (:func:`~poismoe.sem.initialize`) solve what it
    returns. The linear predictor is zeroed outside a component's rows
    before the means are taken, so there mu is 1, nothing clamps and
    nothing overflows, and the clamp warning counts the components' own
    rows only.
    """
    beta_t = np.asarray(beta_t, dtype=float)
    rows = part.assignment == np.arange(beta_t.shape[0])[:, None]
    empty = np.flatnonzero(~rows.any(axis=1))
    if empty.size:
        raise EmptyPartition(f"component {empty[0]} received no observations")
    eta = np.where(rows, beta_t @ data.X.T, 0.0)
    mu = _clamped_exp(eta)
    weights = mu * rows
    terms = (mu * eta + (data.y - mu)) * rows
    gram = rowwise_product(weights, data.X_outer).reshape(-1, data.p, data.p)
    return ComponentWorkspace(weights=weights, gram=gram,
                              rhs=rowwise_product(terms, data.X))


def irwls_beta_step(ws: ComponentWorkspace,
                    lam: float | np.ndarray | None = None,
                    d: float | np.ndarray | None = None) -> np.ndarray:
    """One weighted least-squares update of every component's beta, (J, p).

    All J systems are solved by one stacked ``penalized_wls_solve``.
    ``lam=None`` is the ML step, ``d=None`` the ridge step, and otherwise
    the step is Liu-type, ``b_r - S^-1 (d * b_r)`` for the ridge step b_r,
    from the same factorization; ``lam`` and ``d`` are scalars or hold
    one value per component.
    """
    def per_component(value):
        return None if value is None else np.asarray(value, dtype=float)[..., None]

    return penalized_wls_solve(ws.gram, ws.rhs, per_component(lam),
                               per_component(d))
