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
every beta. A batch of chains adds a leading chain axis to every
array, (B, J, n) and so on; each chain's systems and updates are bit for
bit its own call's. No mean is clamped: a NaN linear predictor or one
above ``model.ETA_MAX`` raises NumericalFailure, which ends the chain.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import EmptyPartition, NumericalFailure
from .linalg import penalized_wls_solve, rowwise_product
from .model import ETA_MAX

if TYPE_CHECKING:
    from .model import Dataset, PartitionState

__all__ = [
    "ComponentWorkspace",
    "poisson_means",
    "build_workspace",
    "irwls_beta_step",
]


def _checked_exp(eta: np.ndarray) -> np.ndarray:
    """exp(eta); a NaN eta, or one above ETA_MAX, raises NumericalFailure."""
    if not (eta <= ETA_MAX).all():  # a NaN compares False
        raise NumericalFailure(
            "linear predictor is NaN" if np.isnan(eta).any() else
            f"Poisson mean overflows: linear predictor above {ETA_MAX:.6g}")
    return np.exp(eta)


def poisson_means(X: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """exp(beta . x) for every row x of ``X``.

    ``beta`` is one coefficient vector, giving an (n,) vector, or a stack
    (J, p), giving the class-major (J, n) means. A NaN eta, or one above
    ``model.ETA_MAX`` (a mean past 1e300), raises :class:`NumericalFailure`;
    a very negative eta gives its exp, down to 0. The log-likelihood does
    not use these means; it clips eta itself (``model._log_terms``).
    """
    return _checked_exp(np.asarray(beta, dtype=float) @ X.T)


@dataclass(frozen=True)
class ComponentWorkspace:
    """The IRWLS systems of all J components at one iterate, class-major.

    ``weights`` (J, n) holds each component's IRWLS weights: its Poisson
    means (the Poisson variance function) on its own rows and exactly 0
    on every other row. ``gram`` (J, p, p) stacks X' diag(weights_j) X,
    and ``rhs`` (J, p) stacks X' (weights_j * z*_j), built row by row as
    mu*eta + y - mu so that a row outside the component adds exactly 0.
    For a batch of chains each array has a leading chain axis.
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
    before the means are taken, so there mu is 1 and nothing overflows:
    only a component's own rows can end the chain with the
    :class:`NumericalFailure` of an overflowing mean. A batch of chains
    passes (B, J, p) ``beta_t`` with one assignment row per chain in
    ``part``; an overflow in any chain raises for the batch.
    """
    beta_t = np.asarray(beta_t, dtype=float)
    n_components = beta_t.shape[-2]
    rows = part.assignment[..., None, :] == np.arange(n_components)[:, None]
    empty = np.flatnonzero(~rows.any(axis=-1))
    if empty.size:
        raise EmptyPartition(f"component {empty[0] % n_components} "
                             "received no observations")
    eta = np.where(rows, beta_t @ data.X.T, 0.0)
    mu = _checked_exp(eta)
    weights = mu * rows
    terms = (mu * eta + (data.y - mu)) * rows
    gram = rowwise_product(weights, data.X_outer).reshape(
        *weights.shape[:-1], data.p, data.p)
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
    one value per component, (J,), or per chain and component, (B, J),
    for a batch of chains, which all share the one stacked solve.
    """
    def per_component(value):
        return None if value is None else np.asarray(value, dtype=float)[..., None]

    return penalized_wls_solve(ws.gram, ws.rhs, per_component(lam),
                               per_component(d))
