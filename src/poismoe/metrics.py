"""Label alignment, estimation error, classification accuracy, summaries.

Mixture labels are only identified up to permutation, so estimates are
matched to the truth by the permutation minimizing the total squared
distance between regression coefficient vectors before any error is
computed.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import SummaryUndefined
from .model import Coefficients, Dataset, responsibilities

__all__ = [
    "ReplicationSummary",
    "align_components",
    "sqrt_mse",
    "classification_accuracy",
    "summarize_replicates",
    "write_summary_csv",
]


@dataclass(frozen=True)
class ReplicationSummary:
    """Median and 5th/95th percentiles of one metric over replicates."""

    metric: str
    M: float
    L: float
    U: float
    n_replicates: int
    n_failed: int = 0

    def __post_init__(self) -> None:
        if not self.L <= self.M <= self.U:
            raise ValueError("percentiles must satisfy L <= M <= U")


def align_components(psi_hat: Coefficients, psi_true: Coefficients) -> tuple[int, ...]:
    """Permutation matching estimated components to the true ones.

    Minimizes the summed squared distance between regression coefficient
    vectors, exhaustively over all J! orderings (J is small); ties keep
    the lexicographically smallest permutation.
    """
    if psi_hat.n_components != psi_true.n_components:
        raise ValueError("component counts differ")
    best_order: tuple[int, ...] | None = None
    best_cost = np.inf
    for order in permutations(range(psi_true.n_components)):
        cost = float(np.sum((psi_hat.beta[list(order)] - psi_true.beta) ** 2))
        if best_order is None or cost < best_cost:
            best_cost = cost
            best_order = order
    assert best_order is not None
    return best_order


def sqrt_mse(psi_hat_aligned: Coefficients, psi_true: Coefficients,
             which: str, n_train: int) -> float:
    """Root of sum_j ||estimate_j - truth_j||^2 / n_train for one block.

    ``n_train`` is the training sample size (the divisor used in the
    reported tables), not the parameter count. Inputs must already be
    label-aligned.
    """
    if which not in ("beta", "alpha"):
        raise ValueError("which must be 'beta' or 'alpha'")
    a = psi_hat_aligned.beta if which == "beta" else psi_hat_aligned.alpha
    b = psi_true.beta if which == "beta" else psi_true.alpha
    if a.shape != b.shape:
        raise ValueError("coefficient shapes differ")
    return float(np.sqrt(np.sum((a - b) ** 2) / n_train))


def classification_accuracy(psi: Coefficients, validation: Dataset,
                            z_true: np.ndarray) -> float:
    """Fraction of validation rows assigned to their true component.

    Predictions take the argmax of the posterior membership
    probabilities under the coefficients ``psi``, whose labels must
    already be aligned to those of ``z_true`` (for a fit, its
    ``psi_hat`` permuted by :func:`align_components`).
    """
    tau = responsibilities(validation, psi)
    predicted = tau.argmax(axis=1)
    z_true = np.asarray(z_true, dtype=np.int64)
    if z_true.shape[0] != validation.n:
        raise ValueError("label vector does not match the validation data")
    return float(np.mean(predicted == z_true))


def summarize_replicates(values: Iterable[float],
                         metric: str = "") -> ReplicationSummary:
    """Median plus 5th/95th percentiles (linear-interpolation order statistics).

    Non-finite entries are dropped and counted as failures.
    """
    arr = np.asarray(list(values), dtype=float)
    finite = arr[np.isfinite(arr)]
    if finite.shape[0] == 0:
        raise SummaryUndefined(f"no finite values to summarize for {metric!r}")
    low, mid, high = np.percentile(finite, [5.0, 50.0, 95.0], method="linear")
    return ReplicationSummary(metric=metric, M=float(mid), L=float(low),
                              U=float(high), n_replicates=int(finite.shape[0]),
                              n_failed=int(arr.shape[0] - finite.shape[0]))


def write_summary_csv(path: str | Path,
                      entries: Iterable[tuple[str, str, ReplicationSummary]]) -> None:
    """Write (method, parameter_block, summary) rows to a CSV file."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["method", "parameter_block", "M", "L", "U",
                         "n_replicates", "n_failed"])
        for method, block, summary in entries:
            writer.writerow([method, block, repr(float(summary.M)),
                             repr(float(summary.L)), repr(float(summary.U)),
                             summary.n_replicates, summary.n_failed])
