"""Shared solve path for the penalized weighted least-squares updates."""
from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import NumericalFailure, SingularSystem
from .penalties import Penalty

# 2-norm condition threshold for the unpenalized Gram matrix.
COND_LIMIT = 1e12

__all__ = ["COND_LIMIT", "penalized_wls_solve"]


def penalized_wls_solve(gram: np.ndarray, rhs: np.ndarray, penalty: Penalty) -> np.ndarray:
    """Solve the IRWLS normal equations under the given penalty.

    ML solves ``gram @ b = rhs`` after a condition check; ridge solves
    ``(gram + diag(lam)) b = rhs``, with ``lam`` a scalar or one value
    per coordinate; the Liu-type path solves the same system with
    right-hand side ``rhs - d*anchor``, where a self-anchored penalty
    takes the ridge solution as its anchor. The system is factored
    (Cholesky), never inverted explicitly.
    """
    if penalty.kind == "ml":
        if not np.all(np.isfinite(gram)) or np.linalg.cond(gram) > COND_LIMIT:
            raise SingularSystem(
                "weighted Gram matrix is numerically singular at lambda=0; "
                "use the ridge or Liu-type estimator")
        system = gram
    else:
        system = gram + penalty.lam * np.eye(gram.shape[0])
    try:
        factor = cho_factor(system, lower=True, check_finite=False)
    except (LinAlgError, ValueError) as exc:
        if penalty.kind == "ml":
            raise SingularSystem(
                "Cholesky factorization failed at lambda=0; "
                "use the ridge or Liu-type estimator") from exc
        raise NumericalFailure("penalized system could not be factored") from exc
    if penalty.kind == "liu":
        anchor = penalty.anchor
        if anchor is None:  # self-anchored: the same system's ridge solve
            anchor = cho_solve(factor, rhs, check_finite=False)
        rhs = rhs - penalty.d * anchor
    solution = cho_solve(factor, rhs, check_finite=False)
    if not np.all(np.isfinite(solution)):
        raise NumericalFailure("weighted least-squares solve produced non-finite values")
    return solution
