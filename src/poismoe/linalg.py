"""Shared solve path for the penalized weighted least-squares updates."""
from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import NumericalFailure, SingularSystem

# 2-norm condition threshold for the unpenalized Gram matrix.
COND_LIMIT = 1e12

__all__ = ["COND_LIMIT", "penalized_wls_solve"]


def penalized_wls_solve(gram: np.ndarray, rhs: np.ndarray,
                        lam: float | np.ndarray | None = None,
                        d: float | np.ndarray | None = None,
                        anchor: np.ndarray | None = None) -> np.ndarray:
    """Solve the IRWLS normal equations of the ML, ridge or Liu-type update.

    The three estimators are one family in (lam, d). For a coefficient
    vector b, every coordinate (the intercept included) is penalized and
    the maximized objective adds ``-1/2 * sum(lam * b * b)`` (ridge) and
    ``-sum(d * b * anchor)`` (Liu-type), so the normal equations are
    ``(gram + diag(lam)) b = rhs - d*anchor``. ``lam`` and ``d`` are
    scalars, or one value per coordinate for a block that stacks several
    classes.

    ``lam=None`` is ML: ``gram @ b = rhs`` after a condition check that
    raises :class:`SingularSystem`. ``d=None`` is ridge. Otherwise the
    solve is Liu-type, and ``anchor=None`` takes the ridge solve of the
    same system as anchor, which gives ``S^-1 (S - d I) S^-1 rhs`` with
    ``S = gram + lam I``. The system is factored (Cholesky), never
    inverted explicitly.
    """
    if lam is None:
        if not np.all(np.isfinite(gram)) or np.linalg.cond(gram) > COND_LIMIT:
            raise SingularSystem(
                "weighted Gram matrix is numerically singular at lambda=0; "
                "use the ridge or Liu-type estimator")
        system = gram
    else:
        system = gram + lam * np.eye(gram.shape[0])
    try:
        factor = cho_factor(system, lower=True, check_finite=False)
    except (LinAlgError, ValueError) as exc:
        if lam is None:
            raise SingularSystem(
                "Cholesky factorization failed at lambda=0; "
                "use the ridge or Liu-type estimator") from exc
        raise NumericalFailure("penalized system could not be factored") from exc
    if d is not None:
        if anchor is None:
            anchor = cho_solve(factor, rhs, check_finite=False)
        rhs = rhs - d * anchor
    solution = cho_solve(factor, rhs, check_finite=False)
    if not np.all(np.isfinite(solution)):
        raise NumericalFailure("weighted least-squares solve produced non-finite values")
    return solution
