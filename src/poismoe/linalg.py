"""Shared solve path for the penalized weighted least-squares updates."""
from __future__ import annotations

import numpy as np

from .errors import NumericalFailure, SingularSystem

# 2-norm condition threshold for the unpenalized Gram matrix.
COND_LIMIT = 1e12

__all__ = ["COND_LIMIT", "penalized_wls_solve"]


def penalized_wls_solve(gram: np.ndarray, rhs: np.ndarray,
                        lam: float | np.ndarray | None = None,
                        d: float | np.ndarray | None = None,
                        anchor_out: np.ndarray | None = None) -> np.ndarray:
    """Solve the IRWLS normal equations of the ML, ridge or Liu-type update.

    The three estimators are one family in (lam, d). For a coefficient
    vector b, every coordinate (the intercept included) is penalized and
    the maximized objective adds ``-1/2 * sum(lam * b * b)`` (ridge) and
    ``-sum(d * b * anchor)`` (Liu-type), so the normal equations are
    ``(gram + diag(lam)) b = rhs - d*anchor``. ``lam`` and ``d`` are
    scalars, or one value per coordinate for a block that stacks several
    classes.

    ``lam=None`` is ML: ``gram @ b = rhs``. ``d=None`` is ridge.
    Otherwise the solve is Liu-type and takes the ridge solve of the same
    system as anchor, which gives ``S^-1 (S - d I) S^-1 rhs`` with
    ``S = gram + lam I``; the anchor is copied into ``anchor_out`` when
    that is given. A Liu-type solve with a fixed anchor is the ridge
    solve of ``rhs - d*anchor``.

    S is diagonalized once, S = V diag(s) V', and each solve is
    V (V'r / s). S must be finite with s[0] > 0, and for ML also have a
    2-norm condition s[-1]/s[0] <= COND_LIMIT; else ML raises
    :class:`SingularSystem` and ridge or Liu-type :class:`NumericalFailure`.
    """
    system = gram
    if lam is not None:
        system = gram.copy()
        system.flat[::gram.shape[0] + 1] += lam
    failure = SingularSystem if lam is None else NumericalFailure
    if not np.isfinite(system).all():
        raise failure("weighted Gram matrix is not finite")
    s, vecs = np.linalg.eigh(system)
    limit = COND_LIMIT if lam is None else np.inf
    if not (s[0] > 0 and s[-1] <= limit * s[0]):
        raise failure("weighted system is not (numerically) positive definite; "
                      "at lambda=0 use the ridge or Liu-type estimator")

    def solve(vector: np.ndarray) -> np.ndarray:
        return vecs @ (vecs.T @ vector / s)

    if d is not None:
        anchor = solve(rhs)
        if anchor_out is not None:
            anchor_out[:] = anchor
        rhs = rhs - d * anchor
    solution = solve(rhs)
    if not np.isfinite(solution).all():
        raise NumericalFailure("weighted least-squares solve produced non-finite values")
    return solution
