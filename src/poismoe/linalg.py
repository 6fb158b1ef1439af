"""Shared solve path for the penalized weighted least-squares updates:
:func:`penalized_wls_solve`, whose one return value is the solution.

Its systems are built from stacked row products, ``np.vecmat(rows,
matrix)`` for an (..., m, n) stack of rows (:mod:`~poismoe.poisson`,
:mod:`~poismoe.gating`, :mod:`~poismoe.tuning`). Each row of the result
is its own vector-matrix product, so it rounds the same wherever its row
sits in the stack: relabeling classes permutes the results bit for bit,
and a chain's rows get the same results in a batch of chains as alone,
which a plain matrix product, rounding its edge rows apart, does not
give.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericalFailure, SingularSystem

# 2-norm condition threshold for the unpenalized Gram matrix.
COND_LIMIT = 1e12

__all__ = ["COND_LIMIT", "outer_basis", "penalized_wls_solve"]


def outer_basis(design: np.ndarray) -> np.ndarray:
    """Row-wise outer products of an (n, k) design, as an (n, k*k) matrix.

    Row i is a_i a_i' flattened, so for a stack of row weights W (m, n)
    the product ``np.vecmat(W, outer_basis(A))``, reshaped to
    (m, k, k), is every weighted Gram A' diag(w) A of the stack at once.
    """
    n, k = design.shape
    return (design[:, :, None] * design[:, None, :]).reshape(n, k * k)


def penalized_wls_solve(gram: np.ndarray, rhs: np.ndarray,
                        lam: float | np.ndarray | None = None,
                        d: float | np.ndarray | None = None) -> np.ndarray:
    """Solve the IRWLS normal equations of the ML, ridge or Liu-type update.

    ``lam=None`` is ML: ``gram @ b = rhs``. Otherwise every coordinate
    (the intercept included) is shrunk by ``lam``, S = gram + diag(lam),
    and the ridge result is ``b_r = S^-1 rhs``; ``d=None`` returns it.
    With ``d`` the result is Liu-type, the one definition of that
    estimator here (Liu 2003): ``b_LT = b_r - S^-1 (d * b_r)``, that is
    ``S^-1 (S - D) b_r`` with D = diag(d). For a scalar d each
    coordinate of ``b_r`` in the eigenbasis of S is scaled by (s - d)/s,
    which lies in [0, 1] for 0 <= d <= s[0]. A caller that already has
    its ridge result b_r (the gate's ridge ascent, :mod:`~poismoe.gating`)
    takes the same step as ``b_r - penalized_wls_solve(gram, d * b_r, lam)``,
    which solves S through the same ``eigh`` and so matches bit for bit.

    ``gram`` is one (F, F) system with ``rhs`` of length F, or a stack
    (..., F, F) of independent systems with ``rhs`` (..., F), such as
    (J, F, F) or, with a leading chain axis, (B, J, F, F). ``lam`` and
    ``d`` broadcast against ``rhs``: a scalar, one value per coordinate
    (a gate block that stacks several classes), or one value per system
    of a stack as (..., 1).

    One ``np.linalg.eigh`` call diagonalizes every S, S = V diag(s) V',
    and each solve is V (V'r / s); each system of a stack gets the same
    result, bit for bit, as a call of its own. Every S must be finite
    with s[0] > 0, and for ML also have a 2-norm condition
    s[-1]/s[0] <= COND_LIMIT; if any fails, ML raises
    :class:`SingularSystem` and ridge or Liu-type :class:`NumericalFailure`
    (which a non-finite solution also raises).
    """
    system = gram
    if lam is not None:
        size = gram.shape[-1]
        system = gram.copy()
        diagonal = system.reshape(*gram.shape[:-2], size * size)
        diagonal[..., ::size + 1] += lam
    failure = SingularSystem if lam is None else NumericalFailure
    if not np.isfinite(system).all():
        raise failure("weighted Gram matrix is not finite")
    s, vecs = np.linalg.eigh(system)
    limit = COND_LIMIT if lam is None else np.inf
    if not all(row[0] > 0 and row[-1] <= limit * row[0]
               for row in s.reshape(-1, s.shape[-1]).tolist()):
        raise failure("weighted system is not (numerically) positive definite; "
                      "at lambda=0 use the ridge or Liu-type estimator")
    solution = _eigen_solve(vecs, s, rhs)
    if d is not None:
        solution = solution - _eigen_solve(vecs, s, d * solution)
    if not np.isfinite(solution).all():
        raise NumericalFailure("weighted least-squares solve produced non-finite values")
    return solution


def _eigen_solve(vecs: np.ndarray, s: np.ndarray,
                 vector: np.ndarray) -> np.ndarray:
    return np.matvec(vecs, np.matvec(vecs.swapaxes(-1, -2), vector) / s)
