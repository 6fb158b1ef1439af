"""Plug-in ridge parameters and Liu-type bias-correction optimization.

Ridge parameters come from the classic plug-in p / ||coef||^2 (per
component, separately for the regression and gating blocks). The
Liu-type correction d minimizes the plug-in mean-squared error of the
estimator :func:`~poismoe.linalg.penalized_wls_solve` applies. It is
exactly quadratic in d; one stacked eigendecomposition of the Gram
matrices gives its minimizer over [0, lambda_min(S)] in closed form for
every component (or class) at once.
"""
from __future__ import annotations

import numpy as np

from .errors import TuningFailed
from .gating import gate_variance_weights
from .linalg import rowwise_product
from .model import Coefficients, Dataset, TuningParams
from .poisson import ComponentWorkspace

# Ceiling applied when a plug-in source vector has (near-)zero norm,
# and a floor keeping the plug-in strictly positive when the source norm
# overflows (an effectively unpenalized solve).
LAMBDA_MAX = 1e6
LAMBDA_MIN = 1e-12
# Largest s whose square is finite.
_SQRT_MAX = float(np.sqrt(np.finfo(float).max))

__all__ = [
    "LAMBDA_MAX",
    "estimate_ridge_lambdas",
    "lt_mse_beta",
    "lt_mse_alpha",
    "optimize_bias_correction",
    "bias_corrections_for_partition",
]


def estimate_ridge_lambdas(psi_source: Coefficients,
                           source: str = "") -> TuningParams:
    """Per-component plug-ins p/||beta_j||^2 and q/||alpha_j||^2.

    A zero-norm source vector (the reference gating row, for instance)
    would send the plug-in to infinity; such entries are capped at
    ``LAMBDA_MAX``.
    """

    def plug_in(vectors: np.ndarray, dim: int) -> np.ndarray:
        values = []
        for vec in vectors:
            norm_sq = float(vec @ vec)
            raw = dim / norm_sq if norm_sq > 0 else np.inf
            values.append(min(max(raw, LAMBDA_MIN), LAMBDA_MAX))
        return np.asarray(values)

    return TuningParams.ridge_only(plug_in(psi_source.beta, psi_source.p),
                                   plug_in(psi_source.alpha, psi_source.q),
                                   source=source)


def _lt_mse(d: float, gram: np.ndarray, lam: float, mean_vec: np.ndarray,
            target: np.ndarray) -> float:
    """tr Var + squared bias of the Liu-type estimator B(d) rhs.

    With S = gram + lam*I and B(d) = S^-1 (S - d*I) S^-1, the estimator
    ``penalized_wls_solve`` applies, the variance term is tr[B gram B']
    and the mean is B @ mean_vec; d=0 scores the ridge solve S^-1 rhs.
    The test oracle for :func:`optimize_bias_correction`, so built apart
    from its eigenbasis, with np.linalg.solve."""
    size = gram.shape[0]
    system = gram + lam * np.eye(size)
    try:
        half = np.linalg.solve(system, system - d * np.eye(size))
        shrink = np.linalg.solve(system, half.T).T
    except np.linalg.LinAlgError as exc:
        raise TuningFailed("MSE system could not be solved") from exc
    variance_trace = float(np.trace(shrink @ gram @ shrink.T))
    bias = shrink @ mean_vec - target
    value = variance_trace + float(bias @ bias)
    if not np.isfinite(value):
        raise TuningFailed("MSE evaluation is not finite")
    return value


def lt_mse_beta(d: float, X_j: np.ndarray, W_j: np.ndarray, lambda_j: float,
                beta_plugin: np.ndarray, mu_plugin: np.ndarray) -> float:
    """Plug-in MSE of the Liu-type regression update for one component."""
    X_j = np.asarray(X_j, dtype=float)
    W_j = np.asarray(W_j, dtype=float)
    gram = X_j.T @ (W_j[:, None] * X_j)
    mean_vec = X_j.T @ (W_j * np.asarray(mu_plugin, dtype=float))
    return _lt_mse(float(d), gram, float(lambda_j),
                   mean_vec, np.asarray(beta_plugin, dtype=float))


def lt_mse_alpha(d_star: float, Omega: np.ndarray, Wg_j: np.ndarray,
                 lambda_star_j: float, alpha_plugin: np.ndarray,
                 pi_plugin: np.ndarray) -> float:
    """Plug-in MSE of the Liu-type gating update for one class."""
    Omega = np.asarray(Omega, dtype=float)
    Wg_j = np.asarray(Wg_j, dtype=float)
    gram = Omega.T @ (Wg_j[:, None] * Omega)
    mean_vec = Omega.T @ (Wg_j * np.asarray(pi_plugin, dtype=float))
    return _lt_mse(float(d_star), gram, float(lambda_star_j),
                   mean_vec, np.asarray(alpha_plugin, dtype=float))


def optimize_bias_correction(gram: np.ndarray, lam, mean_vec: np.ndarray,
                             target: np.ndarray):
    """Minimizer of the Liu-type plug-in MSE over 0 <= d <= lambda_min(S).

    With gram = V diag(g) V', s = g + lam, u = V'mean_vec / s^2 and
    w = V'target, the MSE that ``lt_mse_beta``/``lt_mse_alpha`` evaluate
    is sum g (s - d)^2 / s^4 + ||(s - d) u - w||^2, a quadratic in d
    whose minimizer is
    d* = [sum g/s^3 + u.(s u - w)] / [sum g/s^4 + ||u||^2],
    clipped into [0, max(s[0], 0)], where every eigen-factor (s - d)/s
    lies in [0, 1] (s[0] = lam + g_min can round below 0 for a singular
    Gram at a tiny lam). A flat MSE (zero Gram and mean, a zero
    denominator) gives 0, the ridge solve.

    ``gram`` is one (k, k) system, giving a float, or a stack (K, k, k)
    with ``lam`` (K,) and ``mean_vec``, ``target`` (K, k), giving the K
    minimizers as an array; one ``np.linalg.eigh`` call diagonalizes the
    whole stack. The quotients are taken as (g/s^2)/s, (g/s^2)/s^2 and
    (V'mean_vec/s^2) s, which cannot overflow, and an s whose square
    would overflow raises :class:`TuningFailed` before any quotient is
    formed: there g / s^2 is inf/inf, so the MSE has no finite
    coefficients. Coefficients that overflow anyway raise
    :class:`TuningFailed` too, without a numpy warning. If any system of
    a stack fails, the whole call raises.
    """
    try:
        g, vecs = np.linalg.eigh(np.asarray(gram, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise TuningFailed("MSE Gram matrix could not be diagonalized") from exc
    s = g + np.asarray(lam, dtype=float)[..., None]
    if not (np.abs(s) <= _SQRT_MAX).all():
        raise TuningFailed("MSE coefficients are not finite")
    s_sq = s * s
    # Overflow (say, of a mean vector near the largest float) leaves
    # non-finite coefficients, which the checks below refuse.
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = g / s_sq
        u = (np.asarray(mean_vec, dtype=float)[..., None, :]
             @ vecs)[..., 0, :] / s_sq
        w = (np.asarray(target, dtype=float)[..., None, :] @ vecs)[..., 0, :]
        numerator = ((ratio / s).sum(axis=-1)
                     + (u * (s * u - w)).sum(axis=-1))
        denominator = (ratio / s_sq).sum(axis=-1) + (u * u).sum(axis=-1)
        flat = denominator == 0.0
        d_opt = np.where(flat, 0.0,
                         numerator / np.where(flat, 1.0, denominator))
    if not (np.isfinite(numerator).all() and np.isfinite(denominator).all()):
        raise TuningFailed("MSE coefficients are not finite")
    if not np.isfinite(d_opt).all():
        raise TuningFailed("bias-correction minimizer is not finite")
    d_opt = np.clip(d_opt, 0.0, np.maximum(s[..., 0], 0.0))
    return float(d_opt) if d_opt.ndim == 0 else d_opt


def bias_corrections_for_partition(data: Dataset,
                                   workspace: ComponentWorkspace,
                                   log_pi: np.ndarray, tuning: TuningParams,
                                   anchors: Coefficients,
                                   anchor_means: np.ndarray,
                                   anchor_pi: np.ndarray
                                   ) -> tuple[np.ndarray, np.ndarray]:
    """Optimal d per component/class, with the ridge ``anchors`` as plug-in truth.

    ``workspace`` holds the stacked beta systems about to be solved
    (:func:`~poismoe.poisson.build_workspace` of the partition at the
    chain iterate) and ``log_pi`` the iterate's (J, n) gate log-softmax.
    The beta MSE describes exactly the systems the M-step solves; the
    gate's d is scored on each class's diagonal block at the iterate,
    while the gate applies it on the stacked system of its last ridge
    Newton step. The anchors supply the "true" coefficients of the bias term, their
    plug-in means ``anchor_means = poisson_means(X, anchors.beta)`` and
    their gate probabilities ``anchor_pi``, both (J, n). The regression
    side reads its Grams from the workspace and weighs the rows of the
    partition; the gating side uses all rows and the diagonal-block
    weights of the gate's Newton system. One stacked
    :func:`optimize_bias_correction` call serves the J components and
    one the J-1 free classes; the reference class keeps d=0. A batch of
    chains (a workspace and ``log_pi`` with a leading chain axis) is
    served by the same two calls, giving (B, J) corrections whose rows
    are each chain's own, bit for bit.
    """
    d_beta = optimize_bias_correction(
        workspace.gram, tuning.lambda_beta,
        rowwise_product(workspace.weights * anchor_means, data.X),
        anchors.beta)
    n_components, q = anchors.n_components, anchors.q
    free = np.flatnonzero(np.arange(n_components) != anchors.reference_class)
    d_alpha = np.zeros((*log_pi.shape[:-2], n_components))
    if free.size:
        weights = gate_variance_weights(np.exp(log_pi[..., free, :]))
        grams = rowwise_product(weights, data.Omega_outer).reshape(
            *weights.shape[:-1], q, q)
        d_alpha[..., free] = optimize_bias_correction(
            grams, tuning.lambda_alpha[free],
            rowwise_product(weights * anchor_pi[free], data.Omega),
            anchors.alpha[free])
    return d_beta, d_alpha
