"""Plug-in ridge parameters and Liu-type bias-correction optimization.

Ridge parameters come from the classic plug-in p / ||coef||^2 (per
component, separately for the regression and gating blocks). The
Liu-type correction d minimizes a plug-in mean-squared error that is
exactly quadratic in d; one eigendecomposition of the Gram matrix gives
its coefficients and so the minimizer in closed form.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .errors import TuningFailed
from .gating import PI_FLOOR, gating_probabilities
from .model import Coefficients, Dataset, PartitionState, TuningParams
from .poisson import poisson_means

# Ceiling applied when a plug-in source vector has (near-)zero norm,
# and a floor keeping the plug-in strictly positive when the source norm
# overflows (an effectively unpenalized solve).
LAMBDA_MAX = 1e6
LAMBDA_MIN = 1e-12

__all__ = [
    "LAMBDA_MAX",
    "estimate_ridge_lambdas",
    "lt_mse_beta",
    "lt_mse_alpha",
    "optimize_bias_correction",
    "bias_corrections_for_partition",
]


def estimate_ridge_lambdas(psi_source: Coefficients, p: int | None = None,
                           q: int | None = None,
                           source: str = "") -> TuningParams:
    """Per-component plug-ins p/||beta_j||^2 and q/||alpha_j||^2.

    A zero-norm source vector (the reference gating row, for instance)
    would send the plug-in to infinity; such entries are capped at
    ``LAMBDA_MAX`` and flagged.
    """
    p = psi_source.p if p is None else p
    q = psi_source.q if q is None else q

    def plug_in(vectors: np.ndarray, dim: int) -> tuple[np.ndarray, tuple[bool, ...]]:
        values, capped = [], []
        for vec in vectors:
            norm_sq = float(vec @ vec)
            raw = dim / norm_sq if norm_sq > 0 else np.inf
            hit = not np.isfinite(raw) or raw > LAMBDA_MAX
            values.append(LAMBDA_MAX if hit else max(raw, LAMBDA_MIN))
            capped.append(hit)
        return np.asarray(values), tuple(capped)

    lam_beta, capped_beta = plug_in(psi_source.beta, p)
    lam_alpha, capped_alpha = plug_in(psi_source.alpha, q)
    return TuningParams.ridge_only(lam_beta, lam_alpha, source=source,
                                   lambda_beta_capped=capped_beta,
                                   lambda_alpha_capped=capped_alpha)


def _lt_mse(d: float, gram: np.ndarray, lam: float, mean_vec: np.ndarray,
            target: np.ndarray) -> float:
    """tr Var + squared bias for the Liu-type estimator pattern.

    With S = gram + lam*I and B(d) = S^-1 (gram - d*I) S^-1, the
    variance term is tr[B gram B'] and the mean is B @ mean_vec.
    """
    size = gram.shape[0]
    system = gram + lam * np.eye(size)
    try:
        factor = cho_factor(system, lower=True, check_finite=False)
    except (LinAlgError, ValueError) as exc:
        raise TuningFailed("MSE system could not be factored") from exc
    half = cho_solve(factor, gram - d * np.eye(size), check_finite=False)
    shrink = cho_solve(factor, half.T, check_finite=False).T
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


def optimize_bias_correction(gram: np.ndarray, lam: float,
                             mean_vec: np.ndarray, target: np.ndarray) -> float:
    """Exact minimizer of the Liu-type plug-in MSE over d.

    With gram = V diag(g) V', s = g + lam, u = V'mean_vec / s^2 and
    w = V'target, the MSE that ``lt_mse_beta``/``lt_mse_alpha`` evaluate
    is sum g (g - d)^2 / s^4 + ||(g - d) u - w||^2, a quadratic in d
    whose minimizer is
    d* = [sum g^2/s^4 + u.(g u - w)] / [sum g/s^4 + ||u||^2].
    A zero denominator means a flat MSE (zero Gram and mean), where any
    d is optimal and 0 (the ridge solve) is returned.
    """
    try:
        g, vecs = np.linalg.eigh(np.asarray(gram, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise TuningFailed("MSE Gram matrix could not be diagonalized") from exc
    s_sq = (g + float(lam)) ** 2
    u = vecs.T @ np.asarray(mean_vec, dtype=float) / s_sq
    w = vecs.T @ np.asarray(target, dtype=float)
    numerator = float(np.sum(g * g / (s_sq * s_sq)) + u @ (g * u - w))
    denominator = float(np.sum(g / (s_sq * s_sq)) + u @ u)
    if not (np.isfinite(numerator) and np.isfinite(denominator)):
        raise TuningFailed("MSE coefficients are not finite")
    if denominator == 0.0:
        return 0.0
    d_opt = numerator / denominator
    if not np.isfinite(d_opt):
        raise TuningFailed("bias-correction minimizer is not finite")
    return d_opt


def bias_corrections_for_partition(data: Dataset, part: PartitionState,
                                   psi_plugin: Coefficients,
                                   tuning: TuningParams,
                                   psi_weights: Coefficients | None = None
                                   ) -> tuple[np.ndarray, np.ndarray]:
    """Optimal d per component/class, with the given fit as plug-in truth.

    ``psi_plugin`` supplies the "true" coefficients of the bias term and
    the plug-in means/probabilities; ``psi_weights`` (default: same)
    supplies the working weights, so the MSE describes exactly the
    system about to be solved. The regression-side Gram uses the rows of
    the partition; the gating side uses all rows. Components with no
    assigned rows and the reference class keep d=0.
    """
    if psi_weights is None:
        psi_weights = psi_plugin
    n_components = psi_plugin.n_components
    d_beta = np.zeros(n_components)
    d_alpha = np.zeros(n_components)
    for j in range(n_components):
        rows = part.assignment == j
        if not rows.any():
            continue
        X_j = data.X[rows]
        weights = poisson_means(X_j, psi_weights.beta[j])
        mu_plugin = poisson_means(X_j, psi_plugin.beta[j])
        d_beta[j] = optimize_bias_correction(
            X_j.T @ (weights[:, None] * X_j), float(tuning.lambda_beta[j]),
            X_j.T @ (weights * mu_plugin), psi_plugin.beta[j])
    pi_weights = gating_probabilities(data.Omega, psi_weights.alpha)
    pi_plugin = gating_probabilities(data.Omega, psi_plugin.alpha)
    for j in range(n_components):
        if j == psi_plugin.reference_class:
            continue
        weights = np.clip(pi_weights[:, j], PI_FLOOR, 1.0 - PI_FLOOR)
        weights = weights * (1.0 - weights)
        d_alpha[j] = optimize_bias_correction(
            data.Omega.T @ (weights[:, None] * data.Omega),
            float(tuning.lambda_alpha[j]),
            data.Omega.T @ (weights * pi_plugin[:, j]), psi_plugin.alpha[j])
    return d_beta, d_alpha
