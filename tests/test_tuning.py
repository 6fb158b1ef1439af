import numpy as np
import pytest

import poismoe as pm
from poismoe.errors import TuningFailed
from poismoe.tuning import LAMBDA_MAX, bias_corrections_for_partition

from conftest import small_mixture


def random_mse_instance(seed, n=30, p=4, lam=None):
    gen = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), gen.normal(size=(n, p - 1))])
    weights = np.exp(gen.normal(scale=0.6, size=n))
    target = gen.normal(size=p)
    mean_vec = np.exp(gen.normal(scale=0.5, size=n))
    lam = lam if lam is not None else float(gen.uniform(0.2, 2.0))
    return X, weights, lam, target, mean_vec


def mse_inputs(X, weights, lam, target, mean_vec):
    """The (gram, lam, mean_vec, target) that lt_mse_beta builds."""
    return (X.T @ (weights[:, None] * X), lam, X.T @ (weights * mean_vec),
            target)


def test_lambda_plugin_values():
    psi = pm.Coefficients(beta=np.array([[1.0, 1.0]]),
                          alpha=np.zeros((1, 1)))
    tuning = pm.estimate_ridge_lambdas(psi)
    assert tuning.lambda_beta[0] == pytest.approx(1.0, rel=1e-14)
    assert tuning.lambda_alpha_capped == (True,)
    assert tuning.lambda_alpha[0] == LAMBDA_MAX


def test_lambda_plugin_study1_alpha_value():
    alpha = np.array([[0.5, -1.0, -1.0, 0.3, -3.0], np.zeros(5)])
    psi = pm.Coefficients(beta=np.zeros((2, 5)), alpha=alpha,
                          reference_class=1)
    tuning = pm.estimate_ridge_lambdas(psi)
    assert tuning.lambda_alpha[0] == pytest.approx(5.0 / 11.34, rel=1e-12)
    assert tuning.lambda_alpha_capped == (False, True)


def test_lambda_plugin_scale_covariance():
    gen = np.random.default_rng(1)
    beta = gen.normal(size=(1, 4))
    base = pm.estimate_ridge_lambdas(
        pm.Coefficients(beta=beta, alpha=np.zeros((1, 1))))
    scaled = pm.estimate_ridge_lambdas(
        pm.Coefficients(beta=3.0 * beta, alpha=np.zeros((1, 1))))
    assert scaled.lambda_beta[0] == pytest.approx(base.lambda_beta[0] / 9.0,
                                                  rel=1e-12)


def test_lt_mse_beta_identity_matrix_oracle():
    # X = I, W = 1 gives A = I; with lam = 1 the shrink matrix is
    # (1 - d)/4 * I, so trace Var = p (1-d)^2 / 16 and the mean is
    # (1 - d)/4 * m.
    p = 3
    X = np.eye(p)
    weights = np.ones(p)
    m = np.array([1.0, 2.0, 3.0])
    target = np.array([0.5, -0.2, 0.1])
    for d in (0.0, 0.7, -2.0):
        expected = p * (1 - d) ** 2 / 16.0 \
            + float(np.sum(((1 - d) / 4.0 * m - target) ** 2))
        assert pm.lt_mse_beta(d, X, weights, 1.0, target, m) == \
            pytest.approx(expected, rel=1e-12)


def test_lt_mse_beta_zero_d_is_ridge_pattern():
    X, weights, lam, target, mean_vec = random_mse_instance(3)
    gram = X.T @ (weights[:, None] * X)
    S_inv = np.linalg.inv(gram + lam * np.eye(X.shape[1]))
    shrink = S_inv @ gram @ S_inv
    expected = float(np.trace(shrink @ gram @ shrink.T)) \
        + float(np.sum((shrink @ (X.T @ (weights * mean_vec)) - target) ** 2))
    assert pm.lt_mse_beta(0.0, X, weights, lam, target, mean_vec) == \
        pytest.approx(expected, rel=1e-10)


def test_lt_mse_alpha_scalar_oracle():
    # One gating covariate: A = sum(w), S = A + lam, B = (A - d)/S^2.
    Omega = np.ones((4, 1))
    weights = np.array([0.1, 0.2, 0.15, 0.05])
    pi_plugin = np.array([0.3, 0.6, 0.5, 0.2])
    lam, d = 0.8, 1.7
    A = weights.sum()
    m = float(weights @ pi_plugin)
    B = (A - d) / (A + lam) ** 2
    expected = B * A * B + (B * m - 0.4) ** 2
    assert pm.lt_mse_alpha(d, Omega, weights, lam, np.array([0.4]),
                           pi_plugin) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mse_is_exactly_quadratic(seed):
    X, weights, lam, target, mean_vec = random_mse_instance(seed)

    def mse(d):
        return pm.lt_mse_beta(d, X, weights, lam, target, mean_vec)

    f = {d: mse(d) for d in (-1.0, 0.0, 1.0)}
    a = (f[-1.0] - 2 * f[0.0] + f[1.0]) / 2.0
    b = (f[1.0] - f[-1.0]) / 2.0
    c = f[0.0]
    for d in (2.0, -3.5, 7.25):
        assert a * d * d + b * d + c == pytest.approx(mse(d), rel=1e-9)
    assert a > 0
    d_star = pm.optimize_bias_correction(*mse_inputs(X, weights, lam, target,
                                                     mean_vec))
    assert d_star == pytest.approx(-b / (2 * a), rel=1e-8)


def test_quadratic_interpolation_predicts_held_out_point():
    X, weights, lam, target, mean_vec = random_mse_instance(9)

    def mse(d):
        return pm.lt_mse_beta(d, X, weights, lam, target, mean_vec)

    f = {d: mse(d) for d in (-1.0, 0.0, 1.0)}
    a = (f[-1.0] - 2 * f[0.0] + f[1.0]) / 2.0
    b = (f[1.0] - f[-1.0]) / 2.0
    c = f[0.0]
    assert a * 4.0 + b * 2.0 + c == pytest.approx(mse(2.0), rel=1e-10)


def test_optimize_known_parabola():
    # X = I, W = 1, lam = 1: MSE(d) = p (1-d)^2/16 + ||(1-d) m/4 - t||^2,
    # minimized at d = 1 - 4 m.t / (p + ||m||^2) = 1 - 1.6/17 = 77/85.
    m = np.array([1.0, 2.0, 3.0])
    target = np.array([0.5, -0.2, 0.1])
    d_star = pm.optimize_bias_correction(np.eye(3), 1.0, m, target)
    assert d_star == pytest.approx(77.0 / 85.0, rel=1e-13)


def test_optimize_flat_mse_gives_zero():
    # A zero Gram and mean make the MSE the constant ||target||^2.
    assert pm.optimize_bias_correction(np.zeros((2, 2)), 0.5, np.zeros(2),
                                       np.array([1.0, -2.0])) == 0.0


def test_optimize_raises_on_nonfinite():
    gram, lam, mean_vec, target = mse_inputs(*random_mse_instance(4))
    for bad in (np.nan, np.inf):
        broken_gram = gram.copy()
        broken_gram[0, 1] = broken_gram[1, 0] = bad
        with pytest.raises(TuningFailed):
            pm.optimize_bias_correction(broken_gram, lam, mean_vec, target)
        broken_mean = mean_vec.copy()
        broken_mean[2] = bad
        with pytest.raises(TuningFailed):
            pm.optimize_bias_correction(gram, lam, broken_mean, target)
    # a NaN denominator must not pass for the flat d = 0 case
    with pytest.raises(TuningFailed):
        pm.optimize_bias_correction(np.zeros((2, 2)), 0.5,
                                    np.array([np.nan, 0.0]), np.ones(2))


@pytest.mark.parametrize("seed", range(20))
def test_closed_form_matches_dense_grid(seed):
    X, weights, lam, target, mean_vec = random_mse_instance(seed + 100)

    def mse(d):
        return pm.lt_mse_beta(d, X, weights, lam, target, mean_vec)

    gram = X.T @ (weights[:, None] * X)
    bound = 10.0 * (lam + float(np.linalg.norm(gram, 2))) + 1.0
    d_star = pm.optimize_bias_correction(*mse_inputs(X, weights, lam, target,
                                                     mean_vec))
    grid = np.linspace(-bound, bound, 10_000)
    cell = grid[1] - grid[0]
    best = grid[int(np.argmin([mse(float(g)) for g in grid]))]
    assert abs(d_star - best) <= cell


def test_optimized_mse_never_exceeds_ridge_pattern():
    for seed in range(5):
        X, weights, lam, target, mean_vec = random_mse_instance(seed + 40)

        def mse(d):
            return pm.lt_mse_beta(d, X, weights, lam, target, mean_vec)

        d_star = pm.optimize_bias_correction(*mse_inputs(X, weights, lam,
                                                         target, mean_vec))
        assert mse(d_star) <= mse(0.0) + 1e-12


def test_bias_corrections_for_partition_reference_class_keeps_zero():
    data, truth, _, part = small_mixture(seed=30)
    lambdas = pm.estimate_ridge_lambdas(truth, source="ridge")
    d_beta, d_alpha = bias_corrections_for_partition(data, part, truth,
                                                     lambdas)
    assert d_alpha[truth.reference_class] == 0.0
    assert np.all(np.isfinite(d_beta))
    assert np.all(np.isfinite(d_alpha))
