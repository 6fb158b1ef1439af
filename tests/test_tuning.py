import warnings

import numpy as np
import pytest

import poismoe as pm
from poismoe.errors import TuningFailed
from poismoe.gating import PI_FLOOR, gating_log_probabilities
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


def restricted_bound(gram, lam):
    """max(lambda_min(S), 0), S = gram + lam I, from the eigenvalues the
    optimizer itself computes."""
    return max(lam + float(np.linalg.eigh(gram)[0][0]), 0.0)


def test_lambda_plugin_values():
    # The second beta row's plug-in, 2 / 1e-8 = 2e8, and the zero-norm
    # gating rows' both read the cap, 1e6.
    psi = pm.Coefficients(beta=np.array([[1.0, 1.0], [1e-4, 0.0]]),
                          alpha=np.zeros((2, 1)))
    tuning = pm.estimate_ridge_lambdas(psi)
    assert tuning.lambda_beta[0] == pytest.approx(1.0, rel=1e-14)
    assert tuning.lambda_beta[1] == 1e6
    assert tuning.lambda_alpha.tolist() == [1e6, 1e6]
    assert tuning.d_beta.tolist() == [0.0, 0.0]
    assert tuning.d_alpha.tolist() == [0.0, 0.0]
    # A squared norm that overflows gets the floor, without a warning.
    huge = pm.Coefficients(beta=np.array([[1e200, 0.0]]),
                           alpha=np.zeros((1, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tuning = pm.estimate_ridge_lambdas(huge)
    assert tuning.lambda_beta.tolist() == [1e-12]


def test_lambda_plugin_study1_alpha_value():
    alpha = np.array([[0.5, -1.0, -1.0, 0.3, -3.0], np.zeros(5)])
    psi = pm.Coefficients(beta=np.zeros((2, 5)), alpha=alpha,
                          reference_class=1)
    tuning = pm.estimate_ridge_lambdas(psi)
    assert tuning.lambda_alpha[0] == pytest.approx(5.0 / 11.34, rel=1e-12)
    assert tuning.lambda_alpha[1] == LAMBDA_MAX


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
    # X = I, W = 1 gives A = I; with lam = 1, S = 2I and the shrink
    # matrix S^-1 (S - dI) S^-1 is (2 - d)/4 * I, so trace Var =
    # p (2-d)^2 / 16 and the mean is (2 - d)/4 * m.
    p = 3
    X = np.eye(p)
    weights = np.ones(p)
    m = np.array([1.0, 2.0, 3.0])
    target = np.array([0.5, -0.2, 0.1])
    for d in (0.0, 0.7, 2.0):
        expected = p * (2 - d) ** 2 / 16.0 \
            + float(np.sum(((2 - d) / 4.0 * m - target) ** 2))
        assert pm.lt_mse_beta(d, X, weights, 1.0, target, m) == \
            pytest.approx(expected, rel=1e-12)


def test_lt_mse_beta_zero_d_is_ridge_pattern():
    # At d = 0 the Liu-type estimator is the ridge solve S^-1 rhs.
    X, weights, lam, target, mean_vec = random_mse_instance(3)
    gram = X.T @ (weights[:, None] * X)
    shrink = np.linalg.inv(gram + lam * np.eye(X.shape[1]))
    expected = float(np.trace(shrink @ gram @ shrink.T)) \
        + float(np.sum((shrink @ (X.T @ (weights * mean_vec)) - target) ** 2))
    assert pm.lt_mse_beta(0.0, X, weights, lam, target, mean_vec) == \
        pytest.approx(expected, rel=1e-10)


def test_lt_mse_alpha_scalar_oracle():
    # One gating covariate: A = sum(w), S = A + lam, B = (S - d)/S^2.
    Omega = np.ones((4, 1))
    weights = np.array([0.1, 0.2, 0.15, 0.05])
    pi_plugin = np.array([0.3, 0.6, 0.5, 0.2])
    lam, d = 0.8, 1.7
    A = weights.sum()
    m = float(weights @ pi_plugin)
    B = (A + lam - d) / (A + lam) ** 2
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
    inputs = mse_inputs(X, weights, lam, target, mean_vec)
    d_star = pm.optimize_bias_correction(*inputs)
    upper = restricted_bound(inputs[0], lam)
    assert d_star == pytest.approx(float(np.clip(-b / (2 * a), 0.0, upper)),
                                   rel=1e-8)


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
    # X = I, W = 1, lam = 1: MSE(d) = p (2-d)^2/16 + ||(2-d) m/4 - t||^2,
    # minimized at d = 2 - 4 m.t / (p + ||m||^2) = 2 - 1.6/17 = 162/85,
    # inside [0, lambda_min(S)] = [0, 2].
    m = np.array([1.0, 2.0, 3.0])
    target = np.array([0.5, -0.2, 0.1])
    d_star = pm.optimize_bias_correction(np.eye(3), 1.0, m, target)
    assert d_star == pytest.approx(162.0 / 85.0, rel=1e-13)


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
    # The minimizer over the restricted interval [0, lambda_min(S)].
    X, weights, lam, target, mean_vec = random_mse_instance(seed + 100)

    def mse(d):
        return pm.lt_mse_beta(d, X, weights, lam, target, mean_vec)

    gram = X.T @ (weights[:, None] * X)
    d_star = pm.optimize_bias_correction(*mse_inputs(X, weights, lam, target,
                                                     mean_vec))
    grid = np.linspace(0.0, restricted_bound(gram, lam), 10_000)
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


def retune_inputs(seed=30, n_components=2, q=2):
    data, truth, part = small_mixture(seed=seed, n_components=n_components,
                                      q=q)
    anchors = pm.Coefficients(beta=0.8 * truth.beta, alpha=0.7 * truth.alpha,
                              reference_class=truth.reference_class)
    return data, truth, part, anchors


def per_component_corrections(data, part, psi_t, tuning, anchors):
    """d per component and class, one system at a time from row subsets."""
    n_components = psi_t.n_components
    d_beta, d_alpha = np.zeros(n_components), np.zeros(n_components)
    pi_t = pm.gating_probabilities(data.Omega, psi_t.alpha).T
    pi_anchor = pm.gating_probabilities(data.Omega, anchors.alpha).T
    for j in range(n_components):
        X_j = data.X[part == j]
        weights = pm.poisson_means(X_j, psi_t.beta[j])
        d_beta[j] = pm.optimize_bias_correction(
            X_j.T @ (weights[:, None] * X_j), tuning.lambda_beta[j],
            X_j.T @ (weights * pm.poisson_means(X_j, anchors.beta[j])),
            anchors.beta[j])
        if j != psi_t.reference_class:
            w = np.clip(pi_t[j], PI_FLOOR, 1.0 - PI_FLOOR)
            w = w * (1.0 - w)
            d_alpha[j] = pm.optimize_bias_correction(
                data.Omega.T @ (w[:, None] * data.Omega),
                tuning.lambda_alpha[j], data.Omega.T @ (w * pi_anchor[j]),
                anchors.alpha[j])
    return d_beta, d_alpha


def stacked_corrections(data, part, psi_t, tuning, anchors):
    return bias_corrections_for_partition(
        data, pm.build_workspace(data, part, psi_t.beta),
        gating_log_probabilities(data.Omega, psi_t.alpha), tuning, anchors,
        pm.poisson_means(data.X, anchors.beta),
        pm.gating_probabilities(data.Omega, anchors.alpha).T)


def test_bias_corrections_for_partition_reference_class_keeps_zero():
    data, truth, part, anchors = retune_inputs()
    lambdas = pm.estimate_ridge_lambdas(anchors, source="ridge")
    d_beta, d_alpha = stacked_corrections(data, part, truth, lambdas, anchors)
    assert d_alpha[truth.reference_class] == 0.0
    assert np.all(np.isfinite(d_beta))
    assert np.all(np.isfinite(d_alpha))


@pytest.mark.parametrize("n_components", [2, 3])
def test_stacked_corrections_equal_per_component_systems(n_components):
    data, truth, part, anchors = retune_inputs(seed=31,
                                               n_components=n_components, q=3)
    lambdas = pm.estimate_ridge_lambdas(anchors, source="ridge")
    got = stacked_corrections(data, part, truth, lambdas, anchors)
    expected = per_component_corrections(data, part, truth, lambdas, anchors)
    for values, reference in zip(got, expected):
        np.testing.assert_allclose(values, reference, rtol=1e-11, atol=1e-14)


def test_stacked_optimize_equals_per_system_calls():
    instances = [mse_inputs(*random_mse_instance(seed)) for seed in range(4)]
    instances.append((np.zeros((4, 4)), 0.5, np.zeros(4), np.ones(4)))  # flat
    stacked = pm.optimize_bias_correction(
        *(np.array([inst[k] for inst in instances]) for k in range(4)))
    single = [pm.optimize_bias_correction(*inst) for inst in instances]
    assert stacked.shape == (5,) and stacked[4] == 0.0
    np.testing.assert_allclose(stacked, single, rtol=1e-14, atol=0)


def test_optimize_refuses_only_where_the_quotients_are_not_finite():
    # An eigenvalue of 1e100 puts s^4 past the float range, but g^2/s^4
    # is still a number (about 1e-200): the minimizer is finite and no
    # overflow is raised on the way. At 1e200 even s^2 overflows and
    # g^2/s^4 is inf/inf: TuningFailed, before any quotient is formed.
    target = np.array([0.3, -0.4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d_star = pm.optimize_bias_correction(np.diag([1e100, 2.0]), 0.5,
                                             np.array([1e99, 1.0]), target)
        assert np.isfinite(d_star)
        with pytest.raises(TuningFailed):
            pm.optimize_bias_correction(np.diag([1e200, 2.0]), 0.5,
                                        np.array([1e99, 1.0]), target)
        stack = np.array([np.eye(2), np.diag([1e200, 2.0])])
        with pytest.raises(TuningFailed):
            pm.optimize_bias_correction(stack, np.array([0.5, 0.5]),
                                        np.ones((2, 2)), np.ones((2, 2)))


def test_overflowing_mean_vector_raises_without_a_warning():
    # A Gram of order one with a mean vector near 1e300 gives u ~ 1e300,
    # so u * u overflows: TuningFailed, and numpy prints no warning.
    stack = np.array([np.eye(2), np.diag([3.0, 0.5])])
    mean_vec = np.array([[1.0, 2.0], [1e300, -1e300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TuningFailed):
            pm.optimize_bias_correction(stack, np.array([0.5, 0.5]),
                                        mean_vec, np.ones((2, 2)))


def test_a_zero_shifted_eigenvalue_raises_without_a_warning():
    # g = -1e-12 shifted by lam = 1e-12 is s = 0 exactly (a singular Gram
    # at a tiny lambda), so g / s^2 is not a number: TuningFailed, and
    # numpy prints no divide-by-zero warning; alone and in a stack.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TuningFailed):
            pm.optimize_bias_correction(np.array([[-1e-12]]), 1e-12,
                                        np.ones(1), np.ones(1))
        stack = np.array([np.eye(2), np.diag([-1e-12, 1.0])])
        with pytest.raises(TuningFailed):
            pm.optimize_bias_correction(stack, np.array([1.0, 1e-12]),
                                        np.ones((2, 2)), np.ones((2, 2)))


@pytest.mark.parametrize("seed", range(12))
def test_optimize_stays_in_the_restricted_interval(seed):
    # d lies in [0, max(lam + g_min, 0)], every eigen-factor (s - d)/s of
    # the estimator in [0, 1], also for a singular Gram at lam = 1e-12,
    # where lam + g_min rounds below 0 for some seeds and d must be 0.
    gen = np.random.default_rng(seed)
    A = 100.0 * gen.normal(size=(20, 3))
    A[:, 2] = A[:, 0] - A[:, 1]
    weights = np.exp(gen.normal(size=20))
    gram = A.T @ (weights[:, None] * A)
    mean_vec = A.T @ (weights * np.exp(gen.normal(size=20)))
    target = gen.normal(size=3)
    for lam in (1e-12, 0.3, 50.0):
        d_star = pm.optimize_bias_correction(gram, lam, mean_vec, target)
        upper = restricted_bound(gram, lam)
        assert 0.0 <= d_star <= upper
        if lam + np.linalg.eigh(gram)[0][0] < 0.0:
            assert d_star == 0.0
    # Unclipped, these minimizers fall on either side of the interval.
    stack = np.array([np.eye(2), np.eye(2)])
    below, above = pm.optimize_bias_correction(
        stack, np.array([1.0, 1.0]), np.array([[4.0, 4.0], [0.1, 0.1]]),
        np.array([[9.0, 9.0], [-1.0, -1.0]]))
    assert (below, above) == (0.0, 2.0)


def test_tuning_params_refuse_a_negative_bias_correction():
    # Nor a d that is not finite.
    for d_beta, d_alpha in (([-0.1, 0.2], [0.0, 0.1]),
                            ([0.1, 0.2], [0.0, -1e-300]),
                            ([0.1, np.nan], [0.0, 0.0]),
                            ([0.1, np.inf], [0.0, 0.0]),
                            ([0.1, 0.1], [np.nan, 0.0]),
                            ([0.1, 0.1], [np.inf, 0.0])):
        with pytest.raises(ValueError, match="finite and non-negative"):
            pm.TuningParams(lambda_beta=[0.5, 0.5], lambda_alpha=[0.5, 0.5],
                            d_beta=d_beta, d_alpha=d_alpha)
