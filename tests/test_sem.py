import numpy as np
import pytest

import poismoe as pm
from poismoe.errors import EmptyPartition

from conftest import single_component_data, small_mixture
from test_poisson import iterate_ml_to_convergence, poisson_mle_oracle


def separated_design(n=80, seed=0):
    return pm.SimulationDesign(
        n=n, beta_true=((0.2,), (3.0,)), alpha_true=((0.8,), (0.0,)),
        reference_class=1, phi=0.0, rho=0.0, seed=seed)


def test_e_step_single_component_is_one():
    data, _, _, _ = small_mixture(seed=1)
    psi = pm.Coefficients(beta=np.full((1, data.p), 0.2),
                          alpha=np.zeros((1, data.q)))
    tau = pm.e_step(data, psi)
    assert np.array_equal(tau, np.ones((data.n, 1)))


def test_e_step_identical_components_reduce_to_gating():
    data, truth, _, _ = small_mixture(seed=2)
    beta = np.vstack([truth.beta[0], truth.beta[0]])
    psi = pm.Coefficients(beta=beta, alpha=truth.alpha, reference_class=0)
    tau = pm.e_step(data, psi)
    pi = pm.gating_probabilities(data.Omega, truth.alpha)
    assert np.max(np.abs(tau - pi)) < 1e-12


def test_e_step_matches_unlogged_ratio_oracle():
    from scipy.stats import poisson as poisson_dist
    data, truth, _, _ = small_mixture(seed=3, n=30)
    tau = pm.e_step(data, truth)
    pi = pm.gating_probabilities(data.Omega, truth.alpha)
    mu = np.exp(data.X @ truth.beta.T)
    weights = pi * poisson_dist.pmf(data.y[:, None], mu)
    oracle = weights / weights.sum(axis=1, keepdims=True)
    assert np.max(np.abs(tau - oracle)) < 1e-12


def test_s_step_degenerate_rows_are_deterministic(rng):
    tau = np.zeros((10, 2))
    tau[:5, 0] = 1.0
    tau[5:, 1] = 1.0
    part = pm.s_step(tau, rng)
    assert np.array_equal(part.assignment, np.array([0] * 5 + [1] * 5))


def test_s_step_binomial_concentration():
    tau = np.full((10_000, 2), 0.5)
    part = pm.s_step(tau, np.random.default_rng(77))
    assert abs(part.counts[0] - 5000) <= 200  # 4 sigma, sigma = 50


def test_s_step_is_deterministic_given_seed():
    tau = np.full((500, 3), 1.0 / 3.0)
    a = pm.s_step(tau, np.random.default_rng(123))
    b = pm.s_step(tau, np.random.default_rng(123))
    assert np.array_equal(a.assignment, b.assignment)


def test_s_step_raises_on_empty_component(rng):
    tau = np.zeros((6, 2))
    tau[:, 0] = 1.0
    with pytest.raises(EmptyPartition):
        pm.s_step(tau, rng)


def test_hard_partition_argmax():
    tau = np.array([[0.7, 0.3], [0.2, 0.8], [0.9, 0.1]])
    part = pm.hard_partition(tau)
    assert np.array_equal(part.assignment, [0, 1, 0])


def test_m_step_single_component_is_one_irwls_step():
    data, part, _ = single_component_data()
    psi = pm.Coefficients(beta=np.zeros((1, 2)), alpha=np.zeros((1, 1)))
    updated = pm.m_step(data, part, psi, method="ml")
    ws = pm.build_workspace(data, part, 0, np.zeros(2))
    expected = pm.irwls_beta_step(ws, pm.Penalty.ml())
    assert np.array_equal(updated.beta[0], expected)
    assert np.all(updated.alpha == 0.0)


def test_m_step_liu_with_zero_d_matches_ridge():
    data, truth, _, part = small_mixture(seed=6)
    tuning = pm.TuningParams(lambda_beta=[0.5, 0.9], lambda_alpha=[0.7, 1.1],
                             d_beta=[0.0, 0.0], d_alpha=[0.0, 0.0])
    ridge = pm.m_step(data, part, truth, method="ridge", tuning=tuning)
    lt = pm.m_step(data, part, truth, method="lt", tuning=tuning)
    assert np.array_equal(ridge.beta, lt.beta)
    assert np.array_equal(ridge.alpha, lt.alpha)


def test_m_step_matches_scripted_linear_algebra():
    data, truth, _, part = small_mixture(seed=8, n=40)
    tuning = pm.TuningParams(lambda_beta=[0.4, 0.8], lambda_alpha=[0.6, 1.2],
                             d_beta=[0.0, 0.0], d_alpha=[0.0, 0.0])
    result = pm.m_step(data, part, truth, method="ridge", tuning=tuning,
                       inner_max=1)

    X, Omega, y = np.asarray(data.X), np.asarray(data.Omega), data.y
    beta_expected = np.empty_like(np.asarray(truth.beta))
    for j in range(2):
        rows = part.assignment == j
        Xj = X[rows]
        mu = np.exp(Xj @ truth.beta[j])
        z_star = Xj @ truth.beta[j] + (y[rows] - mu) / mu
        gram = Xj.T @ np.diag(mu) @ Xj \
            + tuning.lambda_beta[j] * np.eye(X.shape[1])
        beta_expected[j] = np.linalg.inv(gram) @ (Xj.T @ np.diag(mu) @ z_star)
    assert np.allclose(result.beta, beta_expected, rtol=1e-10)

    alpha = np.array(truth.alpha)
    for j in (1,):  # reference is class 0
        scores = Omega @ alpha.T
        raw = np.exp(scores - scores.max(axis=1, keepdims=True))
        pi = raw / raw.sum(axis=1, keepdims=True)
        pij = np.clip(pi[:, j], 1e-10, 1 - 1e-10)
        w = pij * (1 - pij)
        U = (part.assignment == j).astype(float) - pi[:, j]
        v = Omega @ alpha[j] + U / w
        gram = Omega.T @ np.diag(w) @ Omega \
            + tuning.lambda_alpha[j] * np.eye(Omega.shape[1])
        alpha[j] = np.linalg.inv(gram) @ (Omega.T @ np.diag(w) @ v)
    assert np.allclose(result.alpha, alpha, rtol=1e-10)


def test_initialize_deterministic_and_zero_alpha():
    data, _, _, _ = small_mixture(seed=10)
    spec = pm.MixtureSpec(2, 0)
    a = pm.initialize(data, spec, np.random.default_rng(5))
    b = pm.initialize(data, spec, np.random.default_rng(5))
    assert np.array_equal(a.beta, b.beta)
    assert np.all(a.alpha == 0.0)


def test_initialize_quantile_split_separates_plateaus():
    y = np.array([0] * 10 + [9] * 10)
    data = pm.Dataset(y=y, X=np.ones((20, 1)), Omega=np.ones((20, 1)))
    psi0 = pm.initialize(data, pm.MixtureSpec(2, 0),
                         np.random.default_rng(0), strategy="quantile")
    low, high = psi0.beta[0, 0], psi0.beta[1, 0]
    assert low < 0.0 < high
    assert high == pytest.approx(np.log(9.0), abs=1e-3)


def test_run_sem_huge_epsilon_stops_after_one_iteration():
    data, _, _, _ = small_mixture(seed=12)
    opts = pm.SemOptions(epsilon=1e9, max_iters=50, burn_in=0, n_restarts=1,
                         rng_seed=3)
    fit = pm.run_sem(data, pm.MixtureSpec(2, 0), opts, method="ml")
    assert fit.iterations_run == 1
    assert fit.converged
    assert fit.tuning is None


def test_run_sem_single_component_matches_newton_oracle():
    data, part, _ = single_component_data()
    opts = pm.SemOptions(epsilon=1e-12, max_iters=300, burn_in=0,
                         n_restarts=1, rng_seed=1)
    fit = pm.run_sem(data, pm.MixtureSpec(1, 0), opts, method="ml")
    oracle = poisson_mle_oracle(np.asarray(data.X), data.y.astype(float), 2)
    assert np.max(np.abs((fit.psi_hat.beta[0] - oracle) / oracle)) < 1e-6


def test_run_sem_is_deterministic():
    design = pm.study_presets("study1", phi=0.9, rho=0.85, n=60, seed=4)
    data, _, _ = pm.simulate_dataset(design, np.random.default_rng(42))
    opts = pm.SemOptions(epsilon=1e-8, max_iters=40, burn_in=10,
                         n_restarts=2, rng_seed=9)
    spec = pm.MixtureSpec(2, 1)
    one = pm.run_sem(data, spec, opts, method="ml")
    two = pm.run_sem(data, spec, opts, method="ml")
    assert np.array_equal(one.psi_hat.beta, two.psi_hat.beta)
    assert np.array_equal(one.psi_hat.alpha, two.psi_hat.alpha)
    assert np.array_equal(one.loglik_trace, two.loglik_trace)
    assert one.selected_iteration == two.selected_iteration


def test_deterministic_variant_has_nondecreasing_loglik():
    design = separated_design(seed=2)
    data, _, _ = pm.simulate_dataset(design, np.random.default_rng(11))
    opts = pm.SemOptions(epsilon=1e-12, max_iters=60, burn_in=0,
                         n_restarts=1, rng_seed=7, hard_assignment=True)
    fit = pm.run_sem(data, pm.MixtureSpec(2, 1), opts, method="ml")
    diffs = np.diff(fit.loglik_trace)
    assert np.all(diffs >= -1e-10)


def test_label_permutation_closure_deterministic_variant():
    design = separated_design(seed=3)
    data, _, _ = pm.simulate_dataset(design, np.random.default_rng(13))
    spec = pm.MixtureSpec(2, 1)
    opts = pm.SemOptions(epsilon=1e-12, max_iters=40, burn_in=0,
                         n_restarts=1, rng_seed=5, hard_assignment=True)
    psi0 = pm.Coefficients(beta=np.array([[0.3], [2.5]]),
                           alpha=np.array([[0.6], [0.0]]), reference_class=1)
    fit_a = pm.run_sem(data, spec, opts, method="ml", psi0=psi0)
    fit_b = pm.run_sem(data, spec, opts, method="ml",
                       psi0=psi0.permute((1, 0)))
    aligned = fit_b.psi_hat.permute(
        pm.align_components(fit_b.psi_hat, fit_a.psi_hat))
    assert np.allclose(aligned.beta, fit_a.psi_hat.beta, atol=1e-8)
    assert np.allclose(aligned.alpha, fit_a.psi_hat.alpha, atol=1e-8)


def test_run_sem_post_burnin_mean_selection():
    data, _, _, _ = small_mixture(seed=14, n=80)
    opts = pm.SemOptions(epsilon=1e-12, max_iters=30, burn_in=10,
                         n_restarts=1, rng_seed=21,
                         estimate_selection="post_burnin_mean")
    fit = pm.run_sem(data, pm.MixtureSpec(2, 0), opts, method="ml")
    assert fit.iterations_run <= 30
    assert 0 <= fit.selected_iteration < fit.iterations_run
    assert np.all(np.isfinite(fit.psi_hat.beta))
    assert np.all(fit.psi_hat.alpha[0] == 0.0)


def test_run_sem_retune_hook_is_called():
    data, truth, _, _ = small_mixture(seed=16)
    anchors = truth
    tuning = pm.TuningParams(lambda_beta=[0.5, 0.5], lambda_alpha=[0.5, 0.5],
                             d_beta=[0.1, 0.1], d_alpha=[0.0, 0.0])
    calls = []

    def retune(data_, part, psi_t, anchors_):
        calls.append(part.counts.copy())
        return tuning

    opts = pm.SemOptions(epsilon=1e-8, max_iters=10, burn_in=0, n_restarts=1,
                         rng_seed=2)
    fit = pm.run_sem(data, pm.MixtureSpec(2, 0), opts, method="lt",
                     tuning=tuning, anchors=anchors, retune=retune)
    assert len(calls) >= 1
    assert np.all(np.isfinite(fit.psi_hat.beta))
    assert fit.tuning is tuning


def test_run_sem_reports_the_tuning_of_the_selected_iteration():
    data, truth, _, _ = small_mixture(seed=16)
    returned = []

    def retune(data_, part, psi_t, anchors_):
        d = 0.01 * len(returned)
        returned.append(pm.TuningParams(
            lambda_beta=[0.5, 0.5], lambda_alpha=[0.5, 0.5],
            d_beta=[d, d], d_alpha=[0.0, d]))
        return returned[-1]

    start = pm.TuningParams.ridge_only([0.5, 0.5], [0.5, 0.5])
    opts = pm.SemOptions(epsilon=1e-300, max_iters=12, burn_in=3,
                         n_restarts=1, rng_seed=5)
    fit = pm.run_sem(data, pm.MixtureSpec(2, 0), opts, method="lt",
                     tuning=start, anchors=truth, retune=retune)
    assert len(returned) == fit.iterations_run
    assert fit.selected_iteration >= 3
    assert fit.tuning is returned[fit.selected_iteration]


def test_run_sem_iteration_hook_sees_row_stochastic_tau():
    data, _, _, _ = small_mixture(seed=18, n=70)
    deviations = []

    def hook(state, tau):
        deviations.append(np.max(np.abs(tau.sum(axis=1) - 1.0)))
        assert state.loglik == pytest.approx(
            pm.observed_loglik(data, state.psi), rel=1e-12)

    opts = pm.SemOptions(epsilon=1e-300, max_iters=15, burn_in=0,
                         n_restarts=1, rng_seed=31)
    pm.run_sem(data, pm.MixtureSpec(2, 0), opts, method="ml",
               on_iteration=hook)
    assert deviations and max(deviations) < 1e-12
