import numpy as np
import pytest

import poismoe as pm
from poismoe import sem
from poismoe.errors import DimensionError, EmptyPartition
from poismoe.sem import _fill_empty_groups

from conftest import single_component_data, small_mixture
from test_poisson import iterate_ml_to_convergence, poisson_mle_oracle


def test_e_step_single_component_is_one():
    data, _, _, _ = small_mixture(seed=1)
    psi = pm.Coefficients(beta=np.full((1, data.p), 0.2),
                          alpha=np.zeros((1, data.q)))
    tau, _ = pm.e_step(data, psi)
    assert np.array_equal(tau, np.ones((data.n, 1)))


def test_e_step_identical_components_reduce_to_gating():
    data, truth, _, _ = small_mixture(seed=2)
    beta = np.vstack([truth.beta[0], truth.beta[0]])
    psi = pm.Coefficients(beta=beta, alpha=truth.alpha, reference_class=0)
    tau, _ = pm.e_step(data, psi)
    pi = pm.gating_probabilities(data.Omega, truth.alpha)
    assert np.max(np.abs(tau - pi)) < 1e-12


def test_e_step_matches_unlogged_ratio_oracle():
    from scipy.stats import poisson as poisson_dist
    data, truth, _, _ = small_mixture(seed=3, n=30)
    tau, _ = pm.e_step(data, truth)
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


def test_m_step_single_component_is_one_irwls_step():
    data, part, _ = single_component_data()
    psi = pm.Coefficients(beta=np.zeros((1, 2)), alpha=np.zeros((1, 1)))
    updated = pm.m_step(data, part, psi, method="ml")
    ws = pm.build_workspace(data, part, np.zeros((1, 2)))
    expected = pm.irwls_beta_step(ws)
    assert np.array_equal(updated.beta, expected)
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
    result = pm.m_step(data, part, truth, method="ridge", tuning=tuning)

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

    # The gate is refit to convergence: iterate the ridge IRLS step.
    alpha = np.array(truth.alpha)
    j = 1  # reference is class 0
    for _ in range(100):
        scores = Omega @ alpha.T
        raw = np.exp(scores - scores.max(axis=1, keepdims=True))
        pi = raw / raw.sum(axis=1, keepdims=True)
        pij = np.clip(pi[:, j], 1e-10, 1 - 1e-10)
        w = pij * (1 - pij)
        U = (part.assignment == j).astype(float) - pi[:, j]
        v = Omega @ alpha[j] + U / w
        gram = Omega.T @ np.diag(w) @ Omega \
            + tuning.lambda_alpha[j] * np.eye(Omega.shape[1])
        step = np.linalg.inv(gram) @ (Omega.T @ np.diag(w) @ v)
        done = np.max(np.abs(step - alpha[j])) < 1e-13
        alpha[j] = step
        if done:
            break
    assert done
    assert np.allclose(result.alpha, alpha, rtol=1e-8, atol=1e-10)


def test_initialize_deterministic_and_zero_alpha():
    data, _, _, _ = small_mixture(seed=10)
    spec = pm.MixtureSpec(2, 0)
    a = pm.initialize(data, spec, np.random.default_rng(5))
    b = pm.initialize(data, spec, np.random.default_rng(5))
    assert np.array_equal(a.beta, b.beta)
    assert np.all(a.alpha == 0.0)


def per_group_warm_start(data, assignment, n_components):
    """Oracle: three unpenalized IRWLS steps on each group's own rows from
    its intercept-only start, which a refused solve keeps; one group at a
    time, the form the warm start had before it was stacked."""
    beta = np.zeros((n_components, data.p))
    for j in range(n_components):
        rows = assignment == j
        X, y = data.X[rows], data.y[rows].astype(float)
        start = np.zeros(data.p)
        start[0] = np.log(y.mean() + 0.5)
        beta[j] = start
        try:
            for _ in range(3):
                mu = np.exp(X @ beta[j])
                beta[j] = pm.linalg.penalized_wls_solve(
                    X.T @ (mu[:, None] * X), X.T @ (mu * (X @ beta[j]) + y - mu))
        except pm.NumericalFailure:
            beta[j] = start
    return beta


def initial_split(data, n_components, seed):
    """The split ``initialize`` draws from ``default_rng(seed)``."""
    draw = np.random.default_rng(seed).integers(0, n_components, size=data.n)
    return _fill_empty_groups(draw, n_components)


@pytest.mark.parametrize("n_components", [1, 2, 3, 4])
def test_initialize_matches_per_group_warm_start(n_components):
    for seed in range(25):
        data, _, _, _ = small_mixture(seed=seed, n=30 * n_components,
                                      n_components=n_components)
        got = pm.initialize(data, pm.MixtureSpec(n_components, 0),
                            np.random.default_rng(seed))
        oracle = per_group_warm_start(
            data, initial_split(data, n_components, seed), n_components)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(got.beta - oracle)) <= 1e-12 * scale


def test_initialize_falls_back_to_intercepts_when_one_group_is_singular():
    data, _, _, _ = small_mixture(seed=4, n=90, n_components=3)
    assignment = initial_split(data, 3, seed=7)
    X = np.array(data.X)
    X[assignment == 1, 2] = 0.5  # constant next to the intercept
    data = pm.Dataset(y=data.y, X=X, Omega=data.Omega)
    oracle = per_group_warm_start(data, assignment, 3)
    # One group at a time, only group 1 would keep its start.
    assert np.all(oracle[1, 1:] == 0.0) and np.all(oracle[[0, 2], 1:] != 0.0)
    got = pm.initialize(data, pm.MixtureSpec(3, 0), np.random.default_rng(7))
    intercepts = np.zeros((3, data.p))
    intercepts[:, 0] = [np.log(data.y[assignment == j].mean() + 0.5)
                        for j in range(3)]
    assert np.array_equal(got.beta, intercepts)


def test_fewer_observations_than_components_is_a_dimension_error():
    data, _, _ = single_component_data(n=2)
    spec = pm.MixtureSpec(3, 0)
    with pytest.raises(DimensionError, match="fewer observations"):
        pm.initialize(data, spec, np.random.default_rng(0))
    opts = pm.SemOptions(epsilon=1e-6, max_iters=3, burn_in=1, n_restarts=2)
    with pytest.raises(DimensionError, match="fewer observations"):
        pm.run_sem(data, spec, opts)


def test_initialize_single_component_draws_nothing():
    data, _, _, _ = small_mixture(seed=11, n_components=1)
    rng = np.random.default_rng(13)
    pm.initialize(data, pm.MixtureSpec(1, 0), rng)
    assert rng.bit_generator.state == \
        np.random.default_rng(13).bit_generator.state


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
    design = pm.study_presets("study1", phi=0.9, rho=0.85, n=60)
    data, _ = pm.simulate_dataset(design, np.random.default_rng(42))
    opts = pm.SemOptions(epsilon=1e-8, max_iters=40, burn_in=10,
                         n_restarts=2, rng_seed=9)
    spec = pm.MixtureSpec(2, 1)
    one = pm.run_sem(data, spec, opts, method="ml")
    two = pm.run_sem(data, spec, opts, method="ml")
    assert np.array_equal(one.psi_hat.beta, two.psi_hat.beta)
    assert np.array_equal(one.psi_hat.alpha, two.psi_hat.alpha)
    assert np.array_equal(one.loglik_trace, two.loglik_trace)
    assert one.selected_iteration == two.selected_iteration


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
    data, _, _, _ = small_mixture(seed=16)
    tuning = pm.TuningParams(lambda_beta=[0.5, 0.5], lambda_alpha=[0.5, 0.5],
                             d_beta=[0.1, 0.1], d_alpha=[0.0, 0.0])
    calls = []

    def retune(data_, workspace, log_pi):
        # The hook sees the batch of chains, here the one restart.
        calls.append(np.count_nonzero(workspace.weights, axis=-1))
        assert log_pi.shape == (1, 2, data.n)
        return tuning

    opts = pm.SemOptions(epsilon=1e-8, max_iters=10, burn_in=0, n_restarts=1,
                         rng_seed=2)
    fit = pm.run_sem(data, pm.MixtureSpec(2, 0), opts, method="lt",
                     tuning=tuning, retune=retune)
    assert len(calls) >= 1
    assert np.all(np.isfinite(fit.psi_hat.beta))
    assert fit.tuning is tuning


def test_run_sem_reports_the_tuning_of_the_selected_iteration():
    data, _, _, _ = small_mixture(seed=16)
    returned = []

    def retune(data_, workspace, log_pi):
        d = 0.01 * len(returned)
        returned.append(pm.TuningParams(
            lambda_beta=[0.5, 0.5], lambda_alpha=[0.5, 0.5],
            d_beta=[d, d], d_alpha=[0.0, d]))
        return returned[-1]

    start = pm.TuningParams.ridge_only([0.5, 0.5], [0.5, 0.5])
    opts = pm.SemOptions(epsilon=1e-300, max_iters=12, burn_in=3,
                         n_restarts=1, rng_seed=5)
    fit = pm.run_sem(data, pm.MixtureSpec(2, 0), opts, method="lt",
                     tuning=start, retune=retune)
    assert len(returned) == fit.iterations_run
    assert fit.selected_iteration >= 3
    assert fit.tuning is returned[fit.selected_iteration]


def test_e_step_loglik_is_the_observed_loglik():
    data, truth, _, _ = small_mixture(seed=18, n=70)
    for psi in (truth, truth.permute((1, 0))):
        tau, loglik = pm.e_step(data, psi)
        assert loglik == pm.observed_loglik(data, psi)
        assert np.array_equal(tau, pm.responsibilities(data, psi))
        assert np.max(np.abs(tau.sum(axis=1) - 1.0)) < 1e-12


def test_selected_loglik_is_the_observed_loglik_of_psi_hat():
    data, _, _, _ = small_mixture(seed=18, n=70)
    opts = pm.SemOptions(epsilon=1e-300, max_iters=15, burn_in=0,
                         n_restarts=2, rng_seed=31)
    fit = pm.run_sem(data, pm.MixtureSpec(2, 0), opts, method="ml")
    assert fit.loglik_trace[fit.selected_iteration] == \
        pm.observed_loglik(data, fit.psi_hat)


@pytest.mark.parametrize("method", ["ml", "ridge", "lt"])
def test_handed_over_gate_log_softmax_equals_recomputed(method):
    # The chain hands the gate ascent's log-softmax to the next E-step
    # and from there to the next M-step; each use must see bit for bit
    # what recomputing it from the coefficients gives.
    data, truth, _, part = small_mixture(seed=9, n=50, q=3, n_components=3)
    tuning = pm.TuningParams(lambda_beta=[0.5, 0.9, 0.7],
                             lambda_alpha=[0.7, 1.1, 0.4],
                             d_beta=[0.1, 0.2, 0.3], d_alpha=[0.2, 0.1, 0.05])
    log_pi = pm.gating.gating_log_probabilities(data.Omega, truth.alpha)
    tau, loglik = pm.e_step(data, truth, log_pi)
    tau_fresh, loglik_fresh = pm.e_step(data, truth)
    assert np.array_equal(tau, tau_fresh) and loglik == loglik_fresh
    updated = pm.m_step(data, part, truth, method=method,
                        tuning=None if method == "ml" else tuning,
                        log_pi=log_pi)
    fresh = pm.m_step(data, part, truth, method=method,
                      tuning=None if method == "ml" else tuning)
    assert np.array_equal(updated.alpha, fresh.alpha)
    assert np.array_equal(updated.beta, fresh.beta)
    assert np.array_equal(
        log_pi, pm.gating.gating_log_probabilities(data.Omega, updated.alpha))
    tau, loglik = pm.e_step(data, updated, log_pi)
    tau_fresh, loglik_fresh = pm.e_step(data, updated)
    assert np.array_equal(tau, tau_fresh) and loglik == loglik_fresh


def restart_generators(seed, restarts):
    """The generators ``run_sem`` gives the listed restarts."""
    return [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
            for r in restarts]


def chain_record(outcome):
    """A chain's outcome as bytes and plain values: its iterates,
    log-likelihoods, per-iterate tunings, convergence and interruption."""
    tunings = []
    for index in range(len(outcome.logliks)):
        tuning = outcome.tuning(index)
        tunings.append(None if tuning is None else tuple(
            np.asarray(getattr(tuning, name)).tobytes() for name in
            ("lambda_beta", "lambda_alpha", "d_beta", "d_alpha")))
    return ([beta.tobytes() for beta in outcome.betas],
            [alpha.tobytes() for alpha in outcome.alphas],
            np.asarray(outcome.logliks).tobytes(), tunings,
            outcome.converged, outcome.interruption)


def batch_and_solo_runs(data, spec, opts, method="ml", tuning=None,
                        retune=None):
    """Every restart's outcome from one lockstep batch, and each
    restart's outcome run alone."""
    restarts = range(opts.n_restarts)
    batch = sem._run_chains(data, spec, opts, method, tuning,
                            restart_generators(opts.rng_seed, restarts),
                            retune)
    solo = [sem._run_chains(data, spec, opts, method, tuning,
                            restart_generators(opts.rng_seed, [r]),
                            retune)[0] for r in restarts]
    return batch, solo


def test_interrupted_chains_leave_the_batch_and_the_others_run_on():
    # On this data restart 0 draws an empty component after 6 iterations
    # and restart 1 meets a singular system after 3, while restart 2 runs
    # to the cap. Each keeps what it had completed, with its own reason,
    # and every chain matches its run alone bit for bit.
    data, _, _, _ = small_mixture(seed=234, n=12, p=3, q=2)
    opts = pm.SemOptions(epsilon=1e-300, max_iters=25, burn_in=0,
                         n_restarts=3, rng_seed=234)
    batch, solo = batch_and_solo_runs(data, pm.MixtureSpec(2, 0), opts)
    assert [len(o.logliks) for o in batch] == [6, 3, 25]
    assert batch[0].interruption.startswith("EmptyPartition: component")
    assert batch[1].interruption.startswith("SingularSystem: ")
    assert batch[2].interruption is None and not batch[2].converged
    for together, alone in zip(batch, solo):
        assert chain_record(together) == chain_record(alone)


def test_fit_failed_diagnostics_keep_restart_order():
    # Every restart fails before its first iteration, for two reasons;
    # the diagnostics list them by restart, each with its solo reason.
    data, _, _, _ = small_mixture(seed=7, n=4, p=3, q=2)
    opts = pm.SemOptions(epsilon=1e-300, max_iters=5, burn_in=0,
                         n_restarts=3, rng_seed=7)
    _, solo = batch_and_solo_runs(data, pm.MixtureSpec(2, 0), opts)
    reasons = [outcome.interruption for outcome in solo]
    assert [reason.split(":")[0] for reason in reasons] == [
        "SingularSystem", "EmptyPartition", "SingularSystem"]
    with pytest.raises(pm.FitFailed) as failed:
        pm.run_sem(data, pm.MixtureSpec(2, 0), opts)
    assert failed.value.diagnostics == [
        f"restart {r}: {reason}" for r, reason in enumerate(reasons)]
