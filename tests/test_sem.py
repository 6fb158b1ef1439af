import re

import numpy as np
import pytest

import poismoe as pm
from poismoe import sem
from poismoe.errors import DimensionError, EmptyPartition
from poismoe.sem import _fill_empty_groups

from conftest import single_component_data, small_mixture
from test_poisson import iterate_ml_to_convergence, poisson_mle_oracle


def test_e_step_single_component_is_one():
    data, _, _ = small_mixture(seed=1)
    psi = pm.Coefficients(beta=np.full((1, data.p), 0.2),
                          alpha=np.zeros((1, data.q)))
    tau, _ = pm.e_step(data, psi)
    assert np.array_equal(tau, np.ones((data.n, 1)))


def test_e_step_identical_components_reduce_to_gating():
    data, truth, _ = small_mixture(seed=2)
    beta = np.vstack([truth.beta[0], truth.beta[0]])
    psi = pm.Coefficients(beta=beta, alpha=truth.alpha, reference_class=0)
    tau, _ = pm.e_step(data, psi)
    pi = pm.gating_probabilities(data.Omega, truth.alpha)
    assert np.max(np.abs(tau - pi)) < 1e-12


def test_e_step_matches_unlogged_ratio_oracle():
    from scipy.stats import poisson as poisson_dist
    data, truth, _ = small_mixture(seed=3, n=30)
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
    labels = pm.s_step(tau, rng)
    assert np.array_equal(labels, np.array([0] * 5 + [1] * 5))


def test_s_step_binomial_concentration():
    tau = np.full((10_000, 2), 0.5)
    counts = np.bincount(pm.s_step(tau, np.random.default_rng(77)))
    assert abs(counts[0] - 5000) <= 200  # 4 sigma, sigma = 50


def test_s_step_is_deterministic_given_seed():
    tau = np.full((500, 3), 1.0 / 3.0)
    a = pm.s_step(tau, np.random.default_rng(123))
    b = pm.s_step(tau, np.random.default_rng(123))
    assert np.array_equal(a, b)


def test_empty_s_step_draw_raises_in_build_workspace(rng):
    # The S-step returns a draw that leaves a component empty, for one
    # chain and for a batch; the M-step's beta systems refuse it.
    data = pm.Dataset(y=np.arange(6), X=np.ones((6, 1)), Omega=np.ones((6, 1)))
    empty = np.zeros((6, 2))
    empty[:, 0] = 1.0
    split = np.repeat(np.eye(2), 3, axis=0)
    one = pm.s_step(empty, rng)
    batch = pm.s_step(np.stack([split, empty]), [rng, rng])
    assert np.bincount(one, minlength=2).tolist() == [6, 0]
    assert [np.bincount(row, minlength=2).tolist() for row in batch] \
        == [[3, 3], [6, 0]]
    for labels, beta in ((one, np.zeros((2, 1))),
                         (batch, np.zeros((2, 2, 1)))):
        with pytest.raises(EmptyPartition,
                           match="^component 1 received no observations$"):
            pm.build_workspace(data, labels, beta)


def test_m_step_single_component_is_one_irwls_step():
    data, part, _ = single_component_data()
    psi = pm.Coefficients(beta=np.zeros((1, 2)), alpha=np.zeros((1, 1)))
    updated = pm.m_step(data, part, psi)
    ws = pm.build_workspace(data, part, np.zeros((1, 2)))
    expected = pm.irwls_beta_step(ws)
    assert np.array_equal(updated.beta, expected)
    assert np.all(updated.alpha == 0.0)


def test_m_step_liu_with_zero_d_matches_ridge():
    data, truth, part = small_mixture(seed=6)
    lam = (np.array([0.5, 0.9]), np.array([0.7, 1.1]))
    ridge = pm.m_step(data, part, truth, lam)
    lt = pm.m_step(data, part, truth, lam, (np.zeros(2), np.zeros(2)))
    assert np.array_equal(ridge.beta, lt.beta)
    assert np.array_equal(ridge.alpha, lt.alpha)


LABEL_CHECKING_STEPS = {
    "m_step": lambda data, labels, psi: pm.m_step(data, labels, psi),
    "build_workspace": lambda data, labels, psi: pm.build_workspace(
        data, labels, psi.beta),
    "coordinate_descent_alphas": lambda data, labels, psi:
        pm.coordinate_descent_alphas(data.Omega, psi.alpha, labels, None,
                                     None, psi.reference_class),
}


@pytest.mark.parametrize("step", LABEL_CHECKING_STEPS)
@pytest.mark.parametrize("labels", [
    [0, 1, 0, 1, 0, 2], [0, 1, -1, 1, 0, 1],
    [[0, 1, 0, 1, 0, 1], [0, 1, 2, 1, 0, 1]],  # 2 would index the next chain
    [[0, 1, 0, 1, 0, -1], [0, 1, 0, 1, 0, 1]]],
    ids=["one-high", "one-negative", "batch-high", "batch-negative"])
def test_every_m_step_layer_refuses_a_label_outside_the_components(
        step, labels):
    # A label outside [0, J), and a partition not shaped one row of n per
    # chain: one chain's (n,) labels would broadcast over a batch, and a
    # batch's (2, 3) rows would pass for one chain's partition of n = 6.
    data, _, _ = small_mixture(seed=3, n=6)
    labels = np.array(labels)
    chains = labels.shape[:-1]
    psi = pm.Coefficients(beta=np.zeros((*chains, 2, data.p)),
                          alpha=np.zeros((*chains, 2, data.q)))
    with pytest.raises(ValueError, match=r"^labels must lie in \[0, 2\)$"):
        LABEL_CHECKING_STEPS[step](data, labels, psi)
    for shape in ((1, 2, 6), (6,) if chains else (2, 3)):
        with pytest.raises(DimensionError, match=re.escape(
                f"labels of shape {shape} are not one row of 6 per chain")):
            LABEL_CHECKING_STEPS[step](data, np.resize([0, 1], shape), psi)


def test_m_step_refuses_a_bias_correction_without_lambdas():
    data, truth, part = small_mixture(seed=6)
    with pytest.raises(ValueError, match="needs the ridge lambdas"):
        pm.m_step(data, part, truth, None, (np.zeros(2), np.zeros(2)))


def test_m_step_matches_scripted_linear_algebra():
    data, truth, part = small_mixture(seed=8, n=40)
    lambda_beta, lambda_alpha = np.array([0.4, 0.8]), np.array([0.6, 1.2])
    result = pm.m_step(data, part, truth, (lambda_beta, lambda_alpha))

    X, Omega, y = np.asarray(data.X), np.asarray(data.Omega), data.y
    beta_expected = np.empty_like(np.asarray(truth.beta))
    for j in range(2):
        rows = part == j
        Xj = X[rows]
        mu = np.exp(Xj @ truth.beta[j])
        z_star = Xj @ truth.beta[j] + (y[rows] - mu) / mu
        gram = Xj.T @ np.diag(mu) @ Xj \
            + lambda_beta[j] * np.eye(X.shape[1])
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
        U = (part == j).astype(float) - pi[:, j]
        v = Omega @ alpha[j] + U / w
        gram = Omega.T @ np.diag(w) @ Omega \
            + lambda_alpha[j] * np.eye(Omega.shape[1])
        step = np.linalg.inv(gram) @ (Omega.T @ np.diag(w) @ v)
        done = np.max(np.abs(step - alpha[j])) < 1e-13
        alpha[j] = step
        if done:
            break
    assert done
    assert np.allclose(result.alpha, alpha, rtol=1e-8, atol=1e-10)


def test_initialize_deterministic_and_zero_alpha():
    data, _, _ = small_mixture(seed=10)
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
        data, _, _ = small_mixture(seed=seed, n=30 * n_components,
                                   n_components=n_components)
        got = pm.initialize(data, pm.MixtureSpec(n_components, 0),
                            np.random.default_rng(seed))
        oracle = per_group_warm_start(
            data, initial_split(data, n_components, seed), n_components)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(got.beta - oracle)) <= 1e-12 * scale


def test_initialize_falls_back_to_intercepts_when_one_group_is_singular():
    data, _, _ = small_mixture(seed=4, n=90, n_components=3)
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
    data, _, _ = small_mixture(seed=11, n_components=1)
    rng = np.random.default_rng(13)
    pm.initialize(data, pm.MixtureSpec(1, 0), rng)
    assert rng.bit_generator.state == \
        np.random.default_rng(13).bit_generator.state


def test_run_sem_huge_epsilon_stops_after_one_iteration():
    data, _, _ = small_mixture(seed=12)
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
    data, _, _ = small_mixture(seed=14, n=80)
    opts = pm.SemOptions(epsilon=1e-12, max_iters=30, burn_in=10,
                         n_restarts=1, rng_seed=21,
                         estimate_selection="post_burnin_mean")
    fit = pm.run_sem(data, pm.MixtureSpec(2, 0), opts, method="ml")
    assert fit.iterations_run <= 30
    assert 0 <= fit.selected_iteration < fit.iterations_run
    assert np.all(np.isfinite(fit.psi_hat.beta))
    assert np.all(fit.psi_hat.alpha[0] == 0.0)


def test_run_sem_retune_hook_is_called():
    data, _, _ = small_mixture(seed=16)
    tuning = pm.TuningParams([0.5, 0.5], [0.5, 0.5], [0.0, 0.0], [0.0, 0.0])
    calls = []

    def retune(workspace, log_pi):
        # The hook sees the batch of chains, here the one restart, and
        # returns one row of d per chain.
        calls.append(np.count_nonzero(workspace.weights, axis=-1))
        assert log_pi.shape == (1, 2, data.n)
        return np.array([[0.1, 0.1]]), np.array([[0.0, 0.0]])

    opts = pm.SemOptions(epsilon=1e-8, max_iters=10, burn_in=0, n_restarts=1,
                         rng_seed=2)
    fit = pm.run_sem(data, pm.MixtureSpec(2, 0), opts, method="lt",
                     tuning=tuning, retune=retune)
    assert len(calls) >= 1
    assert np.all(np.isfinite(fit.psi_hat.beta))
    assert fit.tuning.d_beta.tolist() == [0.1, 0.1]
    assert fit.tuning.d_alpha.tolist() == [0.0, 0.0]
    assert fit.tuning.lambda_beta.tolist() == [0.5, 0.5]
    assert fit.tuning.lambda_alpha.tolist() == [0.5, 0.5]


@pytest.mark.parametrize("method, retuned", [
    ("lt", False), ("ridge", True), ("ml", True)])
def test_run_sem_takes_a_retuner_for_a_liu_type_fit_only(method, retuned):
    # A Liu-type fit's d comes from its retuner alone; no other fit has one.
    data, _, _ = small_mixture(seed=16)
    tuning = pm.TuningParams([0.5, 0.5], [0.5, 0.5], [0.0, 0.0], [0.0, 0.0])
    opts = pm.SemOptions(epsilon=1e-8, max_iters=3, burn_in=0, n_restarts=1,
                         rng_seed=2)

    def retune(workspace, log_pi):
        raise AssertionError("never called")

    with pytest.raises(ValueError, match="^a Liu-type fit, and only one, "
                                         "needs a retuner$"):
        pm.run_sem(data, pm.MixtureSpec(2, 0), opts, method=method,
                   tuning=tuning, retune=retune if retuned else None)


@pytest.mark.parametrize("method, tuned, message", [
    ("mle", True, "^unknown method 'mle'$"),
    ("ridge", False, "^method 'ridge' requires tuning parameters$")])
def test_run_sem_refuses_an_unknown_method_or_a_ridge_fit_untuned(
        method, tuned, message):
    data, _, _ = small_mixture(seed=16)
    tuning = pm.TuningParams([0.5, 0.5], [0.5, 0.5], [0.0, 0.0], [0.0, 0.0])
    opts = pm.SemOptions(epsilon=1e-8, max_iters=3, burn_in=0, n_restarts=1,
                         rng_seed=2)
    with pytest.raises(ValueError, match=message):
        pm.run_sem(data, pm.MixtureSpec(2, 0), opts, method=method,
                   tuning=tuning if tuned else None)


def test_run_sem_reports_the_tuning_of_the_selected_iteration():
    data, _, _ = small_mixture(seed=16)
    returned = []

    def retune(workspace, log_pi):
        d = 0.01 * len(returned)
        returned.append(([d, d], [0.0, d]))
        return np.array([returned[-1][0]]), np.array([returned[-1][1]])

    start = pm.TuningParams([0.5, 0.5], [0.5, 0.5], [0.0, 0.0], [0.0, 0.0])
    opts = pm.SemOptions(epsilon=1e-300, max_iters=12, burn_in=3,
                         n_restarts=1, rng_seed=5)
    fit = pm.run_sem(data, pm.MixtureSpec(2, 0), opts, method="lt",
                     tuning=start, retune=retune)
    assert len(returned) == fit.iterations_run
    assert fit.selected_iteration >= 3
    d_beta, d_alpha = returned[fit.selected_iteration]
    assert fit.tuning.d_beta.tolist() == d_beta
    assert fit.tuning.d_alpha.tolist() == d_alpha
    assert fit.tuning.lambda_beta.tolist() == start.lambda_beta.tolist()


def test_e_step_loglik_is_the_observed_loglik():
    data, truth, _ = small_mixture(seed=18, n=70)
    for psi in (truth, truth.permute((1, 0))):
        tau, loglik = pm.e_step(data, psi)
        assert loglik == pm.observed_loglik(data, psi)
        assert np.array_equal(tau, pm.responsibilities(data, psi))
        assert np.max(np.abs(tau.sum(axis=1) - 1.0)) < 1e-12


def test_selected_loglik_is_the_observed_loglik_of_psi_hat():
    data, _, _ = small_mixture(seed=18, n=70)
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
    data, truth, part = small_mixture(seed=9, n=50, q=3, n_components=3)
    lam = None if method == "ml" else (np.array([0.5, 0.9, 0.7]),
                                       np.array([0.7, 1.1, 0.4]))
    d = None if method != "lt" else (np.array([0.1, 0.2, 0.3]),
                                     np.array([0.2, 0.1, 0.05]))
    log_pi = pm.gating.gating_log_probabilities(data.Omega, truth.alpha)
    tau, loglik = pm.e_step(data, truth, log_pi)
    tau_fresh, loglik_fresh = pm.e_step(data, truth)
    assert np.array_equal(tau, tau_fresh) and loglik == loglik_fresh
    updated = pm.m_step(data, part, truth, lam, d, log_pi=log_pi)
    fresh = pm.m_step(data, part, truth, lam, d)
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
    log-likelihoods, per-iterate bias corrections and end."""
    return ([beta.tobytes() for beta in outcome.betas],
            [alpha.tobytes() for alpha in outcome.alphas],
            np.asarray(outcome.logliks).tobytes(),
            [(d_beta.tobytes(), d_alpha.tobytes())
             for d_beta, d_alpha in outcome.ds],
            outcome.end)


def batch_and_solo_runs(data, spec, opts, lam=None, retune=None):
    """Every restart's outcome from one lockstep batch, and each
    restart's outcome run alone, under the lambdas ``lam`` and the d of
    ``retune``."""
    restarts = range(opts.n_restarts)
    batch = sem._run_chains(data, spec, opts, lam,
                            restart_generators(opts.rng_seed, restarts),
                            retune)
    solo = [sem._run_chains(data, spec, opts, lam,
                            restart_generators(opts.rng_seed, [r]), retune)[0]
            for r in restarts]
    return batch, solo


def test_interrupted_chains_leave_the_batch_and_the_others_run_on(
        monkeypatch):
    # On this data restart 0 draws an empty component after 6 iterations
    # and restart 1 meets a singular system after 3, while restart 2 runs
    # to the cap. Each keeps what it had completed, with its own reason,
    # and every chain matches its run alone bit for bit.
    data, _, _ = small_mixture(seed=234, n=12, p=3, q=2)
    opts = pm.SemOptions(epsilon=1e-300, max_iters=25, burn_in=0,
                         n_restarts=3, rng_seed=234)
    chains_per_e_step = []

    def spy(data, psi, log_pi):
        chains_per_e_step.append(psi.beta.shape[0])
        return e_step(data, psi, log_pi)

    e_step = sem.e_step
    monkeypatch.setattr(sem, "e_step", spy)
    batch, solo = batch_and_solo_runs(data, pm.MixtureSpec(2, 0), opts)
    assert [len(o.logliks) for o in batch] == [6, 3, 25]
    assert batch[0].end.startswith("EmptyPartition: component")
    assert batch[1].end.startswith("SingularSystem: ")
    assert batch[2].end == "cap"
    for together, alone in zip(batch, solo):
        assert chain_record(together) == chain_record(alone)
    # The batch's first E-steps: the start and three iterations of all
    # three chains; the fourth iteration raises, each chain retries it
    # alone (restart 1 raises before its E-step), and restarts 0 and 2
    # take it again as one batch, then two more iterations.
    assert chains_per_e_step[:9] == [3] * 4 + [1, 1] + [2] * 3


def test_fit_failed_diagnostics_keep_restart_order():
    # Every restart fails before its first iteration, for two reasons;
    # the diagnostics list them by restart, each with its solo reason.
    data, _, _ = small_mixture(seed=7, n=4, p=3, q=2)
    opts = pm.SemOptions(epsilon=1e-300, max_iters=5, burn_in=0,
                         n_restarts=3, rng_seed=7)
    _, solo = batch_and_solo_runs(data, pm.MixtureSpec(2, 0), opts)
    reasons = [outcome.end for outcome in solo]
    assert [reason.split(":")[0] for reason in reasons] == [
        "SingularSystem", "EmptyPartition", "SingularSystem"]
    with pytest.raises(pm.FitFailed) as failed:
        pm.run_sem(data, pm.MixtureSpec(2, 0), opts)
    assert failed.value.diagnostics == [
        f"restart {r}: {reason}" for r, reason in enumerate(reasons)]


def test_each_restart_reports_how_its_chain_ended():
    # On this data the five restarts end on every stop there is: an
    # empty component, a singular system (twice), the epsilon rule and
    # the cap. The fit keeps each end in restart order, an interruption
    # with the message its chain ended on.
    data, _, _ = small_mixture(seed=234, n=12, p=3, q=2)
    opts = pm.SemOptions(epsilon=1e-6, max_iters=10, burn_in=0,
                         n_restarts=5, rng_seed=234)
    fit = pm.run_sem(data, pm.MixtureSpec(2, 0), opts)
    assert [end.split(":")[0] for end in fit.restart_ends] == [
        "EmptyPartition", "SingularSystem", "epsilon", "SingularSystem",
        "cap"]
    batch, _ = batch_and_solo_runs(data, pm.MixtureSpec(2, 0), opts)
    for restart in (0, 1, 3):
        assert fit.restart_ends[restart] == batch[restart].end
    assert fit.n_failed_restarts == 0 and fit.converged
