import math

import numpy as np
import pytest
import scipy.optimize

import poismoe as pm
from poismoe.gating import _penalized_q1, q1_value

from conftest import small_mixture


def logistic_mle_oracle(Omega, indicator, q):
    def negloglik(a):
        scores = Omega @ a
        return -(indicator @ scores - np.log1p(np.exp(scores)).sum())

    def gradient(a):
        scores = Omega @ a
        return -(Omega.T @ (indicator - 1.0 / (1.0 + np.exp(-scores))))

    result = scipy.optimize.minimize(negloglik, np.zeros(q), jac=gradient,
                                     method="BFGS",
                                     options={"gtol": 1e-12, "maxiter": 500})
    assert result.success or np.linalg.norm(result.jac) < 1e-8
    return result.x


def binary_gating_problem(seed=8, n=60):
    gen = np.random.default_rng(seed)
    Omega = np.column_stack([np.ones(n), gen.normal(size=n)])
    alpha_true = np.array([0.3, -0.8])
    p_class0 = 1.0 / (1.0 + np.exp(-(Omega @ alpha_true)))
    assignment = (gen.random(n) >= p_class0).astype(int)  # 0 = non-reference
    part = pm.PartitionState.from_assignment(assignment, 2)
    return Omega, part, assignment


def test_uniform_probabilities_for_zero_scores(rng):
    Omega = np.column_stack([np.ones(10), rng.normal(size=10)])
    pi = pm.gating_probabilities(Omega, np.zeros((3, 2)))
    assert np.allclose(pi, 1.0 / 3.0)


def test_two_class_logistic_value():
    Omega = np.array([[1.0]])
    alpha = np.array([[math.log(3.0)], [0.0]])
    pi = pm.gating_probabilities(Omega, alpha)
    assert pi[0, 0] == pytest.approx(0.75, rel=1e-14)


def test_probabilities_match_naive_exponentiation(rng):
    alpha = np.array([[0.5, -1.0, -1.0, 0.3, -3.0], np.zeros(5)])
    Omega = np.column_stack([np.ones(10), rng.normal(size=(10, 4))])
    pi = pm.gating_probabilities(Omega, alpha)
    raw = np.exp(Omega @ alpha.T)
    naive = raw / raw.sum(axis=1, keepdims=True)
    assert np.max(np.abs(pi - naive)) < 1e-12
    assert np.max(np.abs(pi.sum(axis=1) - 1.0)) < 1e-12


def test_probabilities_invariant_to_common_shift(rng):
    Omega = np.column_stack([np.ones(15), rng.normal(size=(15, 2))])
    alpha = rng.normal(size=(3, 3))
    alpha[2] = 0.0
    shift = rng.normal(size=3)
    shifted = alpha + shift
    base = pm.gating_probabilities(Omega, alpha)
    moved = pm.gating_probabilities(Omega, shifted)
    assert np.max(np.abs(base - moved)) < 1e-12
    renormalized = shifted - shifted[2]
    again = pm.gating_probabilities(Omega, renormalized)
    assert np.max(np.abs(base - again)) < 1e-12
    assert np.array_equal(base.argmax(axis=1), moved.argmax(axis=1))


def test_workspace_at_zero_alpha():
    Omega, part, assignment = binary_gating_problem()
    ws = pm.build_gating_workspace(Omega, np.zeros((2, 2)), part, 0)
    assert np.allclose(ws.weights, 0.25)
    assert np.allclose(ws.U, np.where(assignment == 0, 0.5, -0.5))
    # v = omega' alpha + U / (pi (1 - pi)) and pi = 1/2 here
    assert np.allclose(ws.v, np.where(assignment == 0, 2.0, -2.0))


def test_workspace_matches_elementwise_oracle(rng):
    Omega, part, assignment = binary_gating_problem(seed=4)
    alpha = rng.normal(scale=0.5, size=(2, 2))
    alpha[1] = 0.0
    ws = pm.build_gating_workspace(Omega, alpha, part, 0)
    for i in range(Omega.shape[0]):
        scores = Omega[i] @ alpha.T
        raw = np.exp(scores - scores.max())
        pi_i = raw / raw.sum()
        w = pi_i[0] * (1 - pi_i[0])
        u = float(assignment[i] == 0) - pi_i[0]
        assert ws.pi[i, 0] == pytest.approx(pi_i[0], rel=1e-12)
        assert ws.weights[i] == pytest.approx(w, rel=1e-12)
        assert ws.U[i] == pytest.approx(u, rel=1e-12)
        assert ws.v[i] == pytest.approx(Omega[i] @ alpha[0] + u / w, rel=1e-10)


def test_alpha_step_liu_zero_d_equals_ridge():
    Omega, part, _ = binary_gating_problem(seed=9)
    ws = pm.build_gating_workspace(Omega, np.zeros((2, 2)), part, 0)
    ridge = pm.irwls_alpha_step(ws, pm.Penalty.ridge(1.3))
    lt = pm.irwls_alpha_step(ws, pm.Penalty.liu_type(1.3, 0.0,
                                                     anchor=np.ones(2)))
    lt_self = pm.irwls_alpha_step(ws, pm.Penalty.liu_type(1.3, 0.0))
    assert np.array_equal(ridge, lt)
    assert np.array_equal(ridge, lt_self)


def test_alpha_step_vanishing_ridge_matches_ml():
    Omega, part, _ = binary_gating_problem(seed=10)
    ws = pm.build_gating_workspace(Omega, np.zeros((2, 2)), part, 0)
    ml = pm.irwls_alpha_step(ws, pm.Penalty.ml())
    ridge = pm.irwls_alpha_step(ws, pm.Penalty.ridge(1e-12))
    assert np.max(np.abs((ridge - ml) / ml)) < 1e-8


def test_alpha_step_well_posed_with_floored_weights():
    Omega, part, _ = binary_gating_problem(seed=12)
    extreme = np.array([[40.0, 25.0], [0.0, 0.0]])
    ws = pm.build_gating_workspace(Omega, extreme, part, 0)
    out = pm.irwls_alpha_step(ws, pm.Penalty.ridge(0.5))
    assert np.all(np.isfinite(out))


def test_coordinate_descent_ml_matches_logistic_newton():
    Omega, part, assignment = binary_gating_problem()
    alpha = pm.coordinate_descent_alphas(Omega, np.zeros((2, 2)), part,
                                         [pm.Penalty.ml()] * 2, reference=1,
                                         inner_tol=1e-13, inner_max=300)
    oracle = logistic_mle_oracle(Omega, (assignment == 0).astype(float), 2)
    assert np.max(np.abs((alpha[0] - oracle) / oracle)) < 1e-6
    assert np.all(alpha[1] == 0.0)


def test_coordinate_descent_single_sweep_equals_one_step():
    Omega, part, _ = binary_gating_problem(seed=13)
    alpha0 = np.zeros((2, 2))
    ws = pm.build_gating_workspace(Omega, alpha0, part, 0)
    single = pm.irwls_alpha_step(ws, pm.Penalty.ml())
    swept = pm.coordinate_descent_alphas(Omega, alpha0, part,
                                         [pm.Penalty.ml()] * 2, reference=1,
                                         inner_max=1)
    assert np.allclose(swept[0], single, rtol=1e-12)


def test_coordinate_descent_zero_sweeps_is_identity():
    Omega, part, _ = binary_gating_problem(seed=14)
    alpha0 = np.array([[0.4, -0.2], [0.0, 0.0]])
    out = pm.coordinate_descent_alphas(Omega, alpha0, part,
                                       [pm.Penalty.ml()] * 2, reference=1,
                                       inner_max=0)
    assert np.array_equal(out, alpha0)


def test_coordinate_descent_three_class_matches_multinomial_newton():
    gen = np.random.default_rng(21)
    n, q, n_classes = 150, 3, 3
    Omega = np.column_stack([np.ones(n), gen.normal(size=(n, q - 1))])
    alpha_true = np.array([[0.4, -0.6, 0.2], [-0.3, 0.5, 0.7],
                           [0.0, 0.0, 0.0]])
    scores = Omega @ alpha_true.T
    pi = np.exp(scores - scores.max(axis=1, keepdims=True))
    pi /= pi.sum(axis=1, keepdims=True)
    z = (gen.random(n)[:, None] > np.cumsum(pi, axis=1)).sum(axis=1)
    part = pm.PartitionState.from_assignment(np.minimum(z, 2), 3)
    alpha = pm.coordinate_descent_alphas(Omega, np.zeros((3, q)), part,
                                         [pm.Penalty.ml()] * 3, reference=2,
                                         inner_tol=1e-12, inner_max=500)

    indicators = np.eye(n_classes)[part.assignment]

    def negloglik(flat):
        full = np.vstack([flat.reshape(2, q), np.zeros(q)])
        s = Omega @ full.T
        s -= s.max(axis=1, keepdims=True)
        log_pi = s - np.log(np.exp(s).sum(axis=1, keepdims=True))
        return -float((indicators * log_pi).sum())

    result = scipy.optimize.minimize(negloglik, np.zeros(2 * q),
                                     method="BFGS",
                                     options={"gtol": 1e-12, "maxiter": 2000})
    oracle = result.x.reshape(2, q)
    assert np.max(np.abs(alpha[:2] - oracle)) < 1e-4


def test_coordinate_descent_accepted_sweeps_never_degrade_q1():
    Omega, part, _ = binary_gating_problem(seed=15)
    penalties = [pm.Penalty.ridge(0.8)] * 2
    alpha = np.array([[2.5, -3.0], [0.0, 0.0]])  # deliberately poor start

    def penalized_total(a):
        return q1_value(Omega, a, part) + penalties[0].value(a[0])

    for _ in range(8):
        before = penalized_total(alpha)
        alpha = pm.coordinate_descent_alphas(Omega, alpha, part, penalties,
                                             reference=1, inner_max=1,
                                             step_acceptance=True)
        after = penalized_total(alpha)
        assert after >= before - 1e-10


def test_q1_gradient_vanishes_at_converged_ml():
    Omega, part, _ = binary_gating_problem(seed=16)
    alpha = pm.coordinate_descent_alphas(Omega, np.zeros((2, 2)), part,
                                         [pm.Penalty.ml()] * 2, reference=1,
                                         inner_tol=1e-13, inner_max=300)
    grad = pm.q1_gradient(Omega, alpha, part, 0, pm.Penalty.ml())
    assert np.linalg.norm(grad) < 1e-6


def test_q1_gradient_at_zero_alpha():
    Omega, part, assignment = binary_gating_problem(seed=18)
    grad = pm.q1_gradient(Omega, np.zeros((2, 2)), part, 0, pm.Penalty.ml())
    expected = Omega.T @ ((assignment == 0).astype(float) - 0.5)
    assert np.allclose(grad, expected, rtol=1e-12)


@pytest.mark.parametrize("make_penalty", [
    lambda q: pm.Penalty.ml(),
    lambda q: pm.Penalty.ridge(0.9),
    lambda q: pm.Penalty.liu_type(0.9, -0.4, anchor=np.linspace(0.2, 0.8, q)),
    lambda q: pm.Penalty.liu_type(0.9, 0.4, anchor=np.linspace(0.2, 0.8, q)),
])
def test_q1_gradient_matches_finite_differences(make_penalty):
    Omega, part, _ = binary_gating_problem(seed=19)
    q = Omega.shape[1]
    penalty = make_penalty(q)
    gen = np.random.default_rng(20)
    step = 1e-5

    def objective(a_free):
        alpha = np.vstack([a_free, np.zeros(q)])
        return _penalized_q1(Omega, alpha, part, 0, penalty)

    for _ in range(25):
        a_free = gen.normal(scale=0.5, size=q)
        alpha = np.vstack([a_free, np.zeros(q)])
        grad = pm.q1_gradient(Omega, alpha, part, 0, penalty)
        fd = np.empty(q)
        for k in range(q):
            delta = np.zeros(q)
            delta[k] = step
            fd[k] = (objective(a_free + delta) - objective(a_free - delta)) \
                / (2 * step)
        assert np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1.0) < 1e-5
