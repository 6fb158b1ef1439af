import math
import warnings

import numpy as np
import pytest
import scipy.optimize

import poismoe as pm
from poismoe.errors import EmptyPartition, NumericalFailure, SingularSystem
from poismoe.linalg import penalized_wls_solve
from poismoe.model import MU_MAX, MU_MIN

from conftest import single_component_data


def q2_gradient(ws, beta):
    """Gradient of the (unpenalized) Poisson log-likelihood at ``beta``."""
    beta = np.asarray(beta, dtype=float)
    return ws.X.T @ (ws.y - pm.poisson_means(ws.X, beta))


def poisson_mle_oracle(X, y, p):
    """Independent maximizer of the Poisson log-likelihood (BFGS)."""

    def negloglik(beta):
        eta = X @ beta
        return -(y @ eta - np.exp(eta).sum())

    def gradient(beta):
        return -(X.T @ (y - np.exp(X @ beta)))

    result = scipy.optimize.minimize(negloglik, np.zeros(p), jac=gradient,
                                     method="BFGS",
                                     options={"gtol": 1e-12, "maxiter": 500})
    assert result.success or np.linalg.norm(result.jac) < 1e-8
    return result.x


def iterate_ml_to_convergence(data, part, p, n_iter=80):
    beta = np.zeros(p)
    for _ in range(n_iter):
        ws = pm.build_workspace(data, part, 0, beta)
        new = pm.irwls_beta_step(ws)
        if np.max(np.abs(new - beta)) < 1e-13:
            return new
        beta = new
    return beta


def beta_system(ws):
    """The (gram, rhs) that irwls_beta_step solves."""
    return ws.X.T @ (ws.mu[:, None] * ws.X), ws.X.T @ (ws.mu * ws.z_star)


def test_poisson_mean_values():
    assert pm.poisson_means(np.array([[1.0, 0.0]]),
                            np.array([0.0, 5.0])).tolist() == [1.0]
    assert pm.poisson_means(np.array([[1.0, 1.0]]), np.array([1.0, 1.0]))[0] \
        == pytest.approx(math.e ** 2, rel=1e-12)
    assert pm.poisson_means(np.array([[1.0, 2.0, -1.0]]),
                            np.array([0.85, -1.0, 2.0]))[0] == \
        pytest.approx(math.exp(-3.15), rel=1e-12)


def test_poisson_mean_clamps_and_warns():
    with pytest.warns(RuntimeWarning):
        mu = pm.poisson_means(np.array([[1.0]]), np.array([1000.0]))
    assert mu.tolist() == [MU_MAX]


def test_poisson_mean_floor_clamps_and_warns():
    with pytest.warns(RuntimeWarning):
        mu = pm.poisson_means(np.array([[1.0]]), np.array([-1000.0]))
    assert mu.tolist() == [MU_MIN]


def test_poisson_mean_in_range_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pm.poisson_means(np.array([[1.0, 0.0]]), np.array([0.0, 5.0]))
        pm.poisson_means(np.array([[1.0, 1.0]]), np.array([1.0, 1.0]))
        pm.poisson_means(np.array([[1.0, 2.0, -1.0]]),
                         np.array([0.85, -1.0, 2.0]))


def test_poisson_means_warning_counts_replaced_entries():
    eta = np.array([1000.0, -1000.0, 3.0, 700.0, -0.5])
    X = np.diag(np.ones(eta.size))
    with pytest.warns(RuntimeWarning, match=r"^3 Poisson mean\(s\) clamped"):
        mu = pm.poisson_means(X, eta)
    assert mu.tolist() == [MU_MAX, MU_MIN, math.exp(3.0), MU_MAX,
                           math.exp(-0.5)]


def test_nan_linear_predictor_is_a_numerical_failure():
    # inf - inf in X @ beta: a NaN eta is refused where it arises, not
    # left to surface in the solve as a (mislabelled) SingularSystem.
    data, part, _ = single_component_data()
    beta = np.array([np.inf, -np.inf])
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalFailure, match="NaN") as raised:
            pm.poisson_means(data.X, beta)
        assert raised.type is NumericalFailure
        with pytest.raises(NumericalFailure, match="NaN") as raised:
            pm.build_workspace(data, part, 0, beta)
        assert raised.type is NumericalFailure


def test_build_workspace_unit_weights():
    y = np.array([3, 0, 5])
    X = np.column_stack([np.ones(3), np.array([0.5, -1.0, 2.0])])
    data = pm.Dataset(y=y, X=X, Omega=np.ones((3, 1)))
    part = pm.PartitionState.from_assignment(np.zeros(3, dtype=int), 1)
    ws = pm.build_workspace(data, part, 0, np.zeros(2))
    assert np.allclose(ws.mu, 1.0)
    assert np.allclose(ws.z_star, y - 1.0)


def test_build_workspace_single_observation():
    data = pm.Dataset(y=np.array([3]), X=np.array([[1.0]]),
                      Omega=np.array([[1.0]]))
    part = pm.PartitionState.from_assignment(np.array([0]), 1)
    ws = pm.build_workspace(data, part, 0, np.zeros(1))
    assert ws.z_star[0] == pytest.approx(2.0, abs=0)


def test_build_workspace_matches_elementwise_oracle(rng):
    n, p = 25, 3
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    y = rng.poisson(2.0, size=n)
    data = pm.Dataset(y=y, X=X, Omega=np.ones((n, 1)))
    assignment = rng.integers(0, 2, size=n)
    assignment[:2] = [0, 1]
    part = pm.PartitionState.from_assignment(assignment, 2)
    beta = rng.normal(scale=0.3, size=p)
    ws = pm.build_workspace(data, part, 1, beta)
    rows = np.flatnonzero(assignment == 1)
    for local, i in enumerate(rows):
        mu = math.exp(float(np.dot(X[i], beta)))
        assert ws.mu[local] == pytest.approx(mu, rel=1e-14)
        assert ws.z_star[local] == pytest.approx(
            float(np.dot(X[i], beta)) + (y[i] - mu) / mu, rel=1e-12)


def test_build_workspace_empty_component():
    data = pm.Dataset(y=np.array([1, 2]), X=np.ones((2, 1)),
                      Omega=np.ones((2, 1)))
    part = pm.PartitionState(assignment=np.array([0, 0]),
                             counts=np.array([2, 0]))
    with pytest.raises(EmptyPartition):
        pm.build_workspace(data, part, 1, np.zeros(1))


def test_liu_type_with_zero_d_is_bitwise_ridge():
    data, part, _ = single_component_data()
    ws = pm.build_workspace(data, part, 0, np.array([0.2, 0.1]))
    ridge = pm.irwls_beta_step(ws, 0.7)
    gram, rhs = beta_system(ws)
    lt_explicit = penalized_wls_solve(  # fixed anchor (5, -3)
        gram, rhs - 0.0 * np.array([5.0, -3.0]), 0.7)
    lt_self = pm.irwls_beta_step(ws, 0.7, 0.0)
    assert np.array_equal(ridge, lt_explicit)
    assert np.array_equal(ridge, lt_self)


def test_vanishing_ridge_matches_ml():
    data, part, _ = single_component_data()
    ws = pm.build_workspace(data, part, 0, np.array([0.3, 0.4]))
    ml = pm.irwls_beta_step(ws)
    ridge = pm.irwls_beta_step(ws, 1e-12)
    assert np.max(np.abs((ridge - ml) / ml)) < 1e-8


def test_iterated_ml_matches_newton_oracle():
    data, part, _ = single_component_data()
    beta_hat = iterate_ml_to_convergence(data, part, 2)
    oracle = poisson_mle_oracle(np.asarray(data.X), data.y.astype(float), 2)
    assert np.max(np.abs((beta_hat - oracle) / oracle)) < 1e-6


def test_singular_ml_system_raises_and_ridge_survives():
    n = 30
    gen = np.random.default_rng(3)
    x = gen.normal(size=n)
    X = np.column_stack([np.ones(n), x, x])  # exactly collinear
    y = gen.poisson(1.5, size=n)
    data = pm.Dataset(y=y, X=X, Omega=np.ones((n, 1)))
    part = pm.PartitionState.from_assignment(np.zeros(n, dtype=int), 1)
    ws = pm.build_workspace(data, part, 0, np.zeros(3))
    with pytest.raises(SingularSystem):
        pm.irwls_beta_step(ws)
    out = pm.irwls_beta_step(ws, 0.5)
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("gram", [np.diag([1.0, -2.0]),
                                  np.array([[1.0, np.nan], [np.nan, 1.0]])],
                         ids=["indefinite", "non-finite"])
def test_penalized_solve_refuses_unusable_systems(gram):
    with pytest.raises(SingularSystem):
        penalized_wls_solve(gram, np.ones(2))
    with pytest.raises(NumericalFailure) as info:  # ridge: not SingularSystem
        penalized_wls_solve(gram, np.ones(2), 1.0)
    assert type(info.value) is NumericalFailure


def test_irwls_row_permutation_equivariance(rng):
    data, part, _ = single_component_data(seed=11)
    beta_t = np.array([0.2, -0.1])
    ws = pm.build_workspace(data, part, 0, beta_t)
    base = pm.irwls_beta_step(ws, 0.3)
    order = rng.permutation(data.n)
    data_perm = pm.Dataset(y=data.y[order], X=data.X[order],
                           Omega=data.Omega[order])
    ws_perm = pm.build_workspace(data_perm, part, 0, beta_t)
    permuted = pm.irwls_beta_step(ws_perm, 0.3)
    assert np.allclose(base, permuted, rtol=1e-10)


def test_ridge_solution_norm_monotone_in_lambda():
    data, part, _ = single_component_data(seed=21)
    ws = pm.build_workspace(data, part, 0, np.array([0.1, 0.2]))
    norms = [np.linalg.norm(pm.irwls_beta_step(ws, lam))
             for lam in (0.01, 0.1, 1.0, 10.0)]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_q2_gradient_vanishes_at_ml_solution():
    data, part, _ = single_component_data()
    beta_hat = iterate_ml_to_convergence(data, part, 2)
    ws = pm.build_workspace(data, part, 0, beta_hat)
    grad = q2_gradient(ws, beta_hat)
    assert np.linalg.norm(grad) < 1e-6


def test_q2_gradient_at_zero_under_ridge():
    # The ridge term -lam*beta vanishes at zero, so the penalized gradient
    # there is the log-likelihood gradient X'(y - 1).
    data, part, _ = single_component_data(seed=2)
    ws = pm.build_workspace(data, part, 0, np.zeros(2))
    grad = q2_gradient(ws, np.zeros(2))
    expected = np.asarray(data.X).T @ (data.y - 1.0)
    assert np.allclose(grad, expected, rtol=1e-12)


# Shrinkage (lam, d, anchor): ML, ridge, and Liu-type with a positive
# and a negative bias correction.
@pytest.mark.parametrize("make_shrinkage", [
    lambda p: (None, None, None),
    lambda p: (0.8, None, None),
    lambda p: (0.8, 0.6, np.linspace(-0.5, 0.5, p)),
    lambda p: (0.8, -0.6, np.linspace(-0.5, 0.5, p)),
])
def test_q2_gradient_matches_finite_differences(make_shrinkage):
    # q2_gradient - lam*b - d*anchor is the gradient of the Poisson
    # log-likelihood - lam/2 |b|^2 - d b'anchor, and it vanishes where the
    # beta step, iterated with that fixed anchor, stops moving: the solve
    # maximizes that objective, with the same sign of d.
    data, part, _ = single_component_data(seed=17)
    p = data.p
    lam, d, anchor = make_shrinkage(p)
    ws = pm.build_workspace(data, part, 0, np.zeros(p))
    X = np.asarray(ws.X)
    y = ws.y

    def shrink_gradient(beta):
        grad = np.zeros(p)
        if lam is not None:
            grad -= lam * beta
        if d is not None:
            grad -= d * anchor
        return grad

    def objective(beta):
        eta = X @ beta
        value = float(y @ eta - np.exp(eta).sum())
        if lam is not None:
            value -= 0.5 * lam * float(beta @ beta)
        if d is not None:
            value -= d * float(beta @ anchor)
        return value

    gen = np.random.default_rng(6)
    step = 1e-5
    for _ in range(25):
        beta = gen.normal(scale=0.4, size=p)
        grad = q2_gradient(ws, beta) + shrink_gradient(beta)
        fd = np.empty(p)
        for k in range(p):
            delta = np.zeros(p)
            delta[k] = step
            fd[k] = (objective(beta + delta) - objective(beta - delta)) / (2 * step)
        assert np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1.0) < 1e-5

    beta = np.zeros(p)
    for _ in range(100):
        gram, rhs = beta_system(pm.build_workspace(data, part, 0, beta))
        if d is not None:  # the fixed-anchor Liu-type solve
            rhs = rhs - d * anchor
        new = penalized_wls_solve(gram, rhs, lam)
        done = np.max(np.abs(new - beta)) < 1e-13
        beta = new
        if done:
            break
    assert done
    ws = pm.build_workspace(data, part, 0, beta)
    assert np.linalg.norm(q2_gradient(ws, beta) + shrink_gradient(beta)) \
        < 1e-9 * np.linalg.norm(X.T @ y)
