import math
import warnings

import numpy as np
import pytest
import scipy.optimize

import poismoe as pm
from poismoe.errors import EmptyPartition, NumericalFailure, SingularSystem
from poismoe.linalg import penalized_wls_solve
from poismoe.model import ETA_MAX

from conftest import single_component_data


def q2_gradient(data, beta):
    """Gradient of the (unpenalized) Poisson log-likelihood of all rows
    of ``data`` at ``beta``."""
    beta = np.asarray(beta, dtype=float)
    return data.X.T @ (data.y - pm.poisson_means(data.X, beta))


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
        ws = pm.build_workspace(data, part, beta[None])
        new = pm.irwls_beta_step(ws)[0]
        if np.max(np.abs(new - beta)) < 1e-13:
            return new
        beta = new
    return beta


def beta_system(ws, j=0):
    """The (gram, rhs) that irwls_beta_step solves for component j."""
    return ws.gram[j], ws.rhs[j]


def test_poisson_mean_values():
    assert pm.poisson_means(np.array([[1.0, 0.0]]),
                            np.array([0.0, 5.0])).tolist() == [1.0]
    assert pm.poisson_means(np.array([[1.0, 1.0]]), np.array([1.0, 1.0]))[0] \
        == pytest.approx(math.e ** 2, rel=1e-12)
    assert pm.poisson_means(np.array([[1.0, 2.0, -1.0]]),
                            np.array([0.85, -1.0, 2.0]))[0] == \
        pytest.approx(math.exp(-3.15), rel=1e-12)


def test_poisson_mean_overflow_is_a_numerical_failure():
    # No clamp: a mean past exp(ETA_MAX) ends the chain as a typed
    # interruption, and the largest usable one is exp(ETA_MAX) itself.
    assert pm.poisson_means(np.array([[1.0]]), np.array([ETA_MAX])).tolist() \
        == [math.exp(ETA_MAX)]
    for eta in (1000.0, np.nextafter(ETA_MAX, np.inf)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match="overflows"):
                pm.poisson_means(np.array([[1.0]]), np.array([eta]))


def test_poisson_means_with_any_overflowing_entry_fail_as_a_whole():
    # One overflowing entry among usable, underflowing and very negative
    # ones refuses the whole vector: no entry is replaced or counted.
    X = np.eye(5)
    usable = np.array([-1000.0, 3.0, 690.0, -0.5, ETA_MAX])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pm.poisson_means(X, usable).tolist() == \
            np.exp(usable).tolist()
    for k in range(5):
        eta = usable.copy()
        eta[k] = 1000.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match="overflows"):
                pm.poisson_means(X, eta)


def test_poisson_mean_underflow_is_exp_without_warning():
    # No floor: a very negative linear predictor gives its exp, down to 0.
    eta = np.array([-1000.0, -700.0, 3.0, -0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mu = pm.poisson_means(np.eye(eta.size), eta)
    assert mu.tolist() == [0.0, math.exp(-700.0), math.exp(3.0),
                           math.exp(-0.5)]


def test_poisson_mean_in_range_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pm.poisson_means(np.array([[1.0, 0.0]]), np.array([0.0, 5.0]))
        pm.poisson_means(np.array([[1.0, 1.0]]), np.array([1.0, 1.0]))
        pm.poisson_means(np.array([[1.0, 2.0, -1.0]]),
                         np.array([0.85, -1.0, 2.0]))


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
            pm.build_workspace(data, part, beta[None])
        assert raised.type is NumericalFailure


def test_build_workspace_unit_weights():
    y = np.array([3, 0, 5])
    X = np.column_stack([np.ones(3), np.array([0.5, -1.0, 2.0])])
    data = pm.Dataset(y=y, X=X, Omega=np.ones((3, 1)))
    part = np.zeros(3, dtype=int)
    ws = pm.build_workspace(data, part, np.zeros((1, 2)))
    assert np.array_equal(ws.weights, np.ones((1, 3)))
    assert np.array_equal(ws.gram[0], X.T @ X)
    assert np.allclose(ws.rhs[0], X.T @ (y - 1.0), rtol=1e-15)


def test_build_workspace_single_observation():
    data = pm.Dataset(y=np.array([3]), X=np.array([[1.0]]),
                      Omega=np.array([[1.0]]))
    part = np.array([0])
    ws = pm.build_workspace(data, part, np.zeros((1, 1)))
    assert ws.rhs[0, 0] == pytest.approx(2.0, abs=0)  # mu * z* = 1 * (3 - 1)


def test_build_workspace_matches_elementwise_oracle(rng):
    n, p = 25, 3
    X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    y = rng.poisson(2.0, size=n)
    data = pm.Dataset(y=y, X=X, Omega=np.ones((n, 1)))
    assignment = rng.integers(0, 2, size=n)
    assignment[:2] = [0, 1]
    beta = rng.normal(scale=0.3, size=(2, p))
    ws = pm.build_workspace(data, assignment, beta)
    for j in range(2):
        gram, rhs = np.zeros((p, p)), np.zeros(p)
        for i in range(n):
            if assignment[i] != j:
                assert ws.weights[j, i] == 0.0
                continue
            eta = float(np.dot(X[i], beta[j]))
            mu = math.exp(eta)
            assert ws.weights[j, i] == pytest.approx(mu, rel=1e-14)
            gram += mu * np.outer(X[i], X[i])
            rhs += mu * (eta + (y[i] - mu) / mu) * X[i]
        assert np.allclose(ws.gram[j], gram, rtol=1e-12, atol=0)
        assert np.allclose(ws.rhs[j], rhs, rtol=1e-12, atol=1e-12)


def test_build_workspace_empty_component():
    data = pm.Dataset(y=np.array([1, 2]), X=np.ones((2, 1)),
                      Omega=np.ones((2, 1)))
    with pytest.raises(EmptyPartition):
        pm.build_workspace(data, np.array([0, 0]), np.zeros((2, 1)))


def test_liu_type_with_zero_d_is_bitwise_ridge():
    data, part, _ = single_component_data()
    ws = pm.build_workspace(data, part, np.array([[0.2, 0.1]]))
    ridge = pm.irwls_beta_step(ws, 0.7)
    gram, rhs = beta_system(ws)
    lt_explicit = penalized_wls_solve(  # fixed anchor (5, -3)
        gram, rhs - 0.0 * np.array([5.0, -3.0]), 0.7)
    lt_self = pm.irwls_beta_step(ws, 0.7, 0.0)
    assert np.array_equal(ridge[0], lt_explicit)
    assert np.array_equal(ridge, lt_self)


def test_vanishing_ridge_matches_ml():
    data, part, _ = single_component_data()
    ws = pm.build_workspace(data, part, np.array([[0.3, 0.4]]))
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
    part = np.zeros(n, dtype=int)
    ws = pm.build_workspace(data, part, np.zeros((1, 3)))
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


def test_ml_solve_refuses_a_condition_past_1e12():
    # The bar is part of the contract: 2-norm condition 1e11 solves and
    # 1e13 is singular for ML, and a ridge shift solves both.
    rhs = np.ones(2)
    assert np.allclose(penalized_wls_solve(np.diag([1.0, 1e-11]), rhs),
                       [1.0, 1e11], rtol=1e-14, atol=0.0)
    with pytest.raises(SingularSystem):
        penalized_wls_solve(np.diag([1.0, 1e-13]), rhs)
    assert np.isfinite(penalized_wls_solve(np.diag([1.0, 1e-13]), rhs,
                                           1.0)).all()


def test_irwls_row_permutation_equivariance(rng):
    data, part, _ = single_component_data(seed=11)
    beta_t = np.array([0.2, -0.1])
    ws = pm.build_workspace(data, part, beta_t[None])
    base = pm.irwls_beta_step(ws, 0.3)
    order = rng.permutation(data.n)
    data_perm = pm.Dataset(y=data.y[order], X=data.X[order],
                           Omega=data.Omega[order])
    ws_perm = pm.build_workspace(data_perm, part, beta_t[None])
    permuted = pm.irwls_beta_step(ws_perm, 0.3)
    assert np.allclose(base, permuted, rtol=1e-10)


def test_ridge_solution_norm_monotone_in_lambda():
    data, part, _ = single_component_data(seed=21)
    ws = pm.build_workspace(data, part, np.array([[0.1, 0.2]]))
    norms = [np.linalg.norm(pm.irwls_beta_step(ws, lam))
             for lam in (0.01, 0.1, 1.0, 10.0)]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_q2_gradient_vanishes_at_ml_solution():
    data, part, _ = single_component_data()
    beta_hat = iterate_ml_to_convergence(data, part, 2)
    grad = q2_gradient(data, beta_hat)
    assert np.linalg.norm(grad) < 1e-6


def test_q2_gradient_at_zero_under_ridge():
    # The ridge term -lam*beta vanishes at zero, so the penalized gradient
    # there is the log-likelihood gradient X'(y - 1).
    data, part, _ = single_component_data(seed=2)
    grad = q2_gradient(data, np.zeros(2))
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
    X = np.asarray(data.X)
    y = data.y

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
        grad = q2_gradient(data, beta) + shrink_gradient(beta)
        fd = np.empty(p)
        for k in range(p):
            delta = np.zeros(p)
            delta[k] = step
            fd[k] = (objective(beta + delta) - objective(beta - delta)) / (2 * step)
        assert np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1.0) < 1e-5

    beta = np.zeros(p)
    for _ in range(100):
        gram, rhs = beta_system(pm.build_workspace(data, part, beta[None]))
        if d is not None:  # the fixed-anchor Liu-type solve
            rhs = rhs - d * anchor
        new = penalized_wls_solve(gram, rhs, lam)
        done = np.max(np.abs(new - beta)) < 1e-13
        beta = new
        if done:
            break
    assert done
    assert np.linalg.norm(q2_gradient(data, beta) + shrink_gradient(beta)) \
        < 1e-9 * np.linalg.norm(X.T @ y)


def random_stack(seed, J=3, p=3, n=25):
    gen = np.random.default_rng(seed)
    A = gen.normal(size=(J, n, p))
    gram = np.swapaxes(A, 1, 2) @ (np.exp(gen.normal(size=(J, n, 1))) * A)
    return gram, gen.normal(size=(J, p)), gen.uniform(0.1, 2.0, size=J), \
        gen.normal(scale=0.5, size=J)


@pytest.mark.parametrize("method", ["ml", "ridge", "lt"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_solve_equals_per_system_calls(method, seed):
    gram, rhs, lam, d = random_stack(seed)
    lam = None if method == "ml" else lam
    d = d if method == "lt" else None
    stacked = penalized_wls_solve(
        gram, rhs, None if lam is None else lam[:, None],
        None if d is None else d[:, None])
    for j in range(gram.shape[0]):
        single = penalized_wls_solve(gram[j], rhs[j],
                                     None if lam is None else lam[j],
                                     None if d is None else d[j])
        assert np.array_equal(stacked[j], single)


@pytest.mark.parametrize("method, error", [("ml", SingularSystem),
                                           ("ridge", NumericalFailure),
                                           ("lt", NumericalFailure)])
@pytest.mark.parametrize("broken", ["ill-conditioned", "non-finite"])
def test_stacked_solve_refuses_as_the_refused_system_would(method, error,
                                                           broken):
    gram, rhs, lam, d = random_stack(4)
    if broken == "non-finite":
        gram[1, 0, 0] = np.inf
    elif method == "ml":  # rank one: the condition exceeds COND_LIMIT
        gram[1] = np.outer(rhs[1], rhs[1])
    else:  # indefinite even after the ridge shift
        gram[1] = -10.0 * np.eye(3)
    lam = None if method == "ml" else lam
    d = d if method == "lt" else None
    with pytest.raises(error) as stacked:
        penalized_wls_solve(gram, rhs, None if lam is None else lam[:, None],
                            None if d is None else d[:, None])
    with pytest.raises(error) as single:
        penalized_wls_solve(gram[1], rhs[1], None if lam is None else lam[1],
                            None if d is None else d[1])
    assert type(stacked.value) is type(single.value)
    assert str(stacked.value) == str(single.value)
    for j in (0, 2):  # the others solve on their own
        penalized_wls_solve(gram[j], rhs[j], None if lam is None else lam[j],
                            None if d is None else d[j])


def test_unassigned_overflowing_rows_add_nothing_and_do_not_raise():
    # Component 1's beta sends every mean of rows 0-1 (assigned to 0)
    # past ETA_MAX and those of rows 2-3 to 0: nothing of it may leak
    # into component 1's system or end the chain.
    X = np.column_stack([np.ones(6), [3.0, 2.0, -2.0, -3.0, 0.1, 0.2]])
    data = pm.Dataset(y=np.array([1, 4, 0, 2, 3, 1]), X=X,
                      Omega=np.ones((6, 1)))
    part = np.array([0, 0, 0, 0, 1, 1])
    beta = np.array([[0.1, 0.2], [0.0, 400.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ws = pm.build_workspace(data, part, beta)
    assert np.isfinite(ws.gram).all() and np.isfinite(ws.rhs).all()
    assert np.array_equal(ws.weights[1, :4], np.zeros(4))
    alone = pm.build_workspace(
        pm.Dataset(y=data.y[4:], X=X[4:], Omega=np.ones((2, 1))),
        np.zeros(2, dtype=int),
        beta[1:])
    assert np.array_equal(ws.gram[1], alone.gram[0])
    assert np.array_equal(ws.rhs[1], alone.rhs[0])
    # An assigned row whose mean overflows is a NumericalFailure.
    part = np.array([1, 0, 0, 1, 0, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match="overflows"):
            pm.build_workspace(data, part, beta)
