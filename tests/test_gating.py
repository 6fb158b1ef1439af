import math

import numpy as np
import pytest
import scipy.optimize

import poismoe as pm
from poismoe.errors import NumericalFailure
from poismoe.gating import (PI_FLOOR, gating_log_probabilities, log_sum_exp,
                            penalty_value, q1_value)
from poismoe.linalg import outer_basis, penalized_wls_solve
from poismoe.model import _total_loglik

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


def workspace_at(Omega, alpha, indicator, free):
    """The gate's Newton system ``(gram, rhs)`` at the rows ``alpha``;
    ``indicator`` is (n, len(free)), one row per observation."""
    return pm.build_gating_workspace(
        Omega, outer_basis(Omega), gating_log_probabilities(Omega, alpha),
        alpha[free].ravel(), np.ascontiguousarray(np.asarray(indicator).T),
        free)


def block_loop_gate_system(Omega, log_pi, coef, indicator, free):
    """The gate's Newton system built block by block, one product per
    block (the builder before its blocks came from one product)."""
    pi = np.exp(log_pi[free])
    q = Omega.shape[1]
    gram = np.empty((len(free) * q, len(free) * q))
    for a in range(len(free)):
        rows = slice(a * q, (a + 1) * q)
        pi_a = np.minimum(np.maximum(pi[a], PI_FLOOR), 1.0 - PI_FLOOR)
        gram[rows, rows] = Omega.T @ ((pi_a * (1.0 - pi_a))[:, None] * Omega)
        for b in range(a):
            cols = slice(b * q, (b + 1) * q)
            block = Omega.T @ ((-pi[a] * pi[b])[:, None] * Omega)
            gram[rows, cols] = block
            gram[cols, rows] = block.T
    residual = np.ascontiguousarray((indicator - pi).T)
    rhs = gram @ coef + (residual.T @ Omega).ravel()
    return gram, rhs


def assert_same_gate_system(got, expected, coef, rel=1e-13):
    """Gram to ``rel`` of its largest entry; rhs to ``rel`` of the scale
    of its two terms, gram @ coef and the gradient."""
    (gram, rhs), (gram_ref, rhs_ref) = got, expected
    scale = np.max(np.abs(gram_ref))
    assert np.max(np.abs(gram - gram_ref)) <= rel * scale
    rhs_scale = scale * np.abs(coef).sum() + np.max(np.abs(rhs_ref))
    assert np.max(np.abs(rhs - rhs_ref)) <= rel * rhs_scale


def label_picks(part):
    """Flat indices of log pi_{i, z_i} in a class-major (J, n) array."""
    n = part.assignment.shape[0]
    return part.assignment * n + np.arange(n)


def q1_at(Omega, alpha, part):
    """Assignment log-likelihood at the rows ``alpha``."""
    return q1_value(gating_log_probabilities(Omega, alpha), label_picks(part))


def q1_gradient(Omega, alpha, part, j):
    """Gradient of the assignment log-likelihood for class j (no penalty terms)."""
    pi = pm.gating_probabilities(Omega, alpha)
    return Omega.T @ ((part.assignment == j).astype(float) - pi[:, j])


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


def log_sum_exp_reference(row):
    """log(sum(exp(row))) per row with math: the largest finite term
    factored out and the rest summed exactly (fsum) into log1p."""
    rest = sorted(v for v in row if v != -math.inf)
    peak = rest.pop()
    return peak + math.log1p(math.fsum(math.exp(v - peak) for v in rest))


@pytest.mark.parametrize("rows", [
    # one dominant term per row
    [[0.0, -40.0, -745.0], [700.0, 1.0, -3.0], [5.0, 5.0 - 1e-9, -800.0]],
    # every term at or below -1e3: exp of each underflows to zero
    [[-1000.0, -1000.5, -1003.0], [-1e5, -1e5 - 1e-3, -2e5]],
    # rows containing -inf
    [[-math.inf, 0.5, -2.0], [-math.inf, -1e3, -math.inf]],
], ids=["dominant", "all-below-minus-1e3", "minus-inf"])
def test_log_sum_exp_matches_math_reference(rows):
    values = np.array(rows).T  # class-major: one column per row
    result = log_sum_exp(values)
    assert result.shape == (len(rows),)
    expected = [log_sum_exp_reference(row) for row in rows]
    # log of the shifted sum is good to about eps in absolute terms, and
    # adding the peak back rounds to about eps relative.
    eps = np.finfo(float).eps
    np.testing.assert_allclose(result, expected, rtol=2 * eps,
                               atol=2 * eps)


def test_all_minus_inf_row_is_a_numerical_failure():
    log_terms = np.array([[0.0, -1.0], [-math.inf, -math.inf]]).T
    with np.errstate(invalid="ignore"):  # -inf - (-inf) in the shift
        norms = log_sum_exp(log_terms)
    with pytest.raises(NumericalFailure):
        _total_loglik(norms)


def three_class_problem(seed=22, n=80, q=3):
    """J=3 assignment problem with reference class 1 (free rows 0 and 2)."""
    gen = np.random.default_rng(seed)
    Omega = np.column_stack([np.ones(n), gen.normal(size=(n, q - 1))])
    assignment = gen.integers(0, 3, size=n)
    part = pm.PartitionState.from_assignment(assignment, 3)
    alpha = gen.normal(scale=0.5, size=(3, q))
    alpha[1] = 0.0
    indicator = np.eye(3)[assignment][:, [0, 2]]
    return Omega, part, alpha, indicator


def test_workspace_at_zero_alpha():
    Omega, part, assignment = binary_gating_problem()
    gram, rhs = workspace_at(
        Omega, np.zeros((2, 2)), (assignment == 0).astype(float)[:, None], [0])
    assert np.allclose(gram, 0.25 * Omega.T @ Omega, rtol=1e-14)
    assert np.allclose(rhs, Omega.T @ np.where(assignment == 0, 0.5, -0.5),
                       rtol=1e-14)


def test_workspace_matches_elementwise_oracle():
    Omega, part, alpha, indicator = three_class_problem(seed=4)
    gram, rhs = workspace_at(Omega, alpha, indicator, [0, 2])
    gram_oracle = np.zeros_like(gram)
    score_oracle = np.zeros_like(rhs)
    for i in range(Omega.shape[0]):
        scores = Omega[i] @ alpha.T
        raw = np.exp(scores - scores.max())
        pi_free = (raw / raw.sum())[[0, 2]]
        curvature = np.diag(pi_free) - np.outer(pi_free, pi_free)
        gram_oracle += np.kron(curvature, np.outer(Omega[i], Omega[i]))
        score_oracle += np.kron(indicator[i] - pi_free, Omega[i])
    assert np.allclose(gram, gram_oracle, rtol=1e-12, atol=1e-12)
    assert np.allclose(rhs, gram_oracle @ alpha[[0, 2]].ravel() + score_oracle,
                       rtol=1e-12, atol=1e-12)


def test_workspace_gram_is_finite_difference_hessian():
    Omega, part, alpha, indicator = three_class_problem(seed=5)
    gram, _ = workspace_at(Omega, alpha, indicator, [0, 2])
    q = Omega.shape[1]
    step = 1e-4

    def q1_of(flat):
        full = alpha.copy()
        full[[0, 2]] = flat.reshape(2, q)
        return q1_at(Omega, full, part)

    flat = alpha[[0, 2]].ravel()
    basis = np.eye(flat.size) * step
    hessian = np.empty_like(gram)
    for k in range(flat.size):
        for m in range(flat.size):
            hessian[k, m] = (q1_of(flat + basis[k] + basis[m])
                             - q1_of(flat + basis[k] - basis[m])
                             - q1_of(flat - basis[k] + basis[m])
                             + q1_of(flat - basis[k] - basis[m])) \
                / (4 * step * step)
    assert np.max(np.abs(gram + hessian)) < 1e-5 * np.max(np.abs(gram))


@pytest.mark.parametrize("n_classes", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1])
def test_one_product_gate_system_equals_block_loop(n_classes, seed):
    gen = np.random.default_rng(seed)
    n, q = 70, 3
    Omega = np.column_stack([np.ones(n), gen.normal(size=(n, q - 1))])
    alpha = gen.normal(scale=1.5, size=(n_classes, q))
    labels = gen.integers(0, n_classes, size=n)
    for reference in range(n_classes):
        alpha_ref = alpha - alpha[reference]
        free = np.flatnonzero(np.arange(n_classes) != reference)
        log_pi = gating_log_probabilities(Omega, alpha_ref)
        coef = alpha_ref[free].ravel()
        indicator = (labels == free[:, None]).astype(float)
        got = pm.build_gating_workspace(Omega, outer_basis(Omega), log_pi,
                                        coef, indicator, free)
        expected = block_loop_gate_system(Omega, log_pi, coef, indicator, free)
        assert_same_gate_system(got, expected, coef)


@pytest.mark.parametrize("n_classes", [3, 4])
def test_gate_gram_blocks_permute_bit_for_bit_with_the_classes(n_classes):
    # Each block is its own product, wherever its class sits in the
    # stack, so listing the free classes in another order permutes the
    # Gram's blocks exactly.
    gen = np.random.default_rng(n_classes)
    n, q = 48, 3
    Omega = np.column_stack([np.ones(n), gen.normal(size=(n, q - 1))])
    alpha = gen.normal(size=(n_classes, q))
    alpha[0] = 0.0
    log_pi = gating_log_probabilities(Omega, alpha)
    labels = gen.integers(0, n_classes, size=n)

    def blocks(free):
        free = np.asarray(free)
        gram, _ = pm.build_gating_workspace(
            Omega, outer_basis(Omega), log_pi, alpha[free].ravel(),
            (labels == free[:, None]).astype(float), free)
        return {(a, b): gram[i * q:(i + 1) * q, k * q:(k + 1) * q]
                for i, a in enumerate(free) for k, b in enumerate(free)}

    forward = blocks(range(1, n_classes))
    backward = blocks(range(n_classes - 1, 0, -1))
    for key, block in forward.items():
        assert np.array_equal(block, backward[key])


def test_workspace_rhs_minus_gram_step_is_stacked_gradient():
    Omega, part, alpha, indicator = three_class_problem(seed=6)
    gram, rhs = workspace_at(Omega, alpha, indicator, [0, 2])
    gradient = np.concatenate([
        q1_gradient(Omega, alpha, part, j) for j in (0, 2)])
    residual = rhs - gram @ alpha[[0, 2]].ravel()
    assert np.allclose(residual, gradient, rtol=0.0,
                       atol=1e-12 * np.max(np.abs(rhs)))


def one_step(Omega, alpha, part, lam=None, d=None):
    """One Newton step on class 0 (reference 1); lam and d are scalars."""
    return pm.coordinate_descent_alphas(
        Omega, alpha, part, None if lam is None else [lam, lam],
        None if d is None else [d, d], reference=1, inner_max=1)[0]


def test_alpha_step_liu_zero_d_equals_ridge():
    Omega, part, assignment = binary_gating_problem(seed=9)
    alpha0 = np.zeros((2, 2))
    ridge = one_step(Omega, alpha0, part, 1.3)
    lt_self = one_step(Omega, alpha0, part, 1.3, 0.0)
    assert np.array_equal(ridge, lt_self)
    gram, rhs = workspace_at(
        Omega, alpha0, (assignment == 0).astype(float)[:, None], [0])
    fixed_anchor = np.ones(2)
    lt = penalized_wls_solve(gram, rhs - 0.0 * fixed_anchor, 1.3)
    assert np.array_equal(ridge, lt)
    # stacked (J=3): per-class lambdas, the reference entry ignored
    Omega, part, alpha, _ = three_class_problem(seed=9)
    lams = [1.3, 0.0, 0.4]
    ridge = pm.coordinate_descent_alphas(Omega, alpha, part, lams, None,
                                         reference=1, inner_max=1)
    lt_self = pm.coordinate_descent_alphas(Omega, alpha, part, lams,
                                           [0.0] * 3, reference=1,
                                           inner_max=1)
    assert np.array_equal(ridge, lt_self)


def test_alpha_step_vanishing_ridge_matches_ml():
    Omega, part, _ = binary_gating_problem(seed=10)
    alpha0 = np.zeros((2, 2))
    ml = one_step(Omega, alpha0, part)
    ridge = one_step(Omega, alpha0, part, 1e-12)
    assert np.max(np.abs((ridge - ml) / ml)) < 1e-8


def test_alpha_step_well_posed_with_floored_weights():
    Omega, part, assignment = binary_gating_problem(seed=12)
    extreme = np.array([[40.0, 25.0], [0.0, 0.0]])
    gram, rhs = workspace_at(
        Omega, extreme, (assignment == 0).astype(float)[:, None], [0])
    assert np.all(np.isfinite(penalized_wls_solve(gram, rhs, 0.5)))
    assert np.all(np.isfinite(one_step(Omega, extreme, part, 0.5)))


def test_coordinate_descent_ml_matches_logistic_newton():
    Omega, part, assignment = binary_gating_problem()
    alpha = pm.coordinate_descent_alphas(Omega, np.zeros((2, 2)), part,
                                         None, None, reference=1,
                                         inner_tol=1e-13, inner_max=300)
    oracle = logistic_mle_oracle(Omega, (assignment == 0).astype(float), 2)
    assert np.max(np.abs((alpha[0] - oracle) / oracle)) < 1e-6
    assert np.all(alpha[1] == 0.0)


def test_coordinate_descent_single_sweep_equals_one_step():
    # For one free class the stacked Newton step is the per-class IRWLS
    # step: weights pi(1-pi), working response Omega a + U / weights.
    Omega, part, assignment = binary_gating_problem(seed=13)
    alpha0 = np.array([[0.2, -0.1], [0.0, 0.0]])
    pi = 1.0 / (1.0 + np.exp(-(Omega @ alpha0[0])))
    weights = pi * (1.0 - pi)
    v = Omega @ alpha0[0] + ((assignment == 0) - pi) / weights
    single = np.linalg.solve(Omega.T @ np.diag(weights) @ Omega,
                             Omega.T @ (weights * v))
    swept = one_step(Omega, alpha0, part)
    assert np.allclose(swept, single, rtol=1e-12)


def test_coordinate_descent_zero_sweeps_is_identity():
    Omega, part, _ = binary_gating_problem(seed=14)
    alpha0 = np.array([[0.4, -0.2], [0.0, 0.0]])
    out = pm.coordinate_descent_alphas(Omega, alpha0, part, None, None,
                                       reference=1, inner_max=0)
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
                                         None, None, reference=2,
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
    lam = [0.8, 0.8]
    alpha = np.array([[2.5, -3.0], [0.0, 0.0]])  # deliberately poor start

    def penalized_total(a):
        return q1_at(Omega, a, part) + penalty_value(a[0], lam[0])

    for _ in range(8):
        before = penalized_total(alpha)
        alpha = pm.coordinate_descent_alphas(Omega, alpha, part, lam, None,
                                             reference=1, inner_max=1)
        after = penalized_total(alpha)
        assert after >= before - 1e-10


def stepwise_ascent(Omega, alpha_t, part, lam, d, reference, steps):
    """The gate ascent spelled out step by step: the workspace and the
    baseline objective are rebuilt from the rows alpha at every step, and
    a step is halved until q1_value + penalty_value does not drop. A
    Liu-type call then shrinks the ridge result alpha_r once on the last
    system built: alpha_r - S^-1 (d alpha_r), S = gram + diag(lam), the
    second term as a ridge solve. ``d="bound"`` takes S's smallest
    eigenvalue, the largest d the tuning allows. Returns the rows and
    the d applied."""
    alpha = np.array(alpha_t, dtype=float)
    free = [j for j in range(alpha.shape[0]) if j != reference]
    q = Omega.shape[1]
    indicator = (part.assignment[:, None] == free).astype(float)
    if lam is not None:
        lam = np.repeat(np.asarray(lam, dtype=float)[free], q)
    for _ in range(steps):
        coef = alpha[free].ravel()
        gram, rhs = workspace_at(Omega, alpha, indicator, free)
        proposal = penalized_wls_solve(gram, rhs, lam)
        baseline = q1_at(Omega, alpha, part) + penalty_value(coef, lam)
        trial = alpha.copy()
        for _ in range(11):
            trial[free] = proposal.reshape(len(free), q)
            if (q1_at(Omega, trial, part)
                    + penalty_value(proposal, lam)) >= baseline:
                break
            proposal = 0.5 * (proposal + coef)
        else:
            break
        alpha = trial
    if d is not None:
        if d == "bound":
            d = float(np.linalg.eigvalsh(gram + np.diag(lam))[0])
        coef = alpha[free].ravel()
        shrink = penalized_wls_solve(gram, d * coef, lam)
        alpha[free] = (coef - shrink).reshape(len(free), q)
    alpha[reference] = 0.0
    return alpha, d


def poor_start_problem(n_classes):
    """(Omega, start, part, reference) whose first Newton steps overshoot."""
    if n_classes == 2:
        Omega, part, _ = binary_gating_problem(seed=15)
        return Omega, np.array([[2.5, -3.0], [0.0, 0.0]]), part, 1
    Omega, part, alpha, _ = three_class_problem(seed=23)
    return Omega, 6.0 * alpha, part, 1


@pytest.mark.parametrize("n_classes", [2, 3])
@pytest.mark.parametrize("lam, d", [(None, None), (0.8, None), (0.8, 0.4),
                                    (0.8, -0.3), (0.8, "bound")],
                         ids=["ml", "ridge", "lt-pos", "lt-neg", "lt-bound"])
@pytest.mark.parametrize("steps", [1, 4, 12])
def test_ascent_equals_stepwise_oracle(n_classes, lam, d, steps):
    # Reusing the accepted trial's log-softmax and q1 must not change a
    # single bit against rebuilding everything from alpha at each step,
    # and a Liu-type call is the ridge ascent and one Liu-type step. The
    # gate applies any d it is given; the tuning keeps d in [0, s_min].
    Omega, start, part, reference = poor_start_problem(n_classes)
    lams = None if lam is None else [lam] * n_classes
    expected, d = stepwise_ascent(Omega, start, part, lams, d, reference,
                                  steps)
    ds = None if d is None else [d] * n_classes
    got = pm.coordinate_descent_alphas(Omega, start, part, lams, ds,
                                       reference, inner_tol=0.0,
                                       inner_max=steps)
    assert np.array_equal(got, expected)


def test_separable_ml_ascent_stops_on_the_decrement(monkeypatch):
    # Class 0 sits wholly at x > 2 and class 1 at x < -2: the ML gate has
    # no maximizer and every Newton step still moves alpha by about 0.1
    # or more, but the objective gain the decrement predicts dies out.
    gen = np.random.default_rng(31)
    x = np.concatenate([gen.uniform(2.0, 4.0, 10), -gen.uniform(2.0, 4.0, 10)])
    Omega = np.column_stack([np.ones(20), x])
    part = pm.PartitionState.from_assignment((x < 0).astype(int), 2)
    builds = []
    build = pm.gating.build_gating_workspace

    def counted_build(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(pm.gating, "build_gating_workspace", counted_build)
    stopped = pm.coordinate_descent_alphas(Omega, np.zeros((2, 2)), part,
                                           None, None, reference=1,
                                           inner_max=300)
    assert len(builds) < 50
    long_run = pm.coordinate_descent_alphas(Omega, np.zeros((2, 2)), part,
                                            None, None, reference=1,
                                            inner_tol=0.0, inner_max=300)
    value, reference = q1_at(Omega, stopped, part), q1_at(Omega, long_run, part)
    assert abs(value - reference) <= 1e-9 * (1.0 + abs(reference))


def spy_on_builds(monkeypatch):
    """Record the arguments and the result of every gate system build."""
    builds = []
    build = pm.gating.build_gating_workspace

    def counted_build(*args):
        builds.append((args, build(*args)))
        return builds[-1][1]

    monkeypatch.setattr(pm.gating, "build_gating_workspace", counted_build)
    return builds


@pytest.mark.parametrize("make_problem", [
    lambda: binary_gating_problem(seed=13)[:2] + (np.zeros((2, 2)),),
    lambda: three_class_problem(seed=22)[:2] + (np.zeros((3, 3)),),
], ids=["two-class", "three-class"])
@pytest.mark.parametrize("lam", [None, 0.8], ids=["ml", "ridge"])
def test_well_posed_ascent_builds_no_confirming_system(monkeypatch,
                                                        make_problem, lam):
    # On these partitions Newton converges quadratically, and the
    # predicted next decrement delta_k**2 / delta_{k-1} ends the ascent
    # before it builds a system only to find a step within the tolerance.
    Omega, part, start = make_problem()
    n_classes = start.shape[0]
    lams = None if lam is None else [lam] * n_classes
    builds = spy_on_builds(monkeypatch)
    stopped = pm.coordinate_descent_alphas(Omega, start, part, lams, None,
                                           reference=1)
    monkeypatch.undo()
    free = [j for j in range(n_classes) if j != 1]

    def objective(alpha):
        return q1_at(Omega, alpha, part) + penalty_value(
            alpha[free].ravel(), lam)

    tolerance = 1e-11 * (1.0 + abs(objective(stopped)))
    for (_, _, _, coefs, _, _), (grams, rhss) in builds:
        # Each build stacks the systems of a batch of chains, here one.
        coef, gram, rhs = coefs[0], grams[0], rhss[0]
        penalty = None if lam is None else np.full(coef.size, lam)
        step = penalized_wls_solve(gram, rhs, penalty) - coef
        curvature = gram @ step + (0.0 if lam is None else lam * step)
        assert 0.5 * step @ curvature > tolerance
    tight = pm.coordinate_descent_alphas(Omega, start, part, lams, None,
                                         reference=1, inner_tol=1e-15,
                                         inner_max=300)
    value, reference = objective(stopped), objective(tight)
    assert abs(value - reference) <= 1e-12 * (1.0 + abs(reference))


def quasi_separated_problem(n_separated=500):
    """Two-class partition with no ML gate: rows with x < 2 are all class
    0 and rows with x > 3 all class 1, so alpha can grow without bound
    along (-2.5, 1, 0), which leaves the scores of the eight mixed rows
    at x = 2.5 unchanged. F tends to the best fit of those rows alone,
    about -4.63."""
    gen = np.random.default_rng(0)
    x = np.r_[gen.uniform(0.0, 2.0, n_separated),
              gen.uniform(3.0, 6.0, n_separated), np.full(8, 2.5)]
    s = np.r_[gen.integers(1, 4, 2 * n_separated), [1, 1, 1, 1, 2, 2, 3, 3]]
    labels = np.r_[np.zeros(n_separated, int), np.ones(n_separated, int),
                   [0, 1, 0, 1, 0, 1, 1, 1]]
    Omega = np.column_stack([np.ones_like(x), x, s.astype(float)])
    return Omega, pm.PartitionState.from_assignment(labels, 2)


def test_separated_tail_ends_well_before_the_cap(monkeypatch):
    # As in a chain, the ascent starts where the last M-step's ascent on
    # the same partition stopped: deep in the separated tail, where each
    # step gains less and less while alpha keeps drifting.
    Omega, part = quasi_separated_problem()
    start = pm.coordinate_descent_alphas(Omega, np.zeros((2, 3)), part,
                                         None, None, reference=1)
    builds = spy_on_builds(monkeypatch)
    stopped = pm.coordinate_descent_alphas(Omega, start, part, None, None,
                                           reference=1)
    monkeypatch.undo()
    assert len(builds) <= 25
    capped = pm.coordinate_descent_alphas(Omega, start, part, None, None,
                                          reference=1, inner_tol=0.0,
                                          inner_max=50)
    assert -6.0 < q1_at(Omega, capped, part) < -4.0
    gap = np.abs(pm.gating_probabilities(Omega, stopped)
                 - pm.gating_probabilities(Omega, capped))
    assert gap.max() <= 1e-5


def test_q1_gradient_vanishes_at_converged_ml():
    Omega, part, _ = binary_gating_problem(seed=16)
    alpha = pm.coordinate_descent_alphas(Omega, np.zeros((2, 2)), part,
                                         None, None, reference=1,
                                         inner_tol=1e-13, inner_max=300)
    grad = q1_gradient(Omega, alpha, part, 0)
    assert np.linalg.norm(grad) < 1e-6


def test_q1_gradient_at_zero_alpha():
    Omega, part, assignment = binary_gating_problem(seed=18)
    grad = q1_gradient(Omega, np.zeros((2, 2)), part, 0)
    expected = Omega.T @ ((assignment == 0).astype(float) - 0.5)
    assert np.allclose(grad, expected, rtol=1e-12)


# Shrinkage lam of the gate objective: ML and ridge. A Liu-type gate
# ascends the ridge objective.
@pytest.mark.parametrize("make_shrinkage", [
    lambda q: None,
    lambda q: 0.9,
])
def test_q1_gradient_matches_finite_differences(make_shrinkage):
    # The objective the gate ascent halves steps on (q1 + penalty_value)
    # has gradient q1_gradient - lam*a: the shift the solve applies, so
    # step acceptance and the solve agree.
    Omega, part, _ = binary_gating_problem(seed=19)
    q = Omega.shape[1]
    lam = make_shrinkage(q)
    gen = np.random.default_rng(20)
    step = 1e-5

    def objective(a_free):
        alpha = np.vstack([a_free, np.zeros(q)])
        return q1_at(Omega, alpha, part) + penalty_value(a_free, lam)

    for _ in range(25):
        a_free = gen.normal(scale=0.5, size=q)
        alpha = np.vstack([a_free, np.zeros(q)])
        grad = q1_gradient(Omega, alpha, part, 0)
        if lam is not None:
            grad = grad - lam * a_free
        fd = np.empty(q)
        for k in range(q):
            delta = np.zeros(q)
            delta[k] = step
            fd[k] = (objective(a_free + delta) - objective(a_free - delta)) \
                / (2 * step)
        assert np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1.0) < 1e-5


def test_non_finite_trial_objective_is_a_numerical_failure(monkeypatch):
    # Make the trial's scores overflow (inf - inf in the log-softmax gives
    # NaN): the ascent must end with a typed failure, not halve the step
    # ten times and silently keep the current rows.
    data, truth, _, part = small_mixture(seed=2)
    alpha = np.zeros_like(truth.alpha)
    log_pi = gating_log_probabilities(data.Omega, alpha)
    honest = pm.gating.gating_log_probabilities
    monkeypatch.setattr(pm.gating, "gating_log_probabilities",
                        lambda Omega, coef: honest(Omega * 1e308, coef))
    for lam in (None, np.full(2, 0.5)):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalFailure, match="gate objective"):
            pm.coordinate_descent_alphas(data.Omega, alpha, part, lam, None,
                                         0, log_pi=log_pi.copy())


@pytest.mark.parametrize("method", ["ml", "ridge", "lt"])
@pytest.mark.parametrize("inner_max", [0, 1, 50])
def test_a_batch_of_chains_ascends_as_each_chain_alone(method, inner_max):
    # Three chains with their own partitions, starts and Liu-type d
    # ascend in lockstep; each result, and each handed-over log-softmax,
    # is bit for bit the chain's own call's.
    gen = np.random.default_rng(8)
    n, q, n_classes = 40, 2, 3
    Omega = np.column_stack([np.ones(n), gen.normal(size=(n, q - 1))])
    starts = gen.normal(scale=0.5, size=(3, n_classes, q))
    starts[:, 1] = 0.0
    parts = [gen.integers(0, n_classes, size=n) for _ in range(3)]
    lam = None if method == "ml" else np.array([0.4, 0.9, 0.7])
    ds = None if method != "lt" else gen.uniform(0.0, 0.05, size=(3, n_classes))
    batch_log_pi = gating_log_probabilities(Omega, starts)
    together = pm.coordinate_descent_alphas(
        Omega, starts, pm.PartitionState.from_assignment(np.stack(parts),
                                                         n_classes),
        lam, ds, 1, inner_max=inner_max, log_pi=batch_log_pi)
    for chain in range(3):
        log_pi = gating_log_probabilities(Omega, starts[chain])
        alone = pm.coordinate_descent_alphas(
            Omega, starts[chain],
            pm.PartitionState.from_assignment(parts[chain], n_classes),
            lam, None if ds is None else ds[chain], 1, inner_max=inner_max,
            log_pi=log_pi)
        assert together[chain].tobytes() == alone.tobytes()
        assert batch_log_pi[chain].tobytes() == log_pi.tobytes()
    if inner_max == 0:
        expected = starts.copy()
        expected[:, 1] = 0.0
        assert np.array_equal(together, expected)
