"""Property tests for the solve, closed-form tuning, gating, labels,
relabeling, and how small fits end."""
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import poismoe as pm
from poismoe.errors import SingularSystem
from poismoe.gating import (PI_FLOOR, gating_log_probabilities,
                            penalty_value, q1_value)
from poismoe.linalg import COND_LIMIT, outer_basis, penalized_wls_solve
from poismoe.model import ETA_FLOOR, ETA_MAX, draw_labels
from poismoe.pipeline import METHODS

from conftest import small_mixture
from test_gating import ascend_with_stops, assert_same_gate_system

seeds = st.integers(0, 2**32 - 1)


def _relative_le(lower, upper, rel=1e-9):
    return lower <= upper + rel * max(abs(lower), abs(upper), 1.0)


def _gram(gen, p, cond, scale=1.0):
    """Exactly symmetric p x p Gram matrix with eigenvalues spread
    geometrically from ``scale`` down to ``scale / cond``; ``cond=inf``
    makes the smallest eigenvalue zero."""
    basis, _ = np.linalg.qr(gen.normal(size=(p, p)))
    eigs = np.geomspace(1.0, 1.0 / min(cond, 1e300), p)
    if np.isinf(cond):
        eigs[-1] = 0.0
    gram = scale * (basis * eigs) @ basis.T
    return 0.5 * (gram + gram.T)


def _shrinkage(gen, p, per_coordinate, low, high):
    values = gen.uniform(low, high, size=p if per_coordinate else None)
    return values if per_coordinate else float(values)


@given(seed=seeds, p=st.integers(1, 6), log_cond=st.floats(0.0, 8.0),
       log_scale=st.floats(-3.0, 3.0),
       kind=st.sampled_from(["ml", "ridge", "lt"]),
       per_coordinate=st.booleans(), self_anchor=st.booleans())
def test_solve_satisfies_the_normal_equations(seed, p, log_cond, log_scale,
                                              kind, per_coordinate,
                                              self_anchor):
    gen = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    gram = _gram(gen, p, 10.0 ** log_cond, scale)
    rhs = scale * gen.normal(size=p)
    lam = d = anchor = None
    if kind != "ml":
        lam = scale * _shrinkage(gen, p, per_coordinate, 1e-3, 10.0)
    if kind == "lt":
        d = scale * _shrinkage(gen, p, per_coordinate, -3.0, 3.0)
        anchor = None if self_anchor else gen.normal(size=p)
    if anchor is None:
        solution = penalized_wls_solve(gram, rhs, lam, d)
    else:  # a fixed anchor: the ridge solve of the shifted rhs
        solution = penalized_wls_solve(gram, rhs - d * anchor, lam)
    system = gram if lam is None else gram + np.diag(np.broadcast_to(lam, p))
    target = rhs
    if d is not None:
        if anchor is None:  # the self-anchor is the ridge solve
            anchor = penalized_wls_solve(gram, rhs, lam)
        target = rhs - d * anchor
    residual = system @ solution - target
    bound = 10 * p * np.finfo(float).eps * (
        np.linalg.norm(system, 2) * np.linalg.norm(solution)
        + np.linalg.norm(rhs) + np.linalg.norm(target))
    assert np.linalg.norm(residual) <= bound


@given(seed=seeds, p=st.integers(2, 6), log_scale=st.floats(-3.0, 3.0),
       log_cond=st.one_of(st.floats(0.0, 10.0), st.floats(14.0, 18.0),
                          st.just(np.inf)))
def test_ml_refuses_exactly_the_ill_conditioned_grams(seed, p, log_scale,
                                                      log_cond):
    gen = np.random.default_rng(seed)
    gram = _gram(gen, p, 10.0 ** log_cond, 10.0 ** log_scale)
    try:
        penalized_wls_solve(gram, gen.normal(size=p))
    except SingularSystem:
        refused = True
    else:
        refused = False
    assert refused == (np.linalg.cond(gram) > COND_LIMIT)


@given(seed=seeds, p=st.integers(1, 6), data=st.data(),
       log_lam=st.floats(-6.0, 2.0))
def test_ridge_solves_a_singular_gram(seed, p, data, log_lam):
    rank = data.draw(st.integers(0, p - 1))
    gen = np.random.default_rng(seed)
    factor = gen.normal(size=(p, rank))
    gram = factor @ factor.T
    rhs = gen.normal(size=p)
    lam = 10.0 ** log_lam
    solution = penalized_wls_solve(gram, rhs, lam)
    residual = (gram + lam * np.eye(p)) @ solution - rhs
    bound = 10 * p * np.finfo(float).eps * (
        (np.linalg.norm(gram, 2) + lam) * np.linalg.norm(solution)
        + np.linalg.norm(rhs))
    assert np.linalg.norm(residual) <= bound


@given(seed=seeds, p=st.integers(1, 5), lam=st.floats(0.05, 5.0),
       delta=st.floats(1e-3, 10.0), gating=st.booleans())
def test_closed_form_d_minimizes_the_oracle_mse(seed, p, lam, delta, gating):
    gen = np.random.default_rng(seed)
    n = 3 * p + 5
    design = np.column_stack([np.ones(n), gen.normal(size=(n, p - 1))])
    target = gen.normal(size=p)
    if gating:
        pi = 1.0 / (1.0 + np.exp(-gen.normal(scale=1.5, size=n)))
        weights = pi * (1.0 - pi)
        plugin = np.clip(pi + gen.normal(scale=0.1, size=n), 0.0, 1.0)

        def mse(d):
            return pm.lt_mse_alpha(d, design, weights, lam, target, plugin)
    else:
        weights = np.exp(gen.normal(scale=0.6, size=n))
        plugin = np.exp(gen.normal(scale=0.5, size=n))

        def mse(d):
            return pm.lt_mse_beta(d, design, weights, lam, target, plugin)

    gram = design.T @ (weights[:, None] * design)
    d_star = pm.optimize_bias_correction(gram, lam,
                                         design.T @ (weights * plugin), target)
    # The minimizer over [0, lambda_min(S)], S = gram + lam I.
    upper = max(lam + float(np.linalg.eigh(gram)[0][0]), 0.0)
    assert 0.0 <= d_star <= upper
    best = mse(d_star)
    step = delta * max(1.0, d_star)
    for other in (max(d_star - step, 0.0), min(d_star + step, upper), 0.0,
                  upper):
        assert _relative_le(best, mse(other))


@given(seed=seeds, n=st.integers(1, 30), q=st.integers(1, 4),
       n_classes=st.integers(1, 6), scale=st.floats(0.0, 200.0),
       chains=st.integers(1, 3))
def test_gating_probability_rows_sum_to_one(seed, n, q, n_classes, scale,
                                            chains):
    # A (B, J, q) batch gives (B, n, J), like e_step's tau, and each
    # chain's rows are its own call's.
    gen = np.random.default_rng(seed)
    Omega = np.column_stack([np.ones(n), gen.normal(size=(n, q - 1))])
    alpha = gen.normal(scale=scale, size=(chains, n_classes, q))
    pi = pm.gating_probabilities(Omega, alpha)
    assert pi.shape == (chains, n, n_classes)
    assert np.all(pi >= 0.0)
    assert np.allclose(pi.sum(axis=-1), 1.0, rtol=0.0, atol=1e-12)
    for rows, chain_alpha in zip(pi, alpha):
        alone = pm.gating_probabilities(Omega, chain_alpha)
        assert alone.shape == (n, n_classes)
        assert np.array_equal(rows, alone)


@st.composite
def coefficients_and_order(draw):
    n_components = draw(st.integers(1, 6))
    gen = np.random.default_rng(draw(seeds))
    reference = draw(st.integers(0, n_components - 1))
    alpha = gen.normal(scale=3.0, size=(n_components, 3))
    alpha[reference] = 0.0
    psi = pm.Coefficients(beta=gen.normal(size=(n_components, 2)),
                          alpha=alpha, reference_class=reference)
    order = draw(st.permutations(range(n_components)))
    return psi, order


@given(coefficients_and_order())
def test_permute_then_inverse_restores_coefficients(case):
    psi, order = case
    inverse = np.argsort(order)
    back = psi.permute(order).permute(inverse)
    assert back.reference_class == psi.reference_class
    assert np.array_equal(back.beta, psi.beta)
    assert np.allclose(back.alpha, psi.alpha, rtol=0.0, atol=1e-12)
    assert np.all(back.alpha[back.reference_class] == 0.0)


@given(coefficients_and_order(), st.integers(1, 3), seeds)
def test_permuting_a_batch_permutes_each_chain(case, chains, seed):
    psi, order = case
    gen = np.random.default_rng(seed)
    alpha = gen.normal(scale=3.0, size=(chains,) + psi.alpha.shape)
    alpha[:, psi.reference_class] = 0.0
    batch = pm.Coefficients(beta=gen.normal(size=(chains,) + psi.beta.shape),
                            alpha=alpha, reference_class=psi.reference_class)
    permuted = batch.permute(order)
    assert permuted.beta.shape == batch.beta.shape
    for chain in range(chains):
        alone = pm.Coefficients(beta=batch.beta[chain],
                                alpha=batch.alpha[chain],
                                reference_class=psi.reference_class
                                ).permute(order)
        assert np.array_equal(permuted.beta[chain], alone.beta)
        assert np.array_equal(permuted.alpha[chain], alone.alpha)


@given(coefficients_and_order())
def test_align_components_undoes_a_relabeling(case):
    psi, order = case  # normal draws: the component betas are distinct
    shuffled = psi.permute(order)
    restored = shuffled.permute(pm.align_components(shuffled, psi))
    assert np.array_equal(restored.beta, psi.beta)


@given(seed=seeds, n=st.integers(1, 40), n_components=st.integers(1, 5),
       shrink=st.floats(0.0, 1e-12))
def test_s_step_labels_lie_in_range(seed, n, n_components, shrink):
    gen = np.random.default_rng(seed)
    tau = gen.exponential(size=(n, n_components)) ** 3
    tau /= tau.sum(axis=1, keepdims=True)
    tau *= 1.0 - shrink  # rows may fall just short of one
    # An empty component is drawn like any other partition.
    labels = pm.s_step(tau, np.random.default_rng(seed))
    assert labels.shape == (n,)
    assert labels.min() >= 0 and labels.max() < n_components


@st.composite
def mixture_partition_and_order(draw):
    n_components = draw(st.integers(2, 4))
    data, psi, part = small_mixture(seed=draw(seeds), n=40 * n_components,
                                    n_components=n_components)
    order = draw(st.permutations(range(n_components)))
    return data, psi, part, order


@given(mixture_partition_and_order())
def test_m_step_closed_under_label_permutation(case):
    data, psi, part, order = case
    # Well posed: every component has enough rows for its regression and
    # labels drawn from an overlapping gate leave the gating MLE finite.
    assume(np.bincount(part, minlength=psi.n_components).min() >= 10)
    relabeled = np.argsort(order)[part]
    expected = pm.m_step(data, part, psi).permute(order)
    result = pm.m_step(data, relabeled, psi.permute(order))
    assert np.array_equal(result.beta, expected.beta)
    # The decrement stop guarantees the gate objective, the assignment
    # log-likelihood, and not the rows: near the maximum the ascent
    # rejects steps whose gain is below the objective's rounding, so
    # each labeling stops its own few 1e-8 short of the maximizer.
    picks = relabeled * data.n + np.arange(data.n)

    def assignment_loglik(alpha):
        return q1_value(gating_log_probabilities(data.Omega, alpha), picks)

    value = assignment_loglik(expected.alpha)
    assert abs(assignment_loglik(result.alpha) - value) \
        <= 1e-9 * (1.0 + abs(value))
    # One more Newton step, taken without that test, lands both on the
    # same rows.
    free = np.flatnonzero(np.arange(psi.n_components) != psi.reference_class)
    indicator = (relabeled == free[:, None]).astype(float)

    def newton_target(alpha):
        log_pi = gating_log_probabilities(data.Omega, alpha)
        gram, rhs = pm.build_gating_workspace(
            data.Omega, data.Omega_outer, log_pi, alpha[free].ravel(),
            indicator, free)
        return penalized_wls_solve(gram, rhs)

    assert np.allclose(newton_target(result.alpha),
                       newton_target(expected.alpha), rtol=0.0, atol=1e-8)


@given(seed=seeds, n_components=st.integers(2, 3), q=st.integers(2, 3),
       lam=st.one_of(st.none(), st.floats(0.05, 5.0)))
def test_gate_ascent_reaches_the_tight_objective(seed, n_components, q, lam):
    # The decrement stop ends the ascent with the ML/ridge objective as
    # good as a run with a far tighter tolerance and a larger cap.
    data, psi, part = small_mixture(seed=seed, n=40 * n_components, q=q,
                                    n_components=n_components)
    assume(np.bincount(part, minlength=n_components).min() >= 10)
    lams = None if lam is None else [lam] * n_components
    free = [j for j in range(n_components) if j != psi.reference_class]

    def objective(alpha):
        log_pi = gating_log_probabilities(data.Omega, alpha)
        picks = part * data.n + np.arange(data.n)
        return q1_value(log_pi, picks) + penalty_value(
            alpha[free].ravel(), None if lam is None else lam)

    def ascend(**stop):
        return ascend_with_stops(
            data.Omega, np.zeros_like(psi.alpha), part, lams, None,
            psi.reference_class, **stop)

    value = objective(ascend())
    tight = objective(ascend(inner_tol=1e-15, inner_max=300))
    assert abs(value - tight) <= 1e-9 * (1.0 + abs(tight))


@given(seed=seeds, n_components=st.integers(2, 3), q=st.integers(1, 3),
       lam=st.floats(0.01, 5.0), fraction=st.floats(0.0, 1.0))
def test_liu_type_gate_shrinks_the_ridge_gate_in_the_eigenbasis(
        seed, n_components, q, lam, fraction):
    # With S = gram + lam I of the last Newton system and one d in
    # [0, lambda_min(S)] for every class, each coordinate of the
    # Liu-type gate result in S's eigenbasis is the ridge result's times
    # (s - d)/s, a factor in [0, 1].
    data, psi, part = small_mixture(seed=seed % 1000, n=30 * n_components,
                                    q=q, n_components=n_components)
    free = [j for j in range(n_components) if j != psi.reference_class]
    lams = [lam] * n_components
    grams = []
    build = pm.gating.build_gating_workspace

    def spied(*args):
        system = build(*args)
        grams.append(system[0][0])  # the one chain of the batch
        return system

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pm.gating, "build_gating_workspace", spied)
        ridge = pm.coordinate_descent_alphas(
            data.Omega, psi.alpha, part, lams, None, psi.reference_class)
    s, vecs = np.linalg.eigh(grams[-1] + lam * np.eye(grams[-1].shape[0]))
    d = fraction * s[0]
    liu = pm.coordinate_descent_alphas(data.Omega, psi.alpha, part, lams,
                                       [d] * n_components,
                                       psi.reference_class)
    factors = (s - d) / s
    assert np.all((factors >= 0.0) & (factors <= 1.0))
    expected = factors * (vecs.T @ ridge[free].ravel())
    got = vecs.T @ liu[free].ravel()
    scale = 1.0 + np.max(np.abs(ridge))
    assert np.allclose(got, expected, rtol=0.0, atol=1e-10 * scale)
    assert np.all(liu[psi.reference_class] == 0.0)


# Row-major oracles: the observation-major (n, J) forms of the gate's
# log-softmax, the E-step and the S-step. The class-major kernels must
# equal them bit for bit.

def _row_log_softmax(scores):
    peak = scores.max(axis=1, keepdims=True)
    return scores - (peak + np.log(np.exp(scores - peak).sum(axis=1,
                                                           keepdims=True)))


@given(seed=seeds, n=st.integers(1, 60), q=st.integers(1, 5),
       n_classes=st.integers(1, 5), scale=st.floats(0.0, 50.0))
def test_class_major_log_softmax_equals_row_major_oracle(seed, n, q,
                                                         n_classes, scale):
    gen = np.random.default_rng(seed)
    Omega = np.column_stack([np.ones(n), gen.normal(size=(n, q - 1))])
    alpha = gen.normal(scale=scale, size=(n_classes, q))
    expected = _row_log_softmax(Omega @ alpha.T)
    log_pi = gating_log_probabilities(Omega, alpha)
    assert log_pi.shape == (n_classes, n) and log_pi.flags.c_contiguous
    assert np.array_equal(log_pi.T, expected)
    assert np.array_equal(pm.gating_probabilities(Omega, alpha),
                          np.exp(expected))


@given(seed=seeds, n=st.integers(1, 60), q=st.integers(1, 4),
       n_classes=st.integers(2, 4), scale=st.floats(0.0, 5.0))
def test_gate_workspace_equals_row_major_oracle(seed, n, q, n_classes, scale):
    gen = np.random.default_rng(seed)
    Omega = np.column_stack([np.ones(n), gen.normal(size=(n, q - 1))])
    alpha = gen.normal(scale=scale, size=(n_classes, q))
    labels = gen.integers(0, n_classes, size=n)
    free = np.arange(1, n_classes)
    pi = np.exp(_row_log_softmax(Omega @ alpha.T))[:, free]
    indicator = (labels[:, None] == free).astype(float)
    coef = alpha[free].ravel()
    gram = np.empty((len(free) * q, len(free) * q))
    for a in range(len(free)):
        rows = slice(a * q, (a + 1) * q)
        pi_a = np.clip(pi[:, a], PI_FLOOR, 1.0 - PI_FLOOR)
        gram[rows, rows] = Omega.T @ ((pi_a * (1.0 - pi_a))[:, None] * Omega)
        for b in range(a):
            cols = slice(b * q, (b + 1) * q)
            block = Omega.T @ ((-pi[:, a] * pi[:, b])[:, None] * Omega)
            gram[rows, cols], gram[cols, rows] = block, block.T
    rhs = gram @ coef + ((indicator - pi).T @ Omega).ravel()
    got = pm.build_gating_workspace(
        Omega, outer_basis(Omega), gating_log_probabilities(Omega, alpha),
        coef, np.ascontiguousarray(indicator.T), free)
    # Blocks from one product round apart from block-wise products.
    assert_same_gate_system(got, (gram, rhs), coef)


@given(seed=seeds, n=st.integers(1, 60), n_components=st.integers(1, 4),
       beta_scale=st.floats(0.0, 4.0))
def test_e_step_equals_row_major_oracle(seed, n, n_components, beta_scale):
    data, psi, _ = small_mixture(seed=seed, n=n, q=3,
                                 n_components=n_components,
                                 beta_scale=beta_scale)
    eta = np.clip(data.X @ psi.beta.T, ETA_FLOOR, ETA_MAX)
    log_terms = _row_log_softmax(data.Omega @ psi.alpha.T) + (
        data.y[:, None] * eta - np.exp(eta) - data.log_y_factorial[:, None])
    peak = log_terms.max(axis=1, keepdims=True)
    norms = peak + np.log(np.exp(log_terms - peak).sum(axis=1, keepdims=True))
    tau, loglik = pm.e_step(data, psi)
    assert tau.shape == (n, n_components)
    assert np.array_equal(tau, np.exp(log_terms - norms))
    assert loglik == float(norms.sum())
    assert np.array_equal(pm.responsibilities(data, psi), tau)


@given(seed=seeds, n=st.integers(1, 40), n_components=st.integers(1, 5),
       shrink=st.floats(0.0, 0.3), contiguous_rows=st.booleans())
def test_labels_equal_row_major_oracle(seed, n, n_components, shrink,
                                       contiguous_rows):
    gen = np.random.default_rng(seed)
    tau = gen.exponential(size=(n_components, n)) ** 3
    # e_step's (n, J) view; rows that fall short of one send the
    # uniforms above their sum to the last class
    tau = (tau / tau.sum(axis=0) * (1.0 - shrink)).T
    if contiguous_rows:
        tau = np.ascontiguousarray(tau)
    u = np.random.default_rng(seed).random(n)
    expected = np.minimum((np.cumsum(tau, axis=1) < u[:, None]).sum(axis=1),
                          n_components - 1)
    assert np.array_equal(draw_labels(tau, np.random.default_rng(seed)),
                          expected)
    assert np.array_equal(pm.s_step(tau, np.random.default_rng(seed)),
                          expected)


@settings(max_examples=100)
@given(seed=seeds, n=st.integers(2, 40), n_components=st.integers(1, 4),
       p=st.integers(1, 3), q=st.integers(1, 3),
       log_count=st.floats(0.0, 7.0), duplicated=st.booleans())
def test_small_fits_end_finite_or_typed(seed, n, n_components, p, q,
                                        log_count, duplicated):
    # Small, collinear, heavy-count data: every stage either fits with
    # finite results or records a PoismoeError, and nothing warns (a
    # clamped mean or a numpy overflow would raise here).
    gen = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), gen.normal(size=(n, p - 1))])
    Omega = np.column_stack([np.ones(n), gen.normal(size=(n, q - 1))])
    if duplicated:
        X = np.column_stack([X, X[:, -1]])
        Omega = np.column_stack([Omega, Omega[:, -1]])
    y = gen.poisson(10.0 ** (log_count * gen.random(n)))  # up to 1e7
    data = pm.Dataset(y=y, X=X, Omega=Omega)
    opts = pm.SemOptions(epsilon=1e-6, max_iters=15, burn_in=2,
                         n_restarts=1, rng_seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = pm.fit_all_methods(data, pm.MixtureSpec(n_components),
                                    opts, raise_on_failure=False)
    for method in METHODS:
        fit = result.fit_for(method)
        if fit is None:
            assert result.failures[method]
        else:
            assert method not in result.failures
            assert np.isfinite(fit.psi_hat.beta).all()
            assert np.isfinite(fit.psi_hat.alpha).all()
            assert np.isfinite(fit.loglik_trace).all()


@settings(max_examples=40)
@given(seed=seeds, n_components=st.integers(2, 3),
       restarts=st.integers(1, 4), method=st.sampled_from(METHODS),
       n=st.integers(6, 40))
def test_a_chain_runs_alike_alone_and_in_a_batch(seed, n_components,
                                                  restarts, method, n):
    # Lockstep restarts: each chain's iterates, log-likelihoods, d values,
    # convergence and interruption are bit for bit what it gives alone,
    # whatever the other chains do beside it (stop, fail or run on).
    from test_sem import batch_and_solo_runs, chain_record
    data, truth, _ = small_mixture(seed=seed % 1000, n=n, q=2,
                                   n_components=n_components)
    opts = pm.SemOptions(epsilon=1e-3, max_iters=10, burn_in=0,
                         n_restarts=restarts, rng_seed=seed)
    lam = retune = None
    if method != "ml":
        tuning = pm.estimate_ridge_lambdas(truth, source="truth")
        lam = (tuning.lambda_beta, tuning.lambda_alpha)
        if method == "lt":
            retune = pm.pipeline._make_retuner(data, tuning, truth)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        batch, solo = batch_and_solo_runs(
            data, pm.MixtureSpec(n_components, 0), opts, lam, retune)
    for together, alone in zip(batch, solo):
        assert chain_record(together) == chain_record(alone)
