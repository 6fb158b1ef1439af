"""Property tests for the closed-form tuning, gating, labels and relabeling."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import poismoe as pm
from poismoe.errors import EmptyPartition
from poismoe.model import draw_labels

seeds = st.integers(0, 2**32 - 1)


def _relative_le(lower, upper, rel=1e-9):
    return lower <= upper + rel * max(abs(lower), abs(upper), 1.0)


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

    d_star = pm.optimize_bias_correction(
        design.T @ (weights[:, None] * design), lam,
        design.T @ (weights * plugin), target)
    best = mse(d_star)
    step = delta * max(1.0, abs(d_star))
    for other in (d_star - step, d_star + step, 0.0):
        assert _relative_le(best, mse(other))


@given(seed=seeds, n=st.integers(1, 30), q=st.integers(1, 4),
       n_classes=st.integers(1, 6), scale=st.floats(0.0, 200.0))
def test_gating_probability_rows_sum_to_one(seed, n, q, n_classes, scale):
    gen = np.random.default_rng(seed)
    Omega = np.column_stack([np.ones(n), gen.normal(size=(n, q - 1))])
    alpha = gen.normal(scale=scale, size=(n_classes, q))
    pi = pm.gating_probabilities(Omega, alpha)
    assert pi.shape == (n, n_classes)
    assert np.all(pi >= 0.0)
    assert np.allclose(pi.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


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
    try:
        part = pm.s_step(tau, np.random.default_rng(seed))
    except EmptyPartition:
        labels = draw_labels(tau, np.random.default_rng(seed))
        assert np.bincount(labels, minlength=n_components).min() == 0
    else:
        labels = part.assignment
        assert np.array_equal(part.counts,
                              np.bincount(labels, minlength=n_components))
    assert labels.shape == (n,)
    assert labels.min() >= 0 and labels.max() < n_components

