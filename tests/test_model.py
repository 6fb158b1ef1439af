import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.stats import poisson as poisson_dist

import poismoe as pm
from poismoe.errors import DimensionError

from conftest import small_mixture


def test_dataset_rejects_bad_inputs():
    with pytest.raises(ValueError):
        pm.Dataset(y=np.array([-1]), X=np.ones((1, 1)), Omega=np.ones((1, 1)))
    with pytest.raises(ValueError):
        pm.Dataset(y=np.array([0.5]), X=np.ones((1, 1)), Omega=np.ones((1, 1)))
    with pytest.raises(DimensionError):
        pm.Dataset(y=np.array([1, 2]), X=np.ones((3, 1)), Omega=np.ones((2, 1)))


# Python integers past int64 (the CLI's) make an object array.
@pytest.mark.parametrize("y", [[1e20, 2.0], [2.0**63, 0.0], [np.inf, 1.0],
                               [10**20, 2]])
def test_dataset_refuses_a_count_past_int64(y):
    # The int64 cast would overflow; refused before it, without a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"below 2\*\*63"):
            pm.Dataset(y=np.array(y), X=np.ones((2, 1)), Omega=np.ones((2, 1)))


@pytest.mark.parametrize("matrix", ["X", "Omega"])
# 1e200 is finite, but its square, an entry of the outer-product basis,
# is not; refused without an overflow warning.
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200])
def test_dataset_rejects_non_finite_covariates(matrix, value):
    designs = {"X": np.ones((2, 2)), "Omega": np.ones((2, 2))}
    designs[matrix][1, 1] = value
    with pytest.raises(ValueError, match="finite"):
        pm.Dataset(y=np.array([1, 2]), **designs)


def test_coefficients_require_zero_reference_row():
    with pytest.raises(ValueError):
        pm.Coefficients(beta=np.zeros((2, 1)), alpha=np.ones((2, 1)),
                        reference_class=0)
    psi = pm.Coefficients(beta=np.zeros((2, 1)),
                          alpha=np.array([[0.0], [1.0]]), reference_class=0)
    assert psi.n_components == 2


@pytest.mark.parametrize("reference_class", [True, 0.7, "0", 0.0])
def test_coefficients_refuse_a_reference_class_that_is_not_an_integer(
        reference_class):
    # int() would take each of these as class 0 or 1.
    with pytest.raises(ValueError, match="reference_class must be an integer"):
        pm.Coefficients(beta=np.zeros((2, 2)), alpha=[[0, 0], [1, 1]],
                        reference_class=reference_class)
    psi = pm.Coefficients(beta=np.zeros((2, 2)), alpha=[[0, 0], [1, 1]],
                          reference_class=np.int64(0))
    assert type(psi.reference_class) is int


def test_observed_loglik_single_component_point_mass():
    data = pm.Dataset(y=np.array([0]), X=np.array([[1.0]]),
                      Omega=np.array([[1.0]]))
    psi = pm.Coefficients(beta=np.zeros((1, 1)), alpha=np.zeros((1, 1)))
    assert pm.observed_loglik(data, psi) == pytest.approx(-1.0, abs=1e-12)


def test_observed_loglik_at_a_linear_predictor_above_its_floor():
    # log p(1 | eta) = eta - exp(eta) - log 1! is eta itself at eta = -1e9,
    # which the floor (ETA_FLOOR, -1e12) leaves unclipped.
    data = pm.Dataset(y=np.array([1]), X=np.array([[1.0]]),
                      Omega=np.array([[1.0]]))
    psi = pm.Coefficients(beta=np.array([[-1e9]]), alpha=np.zeros((1, 1)))
    assert pm.observed_loglik(data, psi) == -1e9


def test_observed_loglik_identical_components_collapse():
    data, truth, _ = small_mixture(seed=1)
    beta = np.vstack([truth.beta[0], truth.beta[0]])
    psi2 = pm.Coefficients(beta=beta, alpha=truth.alpha, reference_class=0)
    psi1 = pm.Coefficients(beta=truth.beta[:1], alpha=np.zeros((1, truth.q)))
    assert pm.observed_loglik(data, psi2) == pytest.approx(
        pm.observed_loglik(data, psi1), rel=1e-12)


def test_observed_loglik_matches_direct_summation_oracle():
    design = pm.study_presets("study2", rho=0.9, n=20)
    data, _ = pm.simulate_dataset(design, np.random.default_rng(99))
    truth = design.truth()
    scores = data.Omega @ truth.alpha.T
    pi = np.exp(scores)
    pi /= pi.sum(axis=1, keepdims=True)
    mu = np.exp(data.X @ truth.beta.T)
    oracle = float(np.log((pi * poisson_dist.pmf(data.y[:, None], mu))
                          .sum(axis=1)).sum())
    assert pm.observed_loglik(data, truth) == pytest.approx(oracle, rel=1e-10)


def test_observed_loglik_dimension_mismatch():
    data, truth, _ = small_mixture(seed=1)
    bad = pm.Coefficients(beta=np.zeros((2, truth.p + 1)),
                          alpha=truth.alpha, reference_class=0)
    with pytest.raises(DimensionError):
        pm.observed_loglik(data, bad)


def test_observed_loglik_invariant_under_relabeling():
    data, _, _ = small_mixture(seed=9, n_components=3, n=50)
    gen = np.random.default_rng(4)
    beta = gen.normal(scale=0.3, size=(3, data.p))
    alpha = gen.normal(scale=0.4, size=(3, data.q))
    alpha[1] = 0.0
    psi = pm.Coefficients(beta=beta, alpha=alpha, reference_class=1)
    base = pm.observed_loglik(data, psi)
    from itertools import permutations
    for order in permutations(range(3)):
        permuted = psi.permute(order)
        assert pm.observed_loglik(data, permuted) == pytest.approx(base,
                                                                   rel=1e-10)


def test_permute_keeps_reference_row_zero():
    psi = pm.Coefficients(beta=np.arange(6.0).reshape(3, 2),
                          alpha=np.array([[0.0, 0.0], [1.0, -1.0],
                                          [2.0, 0.5]]),
                          reference_class=0)
    permuted = psi.permute((2, 0, 1))
    assert np.all(permuted.alpha[0] == 0.0)
    with pytest.raises(ValueError):
        psi.permute((0, 0, 1))


def test_fit_result_invariants():
    psi = pm.Coefficients(beta=np.zeros((1, 1)), alpha=np.zeros((1, 1)))
    with pytest.raises(ValueError):
        pm.FitResult(psi_hat=psi, loglik_trace=np.array([1.0]),
                     converged=True, selected_iteration=5)
    with pytest.raises(ValueError):
        pm.FitResult(psi_hat=psi, loglik_trace=np.array([1.0, 2.0]),
                     converged=True, selected_iteration=2)
    fit = pm.FitResult(psi_hat=psi, loglik_trace=np.array([1.0, 2.0]),
                       converged=True, selected_iteration=1)
    assert fit.loglik_trace[fit.selected_iteration] == 2.0
    assert fit.iterations_run == 2


def test_sem_options_validation():
    with pytest.raises(ValueError):
        pm.SemOptions(epsilon=0.0)
    with pytest.raises(ValueError):
        pm.SemOptions(burn_in=10, max_iters=10)
    with pytest.raises(ValueError):
        pm.SemOptions(estimate_selection="mode")


@pytest.mark.parametrize("n_components, reference_class, field", [
    (2, 0.5, "reference_class"),  # in range, yet it pins no gate row
    (True, 0, "n_components"),
])
def test_mixture_spec_refuses_a_count_that_is_not_an_integer(
        n_components, reference_class, field):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        pm.MixtureSpec(n_components, reference_class)


SETTINGS = (pm.MixtureSpec(2), pm.SemOptions(), pm.study_presets("study1"),
            pm.StudyConfig(mode="simulation",
                           design=pm.study_presets("study1")))
# Values of another type for each checked field type: a bool and a
# numeric string are neither integers nor numbers.
FOREIGN_VALUES = {"int": (True, "1"), "float": (True, "1"), "str": (5,),
                  "str | None": (5,)}


@pytest.mark.parametrize("settings, field, value", [
    pytest.param(settings, f.name, value,
                 id=f"{type(settings).__name__}.{f.name}={value!r}")
    for settings in SETTINGS for f in fields(settings)
    for value in FOREIGN_VALUES.get(f.type, ())])
def test_every_settings_field_refuses_a_value_of_another_type(
        settings, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        replace(settings, **{field: value})


def test_responsibilities_rows_sum_to_one():
    data, truth, _ = small_mixture(seed=11)
    tau = pm.responsibilities(data, truth)
    assert np.max(np.abs(tau.sum(axis=1) - 1.0)) < 1e-12
    assert np.all(tau >= 0.0)
