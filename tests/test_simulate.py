import json
from dataclasses import asdict, replace

import numpy as np
import pytest
from scipy.stats import chi2

import poismoe as pm
from poismoe.simulate import (STUDY1_CORRELATIONS, STUDY1_SAMPLE_SIZES,
                              STUDY2_CORRELATIONS, STUDY2_SAMPLE_SIZE,
                              MEAN_PREDICTOR_CAP)
from poismoe.replication import config_from_dict


def test_study1_preset_constants():
    design = pm.study_presets("study1")
    assert design.beta_true[0] == (1.0, 1.0, 2.0, 3.0, 0.5)
    assert design.beta_true[1] == (-1.0, -1.0, -2.0, -0.5, -2.0)
    assert design.alpha_true[0] == (0.5, -1.0, -1.0, 0.3, -3.0)
    assert design.reference_class == 1  # second expert class
    assert design.n in STUDY1_SAMPLE_SIZES
    assert STUDY1_SAMPLE_SIZES == (100, 200)
    assert STUDY1_CORRELATIONS == ((0.85, 0.90), (0.85, 0.95),
                                   (0.90, 0.90), (0.90, 0.95))


def test_study2_preset_constants():
    design = pm.study_presets("study2")
    assert design.beta_true == ((0.85, -1.0, 2.0), (1.0, 0.5, 1.0),
                                (-2.0, 2.0, -2.0))
    assert design.alpha_true[0] == (0.5, -1.0, -1.0)
    assert design.alpha_true[1] == (0.1, 1.0, 0.05)
    assert design.reference_class == 2  # third class is the reference
    assert design.n == STUDY2_SAMPLE_SIZE == 300
    assert STUDY2_CORRELATIONS == (0.90, 0.95)
    with pytest.raises(ValueError):
        pm.study_presets("study2", phi=0.5, rho=0.9)


def test_preset_overrides():
    design = pm.study_presets("study1", phi=0.9, rho=0.85, n=150)
    assert (design.phi, design.rho, design.n) == (0.9, 0.85, 150)


def test_zero_correlation_gives_independent_standard_covariates():
    design = pm.study_presets("study1", phi=0.0, rho=0.0, n=20_000)
    X = pm.simulate_dataset(design, np.random.default_rng(0))[0].X
    assert np.allclose(X[:, 0], 1.0)
    corr = np.corrcoef(X[:, 1:].T)
    off_diag = corr[~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off_diag)) < 0.05
    assert np.allclose(X[:, 1:].std(axis=0), 1.0, atol=0.05)


def test_sqrt_convention_population_correlations():
    design = pm.study_presets("study1", phi=0.9, rho=0.8, n=100_000,
                              collinearity_form="sqrt_convention")
    data, _ = pm.simulate_dataset(design, np.random.default_rng(7))
    X, Omega = data.X, data.Omega
    assert np.corrcoef(X[:, 1], X[:, 2])[0, 1] == pytest.approx(0.81,
                                                                abs=0.01)
    assert np.corrcoef(X[:, 3], X[:, 4])[0, 1] == pytest.approx(0.64,
                                                                abs=0.01)
    assert np.corrcoef(Omega[:, 1], Omega[:, 2])[0, 1] == pytest.approx(
        0.81, abs=0.01)


def test_covariates_are_reproducible():
    design = pm.study_presets("study1", n=50)
    a, _ = pm.simulate_dataset(design, np.random.default_rng(3))
    b, _ = pm.simulate_dataset(design, np.random.default_rng(3))
    assert np.array_equal(a.X, b.X) and np.array_equal(a.Omega, b.Omega)


def test_degenerate_gating_gives_pure_poisson():
    design = pm.SimulationDesign(
        n=4000, beta_true=((0.0,), (5.0,)), alpha_true=((50.0,), (0.0,)),
        reference_class=1)
    data, z = pm.simulate_dataset(design, np.random.default_rng(11))
    assert np.all(z == 0)
    # mean of Poisson(1) within 4 sigma
    assert abs(data.y.mean() - 1.0) < 4.0 / np.sqrt(design.n)


def test_component_means_match_law_of_large_numbers():
    design = pm.SimulationDesign(
        n=10_000, beta_true=((0.3, 0.5), (1.4, -0.4)),
        alpha_true=((0.6, 0.8), (0.0, 0.0)), reference_class=1)
    rng = np.random.default_rng(23)
    data, z = pm.simulate_dataset(design, rng)
    truth = design.truth()
    for j in range(2):
        rows = z == j
        mu = np.exp(np.asarray(data.X[rows]) @ truth.beta[j])
        sigma = np.sqrt(mu.sum()) / rows.sum()
        assert abs(data.y[rows].mean() - mu.mean()) < 4.0 * sigma


def test_labels_match_gating_probabilities_chi2():
    design = pm.SimulationDesign(
        n=10_000, beta_true=((0.2, 0.1), (0.8, -0.2), (1.5, 0.3)),
        alpha_true=((0.5, -0.4), (-0.3, 0.6), (0.0, 0.0)),
        reference_class=2)
    data, z = pm.simulate_dataset(design, np.random.default_rng(31))
    pi = pm.gating_probabilities(data.Omega, design.truth().alpha)
    expected = pi.sum(axis=0)
    observed = np.bincount(z, minlength=3)
    statistic = float(((observed - expected) ** 2 / expected).sum())
    assert statistic < chi2.ppf(0.999, df=2)


def test_mean_overflow_rows_are_resampled():
    design = pm.SimulationDesign(
        n=4000, beta_true=((25.0, 5.0),), alpha_true=((0.0, 0.0),),
        reference_class=0)
    # Covariates are drawn first, so a zero-slope design from the same
    # seed keeps the first draw (no row of it needs a redraw).
    first, _ = pm.simulate_dataset(replace(design, beta_true=((0.0, 0.0),)),
                                   np.random.default_rng(17))
    beta = np.asarray(design.truth().beta[0])
    over = first.X @ beta > MEAN_PREDICTOR_CAP
    assert over.any()
    data, _ = pm.simulate_dataset(design, np.random.default_rng(17))
    assert np.all(data.X @ beta <= MEAN_PREDICTOR_CAP)
    assert np.array_equal(data.X[~over], first.X[~over])
    assert np.all(data.y >= 0)


def test_a_mean_predictor_under_the_cap_keeps_its_rows():
    # A linear predictor of 27.5 on every row is under the cap of 30, so
    # the first draw stands; a row above it could never be redrawn here.
    design = pm.SimulationDesign(
        n=50, beta_true=((27.5, 0.0),), alpha_true=((0.0, 0.0),),
        reference_class=0)
    first, _ = pm.simulate_dataset(replace(design, beta_true=((0.0, 0.0),)),
                                   np.random.default_rng(5))
    data, _ = pm.simulate_dataset(design, np.random.default_rng(5))
    assert np.array_equal(data.X, first.X)
    assert np.all(data.y > 0)


def test_sampling_is_deterministic():
    design = pm.study_presets("study2", n=80)
    a = pm.simulate_dataset(design, np.random.default_rng(5))
    b = pm.simulate_dataset(design, np.random.default_rng(5))
    assert np.array_equal(a[0].y, b[0].y)
    assert np.array_equal(a[1], b[1])


def test_design_serialization_roundtrip():
    design = pm.study_presets("study1", phi=0.9, rho=0.85, n=120)
    text = json.dumps(asdict(design))
    study = {"mode": "simulation", "design": json.loads(text)}
    assert config_from_dict(study).design == design


def test_design_validation():
    with pytest.raises(ValueError):
        pm.SimulationDesign(n=10, beta_true=((0.0,),),
                            alpha_true=((0.0,),), reference_class=0,
                            phi=1.0)
    with pytest.raises(ValueError):
        pm.SimulationDesign(n=10, beta_true=((0.0,), (1.0,)),
                            alpha_true=((1.0,), (0.0,)),
                            reference_class=0)  # nonzero reference row
