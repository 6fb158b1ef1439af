import numpy as np
import pytest

import poismoe as pm
from poismoe.errors import SummaryUndefined

from conftest import small_mixture


def make_psis(seed=0, n_components=3, p=4, q=2):
    gen = np.random.default_rng(seed)
    beta = gen.normal(size=(n_components, p)) * 2.0
    alpha = gen.normal(size=(n_components, q))
    alpha[0] = 0.0
    return pm.Coefficients(beta=beta, alpha=alpha, reference_class=0)


def test_align_identity_and_swap():
    truth = make_psis(seed=1)
    assert pm.align_components(truth, truth) == (0, 1, 2)
    swapped = truth.permute((1, 0, 2))
    assert pm.align_components(swapped, truth) == (1, 0, 2)
    # Ties keep the lexicographically smallest permutation.
    twins = pm.Coefficients(beta=np.ones((2, 3)), alpha=np.zeros((2, 1)))
    assert pm.align_components(twins, twins) == (0, 1)


def test_align_recovers_permutation_after_noise():
    truth = make_psis(seed=2)
    gen = np.random.default_rng(3)
    for order in ((2, 0, 1), (1, 2, 0), (0, 2, 1)):
        noisy = pm.Coefficients(
            beta=truth.beta[list(order)] + gen.normal(scale=0.05,
                                                      size=truth.beta.shape),
            alpha=np.zeros_like(np.asarray(truth.alpha)),
            reference_class=0)
        recovered = pm.align_components(noisy, truth)
        assert tuple(np.asarray(order)[list(recovered)]) == (0, 1, 2)


def test_align_matches_greedy_matcher_on_separated_components():
    gen = np.random.default_rng(4)
    beta = np.array([[0.0, 0.0], [10.0, 10.0], [-10.0, 5.0]])
    truth = pm.Coefficients(beta=beta, alpha=np.zeros((3, 1)))
    noisy_beta = beta[[2, 0, 1]] + gen.normal(scale=0.1, size=beta.shape)
    noisy = pm.Coefficients(beta=noisy_beta, alpha=np.zeros((3, 1)))
    exhaustive = pm.align_components(noisy, truth)
    # greedy matcher: repeatedly take the closest (estimate, truth) pair
    remaining_est = set(range(3))
    greedy = [None] * 3
    for j in range(3):
        costs = {k: float(np.sum((noisy_beta[k] - beta[j]) ** 2))
                 for k in remaining_est}
        pick = min(costs, key=costs.get)
        greedy[j] = pick
        remaining_est.remove(pick)
    assert exhaustive == tuple(greedy)


def test_sqrt_mse_zero_for_exact_match():
    truth = make_psis(seed=5)
    assert pm.sqrt_mse(truth, truth, "beta", 50) == 0.0


def test_sqrt_mse_arithmetic():
    truth = pm.Coefficients(beta=np.zeros((1, 2)), alpha=np.zeros((1, 1)))
    estimate = pm.Coefficients(beta=np.array([[3.0, 4.0]]),
                               alpha=np.zeros((1, 1)))
    assert pm.sqrt_mse(estimate, truth, "beta", 25) == pytest.approx(1.0,
                                                                     abs=0)


def test_sqrt_mse_matches_double_loop_oracle():
    a, b = make_psis(seed=6), make_psis(seed=7)
    total = 0.0
    for j in range(a.n_components):
        for k in range(a.p):
            total += (a.beta[j, k] - b.beta[j, k]) ** 2
    expected = (total / 40) ** 0.5
    assert pm.sqrt_mse(a, b, "beta", 40) == pytest.approx(expected, rel=1e-14)


def test_accuracy_is_one_for_degenerate_memberships():
    data, _, _ = small_mixture(seed=8, n=100)
    psi = pm.Coefficients(beta=np.vstack([np.zeros(data.p),
                                          np.zeros(data.p)]),
                          alpha=np.vstack([np.zeros(data.q),
                                           np.r_[-50.0,
                                                 np.zeros(data.q - 1)]]),
                          reference_class=0)
    z_true = np.zeros(data.n, dtype=int)  # gating puts all mass on class 0
    assert pm.classification_accuracy(psi, data, z_true) == 1.0


def test_accuracy_near_half_for_independent_labels():
    data, truth, _ = small_mixture(seed=9, n=50)
    gen = np.random.default_rng(10)
    values = []
    for _ in range(200):
        labels = gen.integers(0, 2, size=data.n)
        values.append(pm.classification_accuracy(truth, data, labels))
    assert abs(np.mean(values) - 0.5) < 0.03


def test_accuracy_invariant_to_relabeled_fit():
    data, truth, z = small_mixture(seed=11, n=80)
    gen = np.random.default_rng(12)
    estimate = pm.Coefficients(
        beta=truth.beta + gen.normal(scale=0.1, size=truth.beta.shape),
        alpha=truth.alpha, reference_class=truth.reference_class)

    def aligned(psi):
        return psi.permute(pm.align_components(psi, truth))

    base = pm.classification_accuracy(aligned(estimate), data, z)
    relabeled = aligned(estimate.permute((1, 0)))
    assert pm.classification_accuracy(relabeled, data, z) == base


def test_summary_type7_order_statistics():
    summary = pm.summarize_replicates(np.arange(1, 2001, dtype=float),
                                      metric="beta")
    assert summary.M == pytest.approx(1000.5, abs=1e-9)
    assert summary.L == pytest.approx(100.95, abs=1e-9)
    assert summary.U == pytest.approx(1900.05, abs=1e-9)
    assert summary.n_replicates == 2000


def test_summary_constant_and_singleton():
    const = pm.summarize_replicates([2.5] * 7)
    assert const.L == const.M == const.U == 2.5
    single = pm.summarize_replicates([4.0])
    assert (single.L, single.M, single.U) == (4.0, 4.0, 4.0)


def test_summary_counts_nonfinite_as_failures():
    summary = pm.summarize_replicates([1.0, np.nan, 2.0, np.inf])
    assert summary.n_replicates == 2
    assert summary.n_failed == 2


def test_summary_upper_bound_monotone():
    values = list(np.linspace(0.0, 1.0, 40))
    base = pm.summarize_replicates(values)
    grown = pm.summarize_replicates(values + [50.0])
    assert grown.U >= base.U


def test_summary_empty_raises():
    with pytest.raises(SummaryUndefined):
        pm.summarize_replicates([])
    with pytest.raises(SummaryUndefined):
        pm.summarize_replicates([np.nan])


def test_summary_csv_layout(tmp_path):
    rows = [("ml", "beta", pm.summarize_replicates([1.0, 2.0, 3.0])),
            ("lt", "accuracy", pm.summarize_replicates([0.5, 0.75]))]
    path = tmp_path / "summary.csv"
    pm.write_summary_csv(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "method,parameter_block,M,L,U,n_replicates,n_failed"
    assert lines[1].startswith("ml,beta,2.0,")
    assert len(lines) == 3
