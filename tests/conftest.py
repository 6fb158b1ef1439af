"""Shared builders for small synthetic problems."""
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from poismoe import Coefficients, Dataset

# tools/ is not a package: tests import its modules by name.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

# Property tests replay the same examples on every run (no example
# database, no wall-clock deadline) so a slow machine cannot flake them.
settings.register_profile("poismoe", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("poismoe")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def small_mixture(seed=0, n=60, p=3, q=2, n_components=2, beta_scale=0.4,
                  alpha_scale=0.6):
    """A tame random mixture problem: data, truth and the true labels,
    the partition an M-step takes."""
    gen = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), gen.normal(size=(n, p - 1))])
    Omega = np.column_stack([np.ones(n), gen.normal(size=(n, q - 1))])
    beta = gen.normal(scale=beta_scale, size=(n_components, p))
    alpha = gen.normal(scale=alpha_scale, size=(n_components, q))
    alpha[0] = 0.0
    truth = Coefficients(beta=beta, alpha=alpha, reference_class=0)
    scores = Omega @ alpha.T
    pi = np.exp(scores - scores.max(axis=1, keepdims=True))
    pi /= pi.sum(axis=1, keepdims=True)
    z = (gen.random(n)[:, None] > np.cumsum(pi, axis=1)).sum(axis=1)
    z = np.minimum(z, n_components - 1)
    y = gen.poisson(np.exp(np.einsum("ij,ij->i", X, beta[z])))
    return Dataset(y=y, X=X, Omega=Omega), truth, z


def single_component_data(seed=5, n=50):
    """Poisson regression data with one component (n x 2 design)."""
    gen = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), gen.normal(size=n)])
    beta = np.array([0.4, 0.7])
    y = gen.poisson(np.exp(X @ beta))
    data = Dataset(y=y, X=X, Omega=np.ones((n, 1)))
    return data, np.zeros(n, dtype=np.int64), beta


def write_heart_population(path, rows=80, seed=0):
    """A Cleveland "processed"-format file: two latent groups whose stage
    is a Poisson count in ST depression and slope, capped at 4."""
    gen = np.random.default_rng(seed)
    lines = []
    for _ in range(rows):
        sick = gen.random() < 0.45
        oldpeak = round(float(gen.gamma(2.5 if sick else 1.2, 0.7)), 1)
        slope = int(gen.integers(1, 4))
        eta = (-0.4 + 0.25 * oldpeak + 0.15 * slope if sick
               else -1.6 + 0.15 * oldpeak + 0.1 * slope)
        stage = min(4, int(gen.poisson(np.exp(eta))))
        lines.append(",".join(["63.0", "1.0", "1.0", "145.0", "233.0",
                               "1.0", "2.0", "150.0", "0.0", str(oldpeak),
                               f"{slope}.0", "0.0", "6.0", str(stage)]))
    path.write_text("\n".join(lines) + "\n")
    return path
