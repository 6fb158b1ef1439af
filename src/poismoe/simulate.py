"""Synthetic data generation with controlled multicollinearity.

Covariates load on a shared latent factor: column l is
``m * u_l + load * u_shared`` with iid standard normal draws, where
``load`` is phi for the first two covariates and rho for the rest (a
single rho for two-covariate designs). The displayed multiplier
``m = 1 - load^2`` is the default (``paper_linear``); the
``sqrt_convention`` form uses ``m = sqrt(1 - load^2)``, which makes the
population correlation between same-loading columns exactly ``load^2``.
Responses are drawn componentwise: a class label from the gating
probabilities, then a Poisson count with mean exp(x' beta_class).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .gating import gating_probabilities
from .model import Coefficients, Dataset, check_fields, draw_labels

# Rows whose sampled-component linear predictor exceeds this cap are
# redrawn so the Poisson means stay representable at desk scale.
MEAN_PREDICTOR_CAP = 30.0

STUDY1_CORRELATIONS = ((0.85, 0.90), (0.85, 0.95), (0.90, 0.90), (0.90, 0.95))
STUDY1_SAMPLE_SIZES = (100, 200)
STUDY2_CORRELATIONS = (0.90, 0.95)
STUDY2_SAMPLE_SIZE = 300
VALIDATION_SIZE = 100

_STUDY1_BETA = ((1.0, 1.0, 2.0, 3.0, 0.5),
                (-1.0, -1.0, -2.0, -0.5, -2.0))
_STUDY1_ALPHA = ((0.5, -1.0, -1.0, 0.3, -3.0),
                 (0.0, 0.0, 0.0, 0.0, 0.0))
_STUDY2_BETA = ((0.85, -1.0, 2.0), (1.0, 0.5, 1.0), (-2.0, 2.0, -2.0))
_STUDY2_ALPHA = ((0.5, -1.0, -1.0), (0.1, 1.0, 0.05), (0.0, 0.0, 0.0))

__all__ = [
    "MEAN_PREDICTOR_CAP", "STUDY1_CORRELATIONS", "STUDY1_SAMPLE_SIZES",
    "STUDY2_CORRELATIONS", "STUDY2_SAMPLE_SIZE", "VALIDATION_SIZE",
    "SimulationDesign", "simulate_dataset", "study_presets",
]


@dataclass(frozen=True)
class SimulationDesign:
    """True coefficients plus the collinearity controls for one scenario."""

    n: int
    beta_true: tuple[tuple[float, ...], ...]
    alpha_true: tuple[tuple[float, ...], ...]
    reference_class: int
    phi: float = 0.0
    rho: float = 0.0
    collinearity_form: str = "paper_linear"

    def __post_init__(self) -> None:
        check_fields(self)
        if self.n < 1:
            raise ValueError("n must be positive")
        if not (0.0 <= self.phi < 1.0 and 0.0 <= self.rho < 1.0):
            raise ValueError("phi and rho must lie in [0, 1)")
        if self.collinearity_form not in ("paper_linear", "sqrt_convention"):
            raise ValueError(f"unknown form {self.collinearity_form!r}")
        self.truth()  # validates shapes and the zero reference row

    @property
    def n_components(self) -> int:
        return len(self.beta_true)

    @property
    def p(self) -> int:
        return len(self.beta_true[0])

    @property
    def q(self) -> int:
        return len(self.alpha_true[0])

    def truth(self) -> Coefficients:
        return Coefficients(beta=np.asarray(self.beta_true, dtype=float),
                            alpha=np.asarray(self.alpha_true, dtype=float),
                            reference_class=self.reference_class)


def _loadings(design: SimulationDesign, n_covariates: int) -> list[float]:
    if n_covariates <= 2:
        return [design.rho] * n_covariates
    return [design.phi, design.phi] + [design.rho] * (n_covariates - 2)


def _design_matrix(design: SimulationDesign, n_covariates: int, n_rows: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Intercept column plus factor-correlated standard-normal covariates."""
    u = rng.standard_normal((n_rows, n_covariates + 1))
    shared = u[:, n_covariates]
    columns = [np.ones(n_rows)]
    for idx, load in enumerate(_loadings(design, n_covariates)):
        mult = 1.0 - load * load
        if design.collinearity_form == "sqrt_convention":
            mult = float(np.sqrt(mult))
        columns.append(mult * u[:, idx] + load * shared)
    return np.column_stack(columns)


def simulate_dataset(design: SimulationDesign,
                     rng: np.random.Generator) -> tuple[Dataset, np.ndarray]:
    """Draw one sample of ``design``; return it with its true labels.

    The regressors and concomitants get independent shared factors;
    labels come from the gating model, then Poisson counts per label.
    Rows whose sampled component would exceed the mean-predictor cap get
    a fresh covariate row (the label depends on Omega and is kept).
    """
    truth = design.truth()
    X = _design_matrix(design, design.p - 1, design.n, rng)
    Omega = _design_matrix(design, design.q - 1, design.n, rng)
    z = draw_labels(gating_probabilities(Omega, truth.alpha), rng)
    beta = truth.beta
    eta = np.einsum("ij,ij->i", X, beta[z])
    for i in np.flatnonzero(eta > MEAN_PREDICTOR_CAP):
        for _ in range(1000):
            X[i] = _design_matrix(design, design.p - 1, 1, rng)[0]
            eta[i] = X[i] @ beta[z[i]]
            if eta[i] <= MEAN_PREDICTOR_CAP:
                break
        else:
            raise NumericalFailure("could not draw a covariate row with a "
                                   "representable Poisson mean")
    y = rng.poisson(np.exp(eta))
    return Dataset(y=y, X=X, Omega=Omega), z


def study_presets(which: str, *, phi: float | None = None,
                  rho: float | None = None, n: int | None = None,
                  collinearity_form: str = "paper_linear") -> SimulationDesign:
    """The two built-in scenarios.

    ``study1``: two components, four collinear covariates each for the
    regressions and the gating, second class as reference. ``study2``:
    three components, two covariates sharing a single correlation
    parameter, third class as reference. ``phi``/``rho``/``n`` override
    the scenario defaults so any table cell is runnable.
    """
    if which == "study1":
        return SimulationDesign(
            n=n if n is not None else STUDY1_SAMPLE_SIZES[0],
            beta_true=_STUDY1_BETA, alpha_true=_STUDY1_ALPHA,
            reference_class=1,
            phi=phi if phi is not None else STUDY1_CORRELATIONS[0][0],
            rho=rho if rho is not None else STUDY1_CORRELATIONS[0][1],
            collinearity_form=collinearity_form)
    if which == "study2":
        rho = rho if rho is not None else STUDY2_CORRELATIONS[0]
        if phi is not None and phi != rho:
            raise ValueError("study2 uses a single correlation; set rho only")
        return SimulationDesign(
            n=n if n is not None else STUDY2_SAMPLE_SIZE,
            beta_true=_STUDY2_BETA, alpha_true=_STUDY2_ALPHA,
            reference_class=2, phi=rho, rho=rho,
            collinearity_form=collinearity_form)
    raise ValueError(f"unknown preset {which!r}")

