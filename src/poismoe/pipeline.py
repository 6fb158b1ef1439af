"""Staged estimation: ML, then ridge, then Liu-type.

Each stage feeds the next: the ML fit supplies the ridge plug-in
lambdas, and the ridge fit supplies the Liu-type lambdas and the plug-in
coefficients of the bias-correction MSE. The Liu-type chain keeps its
lambdas fixed and re-optimizes d in closed form at every M-step from the
current partition.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import FitFailed
from .model import (Coefficients, Dataset, FitResult, MixtureSpec, SemOptions,
                    TuningParams, observed_loglik)
from .sem import run_sem
from .tuning import bias_corrections_for_partition, estimate_ridge_lambdas

METHODS = ("ml", "ridge", "lt")

__all__ = ["METHODS", "PipelineResult", "fit_all_methods", "fit_method",
           "bic_value", "bic_scan"]


@dataclass
class PipelineResult:
    """Fits and tuning parameters from the staged estimation."""

    ml: FitResult | None = None
    ridge: FitResult | None = None
    lt: FitResult | None = None
    tuning_ridge: TuningParams | None = None
    tuning_lt: TuningParams | None = None
    failures: dict[str, str] | None = None

    def fit_for(self, method: str) -> FitResult | None:
        return getattr(self, method)


def _stage_seed(base_seed: int, stage: int) -> int:
    return int(np.random.SeedSequence(base_seed, spawn_key=(stage,))
               .generate_state(1, np.uint64)[0])


def _make_retuner(tuning_lt: TuningParams):
    """Per-iteration d re-optimization against the current partition.

    Plug-in truth stays at the ridge anchors while the working weights
    follow the walking chain state, so the minimized MSE describes
    exactly the system the next update will solve.
    """

    def retuner(data: Dataset, part, psi_t: Coefficients,
                anchors: Coefficients) -> TuningParams:
        d_beta, d_alpha = bias_corrections_for_partition(
            data, part, anchors, tuning_lt, psi_weights=psi_t)
        return tuning_lt.with_bias_corrections(d_beta, d_alpha)

    return retuner


def fit_all_methods(data: Dataset, spec: MixtureSpec, opts: SemOptions,
                    methods: tuple[str, ...] = METHODS, *,
                    raise_on_failure: bool = True) -> PipelineResult:
    """Run the staged pipeline up to the last requested method.

    The Liu-type bias corrections are re-optimized at every M-step from
    the current stochastic partition (plug-ins stay frozen at the ridge
    estimates); a d matched to the converged ridge Gram alone can
    dominate early-iteration systems and blow the chain up.
    ``tuning_lt`` holds the plug-in lambdas from the ridge fit with zero
    d; the LT fit's own ``tuning`` holds the d its selected iteration
    used.

    With ``raise_on_failure=False`` a failed stage (and every stage that
    depends on it) is recorded in ``result.failures`` instead of
    raising, which is what the replication harness wants.
    """
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    need_ridge = "ridge" in methods or "lt" in methods
    need_lt = "lt" in methods
    result = PipelineResult(failures={})

    def fail(stage: str, exc: Exception) -> None:
        if raise_on_failure:
            raise exc
        result.failures[stage] = f"{type(exc).__name__}: {exc}"

    try:
        result.ml = run_sem(data, spec,
                            replace(opts, rng_seed=_stage_seed(opts.rng_seed, 0)),
                            method="ml")
    except FitFailed as exc:
        fail("ml", exc)
    if need_ridge and result.ml is not None:
        result.tuning_ridge = estimate_ridge_lambdas(result.ml.psi_hat,
                                                     source="ml")
        try:
            result.ridge = run_sem(
                data, spec,
                replace(opts, rng_seed=_stage_seed(opts.rng_seed, 1)),
                method="ridge", tuning=result.tuning_ridge)
        except FitFailed as exc:
            fail("ridge", exc)
    elif need_ridge:
        result.failures["ridge"] = "prerequisite ML fit failed"
    if need_lt and result.ridge is not None:
        anchors = result.ridge.psi_hat
        result.tuning_lt = estimate_ridge_lambdas(anchors, source="ridge")
        try:
            result.lt = run_sem(
                data, spec,
                replace(opts, rng_seed=_stage_seed(opts.rng_seed, 2)),
                method="lt", tuning=result.tuning_lt, anchors=anchors,
                retune=_make_retuner(result.tuning_lt))
        except FitFailed as exc:
            fail("lt", exc)
    elif need_lt:
        result.failures["lt"] = "prerequisite ridge fit failed"
    return result


def fit_method(data: Dataset, spec: MixtureSpec, opts: SemOptions,
               method: str, **kwargs) -> FitResult:
    """Fit one method, running its prerequisite stages as needed."""
    stages = {"ml": ("ml",), "ridge": ("ml", "ridge"),
              "lt": ("ml", "ridge", "lt")}
    if method not in stages:
        raise ValueError(f"unknown method {method!r}")
    result = fit_all_methods(data, spec, opts, methods=stages[method], **kwargs)
    fit = result.fit_for(method)
    assert fit is not None  # raise_on_failure=True would have raised
    return fit


def bic_value(data: Dataset, psi: Coefficients,
              loglik: float | None = None) -> float:
    """-2 loglik + k log n with k = J*p + (J-1)*q free parameters.

    The reference gating row is pinned at zero and does not count.
    """
    if loglik is None:
        loglik = observed_loglik(data, psi)
    n_components = psi.n_components
    k = n_components * psi.p + (n_components - 1) * psi.q
    return -2.0 * loglik + k * float(np.log(data.n))


def bic_scan(data: Dataset, j_max: int, opts: SemOptions, method: str = "ml",
             reference_class: int = 0) -> list[tuple[int, float, FitResult]]:
    """Fit J = 1..j_max and report (J, BIC, fit) for each."""
    rows = []
    for n_components in range(1, j_max + 1):
        spec = MixtureSpec(n_components=n_components,
                           reference_class=min(reference_class,
                                               n_components - 1))
        fit = fit_method(data, spec, opts, method)
        selected_ll = float(observed_loglik(data, fit.psi_hat))
        rows.append((n_components, bic_value(data, fit.psi_hat, selected_ll),
                     fit))
    return rows
