"""Staged estimation: ML, then ridge, then Liu-type.

Each stage feeds the next: the ML fit supplies the ridge plug-in
lambdas, and the ridge fit supplies the Liu-type lambdas and the plug-in
coefficients of the bias-correction MSE. The Liu-type chain keeps its
lambdas fixed and re-optimizes d in closed form at every M-step from the
current partition, within [0, lambda_min(S)]; each of its updates
shrinks the ridge update of the same systems by S^-1 (S - d I).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import PoismoeError
from .gating import gating_probabilities
from .model import (Coefficients, Dataset, FitResult, MixtureSpec,
                    SemOptions, TuningParams, observed_loglik)
from .poisson import poisson_means
from .sem import run_sem
from .tuning import bias_corrections_for_partition, estimate_ridge_lambdas

METHODS = ("ml", "ridge", "lt")

__all__ = ["METHODS", "PipelineResult", "spawn_seed", "fit_all_methods",
           "fit_method", "bic_value", "bic_scan"]


@dataclass
class PipelineResult:
    """Fits of the staged estimation, and why each missing one failed."""

    ml: FitResult | None = None
    ridge: FitResult | None = None
    lt: FitResult | None = None
    failures: dict[str, str] = field(default_factory=dict)

    def fit_for(self, method: str) -> FitResult | None:
        return getattr(self, method)


def spawn_seed(seed: int, *key: int) -> int:
    """The integer seed ``SeedSequence(seed, spawn_key=key)`` gives: the
    independent stream of stage, replicate or truth fit ``key``."""
    return int(np.random.SeedSequence(seed, spawn_key=key)
               .generate_state(1, np.uint64)[0])


def _make_retuner(data: Dataset, tuning_lt: TuningParams,
                  anchors: Coefficients):
    """Retuner for ``run_sem`` on ``data``: d fit per M-step.

    ``retuner(workspace, log_pi)`` is
    :func:`~poismoe.tuning.bias_corrections_for_partition` under the
    lambdas of ``tuning_lt``, with the ridge ``anchors`` as plug-in truth,
    whose means and gate probabilities are computed once per fit; it
    returns ``(d_beta, d_alpha)``, each (B, J), for a batch of chains.
    """
    return partial(bias_corrections_for_partition, data, tuning=tuning_lt,
                   anchors=anchors,
                   anchor_means=poisson_means(data.X, anchors.beta),
                   anchor_pi=gating_probabilities(data.Omega,
                                                  anchors.alpha).T)


def fit_all_methods(data: Dataset, spec: MixtureSpec, opts: SemOptions,
                    methods: tuple[str, ...] = METHODS, *,
                    raise_on_failure: bool = True) -> PipelineResult:
    """Run the stages of ``METHODS`` in order, up to the last requested one.

    Stage k's chains are seeded from ``opts.rng_seed`` and k. Each stage
    after ML takes its ridge lambdas from the previous stage's fit
    (``estimate_ridge_lambdas``); the Liu-type stage also re-optimizes
    its bias corrections at every M-step from the current stochastic
    partition, with the ridge fit as plug-in truth, since a d matched to
    the converged ridge Gram alone can dominate early-iteration systems
    and blow the chain up. The LT fit's ``tuning`` holds the d its
    selected iteration used.

    With ``raise_on_failure=False`` a failed stage, and every stage
    after it, is recorded in ``result.failures`` instead of raising,
    which is what the replication harness wants. Any ``PoismoeError`` of
    a stage, its set-up included (ridge anchors whose means overflow),
    fails it. Its entry is the error's type and message, for
    ``FitFailed`` followed by each restart's reason, joined by `` | ``.
    """
    if not methods:
        raise ValueError(f"methods must name at least one of {list(METHODS)}")
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    last = max(METHODS.index(method) for method in methods)
    result = PipelineResult()
    for stage, method in enumerate(METHODS[:last + 1]):
        tuning = retune = plugin = None
        if stage > 0:
            source = METHODS[stage - 1]
            plugin = result.fit_for(source)
            if plugin is None:
                label = "ML" if source == "ml" else source
                result.failures[method] = f"prerequisite {label} fit failed"
                continue
        stage_opts = replace(opts, rng_seed=spawn_seed(opts.rng_seed, stage))
        try:
            if plugin is not None:
                tuning = estimate_ridge_lambdas(plugin.psi_hat, source=source)
                if method == "lt":
                    retune = _make_retuner(data, tuning, plugin.psi_hat)
            setattr(result, method, run_sem(data, spec, stage_opts,
                                            method=method, tuning=tuning,
                                            retune=retune))
        except PoismoeError as exc:
            if raise_on_failure:
                raise
            result.failures[method] = " | ".join(
                [f"{type(exc).__name__}: {exc}",
                 *getattr(exc, "diagnostics", ())])
    return result


def fit_method(data: Dataset, spec: MixtureSpec, opts: SemOptions,
               method: str) -> FitResult:
    """Fit one method, running its prerequisite stages as needed."""
    result = fit_all_methods(data, spec, opts, methods=(method,))
    fit = result.fit_for(method)
    assert fit is not None  # raise_on_failure=True would have raised
    return fit


def bic_value(data: Dataset, psi: Coefficients) -> float:
    """-2 loglik + k log n with k = J*p + (J-1)*q free parameters.

    The reference gating row is pinned at zero and does not count.
    """
    n_components = psi.n_components
    k = n_components * psi.p + (n_components - 1) * psi.q
    return -2.0 * observed_loglik(data, psi) + k * float(np.log(data.n))


def bic_scan(data: Dataset, j_max: int, opts: SemOptions, method: str = "ml",
             reference_class: int = 0) -> list[tuple[int, float, FitResult]]:
    """Fit J = 1..j_max and report (J, BIC, fit) for each; a J with no
    class ``reference_class`` takes its last class, J - 1, as reference."""
    if j_max < 1:
        raise ValueError(f"j_max must be at least 1, not {j_max}")
    MixtureSpec(j_max, reference_class)  # refuses one past the largest J
    rows = []
    for n_components in range(1, j_max + 1):
        spec = MixtureSpec(n_components=n_components,
                           reference_class=min(reference_class,
                                               n_components - 1))
        fit = fit_method(data, spec, opts, method)
        rows.append((n_components, bic_value(data, fit.psi_hat), fit))
    return rows
