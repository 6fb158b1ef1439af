"""One measured process: a set-up probe or a replication study.

    python3 perfbench/worker.py setup --workload W --seed S --workdir D
    python3 perfbench/worker.py study --workload W --seed S --workdir D \
        --replicates K --trace 0|1

``setup`` prints the system-wide monotonic clock when the first
replicate is about to begin and exits; the caller started its clock
before starting the process.
``study`` runs ``run_replication_study`` with ``jobs=1`` and prints one
JSON object as its last line. Untraced, the only rebinding is a probe
on ``poismoe.replication.fit_all_methods`` that stamps each replicate's
start (one call per replicate). Traced, every layer boundary listed in
``_install_tracing`` is wrapped as well.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from tracer import Tracer
from workloads import WORKLOADS, heart_path

ROOT = Path(__file__).resolve().parent.parent
CLAMP_MESSAGE = r"\d+ Poisson mean\(s\) clamped"


def import_package():
    """Import ``poismoe`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "poismoe" / "__init__.py").is_file():
        raise SystemExit(f"no poismoe sources under {src}")
    sys.path.insert(0, str(src))
    import poismoe
    if Path(poismoe.__file__).resolve().parent != (src / "poismoe").resolve():
        raise SystemExit(f"imported poismoe from {poismoe.__file__}")
    return poismoe


def study_config(pm, workload: str, seed: int, replicates: int,
                 workdir: Path, smoke: bool):
    if workload == "heart30":
        config = pm.StudyConfig(mode="heart",
                                heart_path=str(heart_path(workdir)),
                                train_n=30, test_n=100, n_components=2,
                                replicates=replicates, jobs=1, seed=seed)
    elif workload == "study2":
        config = pm.StudyConfig(mode="simulation",
                                design=pm.study_presets("study2"),
                                replicates=replicates, jobs=1, seed=seed)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    if smoke:  # tiny chains: the smoke test checks plumbing, not speed
        config = replace(
            config,
            sem=pm.SemOptions(epsilon=1e-6, max_iters=6, burn_in=2,
                              n_restarts=1),
            truth_sem=pm.SemOptions(epsilon=1e-6, max_iters=8, burn_in=2,
                                    n_restarts=1))
    return config


class ClampCounter:
    """Counts clamp warnings from ``poisson_means`` instead of printing them.

    Every occurrence is routed here (the default filter would show each
    call site once and drop the rest); other warnings print as usual.
    """

    def __init__(self) -> None:
        self.count = 0
        self._show = warnings.showwarning
        warnings.filterwarnings("always", message=CLAMP_MESSAGE,
                                category=RuntimeWarning)
        warnings.showwarning = self._record

    def _record(self, message, category, filename, lineno, file=None,
                line=None):
        if issubclass(category, RuntimeWarning) and "clamped" in str(message):
            self.count += 1
        else:
            self._show(message, category, filename, lineno, file, line)


class ReplicateProbe:
    """Stamps replicate starts and keeps a compact record of each fit."""

    def __init__(self, replication_module) -> None:
        self.starts: list[float] = []
        self.fits: list[list[dict]] = []
        original = replication_module.fit_all_methods

        def probe(*args, **kwargs):
            self.starts.append(time.perf_counter())
            result = original(*args, **kwargs)
            self.fits.append(_fit_records(result, kwargs.get("methods")))
            return result

        probe.probed = original
        replication_module.fit_all_methods = probe


def _fit_records(result, methods) -> list[dict]:
    records = []
    for method in methods:
        fit = result.fit_for(method)
        if fit is None:
            records.append({"method": method, "ok": False,
                            "note": result.failures.get(method, "failed")})
            continue
        finite = bool(np.all(np.isfinite(fit.psi_hat.beta))
                      and np.all(np.isfinite(fit.psi_hat.alpha))
                      and fit.iterations_run > 0
                      and np.all(np.isfinite(fit.loglik_trace)))
        records.append({"method": method, "ok": True, "finite": finite,
                        "iterations": int(fit.iterations_run),
                        "converged": bool(fit.converged),
                        "failed_restarts": int(fit.n_failed_restarts)})
    return records


def run_setup_probe(args) -> int:
    pm = import_package()
    config = study_config(pm, args.workload, args.seed, 1, args.workdir,
                          args.smoke)
    ClampCounter()

    def ready(*_args, **_kwargs):
        print(repr(time.monotonic()), flush=True)
        raise SystemExit(0)

    pm.replication.fit_all_methods = ready
    pm.run_replication_study(config)
    raise SystemExit("the study finished without starting a replicate")


def run_study(args) -> int:
    pm = import_package()
    config = study_config(pm, args.workload, args.seed, args.replicates,
                          args.workdir, args.smoke)
    clamps = ClampCounter()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        fits: list[dict] = []
        _install_tracing(pm, tracer, fits)
    probe = ReplicateProbe(pm.replication)

    start = time.perf_counter()
    result = pm.run_replication_study(config)
    end = time.perf_counter()

    starts = probe.starts
    rep_s = np.diff(starts + [end]).tolist()
    payload = {
        "rep_s": rep_s,
        "prep_s": starts[0] - start,
        "study_s": end - starts[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "clamp_warnings": clamps.count,
        "fits": probe.fits,
        "summaries": [[m, b, s.M, s.L, s.U, s.n_replicates, s.n_failed]
                      for m, b, s in result.summaries],
        "scores": [[row["replicate"], row["method"], row["sqrt_mse_beta"],
                    row["sqrt_mse_alpha"], row["accuracy"]]
                   for row in result.replicate_rows],
        "wrapped": sorted(_wrapped_names(pm)),
    }
    if tracer is not None:
        tracer.unwrap_all()
        payload["layers"] = layer_metrics(tracer, fits, payload)
        payload["spans"] = tracer.as_rows()
    print(json.dumps(payload))
    return 0


# Module-level names rebound in traced mode: (module, attribute, span).
TRACE_POINTS = (
    ("replication", "fit_all_methods", "replicate"),
    ("replication", "fit_method", "replication.truth_fit"),
    ("replication", "load_heart_dataset", "heart.load"),
    ("replication", "simulate_dataset", "simulate"),
    ("replication", "align_components", "metrics.score"),
    ("replication", "sqrt_mse", "metrics.score"),
    ("replication", "classification_accuracy", "metrics.score"),
    ("pipeline", "bias_corrections_for_partition", "tuning.retune"),
    ("tuning", "lt_mse_beta", "tuning.mse"),
    ("tuning", "lt_mse_alpha", "tuning.mse"),
    ("gating", "build_gating_workspace", "gating.workspace"),
    ("gating", "q1_value", "gating.q1"),
    ("gating", "penalized_wls_solve", "linalg.solve"),
    ("poisson", "penalized_wls_solve", "linalg.solve"),
    ("sem", "observed_loglik", "model.loglik"),
    ("sem", "e_step", "sem.e_step"),
    ("sem", "s_step", "sem.s_step"),
    ("sem", "irwls_beta_step", "poisson.beta_step"),
    ("sem", "build_workspace", "poisson.workspace"),
)


def _install_tracing(pm, tracer: Tracer, fits: list[dict]) -> None:
    modules = {name: getattr(pm, name) for name in
               ("replication", "pipeline", "tuning", "gating", "poisson",
                "sem")}
    for module, attr, span in TRACE_POINTS:
        tracer.wrap(modules[module], attr, span)

    def stage_name(*args, **kwargs):
        return f"pipeline.{kwargs.get('method', 'ml')}"

    def on_fit(frame, args, kwargs, result, error):
        opts = args[2] if len(args) > 2 else kwargs["opts"]
        if result is not None:
            fits.append({"root": frame.root, "ok": True,
                         "converged": bool(result.converged),
                         "failed_restarts": int(result.n_failed_restarts)})
        elif isinstance(error, pm.FitFailed):
            fits.append({"root": frame.root, "ok": False, "converged": False,
                         "failed_restarts": int(opts.n_restarts)})

    tracer.wrap(modules["pipeline"], "run_sem", stage_name, observe=on_fit)

    def on_cd(frame, args, kwargs, result, error):
        free = np.asarray(args[1]).shape[0] - 1
        sweeps = tracer.delta(frame, "gating.workspace") / max(free, 1)
        cap = kwargs.get("inner_max", 50)
        tracer.samples[f"sweeps:{frame.root}"].append(sweeps)
        tracer.samples[f"cap_hit:{frame.root}"].append(float(sweeps >= cap))

    tracer.wrap(modules["sem"], "coordinate_descent_alphas", "gating.cd",
                observe=on_cd, snapshot=True)

    def on_optimize(frame, args, kwargs, result, error):
        evals = tracer.delta(frame, "tuning.mse")
        tracer.samples[f"fallback:{frame.root}"].append(float(evals > 3))

    tracer.wrap(modules["tuning"], "optimize_bias_correction",
                "tuning.optimize", observe=on_optimize, snapshot=True)


def _wrapped_names(pm) -> set[str]:
    """Which traced names are currently rebound (should be none untraced)."""
    names = set()
    for module, attr, _ in TRACE_POINTS + (
            ("pipeline", "run_sem", ""),
            ("sem", "coordinate_descent_alphas", ""),
            ("tuning", "optimize_bias_correction", "")):
        function = getattr(getattr(pm, module), attr)
        function = getattr(function, "probed", function)
        if hasattr(function, "__wrapped__"):
            names.add(f"{module}.{attr}")
    return names


def layer_metrics(tracer: Tracer, fits: list[dict], payload: dict) -> dict:
    """Per-layer figures over the replicates (truth fit reported apart)."""
    def span(name):
        return tracer.total(name, root="replicate")

    def share(values):
        return float(np.mean(values)) if values else 0.0

    rep_fits = [f for f in fits if f["root"] == "replicate"]
    ok_fits = [f for f in rep_fits if f["ok"]]
    iterations = span("sem.e_step").calls
    stages = [span(f"pipeline.{m}") for m in ("ml", "ridge", "lt")]
    workspaces = span("gating.workspace").calls
    solves = span("linalg.solve")
    fits_s = tracer.total("replicate").total_s
    score_s = tracer.total("metrics.score").total_s
    return {
        "gating.cd_s": (span("gating.cd").total_s, "s"),
        "gating.cd_calls": (span("gating.cd").calls, "count"),
        "gating.sweeps_p50": (float(np.median(
            tracer.samples["sweeps:replicate"] or [0.0])), "count"),
        "gating.cap_hit_frac": (share(tracer.samples["cap_hit:replicate"]),
                                "fraction"),
        "gating.q1_evals_per_update": (
            span("gating.q1").calls / max(workspaces, 1), "ratio"),
        "tuning.retune_s": (span("tuning.retune").total_s, "s"),
        "tuning.retune_calls": (span("tuning.retune").calls, "count"),
        "tuning.mse_evals": (span("tuning.mse").calls, "count"),
        "tuning.grid_fallback_frac": (
            share(tracer.samples["fallback:replicate"]), "fraction"),
        "model.loglik_s": (span("model.loglik").total_s, "s"),
        "model.loglik_calls": (span("model.loglik").calls, "count"),
        "sem.e_step_s": (span("sem.e_step").total_s, "s"),
        "sem.s_step_s": (span("sem.s_step").total_s, "s"),
        "sem.iterations": (iterations, "count"),
        "sem.iter_ms": (1e3 * sum(s.total_s for s in stages)
                        / max(iterations, 1), "ms"),
        "sem.restarts_failed": (sum(f["failed_restarts"] for f in rep_fits),
                                "count"),
        "sem.converged_frac": (share([float(f["converged"])
                                      for f in ok_fits]), "fraction"),
        "poisson.beta_step_s": (span("poisson.beta_step").total_s, "s"),
        "poisson.workspace_s": (span("poisson.workspace").total_s, "s"),
        "poisson.clamp_warnings": (payload["clamp_warnings"], "count"),
        "linalg.solves": (solves.calls, "count"),
        "linalg.solve_us": (1e6 * solves.total_s / max(solves.calls, 1),
                            "us"),
        "pipeline.ml_s": (stages[0].total_s, "s"),
        "pipeline.ridge_s": (stages[1].total_s, "s"),
        "pipeline.lt_s": (stages[2].total_s, "s"),
        "replication.prep_s": (payload["prep_s"], "s"),
        "replication.inputs_s": (payload["study_s"] - fits_s - score_s, "s"),
        "metrics.score_s": (score_s, "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "study"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--replicates", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        return run_setup_probe(args)
    return run_study(args)


if __name__ == "__main__":
    sys.exit(main())
