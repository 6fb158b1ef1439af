"""Command-line interface.

Subcommands: ``fit`` (single dataset from a CSV file, optional BIC scan
over the number of components), ``simulate`` (replicated synthetic
study from a preset), ``replicate`` (study from a JSON config file),
and ``heart`` (replicated subsampling study on the Cleveland file).
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import DataFormatError, FitFailed, PoismoeError
from .heart import load_heart_dataset
from .model import Dataset, FitResult, MixtureSpec, SemOptions, observed_loglik
from .pipeline import bic_scan, bic_value, fit_method
from .replication import (StudyConfig, default_study_options, load_config,
                          run_replication_study, save_config)
from .simulate import study_presets

FAILURE_EXIT = 1
HIGH_FAILURE_EXIT = 2


def _add_sem_arguments(parser: argparse.ArgumentParser,
                       defaults: SemOptions) -> None:
    parser.add_argument("--epsilon", type=float, default=defaults.epsilon,
                        help="log-likelihood change stopping threshold")
    parser.add_argument("--max-iters", type=int, default=defaults.max_iters)
    parser.add_argument("--burn-in", type=int, default=defaults.burn_in)
    parser.add_argument("--restarts", type=int, default=defaults.n_restarts)
    parser.add_argument("--selection", default=defaults.estimate_selection,
                        choices=["best_loglik", "post_burnin_mean"])


def _sem_options(args: argparse.Namespace, defaults: SemOptions) -> SemOptions:
    return replace(defaults, epsilon=args.epsilon, max_iters=args.max_iters,
                   burn_in=args.burn_in, n_restarts=args.restarts,
                   estimate_selection=args.selection)


def _read_table(path: str, response: str, x_cols: list[str],
                omega_cols: list[str]) -> Dataset:
    """Headered CSV -> Dataset with an intercept column prepended."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise DataFormatError("file is empty")
        positions = {name.strip(): i for i, name in enumerate(header)}
        wanted = [response] + x_cols + omega_cols
        missing = [c for c in wanted if c not in positions]
        if missing:
            raise DataFormatError(f"missing column(s): {', '.join(missing)}")
        y, X, Omega = [], [], []
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataFormatError(
                    f"expected {len(header)} columns, found {len(row)}",
                    line_number)
            try:
                values = {c: float(row[positions[c]]) for c in wanted}
            except ValueError as exc:
                raise DataFormatError(f"unparseable value: {exc}",
                                      line_number) from exc
            count = values[response]
            if count < 0 or not float(count).is_integer():
                raise DataFormatError(
                    f"response must be a nonnegative integer, got {count}",
                    line_number)
            bad = [c for c in x_cols + omega_cols if not math.isfinite(values[c])]
            if bad:
                raise DataFormatError(
                    f"non-finite covariate value(s) in {', '.join(bad)}",
                    line_number)
            y.append(int(count))
            X.append([1.0] + [values[c] for c in x_cols])
            Omega.append([1.0] + [values[c] for c in omega_cols])
    if not y:
        raise DataFormatError("no data rows found")
    return Dataset(y=np.asarray(y), X=np.asarray(X), Omega=np.asarray(Omega))


def _fit_payload(data: Dataset, fit: FitResult) -> dict:
    payload = {
        "method": fit.method,
        "n": data.n,
        "beta": fit.psi_hat.beta.tolist(),
        "alpha": fit.psi_hat.alpha.tolist(),
        "reference_class": fit.psi_hat.reference_class,
        "loglik_trace": fit.loglik_trace.tolist(),
        "loglik": observed_loglik(data, fit.psi_hat),
        "converged": fit.converged,
        "iterations_run": fit.iterations_run,
        "selected_iteration": fit.selected_iteration,
        "n_failed_restarts": fit.n_failed_restarts,
        "restart_ends": list(fit.restart_ends),
        "bic": bic_value(data, fit.psi_hat),
    }
    if fit.tuning is not None:
        payload["tuning"] = {
            "lambda_beta": fit.tuning.lambda_beta.tolist(),
            "lambda_alpha": fit.tuning.lambda_alpha.tolist(),
            "d_beta": fit.tuning.d_beta.tolist(),
            "d_alpha": fit.tuning.d_alpha.tolist(),
            "source": fit.tuning.source,
        }
    return payload


def _cmd_fit(args: argparse.Namespace) -> int:
    columns = [[name.strip() for name in names.split(",")]
               for names in (args.x, args.omega)]  # as the header's names
    data = _read_table(args.data, args.response.strip(), *columns)
    opts = replace(_sem_options(args, SemOptions()), rng_seed=args.seed)
    files = {}  # written only once every fit has succeeded
    if args.bic_scan is not None:
        rows = bic_scan(data, args.bic_scan, opts, method=args.method,
                        reference_class=args.reference)
        best_j, _, fit = min(rows, key=lambda r: r[1])
        files["bic_scan.json"] = {"criterion": "bic",
                                  "scan": [{"components": j, "bic": b}
                                           for j, b, _ in rows],
                                  "selected_components": best_j}
        print(f"BIC selected {best_j} component(s)")
    else:
        spec = MixtureSpec(n_components=args.components,
                           reference_class=args.reference)
        fit = fit_method(data, spec, opts, args.method)
    payload = files["fit.json"] = _fit_payload(data, fit)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        (out / name).write_text(
            json.dumps(content, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out / 'fit.json'} (loglik {payload['loglik']:.4f}, "
          f"converged={fit.converged})")
    return 0


def _finish_study(config: StudyConfig) -> int:
    result = run_replication_study(config)
    for method, block, summary in result.summaries:
        print(f"{method:>6s} {block:<9s} M={summary.M:.4g} "
              f"L={summary.L:.4g} U={summary.U:.4g} "
              f"failed={summary.n_failed}")
    if result.summary_path is not None:
        print(f"wrote {result.summary_path}")
    if result.failure_fraction > 0.5:
        print(f"error: {result.failure_fraction:.0%} of replicates failed "
              "for at least one method", file=sys.stderr)
        return HIGH_FAILURE_EXIT
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    design = study_presets(args.preset, phi=args.phi, rho=args.rho, n=args.n,
                           collinearity_form=args.collinearity_form)
    config = StudyConfig(
        mode="simulation", design=design, validation_n=args.validation_n,
        replicates=args.replicates, jobs=args.jobs, seed=args.seed,
        sem=_sem_options(args, default_study_options()),
        output_dir=args.out)
    if args.save_config:
        save_config(config, args.save_config)
    return _finish_study(config)


def _cmd_replicate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.out is not None:
        config = replace(config, output_dir=args.out)
    if args.jobs is not None:
        config = replace(config, jobs=args.jobs)
    return _finish_study(config)


def _cmd_heart(args: argparse.Namespace) -> int:
    full = load_heart_dataset(args.data)
    correlation = float(np.corrcoef(full.X[:, 1], full.X[:, 2])[0, 1])
    print(f"loaded {full.n} complete rows; "
          f"cor(ST depression, ST slope) = {correlation:.4f}")
    config = StudyConfig(
        mode="heart", heart_path=args.data, train_n=args.train_n,
        test_n=args.test_n, n_components=args.components,
        replicates=args.replicates, jobs=args.jobs, seed=args.seed,
        sem=_sem_options(args, default_study_options()),
        output_dir=args.out)
    return _finish_study(config)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poismoe",
        description="Mixture of Poisson regressions with a gating network: "
                    "ML, ridge, and Liu-type estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit one dataset from a CSV file")
    fit.add_argument("--data", required=True)
    fit.add_argument("--response", required=True)
    fit.add_argument("--x", required=True,
                     help="comma-separated regressor columns")
    fit.add_argument("--omega", required=True,
                     help="comma-separated concomitant columns")
    fit.add_argument("--method", default="ml", choices=["ml", "ridge", "lt"])
    fit.add_argument("--components", type=int, default=2)
    fit.add_argument("--reference", type=int, default=0,
                     help="reference gating class (0-based); with "
                          "--bic-scan, a J with fewer classes takes J - 1")
    fit.add_argument("--bic-scan", type=int, default=None, metavar="J_MAX")
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--out", required=True)
    _add_sem_arguments(fit, SemOptions())
    fit.set_defaults(handler=_cmd_fit)

    sim = sub.add_parser("simulate", help="replicated synthetic study")
    sim.add_argument("--preset", required=True, choices=["study1", "study2"])
    sim.add_argument("--phi", type=float, default=None)
    sim.add_argument("--rho", type=float, default=None)
    sim.add_argument("--n", type=int, default=None)
    sim.add_argument("--validation-n", type=int, default=100)
    sim.add_argument("--collinearity-form", default="paper_linear",
                     choices=["paper_linear", "sqrt_convention"])
    sim.add_argument("--replicates", type=int, default=200)
    sim.add_argument("--jobs", type=int, default=1)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", default=None)
    sim.add_argument("--save-config", default=None,
                     help="also write the study config as JSON")
    _add_sem_arguments(sim, default_study_options())
    sim.set_defaults(handler=_cmd_simulate)

    rep = sub.add_parser("replicate", help="study from a JSON config file")
    rep.add_argument("--config", required=True)
    rep.add_argument("--out", default=None)
    rep.add_argument("--jobs", type=int, default=None)
    rep.set_defaults(handler=_cmd_replicate)

    heart = sub.add_parser("heart", help="replicated heart-disease study")
    heart.add_argument("--data", required=True)
    heart.add_argument("--train-n", type=int, default=30)
    heart.add_argument("--test-n", type=int, default=100)
    heart.add_argument("--components", type=int, default=2)
    heart.add_argument("--replicates", type=int, default=200)
    heart.add_argument("--jobs", type=int, default=1)
    heart.add_argument("--seed", type=int, default=0)
    heart.add_argument("--out", default=None)
    _add_sem_arguments(heart, default_study_options())
    heart.set_defaults(handler=_cmd_heart)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FitFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        for line in exc.diagnostics:
            print(f"  {line}", file=sys.stderr)
        return FAILURE_EXIT
    except (DataFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE_EXIT
    except PoismoeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return FAILURE_EXIT


if __name__ == "__main__":
    sys.exit(main())
