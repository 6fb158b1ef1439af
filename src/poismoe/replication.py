"""Monte-Carlo replication harness.

Each replicate draws (or subsamples) training data, runs the staged
ML -> ridge -> Liu-type pipeline, aligns labels to the truth, and
records root-MSE for both coefficient blocks plus classification
accuracy on held-out data. Replicates are independent and seeded by
replicate index, so results do not depend on the parallelism width.
"""
from __future__ import annotations

import csv
import json
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import DataFormatError, PoismoeError, SummaryUndefined
from .heart import load_heart_dataset
from .metrics import (ReplicationSummary, align_components,
                      classification_accuracy, sqrt_mse, summarize_replicates,
                      write_summary_csv)
from .model import (Coefficients, Dataset, MixtureSpec, SemOptions,
                    check_fields, responsibilities)
from .pipeline import METHODS, fit_all_methods, fit_method, spawn_seed
from .simulate import SimulationDesign, VALIDATION_SIZE, simulate_dataset

BLOCKS = ("beta", "alpha", "accuracy")
# The replicates.csv column each summarized block is read from.
_COLUMNS = {"beta": "sqrt_mse_beta", "alpha": "sqrt_mse_alpha",
            "accuracy": "accuracy"}

__all__ = ["BLOCKS", "StudyConfig", "StudyResult", "default_study_options",
           "run_replication_study", "config_to_dict", "config_from_dict",
           "save_config", "load_config"]


def default_study_options() -> SemOptions:
    """Chain controls sized for replicated desk-scale studies."""
    return SemOptions(epsilon=1e-6, max_iters=120, burn_in=30, n_restarts=2)


def _truth_fit_options() -> SemOptions:
    return SemOptions(epsilon=1e-8, max_iters=300, burn_in=100, n_restarts=4)


@dataclass(frozen=True)
class StudyConfig:
    """Everything one replication study needs, serializable to JSON."""

    mode: str  # "simulation" | "heart"
    design: SimulationDesign | None = None
    validation_n: int = VALIDATION_SIZE
    heart_path: str | None = None
    train_n: int = 30
    test_n: int = 100
    n_components: int = 2
    reference_class: int = 0
    slope_encoding: str = "numeric"
    replicates: int = 1
    jobs: int = 1
    seed: int = 0
    methods: tuple[str, ...] = METHODS
    sem: SemOptions = field(default_factory=default_study_options)
    truth_sem: SemOptions = field(default_factory=_truth_fit_options)
    output_dir: str | None = None

    def __post_init__(self) -> None:
        check_fields(self)
        if self.mode not in ("simulation", "heart"):
            raise ValueError(f"unknown mode {self.mode!r}")
        unused = (("design", "validation_n") if self.mode == "heart" else
                  ("heart_path", "train_n", "test_n", "n_components",
                   "reference_class", "slope_encoding"))
        for f in fields(self):
            if f.name in unused and getattr(self, f.name) != f.default:
                raise ValueError(f"a {self.mode} study takes no {f.name}")
        for name in ("sem", "truth_sem"):
            if getattr(self, name).rng_seed != 0:
                raise ValueError(f"{name}.rng_seed must be 0: a study seeds "
                                 "each fit from its own seed")
        if self.mode == "simulation" and self.design is None:
            raise ValueError("simulation mode needs a design")
        if self.mode == "heart" and self.heart_path is None:
            raise ValueError("heart mode needs a data path")
        for name in ("replicates", "jobs", "validation_n", "train_n", "test_n"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if (not self.methods or not set(self.methods) <= set(METHODS)
                or len(set(self.methods)) < len(self.methods)):
            raise ValueError(f"methods must be a nonempty selection of "
                             f"{list(METHODS)}, not {list(self.methods)}")


@dataclass
class StudyResult:
    """Aggregated summaries plus per-replicate rows and artifact paths."""

    summaries: list[tuple[str, str, ReplicationSummary]]
    replicate_rows: list[dict]
    failure_fraction: float
    summary_path: Path | None = None
    replicates_path: Path | None = None


def _replicate_seed(seed: int, index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(index, stream)))


def _fit_and_score(config: StudyConfig, index: int, train: Dataset,
                   truth: Coefficients, validation: Dataset,
                   z_true: np.ndarray) -> list[dict]:
    """Fit replicate ``index`` on ``train``; return its ``replicates.csv``
    rows, one per method, scoring the label-aligned fit against ``truth``
    (NaN with a note when its fit or scoring failed)."""
    spec = MixtureSpec(n_components=truth.n_components,
                       reference_class=truth.reference_class)
    opts = replace(config.sem, rng_seed=spawn_seed(config.seed, index, 1))
    result = fit_all_methods(train, spec, opts, methods=config.methods,
                             raise_on_failure=False)
    rows = []
    for method in config.methods:
        fit = result.fit_for(method)
        beta = alpha = accuracy = np.nan
        note = result.failures.get(method, "failed")
        if fit is not None:
            try:
                aligned = fit.psi_hat.permute(
                    align_components(fit.psi_hat, truth))
                beta, alpha, accuracy = (
                    sqrt_mse(aligned, truth, "beta", train.n),
                    sqrt_mse(aligned, truth, "alpha", train.n),
                    classification_accuracy(aligned, validation, z_true))
                note = ""
            except PoismoeError as exc:
                note = f"scoring failed: {exc}"
        rows.append({"replicate": index, "method": method,
                     "sqrt_mse_beta": beta, "sqrt_mse_alpha": alpha,
                     "accuracy": accuracy,
                     "failed": int(not np.isfinite(beta)), "note": note})
    return rows


def _simulation_replicate(args: tuple) -> list[dict]:
    index, config = args
    design = config.design
    data_rng = _replicate_seed(config.seed, index, 0)
    train, _ = simulate_dataset(design, data_rng)
    validation_design = replace(design, n=config.validation_n)
    validation, z_true = simulate_dataset(validation_design, data_rng)
    return _fit_and_score(config, index, train, design.truth(), validation,
                          z_true)


def _heart_replicate(args: tuple) -> list[dict]:
    index, config, arrays, psi_true = args
    y, X, Omega = arrays
    rng = _replicate_seed(config.seed, index, 0)
    order = rng.permutation(y.shape[0])
    train_idx = order[:config.train_n]
    test_idx = order[config.train_n:config.train_n + config.test_n]
    train = Dataset(y=y[train_idx], X=X[train_idx], Omega=Omega[train_idx])
    test = Dataset(y=y[test_idx], X=X[test_idx], Omega=Omega[test_idx])
    z_true = responsibilities(test, psi_true).argmax(axis=1)
    return _fit_and_score(config, index, train, psi_true, test, z_true)


def _run_tasks(worker, tasks: list, jobs: int) -> list[list[dict]]:
    if jobs == 1:
        return [worker(task) for task in tasks]
    # Loads multiprocessing, which only a parallel study needs.
    from concurrent.futures import ProcessPoolExecutor

    chunksize = max(1, len(tasks) // (jobs * 4))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks, chunksize=chunksize))


def run_replication_study(config: StudyConfig) -> StudyResult:
    """Run all replicates, aggregate summaries, and write artifacts."""
    if config.mode == "simulation":
        tasks = [(index, config) for index in range(config.replicates)]
        results = _run_tasks(_simulation_replicate, tasks, config.jobs)
    else:
        full = load_heart_dataset(config.heart_path, config.slope_encoding)
        if config.train_n + config.test_n > full.n:
            raise ValueError("train_n + test_n exceeds the population size")
        spec = MixtureSpec(n_components=config.n_components,
                           reference_class=config.reference_class)
        truth_opts = replace(config.truth_sem,
                             rng_seed=spawn_seed(config.seed, 10**6, 1))
        psi_true = fit_method(full, spec, truth_opts, "ml").psi_hat
        arrays = (np.asarray(full.y), np.asarray(full.X),
                  np.asarray(full.Omega))
        tasks = [(index, config, arrays, psi_true)
                 for index in range(config.replicates)]
        results = _run_tasks(_heart_replicate, tasks, config.jobs)

    replicate_rows = [row for rows in results for row in rows]
    summaries: list[tuple[str, str, ReplicationSummary]] = []
    worst_failure = 0.0
    for method in config.methods:
        rows = [row for row in replicate_rows if row["method"] == method]
        failed = sum(row["failed"] for row in rows)
        worst_failure = max(worst_failure, failed / config.replicates)
        for block in BLOCKS:
            values = [row[_COLUMNS[block]] for row in rows]
            try:
                summaries.append((method, block,
                                  summarize_replicates(values, metric=block)))
            except SummaryUndefined:  # every replicate of the method failed
                pass

    summary_path = replicates_path = None
    if config.output_dir is not None:
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        summary_path = out / "summary.csv"
        write_summary_csv(summary_path, summaries)
        replicates_path = out / "replicates.csv"
        with replicates_path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(replicate_rows[0]),
                                    lineterminator="\n")
            writer.writeheader()
            writer.writerows(replicate_rows)
    return StudyResult(summaries=summaries, replicate_rows=replicate_rows,
                       failure_fraction=worst_failure,
                       summary_path=summary_path,
                       replicates_path=replicates_path)


def config_to_dict(config: StudyConfig) -> dict:
    return asdict(config)


# Retired fields of each settings type, each with the only value a saved
# config could hold (``int``: any integer); such an entry is dropped on
# load, any other value refused.
_RETIRED = {StudyConfig: {"plots": False},
            SimulationDesign: {"seed": int},
            SemOptions: {"hard_assignment": False, "init_strategy": "random",
                         "inner_tol": 1e-8, "inner_max": 50}}
# The blocks of a study config, each built into its settings type before
# the study is; a study without a design (a heart study) saves it as null.
_BLOCKS = {"design": SimulationDesign, "sem": SemOptions,
           "truth_sem": SemOptions}


def _tuples(value):
    """``value`` with every list in it, nested or not, made a tuple."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _build(make, where: str, values: dict):
    """``make(**values)``, reporting a rejected value (or one of the wrong
    type) as DataFormatError."""
    try:
        return make(**values)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"invalid {where} config: {exc}") from exc


def config_from_dict(payload: dict) -> StudyConfig:
    """Inverse of :func:`config_to_dict`: the study, built after its
    ``design``, ``sem`` and ``truth_sem`` blocks.

    The file and each block map key for key onto their settings type:
    a retired key holding its saved value is dropped and a list becomes
    a tuple; the settings type judges the values
    (:func:`~poismoe.model.check_fields` and its own checks). A block
    that is not a JSON object, a retired key holding another value, an
    unknown or missing key, and a value the settings type refuses raise
    :class:`DataFormatError`.
    """
    study: dict = {}
    for key, settings in (("", StudyConfig), *_BLOCKS.items()):
        block = study.get(key) if key else payload
        if key and (key not in study or key == "design" and block is None):
            continue  # the default, or a heart study's null design
        if not isinstance(block, dict):
            raise DataFormatError(f"config {key or 'file'} must be a JSON "
                                  f"object, not {type(block).__name__}")
        where, values = f"{key}." if key else "", {}
        known = {f.name: f for f in fields(settings)}
        for name, value in block.items():
            saved = _RETIRED[settings].get(name, MISSING)
            if name in known:
                values[name] = _tuples(value)
            elif saved is MISSING:
                raise DataFormatError(f"unknown config key '{where}{name}'")
            elif not (type(value) is int if saved is int else
                      type(value) is type(saved) and value == saved):
                accepted = "an integer" if saved is int else json.dumps(saved)
                raise DataFormatError(f"config key '{where}{name}' is "
                                      f"retired; only {accepted} is accepted")
        for name, f in known.items():
            if (name not in values and f.default is MISSING
                    and f.default_factory is MISSING):
                raise DataFormatError(f"missing config key '{where}{name}'")
        if key:
            study[key] = _build(settings, key, values)
        else:
            study = values
    return _build(StudyConfig, "study", study)


def save_config(config: StudyConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2,
                                     sort_keys=True) + "\n")


def load_config(path: str | Path) -> StudyConfig:
    return config_from_dict(json.loads(Path(path).read_text()))
