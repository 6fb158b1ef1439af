"""Seeded replication benchmark for ``poismoe``.

    python3 perfbench/run.py --workload study2 --seed 0 --seconds 40 --trace 0

Run from the root of a checkout. The workload's inputs are generated
from ``--seed``; ``--seconds`` sets how many replicates run (a fixed
number per second for each workload, so counts repeat exactly). The
last line of standard output is one JSON object with ``correct``,
``attempted`` (replicates), ``failed`` and ``metrics``.

``--trace 0`` runs the study untraced in a child process and then times
set-up in fresh processes; it reports the end-to-end metrics.
``--trace 1`` runs the first half of the replicates untraced and all of
them traced, each in its own child process, and reports the per-layer
metrics plus the tracing overhead on the replicates both ran.

Correctness checks, any of which fails the run with exit code 1:
every successful fit has finite coefficients and log-likelihoods; the
traced and untraced children agree bit for bit on the replicates both
ran; and a run repeats the summaries and iteration counts recorded by
the first run of the same program sources, workload, seed and size in
``.perfbench/records``.

The seed ``workloads.HELD_OUT_SEED`` is kept for confirming claims.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (HEART_POPULATION_SEED, WORKLOADS, heart_path,
                       write_heart_file)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s", "fit_iter_ms": "ms", "fit_ok_frac": "fraction",
    "peak_rss_mb": "MB", "lt_accuracy": "fraction",
}


class BenchmarkError(Exception):
    """A child failed or a correctness check did not hold."""


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchmarkError("time limit reached")
        return left


def run_child(mode: str, args, deadline: Deadline, **options) -> str:
    """Run ``worker.py`` to completion and return its last output line."""
    command = [sys.executable, str(HERE / "worker.py"), mode,
               "--workload", args.workload, "--seed", str(args.seed),
               "--workdir", str(WORKDIR)]
    for key, value in options.items():
        command += [f"--{key}", str(value)]
    if args.smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=deadline.left(), cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} child ran out of time") from exc
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        raise BenchmarkError(f"{mode} child exited with {done.returncode}")
    return done.stdout.strip().splitlines()[-1]


def run_study(args, deadline: Deadline, replicates: int, trace: int) -> dict:
    return json.loads(run_child("study", args, deadline,
                                replicates=replicates, trace=trace))


def time_setup(args, deadline: Deadline) -> float:
    """Seconds from process start until the first replicate begins.

    The probe prints the system-wide monotonic clock at that moment.
    """
    start = time.monotonic()
    return float(run_child("setup", args, deadline)) - start


def check_fits(study: dict) -> int:
    """Count successful fits; every one must be finite."""
    ok = 0
    for replicate, records in enumerate(study["fits"]):
        for record in records:
            if not record["ok"]:
                continue
            if not record["finite"]:
                raise BenchmarkError(f"replicate {replicate} "
                                     f"{record['method']} fit is not finite")
            ok += 1
    return ok


def fit_iterations(study: dict) -> int:
    return sum(r["iterations"] for records in study["fits"]
               for r in records if r["ok"])


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "poismoe").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return digest.hexdigest()[:12]


def check_record(args, replicates: int, study: dict,
                 sem_iterations: int | None) -> None:
    """Compare with the first run of this program, workload, seed and size."""
    suffix = "-smoke" if args.smoke else ""
    path = (WORKDIR / "records" / f"{args.workload}-seed{args.seed}"
            f"-k{replicates}{suffix}-src{source_digest()}.json")
    current = {"summaries": study["summaries"],
               "fit_iterations": fit_iterations(study)}
    if sem_iterations is not None:
        current["sem_iterations"] = sem_iterations
    if path.exists():
        recorded = json.loads(path.read_text())
        for key, value in current.items():
            if key in recorded and _canonical(recorded[key]) != _canonical(value):
                raise BenchmarkError(f"{key} differ from the record in {path}")
        merged = {**recorded, **current}
    else:
        merged = current
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(merged, indent=1) + "\n")


def _lt_summary(study: dict, block: str) -> float:
    for method, summary_block, median, *_ in study["summaries"]:
        if method == "lt" and summary_block == block:
            return median
    raise BenchmarkError(f"no lt {block} summary")


def end_to_end(args, deadline: Deadline, replicates: int) -> dict:
    study = run_study(args, deadline, replicates, trace=0)
    if study["wrapped"]:
        raise BenchmarkError(f"untraced run has wrapped layers: "
                             f"{study['wrapped']}")
    ok_fits = check_fits(study)
    check_record(args, replicates, study, None)
    repeats = 1 if args.smoke else SETUP_REPEATS
    setup = [time_setup(args, deadline) for _ in range(repeats)]
    n_fits = replicates * len(study["fits"][0])
    values = {
        "setup_s": statistics.median(setup),
        "fit_iter_ms": 1e3 * study["study_s"] / fit_iterations(study),
        "fit_ok_frac": ok_fits / n_fits,
        "peak_rss_mb": study["peak_rss_mb"],
        "lt_accuracy": _lt_summary(study, "accuracy"),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def per_layer(args, deadline: Deadline, replicates: int) -> dict:
    overlap = math.ceil(replicates / 2)
    plain = run_study(args, deadline, overlap, trace=0)
    traced = run_study(args, deadline, replicates, trace=1)
    if plain["wrapped"] or not traced["wrapped"]:
        raise BenchmarkError("tracing leaked into the untraced child or "
                             "was missing from the traced one")
    check_fits(plain)
    check_fits(traced)
    head_scores = [row for row in traced["scores"] if row[0] < overlap]
    if (_canonical(traced["fits"][:overlap]) != _canonical(plain["fits"])
            or _canonical(head_scores) != _canonical(plain["scores"])):
        raise BenchmarkError("traced and untraced runs of the same "
                             "replicates differ")
    layers = traced["layers"]
    check_record(args, replicates, traced, layers["sem.iterations"][0])
    untraced_s = sum(plain["rep_s"])
    traced_s = sum(traced["rep_s"][:overlap])
    layers["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s,
                                     "fraction")
    layers["replication.rep_s_p50"] = (statistics.median(plain["rep_s"]), "s")
    layers["replication.rep_s_mean"] = (plain["study_s"] / overlap, "s")
    layers["metrics.lt_rmse_beta"] = (_lt_summary(traced, "beta"), "sqrt-mse")
    layers["metrics.lt_rmse_alpha"] = (_lt_summary(traced, "alpha"),
                                       "sqrt-mse")
    trace_path = WORKDIR / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({"spans": traced["spans"]}, indent=1)
                          + "\n")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in layers.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="two replicates of tiny chains (plumbing test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "poismoe" / "__init__.py").is_file():
        print(f"error: no poismoe sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = Deadline(TIME_LIMIT_S)
    workload = WORKLOADS[args.workload]
    replicates = 2 if args.smoke else workload.replicates(args.seconds)
    WORKDIR.mkdir(exist_ok=True)
    if args.workload == "heart30":
        write_heart_file(heart_path(WORKDIR), HEART_POPULATION_SEED)
    measure = per_layer if args.trace else end_to_end
    try:
        metrics = measure(args, deadline, replicates)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": replicates,
                          "failed": replicates, "metrics": {}}))
        return 1
    print(json.dumps({"correct": True, "attempted": replicates, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
