"""Benchmark workloads and the seeded inputs they are built from.

Every input is generated from a seed. The workload seed becomes
``StudyConfig.seed``, from which ``run_replication_study`` draws each
replicate's data (simulation) or subsample (heart) and its chain seeds.
The heart study's population is one Cleveland-format file written here
from ``HEART_POPULATION_SEED``: like the single real data set it stands
for, it stays the same while the replicates vary. Nothing outside the
checkout is read.

This module imports no ``poismoe`` code, so the orchestrating process
never loads the package it measures.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Seed kept out of every tuning run, for confirming a claimed gain on
# inputs the change was not developed against.
HELD_OUT_SEED = 7919
HEART_POPULATION_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Replicates per second of requested run time. Fixed per workload so
    # that the same (seed, seconds) always runs the same replicates and
    # every count repeats exactly, whatever the machine's speed.
    replicates_per_second: float

    def replicates(self, seconds: float) -> int:
        return max(1, math.ceil(seconds * self.replicates_per_second - 1e-9))


WORKLOADS = {
    "study2": Workload(
        name="study2",
        why="paper Study 2 (J=3, p=q=3, rho=0.90, n=300): the gating "
            "M-step does almost all the work; the control for LT-retune "
            "changes",
        replicates_per_second=1 / 7),
    "heart30": Workload(
        name="heart30",
        why="heart subsampling (train 30, test 100, J=2): tiny calls, so "
            "per-call overhead, E-step and log-likelihood carry their "
            "largest share",
        replicates_per_second=2.0),
}

HEART_COMPLETE_ROWS = 297
HEART_MISSING_ROWS = 6


def heart_path(workdir: Path) -> Path:
    return workdir / f"heart-population-{HEART_POPULATION_SEED}.csv"


def write_heart_file(path: Path, seed: int) -> Path:
    """Write a Cleveland "processed"-format file drawn from ``seed``.

    The 14 attributes follow the UCI layout; only ST depression (column
    10), ST slope (column 11) and the stage (column 14) feed the model.
    Each row comes from one of two latent groups whose stage is a
    Poisson count in ST depression and slope, capped at 4. A few extra
    rows carry a "?" in ``ca`` or ``thal`` so that the loader's
    missing-value path runs and 297 complete rows remain, as in the
    canonical file.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,)))
    rows = []
    for index in range(HEART_COMPLETE_ROWS + HEART_MISSING_ROWS):
        sick = rng.random() < 0.45
        shape, scale = (2.5, 0.8) if sick else (1.2, 0.5)
        oldpeak = round(min(6.2, float(rng.gamma(shape, scale))), 1)
        slope_probs = (0.2, 0.65, 0.15) if sick else (0.55, 0.38, 0.07)
        slope = int(rng.choice((1, 2, 3), p=slope_probs))
        eta = (-0.4 + 0.25 * oldpeak + 0.15 * slope if sick
               else -1.6 + 0.15 * oldpeak + 0.1 * slope)
        stage = int(min(4, rng.poisson(math.exp(eta))))
        fields = [f"{int(rng.integers(29, 78))}.0",      # age
                  f"{int(rng.integers(0, 2))}.0",        # sex
                  f"{int(rng.integers(1, 5))}.0",        # chest pain type
                  f"{int(rng.integers(94, 201))}.0",     # resting bp
                  f"{int(rng.integers(126, 565))}.0",    # cholesterol
                  f"{int(rng.integers(0, 2))}.0",        # fasting sugar
                  f"{int(rng.integers(0, 3))}.0",        # resting ecg
                  f"{int(rng.integers(71, 203))}.0",     # max heart rate
                  f"{int(rng.integers(0, 2))}.0",        # exercise angina
                  f"{oldpeak}", f"{slope}.0",
                  f"{int(rng.integers(0, 4))}.0",        # ca
                  f"{float(rng.choice((3, 6, 7)))}",     # thal
                  str(stage)]
        if index >= HEART_COMPLETE_ROWS:
            fields[int(rng.choice((11, 12)))] = "?"
        rows.append(",".join(fields))
    order = rng.permutation(len(rows))
    path.write_text("\n".join(rows[k] for k in order) + "\n")
    return path
