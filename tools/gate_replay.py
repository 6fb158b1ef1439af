"""Replay the gate ascent calls of a replication study in two checkouts.

    python3 tools/gate_replay.py CONFIG.json BASE_CHECKOUT NEW_CHECKOUT

CONFIG.json is a study config as ``poismoe replicate --config`` reads
it. Both checkouts are loaded into this process under names of their own
(``harness.load_checkout``). The study runs once (``harness.Study``),
with BASE_CHECKOUT's sources, recording the inputs and the result of
every ``sem.coordinate_descent_alphas`` call (``record``); a call that
ascends a batch of chains in lockstep is recorded as one call per chain,
in chain order. Each checkout then replays every recorded call
(``replay``), counting the Newton systems it builds
(``gating.build_gating_workspace``) and the trial objectives it
evaluates (``gating.q1_value``, less the one at the start). A call is
capped when it builds as many systems as the base's step cap
``gating.INNER_MAX`` allows. Calls are grouped by estimator (``ml``,
``ridge``, ``lt``; ``truth`` is the heart truth fit, which is ML), and
one line per group reports

    calls, Newton steps, trial evaluations and capped calls (base->new),
    the calls whose result is bit-identical,
    the objective gap |F_new - F_base| / (1 + |F_base|) on the calls
    the base did not cap and on those it capped,
    the largest coefficient gap max |alpha_new - alpha_base| and the
    largest gate-probability gap.

F is the assignment log-likelihood minus 1/2 sum(lam alpha^2) over the
free rows, computed here with numpy from the returned rows. That is the
objective every ascent maximizes; a Liu-type call maximizes it and then
shrinks the result by one Liu-type step, so its F is the ridge
objective at the shrunk rows. The ``lt`` calls are replayed on the base
chain's d: a new checkout whose tuning picks other d values never makes
those calls, so its ``lt`` line, which says so, judges the new gate on
inputs only the base produces. Two checkouts that ascend alike report
every call bit-identical and every gap 0. The exit code is 1 when the
base replay does not reproduce the recorded results bit for bit (the
replay would not be faithful), else 0.
"""
from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from unittest import mock

import numpy as np

import harness

GROUPS = ("truth", "ml", "ridge", "lt")
LT_LABEL = "(replayed on the base chain's d)"


def record(pm, payload: dict) -> list[dict]:
    """Run the study ``payload`` with the package ``pm``; the recording:
    every gate call's inputs and result, one call per chain."""
    study = harness.Study(pm, payload)
    ascent = pm.sem.coordinate_descent_alphas
    calls: list[dict] = []

    def recorded(Omega, alpha_t, part, lam, d, reference, **kwargs):
        # One record per chain: a batched call's (B, J, q) rows, (B, n)
        # assignments and (B, J) bias corrections are split by chain.
        alphas = np.array(alpha_t, dtype=float)
        batch = alphas.reshape(-1, *alphas.shape[-2:])
        assignments = np.array(part.assignment).reshape(len(batch), -1)
        ds = (None if d is None else
              np.broadcast_to(np.array(d, dtype=float),
                              (len(batch), alphas.shape[-2])))
        first = len(calls)
        for chain in range(len(batch)):
            calls.append({
                "group": ("truth" if study.label == "truth" else
                          "ml" if lam is None
                          else "ridge" if d is None else "lt"),
                "Omega": Omega, "alpha_t": batch[chain],
                "assignment": assignments[chain],
                "n_components": part.n_components,
                "lam": None if lam is None else np.array(lam, dtype=float),
                "d": None if ds is None else np.array(ds[chain]),
                "reference": reference, "cap": pm.gating.INNER_MAX})
        result = ascent(Omega, alpha_t, part, lam, d, reference, **kwargs)
        rows = np.array(result).reshape(batch.shape)
        for chain, call in enumerate(calls[first:]):
            call["alpha"] = rows[chain]
        return result

    with mock.patch.object(pm.sem, "coordinate_descent_alphas", recorded):
        study.run()
    return calls


def replay(pm, recording: list[dict]) -> list[dict]:
    """Rerun every recorded call with the package ``pm``; per call, the
    rows it returns and its Newton steps and trial evaluations."""
    gating = pm.gating
    counts = {"build": 0, "q1": 0}
    build, q1_value = gating.build_gating_workspace, gating.q1_value

    def counted(key, function):
        def call(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)
        return call

    rows = []
    with mock.patch.multiple(gating,
                             build_gating_workspace=counted("build", build),
                             q1_value=counted("q1", q1_value)):
        for call in recording:
            part = pm.PartitionState.from_assignment(call["assignment"],
                                                     call["n_components"])
            counts.update(build=0, q1=0)
            alpha = gating.coordinate_descent_alphas(
                call["Omega"], call["alpha_t"], part, call["lam"], call["d"],
                call["reference"], basis=pm.linalg.outer_basis(call["Omega"]))
            rows.append({"alpha": np.array(alpha), "steps": counts["build"],
                         "trials": max(counts["q1"] - 1, 0)})
    return rows


def objective(call: dict, alpha: np.ndarray) -> float:
    """Assignment log-likelihood minus the ridge term of the free rows."""
    scores = alpha @ call["Omega"].T
    peak = scores.max(axis=0)
    log_pi = scores - (peak + np.log(np.exp(scores - peak).sum(axis=0)))
    value = float(log_pi[call["assignment"],
                         np.arange(scores.shape[1])].sum())
    if call["lam"] is not None:
        free = np.arange(alpha.shape[0]) != call["reference"]
        value -= 0.5 * float((call["lam"][free, None]
                              * alpha[free] ** 2).sum())
    return value


def probabilities(Omega: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    scores = alpha @ Omega.T
    raw = np.exp(scores - scores.max(axis=0))
    return raw / raw.sum(axis=0)


def summarize(recording: list[dict], base: list[dict],
              new: list[dict]) -> list[str]:
    stats: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for call, a, b in zip(recording, base, new):
        Omega = call["Omega"]
        row = stats[call["group"]]
        cap = call["cap"]
        row["calls"] += 1
        for key in ("steps", "trials"):
            row[f"{key}_base"] += a[key]
            row[f"{key}_new"] += b[key]
        row["capped_base"] += a["steps"] >= cap
        row["capped_new"] += b["steps"] >= cap
        row["identical"] += bool(
            a["alpha"].tobytes() == b["alpha"].tobytes())
        f_base = objective(call, a["alpha"])
        f_new = objective(call, b["alpha"])
        gap = abs(f_new - f_base) / (1.0 + abs(f_base))
        key = "f_gap_capped" if a["steps"] >= cap else "f_gap"
        row[key] = max(row[key], gap)
        row["coef_gap"] = max(row["coef_gap"], float(
            np.max(np.abs(b["alpha"] - a["alpha"]))))
        row["prob_gap"] = max(row["prob_gap"], float(np.max(np.abs(
            probabilities(Omega, b["alpha"])
            - probabilities(Omega, a["alpha"])))))
    lines = ["group calls steps trials capped identical f_gap "
             "f_gap_capped coef_gap prob_gap"]
    for group in GROUPS:
        if group not in stats:
            continue
        row = stats[group]

        def pair(key):
            return f"{row[f'{key}_base']:.0f}->{row[f'{key}_new']:.0f}"

        lines.append(" ".join([
            group, f"{row['calls']:.0f}", pair("steps"), pair("trials"),
            pair("capped"), f"{row['identical']:.0f}",
            f"{row['f_gap']:.1e}", f"{row['f_gap_capped']:.1e}",
            f"{row['coef_gap']:.1e}", f"{row['prob_gap']:.1e}"]
            + ([LT_LABEL] if group == "lt" else [])))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", type=Path)
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base_pm = harness.load_checkout(args.base.resolve(), "base_poismoe")
    recording = record(base_pm, json.loads(args.config.read_text()))
    base = replay(base_pm, recording)
    new = replay(harness.load_checkout(args.new.resolve(), "new_poismoe"),
                 recording)
    faithful = all(call["alpha"].tobytes() == row["alpha"].tobytes()
                   for call, row in zip(recording, base))
    lines = summarize(recording, base, new)
    lines.append("base replay reproduces the recorded results: "
                 + ("yes" if faithful else "no"))
    print("\n".join(lines))
    return 0 if faithful else 1


if __name__ == "__main__":
    sys.exit(main())
