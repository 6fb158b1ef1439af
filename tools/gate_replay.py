"""Replay the gate ascent calls of a replication study in two checkouts.

    python3 tools/gate_replay.py CONFIG.json BASE_CHECKOUT NEW_CHECKOUT

CONFIG.json is a study config as ``poismoe replicate --config`` reads
it. The study runs once, with BASE_CHECKOUT's sources, in a child
process (``gate_replay.py --record CHECKOUT CONFIG.json RECORD``) that
records the inputs and the result of every
``sem.coordinate_descent_alphas`` call; a call that ascends a batch of
chains in lockstep is recorded as one call per chain, in chain order.
Each checkout then replays
every recorded call in a child process of its own
(``gate_replay.py --replay CHECKOUT RECORD OUT``), counting the Newton
systems it builds (``gating.build_gating_workspace``) and the trial
objectives it evaluates (``gating.q1_value``, less the one at the
start). A call is capped when it builds ``inner_max`` systems (the
base's default unless the call set it). Calls are grouped by estimator
(``ml``, ``ridge``, ``lt``; ``truth`` is the heart truth fit, which is
ML), and one line per group reports

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
objective at the shrunk rows. Two checkouts that ascend alike report
every call bit-identical and every gap 0. The exit code is 1 when the
base replay does not reproduce the recorded results bit for bit (the
replay would not be faithful), else 0.
"""
from __future__ import annotations

import argparse
import inspect
import pickle
import subprocess
import sys
import tempfile
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np

GROUPS = ("truth", "ml", "ridge", "lt")


def import_checkout(checkout: Path):
    sys.path.insert(0, str(checkout / "src"))
    import poismoe
    return poismoe


def record(checkout: Path, config_path: Path, out: Path) -> int:
    """Child mode: run the study, keep every gate call's inputs and result."""
    pm = import_checkout(checkout)
    config = replace(pm.load_config(config_path), jobs=1, output_dir=None)
    sem, replication = pm.sem, pm.replication
    ascent, fit_method = sem.coordinate_descent_alphas, replication.fit_method
    omegas: list[np.ndarray] = []
    calls: list[dict] = []
    in_truth = [False]
    default_cap = inspect.signature(ascent).parameters["inner_max"].default

    def recorded(Omega, alpha_t, part, lam, d, reference, **kwargs):
        stop = {key: kwargs[key] for key in ("inner_tol", "inner_max")
                if key in kwargs}
        if not omegas or omegas[-1] is not Omega:
            omegas.append(Omega)
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
                "group": ("truth" if in_truth[0] else "ml" if lam is None
                          else "ridge" if d is None else "lt"),
                "omega": len(omegas) - 1, "alpha_t": batch[chain],
                "assignment": assignments[chain],
                "n_components": part.n_components,
                "lam": None if lam is None else np.array(lam, dtype=float),
                "d": None if ds is None else np.array(ds[chain]),
                "reference": reference, "stop": stop,
                "cap": stop.get("inner_max", default_cap)})
        result = ascent(Omega, alpha_t, part, lam, d, reference, **kwargs)
        rows = np.array(result).reshape(batch.shape)
        for chain, call in enumerate(calls[first:]):
            call["alpha"] = rows[chain]
        return result

    def truth(*args, **kwargs):
        in_truth[0] = True
        try:
            return fit_method(*args, **kwargs)
        finally:
            in_truth[0] = False

    sem.coordinate_descent_alphas, replication.fit_method = recorded, truth
    pm.run_replication_study(config)
    with out.open("wb") as handle:
        pickle.dump({"omegas": [np.array(o) for o in omegas],
                     "calls": calls}, handle)
    return 0


def replay(checkout: Path, record_path: Path, out: Path) -> int:
    """Child mode: rerun every recorded call, counting steps and trials."""
    pm = import_checkout(checkout)
    gating = pm.gating
    with record_path.open("rb") as handle:
        recording = pickle.load(handle)
    counts = {"build": 0, "q1": 0}
    build, q1_value = gating.build_gating_workspace, gating.q1_value

    def counted_build(*args, **kwargs):
        counts["build"] += 1
        return build(*args, **kwargs)

    def counted_q1(*args, **kwargs):
        counts["q1"] += 1
        return q1_value(*args, **kwargs)

    gating.build_gating_workspace, gating.q1_value = counted_build, counted_q1
    rows = []
    for call in recording["calls"]:
        Omega = recording["omegas"][call["omega"]]
        part = pm.PartitionState.from_assignment(call["assignment"],
                                                 call["n_components"])
        counts.update(build=0, q1=0)
        alpha = gating.coordinate_descent_alphas(
            Omega, call["alpha_t"], part, call["lam"], call["d"],
            call["reference"], basis=pm.linalg.outer_basis(Omega),
            **call["stop"])
        rows.append({"alpha": np.array(alpha), "steps": counts["build"],
                     "trials": max(counts["q1"] - 1, 0)})
    with out.open("wb") as handle:
        pickle.dump(rows, handle)
    return 0


def objective(Omega: np.ndarray, call: dict, alpha: np.ndarray) -> float:
    """Assignment log-likelihood minus the ridge term of the free rows."""
    scores = alpha @ Omega.T
    peak = scores.max(axis=0)
    log_pi = scores - (peak + np.log(np.exp(scores - peak).sum(axis=0)))
    n = Omega.shape[0]
    value = float(log_pi[call["assignment"], np.arange(n)].sum())
    if call["lam"] is not None:
        free = np.arange(alpha.shape[0]) != call["reference"]
        value -= 0.5 * float((call["lam"][free, None]
                              * alpha[free] ** 2).sum())
    return value


def probabilities(Omega: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    scores = alpha @ Omega.T
    raw = np.exp(scores - scores.max(axis=0))
    return raw / raw.sum(axis=0)


def summarize(recording: dict, base: list[dict],
              new: list[dict]) -> list[str]:
    stats: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for call, a, b in zip(recording["calls"], base, new):
        Omega = recording["omegas"][call["omega"]]
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
        f_base = objective(Omega, call, a["alpha"])
        f_new = objective(Omega, call, b["alpha"])
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
            f"{row['coef_gap']:.1e}", f"{row['prob_gap']:.1e}"]))
    return lines


def run_child(*args: str) -> None:
    subprocess.run([sys.executable, __file__, *args], check=True)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "--record":
        return record(Path(argv[1]).resolve(), Path(argv[2]), Path(argv[3]))
    if argv and argv[0] == "--replay":
        return replay(Path(argv[1]).resolve(), Path(argv[2]), Path(argv[3]))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", type=Path)
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        run_child("--record", str(args.base), str(args.config),
                  str(work / "record.pkl"))
        for name, checkout in (("base", args.base), ("new", args.new)):
            run_child("--replay", str(checkout), str(work / "record.pkl"),
                      str(work / f"{name}.pkl"))
        loaded = {}
        for name in ("record", "base", "new"):
            with (work / f"{name}.pkl").open("rb") as handle:
                loaded[name] = pickle.load(handle)
    recording, base, new = loaded["record"], loaded["base"], loaded["new"]
    faithful = all(call["alpha"].tobytes() == row["alpha"].tobytes()
                   for call, row in zip(recording["calls"], base))
    lines = summarize(recording, base, new)
    lines.append("base replay reproduces the recorded results: "
                 + ("yes" if faithful else "no"))
    print("\n".join(lines))
    return 0 if faithful else 1


if __name__ == "__main__":
    sys.exit(main())
