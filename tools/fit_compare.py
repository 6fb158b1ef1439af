"""Compare every fit a replication study makes in two checkouts.

    python3 tools/fit_compare.py CONFIG.json BASE_CHECKOUT NEW_CHECKOUT \
        [--tolerance 1e-10] [--summary]

A fit's record (``record``) is what the pinned-study fixture
``tests/data/pinned_studies.json`` stores of it (``work_count.py
--pin`` writes the fixture): its beta, alpha and Liu-type d
(``float.hex``), ``iterations_run``, ``selected_iteration``,
``converged``, ``n_failed_restarts`` and ``ends``, the type of each
restart's end in ``FitResult.restart_ends``; a failed stage's is the
error types of its note and, as ``ends``, the restart ends it lists.
Both checkouts must record ``restart_ends``.

CONFIG.json is a study config as ``poismoe replicate --config`` reads
it. Both checkouts are loaded into this process under names of their
own (``harness.load_checkout``), and the study runs once per checkout
(``harness.Study``), the base checkout first. A heart study's truth is
itself an ML fit, so the new checkout scores its replicates against
the base checkout's truth fit, and both checkouts are judged against
one truth; the new checkout's own truth fit is still made and
reported. Fits are paired by replicate and method (``truth`` is the
heart truth fit). For each pair one line reports

    <replicate> <method> <relative difference> <iterations> <selected> <converged>

where the relative difference is max |new - base| / max |base| over the
beta and alpha coefficients (and, for Liu-type, the d values of its
tuning, taken apart), and each of the other three fields reads ``same``
or ``base->new``. ``=`` replaces the difference when the two fits are
byte-identical: their records are equal. A summary counts the
byte-identical pairs, the pairs within 1e-10 and 1e-6, and lists the
pairs that diverged: a failure in only one checkout, another iteration
count, selected iteration or convergence flag, or a relative difference
above ``--tolerance``. A last line says whether the study outputs
match bit for bit; they are compared as JSON text, since a failed
replicate's NaN never compares equal as a float. The exit code is 1 if
any pair diverged or the study outputs differ. Two checkouts make
byte-identical fits when every line reads ``=``.

``--summary`` adds the Monte-Carlo view of the two runs. One line per
method and block of the study ``summaries``

    <method> <block> <M> <L> <U> | <M> <L> <U>

gives the median and the 5th/95th percentiles over the replicates, base
then new. One line per method and chain end

    chains <method> <end> <base count> <new count>

counts the ``ends`` of the fit records: ``epsilon`` (the
log-likelihood stop), ``cap`` (``max_iters``) or the type of the
interruption, such as ``EmptyPartition``; ``truth`` counts the heart
truth fit's chains.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np

import harness

BINS = (1e-10, 1e-6)


def hexed(values):
    """Nested lists of floats as the same lists of ``float.hex`` strings."""
    return ([hexed(value) for value in values] if isinstance(values, list)
            else float.hex(values))


def unhexed(values) -> np.ndarray:
    """The float array of nested lists of ``float.hex`` strings."""
    return np.frompyfunc(float.fromhex, 1, 1)(np.array(values)).astype(float)


def record(label: str, method: str, fit, note: str) -> dict:
    """One fit as the pinned-study fixture stores it."""
    entry = {"replicate": label, "method": method}
    if fit is None:
        entry["error"] = " | ".join(re.findall(r"([A-Z]\w*): ", note)) or note
        entry["ends"] = re.findall(r"restart \d+: ([A-Z]\w*)", note)
        return entry
    entry.update(beta=hexed(fit.psi_hat.beta.tolist()),
                 alpha=hexed(fit.psi_hat.alpha.tolist()),
                 iterations_run=int(fit.iterations_run),
                 selected_iteration=int(fit.selected_iteration),
                 converged=bool(fit.converged),
                 n_failed_restarts=int(fit.n_failed_restarts),
                 ends=[end.split(":")[0] for end in fit.restart_ends])
    if fit.method == "lt":
        entry["d"] = hexed(fit.tuning.d_beta.tolist()
                           + fit.tuning.d_alpha.tolist())
    return entry


def run_checkout(pm, payload: dict,
                 truth: dict | None = None) -> tuple[dict, str, dict]:
    """Run the study ``payload`` with the package ``pm``; return its fit
    records by (replicate, method), its study outputs as JSON text and
    its chain ends by method. With ``truth``, the record of another
    checkout's truth fit, the replicates are scored against its
    coefficients instead of this checkout's own truth fit."""
    result, fits = harness.Study(pm, payload, None if truth is None else (
        unhexed(truth["beta"]), unhexed(truth["alpha"]))).run()
    records = {(label, method): record(label, method, fit, note)
               for label, method, fit, note in fits}
    chain_ends: dict[str, Counter] = {}
    for (label, method), entry in records.items():
        chain_ends.setdefault("truth" if label == "truth" else method,
                              Counter()).update(entry["ends"])
    # json writes each float as its shortest round-trip repr, so equal
    # texts mean bit-equal values.
    outputs = json.dumps({
        "summaries": [[method, block, asdict(summary)]
                      for method, block, summary in result.summaries],
        "replicate_rows": result.replicate_rows,
        "failure_fraction": result.failure_fraction})
    return records, outputs, chain_ends


def monte_carlo_summary(base_study: str, new_study: str, base_chains: dict,
                        new_chains: dict) -> list[str]:
    """The ``--summary`` lines: M/L/U per method and block, base | new,
    then chain ends per method."""
    def by_key(study: str) -> dict:
        return {(method, block): summary
                for method, block, summary in json.loads(study)["summaries"]}

    def columns(summary) -> str:
        return ("- - -" if summary is None else
                " ".join(f"{summary[k]:.4g}" for k in ("M", "L", "U")))

    base, new = by_key(base_study), by_key(new_study)
    lines = ["method block M L U (base | new)"]
    for key in dict.fromkeys([*base, *new]):  # the study's order
        lines.append(f"{' '.join(key)} {columns(base.get(key))} | "
                     f"{columns(new.get(key))}")
    for method in sorted(base_chains.keys() | new_chains.keys()):
        a, b = base_chains.get(method, {}), new_chains.get(method, {})
        for end in sorted(a.keys() | b.keys()):
            lines.append(f"chains {method} {end} {a.get(end, 0)} "
                         f"{b.get(end, 0)}")
    return lines


def relative_difference(base: np.ndarray, new: np.ndarray) -> float:
    scale = float(np.max(np.abs(base), initial=0.0))
    gap = float(np.max(np.abs(new - base), initial=0.0))
    return gap / scale if scale > 0 else gap


def compare(base: dict, new: dict,
            tolerance: float) -> tuple[list[str], list[str]]:
    lines, diverged = [], []
    counts = {"identical": 0, **{f"{b:g}": 0 for b in BINS}}

    def order(key):
        label, method = key
        return (label != "truth", int(label) if label.isdigit() else -1,
                method)

    for key in sorted(base.keys() | new.keys(), key=order):
        label = " ".join(key)
        a, b = base.get(key), new.get(key)
        if a is None or b is None or "error" in a or "error" in b:
            status = ("missing" if a is None or b is None else
                      "both failed" if "error" in a and "error" in b else
                      "failed in base" if "error" in a else "failed in new")
            lines.append(f"{label} {status}")
            if status != "both failed":
                diverged.append(label)
            continue
        coef_a, coef_b = (np.concatenate([unhexed(fit["beta"]).ravel(),
                                          unhexed(fit["alpha"]).ravel()])
                          for fit in (a, b))
        identical = a == b
        rel = relative_difference(coef_a, coef_b)
        fields = []
        for name in ("iterations_run", "selected_iteration", "converged"):
            same = a[name] == b[name]
            fields.append("same" if same else f"{a[name]}->{b[name]}")
        text = "=" if identical else f"{rel:.2e}"
        if "d" in a:
            d_rel = relative_difference(unhexed(a["d"]), unhexed(b["d"]))
            text += f" d:{d_rel:.2e}"
        lines.append(f"{label} {text} " + " ".join(fields))
        counts["identical"] += identical
        for bound in BINS:
            if rel <= bound:
                counts[f"{bound:g}"] += 1
        if rel > tolerance or any(f != "same" for f in fields):
            diverged.append(label)
    total = len(base.keys() | new.keys())
    summary = [f"fits: {total}",
               f"byte-identical: {counts['identical']}",
               *(f"within {b:g}: {counts[f'{b:g}']}" for b in BINS),
               f"diverged (tolerance {tolerance:g}): {len(diverged)}"]
    summary += [f"  {label}" for label in diverged]
    return lines + summary, diverged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", type=Path)
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--tolerance", type=float, default=1e-10)
    parser.add_argument("--summary", action="store_true")
    args = parser.parse_args(argv)
    payload = json.loads(args.config.read_text())
    base, base_study, base_chains = run_checkout(
        harness.load_checkout(args.base.resolve(), "base_poismoe"), payload)
    new, new_study, new_chains = run_checkout(
        harness.load_checkout(args.new.resolve(), "new_poismoe"), payload,
        base.get(("truth", "ml")))  # made only if the fit succeeds
    lines, diverged = compare(base, new, args.tolerance)
    same_study = base_study == new_study
    lines.append("study outputs (summaries, replicate_rows, "
                 "failure_fraction): "
                 + ("bit-identical" if same_study else "differ"))
    if args.summary:
        lines += monte_carlo_summary(base_study, new_study, base_chains,
                                     new_chains)
    print("\n".join(lines))
    return 1 if diverged or not same_study else 0


if __name__ == "__main__":
    sys.exit(main())
