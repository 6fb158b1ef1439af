"""Compare every fit a replication study makes in two checkouts.

    python3 tools/fit_compare.py CONFIG.json BASE_CHECKOUT NEW_CHECKOUT \
        [--tolerance 1e-10] [--summary]

CONFIG.json is a study config as ``poismoe replicate --config`` reads
it. The study runs once per checkout, each in a child process
(``fit_compare.py --dump CHECKOUT CONFIG.json [TRUTH.json]``, which
prints one JSON record per fit, then one with the study's
``summaries``, ``replicate_rows`` and ``failure_fraction``, then one
with the count of chain ends per method) that imports ``poismoe``
from that checkout's ``src``; ``jobs`` is forced to 1. The base
checkout runs first. A heart study's truth is itself an ML fit, so the
new checkout scores its replicates against the base checkout's truth
fit (TRUTH.json, its record), and both checkouts are judged against one
truth; the new checkout's own truth fit is still made and reported.
Fits are paired by replicate and method (``truth`` is the heart truth
fit). For each pair one line reports

    <replicate> <method> <relative difference> <iterations> <selected> <converged>

where the relative difference is max |new - base| / max |base| over the
beta and alpha coefficients (and, for Liu-type, the d values of its
tuning, taken apart), and each of the other three fields reads ``same``
or ``base->new``. ``=`` replaces the difference when the two fits are
byte-identical: beta, alpha, ``loglik_trace``, the Liu-type d values,
``iterations_run``, ``selected_iteration`` and ``converged`` all match
bit for bit. A summary counts the byte-identical pairs, the pairs
within 1e-10 and 1e-6, and lists the pairs that diverged: a failure in
only one checkout, another iteration count, selected iteration or
convergence flag, or a relative difference above ``--tolerance``. A
last line says whether the study outputs match bit for bit. The exit
code is 1 if any pair diverged or the study outputs differ. Two
checkouts make byte-identical fits when every line reads ``=``.

``--summary`` adds the Monte-Carlo view of the two runs. One line per
method and block of the study ``summaries``

    <method> <block> <M> <L> <U> | <M> <L> <U>

gives the median and the 5th/95th percentiles over the replicates, base
then new. One line per method and chain end

    chains <method> <end> <base count> <new count>

counts how the chains of every restart ended: ``epsilon`` (the
log-likelihood stop), ``cap`` (``max_iters``) or the type of the
interruption, such as ``EmptyPartition``; ``truth`` counts the heart
truth fit's chains.
"""
from __future__ import annotations

import argparse
import itertools
import json
import subprocess
import sys
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

BINS = (1e-10, 1e-6)
# Record entries that a byte-identical pair matches bit for bit.
BITWISE = ("beta", "alpha", "loglik_trace", "d", "iterations_run",
           "selected_iteration", "converged")


def dump(checkout: Path, config_path: Path,
         truth_path: Path | None = None) -> int:
    """Child mode: run the study with ``checkout``'s sources, print one
    JSON record per fit. With ``truth_path``, the record of another
    checkout's truth fit, the replicates are scored against its
    coefficients instead of this checkout's own truth fit."""
    sys.path.insert(0, str(checkout / "src"))
    import poismoe as pm

    pinned = (None if truth_path is None
              else json.loads(truth_path.read_text()))

    config = replace(pm.load_config(config_path), jobs=1, output_dir=None)
    index = itertools.count()
    replication = pm.replication
    fit_all_methods, fit_method = (replication.fit_all_methods,
                                   replication.fit_method)

    def record(label: str, method: str, fit, note: str) -> None:
        entry = {"replicate": label, "method": method, "ok": fit is not None}
        if fit is None:
            entry["note"] = note
        else:
            entry.update(
                beta=fit.psi_hat.beta.tolist(),
                alpha=fit.psi_hat.alpha.tolist(),
                loglik_trace=fit.loglik_trace.tolist(),
                iterations_run=int(fit.iterations_run),
                selected_iteration=int(fit.selected_iteration),
                converged=bool(fit.converged))
            if fit.method == "lt":
                entry["d"] = (fit.tuning.d_beta.tolist()
                              + fit.tuning.d_alpha.tolist())
        print(json.dumps(entry), flush=True)

    def replicate(*call_args, **kwargs):
        result = fit_all_methods(*call_args, **kwargs)
        label = str(next(index))
        for method in kwargs["methods"]:
            record(label, method, result.fit_for(method),
                   result.failures.get(method, "failed"))
        return result

    in_truth = [False]
    chain_ends: dict[str, dict[str, int]] = {}

    def truth(*call_args, **kwargs):
        in_truth[0] = True
        try:
            fit = fit_method(*call_args, **kwargs)
        finally:
            in_truth[0] = False
        record("truth", call_args[3], fit, "")
        if pinned is not None:
            fit = replace(fit, psi_hat=pm.Coefficients(
                beta=pinned["beta"], alpha=pinned["alpha"],
                reference_class=fit.psi_hat.reference_class))
        return fit

    def count(outcome, method: str) -> None:
        end = ("epsilon" if outcome.converged else
               outcome.interruption.split(":")[0] if outcome.interruption
               else "cap")
        ends = chain_ends.setdefault("truth" if in_truth[0] else method, {})
        ends[end] = ends.get(end, 0) + 1

    # The batched driver returns every restart's outcome of a fit; a
    # checkout from before it ran one ``_run_chain`` call per restart.
    # Both take the method as their fourth argument.
    batched = hasattr(pm.sem, "_run_chains")
    name = "_run_chains" if batched else "_run_chain"
    run_chains = getattr(pm.sem, name)

    def counted_chains(*call_args, **kwargs):
        outcomes = run_chains(*call_args, **kwargs)
        for outcome in (outcomes if batched else [outcomes]):
            count(outcome, call_args[3])
        return outcomes

    replication.fit_all_methods, replication.fit_method = replicate, truth
    setattr(pm.sem, name, counted_chains)
    result = pm.run_replication_study(config)
    # json writes each float as its shortest round-trip repr, so equal
    # records mean bit-equal values.
    print(json.dumps({"study": {
        "summaries": [[method, block, asdict(summary)]
                      for method, block, summary in result.summaries],
        "replicate_rows": result.replicate_rows,
        "failure_fraction": result.failure_fraction}}))
    print(json.dumps({"chains": chain_ends}))
    return 0


def run_checkout(checkout: Path, config_path: Path,
                 truth_path: Path | None = None) -> tuple[dict, str, dict]:
    """The checkout's fits by (replicate, method), its study record and
    its chain ends by method; ``truth_path`` pins the heart truth."""
    pin = [] if truth_path is None else [str(truth_path)]
    done = subprocess.run(
        [sys.executable, __file__, "--dump", str(checkout), str(config_path),
         *pin], capture_output=True, text=True, check=True)
    fits, study, chains = {}, "", {}
    for line in done.stdout.splitlines():
        if line.startswith('{"study"'):
            study = line
        elif line.startswith('{"chains"'):
            chains = json.loads(line)["chains"]
        elif line.startswith("{"):
            entry = json.loads(line)
            fits[(entry["replicate"], entry["method"])] = entry
    return fits, study, chains


def monte_carlo_summary(base_study: str, new_study: str, base_chains: dict,
                        new_chains: dict) -> list[str]:
    """The ``--summary`` lines: M/L/U per method and block, base | new,
    then chain ends per method."""
    def by_key(study: str) -> dict:
        summaries = json.loads(study)["study"]["summaries"] if study else []
        return {(method, block): summary
                for method, block, summary in summaries}

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


def same_bits(a, b) -> bool:
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


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
        if a is None or b is None or not (a["ok"] and b["ok"]):
            status = ("missing" if a is None or b is None else
                      "both failed" if not (a["ok"] or b["ok"]) else
                      "failed in base" if not a["ok"] else "failed in new")
            lines.append(f"{label} {status}")
            if status != "both failed":
                diverged.append(label)
            continue
        coef_a = np.concatenate([np.ravel(a["beta"]), np.ravel(a["alpha"])])
        coef_b = np.concatenate([np.ravel(b["beta"]), np.ravel(b["alpha"])])
        identical = all(same_bits(a.get(key, ()), b.get(key, ()))
                        for key in BITWISE)
        rel = relative_difference(coef_a, coef_b)
        fields = []
        for name in ("iterations_run", "selected_iteration", "converged"):
            same = a[name] == b[name]
            fields.append("same" if same else f"{a[name]}->{b[name]}")
        text = "=" if identical else f"{rel:.2e}"
        if "d" in a:
            d_rel = relative_difference(np.array(a["d"]), np.array(b["d"]))
            text += f" d:{d_rel:.2e}"
        lines.append(f"{label} {text} " + " ".join(fields))
        if identical:
            counts["identical"] += 1
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
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "--dump":
        truth_path = Path(argv[3]) if len(argv) > 3 else None
        return dump(Path(argv[1]).resolve(), Path(argv[2]), truth_path)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", type=Path)
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--tolerance", type=float, default=1e-10)
    parser.add_argument("--summary", action="store_true")
    args = parser.parse_args(argv)
    base, base_study, base_chains = run_checkout(args.base.resolve(),
                                                 args.config)
    with tempfile.TemporaryDirectory() as tmp:
        truth_path = None
        truth = base.get(("truth", "ml"))
        if truth is not None and truth["ok"]:
            truth_path = Path(tmp) / "truth.json"
            truth_path.write_text(json.dumps(truth))
        new, new_study, new_chains = run_checkout(args.new.resolve(),
                                                  args.config, truth_path)
    lines, diverged = compare(base, new, args.tolerance)
    same_study = bool(base_study) and base_study == new_study
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
