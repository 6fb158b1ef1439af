"""Count the function calls a replication study makes in two checkouts.

    python3 tools/work_count.py CONFIG.json BASE_CHECKOUT NEW_CHECKOUT \
        [--top 15]
    python3 tools/work_count.py --pin

CONFIG.json is a study config as ``poismoe replicate --config`` reads
it. Both checkouts are loaded into this process under names of their
own (``harness.load_checkout``), and each runs the study twice
(``harness.Study``): once as a warm-up, then under a ``sys.setprofile``
hook that counts every Python-level ``call`` event and every C-level
``c_call`` event of the study, by function (``count``); events in the
frames of this file and of ``harness.py`` are left out. A process's
first study also pays Python's and numpy's lazy imports: on heart30
(seed 0, 10 replicates) it reads 811,544 Python and 1,138,707 C calls,
and every run after it 799,266 and 1,117,959. The counts see calls,
not arithmetic, and repeat exactly from run to run, so they resolve a
change in per-call overhead that timing cannot. The report gives, base
then new and the relative change,

    calls, c_calls       totals over the study,
    iterations           the SEM iterations of its fits (each fit's
                         ``iterations_run``; ``truth`` is the heart
                         truth fit), in total and by method,
    calls/iteration, c_calls/iteration,

and then the ``--top`` functions whose call counts differ most, as
``py FILE:FUNCTION`` or ``c MODULE.FUNCTION`` with both counts. A
checkout compared with itself reads equal counts and no function.

``--pin`` rewrites the pinned-study fixture
``tests/data/pinned_studies.json``, which ``tests/test_pinned_fits.py``
checks. For each study it names (a study config, and for a heart study
the rows of its population file) it stores the record ``count`` makes
of it with this checkout's sources: the call counts and every fit's
``fit_compare.record``, the heart truth fit's included. It stores the
Python and numpy versions too, since the counts depend on them. One
line per study counts the fits whose estimates moved and those whose
record changed at all (``fit_changes``), and gives the calls per
iteration, pinned then counted.
"""
from __future__ import annotations

import argparse
import gc
import itertools
import json
import platform
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

import fit_compare
import harness

HERE = str(Path(__file__).resolve())
PINNED = Path(HERE).parents[1] / "tests/data/pinned_studies.json"


def pinned_payload(study: dict, workdir: Path) -> dict:
    """A pinned study's config, its heart rows written into ``workdir``."""
    payload = dict(study["config"])
    if "heart_rows" in study:
        payload["heart_path"] = str(workdir / f"{study['name']}.csv")
        Path(payload["heart_path"]).write_text(
            "\n".join(study["heart_rows"]) + "\n")
    return payload


def count(pm, payload: dict) -> dict:
    """Run the study ``payload`` with the package ``pm``, once as the
    warm-up and once under the counting hook, with ``gc.callbacks``
    emptied until it ends and the garbage left before it collected
    first; the counted run's record:
    its call totals, its iterations by method, its calls by function and
    its fit records in fit order."""
    harness.Study(pm, payload).run()
    study = harness.Study(pm, payload)
    python_calls: Counter = Counter()
    c_calls: Counter = Counter()

    def hook(frame, event, arg):
        if frame.f_code.co_filename in (HERE, harness.HERE):
            return
        if event == "call":
            python_calls[frame.f_code] += 1
        elif event == "c_call":
            c_calls[(getattr(arg, "__module__", None),
                     getattr(arg, "__qualname__", repr(arg)))] += 1

    # A garbage-collector callback of another library (hypothesis
    # installs one) would add its calls whenever a collection runs, and
    # garbage left by earlier code (a suspended hypothesis generator)
    # would add its finalizer's calls to whichever run collects it.
    callbacks, gc.callbacks[:] = gc.callbacks[:], []
    gc.collect()
    try:
        _, fits = study.run(profile=hook)
    finally:
        gc.callbacks[:] = callbacks
    iterations: Counter = Counter()
    for label, method, fit, _ in fits:
        iterations["truth" if label == "truth" else method] += (
            0 if fit is None else fit.iterations_run)
    functions = Counter()
    for code, calls in python_calls.items():
        functions[f"py {Path(code.co_filename).name}:{code.co_qualname}"] \
            += calls
    for (module, name), calls in c_calls.items():
        functions[f"c {module + '.' if module else ''}{name}"] += calls
    return {"calls": python_calls.total(), "c_calls": c_calls.total(),
            "iterations": dict(iterations),
            "functions": dict(sorted(functions.items())),
            "fits": [fit_compare.record(*fit) for fit in fits]}


def per_iteration(record: dict, name: str) -> float:
    """A record's ``name`` (``calls`` or ``c_calls``) per SEM iteration;
    0 for a pinned study not counted yet."""
    iterations = sum(record.get("iterations", {}).values())
    return record.get(name, 0) / max(iterations, 1)


# The record fields of a fit's estimates; the other fields say how its
# chains ran.
ESTIMATES = ("beta", "alpha", "d")


def fit_changes(pinned: list[dict], counted: list[dict]) -> tuple[int, int]:
    """How many of the ``counted`` fit records moved an estimate against
    the ``pinned`` ones, and how many differ in any field; a fit that
    only one side has counts in both."""
    pairs = list(itertools.zip_longest(pinned, counted))
    return (sum(None in (a, b) or any(a.get(key) != b.get(key)
                                      for key in ESTIMATES)
                for a, b in pairs),
            sum(a != b for a, b in pairs))


def pin() -> int:
    """``--pin``: run the fixture's studies with this checkout's sources
    and rewrite ``PINNED``."""
    pm = harness.load_checkout(PINNED.parents[2], "pinned_poismoe")
    fixture = json.loads(PINNED.read_text())
    fixture.update(python=platform.python_version(), numpy=np.__version__)
    with tempfile.TemporaryDirectory() as tmp:
        for study in fixture["studies"]:
            record = count(pm, pinned_payload(study, Path(tmp)))
            moved, changed = fit_changes(study.get("fits", []),
                                         record["fits"])
            print(f"{study['name']}: {len(record['fits'])} fits, "
                  f"{moved} estimates moved, {changed} records changed; "
                  + "; ".join(
                      f"{name}/iteration {per_iteration(study, name):.2f} -> "
                      f"{per_iteration(record, name):.2f}"
                      for name in ("calls", "c_calls")))
            study.update(record)
    # One line per innermost list keeps the fixture's diffs readable.
    text = re.sub(r"\[[^\[\]{}]*\]",
                  lambda match: re.sub(r"\s*\n\s*", "", match.group(0)),
                  json.dumps(fixture, indent=1))
    PINNED.write_text(text + "\n")
    return 0


def change(base: float, new: float) -> str:
    return f"{(new - base) / base:+.2%}" if base else "-"


def report(base: dict, new: dict, top: int) -> list[str]:
    lines = ["figure base new change"]
    iterations = [sum(side["iterations"].values()) for side in (base, new)]
    for name in ("calls", "c_calls"):
        lines.append(f"{name} {base[name]} {new[name]} "
                     f"{change(base[name], new[name])}")
    lines.append(f"iterations {iterations[0]} {iterations[1]} "
                 f"{change(*iterations)}")
    for method in dict.fromkeys([*base["iterations"], *new["iterations"]]):
        a, b = base["iterations"].get(method, 0), new["iterations"].get(
            method, 0)
        lines.append(f"iterations:{method} {a} {b} {change(a, b)}")
    for name in ("calls", "c_calls"):
        a, b = (per_iteration(side, name) for side in (base, new))
        lines.append(f"{name}/iteration {a:.2f} {b:.2f} {change(a, b)}")
    a, b = base["functions"], new["functions"]
    differ = sorted((name for name in a.keys() | b.keys()
                     if a.get(name, 0) != b.get(name, 0)),
                    key=lambda name: (-abs(b.get(name, 0) - a.get(name, 0)),
                                      name))
    lines.append(f"functions whose call counts differ: {len(differ)}")
    lines += [f"  {name} {a.get(name, 0)} {b.get(name, 0)}"
              for name in differ[:top]]
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--pin"]:
        return pin()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", type=Path)
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--top", type=int, default=15)
    args = parser.parse_args(argv)
    payload = json.loads(args.config.read_text())
    base, new = (count(harness.load_checkout(path.resolve(), alias), payload)
                 for path, alias in ((args.base, "base_poismoe"),
                                     (args.new, "new_poismoe")))
    print("\n".join(report(base, new, args.top)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
