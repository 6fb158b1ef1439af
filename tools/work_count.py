"""Count the function calls a replication study makes in two checkouts.

    python3 tools/work_count.py CONFIG.json BASE_CHECKOUT NEW_CHECKOUT \
        [--top 15]

CONFIG.json is a study config as ``poismoe replicate --config`` reads
it. The study runs once per checkout (``harness.Study``), each in a
fresh child process (``work_count.py --count CHECKOUT CONFIG.json``
loads the checkout and prints one JSON record): a process's first study
also pays Python's and numpy's lazy imports, so it counts far more
calls than any later one. A ``sys.setprofile`` hook counts every
Python-level ``call`` event and every C-level ``c_call`` event of the
study, by function; events in the frames of this file and of
``harness.py`` are left out. The counts see calls, not arithmetic, and
repeat exactly from run to run, so they resolve a change in per-call
overhead that timing cannot. The report gives, base then new and the
relative change,

    calls, c_calls       totals over the study,
    iterations           the SEM iterations of its fits (each fit's
                         ``iterations_run``; ``truth`` is the heart
                         truth fit), in total and by method,
    calls/iteration, c_calls/iteration,

and then the ``--top`` functions whose call counts differ most, as
``py FILE:FUNCTION`` or ``c MODULE.FUNCTION`` with both counts. A
checkout compared with itself reads equal counts and no function.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import harness

HERE = str(Path(__file__).resolve())


def count(checkout: Path, config_path: Path) -> int:
    """Child mode: run the study under the counting hook, print its
    record."""
    pm = harness.load_checkout(checkout, "poismoe")
    study = harness.Study(pm, json.loads(config_path.read_text()))
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

    _, fits = study.run(profile=hook)
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
    print(json.dumps({"calls": python_calls.total(),
                      "c_calls": c_calls.total(),
                      "iterations": dict(iterations),
                      "functions": dict(functions)}))
    return 0


def run_child(*args) -> str:
    """``python3 work_count.py args...``'s standard output."""
    return subprocess.run([sys.executable, HERE, *map(str, args)],
                          stdout=subprocess.PIPE, text=True,
                          check=True).stdout


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
        a, b = (side[name] / max(total, 1) for side, total
                in zip((base, new), iterations))
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
    if argv and argv[0] == "--count":
        return count(Path(argv[1]).resolve(), Path(argv[2]))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", type=Path)
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--top", type=int, default=15)
    args = parser.parse_args(argv)
    base, new = (json.loads(run_child("--count", path.resolve(), args.config))
                 for path in (args.base, args.new))
    print("\n".join(report(base, new, args.top)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
