"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/spread.py --label baseline --seeds 0-9 --seconds 40 \
        --workloads study2 heart30 --trace 0

For every workload and metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median. The summary,
every run's output and the machine environment are written to
``perfbench/results/BENCH_<label>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas[key].get("name") + " " + str(blas[key].get("version"))
                 for key in ("blas", "lapack")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) > 1:
        low, _, high = statistics.quantiles(values, n=4)
    else:
        low = high = median
    return {"median": median, "q1": low, "q3": high,
            "spread": (high - low) / median if median else None,
            "n": len(values)}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    runs: dict[str, list[dict]] = {}
    summary: dict[str, dict] = {}
    for workload in args.workloads:
        runs[workload] = []
        for seed in parse_seeds(args.seeds):
            command = [sys.executable, str(HERE / "run.py"), "--workload",
                       workload, "--seed", str(seed), "--seconds",
                       str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(command, capture_output=True, text=True,
                                  cwd=HERE.parent)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result.update(seed=seed, exit_code=done.returncode)
            runs[workload].append(result)
            print(workload, seed, done.returncode,
                  {k: round(v["value"], 4)
                   for k, v in result["metrics"].items()}, flush=True)
        names = runs[workload][0]["metrics"]
        summary[workload] = {
            name: summarize([r["metrics"][name]["value"]
                             for r in runs[workload]])
            for name in names}
        for name, stats in summary[workload].items():
            print(f"  {workload:8s} {name:28s} median={stats['median']:.5g} "
                  f"spread={stats['spread']}", flush=True)
    out = HERE / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({
        "label": args.label, "seconds": args.seconds, "trace": args.trace,
        "seeds": parse_seeds(args.seeds), "environment": environment(),
        "summary": summary, "runs": runs}, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
