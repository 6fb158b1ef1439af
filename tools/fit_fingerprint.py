"""Print a sha256 fingerprint of every fit a replication study makes.

    python3 tools/fit_fingerprint.py CONFIG.json

CONFIG.json is a study config as ``poismoe replicate --config`` reads
it. The study runs in this process (``jobs`` is forced to 1) with the
``poismoe`` sources of this checkout. Each line is

    <replicate> <method> <sha256>

where ``<replicate>`` is ``truth`` for the heart truth fit. The hash
covers ``psi_hat`` (beta, alpha, reference class), ``loglik_trace``,
``selected_iteration``, ``iterations_run``, ``converged`` and, for the
Liu-type fit, the d values of its tuning, all as raw bytes; a failed
fit hashes its failure note. Two checkouts whose outputs are equal made
byte-identical fits.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import poismoe as pm  # noqa: E402


def fit_digest(fit) -> str:
    digest = hashlib.sha256()
    psi = fit.psi_hat
    arrays = [psi.beta, psi.alpha, fit.loglik_trace]
    if fit.method == "lt":
        arrays += [fit.tuning.d_beta, fit.tuning.d_alpha]
    for array in arrays:
        array = np.ascontiguousarray(array, dtype=float)
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    digest.update(repr((psi.reference_class, fit.selected_iteration,
                        fit.iterations_run, bool(fit.converged))).encode())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", type=Path)
    args = parser.parse_args(argv)
    config = replace(pm.load_config(args.config), jobs=1, output_dir=None)
    lines: list[str] = []
    index = itertools.count()
    replication = pm.replication
    fit_all_methods, fit_method = (replication.fit_all_methods,
                                   replication.fit_method)

    def record(label: str, method: str, fit, note: str) -> None:
        value = (fit_digest(fit) if fit is not None else
                 hashlib.sha256(note.encode()).hexdigest())
        lines.append(f"{label} {method} {value}")

    def replicate(*call_args, **kwargs):
        result = fit_all_methods(*call_args, **kwargs)
        label = str(next(index))
        for method in kwargs["methods"]:
            record(label, method, result.fit_for(method),
                   result.failures.get(method, "failed"))
        return result

    def truth(*call_args, **kwargs):
        fit = fit_method(*call_args, **kwargs)
        record("truth", call_args[3], fit, "")
        return fit

    replication.fit_all_methods, replication.fit_method = replicate, truth
    pm.run_replication_study(config)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
