"""The study harness the tools under ``tools/`` share. A process imports
one checkout (``import_checkout``), so a tool compares two checkouts by
running a child process for each (``run_child``); the child runs the
checkout's replication study and watches its fits (``Study``).
"""
from __future__ import annotations

import itertools
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = str(Path(__file__).resolve())


def import_checkout(path):
    """``poismoe`` from the ``src`` of the checkout at ``path``."""
    sys.path.insert(0, str(Path(path) / "src"))
    import poismoe
    return poismoe


def run_child(script, *args) -> str:
    """Run ``python3 script args...``; its standard output. A child that
    fails raises ``subprocess.CalledProcessError``."""
    return subprocess.run([sys.executable, str(script), *map(str, args)],
                          stdout=subprocess.PIPE, text=True,
                          check=True).stdout


class Study:
    """One replication study of the package ``pm``, watched fit by fit.

    ``payload`` is a study config as ``poismoe replicate --config``
    reads it; the study runs with ``jobs`` 1 and writes no file. While
    it runs, ``label`` names the fit in progress: ``"truth"`` for the
    heart truth fit, the replicate index (a string) for a replicate's
    fits, else None. With ``truth``, a (beta, alpha) pair, the heart
    truth fit returns those coefficients, so the replicates are scored
    against them.
    """

    def __init__(self, pm, payload: dict, truth=None) -> None:
        self.pm, self.truth, self.label = pm, truth, None
        self.config = replace(pm.replication.config_from_dict(payload),
                              jobs=1, output_dir=None)

    def run(self, profile=None):
        """Run the study; return its result and every fit as
        ``(label, method, fit, note)``, in the order the study makes
        them (``fit`` None and ``note`` its reason for a failed stage).
        ``profile``, a ``sys.setprofile`` hook, sees the study alone:
        the fits are expanded after it ends, and this file's frames
        only patch and record."""
        replication = self.pm.replication
        fit_all_methods, fit_method = (replication.fit_all_methods,
                                       replication.fit_method)
        made, index = [], itertools.count()

        def watched(label, fit, *args, **kwargs):
            self.label = label
            try:
                made.append((label, fit(*args, **kwargs)))
            finally:
                self.label = None
            return made[-1][1]

        def replicate(*args, **kwargs):
            return watched(str(next(index)), fit_all_methods, *args, **kwargs)

        def truth_fit(*args, **kwargs):
            fit = watched("truth", fit_method, *args, **kwargs)
            if self.truth is None:
                return fit
            beta, alpha = self.truth
            return replace(fit, psi_hat=self.pm.Coefficients(
                beta=beta, alpha=alpha,
                reference_class=fit.psi_hat.reference_class))

        replication.fit_all_methods, replication.fit_method = (replicate,
                                                               truth_fit)
        if profile is not None:
            sys.setprofile(profile)
        try:
            result = self.pm.run_replication_study(self.config)
        finally:
            if profile is not None:
                sys.setprofile(None)
            replication.fit_all_methods, replication.fit_method = (
                fit_all_methods, fit_method)
        fits = []
        for label, made_fit in made:
            if label == "truth":
                fits.append((label, made_fit.method, made_fit, ""))
                continue
            fits += [(label, method, made_fit.fit_for(method),
                      made_fit.failures.get(method, ""))
                     for method in self.config.methods]
        return result, fits
