"""The study harness the tools under ``tools/`` share. ``load_checkout``
loads a checkout's ``poismoe`` under a module name of its own, so every
tool runs two checkouts side by side in its own process, and none
starts a child process; ``Study`` runs a checkout's replication study
and watches its fits. A process's first study also pays Python's and
numpy's lazy imports, so a tool that counts the calls of a study
(``work_count.py``) counts it after a warm-up run of it.
"""
from __future__ import annotations

import importlib.util
import itertools
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

HERE = str(Path(__file__).resolve())


def load_checkout(path, alias: str):
    """``poismoe`` from the ``src`` of the checkout at ``path``, loaded as
    the module ``alias``, a name no loaded module has. Its relative
    imports load the checkout's own modules, as ``alias.model`` and so
    on, so no state is shared with another alias or with an imported
    ``poismoe``. ValueError if ``alias`` or one of its submodules is
    already loaded: the relative imports would reuse those modules."""
    if any(name == alias or name.startswith(alias + ".")
           for name in sys.modules):
        raise ValueError(f"a module {alias!r} is already loaded")
    init = Path(path) / "src" / "poismoe" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


class Study:
    """One replication study of the package ``pm``, watched fit by fit.

    ``payload`` is a study config as ``poismoe replicate --config``
    reads it; the study runs with ``jobs`` 1 and writes no file. With
    ``truth``, a (beta, alpha) pair, the heart truth fit returns those
    coefficients, so the replicates are scored against them.
    """

    def __init__(self, pm, payload: dict, truth=None) -> None:
        self.pm, self.truth = pm, truth
        self.config = replace(pm.replication.config_from_dict(payload),
                              jobs=1, output_dir=None)

    def run(self, profile=None):
        """Run the study; return its result and every fit as
        ``(label, method, fit, note)``, in the order the study makes
        them (``fit`` None and ``note`` its reason for a failed stage).
        ``profile``, a ``sys.setprofile`` hook, sees the study alone:
        it is set inside the fit hooks' patches, the fits are expanded
        after it ends, and this file's frames only watch and record."""
        replication = self.pm.replication
        fit_all_methods, fit_method = (replication.fit_all_methods,
                                       replication.fit_method)
        made, index = [], itertools.count()

        def watched(label, fit, *args, **kwargs):
            made.append((label, fit(*args, **kwargs)))
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

        with mock.patch.multiple(replication, fit_all_methods=replicate,
                                 fit_method=truth_fit):
            if profile is not None:
                sys.setprofile(profile)
            try:
                result = self.pm.run_replication_study(self.config)
            finally:
                if profile is not None:
                    sys.setprofile(None)
        fits = []
        for label, made_fit in made:
            if label == "truth":
                fits.append((label, made_fit.method, made_fit, ""))
                continue
            fits += [(label, method, made_fit.fit_for(method),
                      made_fit.failures.get(method, ""))
                     for method in self.config.methods]
        return result, fits
