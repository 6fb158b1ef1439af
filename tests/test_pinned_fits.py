"""Whole fits pinned: three small studies refit to the estimates stored in
``tests/data/pinned_fits.json``, so an unintended estimate change fails
tier-1. A change that moves estimates on purpose rewrites the fixture
with ``python3 tools/fit_compare.py --pin``."""
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import poismoe as pm

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))  # fit_compare imports harness
_spec = importlib.util.spec_from_file_location(
    "fit_compare", ROOT / "tools" / "fit_compare.py")
fit_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fit_compare)

FIXTURE = json.loads(fit_compare.PINNED.read_text())
# Integers and flags must match exactly; floats to this relative
# distance (against the largest entry of their block), so a BLAS
# rounding change passes but an estimator change does not.
RELATIVE = 1e-9
EXACT = ("replicate", "method", "error", "iterations_run",
         "selected_iteration", "converged", "n_failed_restarts")


def unhexed(values) -> np.ndarray:
    return np.frompyfunc(float.fromhex, 1, 1)(np.array(values)).astype(float)


def assert_refits(fits: list[dict], study: dict) -> None:
    """``fits``, the records of a refit of ``study``, match its pinned
    fits."""
    assert len(fits) == len(study["fits"])
    for got, pinned in zip(fits, study["fits"]):
        assert got.keys() == pinned.keys()
        label = f"{pinned['replicate']} {pinned['method']}"
        for key in EXACT:
            assert got.get(key) == pinned.get(key), (label, key)
        for key in ("beta", "alpha", "d"):
            if key in pinned:
                want = unhexed(pinned[key])
                scale = np.max(np.abs(want), initial=0.0)
                np.testing.assert_allclose(
                    unhexed(got[key]), want, rtol=0.0,
                    atol=RELATIVE * scale, err_msg=f"{label} {key}")


@pytest.mark.parametrize("study", FIXTURE["studies"],
                         ids=[study["name"] for study in FIXTURE["studies"]])
def test_a_pinned_study_refits_to_its_pinned_estimates(study, tmp_path):
    assert_refits(fit_compare.pinned_fits(pm, study, tmp_path), study)
