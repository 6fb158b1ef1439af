"""Whole studies pinned: each study of ``tests/data/pinned_studies.json``
runs once as ``tools/work_count.py`` counts it (after a warm-up run). It
must refit to its pinned estimates and make no more Python or C calls
per SEM iteration than pinned, give or take ``MARGIN``. A rise prints the
functions whose call counts changed most; a drop, a per-call gain seen
without timing noise, passes. The counts depend on the Python and numpy
versions the fixture stores. A version bump re-pins, and so does a
change that moves estimates or work on purpose, with ``python3
tools/work_count.py --pin``; the change states what moved.
"""
import json

import numpy as np
import pytest

import poismoe as pm

import fit_compare  # from tools/, which conftest.py puts on sys.path
import work_count

FIXTURE = json.loads(work_count.PINNED.read_text())
# Integers and flags must match exactly; floats to this relative
# distance (against the largest entry of their block), so a BLAS
# rounding change passes but an estimator change does not.
RELATIVE = 1e-9
EXACT = ("replicate", "method", "error", "iterations_run",
         "selected_iteration", "converged", "n_failed_restarts", "ends")
# Counts repeat exactly from run to run in one process. From one process
# to another they may move by a few calls (the depth of the heart file's
# path): under 0.01%. One more numpy call per E-step adds about 0.2% to a
# study's C calls per iteration.
MARGIN = 0.001


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
                want = fit_compare.unhexed(pinned[key])
                scale = np.max(np.abs(want), initial=0.0)
                np.testing.assert_allclose(
                    fit_compare.unhexed(got[key]), want, rtol=0.0,
                    atol=RELATIVE * scale, err_msg=f"{label} {key}")


@pytest.fixture(scope="module", params=FIXTURE["studies"],
                ids=[study["name"] for study in FIXTURE["studies"]])
def counted(request, tmp_path_factory):
    """A pinned study and the record of its counted run."""
    study = request.param
    return study, work_count.count(pm, work_count.pinned_payload(
        study, tmp_path_factory.mktemp(study["name"])))


def test_a_pinned_study_refits_to_its_pinned_estimates(counted):
    study, record = counted
    assert_refits(record["fits"], study)


def test_a_pinned_study_makes_no_more_calls_per_iteration(counted):
    study, record = counted
    risen = [name for name in ("calls", "c_calls")
             if work_count.per_iteration(record, name)
             > (1 + MARGIN) * work_count.per_iteration(study, name)]
    assert not risen, "\n".join([
        f"{' and '.join(risen)} per iteration rose past the pinned counts "
        f"(Python {FIXTURE['python']}, numpy {FIXTURE['numpy']}); "
        "pinned then counted:", *work_count.report(study, record, 15)])
