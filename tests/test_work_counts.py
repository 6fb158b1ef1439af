"""Work pinned: the three studies of the pinned-fit fixture, counted as
``tools/work_count.py`` counts them (after a warm-up run), make no more
Python or C calls per SEM iteration than ``tests/data/work_counts.json``
stores, give or take ``MARGIN``. A rise fails tier-1 and prints the
functions whose call counts changed most. A drop passes; it is evidence
of a per-call gain without timing noise.

The counts depend on the Python and numpy versions that made them, which
the file stores: a version bump re-pins, and so does a change that alters
the work on purpose, with ``python3 tools/work_count.py --pin``; the
change states the new counts.
"""
import json
import sys
from pathlib import Path

import pytest

import poismoe as pm

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import fit_compare  # noqa: E402  (tools/ is not a package)
import work_count  # noqa: E402

PINNED = json.loads(work_count.PINNED.read_text())
FIXTURE = {study["name"]: study
           for study in json.loads(fit_compare.PINNED.read_text())["studies"]}
# Counts repeat exactly from run to run in one process. From one process
# to another they may move by a few calls (the depth of the heart file's
# path, a garbage-collector callback that another library installed):
# under 0.01%. One more numpy call per E-step adds about 0.2% to a
# study's C calls per iteration.
MARGIN = 0.001


@pytest.mark.parametrize("pinned", PINNED["studies"],
                         ids=[study["name"] for study in PINNED["studies"]])
def test_a_pinned_study_makes_no_more_calls_per_iteration(pinned, tmp_path):
    counted = work_count.count(pm, fit_compare.pinned_payload(
        FIXTURE[pinned["name"]], tmp_path))
    iterations = [sum(record["iterations"].values())
                  for record in (pinned, counted)]
    risen = [name for name in ("calls", "c_calls")
             if counted[name] / iterations[1]
             > (1 + MARGIN) * pinned[name] / iterations[0]]
    assert not risen, "\n".join([
        f"{' and '.join(risen)} per iteration rose past the pinned counts "
        f"(Python {PINNED['python']}, numpy {PINNED['numpy']}); "
        "pinned then counted:", *work_count.report(pinned, counted, 15)])
