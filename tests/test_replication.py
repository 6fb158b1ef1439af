"""Replication harness: each replicate's rows as scored, in replicate
order, written to ``replicates.csv`` as proper CSV; a config's JSON
integers load as numbers."""
import csv
import json
from dataclasses import replace

import poismoe as pm
from poismoe import replication
from poismoe.errors import NumericalFailure

# Replicate 2's Liu-type fit ends FitFailed under these settings.
STUDY = pm.StudyConfig(
    mode="simulation", design=pm.study_presets("study1", n=60),
    replicates=4, seed=3,
    sem=pm.SemOptions(epsilon=1e-6, max_iters=25, burn_in=5, n_restarts=1))


def test_rows_and_failures_do_not_depend_on_jobs():
    serial = pm.run_replication_study(STUDY)
    parallel = pm.run_replication_study(replace(STUDY, jobs=2))
    assert [(row["replicate"], row["method"])
            for row in serial.replicate_rows] == [
        (index, method) for index in range(4) for method in STUDY.methods]
    assert serial.failure_fraction == 0.25
    # repr compares the floats bit for bit, NaN included.
    assert repr(serial.replicate_rows) == repr(parallel.replicate_rows)
    assert serial.failure_fraction == parallel.failure_fraction


def test_note_with_comma_and_quote_survives_replicates_csv(tmp_path,
                                                          monkeypatch):
    score, calls = replication.sqrt_mse, []

    def failing_once(*args):
        calls.append(args)
        if len(calls) == 1:
            raise NumericalFailure('a, "b"')
        return score(*args)

    monkeypatch.setattr(replication, "sqrt_mse", failing_once)
    config = replace(STUDY, replicates=2, methods=("ml",),
                     output_dir=str(tmp_path))
    result = pm.run_replication_study(config)
    with result.replicates_path.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows[0]["note"] == 'scoring failed: a, "b"'
    assert rows[0]["failed"] == "1"
    assert rows == [{key: str(value) for key, value in row.items()}
                    for row in result.replicate_rows]


def test_the_config_loader_takes_json_integers_for_numbers():
    config = json.loads(json.dumps(replication.config_to_dict(STUDY)))
    config["design"].update(phi=0, rho=0)
    config["design"]["beta_true"][1][0] = config["sem"]["epsilon"] = 1
    loaded = replication.config_from_dict(config)
    assert (loaded.design.phi, loaded.design.beta_true[1][0],
            loaded.sem.epsilon) == (0.0, 1.0, 1.0)
