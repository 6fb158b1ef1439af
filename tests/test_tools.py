"""Smoke tests of the comparison tools under ``tools/``: a checkout
compared with itself must report no difference, and ``fit_compare.py``
scores both checkouts of a heart study against one truth."""
import json
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import poismoe as pm
from poismoe.pipeline import METHODS

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tiny_study(tmp_path_factory):
    """A two-replicate study1 config with short chains."""
    path = tmp_path_factory.mktemp("tools") / "study.json"
    pm.save_config(pm.StudyConfig(
        mode="simulation", design=pm.study_presets("study1", n=60),
        replicates=2, seed=1,
        sem=pm.SemOptions(epsilon=1e-6, max_iters=10, burn_in=2,
                          n_restarts=1)), path)
    return path


@pytest.fixture(scope="module")
def two_restart_study(tmp_path_factory):
    """The tiny study with two restarts per fit, which run as one batch."""
    path = tmp_path_factory.mktemp("tools") / "restarts.json"
    pm.save_config(pm.StudyConfig(
        mode="simulation", design=pm.study_presets("study1", n=60),
        replicates=2, seed=1,
        sem=pm.SemOptions(epsilon=1e-6, max_iters=10, burn_in=2,
                          n_restarts=2)), path)
    return path


def run_tool(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / name), *map(str, args)],
        capture_output=True, text=True, timeout=170)


def test_fit_compare_of_a_checkout_with_itself_reads_all_identical(
        tiny_study):
    done = run_tool("fit_compare.py", tiny_study, ROOT, ROOT)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    pairs = [line for line in lines if line.split()[1] in METHODS]
    assert len(pairs) == 6
    for line in pairs:
        assert line.split()[2] == "=", line
    assert "byte-identical: 6" in lines
    assert lines[-1].endswith("bit-identical")


def test_fit_compare_summary_of_a_checkout_with_itself_reads_the_same(
        tiny_study):
    done = run_tool("fit_compare.py", tiny_study, ROOT, ROOT, "--summary")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    rows = [line for line in lines[lines.index(
        "method block M L U (base | new)") + 1:] if " | " in line]
    assert [row.split()[0] for row in rows] == [
        method for method in METHODS for _ in pm.replication.BLOCKS]
    for row in rows:
        base, new = row.split(" | ")
        assert base.split()[2:] == new.split()
    chains = [line.split() for line in lines if line.startswith("chains ")]
    assert {fields[1] for fields in chains} == set(METHODS)
    for _, method, end, base, new in chains:
        assert base == new and int(base) > 0
    for method in METHODS:  # one chain per replicate and restart
        assert sum(int(fields[3]) for fields in chains
                   if fields[1] == method) == 2


def write_heart_population(path, rows=80, seed=0):
    """A Cleveland "processed"-format file: two latent groups whose stage
    is a Poisson count in ST depression and slope, capped at 4."""
    gen = np.random.default_rng(seed)
    lines = []
    for _ in range(rows):
        sick = gen.random() < 0.45
        oldpeak = round(float(gen.gamma(2.5 if sick else 1.2, 0.7)), 1)
        slope = int(gen.integers(1, 4))
        eta = (-0.4 + 0.25 * oldpeak + 0.15 * slope if sick
               else -1.6 + 0.15 * oldpeak + 0.1 * slope)
        stage = min(4, int(gen.poisson(np.exp(eta))))
        lines.append(",".join(["63.0", "1.0", "1.0", "145.0", "233.0",
                               "1.0", "2.0", "150.0", "0.0", str(oldpeak),
                               f"{slope}.0", "0.0", "6.0", str(stage)]))
    path.write_text("\n".join(lines) + "\n")
    return path


def test_fit_compare_scores_both_checkouts_against_the_base_truth(tmp_path):
    # The variant checkout makes another heart truth fit. Its own truth
    # line shows that, but its replicates are scored against the base
    # checkout's truth, so with the same replicate fits the study outputs
    # match bit for bit.
    config = pm.replication.config_to_dict(pm.StudyConfig(
        mode="heart", heart_path=str(write_heart_population(
            tmp_path / "heart.csv")),
        train_n=25, test_n=40, replicates=2, seed=3,
        sem=pm.SemOptions(epsilon=1e-6, max_iters=8, burn_in=2,
                          n_restarts=1)))
    del config["truth_sem"]  # the checkout's _truth_fit_options applies
    config_path = tmp_path / "heart.json"
    config_path.write_text(json.dumps(config))
    variant = tmp_path / "variant"
    shutil.copytree(ROOT / "src", variant / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = variant / "src" / "poismoe" / "replication.py"
    source = module.read_text()
    default = ("SemOptions(epsilon=1e-8, max_iters=300, burn_in=100, "
               "n_restarts=4)")
    assert default in source
    module.write_text(source.replace(
        default, "SemOptions(epsilon=1e-8, max_iters=6, burn_in=1, "
                 "n_restarts=1)"))
    done = run_tool("fit_compare.py", config_path, ROOT, variant)
    assert done.returncode == 1, done.stderr  # the truth fits differ
    lines = done.stdout.strip().splitlines()
    truth = [line for line in lines if line.startswith("truth ml ")]
    assert len(truth) == 1 and truth[0].split()[2] != "=", truth
    pairs = [line for line in lines if line.split()[0] in ("0", "1")]
    assert len(pairs) == 6
    for line in pairs:
        assert line.split()[2] == "=", line
    assert lines[-1].endswith("bit-identical"), lines


def test_gate_replay_of_a_checkout_with_itself_reports_no_difference(
        tiny_study):
    done = run_tool("gate_replay.py", tiny_study, ROOT, ROOT)
    assert done.returncode == 0, done.stderr
    header, *rows, verdict = done.stdout.strip().splitlines()
    assert verdict.endswith(": yes")
    assert [row.split()[0] for row in rows] == ["ml", "ridge", "lt"]
    for row in rows:
        fields = dict(zip(header.split(), row.split()))
        assert int(fields["calls"]) > 0
        assert fields["identical"] == fields["calls"]
        for key in ("steps", "trials", "capped"):
            base, new = fields[key].split("->")
            assert base == new
        for key in ("f_gap", "f_gap_capped", "coef_gap", "prob_gap"):
            assert float(fields[key]) == 0.0


def test_fit_compare_counts_every_chain_of_a_batch(two_restart_study):
    done = run_tool("fit_compare.py", two_restart_study, ROOT, ROOT,
                    "--summary")
    assert done.returncode == 0, done.stderr
    chains = [line.split() for line in done.stdout.splitlines()
              if line.startswith("chains ")]
    for method in METHODS:  # two chains per replicate
        for side in (3, 4):
            assert sum(int(fields[side]) for fields in chains
                       if fields[1] == method) == 4


def test_gate_replay_records_each_chain_of_a_batch(two_restart_study,
                                                   tmp_path):
    # A lockstep call ascends both restarts at once; the record holds one
    # call per chain, which replays bit for bit on its own.
    record = tmp_path / "record.pkl"
    done = run_tool("gate_replay.py", "--record", ROOT, two_restart_study,
                    record)
    assert done.returncode == 0, done.stderr
    with record.open("rb") as handle:
        calls = pickle.load(handle)["calls"]
    assert calls and all(call["alpha_t"].ndim == 2
                         and call["assignment"].ndim == 1
                         and call["alpha"].shape == call["alpha_t"].shape
                         for call in calls)
    done = run_tool("gate_replay.py", two_restart_study, ROOT, ROOT)
    assert done.returncode == 0, done.stderr
    header, *rows, verdict = done.stdout.strip().splitlines()
    assert verdict.endswith(": yes")
    for row in rows:
        fields = dict(zip(header.split(), row.split()))
        assert int(fields["calls"]) > 0
        assert fields["identical"] == fields["calls"]
