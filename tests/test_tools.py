"""Smoke tests of the comparison tools under ``tools/``: a checkout
compared with itself must report no difference, ``fit_compare.py``
scores both checkouts of a heart study against one truth and counts
the end of every restart of a batch, ``work_count.py`` sees one extra
call per E-step and no garbage-collector callback and tells a pin's
moved estimates from its other record changes, and the study
harness they share restores what it patches, loads two checkouts that
share no module state and refuses to load a name twice. The end types
of each pinned fit, a failed stage's read from its note, are checked
in ``test_pinned_fits.py``."""
import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import poismoe as pm
from poismoe.pipeline import METHODS

from conftest import write_heart_population
from test_pinned_fits import FIXTURE, assert_refits

import fit_compare  # from tools/, which conftest.py puts on sys.path
import harness
import work_count

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


def work_counts(*args):
    """``work_count.py``'s report as {figure: [base, new, change]}, and
    its lines."""
    done = run_tool("work_count.py", *args)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return {line.split()[0]: line.split()[1:] for line in lines}, lines


def test_work_count_of_a_checkout_with_itself_reads_equal_counts(tiny_study):
    figures, lines = work_counts(tiny_study, ROOT, ROOT)
    for name in ("calls", "c_calls", "iterations", "iterations:lt",
                 "calls/iteration", "c_calls/iteration"):
        base, new, change = figures[name]
        assert base == new and change == "+0.00%", name
    assert int(figures["calls"][0]) > 0 and int(figures["iterations"][0]) > 0
    assert lines[-1] == "functions whose call counts differ: 0"


def test_work_count_reads_one_more_c_call_per_e_step(tiny_study, tmp_path):
    variant = tmp_path / "variant"
    shutil.copytree(ROOT / "src", variant / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = variant / "src" / "poismoe" / "model.py"
    source = module.read_text()
    first_line = "    log_terms, norms = _log_terms(data, psi, log_pi)\n"
    assert source.count(first_line) == 1
    module.write_text(source.replace(first_line,
                                     "    np.empty(0)\n" + first_line))
    figures, lines = work_counts(tiny_study, ROOT, variant)
    e_steps = work_count.count(pm, json.loads(tiny_study.read_text()))[
        "functions"]["py model.py:e_step"]
    calls, c_calls, iterations, per_iteration = (
        [float(value) for value in figures[name][:2]] for name in
        ("calls", "c_calls", "iterations", "c_calls/iteration"))
    assert calls[0] == calls[1] and iterations[0] == iterations[1]
    assert c_calls[1] - c_calls[0] == e_steps > iterations[0]
    assert (per_iteration[1] - per_iteration[0]
            == pytest.approx(e_steps / iterations[0], abs=0.01))
    empty = [line.split() for line in lines if line.startswith("  ")]
    assert [fields[:2] for fields in empty] == [["c", "numpy.empty"]]
    assert int(empty[0][3]) - int(empty[0][2]) == e_steps


def test_a_pin_tells_moved_estimates_from_other_record_changes():
    fits = FIXTURE["studies"][0]["fits"]
    assert work_count.fit_changes(fits, fits) == (0, 0)
    # A field added to every record moves no estimate.
    grown = [dict(fit, added=True) for fit in fits]
    assert work_count.fit_changes(fits, grown) == (0, len(fits))
    fitted = next(i for i, fit in enumerate(fits) if "beta" in fit)
    moved = [dict(fit) for fit in fits]
    moved[fitted]["beta"] = fit_compare.hexed([[0.5]])
    assert work_count.fit_changes(fits, moved) == (1, 1)
    assert work_count.fit_changes(fits, fits[:-1]) == (1, 1)


def test_work_count_leaves_out_a_garbage_collector_callback(tiny_study):
    # hypothesis installs a callback like this one in the tier-1 process;
    # its calls must not reach the counts. A warm study collects seldom,
    # so a low threshold makes it collect.
    payload = json.loads(tiny_study.read_text())
    threshold, phases = gc.get_threshold(), []
    gc.set_threshold(50)
    try:
        plain = work_count.count(pm, payload)
        gc.callbacks.append(lambda phase, info: phases.append(phase))
        try:
            watched = work_count.count(pm, payload)
        finally:
            gc.callbacks.pop()
    finally:
        gc.set_threshold(*threshold)
    assert phases  # collections ran in the warm-up study
    assert watched["functions"] == plain["functions"]


def test_the_harness_restores_the_fit_hooks_after_a_failed_study(tmp_path):
    # Tier-1 runs pinned studies in its own process, so a study that
    # raises must not leave the harness's wrappers in the package, nor
    # its profile hook on the interpreter.
    replication = pm.replication
    originals = (replication.fit_all_methods, replication.fit_method)
    study = harness.Study(pm, {"mode": "heart",
                               "heart_path": str(tmp_path / "none.csv")})
    events = []
    with pytest.raises(FileNotFoundError):
        study.run(profile=lambda frame, event, arg: events.append(event))
    assert events and sys.getprofile() is None
    assert replication.fit_all_methods is originals[0]
    assert replication.fit_method is originals[1]


def test_two_aliases_of_one_checkout_share_no_module_state(tmp_path):
    # With one Newton step per gate M-step in one alias, that alias
    # refits the pinned study2_j3 to other estimates, while the other
    # alias of the same sources, and the imported package, still refit
    # it to the pinned ones.
    imported = sys.modules["poismoe"]
    changed = harness.load_checkout(ROOT, "poismoe_changed")
    kept = harness.load_checkout(ROOT, "poismoe_kept")
    assert sys.modules["poismoe"] is imported
    assert changed.gating is not kept.gating
    study = next(study for study in FIXTURE["studies"]
                 if study["name"] == "study2_j3")
    payload = work_count.pinned_payload(study, tmp_path)

    def refit(package):  # the fit records, in fit order
        return list(fit_compare.run_checkout(package, payload)[0].values())

    inner_max, changed.gating.INNER_MAX = changed.gating.INNER_MAX, 1
    try:
        moved = refit(changed)
        assert_refits(refit(kept), study)
        assert_refits(refit(pm), study)
    finally:
        changed.gating.INNER_MAX = inner_max
    with pytest.raises(AssertionError):
        assert_refits(moved, study)


def test_a_loaded_alias_is_not_loaded_again():
    # Loaded again under a name in use, a checkout's relative imports
    # would reuse the modules of the first load, so a tool would compare
    # the first checkout with itself.
    harness.load_checkout(ROOT, "poismoe_twice")
    with pytest.raises(ValueError, match="poismoe_twice"):
        harness.load_checkout(ROOT, "poismoe_twice")
    del sys.modules["poismoe_twice"]  # its submodules are still loaded
    with pytest.raises(ValueError, match="poismoe_twice"):
        harness.load_checkout(ROOT, "poismoe_twice")
