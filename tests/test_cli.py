import csv
import json

import numpy as np
import pytest

import poismoe as pm
from poismoe.cli import HIGH_FAILURE_EXIT, main

from conftest import single_component_data, write_heart_population
from test_heart import COMPLETE_1, COMPLETE_2, COMPLETE_3, write_heart_file
from test_poisson import poisson_mle_oracle


def write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture
def single_component_csv(tmp_path):
    data, _, _ = single_component_data(seed=5)
    path = tmp_path / "counts.csv"
    rows = [[int(data.y[i]), float(data.X[i, 1]), float(data.X[i, 1])]
            for i in range(data.n)]
    write_csv(path, ["count", "x1", "w1"], rows)
    return path, data


def test_fit_single_component_matches_oracle(tmp_path, single_component_csv):
    path, data = single_component_csv
    out = tmp_path / "out"
    rc = main(["fit", "--data", str(path), "--response", "count",
               "--x", "x1", "--omega", "w1", "--method", "ml",
               "--components", "1", "--seed", "3", "--out", str(out),
               "--epsilon", "1e-12", "--max-iters", "300", "--burn-in", "0",
               "--restarts", "1"])
    assert rc == 0
    payload = json.loads((out / "fit.json").read_text())
    oracle = poisson_mle_oracle(np.asarray(data.X), data.y.astype(float), 2)
    fitted = np.asarray(payload["beta"][0])
    assert np.max(np.abs((fitted - oracle) / oracle)) < 1e-4
    assert payload["method"] == "ml"
    assert "bic" in payload
    assert payload["converged"] and payload["restart_ends"] == ["epsilon"]


def test_fit_reports_missing_column(tmp_path, single_component_csv, capsys):
    path, _ = single_component_csv
    rc = main(["fit", "--data", str(path), "--response", "count",
               "--x", "nope", "--omega", "w1", "--components", "1",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "nope" in capsys.readouterr().err


def test_fit_rejects_malformed_csv(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("count,x1,w1\n1,0.5,0.2\noops,0.1,0.3\n")
    rc = main(["fit", "--data", str(path), "--response", "count",
               "--x", "x1", "--omega", "w1", "--components", "1",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("", "file is empty"),
    ("count,x1,w1\n", "no data rows found"),
    ("count,x1,w1\n1,0.5,0.2\n2,0.1\n",
     "line 3: expected 3 columns, found 2"),
    # a blank line is skipped, but still counts toward the line number
    ("count,x1,w1\n1,0.5,0.2\n\noops,0.1,0.3\n", "line 4: unparseable"),
], ids=["empty", "header-only", "short-row", "blank-line"])
def test_fit_refuses_a_table_it_cannot_read(tmp_path, capsys, text, message):
    path = tmp_path / "table.csv"
    path.write_text(text)
    rc = main(["fit", "--data", str(path), "--response", "count",
               "--x", "x1", "--omega", "w1", "--components", "1",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("row", ["2,nan,0.3", "2,0.1,inf", "2,-inf,0.3"])
def test_fit_rejects_non_finite_covariates(tmp_path, capsys, row):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"count,x1,w1\n1,0.5,0.2\n{row}\n")
    rc = main(["fit", "--data", str(path), "--response", "count",
               "--x", "x1", "--omega", "w1", "--components", "1",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 3" in err and "non-finite" in err


@pytest.mark.parametrize("extra, message", [
    (["fit", "--components", "0"], "at least one component"),
    (["fit", "--reference", "4"], "reference_class out of range"),
    (["fit", "--epsilon", "-1"], "epsilon must be positive"),
    (["fit", "--burn-in", "5", "--max-iters", "5"], "burn_in < max_iters"),
    (["fit", "--data", "missing.csv"], "missing.csv"),
    (["simulate", "--preset", "study1", "--rho", "1.5"], "[0, 1)"),
    (["simulate", "--preset", "study2", "--phi", "0.5"], "single correlation"),
    (["replicate", "--config", "missing.json"], "missing.json"),
    (["heart", "--data", "missing.csv"], "missing.csv"),
    (["heart", "--train-n", "0"], "train_n must be positive"),
    (["heart", "--train-n", "-5"], "train_n must be positive"),
    (["heart", "--test-n", "0"], "test_n must be positive"),
], ids=["components", "reference", "epsilon", "burn-in", "fit-data", "rho",
        "study2-phi", "config", "heart-data", "heart-train-n-0",
        "heart-train-n-negative", "heart-test-n-0"])
def test_bad_flag_values_and_missing_files_exit_with_error(
        tmp_path, monkeypatch, capsys, single_component_csv, extra, message):
    monkeypatch.chdir(tmp_path)
    argv = extra
    if extra[0] == "fit":  # a valid fit command; a later flag overrides
        path, _ = single_component_csv
        argv = ["fit", "--data", str(path), "--response", "count",
                "--x", "x1", "--omega", "w1", "--out", "o"] + extra[1:]
    elif extra[0] == "heart" and extra[1] != "--data":  # a valid file
        write_heart_file(tmp_path, [COMPLETE_1, COMPLETE_2, COMPLETE_3])
        argv = ["heart", "--data", "heart.csv", "--out", "o"] + extra[1:]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_failed_fit_prints_each_restart(tmp_path, capsys,
                                        single_component_csv):
    path, _ = single_component_csv
    rc = main(["fit", "--data", str(path), "--response", "count",
               "--x", "x1,x1", "--omega", "w1", "--components", "1",
               "--restarts", "2", "--out", str(tmp_path / "o")])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "error: all 2 restarts failed"
    assert [line.split(":")[0] for line in lines[1:]] == [
        "  restart 0", "  restart 1"]
    assert all("SingularSystem" in line for line in lines[1:])


def test_fit_rejects_negative_counts(tmp_path, capsys):
    path = tmp_path / "neg.csv"
    path.write_text("count,x1,w1\n-1,0.5,0.2\n")
    rc = main(["fit", "--data", str(path), "--response", "count",
               "--x", "x1", "--omega", "w1", "--components", "1",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


def two_component_csv(tmp_path):
    """A 150-row CSV drawn from a well-separated two-component mixture."""
    design = pm.SimulationDesign(
        n=150, beta_true=((0.0, 0.3), (3.0, -0.2)),
        alpha_true=((0.7, 0.5), (0.0, 0.0)), reference_class=1)
    data, _ = pm.simulate_dataset(design, np.random.default_rng(3))
    path = tmp_path / "mix.csv"
    rows = [[int(data.y[i]), float(data.X[i, 1]), float(data.Omega[i, 1])]
            for i in range(data.n)]
    write_csv(path, ["count", "x1", "w1"], rows)
    return path


@pytest.mark.parametrize("method, source", [("ridge", "ml"), ("lt", "ridge")])
def test_fit_writes_the_tuning_of_a_shrunk_fit(tmp_path, method, source):
    # A ridge fit takes its lambdas from the ML fit and keeps d at 0; a
    # Liu-type fit takes them from the ridge fit and retunes d, which
    # stays at or above 0.
    out = tmp_path / "out"
    rc = main(["fit", "--data", str(two_component_csv(tmp_path)),
               "--response", "count", "--x", "x1", "--omega", "w1",
               "--method", method, "--seed", "5", "--out", str(out),
               "--max-iters", "20", "--burn-in", "5", "--restarts", "1"])
    assert rc == 0
    payload = json.loads((out / "fit.json").read_text())
    assert payload["method"] == method
    tuning = payload["tuning"]
    assert tuning["source"] == source
    for block in ("beta", "alpha"):
        assert len(tuning[f"lambda_{block}"]) == 2
        assert all(lam > 0 for lam in tuning[f"lambda_{block}"])
        d = tuning[f"d_{block}"]
        assert len(d) == 2
        assert all(value == 0 if method == "ridge" else value >= 0
                   for value in d)


def test_bic_scan_selects_two_components(tmp_path):
    path = two_component_csv(tmp_path)
    out = tmp_path / "out"
    rc = main(["fit", "--data", str(path), "--response", "count",
               "--x", "x1", "--omega", "w1", "--bic-scan", "3",
               "--seed", "11", "--out", str(out),
               "--max-iters", "80", "--burn-in", "20", "--restarts", "2"])
    assert rc == 0
    scan = json.loads((out / "bic_scan.json").read_text())
    assert scan["selected_components"] == 2
    assert len(scan["scan"]) == 3


def test_bic_scan_refuses_an_empty_range(tmp_path, capsys,
                                        single_component_csv):
    path, _ = single_component_csv
    rc = main(["fit", "--data", str(path), "--response", "count",
               "--x", "x1", "--omega", "w1", "--bic-scan", "0",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "error: j_max must be at least 1, not 0\n"


@pytest.mark.parametrize("extra, message", [
    (["--bic-scan", "0"], "error: j_max must be at least 1, not 0\n"),
    (["--components", "9"],
     "error: DimensionError: fewer observations than components\n"),
    (["--bic-scan", "2", "--reference", "5"],
     "error: reference_class out of range\n"),
], ids=["bic-scan", "components", "bic-scan-reference"])
def test_a_refused_fit_leaves_no_output_directory(tmp_path, capsys, extra,
                                                 message):
    path = tmp_path / "five.csv"
    write_csv(path, ["count", "x1", "w1"],
              [[i, 0.1 * i, 0.3 * i - 0.5] for i in range(5)])
    out = tmp_path / "out"
    rc = main(["fit", "--data", str(path), "--response", "count",
               "--x", "x1", "--omega", "w1", "--out", str(out)] + extra)
    assert rc == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_a_count_past_int64_is_refused_with_no_output_directory(tmp_path,
                                                                capsys):
    path = tmp_path / "huge.csv"
    write_csv(path, ["count", "x1", "w1"],
              [["1e20" if i == 2 else i, 0.1 * i, 0.3 * i] for i in range(5)])
    out = tmp_path / "out"
    rc = main(["fit", "--data", str(path), "--response", "count",
               "--x", "x1", "--omega", "w1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: y counts must be below 2**63, the int64 range\n")
    assert not out.exists()


@pytest.mark.parametrize("column, matrix", [(1, "X"), (2, "Omega")])
def test_a_design_whose_outer_products_overflow_is_refused(tmp_path, capsys,
                                                          column, matrix):
    path = tmp_path / "huge.csv"
    rows = [[i, 0.1 * i, 0.3 * i] for i in range(5)]
    rows[2][column] = "1e200"
    write_csv(path, ["count", "x1", "w1"], rows)
    out = tmp_path / "out"
    rc = main(["fit", "--data", str(path), "--response", "count",
               "--x", "x1", "--omega", "w1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {matrix} is too large: its outer products are not finite\n")
    assert not out.exists()


def test_fit_strips_spaces_from_requested_column_names(tmp_path):
    data, _, _ = single_component_data(seed=5)
    path = tmp_path / "two.csv"
    x = data.X[:, 1]
    write_csv(path, ["count", "x1", "x2", "w1"],
              np.column_stack([data.y, x, x * x, -x]).tolist())
    outputs = []
    for tag, response, x_cols, omega in [("plain", "count", "x1,x2", "w1"),
                                         ("spaced", " count ", "x1, x2",
                                          " w1")]:
        out = tmp_path / tag
        rc = main(["fit", "--data", str(path), "--response", response,
                   "--x", x_cols, "--omega", omega,
                   "--components", "1", "--restarts", "1", "--max-iters",
                   "20", "--burn-in", "0", "--out", str(out)])
        assert rc == 0
        outputs.append((out / "fit.json").read_text())
    assert outputs[0] == outputs[1]


def test_fit_under_mean_selection_reports_the_loglik_of_its_estimate(
        tmp_path, capsys):
    # The post-burn-in mean is no iterate of the chain, so its
    # log-likelihood is not on the trace; BIC and loglik describe the
    # same estimate.
    design = pm.SimulationDesign(
        n=150, beta_true=((0.0, 0.3), (3.0, -0.2)),
        alpha_true=((0.7, 0.5), (0.0, 0.0)), reference_class=1)
    data, _ = pm.simulate_dataset(design, np.random.default_rng(3))
    path = tmp_path / "mix.csv"
    rows = [[int(data.y[i]), float(data.X[i, 1]), float(data.Omega[i, 1])]
            for i in range(data.n)]
    write_csv(path, ["count", "x1", "w1"], rows)
    out = tmp_path / "out"
    rc = main(["fit", "--data", str(path), "--response", "count",
               "--x", "x1", "--omega", "w1", "--components", "2",
               "--selection", "post_burnin_mean", "--seed", "11",
               "--out", str(out), "--max-iters", "40", "--burn-in", "10",
               "--restarts", "2"])
    assert rc == 0
    payload = json.loads((out / "fit.json").read_text())
    k = 2 * 2 + 1 * 2  # J*p + (J-1)*q
    assert payload["bic"] == -2.0 * payload["loglik"] + k * float(np.log(150))
    assert payload["loglik"] not in payload["loglik_trace"]
    assert f"(loglik {payload['loglik']:.4f}," in capsys.readouterr().out


def run_simulate(tmp_path, tag, jobs, seed=99):
    out = tmp_path / tag
    rc = main(["simulate", "--preset", "study1", "--phi", "0.9",
               "--rho", "0.85", "--n", "60", "--replicates", "4",
               "--jobs", str(jobs), "--seed", str(seed), "--out", str(out),
               "--max-iters", "30", "--burn-in", "8", "--restarts", "2"])
    assert rc in (0, 2)
    return (out / "summary.csv").read_bytes(), \
        (out / "replicates.csv").read_bytes()


def test_simulate_outputs_are_deterministic(tmp_path):
    first = run_simulate(tmp_path, "a", jobs=1)
    second = run_simulate(tmp_path, "b", jobs=1)
    assert first == second


def test_simulate_outputs_independent_of_parallelism(tmp_path):
    serial = run_simulate(tmp_path, "w1", jobs=1)
    parallel = run_simulate(tmp_path, "w2", jobs=2)
    assert serial == parallel


def test_a_study_whose_every_fit_fails_keeps_its_rows(tmp_path, capsys):
    # n=8 makes every ML system singular, so ridge and LT lack their
    # prerequisite: no method has a finite value to summarize.
    out = tmp_path / "out"
    rc = main(["simulate", "--preset", "study1", "--n", "8",
               "--replicates", "2", "--seed", "3", "--max-iters", "8",
               "--burn-in", "2", "--restarts", "1", "--out", str(out)])
    assert rc == HIGH_FAILURE_EXIT
    assert "100% of replicates failed" in capsys.readouterr().err
    with (out / "replicates.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    assert [(row["replicate"], row["method"]) for row in rows] == [
        (r, m) for r in "01" for m in ("ml", "ridge", "lt")]
    assert all(row["failed"] == "1" for row in rows)
    notes = [row["note"] for row in rows]
    assert all("SingularSystem" in note for note in notes[::3])
    assert notes[1::3] == ["prerequisite ML fit failed"] * 2
    assert notes[2::3] == ["prerequisite ridge fit failed"] * 2
    assert (out / "summary.csv").read_text().splitlines() == [
        "method,parameter_block,M,L,U,n_replicates,n_failed"]


def test_heart_study_writes_every_method_block(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["heart", "--data",
               str(write_heart_population(tmp_path / "heart.csv")),
               "--train-n", "25", "--test-n", "40", "--replicates", "2",
               "--seed", "3", "--max-iters", "8", "--burn-in", "2",
               "--restarts", "1", "--out", str(out)])
    assert rc in (0, 2)
    assert capsys.readouterr().out.startswith("loaded 80 complete rows")
    with (out / "summary.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    assert [(row["method"], row["parameter_block"]) for row in rows] == [
        (method, block) for method in pm.pipeline.METHODS
        for block in pm.replication.BLOCKS]
    assert all(row["n_replicates"] == "2" for row in rows)


def test_replicate_from_config_reproduces_run(tmp_path):
    config_path = tmp_path / "config.json"
    out_a = tmp_path / "direct"
    rc = main(["simulate", "--preset", "study1", "--phi", "0.9",
               "--rho", "0.85", "--n", "60", "--replicates", "3",
               "--jobs", "1", "--seed", "7", "--out", str(out_a),
               "--max-iters", "25", "--burn-in", "5", "--restarts", "1",
               "--save-config", str(config_path)])
    assert rc in (0, 2)
    out_b = tmp_path / "fromconfig"
    rc = main(["replicate", "--config", str(config_path),
               "--out", str(out_b)])
    assert rc in (0, 2)
    assert (out_a / "summary.csv").read_bytes() == \
        (out_b / "summary.csv").read_bytes()


def saved_study(tmp_path):
    """Run a small simulation; return its output dir and saved config dict."""
    config_path = tmp_path / "config.json"
    out = tmp_path / "direct"
    rc = main(["simulate", "--preset", "study1", "--phi", "0.9",
               "--rho", "0.85", "--n", "60", "--replicates", "2",
               "--jobs", "1", "--seed", "3", "--out", str(out),
               "--max-iters", "20", "--burn-in", "5", "--restarts", "1",
               "--save-config", str(config_path)])
    assert rc in (0, 2)
    return out, json.loads(config_path.read_text())


# SemOptions fields that configs saved by earlier versions carry, with
# the only values those versions could write (such configs also carry
# "plots": false at the top level).
RETIRED_SEM_ENTRIES = {"hard_assignment": False, "init_strategy": "random",
                       "inner_tol": 1e-8, "inner_max": 50}


def test_replicate_accepts_configs_with_retired_sem_entries(tmp_path):
    out_a, config = saved_study(tmp_path)
    for key in ("sem", "truth_sem"):
        config[key].update(RETIRED_SEM_ENTRIES)
    config["plots"] = False
    config["design"]["seed"] = 42  # any integer
    old_path = tmp_path / "old.json"
    old_path.write_text(json.dumps(config, indent=2, sort_keys=True))
    out_b = tmp_path / "fromold"
    rc = main(["replicate", "--config", str(old_path), "--out", str(out_b)])
    assert rc in (0, 2)
    for name in ("summary.csv", "replicates.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def config_case_id(block, key, value) -> str:
    """``block-key-value``, a list spelled out one level deep and a list
    inside it or a JSON object written ``[...]`` or ``{...}``, so that no
    case's id depends on its place in the list."""
    def spell(item, outer=True):
        if isinstance(item, list):
            return ("[" + ",".join(spell(inner, False) for inner in item)
                    + "]") if outer else "[...]"
        return "{...}" if isinstance(item, dict) else str(item)
    return f"{block}-{key}-{spell(value)}"


UNUSABLE_CONFIG_KEYS = [
    ("sem", "hard_assignment", True),
    ("truth_sem", "inner_max", 10),
    ("sem", "step_acceptance", "halving"),
    (None, "retune_each_iteration", True),
    (None, "plots", True),
    ("sem", "epsilon", 0),
    ("truth_sem", "burn_in", 10**6),
    (None, "replicates", 0),
    ("design", "phi", 1.5),
    ("design", "collinearity_from", "sqrt_convention"),
    ("design", "seed", 1.5),
    (None, "methods", []),
    (None, "methods", ["mle"]),
    (None, "methods", "ml"),
    # A count that is not an integer, a bool included.
    (None, "replicates", 2.5),
    (None, "jobs", 1.5),
    (None, "jobs", True),
    (None, "seed", "x"),
    (None, "validation_n", 3.5),
    (None, "train_n", 2.5),
    (None, "n_components", 2.5),
    (None, "reference_class", 0.5),
    ("design", "n", 40.5),
    ("design", "reference_class", 1.0),
    ("sem", "max_iters", 120.5),
    ("sem", "n_restarts", 1.5),
    ("sem", "burn_in", 0.5),
    ("truth_sem", "rng_seed", False),
    # An empty sample.
    (None, "train_n", 0),
    (None, "train_n", -5),
    (None, "test_n", 0),
    (None, "validation_n", 0),
    # A number as a string or a bool, which float() would take.
    ("design", "phi", "0.9"),
    ("design", "rho", False),
    ("design", "beta_true", [[1, "1.0", 2, 3, 0.5], [-1, -1, -2, -0.5, -2]]),
    ("design", "alpha_true", [[0.5, True, -1, 0.3, -3], [0, 0, 0, 0, 0]]),
    ("sem", "epsilon", True),
    ("truth_sem", "epsilon", "1e-6"),
    # A method named twice, and a path that is not a string.
    (None, "methods", ["ml", "ml"]),
    (None, "heart_path", 5),
    (None, "output_dir", 7),
    # A field of the other mode, set to other than its default; the block
    # "heart" is the top level of a heart study's config.
    (None, "heart_path", "heart.csv"),
    (None, "train_n", 20),
    (None, "test_n", 50),
    (None, "n_components", 3),
    (None, "reference_class", 1),
    (None, "slope_encoding", "dummy"),
    ("heart", "design", pm.replication.config_to_dict(pm.StudyConfig(
        mode="simulation", design=pm.study_presets("study1")))["design"]),
    ("heart", "validation_n", 50),
    # A chain seed, which a study replaces with one of its own per fit.
    ("sem", "rng_seed", 5),
    ("truth_sem", "rng_seed", 3),
]


@pytest.mark.parametrize("block, key, value", UNUSABLE_CONFIG_KEYS,
                         ids=[config_case_id(*case)
                              for case in UNUSABLE_CONFIG_KEYS])
def test_replicate_rejects_unusable_config_keys(tmp_path, capsys, block,
                                                key, value):
    config = pm.replication.config_to_dict(
        pm.StudyConfig(mode="heart", heart_path=str(tmp_path / "heart.csv"))
        if block == "heart" else
        pm.StudyConfig(mode="simulation",
                       design=pm.study_presets("study1", n=60)))
    (config if block in (None, "heart") else config[block])[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    rc = main(["replicate", "--config", str(path),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit, key", [
    (lambda config: config.pop("mode"), "mode"),
    (lambda config: config["design"].pop("n"), "design.n"),
    (lambda config: config.update(sem=[1]), "sem"),
], ids=["no-mode", "no-design-n", "sem-not-an-object"])
def test_replicate_rejects_malformed_configs(tmp_path, capsys, edit, key):
    config = pm.replication.config_to_dict(pm.StudyConfig(
        mode="simulation", design=pm.study_presets("study1", n=60)))
    edit(config)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    rc = main(["replicate", "--config", str(path),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
