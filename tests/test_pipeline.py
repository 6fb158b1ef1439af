import numpy as np
import pytest

import poismoe as pm

from conftest import single_component_data


def collinear_data():
    """One-component data whose design repeats a column: every ML solve
    is singular, while the ridge and Liu-type systems are not."""
    data, _, _ = single_component_data(seed=3, n=40)
    X = np.column_stack([data.X, data.X[:, 1]])
    return pm.Dataset(y=data.y, X=X, Omega=data.Omega)


OPTS = pm.SemOptions(epsilon=1e-8, max_iters=6, burn_in=1, n_restarts=2)
SPEC = pm.MixtureSpec(n_components=1)


def test_failed_stage_is_recorded_with_every_stage_after_it():
    result = pm.fit_all_methods(collinear_data(), SPEC, OPTS,
                                raise_on_failure=False)
    assert (result.ml, result.ridge, result.lt) == (None, None, None)
    singular = ("SingularSystem: weighted system is not (numerically) "
                "positive definite; at lambda=0 use the ridge or Liu-type "
                "estimator")
    assert result.failures == {
        "ml": (f"FitFailed: all 2 restarts failed | restart 0: {singular}"
               f" | restart 1: {singular}"),
        "ridge": "prerequisite ML fit failed",
        "lt": "prerequisite ridge fit failed",
    }


def test_failed_stage_raises_by_default():
    with pytest.raises(pm.FitFailed):
        pm.fit_method(collinear_data(), SPEC, OPTS, "lt")


def test_stages_run_up_to_the_last_requested_method():
    data, _, _ = single_component_data(seed=4)
    result = pm.fit_all_methods(data, SPEC, OPTS, methods=("ridge",))
    assert result.ml is not None and result.ridge is not None
    assert result.lt is None and result.failures == {}
    assert result.ridge.tuning.source == "ml"
    lt = pm.fit_method(data, SPEC, OPTS, "lt")
    assert lt.tuning.source == "ridge"
    with pytest.raises(ValueError, match="unknown method"):
        pm.fit_method(data, SPEC, OPTS, "lasso")
