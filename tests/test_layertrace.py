"""The benchmark's layer trace (``perfbench/layertrace.py``) wraps ttiga
functions by their names, so a rename in the package must fail here rather
than only in a traced benchmark run."""

import sys
from pathlib import Path

import pytest

import ttiga.cli  # noqa: F401  (every ttiga module is loaded before the snapshot)
from ttiga import driver
from ttiga.geometry import GridEvaluator

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def layertrace(monkeypatch):
    """The module, imported without writing bytecode into ``perfbench/``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import layertrace

    return layertrace


def _snapshot():
    """Every attribute of every loaded ttiga module, and GridEvaluator's."""
    snap = {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name == "ttiga" or name.startswith("ttiga.")
    }
    snap["GridEvaluator"] = dict(vars(GridEvaluator))
    return snap


def test_tracer_wraps_and_restores(layertrace):
    before = _snapshot()
    tracer = layertrace.Tracer()
    with tracer:
        during = _snapshot()
        driver.solve_poisson(driver.SolveConfig(
            geometry="unit_cube", degree=1, elements=2, source="one"
        ))
    after = _snapshot()
    wrapped = {
        (owner, attr)
        for owner, attrs in before.items()
        for attr, value in attrs.items()
        if during[owner][attr] is not value
    }
    assert {("ttiga.driver", "solve_poisson"), ("ttiga.driver", "l2_error"),
            ("ttiga.tensor_train.amen", "tt_round"),
            ("GridEvaluator", "jacobians")} <= wrapped
    for owner, attrs in before.items():
        for attr, value in attrs.items():
            assert after[owner][attr] is value, f"{owner}.{attr} not restored"
    _, calls = tracer.totals()
    assert calls[layertrace.SOLVE] == 1
    assert calls[layertrace.AMEN] == 1
