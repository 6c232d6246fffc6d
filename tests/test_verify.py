"""The tolerance rule of ``run_suite`` and the r-ladder flag of the limit checks."""

import pytest

from qplane.verify import _ladder, decreasing_with_floor, run_suite


def test_ladder_flags_every_point():
    table = {"a": [0.4, 0.2, 0.1], "b": [3.0, 2.0, 1.0]}
    residual = lambda key, r: table[key][r]
    rec = _ladder("limit decreasing", "2 points", residual, [("a",), ("b",)], range(3))
    assert rec == {"name": "limit decreasing", "params": "2 points",
                   "residual": 0.0, "tol": 0.5, "pass": True}
    table["b"] = [3.0, 2.0, 2.5]  # one point rises at the last rung
    rec = _ladder("limit decreasing", "2 points", residual, [("a",), ("b",)], range(3))
    assert rec["residual"] == 1.0 and rec["pass"] is False


def test_decreasing_with_floor():
    assert decreasing_with_floor([1e-2, 1e-3, 1e-4])
    assert not decreasing_with_floor([1e-2, 1e-3, 1e-3])
    # a pair below the 1e-9 floor has converged, in either order
    assert decreasing_with_floor([1e-2, 1e-10, 5e-10, 2e-10])
    assert not decreasing_with_floor([1e-2, 1e-10, 2e-9])
    assert not decreasing_with_floor([1e-10, 5e-10], floor=2e-10)


@pytest.mark.parametrize("tol", [1e-30, 0.9])
def test_given_tol_replaces_every_record_tol(tol):
    records = run_suite("limits", tol=tol)
    assert len(records) == 21
    for rec in records:
        assert rec["tol"] == tol and rec["pass"] == (rec["residual"] < tol)
    assert sum(not rec["pass"] for rec in records) == (13 if tol == 1e-30 else 0)
