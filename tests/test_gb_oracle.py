"""G_b against an independent mpmath oracle (scripts/make_fixtures.py)."""

import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qplane.qdilog as qd
from qplane.modular import from_b

from test_qdilog import FIXTURE_DIGITS

mp = pytest.importorskip("mpmath")

_spec = importlib.util.spec_from_file_location(
    "make_fixtures", Path(__file__).resolve().parents[1] / "scripts" / "make_fixtures.py")
make_fixtures = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_fixtures)


def _oracle_gb(w: complex, b: float) -> complex:
    with mp.workdps(30):
        return complex(make_fixtures.gb(mp.mpc(w), mp.mpf(b)))


def _assert_within_estimate(w: complex, b: float, tol: float):
    g = qd.gb(w, from_b(b), tol)
    ref = _oracle_gb(w, b)
    assert abs(g.value - ref) <= g.err_estimate + 1e-13 * abs(ref)


@settings(max_examples=30, deadline=None)
@given(b=st.floats(0.5, 2.0), frac=st.floats(0.0, 1.0, exclude_max=True),
       im=st.floats(-2.0, 2.0), tol=st.sampled_from([1e-8, 1e-10, 1e-12]))
def test_gb_error_estimate_bounds_oracle(b, frac, im, tol):
    # w in the base window 1/(2b) <= Re w < 1/(2b) + b, where no
    # functional-equation shift applies
    _assert_within_estimate(complex(0.5 / b + frac * b, im), b, tol)


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_gb_error_estimate_shifted_point(tol):
    # one shift out of the base window, |G_b| ~ 120
    _assert_within_estimate(1.826 - 1.318j, 0.5, tol)


def test_make_fixtures_reproduces_frozen_values():
    for name, (re, im) in FIXTURE_DIGITS.items():
        v = make_fixtures.fixture(name)
        with mp.workdps(make_fixtures.DPS):
            assert abs(v - mp.mpc(re, im)) < mp.mpf("1e-20"), name
