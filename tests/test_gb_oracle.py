"""G_b against an independent mpmath oracle (scripts/make_fixtures.py)."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qplane.qdilog as qd
from qplane.modular import from_b, from_b2

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


@settings(max_examples=12, deadline=None)
@given(b=st.floats(0.5, 2.0), x=st.floats(0.1, 6.5), sign=st.sampled_from([-1.0, 1.0]),
       tol=st.sampled_from([1e-10, 1e-12]))
def test_gb_kernel_sweep_arguments_bound_oracle(b, x, sign, tol):
    # w = i x, the arguments of the kernel sweeps, |Re z| up to 6.5 (w = 0 is a
    # pole); the point alone forms every e^{2i y z}, repeated 24 times it takes
    # the exponential table
    w = complex(0.0, sign * x)
    p = from_b(b)
    g = qd.gb(w, p, tol)
    ref = _oracle_gb(w, b)
    for v in (g.value, qd.gb_many(np.full(24, w), p, tol)[0]):
        assert abs(v - ref) <= g.err_estimate + 1e-13 * abs(ref)


def _oracle_product(x: complex, b: complex) -> complex:
    """zeta_b_bar (e^{2 pi i(x/b - 1/b^2)}; qtilde^2)_inf / (e^{2 pi i b x}; q^2)_inf
    as direct products at 40 digits, each run until its term is below 1e-45; b is
    the double the evaluator holds, so both see the same parameter."""
    with mp.workdps(40):
        b, x = mp.mpc(b), mp.mpc(x)
        b2 = b * b

        def poch(a, lq):
            out, m = mp.mpf(1), 0
            while abs(term := mp.exp(a + m * lq)) >= mp.mpf("1e-45"):
                out *= 1 - term
                m += 1
            return out

        zeta_bar = mp.exp(-1j * mp.pi / 4 - 1j * mp.pi / 12 * (b2 + 1 / b2))
        num = poch(2j * mp.pi * (x / b - 1 / b2), -2j * mp.pi / b2)
        return complex(zeta_bar * num / poch(2j * mp.pi * b * x, 2j * mp.pi * b2))


@settings(max_examples=12, deadline=None)
@given(b2=st.one_of(st.floats(1e-3, 0.1).map(lambda r: 1j * r),
                    st.sampled_from([0.3 + 0.4j, 0.1 + 0.3j])),
       re=st.floats(0.5, 1.5), im=st.floats(0.0, 0.3), tol=st.sampled_from([1e-10, 1e-13]))
def test_gb_product_error_estimate_bounds_oracle(b2, re, im, tol):
    # x = b u with u in the limits suite's box, along b^2 = i r and at generic b^2
    p = from_b2(b2)
    x = p.b * complex(re, im)
    g = qd.gb(x, p, tol)
    assert g.backend == "product"
    ref = _oracle_product(x, p.b)
    assert abs(g.value - ref) <= g.err_estimate + 1e-13 * abs(ref)


def test_make_fixtures_reproduces_frozen_values():
    for name, (re, im) in FIXTURE_DIGITS.items():
        v = make_fixtures.fixture(name)
        with mp.workdps(make_fixtures.DPS):
            assert abs(v - mp.mpc(re, im)) < mp.mpf("1e-20"), name
