import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qplane import axb
from qplane.errors import DomainError
from qplane.gammafn import gamma


def test_act_point_examples():
    f = lambda x: np.exp(-x)
    # identity element
    g0 = axb.GroupElement(1.0, 0.0)
    assert abs(axb.act_point(g0, axb.R_PLUS, f, 1.3) - f(1.3)) == 0.0
    # pure dilation
    g = axb.GroupElement(2.0, 0.0)
    assert abs(axb.act_point(g, axb.R_PLUS, f, 1.0) - np.exp(-2)) < 1e-15
    # full formula
    g = axb.GroupElement(2.0, 3.0)
    assert abs(axb.act_point(g, axb.R_PLUS, f, 1.0) - np.exp(-3j) * np.exp(-2)) < 1e-15
    # transpose form acts by the inverse element
    gt = axb.GroupElement(2.0, 3.0, "transpose")
    assert abs(axb.act_point(gt, axb.R_PLUS, f, 1.0) - np.exp(1.5j) * np.exp(-0.5)) < 1e-15


@settings(max_examples=25, deadline=None)
@given(
    a1=st.floats(0.2, 4.0), s1=st.floats(-2.0, 2.0),
    a2=st.floats(0.2, 4.0), s2=st.floats(-2.0, 2.0),
    x=st.floats(0.1, 5.0),
)
def test_group_law_exact(a1, s1, a2, s2, x):
    f = lambda y: np.exp(-y) * (1 + y)
    g1, g2 = axb.GroupElement(a1, s1), axb.GroupElement(a2, s2)
    lhs = axb.act_point(g1, axb.R_PLUS, lambda y: axb.act_point(g2, axb.R_PLUS, f, y), x)
    rhs = axb.act_point(g1.compose(g2), axb.R_PLUS, f, x)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_act_mellin_dilation_is_exact_phase():
    F = lambda z: gamma(1 + 1j * np.asarray(z, dtype=complex))
    g = axb.GroupElement(1.5, 0.0)
    expect = 1.5 ** (-0.3j) * gamma(1 + 0.3j)
    assert abs(axb.act_mellin(g, axb.R_PLUS, F, 0.3) - expect) < 1e-14


def test_act_mellin_route_equivalence():
    # point route in closed form: f = x e^{-x} maps to a Gamma(1+iw)/(a+iv)^{1+iw}
    F = lambda z: gamma(1 + 1j * np.asarray(z, dtype=complex))
    g = axb.GroupElement(1.5, 0.7)
    route_b = axb.act_mellin(g, axb.R_PLUS, F, 0.3)
    route_a = 1.5 * gamma(1 + 0.3j) / (1.5 + 0.7j) ** (1 + 0.3j)
    assert abs(route_a - route_b) / abs(route_a) < 1e-6


def test_act_mellin_composition():
    F = lambda z: gamma(1 + 1j * np.asarray(z, dtype=complex))
    g1, g2 = axb.GroupElement(1.2, 0.5), axb.GroupElement(0.8, -0.3)

    def inner(z):
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        return np.array([axb.act_mellin(g2, axb.R_PLUS, F, zz, tol=1e-9) for zz in z])

    lhs = axb.act_mellin(g1, axb.R_PLUS, inner, 0.3, tol=1e-7, truncation=16.0)
    rhs = axb.act_mellin(g1.compose(g2), axb.R_PLUS, F, 0.3)
    assert abs(lhs - rhs) / abs(rhs) < 1e-6


def test_act_mellin_branch_guard():
    F = lambda z: gamma(1 + 1j * np.asarray(z, dtype=complex))
    # unitary labels put the phase base on the imaginary axis; a general
    # label can land it on the cut: lam = 1, shift > 0 gives base = -shift/a
    g = axb.GroupElement(1.0, -1.0)
    val = axb.act_mellin(g, axb.R_PLUS, F, 0.2)
    assert np.isfinite(val.real)
    with pytest.raises(DomainError):
        axb.act_mellin(axb.GroupElement(1.0, 1.0), axb.RepLabel(lam=1.0), F, 0.2)


def test_character_action():
    F = lambda z: gamma(1 + 1j * np.asarray(z, dtype=complex))
    g = axb.GroupElement(2.0, 0.4)
    lab = axb.RepLabel(rho=0.9)
    assert abs(axb.act_mellin(g, lab, F, 0.3) - 2.0 ** (0.9j) * gamma(1 + 0.3j)) < 1e-14


def test_decompose_examples():
    # ratio variable
    F = axb.decompose("pp", lambda a, b: a / b)
    assert abs(F(3.0, 5.0) - 3.0) < 1e-15
    # sum variable
    F = axb.decompose("pp", lambda a, b: np.exp(-a - b))
    assert abs(F(3.0, 5.0) - np.exp(-5.0)) < 1e-16
    # round trip
    f = lambda x1, x2: x1 * np.exp(-x1**2 - x2**2)
    xs = np.linspace(0.3, 2.5, 7)
    X1, X2 = np.meshgrid(xs, xs)
    fr = axb.recompose("pp", axb.decompose("pp", f))
    assert np.max(np.abs(fr(X1, X2) - f(X1, X2))) < 1e-12


def test_decompose_pm():
    f = lambda x1, x2: x1 * np.exp(-x1**2 - x2**2)
    F = axb.decompose("pm", f)
    fr = axb.recompose("pm", F)
    xs = np.linspace(0.3, 2.5, 7)
    X1, X2 = np.meshgrid(xs, xs + 0.05)
    assert np.max(np.abs(fr(X1, X2) - f(X1, X2))) < 1e-12
    with pytest.raises(DomainError):
        F(1.0 + 1e-10, 2.0)


def test_decompose_rho_shift():
    F = axb.decompose("rho", lambda w: np.exp(-w**2), rho=0.7)
    assert abs(F(1.0) - np.exp(-0.3**2)) < 1e-15
    fr = axb.recompose("rho", F, rho=0.7)
    assert abs(fr(1.0) - np.exp(-1.0)) < 1e-15


def test_classical_kernel_relations():
    k_f = axb.classical_kernel("floor", 0.4, 1.0, 2.0)
    k_c = axb.classical_kernel("ceil", 0.4, 1.0, 2.0)
    assert abs(k_c - np.conj(k_f)) < 1e-15
    k_s = axb.classical_kernel("floor", -0.4, 2.0, 1.0)
    assert abs(abs(k_f) ** 2 - abs(k_s) ** 2) < 1e-15 * abs(k_f) ** 2


def test_intertwiner_roundtrip():
    f = lambda t1, t2: np.exp(-t1**2 - t2**2)
    worst = 0.0
    for t1 in (0.3, 0.6, 0.9):
        for t2 in (0.4, 0.7, 1.0):
            rt = axb.intertwiner_roundtrip(f, t1, t2, tol=1e-8)
            worst = max(worst, abs(rt - f(t1, t2)))
    assert worst < 1e-4


def test_intertwiner_forward_matches_grid_path():
    f = lambda t1, t2: np.exp(-t1**2 - t2**2)
    v1 = axb.intertwiner_forward(f, 0.2, 0.5, tol=1e-10)
    v2 = axb.intertwiner_forward_grid(f, np.array([0.2]), 0.5, level=3)[0]
    assert abs(v1 - v2) < 1e-9
