import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qplane import axb
from qplane.contours import contour_nodes
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
            rt = axb.GAMMA.roundtrip(f, t1, t2)
            worst = max(worst, abs(rt - f(t1, t2)))
    assert worst < 1e-4


def test_intertwiner_forward_matches_grid_path():
    f = lambda t1, t2: np.exp(-t1**2 - t2**2)
    v1 = axb.intertwiner_forward(f, 0.2, 0.5, tol=1e-10)
    v2 = axb.intertwiner_forward_grid(f, np.array([0.2]), 0.5, level=3)[0]
    assert abs(v1 - v2) < 1e-9


@pytest.mark.parametrize("alpha, beta", [(0.5, 0.5), (1.0, 0.7)])
def test_gamma_forward_meets_barnes_first_lemma(alpha, beta):
    # f = Gamma(alpha + i t1) Gamma(beta + i t2) has poles at Im t1 = alpha + n and
    # Im t2 = beta + n, beyond the path's |Im| <= 0.35; Barnes' first lemma gives
    # F(lam, t) = Gamma(alpha + i lam) Gamma(beta - i lam) Gamma(alpha + beta + i t) / Gamma(alpha + beta)
    f = lambda t1, t2: gamma(alpha + 1j * np.asarray(t1)) * gamma(beta + 1j * np.asarray(t2))
    lams = np.array([-0.4, 0.0, 0.5, 1.3])

    def exact(lam, t):
        return (gamma(alpha + 1j * lam) * gamma(beta - 1j * lam) * gamma(alpha + beta + 1j * t)
                / gamma(alpha + beta))

    for t in (0.05, 0.2, 0.7, 1.2, 2.5):
        for lam in lams:
            value, _ = axb.GAMMA.forward(f, lam, t, 1e-12)
            assert abs(value - exact(lam, t)) <= 1e-13 * abs(exact(lam, t)), (lam, t)
    grid = axb.GAMMA.forward_grid(f, lams, 0.7, 2)
    ref = np.array([exact(lam, 0.7) for lam in lams])
    assert np.max(np.abs(grid - ref) / np.abs(ref)) <= 1e-14


@pytest.mark.parametrize("t", [0.05, 1e-3])
def test_forward_grid_holds_at_small_t(t):
    # the detours around the pinching pair 0, t shrink with t; the graded
    # panels shrink with them, so the fixed levels still agree
    f = lambda t1, t2: np.exp(-t1**2 - t2**2)
    lams = np.array([-0.7, 0.4, 1.3])
    l2, l3 = (axb.intertwiner_forward_grid(f, lams, t, level=lv) for lv in (2, 3))
    assert np.max(np.abs(l2 - l3)) <= 1e-10


def test_adaptive_forward_converges_at_small_t():
    f = lambda t1, t2: np.exp(-t1**2 - t2**2)
    value, err = axb.GAMMA.forward(f, 0.4, 1e-3, 1e-9)
    assert err <= 1e-9
    ref = axb.intertwiner_forward_grid(f, np.array([0.4]), 1e-3, level=4)[0]
    assert abs(value - ref) <= 1e-9


@pytest.mark.parametrize("t", [0.7 + 0.1j, 0.7 + 0.2j, 2 + 0.15j])
def test_forward_grid_holds_beside_cleared_poles(t):
    # the line passes the heads -t/2 and t/2 at |Im t|/2 (detoured below
    # 0.05, cleared above it); the panels are graded toward the cleared ones
    # from their feet
    f = lambda t1, t2: np.exp(-t1**2 - t2**2)
    lams = np.array([-0.7, 0.4, 1.3])
    l1, l6 = (axb.intertwiner_forward_grid(f, lams, t, level=lv) for lv in (1, 6))
    assert np.max(np.abs(l1 - l6)) <= 1e-13


@pytest.mark.parametrize("t", [0.2, 0.7, 1.2, -0.7, 0.7 + 0.2j, 2 + 0.15j])
def test_forward_grid_holds_on_the_doubled_panels(t):
    # past the panel cap the runs from the heads keep doubling to the end of the
    # contour; the data's bump at lam up to 5 sits on those wide panels
    f = lambda t1, t2: np.exp(-(t1**2 + t2**2) / 2) * (1 + 0.3j * t1)
    lams = 5 * np.polynomial.legendre.leggauss(48)[0]
    l6 = axb.intertwiner_forward_grid(f, lams, t, level=6)
    for level in (1, 2):
        assert np.max(np.abs(axb.intertwiner_forward_grid(f, lams, t, level=level) - l6)) <= 1e-13


def test_gamma_family_node_counts(monkeypatch):
    # deterministic work counts of the folded, graded panel table at t = 0.7:
    # 432 grid and 189 adaptive nodes (912 and 399 with every panel capped at
    # the panel cap; over the whole contour, ungraded under a cap of 0.5: 2,880 and 1,260)
    assert contour_nodes(axb.GAMMA.contour(0.7), 2)[0].size <= 500
    nodes, seen = [], []
    quad = axb.integrate_contour

    def counted(*args, **kwargs):
        res = quad(*args, **kwargs)
        nodes.append(res.n_evals)
        return res

    def f(t1, t2):
        seen.append(np.size(t1))
        return np.exp(-t1**2 - t2**2)

    monkeypatch.setattr(axb, "integrate_contour", counted)
    axb.GAMMA.forward(f, 0.4, 0.7, 1e-9)
    assert nodes[0] <= 220
    assert sum(seen) == 2 * nodes[0]  # the data at both v and -v, once per node


def test_gamma_family_sweeps_once_per_round(monkeypatch):
    # one adaptive forward call: the norm, then one gamma sweep over both of
    # the pair's factors
    calls = []
    monkeypatch.setattr(axb, "gamma", lambda z: calls.append(np.size(z)) or gamma(z))
    f = lambda t1, t2: np.exp(-t1**2 - t2**2)
    value, _ = axb.GAMMA.forward(f, 0.4, 0.7, 1e-9)
    assert len(calls) == 2 and calls[0] == 1 and calls[1] % 2 == 0
    monkeypatch.undo()
    assert value == axb.GAMMA.forward(f, 0.4, 0.7, 1e-9)[0]
