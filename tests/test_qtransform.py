import tracemalloc

import numpy as np
import pytest

import qplane.qdilog as qd
from qplane import axb
from qplane import qtransform as qt
from qplane.contours import contour_nodes
from qplane.modular import from_b, from_b2

P08 = from_b(0.8)
GAUSS = lambda a, b: np.exp(-a**2 - b**2)


def test_fourier_kernel_conjugation():
    for (lam, t1, t2) in [(0.3, 0.8, 1.1), (0.5, 1.0, 1.5), (-0.4, 0.6, 0.9)]:
        kf = qt.q_kernel("F_floor_star", (lam, t1, t2), P08).value
        kc = qt.q_kernel("F_ceil_star", (lam, t1, t2), P08).value
        assert abs(kc - np.conj(kf)) / abs(kf) < 1e-10


def test_fourier_kernel_fixture_value():
    # composition of integral-backend evaluations; regression-pinned
    v = qt.q_kernel("F_floor_star", (0.3, 0.8, 1.1), P08).value
    w = (qd.gb(-1j * 0.8 + 1j * 0.3, P08).value * qd.gb(-1j * 1.1 - 1j * 0.3, P08).value
         / qd.gb(-1j * 1.9, P08).value * np.exp(1j * np.pi * 0.3 * (0.3 - 1.6)))
    assert abs(v - w) < 1e-12 * abs(v)


def test_plain_kernel_display_equality():
    # floor = zeta_bar e^{...}/G_b(Q+ix-ix2) equals the reflection-expanded
    # form zeta_bar e^{...} e^{i pi (x2-x)^2} e^{pi Q (x-x2)} G_b(i x2 - i x)
    alpha, x, x1, x2 = 0.3, 0.7, 0.2, 1.1
    lhs = qt.q_kernel("floor", (alpha, x, x1, x2), P08).value
    rhs = (P08.zeta_b_bar * np.exp(2j * np.pi * (x - x1) * (x2 - x1 + alpha))
           * np.exp(1j * np.pi * (x2 - x) ** 2) * np.exp(np.pi * P08.Q * (x - x2))
           * qd.gb(1j * x2 - 1j * x, P08).value)
    assert abs(lhs - rhs) / abs(lhs) < 1e-10


def test_starred_kernels_unimodular_factors():
    args = (0.3, 0.7, 0.2, 1.1)
    for plain, star in (("floor", "floor_star"), ("ceil", "ceil_star")):
        ratio = qt.q_kernel(star, args, P08).value / qt.q_kernel(plain, args, P08).value
        assert abs(abs(ratio) - 1.0) < 1e-10


def test_forward_linearity():
    f1, f2 = GAUSS, lambda a, b: a * np.exp(-a**2 - b**2 + 0.2 * b)
    s1 = qt.apply_q_forward(f1, 0.2, 0.5, P08)
    s2 = qt.apply_q_forward(f2, 0.2, 0.5, P08)
    s12 = qt.apply_q_forward(lambda a, b: f1(a, b) + f2(a, b), 0.2, 0.5, P08)
    assert abs(s12 - s1 - s2) < 1e-12 * abs(s12)


def test_forward_decay_in_lam():
    assert abs(qt.apply_q_forward(GAUSS, 8.0, 0.5, P08)) < 1e-6


def test_forward_fixture_against_fine_quadrature():
    coarse = qt.apply_q_forward(GAUSS, 0.2, 0.5, P08, tol=1e-7)
    fine = qt.q_forward_grid(GAUSS, np.array([0.2]), 0.5, P08, level=3)[0]
    assert abs(coarse - fine) < 1e-7


def test_roundtrip_single_point():
    rt = qt.q_roundtrip(GAUSS, 0.4, 0.6, P08)
    assert abs(rt - GAUSS(0.4, 0.6)) < 1e-9


@pytest.mark.parametrize("family", ["gamma", "gb"])
def test_roundtrip_reproduces_the_data(family):
    # the level-1 inverse over the level-1 forward grid, on verify's 9-point grid
    kernel = axb.GAMMA if family == "gamma" else qt.gb_family(P08, 1e-9)
    f = lambda t1, t2: np.exp(-t1**2 - t2**2)
    for t1 in (0.3, 0.6, 0.9):
        for t2 in (0.4, 0.7, 1.0):
            assert abs(kernel.roundtrip(f, t1, t2) - f(t1, t2)) < 1e-12


def test_roundtrip_memory_stays_per_lambda():
    # the forward grid is contracted in blocks of lam rows, never as the whole
    # (lam nodes) x (u nodes) tensor (about 100 MB when it was)
    tracemalloc.start()
    try:
        qt.q_roundtrip(GAUSS, 0.4, 0.6, P08)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_inverse_via_forward_callable():
    phi = lambda lam, t: qt.q_forward_grid(GAUSS, lam, t, P08)
    v = qt.gb_family(P08, 1e-7).inverse(phi, 0.4, 0.6, 1e-7)[0]
    assert abs(v - GAUSS(0.4, 0.6)) < 1e-6


@pytest.mark.parametrize("family, kind, level", [
    ("gamma", "floor", 2), ("gamma", "ceil", 2), ("gb", "floor", 1), ("gb", "ceil", 1)])
def test_point_kernels_are_the_transform_integrands(family, kind, level):
    # sum of weight * pointwise kernel * data over the separating contour's
    # nodes reproduces the fixed-node transform of the same family
    if family == "gamma":
        kernel = axb.GAMMA
        point = lambda lam, t1, t2: axb.classical_kernel(kind, lam, t1, t2)
    else:
        kernel = qt.gb_family(P08, 1e-9)
        point = lambda lam, t1, t2: qt.q_kernel(f"F_{kind}_star", (lam, t1, t2), P08, 1e-9).value
    def both_halves(s):
        # the centered variable s/2 + v and s/2 - v over the nodes v of the
        # half contour, each with the node's quadrature weight
        v, w = contour_nodes(kernel.contour(s), level=level)
        return np.concatenate([s / 2 + v, s / 2 - v]), np.concatenate([w, w])

    if kind == "floor":
        lam, t = 0.3, 0.9
        u, w = both_halves(t)
        direct = sum(wk * point(lam, t - uk + lam, uk - lam) * GAUSS(t - uk + lam, uk - lam)
                     for uk, wk in zip(u, w))
        ref = (axb.intertwiner_forward_grid(GAUSS, np.array([lam]), t, level) if family == "gamma"
               else qt.q_forward_grid(GAUSS, np.array([lam]), t, P08, 1e-9, level))[0]
    else:
        t1, t2 = 0.4, 0.6
        mu, w = both_halves(-(t1 + t2))
        direct = sum(wk * point(mk + t1, t1, t2) * GAUSS(mk + t1, t1 + t2) for mk, wk in zip(mu, w))
        ref = kernel.inverse_grid(GAUSS, t1, t2, level)
    assert abs(direct - ref) <= 1e-12 * abs(ref)


def test_kernel_limit_monotone():
    for variant in ("floor", "ceil"):
        vals = [qt.kernel_limit_residual(0.5, 1.0, 1.5, r, variant=variant)
                for r in (0.1, 0.05, 0.025)]
        assert vals[0] > vals[1] > vals[2]
        assert qt.kernel_limit_residual(0.5, 1.0, 1.5, 1e-3, variant=variant) < 1e-2


@pytest.mark.parametrize("p", [P08, from_b(1.2), from_b2(0.3 + 0.4j)], ids=["b=0.8", "b=1.2", "b2=0.3+0.4i"])
def test_kernel_estimate_is_the_factors_relative_estimates(p):
    # each kind's G_b factors, at the arguments the kernel forms them
    def factors(kind, args):
        if kind.startswith("F_"):
            x, y, s = axb.KernelFamily.point_args(qt._FOURIER_KINDS[kind], *args)
            return [1j * x, -1j * y, -1j * s]
        alpha, x, x1, x2 = args
        zs = [p.Q + 1j * x - 1j * x2] if kind.startswith("floor") else [1j * x - 1j * x2]
        return zs + [p.Q / 2 + 1j * alpha] if kind.endswith("_star") else zs

    for kind in ("F_floor_star", "F_ceil_star", "floor", "ceil", "floor_star", "ceil_star"):
        args = (0.3, 0.8, 1.1) if kind.startswith("F_") else (0.3, 0.7, 0.2, 1.1)
        k = qt.q_kernel(kind, args, p)
        gs = [qd.gb(z, p) for z in factors(kind, args)]
        expected = sum(g.err_estimate / abs(g.value) for g in gs) * abs(k.value)
        assert abs(k.err_estimate - expected) <= 1e-12 * expected, kind
        backends = {g.backend for g in gs}
        assert k.backend == ("functional-continuation" if "functional-continuation" in backends
                             else gs[0].backend)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        qt.q_kernel("nope", (0.1, 0.2, 0.3), P08)


@pytest.mark.parametrize("t", [0.05, 1e-3])
def test_q_forward_grid_holds_at_small_t(t):
    lams = np.array([-0.7, 0.4, 1.3])
    l1, l2 = (qt.q_forward_grid(GAUSS, lams, t, P08, level=lv) for lv in (1, 2))
    assert np.max(np.abs(l1 - l2)) <= 1e-10


DOUBLED_F = lambda t1, t2: np.exp(-(t1**2 + t2**2) / 2) * (1 + 0.3j * t1)
DOUBLED_LAMS = 4.5 * np.polynomial.legendre.leggauss(48)[0]


@pytest.mark.parametrize("t", [0.2, 0.5, 1.0, 1.4, 2.5, 4.0])
def test_q_forward_grid_holds_on_the_doubled_panels(t):
    # from |t| = 1 on the detours at +-t/2 are at least 0.25 wide, and the
    # runs from them double out to T; pole spacings 0.5, 0.8 and 0.625
    for p in (from_b(0.5), P08, from_b(1.6)):
        l4 = qt.q_forward_grid(DOUBLED_F, DOUBLED_LAMS, t, p, level=4)
        for level in (1, 2):
            l = qt.q_forward_grid(DOUBLED_F, DOUBLED_LAMS, t, p, level=level)
            assert np.max(np.abs(l - l4)) <= 1e-13, (p.b, level)


@pytest.mark.parametrize("t", [1.0, 2.5, 4.0])
def test_apply_q_forward_holds_on_the_doubled_panels(t):
    # the adaptive rule starts from the same graded level-0 panels
    for p in (from_b(0.5), P08, from_b(1.6)):
        l4 = qt.q_forward_grid(DOUBLED_F, DOUBLED_LAMS, t, p, level=4)
        for i in (0, 10, 24, 40):
            v = qt.apply_q_forward(DOUBLED_F, DOUBLED_LAMS[i], t, p, tol=1e-10)
            assert abs(v - l4[i]) <= 1e-12, (p.b, DOUBLED_LAMS[i])


def test_gb_family_grid_node_count():
    # the half contour at the benchmark's usual t, its runs doubling out to
    # T and back to v = 0 (624 with every panel capped at 0.25); at t = 1.4
    # the detours are 0.35 wide, and the ends are still graded (168 nodes,
    # 576 under a cap of 0.25)
    kernel = qt.gb_family(P08, 1e-8)
    assert contour_nodes(kernel.contour(0.5), 1)[0].size == 216
    assert contour_nodes(kernel.contour(1.4), 1)[0].size <= 216


@pytest.mark.parametrize("t", [1.0, 1.4, 2.5])
def test_gb_family_node_counts_past_t_1(t, monkeypatch):
    # detour radius min(0.35, t/4) >= 0.25: under the shared panel cap the
    # ends are still graded, so 168, 147 and 168 adaptive nodes (504 with
    # the ends ungraded under a cap of 0.25)
    nodes = []
    quad = axb.integrate_contour

    def counted(*args, **kwargs):
        res = quad(*args, **kwargs)
        nodes.append(res.n_evals)
        return res

    monkeypatch.setattr(axb, "integrate_contour", counted)
    qt.apply_q_forward(GAUSS, 0.4, t, P08)
    assert nodes[0] <= 210


@pytest.mark.parametrize("family", ["gamma", "gb"])
def test_weight_is_even_in_the_midpoint_variable(family):
    # W(v) = K(i v - i s/2) K(-i v - i s/2) / norm(s) = W(-v): the fold's premise
    kernel = axb.GAMMA if family == "gamma" else qt.gb_family(P08, 1e-10)
    rng = np.random.default_rng(5)
    for s in (0.7, 1.3 - 0.2j, 0.4 + 0.3j):
        v = rng.uniform(-4, 4, 40) + 1j * rng.uniform(-0.3, 0.3, 40)
        w = kernel.weight(s)
        assert np.max(np.abs(w(-v) - w(v)) / np.abs(w(v))) <= 1e-14


def _forward_grid_per_lambda(kernel, f, lams, t, level):
    """forward_grid as one np.sum per lam over both halves of the contour."""
    v, wq = contour_nodes(kernel.contour(t), level=level)
    g = kernel.weight(t)(v) * wq
    u, g = np.concatenate([t / 2 + v, t / 2 - v]), np.concatenate([g, g])
    out = []
    for lam in np.asarray(lams, dtype=complex):
        gl = g * kernel.forward_phase(lam, u, t) if kernel.forward_phase else g
        out.append(np.sum(gl * f(t - u + lam, u - lam)))
    return np.array(out)


@pytest.mark.parametrize("family", ["gamma", "gb"])
@pytest.mark.parametrize("t", [0.6, 1.4, 0.7 + 0.1j])
def test_forward_grid_blocks_keep_the_per_lambda_bits(family, t):
    # the (lam, node) blocks sum each row as the per-lam np.sum does; 336 lam
    # (a round trip's count) span several blocks, and most m end in a partial one
    kernel = axb.GAMMA if family == "gamma" else qt.gb_family(P08, 1e-9)
    f = lambda t1, t2: np.exp(-(t1**2 + t2**2) / 2) * (1 + 0.3j * t1)
    for level in (1, 2):
        assert 336 * 2 * contour_nodes(kernel.contour(t), level)[0].size > 2 * axb._BLOCK
        for m in (1, 7, 48, 336):
            lams = 4.5 * np.polynomial.legendre.leggauss(m)[0]
            if m == 7:
                lams = lams + 0.1j  # complex lam
            grid = kernel.forward_grid(f, lams, t, level)
            assert np.array_equal(grid, _forward_grid_per_lambda(kernel, f, lams, t, level)), (level, m)


@pytest.mark.parametrize("t", [0.5, 4.4])
def test_gb_weight_is_one_gb_many_sweep(t, monkeypatch):
    # both G_b factors of the weight come from one gb_many call over [i x, -i y]
    kernel = qt.gb_family(P08, 1e-9)
    v = contour_nodes(kernel.contour(t), 1)[0]
    sizes, many = [], qd.gb_many
    monkeypatch.setattr(qt, "gb_many", lambda z, p, tol: sizes.append(np.size(z)) or many(z, p, tol))
    val = kernel.weight(t)(v)
    assert sizes == [2 * v.size]
    two = (many(1j * (v - t / 2), P08, 1e-9) * many(-1j * (v + t / 2), P08, 1e-9)
           / qd.gb(-1j * t, P08, 1e-9).value)
    assert np.max(np.abs(val - two) / np.abs(two)) <= 1e-13
    # a scalar argument gives a 1-element array (corep.coproduct_kernel indexes it)
    for family in (kernel, axb.GAMMA):
        assert family.pair(0.3, 0.2).shape == (1,)
