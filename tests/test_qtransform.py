import tracemalloc

import numpy as np
import pytest

import qplane.qdilog as qd
from qplane import qtransform as qt
from qplane.modular import from_b

P08 = from_b(0.8)
GAUSS = lambda a, b: np.exp(-a**2 - b**2)


def test_fourier_kernel_conjugation():
    for (lam, t1, t2) in [(0.3, 0.8, 1.1), (0.5, 1.0, 1.5), (-0.4, 0.6, 0.9)]:
        kf = qt.q_kernel("F_floor_star", (lam, t1, t2), P08)
        kc = qt.q_kernel("F_ceil_star", (lam, t1, t2), P08)
        assert abs(kc - np.conj(kf)) / abs(kf) < 1e-10


def test_fourier_kernel_fixture_value():
    # composition of integral-backend evaluations; regression-pinned
    v = qt.q_kernel("F_floor_star", (0.3, 0.8, 1.1), P08)
    w = (qd.gb(-1j * 0.8 + 1j * 0.3, P08).value * qd.gb(-1j * 1.1 - 1j * 0.3, P08).value
         / qd.gb(-1j * 1.9, P08).value * np.exp(1j * np.pi * 0.3 * (0.3 - 1.6)))
    assert abs(v - w) < 1e-12 * abs(v)


def test_plain_kernel_display_equality():
    # floor = zeta_bar e^{...}/G_b(Q+ix-ix2) equals the reflection-expanded
    # form zeta_bar e^{...} e^{i pi (x2-x)^2} e^{pi Q (x-x2)} G_b(i x2 - i x)
    alpha, x, x1, x2 = 0.3, 0.7, 0.2, 1.1
    lhs = qt.q_kernel("floor", (alpha, x, x1, x2), P08)
    rhs = (P08.zeta_b_bar * np.exp(2j * np.pi * (x - x1) * (x2 - x1 + alpha))
           * np.exp(1j * np.pi * (x2 - x) ** 2) * np.exp(np.pi * P08.Q * (x - x2))
           * qd.gb(1j * x2 - 1j * x, P08).value)
    assert abs(lhs - rhs) / abs(lhs) < 1e-10


def test_starred_kernels_unimodular_factors():
    args = (0.3, 0.7, 0.2, 1.1)
    for plain, star in (("floor", "floor_star"), ("ceil", "ceil_star")):
        ratio = qt.q_kernel(star, args, P08) / qt.q_kernel(plain, args, P08)
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


def test_roundtrip_memory_stays_per_lambda():
    # the forward grid is contracted one lam at a time, never as a
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
    v = qt.apply_q_inverse(phi, 0.4, 0.6, P08, tol=1e-7)
    assert abs(v - GAUSS(0.4, 0.6)) < 1e-6


def test_kernel_limit_monotone():
    for variant in ("floor", "ceil"):
        vals = [qt.kernel_limit_residual(0.5, 1.0, 1.5, r, variant=variant)
                for r in (0.1, 0.05, 0.025)]
        assert vals[0] > vals[1] > vals[2]
        assert qt.kernel_limit_residual(0.5, 1.0, 1.5, 1e-3, variant=variant) < 1e-2


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        qt.q_kernel("nope", (0.1, 0.2, 0.3), P08)
