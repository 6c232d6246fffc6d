import numpy as np
import pytest

import qplane.qdilog as qd
from qplane import corep
from qplane.classw import ClassWFunction
from qplane.errors import DomainError
from qplane.modular import from_b

P08 = from_b(0.8)
P07 = from_b(0.7)


def test_monomial_exponents_read_off():
    _, mono = corep.coaction_kernel(0.3, 0.9, P08)
    assert abs(mono.a_exp - 0.3) < 1e-14
    assert abs(mono.b_exp - 0.6) < 1e-14


def test_scalar_modulus():
    scalar = corep.coaction_kernel(0.3, 0.9, P08)[0].value
    expect = np.exp(np.pi * P08.Q.real * 0.6) * abs(qd.gb(-0.6j, P08).value)
    assert abs(abs(scalar) - expect) < 1e-10 * expect


@pytest.mark.parametrize("p, x, t", [(P08, 0.3, 0.9), (from_b(1.2), 0.3, 3.8)])
def test_coaction_kernel_estimate_is_its_gb_factors(p, x, t):
    scalar, _ = corep.coaction_kernel(x, t, p)
    g = qd.gb(1j * p.b * (x / p.b - t / p.b), p)
    expected = g.err_estimate / abs(g.value) * abs(scalar.value)
    assert scalar.backend == g.backend and abs(scalar.err_estimate - expected) <= 1e-12 * expected


def test_coproduct_kernel_value_and_symmetry():
    v = corep.coproduct_kernel(0.2, 0.4, 0.7, P08)
    w = (qd.gb(1j * P08.b * (0.2 - 0.4), P08).value
         * qd.gb(1j * P08.b * (0.4 - 0.7), P08).value
         / qd.gb(1j * P08.b * (0.2 - 0.7), P08).value)
    assert abs(v - w) < 1e-12 * abs(v)
    # reversing x and z maps the kernel to the reciprocal-ratio configuration
    v_rev = corep.coproduct_kernel(0.7, 0.4, 0.2, P08)
    w_rev = (qd.gb(1j * P08.b * 0.3, P08).value * qd.gb(1j * P08.b * 0.2, P08).value
             / qd.gb(1j * P08.b * 0.5, P08).value)
    assert abs(v_rev - w_rev) < 1e-12 * abs(v_rev)


def test_coproduct_kernel_is_the_explicit_gb_ratio():
    # the G_b family's weight against the ratio written out, on triples
    # drawn as the corep suite draws them
    rng = np.random.default_rng(42)
    for p in (P07, P08):
        for _ in range(10):
            x, w, z = rng.uniform(-1, 1, size=3)
            ref = (qd.gb(1j * p.b * (x - w), p).value * qd.gb(1j * p.b * (w - z), p).value
                   / qd.gb(1j * p.b * (x - z), p).value)
            assert abs(corep.coproduct_kernel(x, w, z, p) - ref) < 1e-13 * abs(ref)


def test_corep_axiom_examples():
    assert corep.corep_axiom_residual(0.1, 0.5, 0.9, P08) < 1e-8
    assert corep.corep_axiom_residual(0.0, 0.3, 0.6, P07) < 1e-8
    with pytest.raises(DomainError):
        corep.coproduct_kernel(0.1, 0.1, 0.9, P08)


def test_pairing_x_examples():
    f = ClassWFunction.gaussian()
    v = corep.pairing("X", f, 0.3, P08)
    expect = np.exp(2 * np.pi * 0.8 * 0.3) * np.exp(-np.pi * 0.09)
    assert abs(v - expect) / abs(expect) < 1e-6


def test_pairing_y_examples():
    f = ClassWFunction.gaussian()
    v = corep.pairing("Y", f, 0.3, P08)
    expect = f(0.3 - 0.8j)
    assert abs(v - expect) / abs(expect) < 1e-6


def test_pairing_two_routes():
    # residue route against the closed form on another corpus member
    f = ClassWFunction.gaussian(a=1.7, b=0.3, poly=(1.0, 0.4))
    for x in (-0.2, 0.5):
        v = corep.pairing("X", f, x, P08)
        expect = np.exp(2 * np.pi * 0.8 * x) * f(x)
        assert abs(v - expect) / max(abs(expect), 1.0) < 1e-6


def test_residue_constants():
    from qplane.contours import residue_at
    r0 = residue_at(lambda z: qd.gb_many(-1j * P08.b * z, P08), 0j, 0.05)
    assert abs(r0 * (-2j * np.pi * P08.b) - 1) < 1e-6
    rmi = residue_at(lambda z: qd.gb_many(-1j * P08.b * z, P08), -1j, 0.05)
    tgt = 1 / (-2j * np.pi * P08.b) / (1 - P08.q ** (-2))
    assert abs(rmi - tgt) / abs(tgt) < 1e-6


def test_coaction_limit():
    vals = [corep.coaction_limit_residual(0.3, 0.9, r) for r in (0.1, 0.05, 0.025)]
    assert vals[0] > vals[1] > vals[2]
    assert corep.coaction_limit_residual(0.0, 0.5, 1e-3) < 1e-2
    vstar = [corep.coaction_limit_residual(0.3, 0.9, r, variant="Vstar")
             for r in (0.1, 0.05, 0.025)]
    assert vstar[0] > vstar[1] > vstar[2]


def test_kernel_pole_guard():
    with pytest.raises(DomainError):
        corep.coaction_kernel(0.3, 0.3, P08)
