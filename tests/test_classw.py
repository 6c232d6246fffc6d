import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qplane.classw import (
    ClassWFunction,
    WTerm,
    fourier_classW,
    mellin_forward,
)
from qplane.contours import integrate_line
from qplane.errors import DomainError
from qplane.gammafn import gamma

XI = np.linspace(-2.0, 2.0, 9)


def test_pi_gaussian_is_fixed_point():
    f = ClassWFunction.gaussian()
    assert np.max(np.abs(fourier_classW(f)(XI) - np.exp(-np.pi * XI**2))) < 1e-14


def test_general_gaussian():
    f = ClassWFunction.gaussian(a=2.0)
    expect = np.sqrt(np.pi / 2) * np.exp(-np.pi**2 * XI**2 / 2)
    assert np.max(np.abs(fourier_classW(f)(XI) - expect)) < 1e-14


def test_x_gaussian_against_quadrature():
    f = ClassWFunction.gaussian(poly=(0.0, 1.0))  # x e^{-pi x^2}
    Ff = fourier_classW(f)
    assert np.max(np.abs(Ff(XI) - (-1j * XI) * np.exp(-np.pi * XI**2))) < 1e-14
    for xi in (0.0, 0.45, -1.3):
        quad = integrate_line(lambda x: f(x) * np.exp(-2j * np.pi * x * xi), 8.0, tol=1e-12).value
        assert abs(quad - Ff(xi)) < 1e-11


@settings(max_examples=15, deadline=None)
@given(
    a=st.floats(0.4, 3.0),
    br=st.floats(-1.0, 1.0),
    bi=st.floats(-1.0, 1.0),
    c1=st.floats(-2.0, 2.0),
    c2=st.floats(-1.0, 1.0),
)
def test_fourier_fourth_power_is_identity(a, br, bi, c1, c2):
    f = ClassWFunction((WTerm(a, complex(br, bi), (1.0 + 0j, c1, c2)),))
    g = f
    for _ in range(4):
        g = fourier_classW(g)
    assert np.max(np.abs(g(XI) - f(XI))) < 1e-10


def test_invalid_terms_rejected():
    with pytest.raises(DomainError):
        WTerm(-1.0, 0.0)
    with pytest.raises(DomainError):
        WTerm(1.0, 0.0, ())


def test_mellin_forward_examples():
    assert abs(mellin_forward(lambda x: np.exp(-x), 1.0) - 1.0) < 1e-12
    assert abs(mellin_forward(lambda x: np.exp(-x), 4.0) - 6.0) < 1e-11
    assert abs(mellin_forward(lambda x: 1.0 / (1.0 + x), 0.5) - np.pi) < 1e-12
    # complex s, vectorized: e^{-x} -> Gamma(s), x e^{-x^2} -> Gamma((s+1)/2)/2
    s = np.array([1 + 2j, 0.5 + 8j])
    assert np.max(np.abs(mellin_forward(lambda x: np.exp(-x), s) - gamma(s))) < 1e-12
    s = 1 + 3j
    assert abs(mellin_forward(lambda x: x * np.exp(-x**2), s) - gamma((s + 1) / 2) / 2) < 1e-12


def test_mellin_strip_flag():
    with pytest.raises(DomainError):
        mellin_forward(lambda x: 1.0 / (1.0 + x), 1.5, strip=(0.0, 1.0))


def _summed_from_zeros(f, z):
    """ClassWFunction.__call__ as it was before it dropped the zeros
    accumulator and the Horner pass for a constant polynomial."""
    zz = np.asarray(z, dtype=complex)
    scalar = zz.ndim == 0
    zz = np.atleast_1d(zz)
    out = np.zeros_like(zz)
    for t in f.terms:
        coeffs = np.asarray(t.poly, dtype=complex)
        horner = np.zeros_like(zz, dtype=complex)
        for c in coeffs[::-1]:
            horner = horner * zz + c
        out += np.exp(-t.a * zz**2 + t.b * zz) * horner
    return complex(out[0]) if scalar else out


def test_call_keeps_its_bits():
    rng = np.random.default_rng(23)
    gauss = ClassWFunction.gaussian(a=1.2, b=0.3 - 0.1j)
    fs = [
        ClassWFunction(()),
        gauss,
        ClassWFunction.gaussian(a=0.9, b=-0.2, poly=(0.7 - 0.4j,)),
        ClassWFunction.gaussian(a=0.8, b=0.1j, poly=(1.0, -0.5 + 0.2j, 0.3j)),
        ClassWFunction(gauss.terms + (WTerm(2.1, -0.4 + 0.2j, (0.3 + 1.1j,)),)),
        ClassWFunction(gauss.terms + (WTerm(1.7, 0.2, (0.5, 0.1 - 0.3j)),)),
        fourier_classW(ClassWFunction.gaussian(a=1.1, b=0.2, poly=(1.0, 0.4))),
    ]
    # a 0-d array too: numpy's scalar arithmetic would round otherwise
    zs = [0.37 - 0.21j, 1.5, np.array(0.37 - 0.21j),
          *(rng.uniform(-4, 4, n) + 1j * rng.uniform(-1, 1, n) for n in (1, 2, 7, 300, 756)),
          rng.uniform(-3, 3, (4, 5)) + 1j * rng.uniform(-1, 1, (4, 5))]
    for f in fs:
        for z in zs:
            new, old = f(z), _summed_from_zeros(f, z)
            assert type(new) is type(old) and np.shape(new) == np.shape(old)
            assert np.array_equal(new, old)
            assert np.array_equal(np.atleast_1d(new).view(np.int64), np.atleast_1d(old).view(np.int64))
