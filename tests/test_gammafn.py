import numpy as np
import pytest

from qplane.errors import DomainError, PoleError
from qplane.gammafn import (
    binomial_mellin_residual,
    gamma,
    gamma_beta_residual,
    hyp2f1_contour,
    hyp2f1_series,
)

# frozen high-precision oracle values (dps=35 series/product evaluation)
GAMMA_FIX = 0.9115615278045859309280411 - 1.367193357585418618807125j
F21_FIX = 0.8980205314670296802334669  # 2F1(0.5, 1.3, 2.1; -0.4)


def test_gamma_values():
    assert abs(gamma(1.0) - 1.0) < 1e-14
    assert abs(gamma(0.5) - np.sqrt(np.pi)) < 1e-13
    assert abs(gamma(0.3 + 0.4j) - GAMMA_FIX) < 1e-13


def test_scalar_gamma_agrees_with_the_array_path():
    # a 0-d argument takes the cmath route through the same three regions
    rng = np.random.default_rng(7)
    z = rng.uniform(-20, 20, 2500) + 1j * rng.uniform(-30, 30, 2500)
    for zk in z:
        scalar, array = gamma(complex(zk)), gamma(np.array([zk]))[0]
        assert isinstance(scalar, complex)
        assert abs(scalar - array) <= 2e-14 * abs(array)
    assert gamma(np.float64(0.3)) == gamma(0.3)
    with np.errstate(all="ignore"):  # overflow falls back to the array path
        assert np.isnan(gamma(200.0)) and np.isnan(gamma(np.array([200.0]))[0])


@pytest.mark.parametrize("z", [0.0, -1.0, -3.0, 1e-14j, -2 + 1e-14j, -5 + 5e-14, -7 - 2e-14j])
def test_scalar_gamma_screens_the_same_poles(z):
    with pytest.raises(PoleError):
        gamma(z)
    with pytest.raises(PoleError):
        gamma(np.array([z]))
    off = z + 1e-12  # just outside the screen: both paths evaluate
    assert abs(gamma(off) - gamma(np.array([off]))[0]) <= 1e-10 * abs(gamma(off))


def test_gamma_pole_flag():
    with pytest.raises(PoleError):
        gamma(0.0)
    with pytest.raises(PoleError):
        gamma(-3.0)


def test_gamma_reflection_grid():
    z = (np.linspace(-3.3, 3.7, 8)[:, None] + 1j * np.linspace(-4, 4, 5)[None, :]).ravel()
    z = z[np.abs(z - np.round(z.real)) > 0.2]
    rhs = np.pi / np.sin(np.pi * z)
    assert np.max(np.abs(gamma(z) * gamma(1 - z) - rhs) / np.abs(rhs)) < 1e-10


def test_gamma_recursion_grid():
    z = (np.linspace(0.2, 9.7, 12)[:, None] + 1j * np.linspace(-8, 8, 7)[None, :]).ravel()
    assert np.max(np.abs(gamma(z + 1) - z * gamma(z)) / np.abs(gamma(z + 1))) < 1e-12


def test_gamma_beta_examples():
    assert gamma_beta_residual(1.0, -0.5) < 1e-8  # RHS = pi
    assert gamma_beta_residual(2.0, -0.5) < 1e-8
    assert gamma_beta_residual(1.5 + 0.2j, -0.7) < 1e-8
    with pytest.raises(DomainError):
        gamma_beta_residual(0.3, -0.5)  # Re(w+u) < 0


def test_binomial_mellin_examples():
    assert binomial_mellin_residual(1.0, 1.0, 0.0) < 1e-10
    assert binomial_mellin_residual(1.0, 2.0, 1.0) < 1e-6
    assert binomial_mellin_residual(0.5, 0.5, 2.0) < 1e-6


def test_binomial_mellin_grid():
    worst = max(
        binomial_mellin_residual(x, y, t)
        for x in (0.5, 1, 2) for y in (0.5, 1, 2) for t in (-2, -1, 1, 2)
    )
    assert worst < 1e-6


def test_hyp2f1_trivial_and_closed_form():
    assert abs(hyp2f1_contour(0.7, 1.1, 1.9, 1e-30 - 1e-31j) - 1.0) < 1e-8
    assert abs(hyp2f1_contour(1, 1, 2, -1) - np.log(2)) < 1e-10


def test_hyp2f1_derived_value():
    assert abs(hyp2f1_contour(0.5, 1.3, 2.1, -0.4) - F21_FIX) < 1e-10
    assert abs(hyp2f1_series(0.5, 1.3, 2.1, -0.4) - F21_FIX) < 1e-12


def test_hyp2f1_series_agreement_sample():
    cases = [(0.5, 1.3, 2.1, -0.4), (0.7, 0.9, 1.8, 0.3 + 0.2j), (1.2, 0.4, 2.5, -0.5),
             (0.5, 1.3, 2.1, 0.45j), (0.3, 0.8, 1.4, -0.25), (2.2, 0.6, 3.1, -0.5),
             (0.9, 1.1, 2.4, 0.2 + 0.3j), (1.5, 0.5, 2.2, -0.35), (0.4, 2.0, 2.9, 0.4j),
             (0.8, 0.6, 1.6, -0.15 + 0.3j)]
    for a, b, c, z in cases:
        assert abs(hyp2f1_contour(a, b, c, z) - hyp2f1_series(a, b, c, z)) < 1e-8


def test_hyp2f1_pole_collision_flag():
    with pytest.raises(DomainError):
        hyp2f1_contour(-1.0, 1.3, 2.1, -0.4)
    with pytest.raises(DomainError):
        hyp2f1_contour(0.5, 1.3, 2.1, 0.4)  # on the cut


def test_hyp2f1_contour_with_nearly_equal_upper_parameters():
    # the pole ladders of Gamma(a + is) and Gamma(b + is) nearly coincide,
    # far above the line: the contour needs no small detour for them
    for a, b, c, z in ((1.3210606397595699, 1.3198288676877987, 3.226366904453713,
                        -0.07619642420689829 - 0.15154577175300665j),
                       (0.6264055087054188, 0.6264202866577091, 2.2383045456562822,
                        0.26723720863217737 - 0.2218474934252938j)):
        assert abs(hyp2f1_contour(a, b, c, z) - hyp2f1_series(a, b, c, z)) < 1e-9


def test_gamma_against_mpmath():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20)
    box = 20 * np.sqrt(rng.uniform(0, 1, 400)) * np.exp(2j * np.pi * rng.uniform(0, 1, 400))
    # the range hyp2f1_contour reaches: gamma(a + i s) with |s| up to ~120
    strip = rng.uniform(-2, 3, 400) + 1j * rng.choice([-1, 1], 400) * rng.uniform(20, 120, 400)
    for z, bound in ((box, 5e-14), (strip, 3e-13)):
        with mp.workdps(30):
            ref = np.array([complex(mp.gamma(mp.mpc(v.real, v.imag))) for v in z])
        assert np.max(np.abs(gamma(z) / ref - 1)) <= bound


def test_gamma_batch_size_forms_agree():
    # small batches sum the partial fractions in complex arithmetic and take
    # a complex log, large ones do both in real arithmetic
    rng = np.random.default_rng(21)
    z = rng.uniform(-3, 4, 2880) + 1j * rng.uniform(-15, 15, 2880)
    big = gamma(z)
    small = np.concatenate([gamma(z[i:i + 4]) for i in range(0, 64, 4)])
    single = np.array([gamma(complex(v)) for v in z[:64]])
    assert np.max(np.abs(small / big[:64] - 1)) <= 1e-14
    assert np.max(np.abs(single / big[:64] - 1)) <= 1e-14


def test_gamma_pole_screen():
    for z in (0.0, -3.0, -3 + 1e-14j):
        with pytest.raises(PoleError):
            gamma(z)
    assert np.isfinite(gamma(-3 + 1e-12j))
    with pytest.raises(PoleError):  # one pole fails the whole batch, as before
        gamma(np.array([0.5 + 1j, 2.0, -3.0]))


def test_gamma_near_negative_integers_against_mpmath():
    # sin(pi z) from the reduced argument z - round(Re z): the product pi z
    # alone loses |z| / |z + n| ulps next to the pole at -n
    mp = pytest.importorskip("mpmath")
    for z in (-10.0001, -19.99999, -5.5 + 1e-6j, -7.000001 + 0.01j):
        with mp.workdps(30):
            ref = complex(mp.gamma(mp.mpc(z)))
        assert abs(gamma(z) / ref - 1) <= 1e-14


def test_recurrence_on_the_central_strip():
    # -1/2 <= Re z < 1/2, where the classical kernels' gamma(+-i x) lie, is
    # Gamma(z + 1)/z bit for bit, and agrees with the reflection formula.
    # Each form is within 8.5e-15 of mpmath on these points, with opposite
    # signs at z = 10.83i: the two differ by 1.04e-14 there
    from qplane import gammafn

    rng = np.random.default_rng(3)
    z = np.concatenate([1j * rng.uniform(-14, 14, 300),
                        rng.uniform(-0.49, 0.49, 300) + 1j * rng.uniform(-14, 14, 300)])
    assert np.array_equal(gamma(z), gammafn._gamma_core(z + 1.0) / z)
    reflected = np.pi / (np.sin(np.pi * z) * gammafn._gamma_core(1.0 - z))
    assert np.max(np.abs(gamma(z) / reflected - 1)) <= 2e-14


def test_gamma_on_the_central_strip_against_mpmath():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(22)
    re = rng.uniform(-0.5, 0.5, 400)
    re[:4] = (-0.5, 0.0, 0.5 - 1e-15, -0.5 + 1e-15)
    near = 10.0 ** rng.uniform(-8, -1, 100) * np.exp(2j * np.pi * rng.uniform(0, 1, 100))
    for z, bound in ((re + 1j * rng.uniform(-20, 20, 400), 5e-14),
                     (near, 5e-14),
                     (re + 1j * rng.choice([-1, 1], 400) * rng.uniform(20, 120, 400), 3e-13)):
        with mp.workdps(30):
            ref = np.array([complex(mp.gamma(mp.mpc(v.real, v.imag))) for v in z])
        assert np.max(np.abs(gamma(z) / ref - 1)) <= bound
        assert np.max(np.abs(np.array([gamma(complex(v)) for v in z[:20]]) / ref[:20] - 1)) <= bound
    for z in (0.0, 1e-14j, np.array([0.3 + 1j, 1e-14j])):
        with pytest.raises(PoleError):
            gamma(z)


def test_gamma_dispatch_edge_cases():
    # what each input form returns: a Python complex for a number or a 0-d array,
    # an array of the input's shape otherwise, each region on its own points
    from qplane import gammafn

    z = 0.3 + 0.4j
    assert type(gamma(z)) is complex and gamma(z) == gammafn._gamma_scalar(z)
    assert type(gamma(np.array(z))) is complex and gamma(np.array(z)) == gamma(z)
    # a non-finite 0-d array takes the array path, still returning a Python complex
    with np.errstate(invalid="ignore"):
        assert type(gamma(np.array(np.nan))) is complex and np.isnan(gamma(np.array(np.nan)))
    for shape in ((0,), (0, 3)):
        empty = gamma(np.zeros(shape))
        assert type(empty) is np.ndarray and empty.shape == shape and empty.dtype == complex
    mixed = np.array([[2.5 + 1j, 0.2 - 0.3j], [-2.5 + 0.5j, 1.0]])
    core, left = mixed.real >= 0.5, mixed.real < -0.5
    strip = ~(core | left)
    out = gamma(mixed)
    assert out.shape == (2, 2) and out.dtype == complex
    assert np.array_equal(out[core], gammafn._gamma_core(mixed[core]))
    assert np.array_equal(out[strip], gammafn._recurred(mixed[strip]))
    assert np.array_equal(out[left], gammafn._reflected(mixed[left]))
    # a NaN among strip points: the strip's formula on every point
    with np.errstate(invalid="ignore"):
        z = np.array([np.nan, 0.2j, -0.3 + 1j])
        assert np.array_equal(gamma(z), gammafn._recurred(z), equal_nan=True)
    for pole in (-2.0, np.array(-2.0), np.array([1.5, -2.0])):
        with pytest.raises(PoleError):
            gamma(pole)
