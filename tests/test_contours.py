import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qplane import contours
from qplane.contours import (
    Contour,
    Detour,
    auto_detours,
    contour_nodes,
    integrate_contour,
    integrate_line,
    residue_at,
    residue_consistent,
)
from qplane.errors import DomainError, QuadratureError
from qplane.gammafn import gamma


def test_gaussian_integral():
    res = integrate_line(lambda z: np.exp(-np.pi * z**2), truncation=6.0, tol=1e-13)
    assert abs(res.value - 1.0) < 1e-12
    assert res.n_evals > 0
    assert res.err_estimate <= 1e-13


def test_half_residue_from_detour_below():
    cont = Contour(0.0, (Detour(0j, "below", 0.1),), truncation=10.0)
    res = integrate_contour(lambda z: 1.0 / z, cont, tol=1e-10)
    assert abs(res.value - 1j * np.pi) < 1e-9


def test_gaussian_fourier_point():
    # int e^{-pi z^2} e^{2 pi i z xi} dz = e^{-pi xi^2} at xi = 0.3
    res = integrate_line(
        lambda z: np.exp(-np.pi * z**2) * np.exp(2j * np.pi * z * 0.3),
        truncation=6.0, tol=1e-12,
    )
    assert abs(res.value - np.exp(-np.pi * 0.09)) < 1e-11


def test_budget_exhausted_signals():
    # non-decaying integrand: constant 1 over a short contour converges,
    # but 1/(1+z^2) on a short truncation cannot hit 1e-14 vs its tail
    with pytest.raises(QuadratureError):
        cont = Contour(0.0, (), truncation=3.0)
        integrate_contour(lambda z: np.exp(1j * 200.0 * z**2), cont, tol=1e-14, max_levels=2)


@settings(max_examples=15, deadline=None)
@given(
    a=st.floats(0.5, 3.0),
    c=st.floats(-1.0, 1.0),
    split=st.floats(-2.0, 2.0),
)
def test_linearity_and_splitting(a, c, split):
    f = lambda z: np.exp(-a * z**2 + c * z)
    g = lambda z: z * np.exp(-z**2)
    T = 8.0
    whole_f = integrate_line(f, T, tol=1e-12).value
    whole_g = integrate_line(g, T, tol=1e-12).value
    combo = integrate_line(lambda z: 2.0 * f(z) - 1.5 * g(z), T, tol=1e-12).value
    assert abs(combo - (2.0 * whole_f - 1.5 * whole_g)) < 1e-10
    # additivity under splitting at an interior point: [-T,s] + [s,T] = [-T,T]
    piece1 = integrate_line(lambda u: f((split - T) / 2 + u), (split + T) / 2, tol=1e-12).value
    piece2 = integrate_line(lambda u: f((split + T) / 2 + u), (T - split) / 2, tol=1e-12).value
    assert abs(piece1 + piece2 - whole_f) < 1e-10


def test_residue_simple_pole():
    assert abs(residue_at(lambda z: 1.0 / z, 0j, 0.5) - 1.0) < 1e-12
    assert abs(residue_at(lambda z: np.exp(z) / z, 0j, 0.3) - 1.0) < 1e-12


def test_residue_gamma_at_minus_one():
    # residue of Gamma at -n is (-1)^n / n!
    val = residue_at(lambda z: gamma(z), -1.0 + 0j, 0.2)
    assert abs(val - (-1.0)) < 1e-10


def test_residue_radius_independent():
    val = residue_consistent(lambda z: np.exp(z) / z, 0j, 0.4, tol=1e-10)
    assert abs(val - 1.0) < 1e-10
    # a second pole entering the larger circle must be flagged
    with pytest.raises(DomainError):
        residue_consistent(lambda z: 1.0 / z + 1.0 / (z - 0.3), 0j, 0.4, tol=1e-10)


def test_detour_invariants_validated():
    with pytest.raises(DomainError):
        Contour(0.0, (Detour(0j, "above", 0.4), Detour(0.5 + 0j, "below", 0.4)), 8.0)
    with pytest.raises(DomainError):
        Contour(0.0, (Detour(9.0 + 0j, "above", 0.1),), 8.0)


def test_auto_detours_skips_cleared_poles():
    cont = auto_detours([(0j, "above"), (0.5 + 1j, "below")], truncation=8.0)
    assert len(cont.detours) == 1
    assert cont.detours[0].pole == 0j


def test_contour_value_radius_independent():
    # the 1/z detour integral must not depend on the detour radius
    vals = []
    for r in (0.05, 0.1, 0.2):
        cont = Contour(0.0, (Detour(0j, "below", r),), truncation=10.0)
        vals.append(integrate_contour(lambda z: np.exp(-z * z) / z, cont, tol=1e-11).value)
    assert abs(vals[0] - vals[1]) < 1e-10
    assert abs(vals[1] - vals[2]) < 1e-10


def test_integrate_contour_is_the_contour_nodes_rule():
    # segments, an arc on the line, and an off-line pole with vertical legs
    cont = Contour(0.0, (Detour(0j, "below", 0.1), Detour(1.0 + 0.3j, "above", 0.2)), 6.0)
    f = lambda z: np.exp(-z * z) / (z * (z - 1.0 - 0.3j))
    res = integrate_contour(f, cont, tol=1e-10)
    # n_evals sums the node counts of levels 0..L, where L is the stopping level
    total, level = 0, 0
    while total < res.n_evals:
        z, w = contour_nodes(cont, level=level)
        total += z.size
        level += 1
    assert total == res.n_evals and level >= 2
    assert res.value == complex(np.sum(w * f(z)))


def test_panel_rules_are_cached_read_only():
    nodes, _, weights = contours._panels(0.0, 1.0, 8, 12)
    assert not nodes.flags.writeable and not weights.flags.writeable
    with pytest.raises(ValueError):
        nodes[0] = 0.0
    cont = Contour(0.0, (Detour(0j, "below", 0.1), Detour(1.0 + 0.3j, "above", 0.2)), 6.0)
    z, w = contour_nodes(cont, level=1)
    z0, w0 = z.copy(), w.copy()
    z[:], w[:] = 0.0, 0.0  # the caller owns what contour_nodes returns
    z1, w1 = contour_nodes(cont, level=1)
    assert np.array_equal(z1, z0) and np.array_equal(w1, w0)


def test_panel_cache_matches_a_rebuild(monkeypatch):
    cont = Contour(0.0, (Detour(0j, "below", 0.1), Detour(1.0 + 0.3j, "above", 0.2)), 6.0)
    f = lambda z: np.exp(-z * z) / (z * (z - 1.0 - 0.3j))
    cached = [contour_nodes(cont, level=lv) for lv in range(3)]
    res = integrate_contour(f, cont, tol=1e-10)
    monkeypatch.setattr(contours, "_panels", contours._panels.__wrapped__)
    for lv, (z, w) in enumerate(cached):
        z1, w1 = contour_nodes(cont, level=lv)
        assert np.array_equal(z, z1) and np.array_equal(w, w1)
    assert integrate_contour(f, cont, tol=1e-10) == res
