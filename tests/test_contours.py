from dataclasses import replace

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


def test_auto_detour_radius_ignores_gaps_the_line_clears():
    # two close poles far above the line must not shrink the detour at 0
    # (a 4e-6 radius there left 1/z-like panels no bisection depth resolves)
    cont = auto_detours([(0j, "above"), (2j, "below"), (2.00001j, "below")], truncation=8.0)
    assert [d.pole for d in cont.detours] == [0j]
    assert cont.detours[0].radius == 0.35
    # between detoured poles the quarter-gap rule still holds
    cont = auto_detours([(0j, "above"), (0.4 + 0j, "below")], truncation=8.0)
    assert [d.radius for d in cont.detours] == [0.1, 0.1]


def test_contour_value_radius_independent():
    # the 1/z detour integral must not depend on the detour radius
    vals = []
    for r in (0.05, 0.1, 0.2):
        cont = Contour(0.0, (Detour(0j, "below", r),), truncation=10.0)
        vals.append(integrate_contour(lambda z: np.exp(-z * z) / z, cont, tol=1e-11).value)
    assert abs(vals[0] - vals[1]) < 1e-10
    assert abs(vals[1] - vals[2]) < 1e-10


def test_gauss_kronrod_table():
    x, w = contours._GK21
    wk, wg = w[:, 0], w[:, 1]
    xg, wgl = np.polynomial.legendre.leggauss(10)
    # the odd-indexed nodes are the 10-point Gauss rule, with its weights
    assert np.max(np.abs(x[1::2] - xg)) <= 1e-15 and np.max(np.abs(wg[1::2] - wgl)) <= 1e-15
    assert not wg[::2].any()
    assert abs(wk.sum() - 2) <= 1e-15 and abs(wg.sum() - 2) <= 1e-15
    for k in range(32):  # degree 3n + 1 = 31
        assert abs(np.sum(wk * x**k) - (2 / (k + 1) if k % 2 == 0 else 0)) <= 1e-15
    assert not (x.flags.writeable or w.flags.writeable)


def test_integrate_contour_evaluates_each_node_once():
    cont = Contour(0.0, (Detour(0j, "below", 0.1), Detour(1.0 + 0.3j, "above", 0.2)), 6.0)
    seen = []

    def f(z):
        seen.append(z.copy())
        return np.exp(-z * z) / (z * (z - 1.0 - 0.3j))

    res = integrate_contour(f, cont, tol=1e-12)
    z = np.concatenate(seen)
    assert len(seen) >= 2 and z.size == res.n_evals
    assert np.unique(z).size == z.size
    # only the panels that need it are refined: fewer nodes than one global halving
    assert len(seen[1]) < len(seen[0])


def _mp_contour(mp, fmp, contour):
    """mpmath tanh-sinh quadrature over the contour's pieces."""
    total = mp.mpc(0)
    for p in contours._pieces(contour):
        if p[0] == "seg":
            z0, d = mp.mpc(p[1]), mp.mpc(p[2] - p[1])
            cuts = mp.linspace(0, 1, max(2, int(np.ceil(abs(p[2] - p[1]))) + 1))
            total += mp.quad(lambda s: fmp(z0 + d * s) * d, cuts)
        else:
            c, R = mp.mpc(p[1]), mp.mpf(p[2])
            total += mp.quad(lambda th: fmp(c + R * mp.expj(th)) * 1j * R * mp.expj(th),
                             [p[3], p[4]])
    return complex(total)


def test_error_estimate_bounds_the_error_against_mpmath():
    mp = pytest.importorskip("mpmath")
    from qplane import axb

    cases = [
        (lambda z: np.exp(-np.pi * z**2), lambda z: mp.exp(-mp.pi * z**2),
         Contour(0.0, (), 6.0), 1e-13),
        (lambda z: np.exp(-z * z) / z, lambda z: mp.exp(-z * z) / z,
         Contour(0.0, (Detour(0j, "below", 0.1),), 10.0), 1e-11),
    ]
    with mp.workdps(25):
        for f, fmp, cont, tol in cases:
            res = integrate_contour(f, cont, tol=tol)
            assert abs(res.value - _mp_contour(mp, fmp, cont)) <= res.err_estimate <= tol
        # the gamma-kernel forward transform, folded onto the half of its
        # contour where the pinching pair -t/2, t/2 is close, against the
        # integral over the whole unfolded path in the midpoint variable
        t, lam = 0.2, 0.4
        g = lambda t1, t2: np.exp(-(t1**2 + t2**2) / 2)
        value, err = axb.GAMMA.forward(g, lam, t, 1e-9)
        full = replace(axb.GAMMA.contour(t), start=None)
        fmp = lambda v: (mp.gamma(1j * (v - t / 2)) * mp.gamma(-1j * (v + t / 2))
                         / (2 * mp.pi * mp.gamma(-1j * mp.mpf(t)))
                         * mp.exp(-((t / 2 - v + lam) ** 2 + (v + t / 2 - lam) ** 2) / 2))
        assert abs(value - _mp_contour(mp, fmp, full)) <= err <= 1e-9


@pytest.mark.parametrize("lam", [3.0, 5.0])
def test_adaptive_forward_on_the_doubled_panels_against_mpmath(lam):
    # at these lam the data's bump, at v = lam - t/2, sits on panels that the
    # run from the detour at t/2 doubled past the panel cap
    mp = pytest.importorskip("mpmath")
    from qplane import axb

    t = 0.7
    g = lambda t1, t2: np.exp(-(t1**2 + t2**2) / 2)
    value, err = axb.GAMMA.forward(g, lam, t, 1e-9)
    full = replace(axb.GAMMA.contour(t), start=None)
    a, b, arc, mid, half = contours._base_panels(contours._pieces(full))
    lo, hi = (a + b * (mid - half)).real, (a + b * (mid + half)).real
    assert np.any(~arc & (lo <= lam - t / 2) & (lam - t / 2 <= hi) & (hi - lo > 1.0))
    fmp = lambda v: (mp.gamma(1j * (v - t / 2)) * mp.gamma(-1j * (v + t / 2))
                     / (2 * mp.pi * mp.gamma(-1j * mp.mpf(t)))
                     * mp.exp(-((t / 2 - v + lam) ** 2 + (v + t / 2 - lam) ** 2) / 2))
    with mp.workdps(25):
        assert abs(value - _mp_contour(mp, fmp, full)) <= err <= 1e-9


@pytest.mark.parametrize("t", [0.7, 1e-3, -1.3, 0.7 + 0.02j, 0.7 + 0.2j, 2 - 0.15j])
def test_separating_contour_is_point_symmetric(t):
    # the full contour maps onto itself under v -> -v; its half starts at v = 0
    from qplane import axb

    half = axb.GAMMA.contour(t)
    z, w = contour_nodes(replace(half, start=None), 1)
    mirror = np.argmin(np.abs(z[:, None] + z[None, :]), axis=1)
    assert np.max(np.abs(z + z[mirror])) <= 1e-14
    assert np.max(np.abs(w - w[mirror])) <= 1e-14
    zh, wh = contour_nodes(half, 1)
    assert abs(2 * np.sum(wh) - np.sum(w)) <= 1e-14 * np.sum(np.abs(w))
    assert contours._pieces(half)[0][1] == 0


def test_cleared_poles_nearer_than_max_panel_cut_the_line():
    cont = auto_detours([(0j, "above"), (1.0 + 0.2j, "below"), (-2.0 - 0.8j, "above")], 8.0)
    assert cont.cleared == (1.0 + 0.2j, -2.0 - 0.8j)
    segs = [p for p in contours._pieces(cont) if p[0] == "seg"]
    # cut at the foot 1.0 of the pole 0.2 above the line, graded toward it
    cut = [p for p in segs if p[2] == 1.0][0]
    nxt = segs[segs.index(cut) + 1]
    assert cut[4] == nxt[3] == pytest.approx(0.2) and nxt[1] == 1.0
    # the pole 1.2 below is no nearer than the panel cap: the table keeps its bits
    far = auto_detours([(0j, "above"), (-2.0 - 1.2j, "above")], 8.0)
    bare = Contour(0.0, far.detours, 8.0)
    for level in range(3):
        assert all(np.array_equal(a, b) for a, b in zip(contour_nodes(far, level), contour_nodes(bare, level)))


def test_rounding_floor_is_reported_not_hidden():
    # 50 eps int |f| > tol: no bisection can help, and the call says so
    with pytest.raises(QuadratureError):
        integrate_line(lambda z: 1e4 * np.exp(-np.pi * z**2), 6.0, tol=1e-13)


# (re, im) of fixed-node grid outputs as float.hex: contour_nodes keeps its
# composite Gauss-Legendre panels whatever the adaptive rule does, so these
# move only with the panel table or with gamma's or G_b's rounding (the
# first three and the last are the gamma family's, its 1/(2 pi) in the
# weight's norm; the other four are the G_b family's)
GRID_PINS = [
    ("0x1.20414d881d2f7p-1", "0x1.88faf8486880ap-3"),
    ("0x1.2a5792a05d38cp-1", "0x1.024fddfe1c983p-1"),
    ("0x1.3736afa242f1dp-3", "0x1.ae1220bce495dp-4"),
    ("0x1.eb3e02d423dafp-3", "0x1.31b38f9492680p-1"),
    ("0x1.6a5a4d0e64abdp-1", "0x1.2367031462752p-4"),
    ("0x1.75b730dc8adb6p-4", "0x1.5444c66ce31dap-2"),
    ("0x1.aff4d5b82276ap-1", "0x1.3702337a563fep-4"),
    ("0x1.768e9a3925fe3p-1", "-0x1.46237a1ead8c4p-1"),
]


def test_fixed_node_grids_unchanged():
    from qplane import axb, qtransform
    from qplane.modular import from_b

    f = lambda t1, t2: np.exp(-(t1**2 + t2**2) / 2) * (1 + 0.3j * t1)
    p8 = from_b(0.8)
    lams = np.array([-0.7, 0.4, 1.3])
    vals = [*axb.intertwiner_forward_grid(f, lams, 0.6),
            *qtransform.q_forward_grid(f, lams, 0.6, p8),
            qtransform.q_roundtrip(f, 0.3, 0.5, p8),
            axb.GAMMA.inverse_grid(lambda lam, t: np.exp(-lam**2) * (1 + 0 * t), 0.3, 0.5, 2)]
    assert [complex(v) for v in vals] == [
        complex(float.fromhex(re), float.fromhex(im)) for re, im in GRID_PINS]


def test_panel_rules_are_cached_read_only():
    for table in (*contours._GL12, *contours._GK21):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0
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
    # rebuild the module-level rule tables the panels are mapped from
    monkeypatch.setattr(contours, "_GL12", np.polynomial.legendre.leggauss(12))
    monkeypatch.setattr(contours, "_GK21", contours._gk21_rule())
    for lv, (z, w) in enumerate(cached):
        z1, w1 = contour_nodes(cont, level=lv)
        assert np.array_equal(z, z1) and np.array_equal(w, w1)
    assert integrate_contour(f, cont, tol=1e-10) == res


def _graded_run(dist, room, cap):
    """Distances from a segment end to its graded edges: d (2^k - 1) for the
    panels of width d 2^(k-1) < cap that end inside the room."""
    run = [0.0]
    while dist * 2 ** (len(run) - 1) < cap and dist * (2 ** len(run) - 1) < room:
        run.append(dist * (2 ** len(run) - 1))
    return run


def _reference_edges(length, d0, d1):
    """Panel edges of a segment as fractions of its length.  One end within
    the panel cap of its pole: that end's run doubles, uncapped, while its edges
    stay inside the segment; the remainder is the last panel, or joins the
    run's last panel when narrower than half of it.  Both ends: each run is
    kept under the cap and to its half less a rounding margin, and the
    span between the runs gets ceil(span / cap) equal panels; so does
    a segment with no graded end."""
    cap = contours._MAX_PANEL
    if (d0 < cap) != (d1 < cap):
        run = _graded_run(min(d0, d1), length, np.inf)
        if len(run) > 1 and length - run[-1] < (run[-1] - run[-2]) / 2:
            run = run[:-1]
        fractions = [e / length for e in run] + [1.0]
        return fractions if d0 < cap else [1.0 - e for e in reversed(fractions)]
    room = length / 2 * (1 - 1e-9)
    head = [e / length for e in _graded_run(d0, room, cap)]
    tail = [1.0 - e / length for e in _graded_run(d1, room, cap)][::-1]
    n = max(1, int(np.ceil((tail[0] - head[-1]) * length / cap)))
    return head[:-1] + list(np.linspace(head[-1], tail[0], n + 1)) + tail[1:]


def _per_piece_rule(contour, level):
    """12-point Gauss-Legendre panels built piece by piece: a segment's
    base edges by ``_reference_edges`` (s in [0, 1]), an arc's 2 equal
    panels; each of these panels is cut into 2**level at linspace edges."""
    x, w = np.polynomial.legendre.leggauss(12)
    nodes, weights = [], []
    for p in contours._pieces(contour):
        if p[0] == "seg":
            z0, z1, d0, d1 = p[1:]
            base = _reference_edges(abs(z1 - z0), d0, d1)
        else:
            base = list(np.linspace(p[3], p[4], 3))
        for lo, hi in zip(base, base[1:]):
            e = np.linspace(lo, hi, 2**level + 1)
            for left, right in zip(e, e[1:]):
                half = 0.5 * (right - left)
                s = 0.5 * (left + right) + half * x
                if p[0] == "seg":
                    nodes.append(z0 + (z1 - z0) * s)
                    weights.append((z1 - z0) * half * w)
                else:
                    c, R = p[1], p[2]
                    nodes.append(c + R * np.exp(1j * s))
                    weights.append(1j * R * np.exp(1j * s) * half * w)
    return np.concatenate(nodes), np.concatenate(weights)


@pytest.mark.parametrize("cont", [
    Contour(0.0, (Detour(0j, "below", 0.1), Detour(1.0 + 0.3j, "above", 0.2)), 6.0),
    Contour(0.2, (Detour(0.5 - 0.4j, "above", 0.15), Detour(-1.0 + 0.2j, "below", 0.1)), 5.0),
    Contour(0.1, (Detour(1.0 + 0.4j, "below", 0.2),), 4.0, slope=0.3),
], ids=["two-detours", "off-line-detours", "sloped"])
def test_contour_nodes_match_a_per_piece_build(cont):
    pieces = contours._pieces(cont)
    kinds = [p[0] for p in pieces]
    assert "arc" in kinds and kinds.count("seg") > 1
    assert any(min(p[3:]) < 0.5 for p in pieces if p[0] == "seg")  # a graded end
    for level in range(4):
        z, w = contour_nodes(cont, level=level)
        z_ref, w_ref = _per_piece_rule(cont, level)
        assert np.array_equal(z, z_ref) and np.array_equal(w, w_ref)
        z0, w0 = z.copy(), w.copy()
        z[:], w[:] = 0.0, 0.0  # the caller owns what contour_nodes returns
        z1, w1 = contour_nodes(cont, level=level)
        assert np.array_equal(z1, z0) and np.array_equal(w1, w0)


@pytest.mark.parametrize("t", [0.7, 0.05, 1e-3])
def test_graded_panels_keep_clear_of_the_pinching_poles(t):
    from qplane import axb

    half = axb.GAMMA.contour(t)
    for cont in (half, replace(half, start=None)):  # the whole one also has the pinch
        pieces = contours._pieces(cont)
        a, b, arc, mid, h = contours._base_panels(pieces)
        lo, hi = a + b * (mid - h), a + b * (mid + h)
        width = np.abs(hi - lo)
        kinds = set()
        for p in [p for p in pieces if p[0] == "seg"]:
            on = ~arc & (a == p[1]) & (b == p[2] - p[1])  # a segment's panels share its a and b
            if (p[3] < 1.0) != (p[4] < 1.0):  # one graded end: at most 1.5 x the distance to its pole
                end = p[1] if p[3] < 1.0 else p[2]
                pole = min((d.pole for d in cont.detours), key=lambda q: abs(q - end))
                dist = np.minimum(np.abs(lo[on] - pole), np.abs(hi[on] - pole))
                assert np.all(width[on] <= 1.5 * dist * (1 + 1e-12))
                kinds.add("one-ended")
            else:  # a pinch, or no graded end: at most the panel cap
                assert width[on].max() <= 1.0
                kinds.add("pinch")
        assert kinds == ({"one-ended"} if cont is half else {"one-ended", "pinch"})
        for d in cont.detours:  # on-line poles: the nearer panel end is the distance
            dist = np.minimum(np.abs(lo - d.pole), np.abs(hi - d.pole))[~arc]
            assert np.all(dist >= 0.5 * width[~arc] * (1 - 1e-12))
        if cont is half:  # the panels beside a detour are its radius wide
            assert abs(width[~arc].min() - cont.detours[0].radius) <= 1e-15


def test_residue_levels_are_nested(monkeypatch):
    from qplane import qdilog as qd
    from qplane.modular import from_b

    # a G_b residue converges at 64 nodes: one gb_many call of 64 points
    p8, sizes, many = from_b(0.8), [], qd.gb_many
    monkeypatch.setattr(qd, "gb_many", lambda z, p, tol: sizes.append(z.size) or many(z, p, tol))
    qd.gb_residue_at_pole(3, p8)
    assert sizes == [64]
    # the value converged at 64 nodes is the plain 64-node trapezoid sum, bit for bit
    z0, radius = 0.2 + 0.1j, 0.3
    f = lambda z: np.exp(z) / (z - z0)
    e = np.exp(1j * (2 * np.pi * np.arange(64) / 64))
    assert residue_at(f, z0, radius) == complex(radius / 64 * np.sum(f(z0 + radius * e) * e))

    # a pole at 1.2 radius needs 512 nodes; each is evaluated exactly once
    radius, a, seen = 0.5, 0.6, []

    def f(z):
        seen.append(z)
        return 1.0 / (z * (z - a))

    assert abs(residue_at(f, 0j, radius) + 1 / a) <= 1e-12 / a
    assert [z.size for z in seen] == [64, 64, 128, 256]
    angles = np.sort(np.mod(np.angle(np.concatenate(seen)), 2 * np.pi))
    assert np.allclose(angles, 2 * np.pi * np.arange(512) / 512, rtol=0, atol=1e-12)
    # a pole at 1.0001 radius does not converge by 8192 nodes, each evaluated once
    seen.clear()
    a = 1.0001 * radius
    with pytest.raises(QuadratureError):
        residue_at(f, 0j, radius)
    assert sum(z.size for z in seen) == 8192
