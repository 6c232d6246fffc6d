"""Named verification suites: every identity and limit statement in the
library as a (name, params, residual, tol, pass) record list.

The CLI drives these; the acceptance tests assert on the same records, so
there is a single source of truth for grids and tolerances.  All parameter
draws are either fixed grids or seeded, making reports reproducible
byte-for-byte.
"""

from __future__ import annotations

import numpy as np

from . import axb, corep, qtransform
from . import qdilog as qd
from .classw import ClassWFunction, mellin_forward
from .errors import DomainError
from .gammafn import binomial_mellin_residual, gamma, gamma_beta_residual, hyp2f1_contour, hyp2f1_series
from .modular import ModularParam, from_b, from_b2, from_r

_F2F1_REF = 0.8980205314670296802334669  # 2F1(0.5,1.3,2.1;-0.4), frozen oracle


def _rec(name: str, params: str, residual: float, tol: float) -> dict:
    residual = float(residual)
    return {
        "name": name,
        "params": params,
        "residual": residual,
        "tol": tol,
        "pass": bool(residual < tol),
    }


def decreasing_with_floor(values, floor: float = 1e-9) -> bool:
    """Strict decrease, except that values below the floor count as converged."""
    return all(b < a or (a < floor and b < floor) for a, b in zip(values, values[1:]))


def _ladder(name: str, params: str, residual_of_r, points, schedule) -> dict:
    """The 0/1 flag at tol 0.5 for "residual_of_r(*point, r) decreases over schedule at every point"."""
    ok = all(decreasing_with_floor([residual_of_r(*pt, r) for r in schedule]) for pt in points)
    return _rec(name, params, 0.0 if ok else 1.0, 0.5)


def _identity_grid(p: ModularParam) -> np.ndarray:
    Q = p.Q.real if p.regime == "integral" else 2.0
    re = np.linspace(0.25, Q - 0.25, 5)
    im = np.linspace(-1.0, 1.0, 5)
    return (re[:, None] + 1j * im[None, :]).ravel()


def suite_gb_identities(seed: int = 0) -> list[dict]:
    out = []
    params = [("b=0.7", from_b(0.7)), ("b=0.9", from_b(0.9)),
              ("b2=0.3+0.4i", from_b2(0.3 + 0.4j)), ("b2=0.1+0.5i", from_b2(0.1 + 0.5j))]
    for label, p in params:
        xs = _identity_grid(p)
        kinds = ["functional_b", "functional_binv", "reflection", "conjugation"]
        if p.regime == "integral":
            kinds.append("selfduality")
        for kind in kinds:
            res = float(np.max(qd.verify_identity(kind, xs, p)))
            out.append(_rec(f"identity/{kind}", label, res, 1e-8))
    # unimodularity on the symmetric line
    p = from_b(0.8)
    ts = np.linspace(-2.0, 2.0, 9)
    vals = qd.gb_many(p.Q / 2 + 1j * ts, p)
    out.append(_rec("unimodularity |G_b(Q/2+it)|", "b=0.8", float(np.max(np.abs(np.abs(vals) - 1))), 1e-8))
    # asymptotics at Im x = +/- 8
    for label, p in [("b=0.8", from_b(0.8)), ("b2=0.3+0.4i", from_b2(0.3 + 0.4j))]:
        x_up = p.Q / 2 + 8j
        res_up = abs(qd.gb(x_up, p).value - p.zeta_b_bar)
        x_dn = p.Q / 2 - 8j
        tgt = p.zeta_b * np.exp(1j * np.pi * x_dn * (x_dn - p.Q))
        res_dn = abs(qd.gb(x_dn, p).value - tgt) / abs(tgt)
        out.append(_rec("asymptotics Im=+8", label, res_up, 1e-6))
        out.append(_rec("asymptotics Im=-8", label, res_dn, 1e-6))
    # residue extrapolation 2 pi x G_b(x) -> 1 (Richardson on x, x/2, x/4)
    for label, p in [("b=0.7", from_b(0.7)), ("b=0.8", from_b(0.8))]:
        f = {x: 2 * np.pi * x * qd.gb(x, p).value for x in (1e-2, 5e-3, 2.5e-3)}
        r1a = 2 * f[5e-3] - f[1e-2]
        r1b = 2 * f[2.5e-3] - f[5e-3]
        res = abs((4 * r1b - r1a) / 3 - 1)
        out.append(_rec("residue 2pi x G_b(x) -> 1", label, res, 1e-6))
    # residue lattice formula
    out.append(_rec("residue 1/G_b(Q+z) (0,0)", "b=0.8", qd.residue_check(0, 0, from_b(0.8)), 1e-6))
    pc = from_b2(0.3 + 0.3j)
    out.append(_rec("residue 1/G_b(Q+z) (1,0)", "b2=0.3+0.3i", qd.residue_check(1, 0, pc), 1e-6))
    out.append(_rec("residue 1/G_b(Q+z) (0,1)", "b2=0.3+0.3i", qd.residue_check(0, 1, pc), 1e-6))
    # backend cross-validation at 5 points (Richardson in eps)
    pint = from_b(0.7)
    Q = pint.Q.real
    pts = [0.3, 0.6, Q / 2, 0.9 + 0.2j, 1.3]
    worst = 0.0
    for x in pts:
        vals = {}
        for eps in (1e-2, 1e-3):
            vals[eps] = qd.gb(x, from_b2(0.49 + 1j * eps), tol=1e-8).value
        extrap = vals[1e-3] + (vals[1e-3] - vals[1e-2]) * 1e-3 / (1e-2 - 1e-3)
        worst = max(worst, abs(extrap - qd.gb(x, pint).value))
    out.append(_rec("backend agreement (eps-extrapolated)", "b=0.7, 5 pts", worst, 1e-4))
    # variants: S_b reflection at midpoint, V_eta unimodularity + integral route
    p = from_b(0.8)
    sb_mid = qd.sb(p.Q / 2, p).value
    out.append(_rec("S_b(Q/2)^2 = 1", "b=0.8", abs(sb_mid**2 - 1), 1e-8))
    v = qd.veta(0.4, p).value
    out.append(_rec("V_eta unimodular (V conj(V) = 1)", "b=0.8, z=0.4", abs(v * np.conj(v) - 1), 1e-8))
    out.append(_rec("V_eta integral route", "b=0.8, z=0.4",
                    abs(qd.veta_integral(0.4, p) - v) / abs(v), 1e-7))
    gsm = qd.gb_small(1.0, p).value
    out.append(_rec("g_b(1) = zeta_bar/G_b(Q/2)", "b=0.8",
                    abs(gsm - p.zeta_b_bar / qd.gb(p.Q / 2, p).value), 1e-8))
    return out


def suite_tau_beta(seed: int = 0) -> list[dict]:
    out = []
    p8 = from_b(0.8)
    Q = p8.Q.real
    out.append(_rec("tau-beta", "b=0.8, (Q/4,Q/4)", qd.tau_beta_residual(Q / 4, Q / 4, p8), 1e-6))
    out.append(_rec("tau-beta", "b=0.8, (Q/3,Q/6)", qd.tau_beta_residual(Q / 3, Q / 6, p8), 1e-6))
    pc = from_b2(0.1 + 0.4j)
    Qc = pc.Q
    out.append(_rec("tau-beta", "b2=0.1+0.4i, (Q/4+0.1i,Q/4)",
                    qd.tau_beta_residual(Qc / 4 + 0.1j, Qc / 4, pc), 1e-6))
    return out


def suite_fourier_gb(seed: int = 0) -> list[dict]:
    out = []
    p8 = from_b(0.8)
    for which in (1, 2, 3, 4):
        for r in (-0.2, 0.0, 0.3):
            out.append(_rec(f"fourier-formula-{which}", f"b=0.8, r={r}",
                            qd.fourier_gb_residual(which, r, p8), 1e-6))
    out.append(_rec("fourier-formula-3", "b=0.75, r=-0.2",
                    qd.fourier_gb_residual(3, -0.2, from_b(0.75)), 1e-6))
    return out


def suite_q_binomial(seed: int = 0) -> list[dict]:
    p8 = from_b(0.8)
    return [_rec(f"q-binomial n={n}", "b=0.8", qd.qbinom_residue_check(n, p8), 1e-8)
            for n in range(1, 6)]


# ---------------------------------------------------------------------------
# classical representation suite


def _log_gauss(x):
    return np.exp(-np.log(x) ** 2)


def suite_classical_rep(seed: int = 0) -> list[dict]:
    out = []
    # gamma identities
    zs = (np.linspace(-3.3, 3.7, 8)[:, None] + 1j * np.linspace(-4, 4, 5)[None, :]).ravel()
    zs = zs[np.abs(zs - np.round(zs.real)) > 0.2]
    refl = np.max(np.abs(gamma(zs) * gamma(1 - zs) - np.pi / np.sin(np.pi * zs))
                  / np.abs(np.pi / np.sin(np.pi * zs)))
    out.append(_rec("gamma reflection", "grid", refl, 1e-10))
    rec = np.max(np.abs(gamma(zs + 1) - zs * gamma(zs)) / np.abs(gamma(zs + 1)))
    out.append(_rec("gamma recursion", "grid", rec, 1e-12))
    out.append(_rec("gamma fixture", "z=0.3+0.4i",
                    abs(gamma(0.3 + 0.4j) - (0.9115615278045859 - 1.3671933575854186j)), 1e-12))
    # gamma-beta and binomial formulas
    for (w, u) in [(1, -0.5), (2, -0.5), (1.5 + 0.2j, -0.7)]:
        out.append(_rec("gamma-beta integral", f"w={w}, u={u}", gamma_beta_residual(w, u), 1e-8))
    worst = 0.0
    for x in (0.5, 1, 2):
        for y in (0.5, 1, 2):
            for t in (-2, -1, 1, 2):
                worst = max(worst, binomial_mellin_residual(x, y, t))
    out.append(_rec("binomial Mellin-Barnes", "grid {0.5,1,2}^2 x {-2,-1,1,2}", worst, 1e-6))
    # 2F1 contour vs series
    cases = [(0.5, 1.3, 2.1, -0.4), (0.7, 0.9, 1.8, 0.3 + 0.2j), (1.2, 0.4, 2.5, -0.5),
             (0.5, 1.3, 2.1, 0.45j), (0.3, 0.8, 1.4, -0.25), (2.2, 0.6, 3.1, -0.5),
             (0.9, 1.1, 2.4, 0.2 + 0.3j), (1.5, 0.5, 2.2, -0.35), (0.4, 2.0, 2.9, 0.4j),
             (1.0, 1.0, 2.0, -1.0)]
    worst = max(abs(hyp2f1_contour(a, b, c, z)
                    - (hyp2f1_series(a, b, c, z) if abs(z) < 1 else np.log(2)))
                for (a, b, c, z) in cases)
    out.append(_rec("2F1 contour vs Gauss series", "10-case sample", worst, 1e-8))
    # group law (analytic composition)
    f = lambda x: np.exp(-x)
    g1, g2 = axb.GroupElement(1.3, 0.4), axb.GroupElement(0.7, -1.1)
    xs = np.array([0.5, 1.0, 2.2])
    lhs = axb.act_point(g1, axb.R_PLUS, lambda y: axb.act_point(g2, axb.R_PLUS, f, y), xs)
    rhs = axb.act_point(g1.compose(g2), axb.R_PLUS, f, xs)
    out.append(_rec("point-picture group law", "g1=(1.3,0.4), g2=(0.7,-1.1)",
                    float(np.max(np.abs(lhs - rhs))), 1e-12))
    # point-picture unitarity, log-substituted norm
    u = np.linspace(-8, 8, 2001)
    du = u[1] - u[0]
    g = axb.GroupElement(1.7, 0.6)
    f_half = _log_gauss
    n0 = np.sum(np.abs(f_half(np.exp(u))) ** 2) * du
    n1 = np.sum(np.abs(axb.act_point(g, axb.R_PLUS, f_half, np.exp(u))) ** 2) * du
    out.append(_rec("point-picture unitarity", "g=(1.7,0.6)", abs(n1 - n0) / n0, 1e-8))
    # Mellin route vs point route: f = x e^{-x}, closed-form point-route Mellin
    F = lambda z: gamma(1 + 1j * np.asarray(z, dtype=complex))
    gg = axb.GroupElement(1.5, 0.7)
    route_b = axb.act_mellin(gg, axb.R_PLUS, F, 0.3)
    route_a = 1.5 * gamma(1 + 0.3j) / (1.5 + 0.7j) ** (1 + 0.3j)
    out.append(_rec("Mellin route vs point route", "g=(1.5,0.7), w=0.3",
                    abs(route_a - route_b) / abs(route_a), 1e-6))
    # decompose/recompose
    fj = lambda x1, x2: x1 * np.exp(-x1**2 - x2**2)
    xs = np.linspace(0.3, 2.5, 7)
    X1, X2 = np.meshgrid(xs, xs)
    for case, shiftx2 in (("pp", 0.0), ("pm", 0.05)):
        Fd = axb.decompose(case, fj)
        fr = axb.recompose(case, Fd)
        res = float(np.max(np.abs(fr(X1, X2 + shiftx2) - fj(X1, X2 + shiftx2))))
        out.append(_rec(f"decompose/recompose {case}", "7x7 grid", res, 1e-12))
    out.append(_rec("decompose pp norm", "log-Gauss corpus", _decompose_norm_residual("pp"), 1e-6))
    out.append(_rec("decompose pm norm", "log-Gauss corpus", _decompose_norm_residual("pm"), 1e-6))
    # kernels
    k_f = axb.classical_kernel("floor", 0.4, 1.0, 2.0)
    k_c = axb.classical_kernel("ceil", 0.4, 1.0, 2.0)
    out.append(_rec("kernel ceil = conj(floor)", "(0.4,1,2)", abs(k_c - np.conj(k_f)) / abs(k_f), 1e-12))
    k_s = axb.classical_kernel("floor", -0.4, 2.0, 1.0)
    out.append(_rec("kernel modulus symmetry", "lam->-lam, t1<->t2",
                    abs(abs(k_f) ** 2 - abs(k_s) ** 2) / abs(k_f) ** 2, 1e-12))
    # intertwiner round trip, norm preservation, equivariance
    fw = lambda t1, t2: np.exp(-t1**2 - t2**2)
    out.append(_roundtrip_rec("intertwiner round trip",
                              lambda t1, t2: axb.GAMMA.roundtrip(fw, t1, t2), fw))
    out.append(_norm_box_rec("intertwiner norm preservation", axb.intertwiner_forward_grid, fw, 5.0))
    # equivariance: transform (R+ x R+)(g) = (1 x R+)(g) transform
    out.append(_rec("intertwiner equivariance", "g=(1.3,0.4)",
                    _equivariance_residual(axb.GroupElement(1.3, 0.4)), 1e-3))
    return out


def _decompose_norm_residual(case: str) -> float:
    # both sides in log variables over a truncated box (d alpha/alpha x dx/x
    # against dx1/x1 x dx2/x2).  The pm pullback maps the diagonal x1 = x2
    # into an exponentially thin channel at alpha = 1 that a uniform log-grid
    # cannot resolve, so the pm corpus keeps its mass off the diagonal.
    if case == "pp":
        f = lambda x1, x2: _log_gauss(x1) * _log_gauss(x2)
    else:
        f = lambda x1, x2: np.exp(-(np.log(x1) - 2.5) ** 2) * np.exp(-(np.log(x2) + 2.5) ** 2)
    u = np.linspace(-10, 10, 321) + 5e-4  # offset keeps alpha = 1 off-grid
    du = u[1] - u[0]
    U1, U2 = np.meshgrid(u, u)
    lhs = np.sum(np.abs(f(np.exp(U1), np.exp(U2))) ** 2) * du * du
    Fd = axb.decompose(case, f)
    rhs = np.sum(np.abs(Fd(np.exp(U1), np.exp(U2))) ** 2) * du * du
    return abs(lhs - rhs) / abs(lhs)


def _roundtrip_rec(name: str, roundtrip, f) -> dict:
    """Worst |roundtrip(t1, t2) - f(t1, t2)| over the 9-point grid (tol 1e-3)."""
    worst = 0.0
    for t1 in (0.3, 0.6, 0.9):
        for t2 in (0.4, 0.7, 1.0):
            worst = max(worst, abs(roundtrip(t1, t2) - f(t1, t2)))
    return _rec(name, "9-point grid", worst, 1e-3)


def _norm_box_rec(name: str, grid, f, L: float) -> dict:
    """Relative L^2-norm change of f under ``grid(f, lams, t)`` on the GL48 box [-L, L]^2 (tol 1e-3)."""
    gl = np.polynomial.legendre.leggauss(48)
    nodes, wts = L * gl[0], L * gl[1]
    ww = np.outer(wts, wts)
    norm_f = np.sum(np.abs(f(nodes[:, None], nodes[None, :])) ** 2 * ww)
    rows = np.array([grid(f, nodes, t) for t in nodes])
    norm_F = np.sum(np.abs(rows.T) ** 2 * ww)
    return _rec(name, f"box L={L:g}", abs(norm_F - norm_f) / norm_f, 1e-3)


def _equivariance_residual(g: axb.GroupElement) -> float:
    """Both routes on a 3x3 grid of (lam, t) for separable log-Gaussian data."""
    a, v = g.a, g.shift
    f1 = _log_gauss

    def h_line(t):
        # Mellin transform (at i t) of e^{-i v x} f1(a x): numerical, vectorized in t
        return mellin_forward(lambda x: np.exp(-1j * v * x) * f1(a * x),
                              1j * np.asarray(t, dtype=complex), tol=1e-10)

    def H(t1, t2):
        return np.asarray(h_line(t1)) * np.asarray(h_line(t2))

    def F0(t1, t2):
        # exact Mellin of f1 (x) f1: sqrt(pi) e^{-t^2/4} per slot
        return np.pi * np.exp(-np.asarray(t1) ** 2 / 4) * np.exp(-np.asarray(t2) ** 2 / 4)

    worst = 0.0
    for lam in (-0.4, 0.0, 0.5):
        for t in (0.2, 0.7, 1.2):
            route_a = axb.intertwiner_forward(H, lam, t, tol=1e-8)

            def Fslice(z):
                z = np.atleast_1d(np.asarray(z, dtype=complex))
                return np.array([axb.intertwiner_forward(F0, lam, zz, tol=1e-8) for zz in z])

            # elevated line keeps the inner transform's separating contour
            # clear of the pole pair that pinches near Re z = 0
            route_b = axb.act_mellin(g, axb.R_PLUS, Fslice, t, tol=1e-6,
                                     truncation=16.0, imag_shift=0.3)
            worst = max(worst, abs(route_a - route_b))
    return worst


# ---------------------------------------------------------------------------
# quantum intertwiner suite


def suite_q_intertwiner(seed: int = 0) -> list[dict]:
    out = []
    p8 = from_b(0.8)
    # kernel conjugation (1e-10 per acceptance)
    worst = 0.0
    for (lam, t1, t2) in [(0.3, 0.8, 1.1), (0.5, 1.0, 1.5), (-0.4, 0.6, 0.9), (0.2, 0.5, 0.3)]:
        kf = qtransform.q_kernel("F_floor_star", (lam, t1, t2), p8).value
        kc = qtransform.q_kernel("F_ceil_star", (lam, t1, t2), p8).value
        worst = max(worst, abs(kc - np.conj(kf)) / abs(kf))
    out.append(_rec("F_ceil_star = conj(F_floor_star)", "real-arg sample", worst, 1e-10))
    # starred modification is unimodular; phases unimodular
    args = (0.3, 0.7, 0.2, 1.1)
    k_plain = qtransform.q_kernel("floor", args, p8).value
    k_star = qtransform.q_kernel("floor_star", args, p8).value
    out.append(_rec("|floor_star/floor| = 1", str(args), abs(abs(k_star / k_plain) - 1), 1e-8))
    lam, t1, t2 = 0.3, 0.8, 1.1
    out.append(_rec("phase factors unimodular", "(0.3,0.8,1.1)",
                    abs(abs(np.exp(1j * np.pi * lam * (lam - 2 * t1))) - 1), 1e-12))
    # linearity of the forward transform
    f1 = lambda a, b: np.exp(-a**2 - b**2)
    f2 = lambda a, b: a * np.exp(-a**2 - b**2 + 0.2 * b)
    s1 = qtransform.apply_q_forward(f1, 0.2, 0.5, p8)
    s2 = qtransform.apply_q_forward(f2, 0.2, 0.5, p8)
    s12 = qtransform.apply_q_forward(lambda a, b: f1(a, b) + f2(a, b), 0.2, 0.5, p8)
    out.append(_rec("forward linearity", "(0.2,0.5)", abs(s12 - s1 - s2) / abs(s12), 1e-12))
    # decay in lam
    big = qtransform.apply_q_forward(f1, 8.0, 0.5, p8)
    out.append(_rec("decay at |lam| = 8", "Gaussian input", abs(big), 1e-6))
    out.append(_roundtrip_rec("quantum round trip",
                              lambda t1, t2: qtransform.q_roundtrip(f1, t1, t2, p8), f1))
    out.append(_norm_box_rec("quantum norm preservation",
                             lambda f, lams, t: qtransform.q_forward_grid(f, lams, t, p8), f1, 4.5))
    # kernel classical limit: strictly decreasing on the 3x3x3 grid, small at r=1e-3
    grid = [(l, a, b) for l in (0.3, 0.5, 0.7) for a in (0.8, 1.0, 1.2) for b in (1.3, 1.5, 1.7)]
    out.append(_ladder("kernel limit decreasing (floor)", "3x3x3 grid", qtransform.kernel_limit_residual,
                       grid, (0.1, 0.05, 0.025)))
    res_small = qtransform.kernel_limit_residual(0.5, 1.0, 1.5, 1e-3)
    out.append(_rec("kernel limit at r=1e-3", "(0.5,1,1.5)", res_small, 1e-2))
    ceil_vals = [qtransform.kernel_limit_residual(0.5, 1.0, 1.5, r, variant="ceil")
                 for r in (0.1, 0.05, 0.025, 1e-3)]
    out.append(_rec("ceil kernel limit decreasing+small", "(0.5,1,1.5)",
                    ceil_vals[-1] if decreasing_with_floor(ceil_vals) else 1.0, 1e-2))
    return out


# ---------------------------------------------------------------------------
# corepresentation suite


def suite_corep(seed: int = 42) -> list[dict]:
    out = []
    rng = np.random.default_rng(seed)
    worst = 0.0
    for pb in (0.7, 0.8):
        p = from_b(pb)
        n_done = 0
        while n_done < 10:
            x, w, z = rng.uniform(-1, 1, size=3)
            if min(abs(x - w), abs(w - z), abs(x - z)) < 0.08:
                continue
            worst = max(worst, corep.corep_axiom_residual(x, w, z, p))
            n_done += 1
    out.append(_rec("corepresentation axiom", "20 random triples, b in {0.7,0.8}", worst, 1e-8))
    # pairing reproduces the dual-generator action
    p8 = from_b(0.8)
    corpus = [ClassWFunction.gaussian(),
              ClassWFunction.gaussian(a=1.3, b=0.4 + 0.2j, poly=(1.0, 0.5)),
              ClassWFunction.gaussian(a=2.0, poly=(0.0, 1.0))]
    worst_x = worst_y = 0.0
    for f in corpus:
        for x in (0.0, 0.3, -0.6):
            vx = corep.pairing("X", f, x, p8)
            tx = np.exp(2 * np.pi * 0.8 * x) * f(x)
            worst_x = max(worst_x, abs(vx - tx) / max(abs(tx), 1.0))
            vy = corep.pairing("Y", f, x, p8)
            ty = f(x - 0.8j)
            worst_y = max(worst_y, abs(vy - ty) / max(abs(ty), 1.0))
    out.append(_rec("pairing X = mult by e^{2 pi b x}", "class-W corpus", worst_x, 1e-6))
    out.append(_rec("pairing Y = shift by -i b", "class-W corpus", worst_y, 1e-6))
    # residue constants
    from .contours import residue_at
    r0 = residue_at(lambda z: qd.gb_many(-1j * p8.b * z, p8), 0j, 0.05)
    out.append(_rec("Res_0 G_b(-i b z)", "b=0.8", abs(r0 * (-2j * np.pi * p8.b) - 1), 1e-6))
    rmi = residue_at(lambda z: qd.gb_many(-1j * p8.b * z, p8), -1j, 0.05)
    tgt = 1 / (-2j * np.pi * p8.b) / (1 - p8.q ** (-2))
    out.append(_rec("Res_{-i} G_b(-i b z)", "b=0.8", abs(rmi - tgt) / abs(tgt), 1e-6))
    # coaction kernel spot checks
    _, mono = corep.coaction_kernel(0.3, 0.9, p8)
    out.append(_rec("coaction monomial exponents", "(0.3,0.9)",
                    abs(mono.a_exp - 0.3) + abs(mono.b_exp - 0.6), 1e-12))
    # classical limit of the coaction (V and V*)
    out.extend(_ladder("coaction limit decreasing", f"(x,z)=({x},{z})", corep.coaction_limit_residual,
                       [(x, z)], (0.1, 0.05, 0.025)) for (x, z) in [(0.3, 0.9), (0.0, 0.5), (-0.2, 0.4)])
    out.append(_rec("coaction limit at r=1e-3", "(0,0.5)",
                    corep.coaction_limit_residual(0.0, 0.5, 1e-3), 1e-2))
    out.append(_ladder("V* limit decreasing toward R-", "(0.3,0.9)",
                       lambda x, z, r: corep.coaction_limit_residual(x, z, r, variant="Vstar"),
                       [(0.3, 0.9)], (0.1, 0.05, 0.025)))
    return out


# ---------------------------------------------------------------------------
# classical limit suite


def suite_limits(seed: int = 0) -> list[dict]:
    out = []
    schedule = (0.1, 0.05, 0.025, 0.0125)
    xs = (0.5, 1.0, 1.5, 1 + 0.3j)
    out.extend(_ladder("Glim decreasing", f"x={x}",
                       lambda x, r: qd.classical_limit_residual("Glim", x, r), [(x,)], schedule) for x in xs)
    for x in xs:
        out.append(_rec("Glim at r=1e-3", f"x={x}",
                        qd.classical_limit_residual("Glim", x, 1e-3), 1e-2))
    out.extend(_ladder("GlimQ decreasing", f"x={x}",
                       lambda x, r: qd.classical_limit_residual("GlimQ", x, r), [(x,)], schedule) for x in xs)
    # fixture tolerance 2e-2 absolute at r=1e-3 (target modulus ~2.7 at x=1.5)
    for x in xs:
        out.append(_rec("GlimQ at r=1e-3", f"x={x}",
                        qd.classical_limit_residual("GlimQ", x, 1e-3), 2e-2))
    for r in (0.37, 0.8):
        out.append(_rec("eta functional equation", f"r={r}",
                        qd.classical_limit_residual("eta", 0.0, r), 1e-10))
    out.append(_rec("reflection-compatibility chain", "x=0.3, r=1e-3",
                    qd.classical_limit_residual("reflection_compat", 0.3, 1e-3), 1e-3))
    # b-hypergeometric classical sample
    p = from_r(1e-3)
    F = qd.fb_hypergeometric(p.b * 0.5, p.b * 1.3, p.b * 2.1, -0.4, p)
    out.append(_rec("F_b -> 2F1(0.5,1.3,2.1;-0.4)", "r=1e-3", abs(F - _F2F1_REF), 1e-2))
    # F_b reduction oracle at alpha = gamma
    p8 = from_b(0.8)
    Q = p8.Q.real
    Fv = qd.fb_hypergeometric(Q / 4, Q / 3, Q / 4, -0.5, p8)
    beff = Q / 2 - 1j * np.log(complex(0.5)) / (2 * np.pi * p8.b)
    closed = qd.gb(beff, p8).value / qd.gb(Q / 3 + beff, p8).value
    out.append(_rec("F_b tau-beta reduction", "b=0.8, alpha=gamma", abs(Fv - closed) / abs(closed), 1e-6))
    return out


_SUITE_FN = {
    "gb-identities": suite_gb_identities,
    "tau-beta": suite_tau_beta,
    "q-binomial": suite_q_binomial,
    "fourier-gb": suite_fourier_gb,
    "classical-rep": suite_classical_rep,
    "q-intertwiner": suite_q_intertwiner,
    "corep": suite_corep,
    "limits": suite_limits,
}
SUITES = tuple(_SUITE_FN)  # in report order


def run_suite(name: str, tol: float | None = None, seed: int = 42) -> list[dict]:
    """Run one named suite (or 'all').  A given tol replaces every record's own
    default tol, and its pass is then residual < tol.  An unknown name raises DomainError."""
    if name != "all" and name not in _SUITE_FN:
        raise DomainError(f"unknown suite {name!r}; choose from {', '.join(SUITES + ('all',))}")
    records = []
    for n in SUITES if name == "all" else (name,):
        for r in _SUITE_FN[n](seed=seed):
            r = r if tol is None else _rec(r["name"], r["params"], r["residual"], tol)
            records.append({**r, "suite": n})
    return records
