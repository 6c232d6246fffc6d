"""Quantum dilogarithm transform kernels and their application as contour
transforms, plus the rescaled classical limit toward the gamma-kernel
intertwiners.

Kernel families:

* plain ``floor``/``ceil`` (position picture, evaluated pointwise only),
* their starred modifications (extra unimodular factors that make the
  Fourier picture work),
* the Fourier-picture reduced kernels ``F_floor_star``/``F_ceil_star``
  applied as one-dimensional contour transforms.

The applied transforms are evaluated in a centered variable (u = t2 + lam
forward, mu = lam - t1 inverse) in which the quantum-dilogarithm factors do
not depend on the spectator parameter; nested round trips then batch into
tensor quadrature with a single vectorized G_b sweep per contour.
"""

from __future__ import annotations

import numpy as np

from .contours import contour_nodes, integrate_contour, path_clear_of
from .errors import DomainError
from .gammafn import gamma
from .modular import ModularParam, from_r
from .qdilog import gb, gb_many

from .axb import _separating_contour, classical_kernel

_TRUNCATION = 6.0  # half-length of the quantum transforms' separating contour


# ---------------------------------------------------------------------------
# kernels


def q_kernel(kind: str, args, p: ModularParam, tol: float = 1e-10) -> complex:
    """Pointwise kernel values.

    Position-picture kinds take args (alpha, x, x1, x2):

      floor = zeta_b_bar e^{2 pi i (x-x1)(x2-x1+alpha)} / G_b(Q + i x - i x2)
      ceil  = zeta_b     e^{-2 pi i (x-x1)(x2-x1+alpha)} G_b(i x - i x2)

    starred kinds multiply by zeta_b_bar e^{-pi i (x-x1)^2}/G_b(Q/2+i alpha)
    (floor) and zeta_b e^{+pi i (x-x1)^2} G_b(Q/2+i alpha) (ceil); the extra
    factors are unimodular for real alpha, x, x1.

    Fourier-picture kinds take args (lam, t1, t2), with t = t1 + t2 enforced
    structurally (the energy delta is resolved):

      F_floor_star = G_b(-i t1 + i lam) G_b(-i t2 - i lam)/G_b(-i t) e^{pi i lam(lam-2 t1)}
      F_ceil_star  = G_b(-i lam + i t1) G_b(i t2 + i lam)/G_b(i t)
                     e^{pi i lam(lam+2 t2)} e^{-2 pi i t1 t2}
    """
    if kind in ("floor", "ceil", "floor_star", "ceil_star"):
        alpha, x, x1, x2 = (complex(v) for v in args)
        if kind in ("floor", "floor_star"):
            base = p.zeta_b_bar * np.exp(2j * np.pi * (x - x1) * (x2 - x1 + alpha)) \
                / gb(p.Q + 1j * x - 1j * x2, p, tol).value
            if kind == "floor":
                return complex(base)
            star = p.zeta_b_bar * np.exp(-1j * np.pi * (x - x1) ** 2) \
                / gb(p.Q / 2 + 1j * alpha, p, tol).value
            return complex(star * base)
        base = p.zeta_b * np.exp(-2j * np.pi * (x - x1) * (x2 - x1 + alpha)) \
            * gb(1j * x - 1j * x2, p, tol).value
        if kind == "ceil":
            return complex(base)
        star = p.zeta_b * np.exp(1j * np.pi * (x - x1) ** 2) \
            * gb(p.Q / 2 + 1j * alpha, p, tol).value
        return complex(star * base)

    if kind in ("F_floor_star", "F_ceil_star"):
        lam, t1, t2 = (complex(v) for v in args)
        t = t1 + t2
        if kind == "F_floor_star":
            return complex(
                gb(-1j * t1 + 1j * lam, p, tol).value
                * gb(-1j * t2 - 1j * lam, p, tol).value
                / gb(-1j * t, p, tol).value
                * np.exp(1j * np.pi * lam * (lam - 2 * t1))
            )
        return complex(
            gb(-1j * lam + 1j * t1, p, tol).value
            * gb(1j * lam + 1j * t2, p, tol).value
            / gb(1j * t, p, tol).value
            * np.exp(1j * np.pi * lam * (lam + 2 * t2))
            * np.exp(-2j * np.pi * t1 * t2)
        )
    raise ValueError(f"unknown kernel kind {kind!r}")


# ---------------------------------------------------------------------------
# applied transforms


def _check_lattice_clear(cont, t: complex, p: ModularParam):
    # nearest off-head lattice points of the two pole ladders
    step = min(abs(p.b), abs(1 / p.b))
    pts = [0 - 1j * step, complex(t) + 1j * step]
    if not path_clear_of(cont, pts, 0.5 * step):
        raise DomainError("contour too close to the pole lattice (increase spacing)")


def _forward_contour(t: complex, p: ModularParam):
    cont = _separating_contour(t, _TRUNCATION)
    _check_lattice_clear(cont, t, p)
    return cont


def apply_q_forward(f, lam: complex, t: complex, p: ModularParam, tol: float = 1e-8) -> complex:
    """Forward quantum transform

    ``phi(lam,t) = int_C G_b(i t2 - i t + i lam) G_b(-i t2 - i lam)/G_b(-i t)
      e^{pi i lam(lam - 2t + 2 t2)} f(t-t2, t2) dt2``

    with C above the pole ladder descending from t2 = -lam and below the one
    ascending from t2 = t - lam.  Internally centered at u = t2 + lam, where
    the G_b factors depend only on u and t (heads at u = 0 and u = t); f must
    be entire with rapid decay on horizontal lines (class W), vectorized.
    """
    gt = gb(-1j * t, p, tol).value
    cont = _forward_contour(t, p)

    def integrand(u):
        lamv = lam
        phase = np.exp(1j * np.pi * lamv * (2 * u - 2 * t - lamv))
        return gb_many(1j * (u - t), p, tol) * gb_many(-1j * u, p, tol) / gt \
            * phase * f(t - u + lamv, u - lamv)

    return complex(integrate_contour(integrand, cont, tol=tol, max_panel=0.25).value)


def apply_q_inverse(phi, t1: complex, t2: complex, p: ModularParam, tol: float = 1e-8) -> complex:
    """Inverse quantum transform

    ``f(t1,t2) = int_{C'} G_b(-i lam + i t1) G_b(i lam + i t2)/G_b(i t)
      e^{pi i lam(lam + 2 t2)} e^{-2 pi i t1 t2} phi(lam, t1+t2) d lam``

    with C' above the ladder descending from lam = t1 and below the one
    ascending from lam = -t2 (centered at mu = lam - t1).  phi must accept
    complex lam arrays (it is analytic; the forward transform provides this).
    """
    t = t1 + t2
    gt = gb(1j * t, p, tol).value
    cont = _forward_contour(-t, p)

    def integrand(mu):
        lam = mu + t1
        phase = np.exp(1j * np.pi * lam * (lam + 2 * t2)) * np.exp(-2j * np.pi * t1 * t2)
        return gb_many(-1j * mu, p, tol) * gb_many(1j * (mu + t), p, tol) / gt \
            * phase * phi(lam, t)

    return complex(integrate_contour(integrand, cont, tol=tol, max_panel=0.25).value)


def q_roundtrip(
    f, t1: float, t2: float, p: ModularParam, tol: float = 1e-9, level: int = 1,
) -> complex:
    """inverse(forward(f)) at (t1,t2) as one tensor quadrature.

    Both contours are centered, so each needs a single vectorized G_b sweep;
    the lam-dependence enters only through entire phases and f.
    """
    t = t1 + t2
    mu, wm = contour_nodes(_forward_contour(-t, p), level=level, max_panel=0.25)
    gm = gb_many(-1j * mu, p, tol) \
        * gb_many(1j * (mu + t), p, tol) / gb(1j * t, p, tol).value * wm
    lam = mu + t1  # outer integration variable
    phi = q_forward_grid(f, lam, t, p, tol, level=level)
    phase_i = np.exp(1j * np.pi * lam * (lam + 2 * t2)) * np.exp(-2j * np.pi * t1 * t2)
    return complex(np.sum(gm * phase_i * phi))


def q_forward_grid(
    f, lams: np.ndarray, t: complex, p: ModularParam, tol: float = 1e-9, level: int = 1,
) -> np.ndarray:
    """Forward transform on an array of lam at fixed t (one G_b sweep)."""
    lams = np.asarray(lams, dtype=complex)
    cont = _forward_contour(t, p)
    u, wu = contour_nodes(cont, level=level, max_panel=0.25)
    gu = gb_many(1j * (u - t), p, tol) * gb_many(-1j * u, p, tol) \
        / gb(-1j * t, p, tol).value * wu
    phase = np.exp(1j * np.pi * np.multiply.outer(lams, 2 * u - 2 * t)
                   - 1j * np.pi * lams[:, None] ** 2)
    fv = f(t - u[None, :] + lams[:, None], u[None, :] - lams[:, None])
    return (phase * fv * gu[None, :]).sum(axis=1)


# ---------------------------------------------------------------------------
# classical limit of the kernels


def kernel_limit_residual(lam: float, t1: float, t2: float, r: float,
                          variant: str = "floor", tol: float = 1e-11) -> float:
    """|b * (rescaled quantum Fourier kernel) - classical kernel| at b^2 = i r.

    Rescaling all variables by b and multiplying by b (the delta factors are
    resolved identically on both sides):

      b F_floor_star(b lam; b t1, b t2) -> (1/2pi) Gamma(i lam - i t1)
                                           Gamma(-i t2 - i lam)/Gamma(-i t).
    """
    p = from_r(r)
    b = p.b
    t = t1 + t2
    if variant == "floor":
        quantum = b * (
            gb(b * 1j * (lam - t1), p, tol).value
            * gb(-b * 1j * (t2 + lam), p, tol).value
            / gb(-b * 1j * t, p, tol).value
            * np.exp(1j * np.pi * p.b2 * lam * (lam - 2 * t1))
        )
        classical = classical_kernel("floor", lam, t1, t2)
    elif variant == "ceil":
        quantum = b * (
            gb(-b * 1j * (lam - t1), p, tol).value
            * gb(b * 1j * (t2 + lam), p, tol).value
            / gb(b * 1j * t, p, tol).value
            * np.exp(1j * np.pi * p.b2 * lam * (lam + 2 * t2))
            * np.exp(-2j * np.pi * p.b2 * t1 * t2)
        )
        classical = classical_kernel("ceil", lam, t1, t2)
    else:
        raise ValueError(f"unknown kernel variant {variant!r}")
    return float(abs(quantum - classical))
