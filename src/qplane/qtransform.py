"""Quantum dilogarithm transform kernels and their application as contour
transforms, plus the rescaled classical limit toward the gamma-kernel
intertwiners.

Kernel families:

* plain ``floor``/``ceil`` (position picture, evaluated pointwise only),
* their starred modifications (extra unimodular factors that make the
  Fourier picture work),
* the Fourier-picture reduced kernels ``F_floor_star``/``F_ceil_star``
  applied as one-dimensional contour transforms.

The applied transforms are ``axb``'s separating-contour transforms with the
G_b kernel family in place of the gamma one, toward which it tends as q -> 1.
In the centered variable (u = t2 + lam forward, mu = lam - t1 inverse) the
G_b factors do not depend on lam: fixed-node grids and round trips take one
G_b sweep per contour and contract it one lam at a time.
"""

from __future__ import annotations

import numpy as np

from .axb import _forward, _inverse, _Kernel, _separating_contour, classical_kernel
from .contours import path_clear_of
from .errors import DomainError
from .modular import ModularParam, from_r
from .qdilog import gb, gb_many

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


def _gb_kernel(p: ModularParam, tol: float) -> _Kernel:
    """The G_b kernel family at p, G_b evaluated to tol; the separating contour
    must clear the pole lattice by half its spacing."""

    def weight(s):
        gs = gb(-1j * s, p, tol).value
        return lambda u: gb_many(1j * (u - s), p, tol) * gb_many(-1j * u, p, tol) / gs

    def contour(s):
        cont = _separating_contour(s, _TRUNCATION)
        # nearest off-head lattice points of the two pole ladders
        step = min(abs(p.b), abs(1 / p.b))
        if not path_clear_of(cont, [0 - 1j * step, complex(s) + 1j * step], 0.5 * step):
            raise DomainError("contour too close to the pole lattice (increase spacing)")
        return cont

    return _Kernel(
        weight, contour, max_panel=0.25,
        forward_phase=lambda lam, u, t: np.exp(1j * np.pi * lam * (2 * u - 2 * t - lam)),
        inverse_phase=lambda lam, t1, t2: np.exp(1j * np.pi * lam * (lam + 2 * t2))
        * np.exp(-2j * np.pi * t1 * t2),
    )


def apply_q_forward(f, lam: complex, t: complex, p: ModularParam, tol: float = 1e-8) -> complex:
    """Forward quantum transform

    ``phi(lam,t) = int_C G_b(i t2 - i t + i lam) G_b(-i t2 - i lam)/G_b(-i t)
      e^{pi i lam(lam - 2t + 2 t2)} f(t-t2, t2) dt2``

    with C above the pole ladder descending from t2 = -lam and below the one
    ascending from t2 = t - lam.  Internally centered at u = t2 + lam, where
    the G_b factors depend only on u and t (heads at u = 0 and u = t); f must
    be entire with rapid decay on horizontal lines (class W), vectorized.
    """
    return _forward(_gb_kernel(p, tol), f, lam, t, tol)


def apply_q_inverse(phi, t1: complex, t2: complex, p: ModularParam, tol: float = 1e-8) -> complex:
    """Inverse quantum transform

    ``f(t1,t2) = int_{C'} G_b(-i lam + i t1) G_b(i lam + i t2)/G_b(i t)
      e^{pi i lam(lam + 2 t2)} e^{-2 pi i t1 t2} phi(lam, t1+t2) d lam``

    with C' above the ladder descending from lam = t1 and below the one
    ascending from lam = -t2 (centered at mu = lam - t1).  phi must accept
    complex lam arrays and the scalar t (it is analytic; the forward transform
    provides this).
    """
    return _inverse(_gb_kernel(p, tol), phi, t1, t2, tol)


def q_roundtrip(
    f, t1: float, t2: float, p: ModularParam, tol: float = 1e-9, level: int = 1,
) -> complex:
    """inverse(forward(f)) at (t1,t2), both on the fixed nodes of ``level``:
    the inverse's nodes are the lam array of one forward grid."""
    return _inverse(_gb_kernel(p, tol), lambda lam, t: q_forward_grid(f, lam, t, p, tol, level),
                    t1, t2, level=level)


def q_forward_grid(
    f, lams: np.ndarray, t: complex, p: ModularParam, tol: float = 1e-9, level: int = 1,
) -> np.ndarray:
    """Forward transform on an array of lam at fixed t (one G_b sweep)."""
    return _forward(_gb_kernel(p, tol), f, lams, t, level=level)


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
