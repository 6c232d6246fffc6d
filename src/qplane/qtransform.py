"""Quantum dilogarithm transform kernels and their application as contour
transforms, plus the rescaled classical limit toward the gamma-kernel
intertwiners.

Kernel families:

* plain ``floor``/``ceil`` (position picture, evaluated pointwise only),
* their starred modifications (extra unimodular factors that make the
  Fourier picture work),
* the Fourier-picture reduced kernels ``F_floor_star``/``F_ceil_star``
  applied as one-dimensional contour transforms.

The Fourier-picture kernels are the G_b kernel family of ``axb``: its point
values are ``F_floor_star``/``F_ceil_star``, and the applied transforms are
``axb``'s separating-contour transforms with this family in place of the
gamma one.  The classical limit is the same swap of family: b times the
G_b point at (b lam, b t1, b t2) tends to the gamma point at (lam, t1, t2)
as q -> 1.  In the centered variable (u = t2 + lam forward, mu = lam - t1
inverse) the G_b factors do not depend on lam: fixed-node grids and round
trips take one G_b sweep (one ``gb_many`` call) per contour, on the half of
its folded contour (see ``axb``), and contract it against blocks of lam.
"""

from __future__ import annotations

import numpy as np

from .axb import KernelFamily, _separating_contour, classical_kernel
from .contours import path_clear_of
from .errors import DomainError
from .modular import ModularParam, from_r
from .qdilog import QDValue, gb, gb_many

_TRUNCATION = 6.0  # half-length of the quantum transforms' separating contour


# ---------------------------------------------------------------------------
# kernels


def gb_family(p: ModularParam, tol: float) -> KernelFamily:
    """The G_b kernel family at p, G_b evaluated to tol: its points are the
    Fourier-picture kernels F_floor_star/F_ceil_star.  The separating contour
    must clear the pole lattice by half its spacing."""

    def contour(s):
        cont = _separating_contour(s, _TRUNCATION)
        # nearest off-head lattice points of the two pole ladders, in v
        step = min(abs(p.b), abs(1 / p.b))
        head = complex(s) / 2
        if not path_clear_of(cont, [-head - 1j * step, head + 1j * step], 0.5 * step):
            raise DomainError("contour too close to the pole lattice (increase spacing)")
        return cont

    return KernelFamily(
        lambda z: gb_many(z, p, tol), lambda z: gb(z, p, tol), 1.0, contour,
        forward_phase=lambda lam, u, t: np.exp(1j * np.pi * lam * (2 * u - 2 * t - lam)),
        inverse_phase=lambda lam, t1, t2: np.exp(1j * np.pi * lam * (lam + 2 * t2))
        * np.exp(-2j * np.pi * t1 * t2),
    )


POSITION_KINDS = ("floor", "ceil", "floor_star", "ceil_star")
_FOURIER_KINDS = {"F_floor_star": "floor", "F_ceil_star": "ceil"}  # the G_b family's point kinds


def q_kernel(kind: str, args, p: ModularParam, tol: float = 1e-10) -> QDValue:
    """Pointwise kernel values as QDValues: each G_b factor is evaluated once,
    and the value carries the factors' backend and summed relative estimates.

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
    if kind in _FOURIER_KINDS:
        return gb_family(p, tol).point(_FOURIER_KINDS[kind], *(complex(v) for v in args))
    if kind not in POSITION_KINDS:
        raise DomainError(f"unknown kernel kind {kind!r}")
    alpha, x, x1, x2 = (complex(v) for v in args)
    if kind.startswith("floor"):
        base = p.zeta_b_bar * np.exp(2j * np.pi * (x - x1) * (x2 - x1 + alpha)) \
            / gb(p.Q + 1j * x - 1j * x2, p, tol)
        star = lambda: p.zeta_b_bar * np.exp(-1j * np.pi * (x - x1) ** 2) \
            / gb(p.Q / 2 + 1j * alpha, p, tol)
    else:
        base = p.zeta_b * np.exp(-2j * np.pi * (x - x1) * (x2 - x1 + alpha)) \
            * gb(1j * x - 1j * x2, p, tol)
        star = lambda: p.zeta_b * np.exp(1j * np.pi * (x - x1) ** 2) * gb(p.Q / 2 + 1j * alpha, p, tol)
    return star() * base if kind.endswith("_star") else base


# ---------------------------------------------------------------------------
# applied transforms


def apply_q_forward(f, lam: complex, t: complex, p: ModularParam, tol: float = 1e-8) -> complex:
    """Forward quantum transform

    ``phi(lam,t) = int_C G_b(i t2 - i t + i lam) G_b(-i t2 - i lam)/G_b(-i t)
      e^{pi i lam(lam - 2t + 2 t2)} f(t-t2, t2) dt2``

    with C above the pole ladder descending from t2 = -lam and below the one
    ascending from t2 = t - lam.  Internally centered at u = t2 + lam, where
    the G_b factors depend only on u and t (heads at u = 0 and u = t), and
    folded about the midpoint u = t/2: ``gb_family(p, tol).forward``'s value.
    f must have rapid decay on horizontal lines (class W), be vectorized, and,
    for real lam and t, be analytic within |Im| <= 0.35 of the real axis in
    both arguments (entire data always is).
    """
    return gb_family(p, tol).forward(f, lam, t, tol)[0]


def q_roundtrip(f, t1: float, t2: float, p: ModularParam, tol: float = 1e-9) -> complex:
    """``gb_family(p, tol).roundtrip``, G_b evaluated to tol; f must broadcast
    an (m, 1) array against an (n,) array."""
    return gb_family(p, tol).roundtrip(f, t1, t2)


def q_forward_grid(
    f, lams: np.ndarray, t: complex, p: ModularParam, tol: float = 1e-9, level: int = 1,
) -> np.ndarray:
    """``gb_family(p, tol).forward_grid`` (one G_b sweep); f must broadcast an
    (m, 1) array of lam against an (n,) array of nodes."""
    return gb_family(p, tol).forward_grid(f, lams, t, level)


# ---------------------------------------------------------------------------
# classical limit of the kernels


def kernel_limit_residual(lam: float, t1: float, t2: float, r: float,
                          variant: str = "floor", tol: float = 1e-11) -> float:
    """|b * (rescaled quantum Fourier kernel) - classical kernel| at b^2 = i r:
    the G_b family's point against the gamma family's, same variant.

    Rescaling all variables by b and multiplying by b (the delta factors are
    resolved identically on both sides):

      b F_floor_star(b lam; b t1, b t2) -> (1/2pi) Gamma(i lam - i t1)
                                           Gamma(-i t2 - i lam)/Gamma(-i t).
    """
    p = from_r(r)
    b = p.b
    quantum = b * gb_family(p, tol).point(variant, b * lam, b * t1, b * t2).value
    return float(abs(quantum - classical_kernel(variant, lam, t1, t2)))
