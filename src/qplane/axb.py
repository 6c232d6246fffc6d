"""The classical ax+b group: unitary representations, tensor decompositions,
and the gamma-kernel intertwiners.

The group acts on L^2(R+, dx/x).  In the point picture the representation
R_lambda is ``f(x) -> e^{lambda b x} f(a x)`` (lambda = -i and +i give the
two inequivalent unitary irreducibles); the Mellin picture turns dilations
into phases and the action into a gamma-kernel contour transform.  Tensor
products decompose through elementary changes of variables; their Mellin
expression is a Mellin-Barnes transform whose kernels degenerate, in the
appropriate limit, from the quantum-dilogarithm kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .contours import auto_detours, contour_nodes, integrate_contour
from .errors import DomainError
from .gammafn import gamma

TwoVarFn = Callable[[np.ndarray, np.ndarray], np.ndarray]

_TRUNCATION = 14.0  # half-length of the intertwiners' separating contour


@dataclass(frozen=True)
class GroupElement:
    """Affine map x -> a x + shift (form='standard') or its transpose (shift = lower-left entry)."""

    a: float
    shift: float
    form: str = "standard"

    def __post_init__(self):
        if not self.a > 0:
            raise DomainError("group element needs a > 0")
        if self.form not in ("standard", "transpose"):
            raise DomainError(f"unknown form {self.form!r}")

    def compose(self, other: "GroupElement") -> "GroupElement":
        if self.form != other.form:
            raise DomainError("cannot compose elements of different forms")
        if self.form == "standard":
            # (a1, b1)(a2, b2) = (a1 a2, a1 b2 + b1)
            return GroupElement(self.a * other.a, self.a * other.shift + self.shift)
        # transpose: (a1, c1)(a2, c2) = (a1 a2, c1 a2 + c2)
        return GroupElement(self.a * other.a, self.shift * other.a + other.shift, "transpose")


@dataclass(frozen=True)
class RepLabel:
    """Representation label: lam = -i (R+) or +i (R-), or general complex; rho labels characters."""

    lam: complex | None = None
    rho: float | None = None

    def __post_init__(self):
        if (self.lam is None) == (self.rho is None):
            raise DomainError("specify exactly one of lam (R_lambda) or rho (T_rho)")


R_PLUS = RepLabel(lam=-1j)
R_MINUS = RepLabel(lam=1j)


def act_point(g: GroupElement, lab: RepLabel, f, x):
    """Point-picture action on the half line:
    standard ``e^{lam*shift*x} f(a x)``; transpose ``e^{-lam*shift*x/a} f(x/a)``."""
    if lab.lam is None:
        raise DomainError("T_rho has no point-picture action on the half line")
    xx = np.asarray(x, dtype=float)
    if np.any(xx <= 0):
        raise DomainError("half-line argument must be positive")
    if g.form == "standard":
        return np.exp(lab.lam * g.shift * xx) * np.asarray(f(g.a * xx))
    return np.exp(-lab.lam * g.shift * xx / g.a) * np.asarray(f(xx / g.a))


def act_mellin(
    g: GroupElement,
    lab: RepLabel,
    F: Callable[[np.ndarray], np.ndarray],
    w: complex,
    tol: float = 1e-9,
    truncation: float = 24.0,
    imag_shift: float = 0.0,
) -> complex:
    """Mellin-picture action, convention F(w) = int_0^inf x^{i w} f(x) dx/x:

    ``(R(g)F)(w) = int K(w,z;g) F(z) dz`` over a contour above the pole z = w,
    ``K = Gamma(i w - i z) a^{-i w} (-lam*shift/a)^{i z - i w} / (2 pi)``
    (transpose form: a^{+i w} (lam*shift)^{i z - i w}).  shift = 0 degenerates
    to the exact dilation phase.  Requires |arg| < pi for the phase base, and
    F of rapid decay on the contour.
    """
    if lab.rho is not None:
        return g.a ** (1j * lab.rho) * complex(F(np.asarray([w]))[0])
    lam = lab.lam
    w = complex(w)
    if g.shift == 0.0:
        phase = g.a ** (-1j * w) if g.form == "standard" else g.a ** (1j * w)
        return complex(phase * np.asarray(F(np.array([w], dtype=complex)))[0])
    base = -lam * g.shift / g.a if g.form == "standard" else lam * g.shift
    if abs(np.angle(complex(base))) >= np.pi - 1e-12:
        raise DomainError("phase base on the branch cut: |arg| < pi required")
    apow = g.a ** (-1j * w) if g.form == "standard" else g.a ** (1j * w)
    lbase = np.log(complex(base))

    def integrand(z):
        return gamma(1j * (w - z)) * np.exp(1j * (z - w) * lbase) * np.asarray(F(z))

    # imag_shift > 0 runs the line above the whole descending pole ladder of
    # the kernel (legitimate whenever F is analytic in the strip crossed)
    cont = auto_detours([(w, "above")], truncation=truncation, imag_shift=imag_shift)
    val = integrate_contour(integrand, cont, tol=tol).value
    return complex(apow * val / (2 * np.pi))


# ---------------------------------------------------------------------------
# tensor product decompositions


def decompose(case: str, f: TwoVarFn, rho: float | None = None):
    """Unitary change of variables realizing the tensor decomposition.

    pp:  F(alpha, x) = f(alpha x/(alpha+1), x/(alpha+1))
    pm:  F(alpha, x) = f(alpha x/|alpha-1|, x/|alpha-1|), alpha = 1 excluded
    rho: Mellin shift F(w) = f(w - rho)
    """
    if case == "pp":
        def F(alpha, x):
            alpha = np.asarray(alpha, dtype=float)
            x = np.asarray(x, dtype=float)
            return f(alpha * x / (alpha + 1), x / (alpha + 1))
        return F
    if case == "pm":
        def F(alpha, x):
            alpha = np.asarray(alpha, dtype=float)
            x = np.asarray(x, dtype=float)
            if np.any(np.abs(alpha - 1) < 1e-8):
                raise DomainError("alpha = 1 is the singular locus of the pm case")
            return f(alpha * x / np.abs(alpha - 1), x / np.abs(alpha - 1))
        return F
    if case == "rho":
        if rho is None:
            raise DomainError("case rho needs the character label rho")
        return lambda w: f(w - rho)  # type: ignore[misc]
    raise ValueError(f"unknown decomposition case {case!r}")


def recompose(case: str, F, rho: float | None = None):
    """Inverse of decompose: pp f(x1,x2) = F(x1/x2, x1+x2); pm uses |x1-x2|."""
    if case == "pp":
        return lambda x1, x2: F(np.asarray(x1) / np.asarray(x2), np.asarray(x1) + np.asarray(x2))
    if case == "pm":
        def f(x1, x2):
            x1 = np.asarray(x1, dtype=float)
            x2 = np.asarray(x2, dtype=float)
            if np.any(np.abs(x1 - x2) < 1e-12):
                raise DomainError("x1 = x2 maps to the singular locus of the pm case")
            return F(x1 / x2, np.abs(x1 - x2))
        return f
    if case == "rho":
        if rho is None:
            raise DomainError("case rho needs the character label rho")
        return lambda x: F(x + rho)
    raise ValueError(f"unknown decomposition case {case!r}")


# ---------------------------------------------------------------------------
# gamma-kernel intertwiners (Mellin picture of R+ (x) R+ ~ multiplicity (x) R+)


def classical_kernel(kind: str, lam: float, t1: float, t2: float) -> complex:
    """Reduced intertwiner kernels (the energy-conservation delta resolved):

    floor: (1/2pi) Gamma(i lam - i t1) Gamma(-i t2 - i lam) / Gamma(-i t)
    ceil:  (1/2pi) Gamma(-i lam + i t1) Gamma(i t2 + i lam) / Gamma(i t)

    with t = t1 + t2; ceil is the complex conjugate of floor for real input.
    """
    t = t1 + t2
    if kind == "floor":
        return complex(
            gamma(1j * (lam - t1)) * gamma(-1j * (t2 + lam)) / gamma(-1j * t) / (2 * np.pi)
        )
    if kind == "ceil":
        return complex(
            gamma(-1j * (lam - t1)) * gamma(1j * (t2 + lam)) / gamma(1j * t) / (2 * np.pi)
        )
    raise ValueError(f"unknown kernel kind {kind!r}")


def _separating_contour(t: complex, truncation: float):
    """Contour above the head at 0 and below the head at t (shared by both
    transforms after centering the integration variable)."""
    return auto_detours([(0j, "above"), (complex(t), "below")], truncation=truncation)


class _Kernel(NamedTuple):
    """A kernel family of the separating-contour transforms, in the centered
    variable whose pole ladders head at 0 (contour above) and s (below):
    u = t2 + lam with s = t forward, mu = lam - t1 with s = -t inverse."""

    weight: Callable  # s -> (u -> K(i u - i s) K(-i u) / K(-i s)), lam-independent
    contour: Callable  # s -> the separating contour
    max_panel: float
    scale: float = 1.0  # the transform is the contour integral / scale
    forward_phase: Callable | None = None  # (lam, u, t) -> the entire lam-phase
    inverse_phase: Callable | None = None  # (lam, t1, t2) -> the entire lam-phase


def _forward(kernel: _Kernel, f: TwoVarFn, lam, t: complex, tol=None, level: int | None = None):
    """``int weight(u) phase f(t - u + lam, u - lam) du / scale``: adaptive at one
    lam for ``level=None``, else on the nodes of ``level`` for an array of lam,
    the weight evaluated once and contracted one lam at a time."""

    def term(u, g, lam):
        if kernel.forward_phase:
            g = g * kernel.forward_phase(lam, u, t)
        return g * f(t - u + lam, u - lam)

    if level is None:
        weight = kernel.weight(t)
        return complex(integrate_contour(lambda u: term(u, weight(u), lam), kernel.contour(t),
                                         tol=tol, max_panel=kernel.max_panel).value / kernel.scale)
    u, wq = contour_nodes(kernel.contour(t), level=level, max_panel=kernel.max_panel)
    g = kernel.weight(t)(u) * wq
    return np.array([np.sum(term(u, g, l)) for l in np.asarray(lam, dtype=complex)]) / kernel.scale


def _inverse(kernel: _Kernel, F: TwoVarFn, t1, t2, tol=None, level: int | None = None) -> complex:
    """``int weight(mu) phase F(mu + t1, t) d mu / scale`` at t = t1 + t2 (a
    scalar in F): adaptive for ``level=None``, else on the nodes of ``level``."""
    t = t1 + t2

    def term(mu, g):
        lam = mu + t1
        if kernel.inverse_phase:
            g = g * kernel.inverse_phase(lam, t1, t2)
        return g * F(lam, t)

    if level is None:
        weight = kernel.weight(-t)
        val = integrate_contour(lambda mu: term(mu, weight(mu)), kernel.contour(-t),
                                tol=tol, max_panel=kernel.max_panel).value
    else:
        mu, wq = contour_nodes(kernel.contour(-t), level=level, max_panel=kernel.max_panel)
        val = np.sum(term(mu, kernel.weight(-t)(mu) * wq))
    return complex(val / kernel.scale)


def _gamma_weight(s: complex):
    gs = gamma(-1j * s)
    return lambda u: gamma(1j * (u - s)) * gamma(-1j * u) / gs


_GAMMA = _Kernel(_gamma_weight, lambda s: _separating_contour(s, _TRUNCATION), 0.5, 2 * np.pi)


def intertwiner_forward(f: TwoVarFn, lam: complex, t: complex, tol: float = 1e-9) -> complex:
    """Multiplicity-space component
    ``F(lam,t) = (1/2pi) int_C Gamma(i t2 - i t + i lam) Gamma(-i t2 - i lam)/Gamma(-i t)
    f(t-t2,t2) dt2`` with C above the poles descending from t2 = -lam and
    below those ascending from t2 = t - lam.

    Evaluated in the centered variable u = t2 + lam, which makes the kernel's
    pole structure independent of lam (heads at u = 0 and u = t).
    """
    return _forward(_GAMMA, f, lam, t, tol)


def intertwiner_inverse(F: TwoVarFn, t1: complex, t2: complex, tol: float = 1e-9) -> complex:
    """Inverse transform
    ``f(t1,t2) = (1/2pi) int_{C'} Gamma(-i lam + i t1) Gamma(i lam + i t2)/Gamma(i t)
    F(lam, t1+t2) d lam`` with C' above the poles descending from lam = t1 and
    below those ascending from lam = -t2 (centered at mu = lam - t1).  F takes
    an array of lam and the scalar t."""
    return _inverse(_GAMMA, F, t1, t2, tol)


def intertwiner_forward_grid(f: TwoVarFn, lams: np.ndarray, t: complex, level: int = 2) -> np.ndarray:
    """forward transform on an array of lam at fixed t, on the fixed nodes of
    ``level`` with the gamma factors evaluated once."""
    return _forward(_GAMMA, f, lams, t, level=level)


def intertwiner_roundtrip(f: TwoVarFn, t1: complex, t2: complex, tol: float = 1e-9) -> complex:
    """inverse(forward(f)) at (t1, t2): the adaptive inverse over the level-2
    forward grid; equals f(t1, t2) up to quadrature error."""
    return intertwiner_inverse(lambda lam, t: intertwiner_forward_grid(f, lam, t), t1, t2, tol)
