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
from typing import Callable

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


def intertwiner_forward(f: TwoVarFn, lam: complex, t: complex, tol: float = 1e-9) -> complex:
    """Multiplicity-space component
    ``F(lam,t) = (1/2pi) int_C Gamma(i t2 - i t + i lam) Gamma(-i t2 - i lam)/Gamma(-i t)
    f(t-t2,t2) dt2`` with C above the poles descending from t2 = -lam and
    below those ascending from t2 = t - lam.

    Evaluated in the centered variable u = t2 + lam, which makes the kernel's
    pole structure independent of lam (heads at u = 0 and u = t).
    """
    gt = gamma(-1j * t)
    cont = _separating_contour(t, _TRUNCATION)

    def integrand(u):
        return gamma(1j * (u - t)) * gamma(-1j * u) / gt * f(t - u + lam, u - lam)

    return complex(integrate_contour(integrand, cont, tol=tol).value / (2 * np.pi))


def intertwiner_inverse(F: TwoVarFn, t1: complex, t2: complex, tol: float = 1e-9) -> complex:
    """Inverse transform
    ``f(t1,t2) = (1/2pi) int_{C'} Gamma(-i lam + i t1) Gamma(i lam + i t2)/Gamma(i t)
    F(lam, t1+t2) d lam`` with C' above the poles descending from lam = t1 and
    below those ascending from lam = -t2 (centered at mu = lam - t1)."""
    t = t1 + t2
    gt = gamma(1j * t)
    cont = _separating_contour(-t, _TRUNCATION)  # heads mu = 0 (above), mu = -t (below)

    def integrand(mu):
        lam = mu + t1
        return gamma(-1j * mu) * gamma(1j * (mu + t)) / gt * F(lam, t + 0 * mu)

    return complex(integrate_contour(integrand, cont, tol=tol).value / (2 * np.pi))


def intertwiner_forward_grid(f: TwoVarFn, lams: np.ndarray, t: complex, level: int = 2) -> np.ndarray:
    """forward transform on an array of lam at fixed t, batching the
    lam-independent gamma factors over the shared centered contour."""
    lams = np.asarray(lams, dtype=complex)
    u, wq = contour_nodes(_separating_contour(t, _TRUNCATION), level=level)
    gfac = gamma(1j * (u - t)) * gamma(-1j * u) / gamma(-1j * t) * wq
    vals = np.array([np.sum(gfac * f(t - u + l, u - l)) for l in lams])
    return vals / (2 * np.pi)
