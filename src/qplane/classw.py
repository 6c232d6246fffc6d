"""The dense test-function class W: Gaussians times polynomials.

Finite sums  sum_k exp(-A_k x^2 + B_k x) P_k(x)  with A_k > 0 real, B_k and
the polynomial coefficients complex.  Every such function is entire, of
rapid decay on horizontal lines, and the class is closed under the Fourier
transform  (F f)(xi) = int f(x) e^{-2 pi i x xi} dx  -- computed here exactly
by completing the square and a Hermite-type derivative recursion.

Also hosts the numerical Mellin transform pair and the Parseval residual on
the half line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .contours import _panels, integrate_line
from .errors import DomainError, QuadratureError

# ---------------------------------------------------------------------------
# class-W algebra


def _poly_eval(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    out = np.zeros_like(z, dtype=complex)
    for c in coeffs[::-1]:
        out = out * z + c
    return out


def _poly_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.convolve(p, q)


def _poly_affine(p: np.ndarray, a: complex, b: complex) -> np.ndarray:
    """Coefficients of p(a*x + b) given coefficients of p (ascending)."""
    out = np.zeros(1, dtype=complex)
    lin = np.array([b, a], dtype=complex)
    power = np.ones(1, dtype=complex)
    for c in p:
        out = np.polynomial.polynomial.polyadd(out, c * power)
        power = _poly_mul(power, lin)
    return out


@dataclass(frozen=True)
class WTerm:
    """One Gaussian-times-polynomial term exp(-A x^2 + B x) P(x)."""

    a: float
    b: complex
    poly: tuple[complex, ...] = (1.0 + 0j,)

    def __post_init__(self):
        if not self.a > 0:
            raise DomainError("Gaussian width A must be positive")
        if len(self.poly) == 0:
            raise DomainError("empty polynomial")


@dataclass(frozen=True)
class ClassWFunction:
    """Finite sum of Gaussian-times-polynomial terms; entire in z."""

    terms: tuple[WTerm, ...] = field(default_factory=tuple)

    def __call__(self, z) -> np.ndarray | complex:
        zz = np.asarray(z, dtype=complex)
        scalar = zz.ndim == 0
        zz = np.atleast_1d(zz)
        out = np.zeros_like(zz)
        for t in self.terms:
            out += np.exp(-t.a * zz**2 + t.b * zz) * _poly_eval(
                np.asarray(t.poly, dtype=complex), zz
            )
        return complex(out[0]) if scalar else out

    def __add__(self, other: "ClassWFunction") -> "ClassWFunction":
        return ClassWFunction(self.terms + other.terms)

    def scale(self, c: complex) -> "ClassWFunction":
        return ClassWFunction(
            tuple(
                WTerm(t.a, t.b, tuple(c * np.asarray(t.poly, dtype=complex)))
                for t in self.terms
            )
        )

    @staticmethod
    def gaussian(a: float = np.pi, b: complex = 0.0, poly: Sequence[complex] = (1.0,)):
        return ClassWFunction((WTerm(float(a), complex(b), tuple(complex(c) for c in poly)),))


def _hermite_like(k_max: int, a: float) -> list[np.ndarray]:
    """Polynomials p_k(C) with int x^k e^{-a x^2 + C x} dx = sqrt(pi/a) e^{C^2/4a} p_k(C).

    Recursion p_{k+1} = (C/2a) p_k + p_k'.
    """
    polys = [np.array([1.0 + 0j])]
    for _ in range(k_max):
        p = polys[-1]
        shifted = np.concatenate([[0.0 + 0j], p]) / (2 * a)
        deriv = p[1:] * np.arange(1, len(p)) if len(p) > 1 else np.zeros(1, dtype=complex)
        polys.append(np.polynomial.polynomial.polyadd(shifted, deriv))
    return polys


def fourier_classW(f: ClassWFunction) -> ClassWFunction:
    """Exact Fourier transform, convention (Ff)(xi) = int f(x) e^{-2 pi i x xi} dx.

    Each term exp(-A x^2 + B x) x^k maps to a Gaussian exp(-pi^2 xi^2 / A)
    times a polynomial in xi; e^{-pi x^2} is a fixed point.
    """
    new_terms = []
    for t in f.terms:
        a = t.a
        coeffs = np.asarray(t.poly, dtype=complex)
        k_max = len(coeffs) - 1
        polys = _hermite_like(k_max, a)
        # C = B - 2 pi i xi ; prefactor sqrt(pi/a) e^{C^2/4a}
        # C^2/4a = B^2/4a - (pi i B / a) xi - (pi^2/a) xi^2
        pref = np.sqrt(np.pi / a) * np.exp(t.b**2 / (4 * a))
        poly_xi = np.zeros(1, dtype=complex)
        for k, ck in enumerate(coeffs):
            pk_in_xi = _poly_affine(polys[k], -2j * np.pi, t.b)
            poly_xi = np.polynomial.polynomial.polyadd(poly_xi, ck * pk_in_xi)
        new_terms.append(
            WTerm(np.pi**2 / a, -1j * np.pi * t.b / a, tuple(pref * poly_xi))
        )
    return ClassWFunction(tuple(new_terms))


# ---------------------------------------------------------------------------
# Mellin transform machinery (half-line, double-exponential nodes)


def _de_nodes(h: float, width: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for int_R g(u) du under u = sinh(w), trapezoid in w.

    The last node never exceeds width (overshoot would push e^u past the
    double range in the half-line integrals).
    """
    n = max(1, int(np.floor(width / h)))
    w = np.linspace(-n * h, n * h, 2 * n + 1)
    return np.sinh(w), np.cosh(w) * h


def mellin_forward(
    f: Callable[[np.ndarray], np.ndarray],
    s,
    tol: float = 1e-10,
    strip: tuple[float, float] | None = None,
) -> np.ndarray | complex:
    """Mellin transform  int_0^inf x^{s-1} f(x) dx, vectorized over s.

    Uses the log substitution x = e^u and double-exponential nodes in u.
    ``strip`` optionally declares the analyticity strip (a, b); Re(s) outside
    it raises DomainError (divergent integral).
    """
    ss = np.asarray(s, dtype=complex)
    scalar = ss.ndim == 0
    ss = np.atleast_1d(ss)
    if strip is not None:
        a, b = strip
        if np.any(ss.real <= a) or np.any(ss.real >= b):
            raise DomainError(f"Re(s) outside declared analyticity strip {strip}")
    # keep e^u and e^{s u} inside double range
    res_max = max(1.0, float(np.max(np.abs(ss.real))))
    width = min(7.5, float(np.arcsinh(680.0 / res_max)))
    h = 0.5
    prev = None
    for _ in range(8):
        u, wts = _de_nodes(h, width)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            fx = np.asarray(f(np.exp(u)), dtype=complex)
            # e^{s u} f(e^u) weights; matrix over (nodes, s)
            kernel = np.exp(np.multiply.outer(u, ss))
            vals = (wts[:, None] * fx[:, None] * kernel).sum(axis=0)
        if not np.all(np.isfinite(vals)):
            raise DomainError("integrand not finite on the half line")
        if prev is not None:
            err = np.max(np.abs(vals - prev))
            if err <= tol * max(1.0, float(np.max(np.abs(vals)))):
                return complex(vals[0]) if scalar else vals
        prev = vals
        h /= 2
    raise QuadratureError("Mellin quadrature did not converge (decay assumption violated?)")


def mellin_inverse(
    phi: Callable[[np.ndarray], np.ndarray],
    x: float,
    c: float,
    tol: float = 1e-10,
    truncation: float = 40.0,
) -> complex:
    """Inverse Mellin transform (1/2pi) int x^{-(c+it)} phi(c+it) dt over the line Re s = c."""
    if not x > 0:
        raise DomainError("inverse Mellin evaluation point must be positive")
    lx = np.log(x)

    def g(t):
        s = c + 1j * t
        return np.exp(-s * lx) * np.asarray(phi(s), dtype=complex)

    val = integrate_line(g, truncation, tol=tol).value
    return val / (2 * np.pi)


def parseval_residual(
    f: Callable[[np.ndarray], np.ndarray],
    sigma: float,
    tol: float = 1e-10,
) -> float:
    """Residual of the Mellin-Plancherel identity on the line Re s = sigma:

    ``int_0^inf |f(x)|^2 x^{2 sigma - 1} dx = (1/2pi) int |Mf(sigma+it)|^2 dt``,

    with the right side truncated to |t| <= 60.  (The weight reduces to
    plain |f|^2 dx at sigma = 1/2.)
    """
    width = float(np.arcsinh(340.0 / max(1.0, abs(sigma))))
    h = 0.25
    lhs = prev = None
    for _ in range(6):
        u, wts = _de_nodes(h, min(7.5, width))
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            fx = np.asarray(f(np.exp(u)), dtype=complex)
            lhs = float(np.sum(wts * np.abs(fx) ** 2 * np.exp(2 * sigma * u)).real)
        if not np.isfinite(lhs):
            raise DomainError("half-line integrand not finite")
        if prev is not None and abs(lhs - prev) <= 0.1 * tol * max(1.0, abs(lhs)):
            break
        prev = lhs
        h /= 2

    # right side: quadrature over t with Mf evaluated in one vectorized sweep;
    # on the line the transform is a Fourier integral of f(e^u) e^{sigma u},
    # so the u-rule resolution must track the largest |t|
    t_nodes, half, wg = _panels(-60.0, 60.0, 240, 12)
    t_wts = wg * half
    mf = _mellin_line_batch(f, sigma, t_nodes)
    rhs = float(np.sum(t_wts * np.abs(mf) ** 2).real / (2 * np.pi))
    return abs(lhs - rhs)


def _mellin_line_batch(f, sigma: float, t_nodes: np.ndarray) -> np.ndarray:
    """Mf(sigma + i t) on a batch of real t, by panel quadrature in u = log x."""
    t_max = float(np.max(np.abs(t_nodes)))
    u_r = min(60.0, 620.0 / max(1.0, sigma))
    u_l = 40.0 / max(0.25, sigma)
    h = min(0.5, 3.0 / max(1.0, t_max))
    u, half, wg = _panels(-u_l, u_r, int(np.ceil((u_r + u_l) / h)), 12)
    w = wg * half
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        g = np.asarray(f(np.exp(u)), dtype=complex) * np.exp(sigma * u) * w
        out = np.empty(t_nodes.shape, dtype=complex)
        chunk = max(16, int(4e6 / u.size))
        for i0 in range(0, t_nodes.size, chunk):
            tt = t_nodes[i0:i0 + chunk]
            out[i0:i0 + chunk] = g @ np.exp(1j * np.outer(u, tt))
    if not np.all(np.isfinite(out)):
        raise DomainError("half-line integrand not finite")
    return out
