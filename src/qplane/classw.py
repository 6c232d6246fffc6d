"""The dense test-function class W: Gaussians times polynomials.

Finite sums  sum_k exp(-A_k x^2 + B_k x) P_k(x)  with A_k > 0 real, B_k and
the polynomial coefficients complex.  Every such function is entire, of
rapid decay on horizontal lines, and the class is closed under the Fourier
transform  (F f)(xi) = int f(x) e^{-2 pi i x xi} dx  -- computed here exactly
by completing the square and a Hermite-type derivative recursion.

Also hosts the numerical Mellin transform on the half line, vectorized over
complex s, which the classical ax+b checks use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, QuadratureError

# ---------------------------------------------------------------------------
# class-W algebra


def _poly_eval(coeffs: Sequence[complex], z: np.ndarray) -> np.ndarray:
    out = np.zeros_like(z, dtype=complex)
    for c in coeffs[::-1]:
        out = out * z + c
    return out


def _poly_affine(p: np.ndarray, a: complex, b: complex) -> np.ndarray:
    """Coefficients of p(a*x + b) given coefficients of p (ascending)."""
    out = np.zeros(1, dtype=complex)
    lin = np.array([b, a], dtype=complex)
    power = np.ones(1, dtype=complex)
    for c in p:
        out = np.polynomial.polynomial.polyadd(out, c * power)
        power = np.convolve(power, lin)
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
        zz = zz.reshape(1) if scalar else zz  # numpy's scalar arithmetic rounds differently
        out = None
        for t in self.terms:
            term = np.exp(-t.a * zz**2 + t.b * zz)
            # Horner gives a constant P as c: multiply by c unless 1, out of place (in place rounds otherwise)
            if len(t.poly) > 1:
                term = term * _poly_eval(t.poly, zz)
            elif t.poly != (1,):
                term = term * complex(t.poly[0])
            if out is None:
                out = term
            else:
                out += term
        if out is None:  # no terms: the zero function
            out = np.zeros_like(zz)
        return complex(out[0]) if scalar else out

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
# Mellin transform (half-line, double-exponential nodes)


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

