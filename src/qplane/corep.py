"""Scalar kernel of the coaction of the quantum ax+b semigroup.

The coaction maps f(t) to an integral of scalar kernels times normal-ordered
monomials A^{i x / b} B^{i (t-x)/b} in the two positive generators with
A B = q^2 B A.  No operator realization is used: the corepresentation axiom
reduces to an exact identity of the scalar kernels, the pairing with the
dual generators reduces to residues of the kernel in its integration
variable, and the classical limit of the scalar kernel is the gamma kernel
of the unitary representation R+ of the ax+b group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contours import residue_at
from .errors import DomainError
from .gammafn import gamma
from .modular import ModularParam, from_r
from .qdilog import gb, gb_many


@dataclass(frozen=True)
class NormalOrderedMonomial:
    """coeff * A^{i a_exp / b} B^{i b_exp / b}, A-power kept left of B-power."""

    a_exp: complex
    b_exp: complex
    coeff: complex = 1.0 + 0j

    def mul(self, other: "NormalOrderedMonomial", p: ModularParam) -> "NormalOrderedMonomial":
        """Reorder B^{it} A^{is'} = q^{2 t s'} A^{is'} B^{it} with the 1/b
        exponent convention, so the phase is q^{2 b_exp a_exp' / b^2}."""
        phase = p.q ** (2.0 * self.b_exp * other.a_exp / p.b2)
        return NormalOrderedMonomial(
            self.a_exp + other.a_exp,
            self.b_exp + other.b_exp,
            self.coeff * other.coeff * phase,
        )


def _sin_pib2(p: ModularParam) -> complex:
    s = 2.0 * np.sin(np.pi * p.b2)
    return complex(s)


def coaction_kernel(x: float, t: float, p: ModularParam,
                    tol: float = 1e-10) -> tuple[complex, NormalOrderedMonomial]:
    """Scalar coefficient and monomial of the coaction integrand at (x, t):

    ``e^{pi Q (t-x)} G_b(i x - i t) (2 sin pi b^2)^{-i (x-t)/b}
      * A^{i x/b} B^{i (t-x)/b}``.

    For real b the power of the positive base 2 sin(pi b^2) is unimodular.
    """
    if p.regime != "integral":
        raise DomainError("the semigroup coaction kernel assumes real b")
    if abs(x - t) < 1e-12:
        raise DomainError("kernel pole at t = x (the contour passes above it)")
    scalar = (
        np.exp(np.pi * p.Q * (t - x))
        * gb(1j * (x - t), p, tol).value
        * _sin_pib2(p) ** (-1j * (x - t) / p.b)
    )
    return complex(scalar), NormalOrderedMonomial(complex(x), complex(t - x))


def _scaled_coaction_kernel(x, z, p: ModularParam, tol: float = 1e-10) -> complex:
    # variables rescaled by b: K(x,z) = G_b(ib(x-z)) e^{pi Q b (z-x)} s^{-i(x-z)}
    return complex(
        gb(1j * p.b * (x - z), p, tol).value
        * np.exp(np.pi * p.Q * p.b * (z - x))
        * _sin_pib2(p) ** (-1j * (x - z))
    )


def coproduct_kernel(x: float, w: float, z: float, p: ModularParam,
                     tol: float = 1e-10) -> complex:
    """q-binomial expansion kernel of Delta(A^{ix} B^{iz-ix}) at tau = -w:

    ``G_b(i b x - i b w) G_b(i b w - i b z) / G_b(i b x - i b z)``."""
    for u, v in ((x, w), (w, z), (x, z)):
        if abs(u - v) < 1e-9:
            raise DomainError("coproduct kernel needs pairwise distinct arguments")
    return complex(
        gb(1j * p.b * (x - w), p, tol).value
        * gb(1j * p.b * (w - z), p, tol).value
        / gb(1j * p.b * (x - z), p, tol).value
    )


def corep_axiom_residual(x: float, w: float, z: float, p: ModularParam,
                         tol: float = 1e-10) -> float:
    """Relative residual of the scalar corepresentation identity

    ``K(x,z) * K_coproduct(x,w,z) = K(x,w) * K(w,z)``

    (all exponential and 2 sin(pi b^2) factors included; the G_b(ibx-ibz)
    denominators cancel, so this is an exact identity of kernels)."""
    lhs = _scaled_coaction_kernel(x, z, p, tol) * coproduct_kernel(x, w, z, p, tol)
    rhs = _scaled_coaction_kernel(x, w, p, tol) * _scaled_coaction_kernel(w, z, p, tol)
    return abs(lhs - rhs) / abs(rhs)


# ---------------------------------------------------------------------------
# pairing with the dual generators


def _pairing_integrand(f, x: float, p: ModularParam, tol: float):
    b = p.b
    s2 = _sin_pib2(p)

    def F(t):
        return b * f(x + b * t) * gb_many(-1j * b * t, p, tol) \
            * np.exp(np.pi * p.Q * b * t) * s2 ** (1j * t)

    return F


def pairing(gen: str, f, x: float, p: ModularParam, tol: float = 1e-8) -> complex:
    """Action of the dual generators extracted from the coaction by residues.

    After centering the integration variable at x, the coaction integrand is
    ``F(t) = b f(x+bt) G_b(-i b t) e^{pi Q b t} (2 sin pi b^2)^{i t}`` times
    the monomial A^{ix/b} B^{it}; pairing with X extracts -2 pi i e^{2 pi b x}
    times the residue at t = 0 (expected: multiplication by e^{2 pi b x}),
    pairing with Y extracts -2 pi times the residue at t = -i (expected: the
    shift f(x - i b)).  Residues are cross-checked at radii 0.05 and 0.1.
    """
    if p.regime != "integral":
        raise DomainError("pairing assumes real b")
    F = _pairing_integrand(f, x, p, tol)
    t0 = 0j if gen == "X" else -1j
    if gen not in ("X", "Y"):
        raise ValueError(f"unknown generator {gen!r}")
    r1 = residue_at(F, t0, 0.05)
    r2 = residue_at(F, t0, 0.1)
    if abs(r1 - r2) > 100 * tol * max(1.0, abs(r1)):
        raise DomainError(f"residue inconsistent across radii 0.05 and 0.1: {r1} vs {r2}")
    if gen == "X":
        return complex(-2j * np.pi * np.exp(2 * np.pi * p.b * x) * r2)
    return complex(-2 * np.pi * r2)


# ---------------------------------------------------------------------------
# classical limit of the coaction


def coaction_limit_residual(x: float, z: float, r: float, variant: str = "V",
                            tol: float = 1e-11) -> float:
    """|b * K_scaled(x,z;r) - (1/2pi) Gamma(ix-iz) (-i)^{iz-ix}| at b^2 = i r.

    The rescaled coaction kernel (with the measure factor b absorbed)
    converges to the Mellin-picture kernel of R+; variant 'Vstar' checks the
    conjugate route, conj(b K(z,x;r)) -> (1/2pi) Gamma(ix-iz) (+i)^{iz-ix},
    the kernel of R-.
    """
    if abs(x - z) < 1e-9:
        raise DomainError("kernel pole at x = z")
    p = from_r(r)
    b, Q = p.b, p.Q
    s = 2.0 * np.sin(np.pi * p.b2)  # = 2 i sinh(pi r) on the limit schedule

    def scaled(xx, zz):
        return (
            b
            * gb(1j * b * (xx - zz), p, tol).value
            * np.exp(np.pi * Q * b * (zz - xx))
            * np.exp(1j * (zz - xx) * np.log(complex(s)))
        )

    if variant == "V":
        quantum = scaled(x, z)
        target = gamma(1j * (x - z)) / (2 * np.pi) * np.exp((1j * (z - x)) * np.log(-1j))
    elif variant == "Vstar":
        quantum = np.conj(scaled(z, x))
        target = gamma(1j * (x - z)) / (2 * np.pi) * np.exp((1j * (z - x)) * np.log(1j))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return float(abs(quantum - target))
