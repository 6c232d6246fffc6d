"""Scalar kernel of the coaction of the quantum ax+b semigroup.

The coaction maps f(t) to an integral of scalar kernels times normal-ordered
monomials A^{i x / b} B^{i (t-x)/b} in the two positive generators with
A B = q^2 B A.  No operator realization is used: the corepresentation axiom
reduces to an exact identity of the scalar kernels, the pairing with the
dual generators reduces to residues of the kernel in its integration
variable, and the classical limit of the scalar kernel is the gamma kernel
of the unitary representation R+ of the ax+b group.

All four are written on one vectorized kernel in variables rescaled by b,
``G_b(i b (x-z)) e^{pi Q b (z-x)} (2 sin pi b^2)^{-i (x-z)}``: the coaction
kernel is it at (x/b, t/b), the corepresentation identity is a product of
three of its values, the pairing integrand is it along the residue circles,
and the classical limit is b times it at b^2 = i r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contours import residue_consistent
from .errors import DomainError
from .gammafn import gamma
from .modular import ModularParam, from_r
from .qdilog import QDValue, gb, gb_many
from .qtransform import gb_family


@dataclass(frozen=True)
class NormalOrderedMonomial:
    """A^{i a_exp / b} B^{i b_exp / b}, A-power kept left of B-power."""

    a_exp: complex
    b_exp: complex


def _scaled_coaction_kernel(x, z, p: ModularParam, tol: float = 1e-10):
    """The coaction kernel with its variables rescaled by b, vectorized:

    ``K(x,z) = G_b(i b (x-z)) e^{pi Q b (z-x)} (2 sin pi b^2)^{-i (x-z)}``

    (the one place the powers of 2 sin(pi b^2) are formed).  A scalar x - z
    gives a QDValue (G_b by ``gb``), an array an array (by ``gb_many``)."""
    d = x - z
    return (gb if np.ndim(d) == 0 else gb_many)(1j * p.b * d, p, tol) * np.exp(-np.pi * p.Q * p.b * d) \
        * complex(2.0 * np.sin(np.pi * p.b2)) ** (-1j * d)


def coaction_kernel(x: float, t: float, p: ModularParam,
                    tol: float = 1e-10) -> tuple[QDValue, NormalOrderedMonomial]:
    """Scalar coefficient (with its G_b factor's backend and error estimate)
    and monomial of the coaction integrand at (x, t):

    ``e^{pi Q (t-x)} G_b(i x - i t) (2 sin pi b^2)^{-i (x-t)/b}
      * A^{i x/b} B^{i (t-x)/b}``,

    the rescaled kernel at (x/b, t/b).  For real b the power of the positive
    base 2 sin(pi b^2) is unimodular.
    """
    if p.regime != "integral":
        raise DomainError("the semigroup coaction kernel assumes real b")
    if abs(x - t) < 1e-12:
        raise DomainError("kernel pole at t = x (the contour passes above it)")
    scalar = _scaled_coaction_kernel(x / p.b, t / p.b, p, tol)
    return scalar, NormalOrderedMonomial(complex(x), complex(t - x))


def coproduct_kernel(x: float, w: float, z: float, p: ModularParam,
                     tol: float = 1e-10) -> complex:
    """q-binomial expansion kernel of Delta(A^{ix} B^{iz-ix}) at tau = -w,
    ``G_b(i b x - i b w) G_b(i b w - i b z) / G_b(i b x - i b z)``: the G_b
    family's transform weight at s = b(z - x), v = b(z - w) - s/2."""
    for u, v in ((x, w), (w, z), (x, z)):
        if abs(u - v) < 1e-9:
            raise DomainError("coproduct kernel needs pairwise distinct arguments")
    s = p.b * (z - x)
    return complex(gb_family(p, tol).weight(s)(p.b * (z - w) - s / 2)[0])


def corep_axiom_residual(x: float, w: float, z: float, p: ModularParam,
                         tol: float = 1e-10) -> float:
    """Relative residual of the scalar corepresentation identity

    ``K(x,z) * K_coproduct(x,w,z) = K(x,w) * K(w,z)``

    (all exponential and 2 sin(pi b^2) factors included; the G_b(ibx-ibz)
    denominators cancel, so this is an exact identity of kernels)."""
    lhs = (_scaled_coaction_kernel(x, z, p, tol) * coproduct_kernel(x, w, z, p, tol)).value
    rhs = (_scaled_coaction_kernel(x, w, p, tol) * _scaled_coaction_kernel(w, z, p, tol)).value
    return abs(lhs - rhs) / abs(rhs)


# ---------------------------------------------------------------------------
# pairing with the dual generators


def pairing(gen: str, f, x: float, p: ModularParam, tol: float = 1e-8) -> complex:
    """Action of the dual generators extracted from the coaction by residues.

    After centering the integration variable at x, the coaction integrand is
    ``F(t) = b f(x+bt) G_b(-i b t) e^{pi Q b t} (2 sin pi b^2)^{i t}`` (b f(x+bt)
    times the rescaled kernel at (0, t)) times the monomial A^{ix/b} B^{it};
    pairing with X extracts -2 pi i e^{2 pi b x} times the residue at t = 0
    (expected: multiplication by e^{2 pi b x}), pairing with Y extracts -2 pi
    times the residue at t = -i (expected: the shift f(x - i b)).  Residues
    are cross-checked at radii 0.1 and 0.05; the 0.05 one is used.
    """
    if p.regime != "integral":
        raise DomainError("pairing assumes real b")
    if gen not in ("X", "Y"):
        raise DomainError(f"unknown generator {gen!r}")
    b = p.b

    def F(t):
        return b * f(x + b * t) * _scaled_coaction_kernel(0.0, t, p, tol)

    res = residue_consistent(F, 0j if gen == "X" else -1j, 0.1, tol=100 * tol)
    if gen == "X":
        return complex(-2j * np.pi * np.exp(2 * np.pi * b * x) * res)
    return complex(-2 * np.pi * res)


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
    if variant == "V":
        quantum = p.b * _scaled_coaction_kernel(x, z, p, tol).value
        target = gamma(1j * (x - z)) / (2 * np.pi) * np.exp((1j * (z - x)) * np.log(-1j))
    elif variant == "Vstar":
        quantum = np.conj(p.b * _scaled_coaction_kernel(z, x, p, tol).value)
        target = gamma(1j * (x - z)) / (2 * np.pi) * np.exp((1j * (z - x)) * np.log(1j))
    else:
        raise DomainError(f"unknown variant {variant!r}")
    return float(abs(quantum - target))
