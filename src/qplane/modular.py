"""Deformation parameter b with derived constants and evaluation regime.

Two regimes are supported:

* ``integral``: b real with 0 < b^2 (b and 1/b are equivalent by the
  self-duality of the quantum dilogarithm); evaluation goes through the
  one-dimensional integral representation.
* ``product``: Im(b^2) > 0, where |q| < 1 and the infinite-product
  representation converges; this is also the classical-limit schedule
  b^2 = i r with r -> 0+.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class ModularParam:
    b: complex
    regime: str  # 'product' | 'integral'

    def __post_init__(self):
        if self.regime not in ("product", "integral"):
            raise DomainError(f"unknown regime {self.regime!r}")
        if not cmath.isfinite(self.b):  # a NaN b would make G_b's shift counts unbounded
            raise DomainError(f"b must be finite, got {self.b}")
        b2 = self.b * self.b
        if self.regime == "integral":
            if abs(self.b.imag) > 1e-14 or self.b.real <= 0:
                raise DomainError("integral regime requires real b > 0")
        else:
            if b2.imag <= 0:
                raise DomainError("product regime requires Im(b^2) > 0")

    @property
    def b2(self) -> complex:
        return self.b * self.b

    @property
    def Q(self) -> complex:
        return self.b + 1.0 / self.b

    @property
    def q(self) -> complex:
        return np.exp(1j * np.pi * self.b2)

    @property
    def zeta_b(self) -> complex:
        return np.exp(1j * np.pi / 4 + 1j * np.pi / 12 * (self.b2 + 1.0 / self.b2))

    @property
    def zeta_b_bar(self) -> complex:
        return np.exp(-1j * np.pi / 4 - 1j * np.pi / 12 * (self.b2 + 1.0 / self.b2))

    def dual(self) -> "ModularParam":
        return ModularParam(1.0 / self.b, self.regime)


def from_b(b: float) -> ModularParam:
    """Integral-regime parameter from real b > 0."""
    return ModularParam(complex(b), "integral")


def from_b2(b2: complex) -> ModularParam:
    """Product-regime parameter from complex b^2 with Im(b^2) > 0 (principal root)."""
    return ModularParam(complex(np.sqrt(complex(b2))), "product")


def from_r(r: float) -> ModularParam:
    """Classical-limit schedule point b^2 = i r, r > 0."""
    if not r > 0:
        raise DomainError("limit schedule requires r > 0")
    return from_b2(1j * r)
