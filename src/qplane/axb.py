"""The classical ax+b group: unitary representations, tensor decompositions,
and the gamma-kernel intertwiners.

The group acts on L^2(R+, dx/x).  In the point picture the representation
R_lambda is ``f(x) -> e^{lambda b x} f(a x)`` (lambda = -i and +i give the
two inequivalent unitary irreducibles); the Mellin picture turns dilations
into phases and the action into a gamma-kernel contour transform.  Tensor
products decompose through elementary changes of variables; their Mellin
expression is a Mellin-Barnes transform whose kernels degenerate, in the
appropriate limit, from the quantum-dilogarithm kernels.

The separating-contour transforms, for the gamma kernels here and the G_b
kernels of ``qtransform``, fold onto half their contour: in the midpoint
variable v the beta-type weight is even and the contour point-symmetric, so
``int_C W g dv = int_{C+} W(v) (g(v) + g(-v)) dv`` over the half C+ from
v = 0 on, and the weight is evaluated on half the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .contours import auto_detours, contour_nodes, integrate_contour
from .errors import DomainError
from .gammafn import gamma
from .qdilog import QDValue

TwoVarFn = Callable[[np.ndarray, np.ndarray], np.ndarray]

_TRUNCATION = 14.0  # half-length of the intertwiners' separating contour
_BLOCK = 4096  # forward_grid's (lam, node) block; up to numpy's ufunc buffer (8192) rows sum bit-exactly


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
    return GAMMA.point(kind, lam, t1, t2).value


def _separating_contour(s: complex, truncation: float):
    """The half, from its midpoint v = 0 on, of the contour in the midpoint
    variable that passes above the head at -s/2 and below the head at s/2
    (shared by both transforms).  The full contour is point-symmetric: its
    detours sit at +-s/2 with one radius, or the line clears both heads."""
    s = complex(s)
    return replace(auto_detours([(-s / 2, "above"), (s / 2, "below")], truncation=truncation),
                   start=0.0)


class KernelFamily(NamedTuple):
    """A kernel family K of the separating-contour transforms.  In the centered
    variable whose pole ladders head at 0 (contour above) and s (below) -- u = t2 + lam
    with s = t forward, mu = lam - t1 with s = -t inverse -- the lam-independent weight
    is K(i u - i s) K(-i u) / norm(s), norm(s) = const K(-i s).  In the midpoint
    variable v = u - s/2 it is K(i v - i s/2) K(-i v - i s/2) / norm(s), even in v, so
    each transform integrates over the half C+ of its point-symmetric contour
    (``contour``) with the data at both u = s/2 + v and s/2 - v.  For real lam and t
    the path takes the data's arguments within |Im| <= 0.35 (the largest detour
    radius), where the data must be analytic (entire data always is): a data pole
    there is crossed without a signal.  The data must broadcast: the grids call it
    with an (m, 1) array of lam against an (n,) array of nodes."""

    many: Callable  # z -> K(z) on an array of z
    at: Callable  # z -> K(z) at one point, as a QDValue
    const: float  # the family's constant in norm(s)
    contour: Callable  # s -> the half C+ of the separating contour in v
    forward_phase: Callable | None = None  # (lam, u, t) -> the entire lam-phase
    inverse_phase: Callable | None = None  # (lam, t1, t2) -> the entire lam-phase

    def pair(self, x, y) -> np.ndarray:
        """K(i x) K(-i y), at least 1-D, both factors from one ``many`` sweep over [i x, -i y]."""
        x = np.atleast_1d(x)
        k = self.many(np.concatenate([1j * x.ravel(), -1j * np.ravel(y)]))
        return (k[:x.size] * k[x.size:]).reshape(x.shape)

    def weight(self, s):
        """v -> K(i v - i s/2) K(-i v - i s/2) / norm(s), the norm evaluated once."""
        norm = (self.const * self.at(-1j * s)).value
        return lambda v: self.pair(v - s / 2, v + s / 2) / norm

    @staticmethod
    def point_args(kind: str, lam, t1, t2) -> tuple:
        """(x, y, s) with the kernel of kind at (lam, t1, t2), t = t1 + t2, equal
        to K(i x) K(-i y) / norm(s) times its phase:

        floor: K(i lam - i t1) K(-i t2 - i lam) / norm(t) times the forward phase,
        ceil:  K(i t2 + i lam) K(-i lam + i t1) / norm(-t) times the inverse phase.

        The arguments are formed as lam - t1 and t2 + lam, not from the
        centered variable, so the floor/ceil symmetries hold exactly.
        """
        t = t1 + t2
        if kind == "floor":
            return lam - t1, t2 + lam, t
        if kind == "ceil":
            return t2 + lam, lam - t1, -t
        raise DomainError(f"unknown kernel kind {kind!r}")

    def point(self, kind: str, lam, t1, t2) -> QDValue:
        """The forward ('floor') or inverse ('ceil') kernel at one point (see
        point_args), its three factors each evaluated once by ``at``."""
        x, y, s = self.point_args(kind, lam, t1, t2)
        val = self.at(1j * x) * self.at(-1j * y) / (self.const * self.at(-1j * s))
        if kind == "floor" and self.forward_phase:
            return val * self.forward_phase(lam, y, s)
        if kind == "ceil" and self.inverse_phase:
            return val * self.inverse_phase(lam, t1, t2)
        return val

    def forward(self, f: TwoVarFn, lam, t: complex, tol: float) -> tuple[complex, float]:
        """``int weight phase f(t - u + lam, u - lam)`` over the contour of t at
        one lam, adaptive to tol: (value, error estimate).  f must be analytic
        where the path takes it (see the class)."""
        return self._adaptive(lambda u, g: self._forward_term(f, lam, t, u, g), t, tol)

    def forward_grid(self, f: TwoVarFn, lams, t: complex, level: int) -> np.ndarray:
        """forward on an array of lam, on the nodes of ``level``: the weight
        evaluated once and contracted against blocks of at most _BLOCK (lam, node) points."""
        u, g = self._grid(t, level)
        lams = np.asarray(lams, dtype=complex)
        out, rows = np.empty(lams.size, dtype=complex), max(1, _BLOCK // u.size)
        for i in range(0, lams.size, rows):
            out[i:i + rows] = np.sum(self._forward_term(f, lams[i:i + rows, None], t, u, g), axis=-1)
        return out

    def inverse(self, F: TwoVarFn, t1, t2, tol: float) -> tuple[complex, float]:
        """``int weight phase F(mu + t1, t)`` over the contour of -t, t = t1 + t2
        (a scalar in F), adaptive to tol: (value, error estimate).  F must be
        analytic where the path takes it (see the class)."""
        return self._adaptive(lambda mu, g: self._inverse_term(F, t1, t2, mu, g), -(t1 + t2), tol)

    def inverse_grid(self, F: TwoVarFn, t1, t2, level: int) -> complex:
        """inverse on the nodes of ``level``."""
        return complex(np.sum(self._inverse_term(F, t1, t2, *self._grid(-(t1 + t2), level))))

    def roundtrip(self, f: TwoVarFn, t1, t2) -> complex:
        """The level-1 inverse_grid over the level-1 forward_grid: f(t1, t2) up to quadrature error."""
        return self.inverse_grid(lambda lam, t: self.forward_grid(f, lam, t, 1), t1, t2, 1)

    def _forward_term(self, f: TwoVarFn, lam, t, u, g):
        """g phase f(t - u + lam, u - lam), g the weight at u."""
        if self.forward_phase:
            g = g * self.forward_phase(lam, u, t)
        return g * f(t - u + lam, u - lam)

    def _inverse_term(self, F: TwoVarFn, t1, t2, mu, g):
        """g phase F(mu + t1, t1 + t2), g the weight at mu."""
        lam = mu + t1
        if self.inverse_phase:
            g = g * self.inverse_phase(lam, t1, t2)
        return g * F(lam, t1 + t2)

    def _adaptive(self, term: Callable, s: complex, tol: float) -> tuple[complex, float]:
        """``int_C term(x, weight) dv`` over the contour of s, x = s/2 + v the
        centered variable, by adaptive quadrature on its half C+: each round
        evaluates the weight at v and term once at x = s/2 + v and s/2 - v.
        Returns the value and the quadrature's error estimate."""
        weight = self.weight(s)

        def folded(v):
            g = weight(v)
            h = term(np.concatenate([s / 2 + v, s / 2 - v]), np.concatenate([g, g]))
            return h[:v.size] + h[v.size:]

        res = integrate_contour(folded, self.contour(s), tol=tol)
        return complex(res.value), res.err_estimate

    def _grid(self, s: complex, level: int):
        """The centered variable on the nodes of ``level`` of both halves of the
        contour of s, and the weight times the quadrature weight there."""
        v, wq = contour_nodes(self.contour(s), level=level)
        g = self.weight(s)(v) * wq
        return np.concatenate([s / 2 + v, s / 2 - v]), np.concatenate([g, g])


GAMMA = KernelFamily(lambda z: gamma(z),  # looked up per call, so a rebound axb.gamma is used
                     lambda z: QDValue(gamma(z), "closed-form", 0.0), 2 * np.pi,
                     lambda s: _separating_contour(s, _TRUNCATION))


def intertwiner_forward(f: TwoVarFn, lam: complex, t: complex, tol: float = 1e-9) -> complex:
    """Multiplicity-space component
    ``F(lam,t) = (1/2pi) int_C Gamma(i t2 - i t + i lam) Gamma(-i t2 - i lam)/Gamma(-i t)
    f(t-t2,t2) dt2`` with C above the poles descending from t2 = -lam and
    below those ascending from t2 = t - lam: ``GAMMA.forward``'s value, in
    the centered variable u = t2 + lam (kernel pole heads at u = 0 and u = t).
    For real lam and t, f must be analytic within |Im| <= 0.35 in both arguments.
    """
    return GAMMA.forward(f, lam, t, tol)[0]


def intertwiner_inverse(F: TwoVarFn, t1: complex, t2: complex, tol: float = 1e-9) -> complex:
    """Inverse transform
    ``f(t1,t2) = (1/2pi) int_{C'} Gamma(-i lam + i t1) Gamma(i lam + i t2)/Gamma(i t)
    F(lam, t1+t2) d lam`` with C' above the poles descending from lam = t1 and
    below those ascending from lam = -t2 (centered at mu = lam - t1):
    ``GAMMA.inverse``'s value.  F takes an array of lam and the scalar t;
    for real t1 and t2 it must be analytic within |Im lam| <= 0.35."""
    return GAMMA.inverse(F, t1, t2, tol)[0]


def intertwiner_forward_grid(f: TwoVarFn, lams: np.ndarray, t: complex, level: int = 2) -> np.ndarray:
    """``GAMMA.forward_grid``, the gamma factors evaluated once on the nodes of ``level``;
    f must broadcast an (m, 1) array of lam against an (n,) array of nodes."""
    return GAMMA.forward_grid(f, lams, t, level)
