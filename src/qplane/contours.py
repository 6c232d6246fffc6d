"""Contour descriptors and adaptive quadrature for Mellin-Barnes-type integrands.

A contour here is a horizontal line ``Im z = c`` (optionally tilted by a
slope, which restores Gaussian decay for Fresnel-type integrands) truncated
to ``|Re z| <= T``, with explicit semicircular detours around poles that sit
on or near the line.  Integrands must be vectorized: ``f(z: ndarray) -> ndarray``.

Refinement is by global panel halving of a composite Gauss-Legendre rule;
the error estimate is the difference between the last two refinement levels.
Full circles (residue extraction) use the periodic trapezoid rule, which is
spectrally accurate for analytic integrands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, QuadratureError

ComplexFn = Callable[[np.ndarray], np.ndarray]

_GL_ORDER = 12  # Gauss-Legendre nodes per panel of a contour


@dataclass(frozen=True)
class QuadResult:
    """Quadrature value with an error estimate and evaluation count."""

    value: complex
    err_estimate: float
    n_evals: int


@dataclass(frozen=True)
class Detour:
    """Semicircular excursion around a pole, passing on the given side."""

    pole: complex
    side: str  # 'above' | 'below'
    radius: float

    def __post_init__(self):
        if self.side not in ("above", "below"):
            raise ValueError(f"detour side must be 'above' or 'below', got {self.side!r}")
        if not self.radius > 0:
            raise ValueError("detour radius must be positive")


@dataclass(frozen=True)
class Contour:
    """Horizontal integration line with pole detours.

    The path runs left to right along ``z = i*imag_shift + (1 + i*slope)*u``
    for ``u in [-T, T]``.  Each detour replaces the stretch nearest its pole
    by a semicircular arc (with vertical legs when the pole sits off the
    line) so that the pole ends up on the prescribed side of the path.
    """

    imag_shift: float = 0.0
    detours: tuple[Detour, ...] = field(default_factory=tuple)
    truncation: float = 8.0
    slope: float = 0.0

    def __post_init__(self):
        if not self.truncation > 0:
            raise ValueError("truncation must be positive")
        poles = [d.pole for d in self.detours]
        for i, d in enumerate(self.detours):
            if not (-self.truncation < d.pole.real < self.truncation):
                raise DomainError(f"detour pole {d.pole} outside (-T, T)")
            for j, p in enumerate(poles):
                if i == j:
                    continue
                gap = abs(d.pole - p)
                if d.radius >= 0.5 * gap:
                    raise DomainError(
                        f"detour radius {d.radius} too large for pole gap {gap}"
                    )
            if self.slope != 0.0 and abs(self._offset(d.pole)) > 1e-9:
                raise DomainError("sloped contours support only on-line detour poles")

    def _offset(self, pole: complex) -> float:
        # signed vertical distance from the line to the pole
        return pole.imag - (self.imag_shift + self.slope * pole.real)


def _require_vector_fn(f: ComplexFn, z: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(z), dtype=complex)
    if vals.shape != z.shape:
        raise TypeError("integrand must be vectorized over complex arrays")
    if not np.all(np.isfinite(vals)):
        raise DomainError("integrand returned non-finite values on the contour")
    return vals


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=32)
def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    return _frozen(*np.polynomial.legendre.leggauss(order))


def _pieces(contour: Contour) -> list[tuple]:
    """Decompose the contour into ('seg', z0, z1) and ('arc', c, R, th0, th1) pieces."""
    c = contour.imag_shift
    T = contour.truncation
    d = 1.0 + 1j * contour.slope
    phi = np.arctan2(contour.slope, 1.0)

    dets = sorted(contour.detours, key=lambda dt: dt.pole.real)
    for a, b in zip(dets, dets[1:]):
        if b.pole.real - a.pole.real < a.radius + b.radius:
            raise DomainError("overlapping detours")

    def line_point(u: float) -> complex:
        return 1j * c + d * u

    pieces: list[tuple] = []
    u_prev = -T
    for dt in dets:
        # parameter of the pole's foot on the line
        u_p = ((dt.pole - 1j * c) / d).real
        above = dt.side == "above"
        off = contour._offset(dt.pole)
        needs_leg = abs(off) > 1e-12
        # entry/exit in parameter units so segment ends meet the arc exactly
        du = dt.radius / abs(d)
        u_in, u_out = u_p - du, u_p + du
        if u_in < u_prev - 1e-12:
            raise DomainError("detour extends beyond previous piece")
        pieces.append(("seg", line_point(u_prev), line_point(u_in)))
        if needs_leg:
            # vertical legs from the line up/down to the pole's height
            entry = line_point(u_in)
            exitp = line_point(u_out)
            leg_in = dt.pole - dt.radius
            leg_out = dt.pole + dt.radius
            pieces.append(("seg", entry, leg_in))
            if above:
                pieces.append(("arc", dt.pole, dt.radius, np.pi, 0.0))
            else:
                pieces.append(("arc", dt.pole, dt.radius, np.pi, 2 * np.pi))
            pieces.append(("seg", leg_out, exitp))
        else:
            if above:
                pieces.append(("arc", dt.pole, dt.radius, phi + np.pi, phi))
            else:
                pieces.append(("arc", dt.pole, dt.radius, phi + np.pi, phi + 2 * np.pi))
        u_prev = u_out
    pieces.append(("seg", line_point(u_prev), line_point(T)))
    return [p for p in pieces if not (p[0] == "seg" and abs(p[1] - p[2]) < 1e-15)]


@lru_cache(maxsize=64)
def _panels(lo: float, hi: float, n_pan: int, order: int) -> tuple[np.ndarray, float, np.ndarray]:
    """Composite Gauss-Legendre rule of ``n_pan`` equal panels on [lo, hi].

    Returns the nodes, the panel half-width and the reference weights tiled
    over the panels; the rule's weights are ``half * weights``.  Cached, so
    the adaptive levels of every integral reuse their rules: the arrays are
    read-only.
    """
    x, w = _gl_rule(order)
    edges = np.linspace(lo, hi, n_pan + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes, weights = _frozen((mid[:, None] + half * x[None, :]).ravel(), np.tile(w, n_pan))
    return nodes, half, weights


def _piece_nodes(pieces: list[tuple], level: int, max_panel: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the pieces with 2**level times the base panel count."""
    nodes, weights = [], []
    for p in pieces:
        if p[0] == "seg":
            _, z0, z1 = p
            n_pan = max(1, int(np.ceil(abs(z1 - z0) / max_panel))) * 2**level
            tt, half, w = _panels(0.0, 1.0, n_pan, _GL_ORDER)
            nodes.append(z0 + (z1 - z0) * tt)
            weights.append((z1 - z0) * half * w)
        else:
            _, ctr, R, th0, th1 = p
            th, half, w = _panels(th0, th1, 2 * 2**level, _GL_ORDER)
            nodes.append(ctr + R * np.exp(1j * th))
            weights.append(1j * R * np.exp(1j * th) * half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def contour_nodes(
    contour: Contour, level: int = 0, max_panel: float = 0.5
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and weights for the contour at a fixed refinement level.

    ``sum(w * f(z))`` approximates the contour integral; used by transform
    routines that batch integrand evaluation over tensor grids.
    """
    return _piece_nodes(_pieces(contour), level, max_panel)


def integrate_contour(
    f: ComplexFn,
    contour: Contour,
    tol: float = 1e-10,
    max_panel: float = 0.5,
    max_levels: int = 9,
) -> QuadResult:
    """Integrate ``f`` along the contour, refining panels until the estimate moves < tol.

    Raises QuadratureError when the panel budget is exhausted with the error
    estimate still above tol (non-decaying integrand or misplaced detour).
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    pieces = _pieces(contour)
    n_evals = 0
    prev = None
    for level in range(max_levels + 1):
        z, wt = _piece_nodes(pieces, level, max_panel)
        val = complex(np.sum(wt * _require_vector_fn(f, z)))
        n = z.size
        n_evals += n
        if prev is not None:
            err = abs(val - prev)
            if err <= tol:
                return QuadResult(val, err, n_evals)
            if n > 4_000_000:
                break
        prev = val
    raise QuadratureError(
        f"contour quadrature did not reach tol={tol} (last change {abs(val - prev):.3e})"
    )


def integrate_line(
    f: ComplexFn,
    truncation: float,
    imag_shift: float = 0.0,
    tol: float = 1e-10,
) -> QuadResult:
    """Straight-line special case of integrate_contour."""
    return integrate_contour(f, Contour(imag_shift, (), truncation), tol=tol)


def residue_at(
    f: ComplexFn,
    z0: complex,
    radius: float,
    tol: float = 1e-12,
) -> complex:
    """Residue of ``f`` at ``z0`` via periodic-trapezoid quadrature on a circle.

    Starts at 32 nodes and doubles up to 8 times.  Assumes at most a simple
    pole at z0 and no other singularity within the radius; the caller can
    cross-check with a second radius.
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    prev = None
    n = 32
    for _ in range(9):
        th = 2 * np.pi * np.arange(n) / n
        z = z0 + radius * np.exp(1j * th)
        vals = _require_vector_fn(f, z)
        # (1/2pi i) * integral f dz = (R/n) * sum f(z_k) e^{i th_k}
        est = complex(radius / n * np.sum(vals * np.exp(1j * th)))
        if prev is not None and abs(est - prev) <= tol * max(1.0, abs(est)):
            return est
        prev = est
        n *= 2
    raise QuadratureError("residue quadrature did not converge; pole may not be simple")


def residue_consistent(
    f: ComplexFn, z0: complex, radius: float, tol: float = 1e-8
) -> complex:
    """Residue cross-checked at two radii differing by 2x.

    Raises DomainError when the two values disagree beyond tol, which signals
    a higher-order pole or a nearby singularity inside the larger circle.
    """
    r1 = residue_at(f, z0, radius)
    r2 = residue_at(f, z0, 0.5 * radius)
    if abs(r1 - r2) > tol * max(1.0, abs(r1)):
        raise DomainError(
            f"residues at radii {radius} and {radius/2} disagree: {r1} vs {r2}"
        )
    return r2


def auto_detours(
    pole_sides: Sequence[tuple[complex, str]],
    truncation: float,
    imag_shift: float = 0.0,
) -> Contour:
    """Build a horizontal contour that passes the prescribed side of each listed pole.

    A detour is inserted only when the line does not already clear the pole
    on the required side by 0.05.  Radii are a quarter of the smallest gap
    between listed poles, capped at 0.35.
    """
    clearance, radius_frac, max_radius = 0.05, 0.25, 0.35
    # dedupe coincident listings; a location demanded on both sides is a pinch
    merged: list[tuple[complex, str]] = []
    for p, side in pole_sides:
        for q, s in merged:
            if abs(p - q) < 1e-12:
                if s != side:
                    raise DomainError("contour pinched between pole families")
                break
        else:
            merged.append((complex(p), side))
    poles = [p for p, _ in merged]
    if len(poles) >= 2:
        gaps = [abs(a - b) for i, a in enumerate(poles) for b in poles[i + 1:]]
        min_gap = min(gaps)
    else:
        min_gap = 4.0 * max_radius
    r = min(max_radius, radius_frac * min_gap)
    dets = []
    for p, side in merged:
        if abs(p.real) >= truncation:
            continue
        off = p.imag - imag_shift
        if side == "above" and off < -clearance:
            continue  # line already safely above
        if side == "below" and off > clearance:
            continue
        dets.append(Detour(p, side, r))
    return Contour(imag_shift, tuple(dets), truncation)


def path_clear_of(
    contour: Contour, points: Sequence[complex], min_distance: float
) -> bool:
    """Check that every point keeps min_distance from the contour path."""
    pts = np.asarray(points, dtype=complex)
    if pts.size == 0:
        return True
    detoured = {d.pole for d in contour.detours}
    for p in pts:
        if any(abs(p - q) < 1e-12 for q in detoured):
            continue  # handled by its own detour
        u = ((p - 1j * contour.imag_shift) / (1 + 1j * contour.slope)).real
        u = np.clip(u, -contour.truncation, contour.truncation)
        foot = 1j * contour.imag_shift + (1 + 1j * contour.slope) * u
        if abs(p - foot) < min_distance:
            return False
    return True
