"""Contour descriptors and adaptive quadrature for Mellin-Barnes-type integrands.

A contour here is a horizontal line ``Im z = c`` (optionally tilted by a
slope, which restores Gaussian decay for Fresnel-type integrands) truncated
to ``|Re z| <= T``, with explicit semicircular detours around poles that sit
on or near the line.  A path may also start at its midpoint: the half of a
point-symmetric contour, over which ``int_C f = int_{C+} f(z) + f(-z)``.
Integrands must be vectorized: ``f(z: ndarray) -> ndarray``.

Both contour rules map their nodes onto one panel table, ``_base_panels``:
on a segment, panels graded geometrically toward the poles of the detours it
meets and toward the poles it clears by less than the panel cap
``_MAX_PANEL`` (the line is cut at their feet), two on an arc, and each of
them bisected at every fixed level.  A segment graded at one end only
doubles its panels out to the other end; the cap bounds the panels only on
segments graded at both ends (a pinch) or at neither.
``integrate_contour`` is locally adaptive: every level-0 panel carries the
21-point Gauss-Kronrod rule with its embedded 10-point Gauss rule, a panel
whose two values agree within its share of ``tol`` is kept, and only the
others are bisected, so each node is evaluated once.  ``contour_nodes`` puts
the 12-point Gauss-Legendre rule on every panel of a fixed level: the grids
that the tensor transforms use.
Full circles (residue extraction) use the periodic trapezoid rule, which is
spectrally accurate for analytic integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, QuadratureError

ComplexFn = Callable[[np.ndarray], np.ndarray]


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
    for ``u in [start, T]`` (``start`` None: -T).  Each detour replaces the
    stretch nearest its pole by a semicircular arc (with vertical legs when
    the pole sits off the line) so that the pole ends up on the prescribed
    side of the path.  ``cleared`` lists the poles the line passes without a
    detour, toward which the panels are graded.
    """

    imag_shift: float = 0.0
    detours: tuple[Detour, ...] = field(default_factory=tuple)
    truncation: float = 8.0
    slope: float = 0.0
    cleared: tuple[complex, ...] = ()
    start: float | None = None

    def __post_init__(self):
        if not self.truncation > 0:
            raise ValueError("truncation must be positive")
        if self.start is not None and not -self.truncation <= self.start < self.truncation:
            raise ValueError("start must lie in [-T, T)")
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


def _gk21_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 21-point Kronrod extension of the 10-point Gauss rule on [-1, 1]
    (QUADPACK ``qk21``): the nodes in ascending order, and a (21, 2) weight
    table whose columns are the Kronrod weights and the Gauss weights (zero
    off the Gauss nodes, which sit at the odd indices)."""
    x = np.array([0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
                  0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
                  0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
                  0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
                  0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0])
    wk = np.array([0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
                   0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
                   0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
                   0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
                   0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
                   0.149445554002916905664936468389821])
    wg = np.array([0.0, 0.066671344308688137593568809893332, 0.0,
                   0.149451349150580593145776339657697, 0.0,
                   0.219086362515982043995534934228163, 0.0,
                   0.269266719309996355091226921569469, 0.0,
                   0.295524224714752870173892994651338, 0.0])
    w = np.column_stack([np.concatenate([wk, wk[-2::-1]]), np.concatenate([wg, wg[-2::-1]])])
    return _frozen(np.concatenate([-x, x[-2::-1]]), w)


_GK21 = _gk21_rule()
_GL12 = _frozen(*np.polynomial.legendre.leggauss(12))  # the rule of contour_nodes' panels
_ROUNDING = 50 * np.finfo(float).eps  # QUADPACK's rounding floor, per unit of sum |w f|
_MAX_PANEL = 1.0  # the panel cap of every contour rule


def _pieces(contour: Contour) -> list[tuple]:
    """Decompose the path into ('seg', z0, z1, d0, d1) and ('arc', c, R, th0, th1)
    pieces.  d0 and d1 are the distances of a segment's ends to the poles its
    panels are graded toward (inf when there is none): the pole of the detour
    the end meets, and the cleared poles nearer than _MAX_PANEL to the line,
    at whose feet the line is cut."""
    c = contour.imag_shift
    T = contour.truncation
    d = 1.0 + 1j * contour.slope
    phi = math.atan2(contour.slope, 1.0)

    dets = sorted(contour.detours, key=lambda dt: dt.pole.real)
    for a, b in zip(dets, dets[1:]):
        if b.pole.real - a.pole.real < a.radius + b.radius:
            raise DomainError("overlapping detours")

    def line_point(u: float) -> complex:
        return 1j * c + d * u

    def foot(p: complex) -> float:
        return ((p - 1j * c) / d).real  # parameter of the pole's foot on the line

    near = [p for p in contour.cleared if abs(p - line_point(foot(p))) < _MAX_PANEL]
    cuts = sorted(foot(p) for p in near)

    def dist(z: complex, pole: complex | None) -> float:
        return min([abs(z - q) for q in near] + ([] if pole is None else [abs(z - pole)]),
                   default=math.inf)

    def seg(z0: complex, z1: complex, p0: complex | None, p1: complex | None) -> tuple:
        return ("seg", z0, z1, dist(z0, p0), dist(z1, p1))

    def line(u0: float, u1: float, p0: complex | None, p1: complex | None) -> list[tuple]:
        ends = [u0, *(u for u in cuts if u0 < u < u1), u1]
        poles = [p0] + [None] * (len(ends) - 2) + [p1]
        return [seg(line_point(a), line_point(b), pa, pb)
                for a, b, pa, pb in zip(ends, ends[1:], poles, poles[1:])]

    pieces: list[tuple] = []
    u_prev, p_prev = -T if contour.start is None else contour.start, None
    for dt in dets:
        u_p = foot(dt.pole)
        above = dt.side == "above"
        off = contour._offset(dt.pole)
        needs_leg = abs(off) > 1e-12
        # entry/exit in parameter units so segment ends meet the arc exactly
        du = dt.radius / abs(d)
        u_in, u_out = u_p - du, u_p + du
        if u_out <= u_prev:
            continue  # before the start of the path
        if u_in < u_prev - 1e-12:
            raise DomainError("detour extends beyond previous piece")
        pieces.extend(line(u_prev, u_in, p_prev, dt.pole))
        if needs_leg:
            # vertical legs from the line up/down to the pole's height
            entry = line_point(u_in)
            exitp = line_point(u_out)
            leg_in = dt.pole - dt.radius
            leg_out = dt.pole + dt.radius
            pieces.append(seg(entry, leg_in, dt.pole, dt.pole))
            if above:
                pieces.append(("arc", dt.pole, dt.radius, math.pi, 0.0))
            else:
                pieces.append(("arc", dt.pole, dt.radius, math.pi, 2 * math.pi))
            pieces.append(seg(leg_out, exitp, dt.pole, dt.pole))
        else:
            if above:
                pieces.append(("arc", dt.pole, dt.radius, phi + math.pi, phi))
            else:
                pieces.append(("arc", dt.pole, dt.radius, phi + math.pi, phi + 2 * math.pi))
        u_prev, p_prev = u_out, dt.pole
    pieces.extend(line(u_prev, T, p_prev, None))
    return [p for p in pieces if not (p[0] == "seg" and abs(p[1] - p[2]) < 1e-15)]


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """The n + 1 edges ``np.linspace(lo, hi, n + 1)`` gives, as a list of floats."""
    step = (hi - lo) / n
    return [k * step + lo for k in range(n)] + [hi]


def _segment_edges(length: float, d0: float, d1: float) -> list[float]:
    """Base panel edges of a segment, as fractions s in [0, 1] of its length.

    An end at distance d < _MAX_PANEL from a pole gets edges at d (2^k - 1),
    k = 1, 2, ...: panels of width d, 2d, 4d, ..., each its own width from
    the pole.  When only one end is graded, its run doubles out to the far
    end: it stops where the next edge would leave the segment, and the last
    panel takes the remainder, merged into the panel before it when it
    would be narrower than half of that one.  So a panel x from the end is
    at most 1.5 (d + x) wide: 1.5 times its distance from a pole on the
    line.  When both ends are graded (a pinch), each run stays in its half
    and under _MAX_PANEL, with no edge within rounding of the half's end, so
    that a run which would fill it exactly, as in a pinch whose detours are
    a quarter of the gap, leaves no sliver; the span between the two runs,
    and a segment with no graded end, get ceil(span / _MAX_PANEL) equal
    panels.  So the cap bounds the panels only on pinched and ungraded
    segments; in a pinch the span is at most twice as wide as it is far
    from the poles.
    """
    def run(dist: float, cap: float, room: float) -> list[float]:
        k = 0  # panels of width dist 2^(k-1) < cap whose edges stay inside the room
        while dist * 2**k < cap and dist * (2 ** (k + 1) - 1) < room:
            k += 1
        return [0.0] + [dist * (2**j - 1) for j in range(1, k + 1)]

    if (d0 < _MAX_PANEL) != (d1 < _MAX_PANEL):
        edges = run(min(d0, d1), math.inf, length)
        if len(edges) > 1 and length - edges[-1] < 0.5 * (edges[-1] - edges[-2]):
            edges.pop()  # a thin remainder joins the panel before it
        edges = [e / length for e in edges] + [1.0]
        return edges if d0 < d1 else [1.0 - e for e in edges[::-1]]
    room = 0.5 * length * (1 - 1e-9)
    head = [e / length for e in run(d0, _MAX_PANEL, room)]
    tail = [1.0 - e / length for e in run(d1, _MAX_PANEL, room)][::-1]
    n = max(1, math.ceil((tail[0] - head[-1]) * length / _MAX_PANEL))
    return head[:-1] + _linspace(head[-1], tail[0], n)[:-1] + tail


def _base_panels(pieces: list[tuple], level: int = 0) -> tuple[np.ndarray, ...]:
    """The panel table of the pieces, which every contour rule maps its nodes onto.

    The level-0 panels are graded toward the poles of a segment's ends
    (``_segment_edges``, over s in [0, 1], z = a + b s) and 2 equal ones on
    an arc (th in [th0, th1], z = a + b e^{i th}, b = R); level L bisects
    each of them L times, at ``np.linspace`` edges.  Returns arrays (a, b,
    arc, mid, half) with one entry per panel; the panel is s = mid + half x,
    x in [-1, 1].
    """
    a, b, arc, lo, hi = [], [], [], [], []
    for p in pieces:
        if p[0] == "seg":
            e, step = _segment_edges(abs(p[2] - p[1]), p[3], p[4]), p[2] - p[1]
        else:
            e, step = _linspace(p[3], p[4], 2), p[2]
        n = len(e) - 1
        a += [p[1]] * n
        b += [step] * n
        arc += [p[0] == "arc"] * n
        lo += e[:-1]
        hi += e[1:]
    a, b, arc = np.array(a, dtype=complex), np.array(b, dtype=complex), np.array(arc)
    lo, hi = np.array(lo), np.array(hi)
    if level:
        n = 2**level
        sub = np.arange(n + 1) * ((hi - lo)[:, None] / n) + lo[:, None]
        sub[:, -1] = hi
        lo, hi = sub[:, :-1].ravel(), sub[:, 1:].ravel()
        a, b, arc = (np.repeat(v, n) for v in (a, b, arc))
    return a, b, arc, 0.5 * (lo + hi), 0.5 * (hi - lo)


def contour_nodes(contour: Contour, level: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and weights for the contour at a fixed refinement level:
    the 12-point Gauss-Legendre rule on every panel of ``_base_panels``.

    ``sum(w * f(z))`` approximates the contour integral; used by transform
    routines that batch integrand evaluation over tensor grids.
    """
    x, w = _GL12
    a, b, arc, mid, half = _base_panels(_pieces(contour), level)
    s = mid[:, None] + half[:, None] * x
    z = a[:, None] + b[:, None] * s
    dz = np.repeat(b[:, None], x.size, axis=1)
    e = np.exp(1j * s[arc])
    z[arc] = a[arc, None] + b[arc, None] * e
    dz[arc] = 1j * b[arc, None] * e
    return z.ravel(), (dz * half[:, None] * w).ravel()


def integrate_contour(f: ComplexFn, contour: Contour, tol: float = 1e-10, max_levels: int = 9) -> QuadResult:
    """Integrate ``f`` along the contour by locally adaptive Gauss-Kronrod panels.

    The base panels are the level-0 ``_base_panels``, those of ``contour_nodes``
    at level 0: graded toward the detoured poles on a segment (``z0 + (z1 -
    z0) s``, s in [0, 1]) and 2 per arc (``c + R e^{i th}``).  Each round
    evaluates ``f`` once on the 21 Kronrod nodes of every active panel (the
    array ``f`` returns is scaled in place); a panel is kept when its 21- and 10-point
    values differ by at most ``tol`` times its share of the contour's length
    (or by no more than the rounding of its sums, 50 eps sum |w f|), and is
    bisected in its parameter otherwise.  Every panel is kept once the
    differences of all panels, kept and active, add up to at most tol (a
    panel next to a near pole may never meet its share of the length).  The
    value is the sum of the kept Kronrod values and ``err_estimate`` the sum
    of their differences, each raised to its rounding floor: at most tol.

    Raises QuadratureError when a panel is still active after ``max_levels``
    bisections, the next round would pass 4M nodes (non-decaying integrand
    or misplaced detour), or the rounding floors alone add up to more than tol.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    x, w = _GK21
    a, b, arc, mid, half = _base_panels(_pieces(contour))
    bh = np.abs(b * half)  # each panel's share of the contour's half-length
    dens = tol / float(np.sum(bh))  # tol per unit of contour half-length
    value, err, left, n_evals = 0j, 0.0, np.inf, 0
    for _ in range(max_levels + 1):
        if n_evals + x.size * mid.size > 4_000_000:
            break
        s = mid[:, None] + half[:, None] * x
        z = a[:, None] + b[:, None] * s
        ia = np.flatnonzero(arc)
        if ia.size:
            e = np.exp(1j * s[ia])
            z[ia] = a[ia, None] + b[ia, None] * e
        fj = _require_vector_fn(f, z.ravel()).reshape(z.shape)
        fj *= b[:, None]
        if ia.size:
            fj[ia] *= 1j * e  # dz = i R e^{i th} dth
        n_evals += z.size
        # einsum, not a BLAS product: a threaded zgemv wakes its threads on every call
        kg = np.einsum("ij,jk->ik", fj, w)
        kg *= half[:, None]
        diff = np.abs(kg[:, 0] - kg[:, 1])
        # below the rounding of its own sums a panel gains nothing from bisection
        floor = _ROUNDING * np.abs(half) * np.einsum("ij,j->i", np.abs(fj), w[:, 0])
        done = (diff <= dens * bh) | (diff <= floor)
        diff = np.maximum(diff, floor)
        total = float(np.sum(diff))
        if err + total <= tol:  # the whole estimate already meets tol
            return QuadResult(value + complex(np.sum(kg[:, 0])), err + total, n_evals)
        value += complex(np.sum(kg[done, 0]))
        err += float(np.sum(diff[done]))
        keep = ~done
        left = float(np.sum(diff[keep]))
        if not keep.any():
            break  # the rounding floor alone exceeds tol
        m, h = mid[keep], 0.5 * half[keep]
        a, b, arc, half = (np.concatenate([v, v]) for v in (a[keep], b[keep], arc[keep], h))
        mid = np.concatenate([m - h, m + h])
        bh = np.abs(b * half)
    raise QuadratureError(
        f"contour quadrature did not reach tol={tol} (estimate {err + left:.3e} "
        f"after {n_evals} nodes)"
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

    Nested levels of 32 to 8192 nodes: the first call evaluates 64, each doubling
    only the new odd-index ones.  Assumes at most a simple pole at z0 and no other
    singularity within the radius; the caller can cross-check with a second radius.
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    e = np.exp(1j * (2 * np.pi * np.arange(64) / 64))
    vals = _require_vector_fn(f, z0 + radius * e)
    # (1/2pi i) * integral f dz = (R/n) * sum f(z_k) e^{i th_k}, th_k = 2 pi k / n
    prev = complex(radius / 32 * np.sum(vals[::2] * e[::2]))  # 32 nodes: the even half
    for n in (64, 128, 256, 512, 1024, 2048, 4096, 8192):
        if n > vals.size:  # interleave the new, odd-index nodes
            odd = np.exp(1j * (2 * np.pi * np.arange(1, n, 2) / n))
            e = np.stack([e, odd], axis=-1).ravel()
            vals = np.stack([vals, _require_vector_fn(f, z0 + radius * odd)], axis=-1).ravel()
        est = complex(radius / n * np.sum(vals * e))
        if abs(est - prev) <= tol * max(1.0, abs(est)):
            return est
        prev = est
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
    on the required side by 0.05; the poles it clears are the contour's
    ``cleared``.  Radii are a quarter of the smallest gap
    between a detoured pole and any other listed pole, capped at 0.35: two
    close poles that the line clears need no small detour elsewhere.
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
    dets, cleared = [], []
    for p, side in merged:
        if abs(p.real) >= truncation:
            continue
        off = p.imag - imag_shift
        # clear when the line already passes the required side by the clearance
        if (off < -clearance) if side == "above" else (off > clearance):
            cleared.append(p)
        else:
            dets.append((p, side))
    gaps = [abs(p - q) for p, _ in dets for q, _ in merged if q != p]
    r = min(max_radius, radius_frac * min(gaps, default=4.0 * max_radius))
    return Contour(imag_shift, tuple(Detour(p, side, r) for p, side in dets), truncation,
                   cleared=tuple(cleared))


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
        lo = -contour.truncation if contour.start is None else contour.start
        u = np.clip(u, lo, contour.truncation)
        foot = 1j * contour.imag_shift + (1 + 1j * contour.slope) * u
        if abs(p - foot) < min_distance:
            return False
    return True
