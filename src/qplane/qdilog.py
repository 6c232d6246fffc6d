"""Evaluation of the non-compact quantum dilogarithm G_b and its identity suite.

Two backends realize the same meromorphic function:

* infinite product (Im b^2 > 0) in log form: per point the factors far from 1
  (in a batch with none of modulus > 1, one expm1 per point and one multiply-add
  per factor against a table of expm1(k lq) that the batch shares; else one
  expm1 per factor), then Euler's series for the rest, cut where its remainder
  bound is tol/10;
* one-dimensional integral representation (b real), by the trapezoid rule on
  a y-grid that is halved, reusing every node, until two levels agree to tol
  (geometric convergence: the integrand is analytic in the strip
  |Im y| < pi min(b, 1/b, 1)), with functional-equation continuation out of
  the convergence strip.  The nodes of a level form an arithmetic progression,
  so e^{2i y z} over n_y nodes factors through three exponentials per point,
  a table of about 2 sqrt(n_y) of their powers filled by doubling, and a small
  matrix product, instead of n_y exponentials and reciprocals.

Both backends form log G_b (``_gb_eval``); ``gb_many`` and ``gb`` take its
exponential, so a value that over- or underflows is told from a zero of G_b.

On top of the evaluator sit the identity residuals (functional equations,
reflection, conjugation, self-duality), residue checks, the beta-integral
analogue (tau-beta), the Fourier transformation formulas, the q-binomial
residue content, the b-hypergeometric function, and the classical limits
toward the gamma function along b^2 = i r -> i 0+.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .contours import (
    Contour,
    Detour,
    auto_detours,
    integrate_contour,
    integrate_line,
    residue_at,
)
from .errors import DomainError, PoleError
from .gammafn import gamma
from .modular import ModularParam, from_r

_POLE_FACTOR_EPS = 1e-12
_EPS = float(np.finfo(float).eps)
_ANCHOR_RE_MAX = 1e-9  # max Re a for which _log_qpochhammer anchors the head at m = 0
_MAX_HALVINGS = 5  # trapezoid step halvings per |Re z| band of the integral backend
_SINH2_CUTOFF = 20.0  # y beyond which the sinh^-2 subtraction (~4 e^{-2y}) is dropped
_BAND_EDGES = (0.0, 2.0, 4.0, 8.0, 16.0, 32.0, np.inf)  # |Re z| bands of the integral backend
# nodes x points up to which the integral backend's node sum forms every e^{2i y z}
# rather than its exponential table (the crossover measured at 600-1000)
_DIRECT_MAX = 1024


# backends in the order a product reports them: a product of factors reports the first
# of its factors' backends, so an exact (closed-form) factor never hides a G_b backend
_BACKENDS = ("functional-continuation", "integral", "product", "closed-form")


@dataclass(frozen=True)
class QDValue:
    """A value with backend provenance and an absolute error estimate.

    Products and quotients with another QDValue or an exact number form the
    value as the plain numbers would and add the relative estimates (to first
    order: e1 |v2| + e2 |v1| for a product), so a ratio of G_b factors times
    exact phases carries its error from its factors.
    """

    value: complex
    backend: str  # one of _BACKENDS
    err_estimate: float

    __array_ufunc__ = None  # a numpy scalar on the left defers to the reflected operators

    # an exact number keeps the backend and relative estimate (no QDValue of its own: speed)
    def __mul__(self, other) -> "QDValue":
        if not isinstance(other, QDValue):
            return QDValue(complex(self.value * other), self.backend, self.err_estimate * abs(other))
        return QDValue(complex(self.value * other.value),
                       min(self.backend, other.backend, key=_BACKENDS.index),
                       self.err_estimate * abs(other.value) + other.err_estimate * abs(self.value))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QDValue":
        if not isinstance(other, QDValue):
            return QDValue(complex(self.value / other), self.backend, self.err_estimate / abs(other))
        v = complex(self.value / other.value)
        return QDValue(v, min(self.backend, other.backend, key=_BACKENDS.index),
                       (self.err_estimate + other.err_estimate * abs(v)) / abs(other.value))

    def __rtruediv__(self, other) -> "QDValue":  # other / self, other an exact number
        v = complex(other / self.value)
        return QDValue(v, self.backend, self.err_estimate * abs(v) / abs(self.value))


def _require_tol(tol: float) -> None:
    """Both backends size their work from log(1/tol): tol must be positive and finite."""
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be a positive finite number, got {tol!r}")


# ---------------------------------------------------------------------------
# product backend (Im b^2 > 0)


@lru_cache(maxsize=256)
def _euler_series(lq: complex, tol: float) -> tuple[float, np.ndarray, float]:
    """ln(theta), the coefficients -1/(k (1 - e^{k lq})) for k <= K, and the bound
    theta^{K+1}/((K+1)(1-|q|)(1-theta)) < tol/10 on the series cut at K, with
    theta = e^{-sqrt(-Re lq ln(10/tol))}: head length and series length balance."""
    alpha, L = -lq.real, np.log(10.0 / tol)
    ln_theta = -np.sqrt(alpha * L)
    ln_den = np.log(-np.expm1(-alpha)) + np.log(-np.expm1(ln_theta))  # ln((1-|q|)(1-theta))
    k = np.arange(1, int(np.ceil((L - ln_den) / -ln_theta)) + 1)
    ln_bound = (k + 1) * ln_theta - np.log(k + 1) - ln_den
    K = int(np.argmax(ln_bound < -L)) + 1
    return ln_theta, 1.0 / (k[:K] * np.expm1(k[:K] * lq)), float(np.exp(ln_bound[K - 1]))


@lru_cache(maxsize=256)
def _expm1_table(lq: complex, n: int) -> np.ndarray:
    """expm1(k lq) for k < n: the table that a q-Pochhammer head anchored at m = 0 shares."""
    return np.expm1(np.arange(n) * lq)


def _log_qpochhammer(a: np.ndarray, lq: complex, tol: float, poles=False) -> tuple[np.ndarray, float]:
    """log prod_{m>=0} (1 - e^{a + m lq}), Re lq < 0, over a 1-D array a, and its error:
    the series remainder bound plus eps max|log| for the rounding of the sums.  Per point
    the M factors with |e^{a + m lq}| > theta form the head (with ``poles`` one within
    _POLE_FACTOR_EPS of 0 raises PoleError), the rest Euler's series
    log(w; e^lq)_inf = -sum_k w^k/(k(1 - e^{k lq})), w = e^{a + M lq}.

    When every factor has |e^{a + m lq}| <= 1 (Re a <= _ANCHOR_RE_MAX, a rounding margin
    for nearly imaginary a), the head takes one complex expm1 per point and each factor
    one multiply-add against the cached table expm1(k lq):
    1 - e^{a + k lq} = -(expm1 a + e^a expm1(k lq)).  Otherwise e^a may be large enough
    to swamp the difference, and each factor is formed as -expm1(a + m lq).
    """
    if (re_max := float(a.real.max(initial=-np.inf))) > 690:
        raise DomainError("argument too far from the pole-free region (overflow)")
    ln_theta, coef, bound = _euler_series(complex(lq), float(tol))
    M = np.maximum(np.ceil((a.real - ln_theta) / -lq.real), 0.0)
    m = np.arange(math.ceil(max(0.0, (re_max - ln_theta) / -lq.real)))  # up to max(M)
    anchored = re_max <= _ANCHOR_RE_MAX
    if anchored and m.size:
        ex1 = _expm1_table(complex(lq), m.size)
    chunk = max(16, 2**16 // (m.size + coef.size))  # ~2^16 elements per (chunk, K) work array
    out = np.empty(a.shape, dtype=complex)
    for i0 in range(0, a.size, chunk):
        ac, Mc = a[i0:i0 + chunk], M[i0:i0 + chunk]
        W = np.repeat(np.exp(ac + Mc * lq)[:, None], coef.size, axis=1)
        # einsum, not a BLAS matrix-vector product: a threaded BLAS wakes its
        # threads for this (n, K) shape and takes milliseconds instead of microseconds
        out[i0:i0 + chunk] = np.einsum("ik,k->i", np.cumprod(W, axis=1, out=W), coef)
        if not m.size:
            continue
        if anchored:
            xa = np.expm1(ac)[:, None]
            fac = np.multiply(-1.0 - xa, ex1)
            np.subtract(fac, xa, out=fac)
            if a.size > 1:  # a point's columns past its own M hold factors 1
                np.copyto(fac, 1.0, where=m >= Mc[:, None])
        else:
            fac = -np.expm1(np.where(m < Mc[:, None], ac[:, None] + m * lq, -800.0))
        mag = np.abs(fac)
        if poles and mag.min() < _POLE_FACTOR_EPS:
            raise PoleError("argument numerically on the pole lattice of G_b")
        # log|f| + i arg f in real arithmetic, many times faster than complex log
        out[i0:i0 + chunk] += np.log(mag).sum(axis=1) + 1j * np.arctan2(fac.imag, fac.real).sum(axis=1)
    return out, bound + _EPS * float(np.abs(out).max(initial=0.0))


def _log_gb_product_many(x: np.ndarray, p: ModularParam, tol: float) -> tuple[np.ndarray, float]:
    """log of zeta_b_bar (e^{2 pi i(x - 1/b)/b}; qtilde^2)_inf / (e^{2 pi i b x}; q^2)_inf
    ((x - 1/b)/b, not x/b - 1/b^2: no cancellation of two |b|^-2 terms), and its error:
    both series remainders plus eps times each log and log zeta_b_bar (O(|b|^-2)), which joins the
    logs in the one exp (alone, zeta_b_bar underflows to 0 below r ~ 3.5e-4 at b^2 = i r)."""
    _require_tol(tol)
    b, b2, flat = p.b, p.b2, x.ravel()
    ln_num, tail_num = _log_qpochhammer(2j * np.pi * ((flat - 1.0 / b) / b), -2j * np.pi / b2, tol)
    ln_den, tail_den = _log_qpochhammer(2j * np.pi * b * flat, 2j * np.pi * b2, tol, poles=True)
    ln_zeta_bar = -1j * np.pi / 4 - 1j * np.pi / 12 * (b2 + 1.0 / b2)
    err = tail_num + tail_den + _EPS * abs(ln_zeta_bar)
    return (ln_num - ln_den + ln_zeta_bar).reshape(x.shape), err


# ---------------------------------------------------------------------------
# integral backend (b real): G(z) = exp(i I(z)) on |Im z| < Q/2, then the
# conversion G_b(w) = e^{-i pi z^2/2} e^{-i pi Q^2/8} G(z) with z = i(w - Q/2)


def _g_line_integral(z: np.ndarray, b: float, tol: float) -> tuple[np.ndarray, float]:
    """I(z) = int_0^inf [sin(2yz)/(2 sinh(by) sinh(y/b)) - z/y] dy/y, vectorized.

    Computed as int_0^inf [sin(2yz)/(2y sinh(by) sinh(y/b)) - z/sinh^2 y] dy - z,
    since int_0^inf (1/y^2 - 1/sinh^2 y) dy = 1.  The bracket is even and
    analytic for |Im y| < d = pi min(b, 1/b, 1), equals z(1/3 - k2 - 2z^2/3)
    at y = 0 with k2 = (b^2 + b^-2)/6, and decays like e^{-(Q - 2|Im z|) y}
    (its sinh^-2 term like e^{-2y}); so the trapezoid rule on
    y = k h converges geometrically in 1/h (Trefethen-Weideman).  Arguments
    are binned by |Re z|; each band starts from the step at which the
    aliasing bound e^{-d(2 pi/h - 2|Re z|)} reaches min(tol, 1e-3) and halves h, reusing
    every node, until |T(h/2) - T(h)| <= tol or _MAX_HALVINGS is reached.
    Returns the values and the largest such difference as the error estimate.

    A level's n_y new nodes y_k = h (1 + step k) are summed through a table:
    with m = ceil(sqrt(n_y)) and k = a m + c, e^{2i y_k z} = T_0 R_T^a R_C^c
    with T_0 = e^{2i h z}, R_T = e^{2i h step m z} and R_C = e^{2i h step z}, so
    each point takes three exponentials and reciprocals (3 instead of 100 at
    n_y = 100), the ceil(n_y/m) + m powers are products filled by doubling, and
    the rest is an (n_a x m) @ (m x points) product.  Up to _DIRECT_MAX
    nodes x points the n_y exponentials are formed directly.
    """
    _require_tol(tol)
    Q = b + 1.0 / b
    flat = z.ravel()
    im_max = float(np.max(np.abs(flat.imag))) if flat.size else 0.0
    rho = Q - 2 * im_max
    if rho < 0.15:
        raise DomainError("argument too close to the strip boundary |Im z| = Q/2")
    Y = min(250.0, max(12.0, np.log(1.0 / min(tol / 10.0, 1e-13)) / rho))
    k2 = (b**2 + b**-2) / 6.0
    d = np.pi * min(b, 1.0 / b, 1.0)

    def node_sum(zz, h, n, n_sub, step):
        # bracket summed over y_k = h (1 + step k), k < n_y; the z-independent
        # sinh^-2 term (decay e^{-2y}) runs to n_sub >= n nodes.  E_k = T_0 R_T^a C_c
        # (k = a m + c, C_c = R_C^c) and pref zero-padded to P (n_a x m) give
        # sum_k pref_k (E_k - 1/E_k) = T_0 sum_a R_T^a (P C)_a - T_0^-1 sum_a R_T^-a (P C^-1)_a
        ys = h * np.arange(1, n_sub + 1, step)
        sub = float((np.sinh(ys) ** -2.0).sum())
        n_y = (n - 1) // step + 1
        y = ys[:n_y]
        m = math.isqrt(n_y - 1) + 1
        n_a = -(-n_y // m)
        P = np.zeros((n_a, m), dtype=complex)
        pref = P.reshape(-1)[:n_y]  # a view: pref fills P row by row
        np.divide(-0.25j, y * np.sinh(b * y) * np.sinh(y / b), out=pref)
        if zz.size * n_y <= _DIRECT_MAX:  # the table's set-up costs more than it saves
            E = np.exp(np.multiply.outer(y, 2j * zz))
            return pref @ (E - 1.0 / E) - sub * zz
        base = 2j * h * np.array([1.0, step * m, step])  # 2i times the y of T_0, R_T and R_C
        out = np.empty(zz.shape, dtype=complex)
        # each table product (n_a x m) @ (m x 2 chunk) stays at 2^16 multiply-adds, below
        # where a threaded BLAS wakes its threads (milliseconds), and the table at 2^13 values
        chunk = max(16, min(32768 // (n_a * m), 2048 // m))
        for i0 in range(0, zz.size, chunk):
            zc = zz[i0:i0 + chunk]
            c = zc.size
            E = np.empty((3, 2, c), dtype=complex)  # [T_0, R_T, R_C], each with its reciprocal
            np.exp(np.multiply.outer(base, zc), out=E[:, 0])
            np.divide(1.0, E[:, 0], out=E[:, 1])
            # row j of X is R^j, R = [R_T, 1/R_T, R_C, 1/R_C]: with rows [0, j] filled, rows
            # (j, 2j] are rows (0, j] times R^j, so rounding grows with log2 m, not with m
            X = np.empty((m, 4 * c), dtype=complex)
            X[0] = 1.0
            X[1] = E[1:].reshape(-1)
            j = 1
            while j < m - 1:
                np.multiply(X[1:min(j, m - 1 - j) + 1], X[j], out=X[j + 1:2 * j + 1])
                j *= 2
            W = X[:n_a, :2 * c]  # [R_T^a, R_T^-a]
            W *= P @ X[:, 2 * c:]
            s = W.sum(axis=0) * E[0].reshape(-1)  # times [T_0, 1/T_0]
            out[i0:i0 + chunk] = s[:c] - s[c:] - sub * zc
        return out

    total = np.empty(flat.shape, dtype=complex)
    err = 0.0
    re_abs = np.abs(flat.real)
    band = np.searchsorted(_BAND_EDGES, re_abs, side="right")  # edges[j-1] <= |Re z| < edges[j]
    count = np.bincount(band, minlength=len(_BAND_EDGES) + 1)
    for j in range(1, len(_BAND_EDGES)):
        if not count[j]:
            continue
        sel = band == j
        zb = flat[sel]
        h = 2.0 * np.pi / (2.0 * float(np.max(re_abs[sel])) + np.log(1.0 / min(tol, 1e-3)) / d)
        n = int(np.ceil(Y / h))
        n_sub = max(n, int(np.ceil(_SINH2_CUTOFF / h)))
        T = h * (0.5 * zb * (1.0 / 3.0 - k2 - 2.0 * zb**2 / 3.0) + node_sum(zb, h, n, n_sub, 1))
        for _ in range(_MAX_HALVINGS):
            h, n, n_sub = h / 2.0, 2 * n, 2 * n_sub
            T_half = 0.5 * T + h * node_sum(zb, h, n, n_sub, 2)
            est = float(np.max(np.abs(T_half - T)))
            T = T_half
            if est <= tol:
                break
        err = est if est != est else max(err, est)  # a NaN estimate stays NaN: max drops it
        total[sel] = T
    return (total - flat).reshape(z.shape), err


def _log_gb_integral_many(w: np.ndarray, p: ModularParam, tol: float):
    """log G_b on arbitrary arguments for real b, via shifts into the base window.

    Returns (log values, err, shifted) where shifted reports whether any
    functional-equation continuation was applied.  The continuation factors
    join the log one at a time: their product can over- or underflow where
    G_b itself does not.
    """
    b = float(p.b.real)
    Q = b + 1.0 / b
    flat = w.ravel().astype(complex)
    w_lo = (Q - b) / 2.0
    k = np.ceil((w_lo - flat.real) / b).astype(int)
    ln_shift = np.zeros(flat.shape, dtype=complex)
    kmax = int(k.max(initial=0))
    for j in range(kmax):
        mask = k > j
        f = 1.0 - np.exp(2j * np.pi * b * (flat[mask] + j * b))
        if np.any(np.abs(f) < _POLE_FACTOR_EPS):
            raise PoleError("argument numerically on the pole lattice of G_b")
        ln_shift[mask] -= np.log(f)
    kmin = int(k.min(initial=0))
    with np.errstate(divide="ignore"):  # a factor exactly 0: a zero of G_b, log -inf
        for j in range(1, -kmin + 1):
            mask = k <= -j
            ln_shift[mask] += np.log(1.0 - np.exp(2j * np.pi * b * (flat[mask] - j * b)))
    z = 1j * (flat + k * b - Q / 2.0)
    I, err = _g_line_integral(z, b, tol)
    ln = 1j * I - 0.5j * np.pi * z**2 - 1j * np.pi * Q**2 / 8.0 + ln_shift
    return ln.reshape(w.shape), err, bool(kmax > 0 or kmin < 0)


def _finite_args(x) -> np.ndarray:
    """x as a complex array of at least one dimension; DomainError naming the
    first non-finite entry (a NaN or infinite real part would make the
    continuation's shift count unbounded)."""
    xx = np.atleast_1d(np.asarray(x, dtype=complex))
    finite = np.isfinite(xx).ravel()
    if not finite.all():
        i = int(np.argmin(finite))
        raise DomainError(f"non-finite G_b argument at index {i}: {xx.ravel()[i]}")
    return xx


def _gb_eval(x, p: ModularParam, tol: float):
    """log G_b on a batch: the log values, the backend's error estimate (an
    absolute error of the log, so a relative error of G_b) and its name."""
    xx = _finite_args(x)
    if p.regime == "product":
        return (*_log_gb_product_many(xx, p, tol), "product")
    ln, err, shifted = _log_gb_integral_many(xx, p, tol)
    return ln, err, "functional-continuation" if shifted else "integral"


def gb_many(x, p: ModularParam, tol: float = 1e-10) -> np.ndarray:
    """Vectorized G_b(x); the workhorse behind every kernel evaluation."""
    return np.exp(_gb_eval(x, p, tol)[0])


def gb(x, p: ModularParam, tol: float = 1e-10) -> QDValue:
    """G_b(x) with backend dispatch and error estimate.

    Product regime uses the infinite product; integral regime uses the
    integral representation, continued by G_b(x+b) = (1-e^{2 pi i b x})G_b(x)
    when Re(x) falls outside the base window.  Arguments on the pole lattice
    -n b - m/b raise PoleError; on the zero lattice Q + n b + m/b the value
    comes out zero or nearly so (log G_b has real part -inf only there).  A
    non-finite argument or value raises DomainError, and so does a value that
    underflows to 0 from a finite log.
    """
    lns, err, backend = _gb_eval(x, p, tol)
    ln = complex(lns.flat[0])
    v = complex(np.exp(ln))
    if not cmath.isfinite(v):
        raise DomainError(f"G_b is not finite at {x} (log G_b = {ln:.6g})")
    if v == 0 and ln.real != -np.inf:
        raise DomainError(f"G_b underflows to 0 at {x} (log G_b = {ln:.6g})")
    return QDValue(v, backend, err * abs(v))


def ruijsenaars_g(z, p: ModularParam, tol: float = 1e-10) -> QDValue:
    """The hyperbolic-gamma-type integral G(z) = exp(i int_0^inf ...dy) itself.

    Defined for |Im z| < Q/2; outside the strip use gb (which continues by
    functional equations through the conversion below).
    """
    if p.regime != "integral":
        raise DomainError("the integral representation requires real b")
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    I, err = _g_line_integral(zz, float(p.b.real), tol)
    G = complex(np.exp(1j * I[0]))
    if not cmath.isfinite(G):
        raise DomainError(f"ruijsenaars_g is not finite at {z} (the integral gave {I[0]:.6g})")
    return QDValue(G, "integral", err * abs(G))  # err bounds I, so err |G| bounds G = e^{iI}


def gb_pole_lattice(p: ModularParam, n_max: int = 6, m_max: int = 4) -> np.ndarray:
    """Pole locations -n b - m / b, n, m >= 0 (desk-scale window)."""
    n = np.arange(0, n_max + 1)
    m = np.arange(0, m_max + 1)
    return (-(n[:, None] * p.b) - m[None, :] / p.b).ravel()


# ---------------------------------------------------------------------------
# variants


def sb(x, p: ModularParam, tol: float = 1e-10) -> QDValue:
    """S_b(x) = e^{-(i pi/2) x (x-Q)} G_b(x); satisfies S_b(x)S_b(Q-x) = 1."""
    return np.exp(-0.5j * np.pi * x * (x - p.Q)) * gb(x, p, tol)


def gb_small(x, p: ModularParam, tol: float = 1e-10) -> QDValue:
    """g_b(x) = zeta_b_bar / G_b(Q/2 + log(x)/(2 pi i b)), principal log, x off (-inf, 0]."""
    x = complex(x)
    if x.real <= 0 and abs(x.imag) < 1e-14:
        raise DomainError("g_b needs x off the cut (-inf, 0]")
    return p.zeta_b_bar / gb(p.Q / 2.0 + np.log(x) / (2j * np.pi * p.b), p, tol)


def veta(z, p: ModularParam, tol: float = 1e-10) -> QDValue:
    """V_eta(z) at eta = 1/b^2, through its quantum-dilogarithm form
    ``V(z) = zeta_b G_b(Q/2 - i z/(2 pi b)) = 1/g_b(e^z)``."""
    return p.zeta_b * gb(p.Q / 2.0 - 1j * complex(z) / (2 * np.pi * p.b), p, tol)


def veta_integral(z, p: ModularParam, tol: float = 1e-10) -> complex:
    """Direct quadrature of V_eta(z) = exp[(1/2 pi i) int_0^inf log(1+a^{-eta}) da/(a+e^{-z})].

    Independent route used to validate the G_b form; real z.
    """
    z = complex(z)
    eta = 1.0 / p.b2
    if p.regime != "integral":
        raise DomainError("direct V_eta quadrature implemented for real b")
    eta = float(eta.real)
    emz = np.exp(-z)

    def f(u):
        # a = e^u; log1p picks up the a^{-eta} tail stably
        a = np.exp(u)
        return np.log1p(np.exp(-eta * u)) * a / (a + emz)

    val = integrate_line(f, truncation=max(40.0, 60.0 / eta), tol=tol).value
    return complex(np.exp(val / (2j * np.pi)))


# ---------------------------------------------------------------------------
# identity residuals


def verify_identity(kind: str, x, p: ModularParam, tol: float = 1e-10) -> float | np.ndarray:
    """Relative residual |lhs/rhs - 1| of one of the defining identities of G_b at x,
    formed from the log difference d as |expm1(d)|: finite wherever both sides' logs
    are, however far G_b itself over- or underflows.

    Vectorized over an array x; a scalar x gives a float.
    kinds: functional_b, functional_binv, reflection, conjugation, selfduality.
    For complex b^2 the conjugation check uses its reflection form (the
    literal complex conjugation relates b to its conjugate parameter).
    """
    xs = np.asarray(x, dtype=complex)
    Q = p.Q

    def L(w, pp=p):
        return _gb_eval(w, pp, tol)[0].reshape(xs.shape)

    if kind == "functional_b":
        d = L(xs + p.b) - np.log(1 - np.exp(2j * np.pi * p.b * xs)) - L(xs)
    elif kind == "functional_binv":
        d = L(xs + 1 / p.b) - np.log(1 - np.exp(2j * np.pi * xs / p.b)) - L(xs)
    elif kind == "reflection":
        d = L(xs) + L(Q - xs) - 1j * np.pi * xs * (xs - Q)
    elif kind == "conjugation":  # conj G_b(x) (or its reflection form) times G_b(Q - conj x) is 1
        xb = np.conj(xs)
        lhs = np.conj(L(xs)) if p.regime == "integral" else 1j * np.pi * xb * (Q - xb) + L(xb)
        d = lhs + L(Q - xb)
    elif kind == "selfduality":
        if p.regime != "integral":
            raise DomainError("self-duality check needs the integral regime "
                              "(the product for the dual parameter diverges)")
        d = L(xs) - L(xs, p.dual())
    else:
        raise ValueError(f"unknown identity kind {kind!r}")
    res = np.abs(np.expm1(d))
    return float(res) if xs.ndim == 0 else res


def _lattice_gap(lattice: np.ndarray, z0: complex) -> float:
    """Distance from z0 to the nearest lattice point other than z0 itself."""
    gaps = np.abs(lattice - z0)
    return float(np.min(gaps[gaps > 1e-12]))


def residue_check(n: int, m: int, p: ModularParam, tol: float = 1e-9) -> float:
    """Residue of 1/G_b(Q+z) at z = n b + m/b against the closed q-product form
    ``-(1/2 pi) prod_{k<=n}(1-q^{2k})^{-1} prod_{l<=m}(1-qtilde^{-2l})^{-1}``."""
    if n < 0 or m < 0:
        raise DomainError("residue lattice indices must be non-negative")
    z0 = n * p.b + m / p.b
    # the poles of 1/G_b(Q+z) are the pole lattice of G_b negated
    radius = 0.3 * _lattice_gap(-gb_pole_lattice(p, n + 2, m + 2), z0)

    def f(z):
        return 1.0 / gb_many(p.Q + z, p, tol)

    num = residue_at(f, complex(z0), radius)
    k = np.arange(1, n + 1)
    l = np.arange(1, m + 1)
    closed = -1.0 / (2 * np.pi)
    if n:
        closed = closed / np.prod(1 - np.exp(2j * np.pi * p.b2 * k))
    if m:
        closed = closed / np.prod(1 - np.exp(2j * np.pi * l / p.b2))
    return abs(num - closed) / abs(closed)


def gb_residue_at_pole(N: int, p: ModularParam, tol: float = 1e-10) -> complex:
    """Residue of G_b at the pole -N b, by circle quadrature."""
    if N == 0:
        z0 = 0.0 + 0j
    else:
        z0 = -N * p.b
    radius = min(0.3 * _lattice_gap(gb_pole_lattice(p, N + 3, N + 3), z0), 0.2)
    return residue_at(lambda z: gb_many(z, p, tol), complex(z0), radius)


# ---------------------------------------------------------------------------
# tau-beta theorem and Fourier transformation formulas


def tau_beta_residual(alpha, beta, p: ModularParam, tol: float = 1e-8) -> float:
    """Relative residual of the beta-integral analogue

    ``int_C e^{-2 pi tau beta} G_b(alpha+i tau)/G_b(Q+i tau) d tau
      = G_b(alpha) G_b(beta) / G_b(alpha+beta)``,

    C along R passing above the poles of 1/G_b(Q+i tau) (head tau = 0,
    descending) and below those of G_b(alpha+i tau) (head tau = i alpha,
    ascending).  Decay requires Re(beta) > 0 and Re(alpha+beta) < Q.
    """
    alpha, beta = complex(alpha), complex(beta)
    Q = p.Q
    rate_r = 2 * np.pi * beta.real
    rate_l = 2 * np.pi * (Q - alpha - beta).real
    if rate_r < 0.05 or rate_l < 0.05:
        raise DomainError("tau-beta integrand does not decay for these parameters")
    T = max(30.0 / rate_r, 30.0 / rate_l) + 2.0
    heads = [(0j, "above"), (-1j * p.b, "above"), (-1j / p.b, "above"),
             (1j * alpha, "below"), (1j * (alpha + p.b), "below")]
    cont = auto_detours(heads, truncation=T)

    def f(tau):
        return np.exp(-2 * np.pi * tau * beta) * gb_many(alpha + 1j * tau, p, tol) \
            / gb_many(Q + 1j * tau, p, tol)

    lhs = integrate_contour(f, cont, tol=tol).value
    rhs = gb(alpha, p, tol).value * gb(beta, p, tol).value / gb(alpha + beta, p, tol).value
    return abs(lhs - rhs) / abs(rhs)


# per formula: the sign s of the wave e^{2 pi i s t r} (s = 1: divide by G_b(Q+it), line
# above 0; s = -1: multiply by G_b(it), line below 0), whether the damping is the Gaussian
# e^{-pi i s t^2} (else e^{-pi Q t}), the line's slope, and whether the right-hand side is
# zeta_b_bar / G_b(Q/2-ir) (else zeta_b G_b(Q/2-ir))
_FOURIER = {1: (1, True, -0.5, True), 2: (1, False, 0.5, False),
            3: (-1, False, -0.5, True), 4: (-1, True, 0.5, False)}


def fourier_gb_residual(which: int, r: float, p: ModularParam, tol: float = 1e-8) -> float:
    """Relative residual of the four Fourier transformation formulas:

    1: int_{R+i0} e^{2 pi i t r} e^{-pi i t^2} / G_b(Q+it) dt = zeta_b_bar/G_b(Q/2-ir)
    2: int_{R+i0} e^{2 pi i t r} e^{-pi Q t} / G_b(Q+it) dt = zeta_b G_b(Q/2-ir)
    3: int_{R-i0} e^{-2 pi i t r} e^{-pi Q t} G_b(it) dt    = zeta_b_bar/G_b(Q/2-ir)
    4: int_{R-i0} e^{-2 pi i t r} e^{pi i t^2} G_b(it) dt   = zeta_b G_b(Q/2-ir)

    The line is tilted so the Fresnel factor decays like a Gaussian on the
    end where the integrand would otherwise only oscillate; the tilt stays
    clear of both pole ladders, which sit on the imaginary axis.
    """
    if which not in _FOURIER:
        raise ValueError("which must be 1..4")
    s, gaussian, slope, over = _FOURIER[which]
    Q = p.Q
    radius = 0.2 * min(abs(p.b), abs(1 / p.b))
    cont = Contour(0.0, (Detour(0j, "above" if s > 0 else "below", radius),), 5.0 + abs(r), slope)

    def f(t):
        damping = np.exp(-1j * s * np.pi * t**2) if gaussian else np.exp(-np.pi * Q * t)
        wave = np.exp(2j * np.pi * s * t * r) * damping
        return wave / gb_many(Q + 1j * t, p, tol) if s > 0 else wave * gb_many(1j * t, p, tol)

    g = gb(Q / 2 - 1j * r, p, tol).value
    rhs = p.zeta_b_bar / g if over else p.zeta_b * g
    lhs = integrate_contour(f, cont, tol=tol).value
    return abs(lhs - rhs) / abs(rhs)


# ---------------------------------------------------------------------------
# q-binomial residue content


def qbinomial_coeffs(n: int, q: complex) -> np.ndarray:
    """Coefficients c_k of (u+v)^n = sum_k c_k u^k v^{n-k} for u v = q^2 v u,
    normal-ordered with u-powers on the left (symbolic q-commutation expansion)."""
    c = np.array([1.0 + 0j])
    for _ in range(n):
        new = np.zeros(len(c) + 1, dtype=complex)
        j = np.arange(len(c))
        new[1:] += c                      # u * u^j v^{...}
        new[:-1] += q ** (-2.0 * j) * c   # v * u^j = q^{-2j} u^j v
        c = new
    return c


def qbinom_residue_check(n: int, p: ModularParam, tol: float = 1e-10) -> float:
    """q-binomial content of the kernel [t;tau]_b = G_b(-ib tau)G_b(ib tau-ib t)/G_b(-ib t).

    At t = -i n the transform collapses to n+1 residues at tau = t + i k,
    whose exact pole-factorization limit is

        R_k = (1/i) Res_{-(n-k)b} G_b * Res_{-k b} G_b / Res_{-n b} G_b ,

    each residue evaluated numerically by circle quadrature.  Returns the
    max over k of the relative difference between 2 pi i R_k and the
    symbolic q-binomial coefficient of u^k v^{n-k}.
    """
    if not 1 <= n <= 12:
        raise DomainError("q-binomial residue check supports n in 1..12")
    res = {N: gb_residue_at_pole(N, p, tol) for N in range(0, n + 1)}
    coeffs = qbinomial_coeffs(n, p.q)
    worst = 0.0
    for k in range(0, n + 1):
        Rk = (1.0 / 1j) * res[n - k] * res[k] / res[n]
        ck = 2j * np.pi * Rk
        worst = max(worst, abs(ck - coeffs[k]) / abs(coeffs[k]))
    return worst


# ---------------------------------------------------------------------------
# b-hypergeometric function


def fb_hypergeometric(alpha, beta, gamma_, z, p: ModularParam, tol: float = 1e-8) -> complex:
    """The b-deformed Gauss hypergeometric function

    ``F_b(a,b,c;z) = G_b(c)/(G_b(a)G_b(b)) int_C (-z)^{i tau/b} e^{pi i tau^2}
      G_b(a+i tau)G_b(b+i tau)G_b(-i tau)/G_b(c+i tau) d tau``

    with the contour separating the ascending pole ladders of the first two
    factors from the descending ones of G_b(-i tau)/G_b(c+i tau).  Integrand
    decay is pre-validated from the asymptotic exponents.
    """
    return _fb_hypergeometric(alpha, beta, gamma_, z, p, tol)[0]


def _fb_hypergeometric(alpha, beta, gamma_, z, p: ModularParam, tol: float) -> tuple[complex, float]:
    """fb_hypergeometric's value and the quadrature's error estimate scaled by
    the prefactor."""
    a, bb, c, z = complex(alpha), complex(beta), complex(gamma_), complex(z)
    if z.real >= 0 and abs(z.imag) < 1e-14:
        raise DomainError("(-z) power needs z off the cut [0, inf)")
    Q = p.Q
    L = np.log(-z)
    rate_r = np.pi * Q.real + (L / p.b).imag
    rate_l = np.pi * Q.real - 2 * np.pi * (a + bb - c).real - (L / p.b).imag
    if rate_r < 0.05 or rate_l < 0.05:
        raise DomainError("b-hypergeometric integrand does not decay for these parameters")
    T = max(30.0 / rate_r, 30.0 / rate_l) + 0.5
    heads = [(0j, "above"), (1j * a, "below"), (1j * bb, "below"),
             (-1j * (Q - c), "above")]
    cont = auto_detours(heads, truncation=T)

    def f(tau):
        return (
            np.exp(1j * tau * L / p.b)
            * np.exp(1j * np.pi * tau**2)
            * gb_many(a + 1j * tau, p, tol)
            * gb_many(bb + 1j * tau, p, tol)
            * gb_many(-1j * tau, p, tol)
            / gb_many(c + 1j * tau, p, tol)
        )

    res = integrate_contour(f, cont, tol=tol)
    pref = gb(c, p, tol).value / (gb(a, p, tol).value * gb(bb, p, tol).value)
    return complex(pref * res.value), abs(pref) * res.err_estimate


# ---------------------------------------------------------------------------
# classical limits


def eta_dedekind(y: float, tol: float = 1e-15) -> float:
    """Dedekind eta at purely imaginary argument: eta(iy) = e^{-pi y/12} prod (1-e^{-2 pi n y})."""
    if not y > 0:
        raise DomainError("eta evaluated at iy needs y > 0")
    qq = np.exp(-2 * np.pi * y)
    if qq < 1e-300:
        return float(np.exp(-np.pi * y / 12))
    N = max(4, int(np.ceil(np.log(tol * (1 - qq)) / np.log(qq))))
    n = np.arange(1, N + 1)
    return float(np.exp(-np.pi * y / 12) * np.prod(1 - qq**n))


def classical_limit_residual(kind: str, x, r: float, tol: float = 1e-11) -> float:
    """Finite-r residual of the classical-limit statements along b^2 = i r.

    Glim:  |(2 pi b) G_b(b x) / (2 pi r)^x - Gamma(x)|
    GlimQ: |(2 pi b) G_b(Q + b x) / (2 pi r)^{x+1} - (1 - e^{2 pi i x}) Gamma(x+1)|
    eta:   residual of eta(i/r) = sqrt(r) eta(i r), both sides by q-series
    reflection_compat: |A(r) B(r) C(r) - 1| for the factored reflection chain
        A = (2 pi b)G_b(bx)/(2 pi r)^x,  B = (2 pi b)G_b(Q-bx)/(2 pi r)^{1-x},
        C = (2 pi r)/(2 pi b)^2 e^{-pi i b x (b x - Q)}.
    """
    if kind == "eta":
        lhs = eta_dedekind(1.0 / r)
        rhs = np.sqrt(r) * eta_dedekind(r)
        return abs(lhs - rhs) / abs(lhs)
    p = from_r(r)
    b, Q = p.b, p.Q
    x = complex(x)
    base = 2 * np.pi * r
    if kind == "Glim":
        val = 2 * np.pi * b * gb(b * x, p, tol).value / base**x
        return float(abs(val - gamma(x)))
    if kind == "GlimQ":
        val = 2 * np.pi * b * gb(Q + b * x, p, tol).value / base ** (x + 1)
        tgt = (1 - np.exp(2j * np.pi * x)) * gamma(x + 1)
        return float(abs(val - tgt))
    if kind == "reflection_compat":
        A = 2 * np.pi * b * gb(b * x, p, tol).value / base**x
        B = 2 * np.pi * b * gb(Q - b * x, p, tol).value / base ** (1 - x)
        C = base / (2 * np.pi * b) ** 2 * np.exp(-1j * np.pi * b * x * (b * x - Q))
        return float(abs(A * B * C - 1.0))
    raise ValueError(f"unknown classical-limit kind {kind!r}")
