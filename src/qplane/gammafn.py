"""Complex gamma function and the classical contour-integral identities.

The gamma implementation is a 15-term Lanczos approximation (g = 607/128),
accurate to ~2e-14 relative on the desk-scale box |z| <= 20 and ~1e-13 for
|Im z| up to 120.  It covers the plane in three regions: the Lanczos core on
Re z >= 1/2; the recurrence Gamma(z) = Gamma(z + 1)/z on the central strip
-1/2 <= Re z < 1/2, where the classical kernels' gamma(+-i x) lie (no
complex sin); and the reflection formula on Re z < -1/2.  The Lanczos
sum's 14 partial fractions are summed by broadcasting, in complex
arithmetic on small batches and in real arithmetic (no complex division)
on large ones; on large batches log t is also formed in real arithmetic
as log|t| + i arg t, and the prefactor is a single exp.  A single finite
point takes the same route in cmath, without the array overhead.  These are
the classical targets that the quantum-dilogarithm limits are checked
against: the gamma-beta integral, the Mellin-Barnes binomial formula, and
the Gauss hypergeometric function evaluated by contour integral.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .contours import auto_detours, integrate_contour, integrate_line
from .errors import DomainError, PoleError

# Godfrey's Lanczos coefficients, g = 607/128, n = 15.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = np.array([
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    3.3994649984811888699e-5,
    4.6523628927048575665e-5,
    -9.8374475304879564677e-5,
    1.5808870322491248884e-4,
    -2.1026444172410488319e-4,
    2.1743961811521264320e-4,
    -1.6431810653676389022e-4,
    8.4418223983852743293e-5,
    -2.6190838401581408670e-5,
    3.6899182659531622704e-6,
])


_LANCZOS_K = np.arange(1.0, _LANCZOS_C.size)
_SMALL_BATCH = 256  # complex arithmetic up to here, real arithmetic beyond
_CHUNK = 2**15 // _LANCZOS_K.size  # points per (14, n) work array of the real form


def _lanczos_sum(x: np.ndarray) -> np.ndarray:
    """c_0 + sum_k c_k/(x + k) over a 1-D array x, as broadcast (14, n) calls.

    Beyond _SMALL_BATCH points each term is c_k conj(x + k)/|x + k|^2 in real
    arithmetic: no complex division, and half the memory traffic.  Its work
    arrays hold at most _CHUNK points.
    """
    if x.size <= _SMALL_BATCH:
        return _LANCZOS_C[0] + (_LANCZOS_C[1:, None] / (x + _LANCZOS_K[:, None])).sum(axis=0)
    out = np.empty(x.shape, dtype=complex)
    for i0 in range(0, x.size, _CHUNK):
        xc = x[i0:i0 + _CHUNK]
        re = np.add.outer(_LANCZOS_K, xc.real)
        w = re * re
        w += xc.imag**2
        np.divide(_LANCZOS_C[1:, None], w, out=w)
        re *= w
        out.real[i0:i0 + _CHUNK] = _LANCZOS_C[0] + re.sum(axis=0)
        out.imag[i0:i0 + _CHUNK] = -xc.imag * w.sum(axis=0)
    return out


def _gamma_core(z: np.ndarray) -> np.ndarray:
    # valid for Re z > 0; poles are the caller's responsibility.  The
    # prefactor t^(x + 1/2) e^-t, t = x + g + 1/2, is one exp of
    # (x + 1/2)(log t - 1) - g: forming (x + 1/2) log t and then subtracting t
    # rounds twice on the large phase (1.8e-13 against 1.0e-13 for |Im z| to 120).
    x = (z - 1.0).ravel()
    t = x + (_LANCZOS_G + 0.5)
    if x.size <= _SMALL_BATCH:
        log_t1 = np.log(t) - 1.0
    else:  # log|t| - 1 + i arg t in real arithmetic: no complex log
        log_t1 = np.empty_like(t)
        log_t1.real = np.log(np.abs(t)) - 1.0
        log_t1.imag = np.arctan2(t.imag, t.real)
    log_pre = (x + 0.5) * log_t1 - _LANCZOS_G
    return (math.sqrt(2 * math.pi) * np.exp(log_pre) * _lanczos_sum(x)).reshape(z.shape)


def _screen_poles(z: np.ndarray) -> None:
    # a pole also needs |Im z| < 1e-13, so few points reach the full test
    near = z[np.abs(z.imag) < 1e-13]
    if near.size and np.any(np.abs(near - np.round(near.real)) < 1e-13):
        raise PoleError("gamma pole at non-positive integer argument")


def _recurred(z: np.ndarray) -> np.ndarray:
    # Gamma(z) = Gamma(z + 1) / z on the strip -1/2 <= Re z < 1/2: the core
    # runs at Re in [1/2, 3/2), and the only pole is z = 0
    _screen_poles(z)
    return _gamma_core(z + 1.0) / z


def _reflected(z: np.ndarray) -> np.ndarray:
    # Gamma(z) = pi / (sin(pi z) Gamma(1 - z)) for Re z < -1/2
    _screen_poles(z)
    # sin(pi z) = (-1)^n sin(pi (z - n)), n = round(Re z): z - n is exact, so
    # pi z is never rounded near a pole
    n = np.round(z.real)
    sin = np.sin(np.pi * (z - n))
    sin = np.where(n % 2 == 0, sin, -sin)
    return np.pi / (sin * _gamma_core(1.0 - z))


_SCALAR_C = tuple(float(c) for c in _LANCZOS_C)


def _gamma_scalar(z: complex) -> complex:
    """gamma at one finite point in cmath: the regions, the Lanczos sum and
    the pole screen of the array path, without its array overhead."""
    if z.real < 0.5:
        if abs(z.imag) < 1e-13 and abs(z - round(z.real)) < 1e-13:
            raise PoleError("gamma pole at non-positive integer argument")
        if z.real >= -0.5:
            return _gamma_scalar(z + 1.0) / z
        n = round(z.real)
        sin = cmath.sin(math.pi * (z - n))
        return math.pi / ((sin if n % 2 == 0 else -sin) * _gamma_scalar(1.0 - z))
    x = z - 1.0
    t = x + (_LANCZOS_G + 0.5)
    lanczos = _SCALAR_C[0] + sum(c / (x + k) for k, c in enumerate(_SCALAR_C[1:], 1))
    log_pre = (x + 0.5) * (cmath.log(t) - 1.0) - _LANCZOS_G
    return math.sqrt(2 * math.pi) * cmath.exp(log_pre) * lanczos


def gamma(z) -> np.ndarray | complex:
    """Gamma(z) for complex z (vectorized): Lanczos on Re z >= 1/2, the
    recurrence on -1/2 <= Re z < 1/2 and the reflection formula beyond.
    A single finite point takes the same route in cmath, unless it overflows.

    Raises PoleError when z is numerically a non-positive integer.
    """
    if np.ndim(z) == 0 and cmath.isfinite(zc := complex(z)):
        try:
            return _gamma_scalar(zc)
        except OverflowError:
            pass  # the array path's inf or NaN
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    core = zz.real >= 0.5
    if np.count_nonzero(core) == zz.size:  # all points in one region: no boolean-mask copies
        out = _gamma_core(zz)
    elif np.count_nonzero(left := zz.real < -0.5) == zz.size:
        out = _reflected(zz)
    elif not (core.any() or left.any()):
        out = _recurred(zz)
    else:
        out = np.empty_like(zz)
        for mask, region in ((core, _gamma_core), (~(core | left), _recurred), (left, _reflected)):
            if mask.any():
                out[mask] = region(zz[mask])
    return complex(out[0]) if np.ndim(z) == 0 else out


def gamma_beta_residual(w: complex, u: complex, tol: float = 1e-10) -> float:
    """Relative residual of the beta-type integral
    ``int_0^inf t^{w+u-1}(1+t)^{-w} dt = Gamma(w+u)Gamma(-u)/Gamma(w)``.

    Requires Re(w+u) > 0 and Re(u) < 0 for absolute convergence.
    """
    w, u = complex(w), complex(u)
    if not (w + u).real > 0 or not u.real < 0:
        raise DomainError("gamma-beta integral needs Re(w+u) > 0 and Re(u) < 0")
    rhs = gamma(w + u) * gamma(-u) / gamma(w)

    # log substitution t = e^v; integrand decays like e^{(w+u)v} left, e^{u v} right
    def g(v):
        t = np.exp(v)
        return t ** (w + u) * (1 + t) ** (-w)

    rate = min((w + u).real, -u.real)
    T = max(8.0, 40.0 / rate)
    lhs = integrate_line(g, T, tol=tol).value
    return abs(lhs - rhs) / abs(rhs)


def binomial_mellin_residual(x: float, y: float, t: float, tol: float = 1e-9) -> float:
    """Relative residual of the Mellin-Barnes binomial formula
    ``(x+y)^{it} = (1/2pi) int Gamma(-is)Gamma(-it+is)/Gamma(-it) x^{is} y^{it-is} ds``
    with the contour passing above s = 0 and below s = t.

    At t = 0 the kernel degenerates (1/Gamma(0) = 0 with a pinched contour);
    the analytic limit of both sides is 1, which is returned directly.
    """
    if x <= 0 or y <= 0:
        raise DomainError("binomial formula requires x, y > 0")
    lhs = (x + y) ** (1j * t)
    if abs(t) < 1e-12:
        return 0.0
    gt = gamma(complex(-1j * t))
    lx, ly = np.log(x), np.log(y)

    def integrand(s):
        return (
            gamma(-1j * s) * gamma(1j * s - 1j * t) / gt
            * np.exp(1j * s * lx) * np.exp((1j * t - 1j * s) * ly)
        )

    T = max(10.0, abs(t) + 10.0)
    cont = auto_detours([(0j, "above"), (complex(t), "below")], truncation=T)
    rhs = integrate_contour(integrand, cont, tol=tol).value / (2 * np.pi)
    return abs(lhs - rhs) / abs(lhs)


def hyp2f1_series(a: complex, b: complex, c: complex, z: complex, tol: float = 1e-14) -> complex:
    """Gauss series for 2F1, |z| < 1; the independent oracle for the contour route."""
    if abs(z) >= 1:
        raise DomainError("Gauss series requires |z| < 1")
    term = 1.0 + 0j
    total = term
    for n in range(1, 500):
        term *= (a + n - 1) * (b + n - 1) / ((c + n - 1) * n) * z
        total += term
        if abs(term) < tol * max(1.0, abs(total)):
            return total
    raise DomainError("Gauss series did not converge (|z| too close to 1)")


def hyp2f1_contour(a: complex, b: complex, c: complex, z: complex, tol: float = 1e-10) -> complex:
    """2F1(a,b,c;z) via the Mellin-Barnes contour
    ``Gamma(c)/(Gamma(a)Gamma(b)) (1/2pi) int (-z)^{is}
    Gamma(a+is)Gamma(b+is)Gamma(-is)/Gamma(c+is) ds``
    with the contour separating the pole ladder of Gamma(-is) (downward from 0)
    from those of Gamma(a+is), Gamma(b+is) (upward from ia, ib).
    """
    return _hyp2f1_contour(a, b, c, z, tol)[0]


def _hyp2f1_contour(a, b, c, z, tol: float) -> tuple[complex, float]:
    """hyp2f1_contour's value and the quadrature's error estimate scaled by
    the prefactor (the series' stopping bound near z = 0)."""
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    if abs(z) < 1e-8:  # contour degenerates smoothly at z -> 0
        val = hyp2f1_series(a, b, c, z)
        return val, 1e-14 * max(1.0, abs(val))
    if z.real >= 0 and abs(z.imag) < 1e-14:
        raise DomainError("(-z) power needs z off the cut [0, inf)")
    for p in (a, b):
        if abs(p - round(p.real)) < 1e-12 and round(p.real) <= 0:
            raise DomainError("contour-pole collision: a or b non-positive integer")
    log_mz = np.log(-z)  # principal branch
    ga, gb_, gc = gamma(a), gamma(b), gamma(c)

    def integrand(s):
        return (
            np.exp(1j * s * log_mz)
            * gamma(a + 1j * s) * gamma(b + 1j * s) * gamma(-1j * s)
            / gamma(c + 1j * s)
        )

    # decay rate ~ e^{-(pi - |arg(-z)|)|s|}; keep a safety margin
    rate = np.pi - abs(np.angle(-z))
    if rate < 0.3:
        raise DomainError("contour representation too slowly convergent for this z")
    T = max(10.0, 35.0 / rate)
    pole_sides = [(0j, "above"), (1j * a, "below"), (1j * b, "below")]
    cont = auto_detours(pole_sides, truncation=T)
    res = integrate_contour(integrand, cont, tol=tol)
    pref = gc / (ga * gb_) / (2 * np.pi)
    return complex(pref * res.value), abs(pref) * res.err_estimate
