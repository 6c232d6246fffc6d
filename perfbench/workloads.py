"""Seeded op lists for the three benchmark workloads.

A workload is a closed loop: one client in one process sends the next op
only after the previous one returns.  ``build(name, seed, k)`` returns the
fixed op list of pass ``k``: the same strata, op counts and batch sizes on
every pass, in a shuffled order, with inputs drawn from
``numpy.random.default_rng([seed, k])``, so a pass never repeats another
pass's inputs and a value cache cannot serve them.  The library only receives the generated values.

Op mix.  Each stratum stands for one library function.  A pass holds
``max(1, round(calls / DIVISOR[workload]))`` ops of it, where ``calls`` is
the number of calls ``qplane verify all`` makes to that function
(VERIFY_CALLS, counted by verify_mix.py): the suites are the repository's
one recorded use of the library.  DIVISOR only sets how long a pass is; the
floor of one op keeps every stratum in every pass.  A G_b batch's size is a
stratified draw from the sizes the suites request (GB_BATCH_SIZES).  Input
values are drawn from the ranges the suites cover, within each function's
documented domain.

Each op is timed on ``run``; ``check`` then verifies the result at the
tolerance written next to it.  Ops marked ``probe`` reach past the domain
where the library is known to hold its tolerance (the wide box of G_b
arguments; q-binomial residues at b other than the suite's 0.8; fixed-node
grids at |t| < 0.15): their failures are known defects, reported on their
own line and not part of the gated failure count.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Library functions are called through their modules (``gammafn.gamma``, not
# a local binding) so the tracer's wrappers see every call the benchmark makes.
from qplane import axb, classw, cli, corep, gammafn, qtransform
from qplane import qdilog as qd
from qplane.classw import ClassWFunction
from qplane.errors import DomainError
from qplane.modular import from_b, from_b2, from_r
from qplane.verify import decreasing_with_floor

# Output of verify_mix.py at the commit that defined the benchmark.
# ``intertwiner_forward_grid`` counts only the 48 calls made outside
# ``intertwiner_inverse``; the 18 inside are the round trips' own.
VERIFY_CALLS = {
    "qdilog.gb.integral": 259,
    "qdilog.gb.product": 15,
    "qdilog.gb.limit": 316,
    "qdilog.gb_many.integral": 331,
    "qdilog.gb_many.product": 24,
    "qdilog.gb_many.limit": 24,
    "axb.intertwiner_forward": 20745,
    "axb.intertwiner_inverse": 9,
    "axb.intertwiner_forward_grid": 48,
    "axb.act_mellin": 10,
    "classw.mellin_forward": 48,
    "gammafn.hyp2f1_contour": 10,
    "gammafn.binomial_mellin_residual": 36,
    "qtransform.apply_q_forward": 4,
    "qtransform.q_forward_grid": 48,
    "qtransform.q_roundtrip": 9,
    "qtransform.kernel_limit_residual": 86,
    "qdilog.tau_beta_residual": 3,
    "qdilog.fourier_gb_residual": 13,
    "qdilog.qbinom_residue_check": 5,
    "qdilog.classical_limit_residual.Glim": 20,
    "qdilog.classical_limit_residual.GlimQ": 20,
    "corep.corep_axiom_residual": 20,
    "corep.pairing.X": 9,
    "corep.pairing.Y": 9,
    "corep.coaction_limit_residual": 13,
}
# {points: calls} of the suites' gb_many requests, per regime.
GB_BATCH_SIZES = {
    "integral": {9: 1, 25: 20, 32: 59, 64: 59, 128: 2, 288: 4, 312: 9, 576: 6, 612: 8, 624: 9,
                 720: 4, 792: 2, 1128: 16, 1152: 98, 1176: 4, 1224: 20, 1272: 4, 1440: 4, 1584: 2},
    "product": {25: 16, 32: 2, 64: 2, 648: 2, 1296: 2},
    "limit": {288: 4, 576: 4, 1152: 4, 2304: 4, 4608: 4, 9216: 4},
}
DIVISOR = {"gb-eval": 16, "classical": 100, "quantum": 8}
LIMIT_SCHEDULE = (0.1, 0.05, 0.025, 1e-3)  # the suites' limit ladder
LIMIT_BATCH_R = (0.1, 0.01, 1e-3)  # b^2 = i r of the limit batches: O(1/r) product factors
GL48 = np.polynomial.legendre.leggauss(48)[0]  # the suites' norm-check nodes on [-1, 1]
QBINOM_N = (1, 2, 3, 4, 5)  # the q-binomial suite's n


@dataclass(frozen=True)
class Op:
    stratum: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    probe: bool = False
    calls: int = 1  # library calls ``run`` makes, each a latency sample


def _count(workload: str, key: str, calls_per_op: int = 1) -> int:
    """Ops per pass for the stratum weighted by VERIFY_CALLS[key]."""
    return max(1, int(VERIFY_CALLS[key] / (calls_per_op * DIVISOR[workload]) + 0.5))


def _sizes(regime: str, n: int) -> list[int]:
    """n batch sizes at the midpoints of n equal shares of the suites' requests."""
    hist = GB_BATCH_SIZES[regime]
    sizes = sorted(hist)
    cum = np.cumsum([hist[s] for s in sizes])
    return [sizes[int(np.searchsorted(cum, (i + 0.5) * cum[-1] / n, side="right"))] for i in range(n)]


def _rel(a, b):
    return np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))


def _complex_box(rng, n, re, im):
    return rng.uniform(*re, n) + 1j * rng.uniform(*im, n)


def _off_axis(rng, n, lo, hi):
    """Imaginary parts with lo <= |Im| <= hi: keeps real-b points off the
    real-axis pole and zero lattices."""
    return rng.choice((-1.0, 1.0), n) * rng.uniform(lo, hi, n)


def _generic_b2(rng):
    return complex(rng.uniform(0.1, 0.6), rng.uniform(0.3, 0.8))


# ---------------------------------------------------------------------------
# gb-eval


def _functional_b_op(stratum, x, p, probe=False):
    """One request holding x and its partners x + b; checks
    G_b(x+b) = (1 - e^{2 pi i b x}) G_b(x) at 1e-8 on every point."""
    n = x.size
    req = np.concatenate([x, x + p.b])

    def run():
        if not probe:
            return qd.gb_many(req, p)
        try:
            return qd.gb_many(req, p)
        except DomainError:
            return None  # a signalled refusal is the domain contract, not a failure

    def check(v):
        if v is None:
            return probe
        if not (np.all(np.isfinite(v)) and np.all(v != 0)):
            return False
        rhs = (1 - np.exp(2j * np.pi * p.b * x)) * v[:n]
        return bool(np.all(_rel(v[n:], rhs) < 1e-8))

    return Op(stratum, run, check, probe)


def _token(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _cli_op(stratum, x: complex, param_flag: str, param: str):
    """Single point through ``qplane eval gb``.  Re x > 0: argparse reads a
    leading '-' as an option flag."""
    token = _token(x)
    argv = ["eval", "gb", token, param_flag, param]
    p = from_b(float(param)) if param_flag == "--b" else from_b2(complex(param.replace("i", "j")))

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(out):
        code, text = out
        if code != 0:
            return False
        v = json.loads(text)["value"]
        ref = qd.gb(complex(token.replace("i", "j")), p).value
        return bool(_rel(complex(v["re"], v["im"]), ref) <= 1e-12)

    return Op(stratum, run, check)


def _cli_integral(rng):
    b = float(rng.uniform(0.6, 1.3))
    Q = b + 1 / b
    x = complex(rng.uniform(0.05, Q + 2.5), _off_axis(rng, 1, 0.1, 1.5)[0])
    return _cli_op("cli-integral", x, "--b", repr(b))


def _cli_product(rng):
    return _cli_op("cli-product", complex(rng.uniform(0.05, 3.0), rng.uniform(-1.0, 1.0)),
                   "--b2", _token(_generic_b2(rng)))


def _cli_limit(rng):
    """x = b u with Re u > |Im u|, so Re x > 0 at b = sqrt(i r)."""
    p = from_r(float(rng.choice(LIMIT_SCHEDULE)))
    x = complex(p.b * complex(rng.uniform(0.6, 3.0), rng.uniform(-0.5, 0.5)))
    return _cli_op("cli-limit", x, "--b2", _token(complex(p.b2)))


def gb_eval(rng, k) -> list[Op]:
    n_single = 0
    ops = []
    for key, make in (("qdilog.gb.integral", _cli_integral), ("qdilog.gb.product", _cli_product),
                      ("qdilog.gb.limit", _cli_limit)):
        n = _count("gb-eval", key)
        ops += [make(rng) for _ in range(n)]
        n_single += n
    n = _count("gb-eval", "qdilog.gb_many.integral")
    for size in _sizes("integral", n):  # real b, points inside and outside the base window
        b = float(rng.uniform(0.65, 1.25))
        Q = b + 1 / b
        m = max(1, size // 2)
        x = rng.uniform(-3.0, Q + 3.0, m) + 1j * _off_axis(rng, m, 0.15, 1.5)
        ops.append(_functional_b_op("real-b-batch", x, from_b(b)))
    # at least one batch per r of the limit schedule
    n = max(len(LIMIT_BATCH_R), _count("gb-eval", "qdilog.gb_many.limit"))
    for i, size in enumerate(_sizes("limit", n)):
        p = from_r(LIMIT_BATCH_R[i % len(LIMIT_BATCH_R)])
        x = p.b * _complex_box(rng, max(1, size // 2), (0.2, 3.0), (-0.5, 0.5))
        ops.append(_functional_b_op("limit-batch", x, p))
    for size in _sizes("product", _count("gb-eval", "qdilog.gb_many.product")):
        x = _complex_box(rng, max(1, size // 2), (-1.0, 3.0), (-1.0, 1.0))
        ops.append(_functional_b_op("complex-b2-batch", x, from_b2(_generic_b2(rng))))
    # one wide-box probe per single point: |Re x|, |Im x| <= 15 is the
    # domain ROADMAP item 4 declares for single-point evaluation
    for i in range(n_single):
        if i % 2:
            p = from_b(float(rng.uniform(0.6, 1.3)))
        else:
            p = from_b2(complex(rng.uniform(-0.5, 0.6), rng.uniform(0.1, 0.8)))
        ops.append(_functional_b_op("wide-single", _complex_box(rng, 1, (-15, 15), (-15, 15)), p, probe=True))
    return ops


# ---------------------------------------------------------------------------
# classical


def _classw_pair(rng):
    """Seeded separable class-W data f(t1, t2) = g1(t1) g2(t2), Gaussian widths
    and linear terms drawn per op."""
    a1, a2 = rng.uniform(0.8, 1.5, 2)
    c1, c2 = rng.uniform(-0.3, 0.3, 2)
    g1 = ClassWFunction.gaussian(a=a1, b=c1)
    g2 = ClassWFunction.gaussian(a=a2, b=c2)
    return lambda u, v: g1(u) * g2(v)


def _forward_op(rng):
    f = _classw_pair(rng)
    lam, t = float(rng.uniform(-0.4, 0.5)), float(rng.uniform(0.2, 1.2))

    def check(v):  # against the fixed-node transform
        ref = axb.intertwiner_forward_grid(f, [lam], t, level=2)[0]
        return bool(abs(v - ref) <= 1e-7 * max(1.0, abs(ref)))

    return Op("forward", lambda: axb.intertwiner_forward(f, lam, t), check)


def _grid_t(rng, nodes, probe):
    """t of a fixed-node grid op: one of the suites' Gauss-Legendre nodes
    (|t| >= 0.146), or for a probe |t| < 0.15, where the pole heads u = 0
    and u = t pinch the contour and the fixed nodes lose accuracy."""
    return float(rng.uniform(-0.15, 0.15) if probe else rng.choice(nodes))


def _forward_grid_op(rng, probe=False):
    """The suites' norm-preservation row: 48 Gauss-Legendre lam on [-5, 5]."""
    f = _classw_pair(rng)
    lams = 5.0 * GL48
    t = _grid_t(rng, lams, probe)

    def check(v):
        ref = axb.intertwiner_forward_grid(f, lams, t, level=3)
        return bool(np.max(np.abs(v - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref))))

    return Op("forward-grid-small-t" if probe else "forward-grid",
              lambda: axb.intertwiner_forward_grid(f, lams, t, level=2), check, probe)


def _classical_roundtrip_op(rng):
    """intertwiner_inverse over intertwiner_forward_grid, the path of
    ``qplane transform --which classical --direction roundtrip``."""
    f = _classw_pair(rng)
    t1, t2 = float(rng.uniform(0.3, 0.9)), float(rng.uniform(0.4, 1.0))

    def F_of(lam, t):
        lam = np.atleast_1d(np.asarray(lam, dtype=complex))
        return axb.intertwiner_forward_grid(f, lam, complex(np.asarray(t).ravel()[0]))

    return Op("roundtrip", lambda: axb.intertwiner_inverse(F_of, t1, t2, tol=1e-8),
              lambda v: bool(abs(v - f(t1, t2)) < 1e-3))


def _act_mellin_op(rng):
    """f = x e^{-x} has Mellin transform Gamma(1 + i z); the action of (a, v)
    in R+ is a Gamma(1 + i w) / (a + i v)^{1 + i w} in closed form."""
    a = float(rng.uniform(0.6, 1.8))
    v = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.0))
    w = float(rng.uniform(-0.5, 0.5))
    g = axb.GroupElement(a, v)
    F = lambda z: gammafn.gamma(1 + 1j * np.asarray(z, dtype=complex))
    closed = a * gammafn.gamma(1 + 1j * w) / (a + 1j * v) ** (1 + 1j * w)
    return Op("act-mellin", lambda: axb.act_mellin(g, axb.R_PLUS, F, w),
              lambda r: bool(_rel(r, closed) < 1e-6))


def _mellin_op(rng):
    """Log-Gaussian f(x) = exp(-(log x - m)^2): M f(i t) = e^{i t m} sqrt(pi) e^{-t^2/4}."""
    m = float(rng.uniform(-0.5, 0.5))
    t = rng.uniform(-3.0, 3.0, 64)
    f = lambda x: np.exp(-(np.log(x) - m) ** 2)
    closed = np.exp(1j * t * m) * np.sqrt(np.pi) * np.exp(-t**2 / 4)
    return Op("mellin", lambda: classw.mellin_forward(f, 1j * t),
              lambda v: bool(np.max(np.abs(v - closed)) < 1e-8))


def _hyp2f1_op(rng):
    a, b = rng.uniform(0.3, 2.0, 2)
    c = a + b + rng.uniform(0.2, 1.0)
    # |arg(-z)| <= pi - 0.6 keeps the contour integrand decaying fast
    z = -rng.uniform(0.1, 0.6) * np.exp(1j * rng.uniform(-np.pi + 0.6, np.pi - 0.6))
    ref = gammafn.hyp2f1_series(a, b, c, z)
    return Op("hyp2f1", lambda: gammafn.hyp2f1_contour(a, b, c, z),
              lambda v: bool(abs(v - ref) <= 1e-8 * max(1.0, abs(ref))))


def _binomial_op(rng):
    x, y = (float(v) for v in rng.uniform(0.5, 2.0, 2))
    t = float(rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 2.0))
    return Op("binomial", lambda: gammafn.binomial_mellin_residual(x, y, t), lambda r: bool(r < 1e-6))


CLASSICAL = (
    ("axb.intertwiner_forward", _forward_op),
    ("axb.intertwiner_inverse", _classical_roundtrip_op),
    ("axb.intertwiner_forward_grid", _forward_grid_op),
    ("axb.act_mellin", _act_mellin_op),
    ("classw.mellin_forward", _mellin_op),
    ("gammafn.hyp2f1_contour", _hyp2f1_op),
    ("gammafn.binomial_mellin_residual", _binomial_op),
)


def classical(rng, k) -> list[Op]:
    ops = [make(rng) for key, make in CLASSICAL for _ in range(_count("classical", key))]
    return ops + [_forward_grid_op(rng, probe=True)]  # one small-t probe per pass


# ---------------------------------------------------------------------------
# quantum


def _qparam(rng):
    return from_b(float(rng.uniform(0.7, 0.9)))


def _apply_q_forward_op(rng):
    f, p = _classw_pair(rng), _qparam(rng)
    lam, t = float(rng.uniform(-0.6, 0.6)), float(rng.uniform(0.2, 1.4))

    def check(v):  # against the fixed-node transform
        ref = qtransform.q_forward_grid(f, [lam], t, p)[0]
        return bool(abs(v - ref) <= 1e-7 * max(1.0, abs(ref)))

    return Op("q-forward", lambda: qtransform.apply_q_forward(f, lam, t, p), check)


def _q_forward_grid_op(rng):
    """The suites' norm-preservation row: 48 Gauss-Legendre lam on [-4.5, 4.5]."""
    f, p = _classw_pair(rng), _qparam(rng)
    lams = 4.5 * GL48
    t = float(rng.choice(lams))  # see _grid_t

    def check(v):
        ref = qtransform.q_forward_grid(f, lams, t, p, level=2)
        return bool(np.max(np.abs(v - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref))))

    return Op("q-forward-grid", lambda: qtransform.q_forward_grid(f, lams, t, p), check)


def _q_roundtrip_op(rng):
    f, p = _classw_pair(rng), _qparam(rng)
    t1, t2 = float(rng.uniform(0.3, 0.9)), float(rng.uniform(0.4, 1.0))
    return Op("q-roundtrip", lambda: qtransform.q_roundtrip(f, t1, t2, p),
              lambda v: bool(abs(v - f(t1, t2)) < 1e-3))


def _tau_beta_op(rng):
    """Re beta > 0 and Re(alpha + beta) < Q, the integral's decay condition."""
    p = _qparam(rng)
    Q = p.Q.real
    alpha, beta = (float(v) for v in rng.uniform(Q / 6, Q / 3, 2))
    return Op("tau-beta", lambda: qd.tau_beta_residual(alpha, beta, p), lambda r: bool(r < 1e-6))


def _fourier_op(rng, which):
    p = _qparam(rng)
    r = float(rng.uniform(-0.2, 0.3))
    return Op("fourier-gb", lambda: qd.fourier_gb_residual(which, r, p), lambda res: bool(res < 1e-6))


def _qbinom_op(rng, probe=False):
    """The q-binomial suite's calls, n = 1..5, as one op at its b = 0.8.
    The probe variant draws b from [0.7, 0.95]: near b^2 = 4/5 the pole -5b
    nearly meets -4/b, which gb_residue_at_pole's lattice window (m <= 3)
    misses, and the residue circle encloses both poles."""
    p = from_b(float(rng.uniform(0.7, 0.95))) if probe else from_b(0.8)
    return Op("q-binomial-wide" if probe else "q-binomial",
              lambda: [qd.qbinom_residue_check(n, p) for n in QBINOM_N],
              lambda rs: bool(max(rs) < 1e-8), probe, len(QBINOM_N))


def _corep_op(rng):
    p = from_b(float(rng.uniform(0.7, 0.8)))
    while True:  # the corep suite's separation of the triple
        x, w, z = (float(v) for v in rng.uniform(-1, 1, 3))
        if min(abs(x - w), abs(w - z), abs(x - z)) >= 0.08:
            break
    return Op("corep-axiom", lambda: corep.corep_axiom_residual(x, w, z, p), lambda r: bool(r < 1e-8))


def _pairing_op(gen, rng):
    p = from_b(0.8)
    g = ClassWFunction.gaussian(a=float(rng.uniform(1.0, 2.0)), b=complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2)))
    x = float(rng.uniform(-0.6, 0.3))
    b = p.b.real
    target = np.exp(2 * np.pi * b * x) * g(x) if gen == "X" else g(x - 1j * b)
    return Op(f"pairing-{gen}", lambda: corep.pairing(gen, g, x, p),
              lambda v: bool(abs(v - target) / max(abs(target), 1.0) < 1e-6))


def _ladder_op(kind, rng):
    """One limit ladder over LIMIT_SCHEDULE: must decrease and end below the
    ``limits`` suite tolerance."""
    if kind in ("Glim", "GlimQ"):
        # the limits suite's points: 0.5 <= Re x <= 1.5, 0 <= Im x <= 0.3
        x = complex(rng.uniform(0.5, 1.5), rng.uniform(0.0, 0.3))
        fn = lambda r: qd.classical_limit_residual(kind, x, r)
        final_tol = 1e-2 if kind == "Glim" else 2e-2
    elif kind == "kernel":
        lam, t1, t2 = rng.uniform(0.3, 0.7), rng.uniform(0.8, 1.2), rng.uniform(1.3, 1.7)
        fn = lambda r: qtransform.kernel_limit_residual(lam, t1, t2, r)
        final_tol = 1e-2
    else:
        x = float(rng.uniform(-0.3, 0.3))
        z = x + float(rng.uniform(0.4, 0.7))
        fn = lambda r: corep.coaction_limit_residual(x, z, r)
        final_tol = 1e-2

    def check(vals):
        return bool(decreasing_with_floor(vals) and vals[-1] < final_tol)

    return Op(f"ladder-{kind}", lambda: [fn(r) for r in LIMIT_SCHEDULE], check, calls=len(LIMIT_SCHEDULE))


QUANTUM = (
    ("qtransform.apply_q_forward", 1, _apply_q_forward_op),
    ("qtransform.q_forward_grid", 1, _q_forward_grid_op),
    ("qtransform.q_roundtrip", 1, _q_roundtrip_op),
    ("qdilog.tau_beta_residual", 1, _tau_beta_op),
    ("qdilog.qbinom_residue_check", len(QBINOM_N), _qbinom_op),
    ("corep.corep_axiom_residual", 1, _corep_op),
    ("corep.pairing.X", 1, lambda rng: _pairing_op("X", rng)),
    ("corep.pairing.Y", 1, lambda rng: _pairing_op("Y", rng)),
    ("qdilog.classical_limit_residual.Glim", len(LIMIT_SCHEDULE), lambda rng: _ladder_op("Glim", rng)),
    ("qdilog.classical_limit_residual.GlimQ", len(LIMIT_SCHEDULE), lambda rng: _ladder_op("GlimQ", rng)),
    ("qtransform.kernel_limit_residual", len(LIMIT_SCHEDULE), lambda rng: _ladder_op("kernel", rng)),
    ("corep.coaction_limit_residual", len(LIMIT_SCHEDULE), lambda rng: _ladder_op("coaction", rng)),
)


def quantum(rng, k) -> list[Op]:
    ops = [make(rng) for key, per_op, make in QUANTUM
           for _ in range(_count("quantum", key, per_op))]
    # pass k takes Fourier formula k mod 4 + 1, so the passes take the
    # suite's four formulas in turn and every run weighs them alike (their
    # costs differ by a quarter)
    ops += [_fourier_op(rng, k % 4 + 1) for _ in range(_count("quantum", "qdilog.fourier_gb_residual"))]
    # one wide-b probe per q-binomial op
    return ops + [_qbinom_op(rng, probe=True)
                  for _ in range(_count("quantum", "qdilog.qbinom_residue_check", len(QBINOM_N)))]


# ---------------------------------------------------------------------------


def _warm_gb_eval():
    qd.gb_many(np.array([0.3 + 0.2j]), from_b(0.8))
    qd.gb_many(np.array([0.3 + 0.2j]), from_b2(0.3 + 0.4j))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["eval", "gb", "0.5", "--b", "0.8"])


def _warm_classical():
    f = lambda u, v: np.exp(-u**2 - v**2)
    axb.intertwiner_forward(f, 0.1, 0.5)
    axb.intertwiner_forward_grid(f, [0.1], 0.5)
    classw.mellin_forward(lambda x: np.exp(-np.log(x) ** 2), 0.5j)


def _warm_quantum():
    p = from_b(0.8)
    qd.gb_many(np.array([0.3 + 0.2j]), p)
    qd.gb_residue_at_pole(0, p)
    qd.fourier_gb_residual(1, 0.0, p)


WORKLOADS = {
    "gb-eval": (gb_eval, _warm_gb_eval),
    "classical": (classical, _warm_classical),
    "quantum": (quantum, _warm_quantum),
}


def build(name: str, seed: int, k: int) -> list[Op]:
    """Op list of pass k of workload ``name`` at ``seed``, in a seeded random
    order: the client's requests interleave, and each stratum's ops spread
    over the whole pass instead of sharing one stretch of the machine's
    drifting speed."""
    rng = np.random.default_rng([seed, k])
    ops = WORKLOADS[name][0](rng, k)
    return [ops[i] for i in rng.permutation(len(ops))]


def warm_up(name: str) -> None:
    """Lazy set-up a user pays once per process: the first small call of each
    kind the workload makes, on fixed inputs."""
    WORKLOADS[name][1]()
