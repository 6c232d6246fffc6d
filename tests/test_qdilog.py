import cmath

import numpy as np
import pytest

import qplane.qdilog as qd
from qplane.errors import DomainError, PoleError
from qplane.gammafn import gamma
from qplane.modular import from_b, from_b2, from_r

# frozen oracles: independent high-precision quadrature of the integral
# representation (dps=35); scripts/make_fixtures.py recomputes them
FIXTURE_DIGITS = {
    "GB_HALF_B07": ("0.1873444335053693830977339", "-0.6238863136199672918223367"),
    "GB_HALF_B08": ("0.2372083709438624755946471", "-0.6429814245704509165111966"),
    "GB_COMPLEX_B08": ("0.4236070643113332438041264", "-0.9037068176506037737739207"),
    "G_RUI_B08": ("0.9617074738554430545545526", "-0.2740779719907864351937274"),
}
GB_HALF_B07, GB_HALF_B08, GB_COMPLEX_B08, G_RUI_B08 = (
    complex(float(re), float(im)) for re, im in FIXTURE_DIGITS.values())

P07 = from_b(0.7)
P08 = from_b(0.8)


def test_integral_backend_fixtures():
    assert abs(qd.gb(0.5, P07).value - GB_HALF_B07) < 1e-13
    assert abs(qd.gb(0.5, P08).value - GB_HALF_B08) < 1e-13
    assert abs(qd.gb(0.3 + 0.2j, P08).value - GB_COMPLEX_B08) < 1e-13
    assert abs(qd.ruijsenaars_g(0.25, P08).value - G_RUI_B08) < 1e-13


def test_gb_value_independent_of_batchmates():
    # integral backend: each point's y-grid converges past tol, so the step a
    # batch settles on moves a value only at rounding level; product backend:
    # each point sizes its own head, whatever |e^{2 pi i b x}| its batchmates have
    pl = from_b2(0.01j)
    x0 = pl.b * (1 + 0.2j)
    for xs, p in ((np.array([0.3 + 0.2j, 0.6 - 0.4j, P07.Q / 2]), P07),
                  (np.array([x0, x0 - 3j]), pl)):
        batched = qd.gb_many(xs, p)
        for x, v in zip(xs, batched):
            alone = qd.gb_many(np.array([x]), p)[0]
            assert abs(alone - v) / abs(alone) < 1e-13


@pytest.mark.parametrize("b", [0.7, 1.3])
def test_large_real_b_batch_matches_single_points(b):
    # 1,152 points, the suites' most common request: the batch sums its nodes
    # through the exponential table, a single point through every e^{2i y z}
    p = from_b(b)
    rng = np.random.default_rng(1152)
    re = rng.uniform(-3.0, p.Q.real + 3.0, 1152)
    x = re + 1j * rng.choice((-1.0, 1.0), 1152) * rng.uniform(0.15, 1.5, 1152)
    batched = qd.gb_many(x, p)
    alone = np.array([qd.gb(v, p).value for v in x])
    assert np.max(np.abs(batched - alone) / np.abs(alone)) < 1e-13


def test_gb_many_empty_batch():
    for p in (P07, from_b2(0.3 + 0.4j), from_r(0.01)):
        assert qd.gb_many(np.array([], dtype=complex), p).shape == (0,)


def test_ruijsenaars_base_values():
    assert abs(qd.ruijsenaars_g(0.0, P08).value - 1.0) < 1e-13
    # the defining integrand is odd in z, so G(-z) = 1/G(z)
    gp = qd.ruijsenaars_g(0.3, P08).value
    gm = qd.ruijsenaars_g(-0.3, P08).value
    assert abs(gm - 1.0 / gp) < 1e-10
    # halved-step self-check via the tolerance-driven error estimate
    assert qd.ruijsenaars_g(0.25, P08, tol=1e-11).err_estimate < 1e-11
    # at complex z, |G| = |e^{iI}| is not 1 (2.98 here): the estimate is the
    # error of I times |G|, an absolute error of G as every QDValue reports
    z = 0.5 + 0.7j
    g = qd.ruijsenaars_g(z, P08)
    _, err_I = qd._g_line_integral(np.array([z]), 0.8, 1e-10)
    assert abs(abs(g.value) - 2.98) < 0.01
    assert abs(g.err_estimate - err_I * abs(g.value)) <= 1e-15 * g.err_estimate
    # G_b(w) = e^{-i pi z^2/2} e^{-i pi Q^2/8} G(z) at w = Q/2 - i z
    ref = qd.gb(P08.Q / 2 - 1j * z, P08, 1e-13).value \
        * np.exp(0.5j * np.pi * z**2) * np.exp(1j * np.pi * P08.Q**2 / 8)
    assert abs(g.value - ref) <= g.err_estimate


def test_ruijsenaars_strip_guard():
    with pytest.raises(DomainError):
        qd.ruijsenaars_g(0.0 + 1.2j, P08)  # |Im z| too close to Q/2


def test_gb_midpoint_sign():
    # reflection fixes G_b(Q/2)^2; the integral backend resolves the sign:
    # G_b(Q/2) = e^{-i pi Q^2/8} exactly
    for p in (P07, P08):
        v = qd.gb(p.Q / 2, p).value
        assert abs(v - np.exp(-1j * np.pi * p.Q**2 / 8)) < 1e-11
        assert abs(v**2 - np.exp(-1j * np.pi * p.Q**2 / 4)) < 1e-11


def test_gb_residue_limit():
    for x in (1e-2, 5e-3, 2.5e-3):
        val = 2 * np.pi * x * qd.gb(x, P07).value
        assert abs(val - 1.0) < 0.05
    # Richardson extrapolation over the three x values reaches 1e-6
    f = {x: 2 * np.pi * x * qd.gb(x, P07).value for x in (1e-2, 5e-3, 2.5e-3)}
    r1a, r1b = 2 * f[5e-3] - f[1e-2], 2 * f[2.5e-3] - f[5e-3]
    assert abs((4 * r1b - r1a) / 3 - 1) < 1e-6
    # product regime residue dominance (b^2 = 0.5i, x = 0.01): ~2 percent
    p = from_b2(0.5j)
    v = qd.gb(0.01, p).value
    assert abs(v - 1.0 / (2 * np.pi * 0.01)) / (1.0 / (2 * np.pi * 0.01)) < 0.021


def test_product_backend_midpoint_modulus():
    # at complex b^2 the midpoint value is fixed by reflection alone:
    # G_b(Q/2)^2 = e^{-i pi Q^2/4}, so |G_b(Q/2)| = |e^{-i pi Q^2/8}|
    # (the unimodularity familiar from real b needs the conjugation identity)
    p = from_b2(0.3 + 0.4j)
    v = qd.gb(p.Q / 2, p).value
    assert abs(v**2 - np.exp(-1j * np.pi * p.Q**2 / 4)) < 1e-8
    assert abs(abs(v) - abs(np.exp(-1j * np.pi * p.Q**2 / 8))) < 1e-8
    # for real b the modulus is 1
    assert abs(abs(qd.gb(P08.Q / 2, P08).value) - 1.0) < 1e-10


def test_product_truncation_oracle():
    # doubled-precision truncation as oracle (tolerance drives the counts)
    p = from_b2(0.2 + 0.1j)
    coarse = qd.gb(0.4 + 0.3j, p, tol=1e-8).value
    fine = qd.gb(0.4 + 0.3j, p, tol=1e-15).value
    assert abs(coarse - fine) / abs(fine) < 1e-8


def test_product_pole_flag():
    p = from_b2(0.3 + 0.4j)
    with pytest.raises(PoleError):
        qd.gb(0.0, p)
    with pytest.raises(PoleError):
        qd.gb(-p.b, p)


def test_zero_lattice_values():
    # zeros at Q + n b + m/b come out exactly from both backends
    assert abs(qd.gb(P08.Q + P08.b, P08).value) < 1e-12
    pc = from_b2(0.3 + 0.4j)
    assert abs(qd.gb(pc.Q + pc.b, pc).value) < 1e-12
    with pytest.raises(PoleError):
        qd.gb(-P08.b, P08)  # pole lattice raises instead


def test_gb_underflow_is_a_domain_error():
    # off the zero lattice an exactly 0 value underflowed: its log value is
    # finite (-873.38+4.67i at this point of a 200-point rng(0) sweep of
    # [-15, 15]^2), where it came back as -0-0j with err_estimate 0
    x = -14.504 - 9.147j
    with np.errstate(all="ignore"):
        assert qd.gb_many(x, from_b2(0.3 + 0.4j))[0] == 0
        message = r"underflows to 0 at \(-14\.504-9\.147j\) \(log G_b = -873\.378\+4\.666"
        with pytest.raises(DomainError, match=message):
            qd.gb(x, from_b2(0.3 + 0.4j))
        # the integral backend, its continuation factors summed as logs
        assert qd.gb_many(x, from_b(1.0))[0] == 0
        message = r"underflows to 0 at \(-14\.504-9\.147j\) \(log G_b = -891\.05-263\.507"
        with pytest.raises(DomainError, match=message):
            qd.gb(x, from_b(1.0))
    # where the continuation product overflowed, G_b is a representable 1.9e-300
    x = -7.52924235 - 12.83591957j
    ln = -689.9035911406714 - 522.141659974532j
    g = qd.gb(x, P08)
    assert g.backend == "functional-continuation"
    assert abs(g.value - np.exp(ln)) <= 1e-12 * abs(np.exp(ln)) and abs(g.value) > 1.9e-300
    assert abs(qd._gb_eval(x, P08, 1e-10)[0][0] - ln) < 1e-12 * abs(ln)
    assert qd.gb_many(np.array([x, 0.5]), P08)[0] == g.value


def test_qdvalue_products_and_quotients():
    a = qd.QDValue(2 + 1j, "integral", 1e-10)
    b = qd.QDValue(0.5 - 1j, "functional-continuation", 3e-11)
    rel = lambda v: v.err_estimate / abs(v.value)
    # values formed as the plain numbers form them, relative estimates added
    for v, ref in ((a * b, (2 + 1j) * (0.5 - 1j)), (a / b, (2 + 1j) / (0.5 - 1j)),
                   (b / a, (0.5 - 1j) / (2 + 1j))):
        assert v.value == ref and v.backend == "functional-continuation"
        assert abs(rel(v) - rel(a) - rel(b)) < 1e-15 * rel(v)
    # exact numbers on either side, numpy scalars on the left too, keep the
    # relative estimate and the backend
    z = np.exp(0.3j)
    for v, ref in ((a * 3, (2 + 1j) * 3), (3 * a, 3 * (2 + 1j)), (2.5 / a, 2.5 / (2 + 1j)),
                   (a / 2.5, (2 + 1j) / 2.5), (z * a, z * (2 + 1j)), (z / a, z / (2 + 1j)),
                   (a * z, (2 + 1j) * z)):
        assert isinstance(v, qd.QDValue) and v.value == ref and v.backend == "integral"
        assert abs(rel(v) - rel(a)) < 1e-15 * rel(a)
    # a zero value: no division by its modulus
    zero = qd.QDValue(0j, "product", 1e-16)
    assert (zero * a).value == 0 and (zero * a).err_estimate == pytest.approx(1e-16 * abs(a.value))
    assert (zero / a).value == 0 and (zero / a).err_estimate == pytest.approx(1e-16 / abs(a.value))
    with pytest.raises(ZeroDivisionError):
        a / zero
    # backend precedence: continuation, integral, product, closed-form
    assert (zero * a).backend == "integral"
    assert (zero * qd.QDValue(1.0, "closed-form", 0.0)).backend == "product"
    assert (1j / qd.QDValue(2.0, "closed-form", 0.0)).backend == "closed-form"


def test_backend_agreement_epsilon_extrapolation():
    # integral backend vs Richardson-extrapolated product backend
    pint = P07
    for x in (0.3, 0.6, pint.Q.real / 2, 0.9 + 0.2j, 1.3):
        vals = {eps: qd.gb(x, from_b2(0.49 + 1j * eps), tol=1e-8).value
                for eps in (1e-2, 1e-3)}
        extrap = vals[1e-3] + (vals[1e-3] - vals[1e-2]) * 1e-3 / (1e-2 - 1e-3)
        assert abs(extrap - qd.gb(x, pint).value) < 1e-4


def test_identities_spot():
    assert qd.verify_identity("reflection", P07.Q / 2, P07) < 1e-12
    assert qd.verify_identity("functional_b", 0.3 + 0.2j, from_b(0.75)) < 1e-8
    assert qd.verify_identity("selfduality", 0.6, P07) < 1e-8
    p = from_b2(0.3 + 0.4j)
    for kind in ("functional_b", "functional_binv", "reflection", "conjugation"):
        assert qd.verify_identity(kind, 0.4 + 0.1j, p) < 1e-8
    # an array gives elementwise residuals that match the scalar calls to
    # rounding level (the integral backend sizes its y-grid per batch)
    xs = np.array([0.3 + 0.2j, 0.6 - 0.4j, P07.Q / 2])
    for kind, pp in (("reflection", P07), ("selfduality", P07),
                     ("functional_binv", p), ("conjugation", p)):
        vec = qd.verify_identity(kind, xs, pp)
        assert vec.shape == xs.shape
        assert np.allclose(vec, [qd.verify_identity(kind, x, pp) for x in xs], rtol=0, atol=1e-13)


def test_unimodularity_on_symmetric_line():
    ts = np.linspace(-2, 2, 7)
    vals = qd.gb_many(P08.Q / 2 + 1j * ts, P08)
    assert np.max(np.abs(np.abs(vals) - 1)) < 1e-8


def test_variants():
    # S_b reflection at the midpoint
    v = qd.sb(P08.Q / 2, P08).value
    assert abs(abs(v) - 1) < 1e-10 and abs(v * v - 1) < 1e-10
    # V_eta unimodularity at real argument and agreement with the integral form
    w = qd.veta(0.4, P08).value
    assert abs(w * np.conj(w) - 1) < 1e-8
    assert abs(qd.veta_integral(0.4, P08) - w) < 1e-7
    # g_b at x=1 reduces to zeta_bar / G_b(Q/2)
    assert abs(qd.gb_small(1.0, P08).value - P08.zeta_b_bar / qd.gb(P08.Q / 2, P08).value) < 1e-10
    with pytest.raises(DomainError):
        qd.gb_small(-1.0, P08)


def test_variant_estimates_are_gb_relative_estimates():
    # S_b's and V_eta's prefactors are not unimodular here: |e^{...}| at
    # b = 0.8, x = 2+0.8i and |zeta_b| = 1.37 at b^2 = 0.3+0.4i
    p = from_b2(0.3 + 0.4j)
    for v, g in ((qd.sb(2 + 0.8j, P08), qd.gb(2 + 0.8j, P08)),
                 (qd.veta(0.4, p), qd.gb(p.Q / 2 - 0.4j / (2 * np.pi * p.b), p))):
        rel_v, rel_g = v.err_estimate / abs(v.value), g.err_estimate / abs(g.value)
        assert rel_g > 0 and abs(rel_v - rel_g) < 1e-12 * rel_g


def test_residue_checks():
    assert qd.residue_check(0, 0, P08) < 1e-6
    pc = from_b2(0.3 + 0.3j)
    assert qd.residue_check(1, 0, pc) < 1e-6
    assert qd.residue_check(0, 1, pc) < 1e-6


def test_tau_beta():
    Q = P08.Q.real
    assert qd.tau_beta_residual(Q / 4, Q / 4, P08) < 1e-6
    assert qd.tau_beta_residual(Q / 3, Q / 6, P08) < 1e-6
    pc = from_b2(0.1 + 0.4j)
    assert qd.tau_beta_residual(pc.Q / 4 + 0.1j, pc.Q / 4, pc) < 1e-6


def test_tau_beta_decay_guard():
    with pytest.raises(DomainError):
        qd.tau_beta_residual(P08.Q.real, P08.Q.real, P08)  # Re(a+b) beyond Q


def test_fourier_formulas():
    assert qd.fourier_gb_residual(1, 0.0, P08) < 1e-6
    assert qd.fourier_gb_residual(2, 0.3, P08) < 1e-6
    assert qd.fourier_gb_residual(3, -0.2, from_b(0.75)) < 1e-6
    assert qd.fourier_gb_residual(4, 0.3, P08) < 1e-6


def test_qbinomial_coeffs_symbolic():
    q = P08.q
    c2 = qd.qbinomial_coeffs(2, q)
    assert abs(c2[0] - 1) < 1e-14 and abs(c2[2] - 1) < 1e-14
    assert abs(c2[1] - (1 + q**-2)) < 1e-14
    c3 = qd.qbinomial_coeffs(3, q)
    assert abs(c3[1] - (1 + q**-2 + q**-4)) < 1e-14


def test_qbinomial_residue_content():
    # b = 0.9 puts -5b and -4/b within 0.06 of each other
    for p in (P08, from_b(0.9)):
        for n in range(1, 6):
            assert qd.qbinom_residue_check(n, p) < 1e-8


def test_fb_reduction_to_tau_beta():
    Q = P08.Q.real
    F = qd.fb_hypergeometric(Q / 4, Q / 3, Q / 4, -0.5, P08)
    beff = Q / 2 - 1j * np.log(complex(0.5)) / (2 * np.pi * P08.b)
    closed = qd.gb(beff, P08).value / qd.gb(Q / 3 + beff, P08).value
    assert abs(F - closed) / abs(closed) < 1e-6


def test_fb_decay_guard():
    with pytest.raises(DomainError):
        qd.fb_hypergeometric(P08.Q.real, P08.Q.real, 0.1, -0.5, P08)


def test_eta_functional_equation():
    for r in (0.37, 0.8):
        assert qd.classical_limit_residual("eta", 0.0, r) < 1e-10


def test_glim_spots():
    res = [qd.classical_limit_residual("Glim", 1.0, r) for r in (0.1, 0.05, 0.025)]
    # at x = 1 the ratio is exactly Gamma(1) for every r (G_b(b) = -i b)
    assert max(res) < 1e-9
    res05 = [qd.classical_limit_residual("Glim", 0.5, r) for r in (0.1, 0.05, 0.025)]
    assert res05[0] > res05[1] > res05[2]
    assert qd.classical_limit_residual("Glim", 0.5, 1e-3) < 1e-2


def test_asymptotics():
    for p in (P08, from_b2(0.3 + 0.4j)):
        assert abs(qd.gb(p.Q / 2 + 8j, p).value - p.zeta_b_bar) < 1e-6
        x = p.Q / 2 - 8j
        tgt = p.zeta_b * np.exp(1j * np.pi * x * (x - p.Q))
        assert abs(qd.gb(x, p).value - tgt) / abs(tgt) < 1e-6


@pytest.mark.parametrize("r", [3e-4, 1e-4, 1e-5])
def test_gb_below_the_zeta_underflow(r):
    # below r ~ 3.5e-4 zeta_b_bar alone underflows to 0; folded into the
    # exponent, the limit residual (2 pi b) G_b(b x)/(2 pi r)^x - Gamma(x)
    # is the first-order term (pi r/2) |x (x-1) Gamma(x)| to 3 digits
    p = from_r(r)
    for x in (0.5, 1.5, 1 + 0.3j):
        g = qd.gb(p.b * x, p, 1e-13)
        assert np.isfinite(g.err_estimate) and g.err_estimate < 1e-10 * abs(g.value)
        residual = abs(2 * np.pi * p.b * g.value / (2 * np.pi * r) ** x - gamma(x))
        first_order = np.pi * r / 2 * abs(x * (x - 1) * gamma(x))
        assert abs(residual - first_order) < 1e-3 * first_order


def test_gb_non_finite_value_is_a_domain_error():
    # one of the points of a 200-point rng(0) sweep of [-15, 15]^2 where G_b
    # at b = 1 overflows; it came back as NaN without a signal
    x = 10.72212829762708 - 13.11313504635086j
    message = r"not finite at .* \(log G_b = 801\.028-527\.844"
    with np.errstate(all="ignore"), pytest.raises(DomainError, match=message):
        qd.gb(x, from_b(1.0))


# a 200-point rng(0) sweep of [-15, 15]^2, where G_b spans e^{-891} to e^{801}
_SWEEP_RNG = np.random.default_rng(0)
SWEEP = _SWEEP_RNG.uniform(-15, 15, 200) + 1j * _SWEEP_RNG.uniform(-15, 15, 200)


@pytest.mark.parametrize("p", [from_b(1.0), from_b(0.3), from_b2(0.3 + 0.4j)],
                         ids=["b=1", "b=0.3", "b2=0.3+0.4i"])
def test_wide_box_gb_and_identities(p):
    # each point's G_b is a finite nonzero value, or a DomainError that says why:
    # an underflow exactly where Re log G_b < -745, an overflow where it is > 709
    ln = qd._gb_eval(SWEEP, p, 1e-10)[0]
    assert np.isfinite(ln).all()
    kinds = []
    with np.errstate(all="ignore"):
        for x, lx in zip(SWEEP, ln):
            try:
                v = qd.gb(x, p).value
            except DomainError as exc:
                kinds.append("under" if "underflows" in str(exc) else "over")
                assert ("not finite" in str(exc)) == (kinds[-1] == "over")
            else:
                kinds.append("value")
                assert cmath.isfinite(v) and v != 0
        assert kinds == ["under" if lx.real < -745 else "over" if lx.real > 709 else "value"
                         for lx in ln]
        assert kinds.count("under") and kinds.count("over")
        # the identities in log form are finite wherever the logs are
        for kind in ("functional_b", "reflection"):
            assert np.isfinite(qd.verify_identity(kind, SWEEP, p)).all()


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_gb_many_rejects_bad_tol(tol):
    for p in (P08, from_b2(0.3 + 0.4j)):
        with pytest.raises(DomainError, match="tol"):
            qd.gb_many(np.array([0.5, 0.7]), p, tol)


_NON_FINITE_CHILD = """
import sys
import numpy as np
import qplane.qdilog as qd
from qplane.errors import DomainError
from qplane.modular import from_b, from_b2
x = complex(sys.argv[1])
for p in (from_b(0.8), from_b2(0.3 + 0.4j)):
    for call in (lambda: qd.gb_many(np.array([0.5, x, x]), p), lambda: qd.gb(x, p)):
        try:
            call()
        except DomainError as e:
            assert "index" in str(e), e
        else:
            raise SystemExit("no DomainError")
"""


@pytest.mark.parametrize("x", ["nan", "nan+0.1j", "inf+0.1j", "-inf+0.1j", "0.3+infj"])
def test_gb_rejects_non_finite_arguments(x):
    # in a child process with a timeout: a NaN real part once sent the
    # continuation's shift loop through ~9e18 iterations
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-c", _NON_FINITE_CHILD, x],
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr + proc.stdout


def test_gb_many_names_the_first_non_finite_index():
    with pytest.raises(DomainError, match="index 2"):
        qd.gb_many(np.array([0.5, 0.6, np.nan, np.inf]), P08)


@pytest.mark.parametrize("make, b", [(from_b, float("nan")), (from_b, float("inf")),
                                     (from_b2, complex(0.3, float("nan")))])
def test_non_finite_parameter_is_a_domain_error(make, b):
    # a NaN b passed the regime checks and then hung gb like a NaN argument
    with pytest.raises(DomainError, match="b must be finite"):
        make(b)
