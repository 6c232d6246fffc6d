#!/usr/bin/env python3
"""Recompute the frozen G_b fixtures of tests/test_qdilog.py with mpmath.

Usage: python scripts/make_fixtures.py   (prints the FIXTURE_DIGITS entries)

Each value is a dps-35 quadrature of the integral representation

    I(z) = int_0^inf [sin(2yz)/(2y sinh(by) sinh(y/b)) - z/sinh^2 y] dy - z,

independent of the library's double-precision trapezoid rule.  The bracket
cancels like 1/y^2 near y = 0, so it is evaluated at twice the working
precision and replaced by its limit z(1/3 - k2 - 2z^2/3), k2 = (b^2+b^-2)/6,
below y = 1e-10.  G_b(w) follows from G(z) = exp(i I(z)) at z = i(w - Q/2)
after shifting w into the base window 1/(2b) <= Re w < 1/(2b) + b with
G_b(w + b) = (1 - e^{2 pi i b w}) G_b(w).  Arguments and b are exact decimals.
"""

import mpmath as mp

DPS = 35
DIGITS = 25


def line_integral(z, b):
    """I(z) at the current working precision; |Im z| < Q/2."""
    z, b = mp.mpmathify(z), mp.mpf(b)
    k2 = (b**2 + b**-2) / 6
    head = z * (mp.mpf(1) / 3 - k2 - 2 * z**2 / 3)

    def bracket(y):
        if y < mp.mpf("1e-10"):
            return head
        with mp.workdps(2 * mp.mp.dps + 20):
            v = mp.sin(2 * y * z) / (2 * y * mp.sinh(b * y) * mp.sinh(y / b)) - z / mp.sinh(y) ** 2
        return +v

    return mp.quad(bracket, [0, 1, 4, 16, 64, mp.inf]) - z


def ruijsenaars_g(z, b):
    return mp.exp(1j * line_integral(z, b))


def gb(w, b):
    """G_b(w) for real b > 0, off the pole lattice."""
    w, b = mp.mpmathify(w), mp.mpf(b)
    Q = b + 1 / b
    k = int(mp.ceil((1 / (2 * b) - w.real) / b))
    factor = mp.mpf(1)
    for j in range(k):
        factor /= 1 - mp.exp(2j * mp.pi * b * (w + j * b))
    for j in range(1, 1 - k):
        factor *= 1 - mp.exp(2j * mp.pi * b * (w - j * b))
    z = 1j * (w + k * b - Q / 2)
    return mp.exp(-0.5j * mp.pi * z**2 - 1j * mp.pi * Q**2 / 8) * ruijsenaars_g(z, b) * factor


# name: (function, argument, b)
FIXTURES = {
    "GB_HALF_B07": (gb, "0.5", "0.7"),
    "GB_HALF_B08": (gb, "0.5", "0.8"),
    "GB_COMPLEX_B08": (gb, "0.3+0.2j", "0.8"),
    "G_RUI_B08": (ruijsenaars_g, "0.25", "0.8"),
}


def fixture(name):
    """The named fixture at DPS digits."""
    func, arg, b = FIXTURES[name]
    with mp.workdps(DPS):
        return +func(mp.mpmathify(arg), mp.mpf(b))


def main():
    for name in FIXTURES:
        v = fixture(name)
        print(f'    "{name}": ("{mp.nstr(v.real, DIGITS)}", "{mp.nstr(v.imag, DIGITS)}"),')


if __name__ == "__main__":
    main()
