"""Bit-identity guard of the adaptive contour quadrature and its panel table.

``data/adaptive_pins.json`` holds, as float.hex, the quadrature result
(value, err_estimate, n_evals) of one call of each adaptive contour user and
the level-0 panel table (a, b, arc, mid, half) of six contours.  They were
recorded before the panel-table build and the Kronrod round were rewritten
for speed, and a change that moves any of them must re-record them and list
old -> new.  ``GRID_PINS`` in test_contours.py guard the fixed-node grids.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from qplane import axb, contours, gammafn, qtransform
from qplane.contours import Contour, Detour, auto_detours
from qplane.gammafn import gamma
from qplane.modular import from_b

PINS = json.loads((Path(__file__).parent / "data" / "adaptive_pins.json").read_text())

f = lambda t1, t2: np.exp(-(t1**2 + t2**2) / 2) * (1 + 0.3 * t1)
F = lambda lam, t: np.exp(-lam**2) * (1 + 0 * t)
G = lambda z: gamma(1 + 1j * np.asarray(z, dtype=complex))
CALLS = {
    "GAMMA.forward t=0.2": lambda: axb.GAMMA.forward(f, 0.4, 0.2, 1e-9),
    "GAMMA.forward t=0.7": lambda: axb.GAMMA.forward(f, 0.4, 0.7, 1e-9),
    "GAMMA.forward t=2.5": lambda: axb.GAMMA.forward(f, 0.4, 2.5, 1e-9),
    # the line clears both heads, -0.35 - 0.1i and 0.35 + 0.1i, without a detour
    "GAMMA.forward t=0.7+0.2j": lambda: axb.GAMMA.forward(f, 0.4, 0.7 + 0.2j, 1e-9),
    "GAMMA.inverse": lambda: axb.GAMMA.inverse(F, 0.3, 0.5, 1e-9),
    "act_mellin imag_shift=0.3": lambda: axb.act_mellin(axb.GroupElement(1.5, 0.7), axb.R_PLUS, G, 0.3,
                                                        imag_shift=0.3),
    "hyp2f1_contour": lambda: gammafn.hyp2f1_contour(0.5, 1.3, 2.1, -0.4),
    "binomial_mellin_residual": lambda: gammafn.binomial_mellin_residual(1, 2, 0.3),
    "apply_q_forward": lambda: qtransform.apply_q_forward(f, 0.4, 0.7, from_b(0.8)),
    # two rounds: 19 level-0 panels, 4 of them bisected
    "integrate_contour refined": lambda: contours.integrate_contour(
        lambda z: np.exp(-z * z) / (z * (z - 1.0 - 0.3j)),
        Contour(0.0, (Detour(0j, "below", 0.1), Detour(1.0 + 0.3j, "above", 0.2)), 6.0), tol=1e-12),
}
CONTOURS = {
    "separating t=0.7": lambda: axb.GAMMA.contour(0.7),
    "separating t=0.7+0.2j": lambda: axb.GAMMA.contour(0.7 + 0.2j),
    # the three contours of test_contour_nodes_match_a_per_piece_build
    "two-detours": lambda: Contour(0.0, (Detour(0j, "below", 0.1), Detour(1.0 + 0.3j, "above", 0.2)), 6.0),
    "off-line-detours": lambda: Contour(0.2, (Detour(0.5 - 0.4j, "above", 0.15),
                                              Detour(-1.0 + 0.2j, "below", 0.1)), 5.0),
    "sloped": lambda: Contour(0.1, (Detour(1.0 + 0.4j, "below", 0.2),), 4.0, slope=0.3),
    "cleared-cuts": lambda: auto_detours([(0j, "above"), (1.0 + 0.2j, "below"), (-2.0 - 0.8j, "above")], 8.0),
}


@pytest.mark.parametrize("name", CALLS)
def test_adaptive_results_are_pinned(name, monkeypatch):
    seen = []
    quad = contours.integrate_contour

    def recorded(*args, **kwargs):
        seen.append(quad(*args, **kwargs))
        return seen[-1]

    for module in (contours, axb, gammafn):
        monkeypatch.setattr(module, "integrate_contour", recorded)
    CALLS[name]()
    (res,) = seen
    re, im, err, n_evals = PINS["results"][name]
    assert res.value == complex(float.fromhex(re), float.fromhex(im))
    assert res.err_estimate == float.fromhex(err)
    assert res.n_evals == n_evals


@pytest.mark.parametrize("name", CONTOURS)
def test_level0_panel_tables_are_pinned(name):
    a, b, arc, mid, half = contours._base_panels(contours._pieces(CONTOURS[name]()))
    pin = PINS["panel_tables"][name]
    cx = lambda pairs: np.array([complex(float.fromhex(x), float.fromhex(y)) for x, y in pairs])
    fl = lambda hexes: np.array([float.fromhex(h) for h in hexes])
    assert np.array_equal(a, cx(pin["a"])) and np.array_equal(b, cx(pin["b"]))
    assert arc.tolist() == pin["arc"]
    assert np.array_equal(mid, fl(pin["mid"])) and np.array_equal(half, fl(pin["half"]))
