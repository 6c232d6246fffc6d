"""Self-tests of the benchmark: self-time arithmetic, tracer coverage, and
agreement between BENCHMARK.json and the metrics the benchmark prints.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer as tr  # noqa: E402


def _span(name, parent, t0, t1, work=0):
    return [name, parent, 0, t0, t1, work, 0]


def test_self_time_subtracts_union_of_children():
    spans = [
        _span("a", -1, 0.0, 10.0),
        _span("b", 0, 1.0, 3.0),
        _span("b", 0, 2.0, 4.0),   # overlaps its sibling: covered once
        _span("c", 0, 6.0, 7.0),
        _span("d", 3, 6.2, 6.7),   # grandchild: only its own parent loses it
        _span("e", 0, 9.5, 11.0),  # sticks out of the parent: clipped
    ]
    assert tr.self_times(spans) == pytest.approx([10 - 3 - 1 - 0.5, 2, 2, 0.5, 0.5, 1.5])


def test_total_time_counts_outermost_span_of_a_name_once():
    spans = [
        _span("a", -1, 0.0, 4.0),
        _span("a", 0, 1.0, 2.0),   # recursion: inside another "a"
        _span("b", 1, 1.2, 1.5),
        _span("a", -1, 5.0, 6.0),
    ]
    stats = tr.aggregate(spans)
    assert stats["a"]["calls"] == 3
    assert stats["a"]["total_s"] == pytest.approx(5.0)
    assert stats["a"]["self_s"] == pytest.approx(3.0 + 0.7 + 1.0)
    assert stats["b"]["total_s"] == pytest.approx(0.3)


def test_integrate_contour_counted_through_qdilog_and_axb_bindings():
    from qplane import axb, contours
    from qplane import qdilog as qd
    from qplane.modular import from_b

    originals = (contours.integrate_contour, qd.integrate_contour, axb.integrate_contour)
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert qd.integrate_contour is not originals[1]
        assert axb.integrate_contour is not originals[2]
        axb.intertwiner_forward(lambda u, v: np.exp(-u**2 - v**2), 0.1, 0.5)
        qd.fourier_gb_residual(1, 0.0, from_b(0.8))
    finally:
        tracer.uninstall()
    assert (contours.integrate_contour, qd.integrate_contour, axb.integrate_contour) == originals

    spans = tracer.spans
    quads = [s for s in spans if s[0] == "contours.integrate_contour"]
    assert [spans[s[1]][0] for s in quads] == ["axb.intertwiner_forward", "qdilog.fourier_gb_residual"]
    for q in quads:
        sid = spans.index(q)
        kids = [s for s in spans if s[1] == sid]
        assert kids and all(k[0] == tr.INTEGRAND for k in kids)
        assert q[5] == sum(k[5] for k in kids) > 0  # nodes = integrand points
    stats = tr.aggregate(spans)
    assert stats["qdilog.gb_many.integral"]["work"] > 0
    assert stats["gammafn.gamma"]["calls"] > 0


def test_every_public_function_of_every_layer_is_wrapped():
    import importlib
    import inspect

    tracer = tr.Tracer()
    tracer.install()
    try:
        for layer in tr.LAYERS:
            mod = importlib.import_module(f"qplane.{layer}")
            for name, fn in vars(mod).items():
                home = getattr(fn, "__module__", "").rpartition(".")
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and home[0] == "qplane" and home[2] in tr.LAYERS):
                    assert hasattr(fn, "__wrapped__"), f"{layer}.{name} is not traced"
    finally:
        tracer.uninstall()


def test_benchmark_json_matches_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E_UNITS.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tr.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_layer_metrics_cover_the_spec():
    spans = [_span("qdilog.gb_many.integral", -1, 0.0, 2.0, work=10)]
    suite_s = {s: 1.0 for s in tr.VERIFY_SUITES}
    out = tr.layer_metrics(tr.aggregate(spans), suite_s, 0.5)
    assert list(out) == [name for name, _, _ in tr.LAYER_METRICS]
    assert out["qdilog.gb_many.integral.points_per_s"] == pytest.approx(5.0)
    assert out["qdilog.gb_many.product.calls"] == 0
    assert out["trace.overhead_s"] == 0.5


def test_checks_are_neither_timed_nor_traced():
    from qplane import qdilog as qd
    from qplane.modular import from_b

    import workloads

    p = from_b(0.8)
    op = workloads.Op("s", lambda: 1.0, lambda v: qd.gb(0.3 + 0.2j, p).value != 0)
    tracer = tr.Tracer()
    tracer.install()
    try:
        res = run.run_pass([op], tracer)
    finally:
        tracer.uninstall()
    assert res.failed == 0 and res.attempted == 1
    assert tracer.spans == []
    assert res.wall_s == res.latencies[0]


def test_op_mix_follows_the_verify_call_counts():
    import collections

    import workloads

    ops = workloads.build("classical", 1, 0)
    strata = collections.Counter(op.stratum for op in ops)
    d = workloads.DIVISOR["classical"]
    assert strata["forward"] == round(workloads.VERIFY_CALLS["axb.intertwiner_forward"] / d)
    assert all(strata[s] == 1 for s in ("roundtrip", "forward-grid", "act-mellin", "mellin",
                                        "hyp2f1", "binomial"))
    # six sizes, four requests each: midpoints of equal shares
    assert workloads._sizes("limit", 6) == [288, 576, 1152, 2304, 4608, 9216]
    assert workloads._sizes("limit", 3) == [576, 2304, 9216]
    assert workloads._sizes("limit", 1) == [2304]
