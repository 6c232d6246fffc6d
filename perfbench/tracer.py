"""Span tracer for qplane, installed from outside the package.

Every public function of the traced layers is replaced by a wrapper at
*every* module binding that refers to it, because ``from .contours import
integrate_contour`` and ``from .qdilog import gb, gb_many`` leave copies of
the function object in other modules' namespaces.  The integrand handed to
``integrate_contour`` or ``residue_at`` is wrapped as a child span too, so
quadrature self time stays apart from the caller's arithmetic.

Spans are kept in memory as rows ``[name, parent, op, t0, t1, work, fail]``
(the row index is the span id) and written out when the run ends.  Self time
is a span's duration minus the time its child spans cover.

``modular`` is left unwrapped: it only builds O(1) parameter objects, and
that cost belongs in its callers' self time.  ``verify`` is timed per suite
by the benchmark around ``run_suite`` calls, not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("contours", "classw", "gammafn", "qdilog", "axb", "qtransform", "corep", "cli")
INTEGRAND = "contours.integrand"
VERIFY_SUITES = ("gb-identities", "tau-beta", "q-binomial", "fourier-gb", "corep")
REGIMES = ("integral", "product", "limit")


def _size(x) -> int:
    return int(np.size(x))


def gb_regime(p) -> str:
    """'integral' (real b), 'limit' (b^2 = i r) or 'product' (other complex b^2)."""
    if p.regime == "integral":
        return "integral"
    b2 = complex(p.b2)
    return "limit" if abs(b2.real) <= 1e-12 * abs(b2) else "product"


def arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _gb_bad_points(values) -> int:
    v = np.asarray(values)
    return int(np.count_nonzero(~np.isfinite(v) | (v == 0)))


# Work read from a wrapped function's arguments: (position, keyword) of the
# array whose size is counted.  Unlisted functions record calls and time only.
_POINTS_ARG = {
    "gammafn.gamma": (0, "z"),
    "classw.mellin_forward": (1, "s"),
    "classw.ClassWFunction.call": (1, "z"),
}
_OUTPUTS_ARG = {
    "axb.intertwiner_forward_grid": (1, "lams"),
    "qtransform.q_forward_grid": (1, "lams"),
}
_QUADRATURE = ("contours.integrate_contour", "contours.residue_at")


class Tracer:
    """Installs span wrappers on the qplane modules and records spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.paused = False  # while True, wrapped calls record nothing
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str, work: int = 0) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.op, time.perf_counter(), 0.0, work, 0])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, fail: int = 0) -> None:
        self.spans[sid][4] = time.perf_counter()
        self.spans[sid][6] += fail
        self._stack.pop()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            span_name, work = name, 0
            if name == "qdilog.gb_many":
                span_name = f"{name}.{gb_regime(arg(args, kwargs, 1, 'p'))}"
                work = _size(arg(args, kwargs, 0, "x"))
            elif name in _POINTS_ARG:
                work = _size(arg(args, kwargs, *_POINTS_ARG[name]))
            elif name in _OUTPUTS_ARG:
                work = _size(arg(args, kwargs, *_OUTPUTS_ARG[name]))
            sid = tracer._open(span_name, work)
            if name in _QUADRATURE:
                args = (tracer._wrap_integrand(arg(args, kwargs, 0, "f"), sid),) + args[1:]
                kwargs.pop("f", None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(sid, fail=1)
                raise
            fail = 0
            if name == "qdilog.gb_many":
                fail = int(_gb_bad_points(result) > 0)
            elif name == "contours.contour_nodes":
                tracer.spans[sid][5] = _size(result[0])
            tracer._close(sid, fail)
            return result

        return wrapper

    def _wrap_integrand(self, f, owner: int):
        tracer = self

        def integrand(z):
            tracer.spans[owner][5] += _size(z)
            sid = tracer._open(INTEGRAND, _size(z))
            try:
                return f(z)
            finally:
                tracer._close(sid)

        return integrand

    # -- install / uninstall ---------------------------------------------

    def install(self, package: str = "qplane") -> None:
        """Wrap every public function of the traced layers at all its bindings."""
        modules = [importlib.import_module(f"{package}.{m}") for m in LAYERS]
        loaded = [m for k, m in sorted(sys.modules.items())
                  if m is not None and (k == package or k.startswith(package + "."))]
        targets: dict[int, str] = {}
        originals: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, val in vars(mod).items():
                if (inspect.isfunction(val) and not attr.startswith("_")
                        and val.__module__ == mod.__name__):
                    targets[id(val)] = f"{short}.{attr}"
                    originals[id(val)] = val
        wrappers = {k: self._wrap(targets[k], originals[k]) for k in targets}
        for mod in loaded:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and val is originals[id(val)]:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])
        classw = importlib.import_module(f"{package}.classw")
        call = classw.ClassWFunction.__call__
        self._patches.append((classw.ClassWFunction, "__call__", call))
        classw.ClassWFunction.__call__ = self._wrap("classw.ClassWFunction.call", call)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as tab-separated rows (times relative to the first span)."""
        base = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\twork\tfail\n")
            for sid, (name, parent, op, t0, t1, work, fail) in enumerate(self.spans):
                fh.write(f"{sid}\t{parent}\t{op}\t{name}\t{t0 - base:.9f}\t"
                         f"{t1 - base:.9f}\t{work}\t{fail}\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of the intervals its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, parent, op, t0, t1, work, fail in spans:
        if parent >= 0:
            children[parent].append((t0, t1))
    out = []
    for sid, (name, parent, op, t0, t1, work, fail) in enumerate(spans):
        covered, end = 0.0, -np.inf
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, t0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out.append((t1 - t0) - covered)
    return out


def _no_calls() -> dict[str, float]:
    return {"calls": 0, "work": 0, "fail": 0, "self_s": 0.0, "total_s": 0.0}


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, work, fail, self_s, and total_s over outermost spans
    (a span nested inside a span of the same name adds nothing to total_s)."""
    stats: dict[str, dict[str, float]] = defaultdict(_no_calls)
    selfs = self_times(spans)
    for sid, (name, parent, op, t0, t1, work, fail) in enumerate(spans):
        s = stats[name]
        s["calls"] += 1
        s["work"] += work
        s["fail"] += fail
        s["self_s"] += selfs[sid]
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][1]
        if anc < 0:
            s["total_s"] += t1 - t0
    return stats


def _layer_spec() -> list[tuple[str, str, str]]:
    """(metric name, unit, better) for every per-layer metric, in report order."""
    spec = []

    def add(prefix, stats):
        for stat in stats:
            unit = "1/s" if stat == "points_per_s" else "s" if stat.endswith("_s") else "count"
            spec.append((f"{prefix}.{stat}", unit, "higher" if stat == "points_per_s" else "lower"))

    for regime in REGIMES:
        add(f"qdilog.gb_many.{regime}", ("calls", "points", "self_s", "points_per_s"))
    add("qdilog.gb_many", ("fail",))
    add("qdilog.gb", ("calls", "self_s"))
    for fn in ("tau_beta_residual", "fourier_gb_residual", "qbinom_residue_check",
               "classical_limit_residual"):
        add(f"qdilog.{fn}", ("calls", "total_s"))
    add("cli.main", ("calls", "self_s"))
    add("contours.integrate_contour", ("calls", "nodes", "self_s", "fail"))
    add("contours.contour_nodes", ("calls", "nodes", "self_s"))
    add("contours.residue_at", ("calls", "nodes", "self_s", "fail"))
    add(INTEGRAND, ("calls", "self_s"))
    add("gammafn.gamma", ("calls", "points", "self_s", "points_per_s"))
    for fn in ("hyp2f1_contour", "binomial_mellin_residual"):
        add(f"gammafn.{fn}", ("calls", "total_s"))
    for fn in ("intertwiner_forward", "intertwiner_inverse", "intertwiner_forward_grid",
               "act_mellin"):
        add(f"axb.{fn}", ("calls", "total_s", "self_s"))
    add("axb.intertwiner_forward_grid", ("outputs",))
    for fn in ("apply_q_forward", "q_roundtrip", "q_forward_grid", "kernel_limit_residual"):
        add(f"qtransform.{fn}", ("calls", "total_s", "self_s"))
    add("qtransform.q_forward_grid", ("outputs",))
    for fn in ("corep_axiom_residual", "pairing", "coaction_limit_residual"):
        add(f"corep.{fn}", ("calls", "total_s"))
    add("classw.mellin_forward", ("calls", "points", "self_s"))
    add("classw.ClassWFunction.call", ("calls", "points", "self_s"))
    for suite in VERIFY_SUITES:
        add(f"verify.{suite}", ("total_s",))
    add("trace", ("overhead_s",))
    return spec


LAYER_METRICS = _layer_spec()

# work-count stats: what two traced runs at one seed must repeat exactly
WORK_STATS = ("calls", "points", "nodes", "outputs", "fail")


def layer_metrics(stats, suite_s: dict[str, float], overhead_s: float) -> dict[str, float]:
    """Values of every metric in LAYER_METRICS from aggregated span stats."""
    out = {}
    for metric, _, _ in LAYER_METRICS:
        prefix, stat = metric.rsplit(".", 1)
        if prefix == "trace":
            out[metric] = overhead_s
        elif prefix.startswith("verify."):
            out[metric] = suite_s[prefix.split(".", 1)[1]]
        elif metric == "qdilog.gb_many.fail":
            out[metric] = sum(stats.get(f"{prefix}.{r}", _no_calls())["fail"] for r in REGIMES)
        else:
            s = stats.get(prefix, _no_calls())
            if stat in ("points", "nodes", "outputs"):
                out[metric] = s["work"]
            elif stat == "points_per_s":
                out[metric] = s["work"] / s["self_s"] if s["self_s"] > 0 else 0.0
            else:
                out[metric] = s[stat]
    return out
