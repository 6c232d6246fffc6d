"""Measure a change against its parent with perfbench and write a BENCH json.

    python scripts/bench_pair.py --parent ../parent --change . --out BENCH_<n>.json \\
        --parent-label <commit> --change-label "<what the change does>"

``--parent`` and ``--change`` are two qplane source checkouts; each runs its
own ``perfbench/run.py``.  First the latency of a single ``qplane eval``:
the median in-process ``cli.main`` time over seeded ``eval gb`` argvs of the
kinds of perfbench's gb-eval CLI strata (real b, generic b^2, b^2 = i r), the
best of EVAL_ROUNDS alternating fresh processes per side, and the best of
FRESH_RUNS alternating runs of ``python -m qplane.cli`` FRESH_ARGV in a fresh
interpreter, all with one BLAS thread.  Then the latency of the classical
forward op: the median in-process ``axb.intertwiner_forward`` time over
FORWARD_OPS seeded ops drawn as perfbench's classical ``forward`` stratum
draws them, the best of FORWARD_ROUNDS alternating fresh processes per side.
Then a size sweep times ``gb_many`` at SWEEP_SIZES points in both regimes,
with one BLAS thread and with the library's default threading: each round
runs the parent and the change as fresh subprocesses in alternating order,
and the best of SWEEP_ROUNDS rounds is kept per side.  Then, seed by seed
(SEEDS, then perfbench's held-out seed), every workload's two runs of
SECONDS go back to back, the parent first on even-indexed seeds and the
change first on odd ones, so a drift of the machine's speed hits both sides
alike and spreads over all the workloads' pairs instead of one workload's
block.  The file records every
run's end-to-end metrics and probe failure counts (ops past the library's
declared domain, not gated), the metrics' medians, the change/parent ratio
of the medians, the number of pairs in which the change reads lower and the
interquartile range of the parent's runs.  Then each checkout runs
``--trace 1`` TRACE_RUNS times per workload at TRACE_SEED, the sides
alternating, for every per-layer metric that ``BENCHMARK.json`` lists: its
counts from the first run, its times and rates the median over the runs,
with each run's work-count digest and whether they agree.  Each suite in
VERIFY_SUITES is timed once through ``qplane verify`` in a fresh
interpreter, with the sha256 of each side's report and whether the two
reports are byte-identical (``same_report``).  Last, each checkout counts
the integrand nodes of one call of each adaptive contour user in NODES_CHILD
(deterministic): ``axb.intertwiner_forward`` and ``qtransform.apply_q_forward``
at each t in NODE_TS, ``axb.act_mellin``, ``gammafn.hyp2f1_contour``,
``gammafn.binomial_mellin_residual``, ``qdilog.tau_beta_residual``,
``qdilog.fourier_gb_residual``, ``qdilog.fb_hypergeometric`` and
``qdilog.veta_integral``, and the ``gb_many`` calls and points of one
``qtransform.q_forward_grid``, ``qtransform.q_roundtrip`` and
``qdilog.gb_residue_at_pole`` call; and its lines per ``src/qplane`` module
(``src_lines``), so the net-lines figure comes from the same file as the
timings.  A full run takes about 50 minutes.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("gb-eval", "classical", "quantum")
SEEDS, SECONDS = tuple(range(201, 211)), 35.0
HELD_OUT_SEED = 4145  # perfbench/run.py HELD_OUT_SEED
TRACE_SEED, TRACE_SECONDS, TRACE_RUNS = 101, 10.0, 3
LAYERS = {m["name"]: m["unit"] for m in json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())["per_layer"]}
VERIFY_SUITES = ("limits", "classical-rep", "q-intertwiner", "all")
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SWEEP_SIZES, SWEEP_ROUNDS = (1, 4, 32, 128, 1152), 7
# One child of the size sweep: per regime and size, the best over 5 repeats of the
# mean time of gb_many on one seeded batch, the repeats long enough for ~20 ms each.
# Points as in perfbench's gb-eval batches: real b = 0.8 with Re x in [-3, Q + 3],
# 0.15 <= |Im x| <= 1.5; generic b^2 = 0.3 + 0.4i on the box [-1, 3] x [-1, 1].
SWEEP_CHILD = """
import json, sys, time
import numpy as np
from qplane import qdilog
from qplane.modular import from_b, from_b2
rng = np.random.default_rng(8)
out = {}
for regime, p in (("integral", from_b(0.8)), ("product", from_b2(0.3 + 0.4j))):
    out[regime] = {}
    for n in json.loads(sys.argv[1]):
        if regime == "integral":
            re = rng.uniform(-3.0, p.Q.real + 3.0, n)
            x = re + 1j * rng.choice((-1.0, 1.0), n) * rng.uniform(0.15, 1.5, n)
        else:
            x = rng.uniform(-1.0, 3.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
        qdilog.gb_many(x, p)
        t0 = time.perf_counter()
        qdilog.gb_many(x, p)
        reps = max(1, int(0.02 / (time.perf_counter() - t0)))
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(reps):
                qdilog.gb_many(x, p)
            best = min(best, (time.perf_counter() - t0) / reps)
        out[regime][n] = best
print(json.dumps(out))
"""
# One child of the eval latency: per argv kind, the median seconds of an in-process
# cli.main call over EVAL_REPEATS passes of 20 seeded argvs, drawn as perfbench's
# cli-integral, cli-product and cli-limit strata draw theirs, and the median over all.
EVAL_ROUNDS, EVAL_REPEATS = 5, 5
FRESH_ARGV, FRESH_RUNS = ("eval", "gb", "0.5", "--b", "0.8"), 7
EVAL_CHILD = """
import contextlib, io, json, statistics, sys, time
import numpy as np
from qplane import cli
from qplane.modular import from_r
rng = np.random.default_rng(10)
token = lambda z: f"{z.real:.17g}{z.imag:+.17g}i"
argvs = {"integral": [], "product": [], "limit": []}
for _ in range(20):
    b = float(rng.uniform(0.6, 1.3))
    x = complex(rng.uniform(0.05, b + 1 / b + 2.5), rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 1.5))
    argvs["integral"].append(["eval", "gb", token(x), "--b", repr(b)])
    x = complex(rng.uniform(0.05, 3.0), rng.uniform(-1.0, 1.0))
    b2 = complex(rng.uniform(0.1, 0.6), rng.uniform(0.3, 0.8))
    argvs["product"].append(["eval", "gb", token(x), "--b2", token(b2)])
    p = from_r(float(rng.choice((0.1, 0.05, 0.025, 1e-3))))
    x = complex(p.b * complex(rng.uniform(0.6, 3.0), rng.uniform(-0.5, 0.5)))
    argvs["limit"].append(["eval", "gb", token(x), "--b2", token(complex(p.b2))])
times = {kind: [] for kind in argvs}
sink = io.StringIO()
with contextlib.redirect_stdout(sink):
    cli.main(["eval", "gb", "0.5", "--b", "0.8"])  # the warm-up perfbench's gb-eval runs
    for _ in range(int(sys.argv[1])):
        for kind, batch in argvs.items():
            for argv in batch:
                t0 = time.perf_counter()
                code = cli.main(argv)
                times[kind].append(time.perf_counter() - t0)
                assert code == 0, argv
                sink.seek(0)
                sink.truncate()
out = {kind: statistics.median(t) for kind, t in times.items()}
out["all"] = statistics.median([t for ts in times.values() for t in ts])
print(json.dumps(out))
"""
# One child of the forward latency: the median seconds of an in-process
# axb.intertwiner_forward call over FORWARD_OPS seeded ops, drawn as perfbench's
# classical forward stratum draws them (separable Gaussian class-W data).
FORWARD_ROUNDS, FORWARD_OPS = 7, 300
FORWARD_CHILD = """
import json, statistics, sys, time
import numpy as np
from qplane import axb
from qplane.classw import ClassWFunction
rng = np.random.default_rng(11)
ops = []
for _ in range(int(sys.argv[1])):
    a1, a2 = rng.uniform(0.8, 1.5, 2)
    c1, c2 = rng.uniform(-0.3, 0.3, 2)
    g1, g2 = ClassWFunction.gaussian(a=a1, b=c1), ClassWFunction.gaussian(a=a2, b=c2)
    ops.append((lambda u, v, g1=g1, g2=g2: g1(u) * g2(v),
                float(rng.uniform(-0.4, 0.5)), float(rng.uniform(0.2, 1.2))))
axb.intertwiner_forward(*ops[0])  # warm-up
times = []
for f, lam, t in ops:
    t0 = time.perf_counter()
    axb.intertwiner_forward(f, lam, t)
    times.append(time.perf_counter() - t0)
print(json.dumps(statistics.median(times)))
"""
# One child of the node count: integrand nodes of the adaptive contour users, per
# call, counted through the integrand handed to integrate_contour at each of its
# bindings (axb, gammafn, qdilog, and contours' own, which integrate_line calls):
# intertwiner_forward (lam = 0.4) and apply_q_forward (b = 0.8, lam = 0.4) at each t
# in NODE_TS, act_mellin with and without a raised line, hyp2f1_contour and
# binomial_mellin_residual at the arguments of verify's and the tests' cases, and
# tau_beta_residual, fourier_gb_residual, fb_hypergeometric and veta_integral at
# the arguments of verify's records.  Also the gb_many calls and points, counted at
# its qdilog and qtransform bindings, of q_forward_grid on perfbench's quantum grid
# (lam = 4.5 GL48, t = 1.4), of q_roundtrip(0.5, 0.7) and of gb_residue_at_pole(3),
# all at b = 0.8.
NODE_TS = (0.2, 0.3, 0.5, 1.0, 1.4, 2.5)
NODES_CHILD = """
import json, sys
import numpy as np
from qplane import axb, contours, gammafn, qdilog, qtransform
from qplane.gammafn import gamma
from qplane.modular import from_b, from_b2, from_r
count = [0]
quad = axb.integrate_contour
def counted(f, *args, **kwargs):
    def g(z):
        count[0] += np.size(z)
        return f(z)
    return quad(g, *args, **kwargs)
axb.integrate_contour = gammafn.integrate_contour = qdilog.integrate_contour = counted
contours.integrate_contour = counted
def nodes(call, *args, **kwargs):
    count[0] = 0
    call(*args, **kwargs)
    return count[0]
sweeps, many = [0, 0], qdilog.gb_many
def counted_many(x, *args, **kwargs):
    sweeps[0] += 1
    sweeps[1] += np.size(x)
    return many(x, *args, **kwargs)
qdilog.gb_many = qtransform.gb_many = counted_many
def gb_sweeps(call, *args, **kwargs):
    sweeps[:] = [0, 0]
    call(*args, **kwargs)
    return {"calls": sweeps[0], "points": sweeps[1]}
f = lambda t1, t2: np.exp(-(t1**2 + t2**2) / 2) * (1 + 0.3 * t1)
F = lambda z: gamma(1 + 1j * np.asarray(z, dtype=complex))
g = axb.GroupElement(1.5, 0.7)
p8, p75, pc, pr = from_b(0.8), from_b(0.75), from_b2(0.1 + 0.4j), from_r(1e-3)
Q, Qc = p8.Q.real, pc.Q
ts = json.loads(sys.argv[1])
print(json.dumps({
    "intertwiner_forward": {t: nodes(axb.intertwiner_forward, f, 0.4, t) for t in ts},
    "apply_q_forward": {t: nodes(qtransform.apply_q_forward, f, 0.4, t, from_b(0.8)) for t in ts},
    "act_mellin": {"(1.5, 0.7), w=0.3": nodes(axb.act_mellin, g, axb.R_PLUS, F, 0.3),
                   "(1.5, 0.7), w=0.3, imag_shift=0.3":
                       nodes(axb.act_mellin, g, axb.R_PLUS, F, 0.3, imag_shift=0.3)},
    "hyp2f1_contour": {repr(a): nodes(gammafn.hyp2f1_contour, *a) for a in
                       ((0.5, 1.3, 2.1, -0.4), (0.3, 0.7, 1.4, -0.6), (1, 1, 2, -1),
                        (0.2 + 0.1j, 1.1, 2, -0.3 + 0.2j))},
    "binomial_mellin_residual": {repr(a): nodes(gammafn.binomial_mellin_residual, *a)
                                 for a in ((0.5, 1, 1), (2, 1, -2), (1, 2, 0.3))},
    "tau_beta_residual": {
        "b=0.8, (Q/4,Q/4)": nodes(qdilog.tau_beta_residual, Q / 4, Q / 4, p8),
        "b=0.8, (Q/3,Q/6)": nodes(qdilog.tau_beta_residual, Q / 3, Q / 6, p8),
        "b2=0.1+0.4i, (Q/4+0.1i,Q/4)": nodes(qdilog.tau_beta_residual, Qc / 4 + 0.1j, Qc / 4, pc)},
    "fourier_gb_residual": {
        **{f"{w}, b=0.8, r={r}": nodes(qdilog.fourier_gb_residual, w, r, p8)
           for w in (1, 2, 3, 4) for r in (-0.2, 0.0, 0.3)},
        "3, b=0.75, r=-0.2": nodes(qdilog.fourier_gb_residual, 3, -0.2, p75)},
    "fb_hypergeometric": {
        "r=1e-3, b(0.5, 1.3, 2.1), -0.4": nodes(qdilog.fb_hypergeometric, pr.b * 0.5, pr.b * 1.3,
                                                pr.b * 2.1, -0.4, pr),
        "b=0.8, (Q/4, Q/3, Q/4), -0.5": nodes(qdilog.fb_hypergeometric, Q / 4, Q / 3, Q / 4, -0.5, p8)},
    "veta_integral": {"b=0.8, z=0.4": nodes(qdilog.veta_integral, 0.4, p8)},
    "gb_many": {
        "q_forward_grid, 48 lam, t=1.4": gb_sweeps(qtransform.q_forward_grid, f,
                                                   4.5 * np.polynomial.legendre.leggauss(48)[0], 1.4, p8),
        "q_roundtrip(0.5, 0.7)": gb_sweeps(qtransform.q_roundtrip, f, 0.5, 0.7, p8),
        "gb_residue_at_pole(3)": gb_sweeps(qdilog.gb_residue_at_pole, 3, p8)},
}))
"""


def adaptive_nodes(root: Path) -> dict:
    proc = subprocess.run([sys.executable, "-c", NODES_CHILD, json.dumps(NODE_TS)],
                          env={**os.environ, **ENV, "PYTHONPATH": str(root / "src")},
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def src_lines(root: Path) -> dict:
    """Lines per ``src/qplane/*.py`` module, and their total."""
    lines = {p.name: len(p.read_text().splitlines()) for p in sorted((root / "src/qplane").glob("*.py"))}
    return {**lines, "total": sum(lines.values())}


def eval_latency(roots: dict) -> dict:
    """In-process and fresh-interpreter seconds of a single ``qplane eval``, best per side."""
    env = {side: {**os.environ, **ENV, "PYTHONPATH": str(root / "src")} for side, root in roots.items()}
    inproc = {side: {} for side in roots}
    for i in range(EVAL_ROUNDS):
        for side in (list(roots) if i % 2 == 0 else list(roots)[::-1]):
            proc = subprocess.run([sys.executable, "-c", EVAL_CHILD, str(EVAL_REPEATS)], env=env[side],
                                  capture_output=True, text=True, check=True)
            for kind, t in json.loads(proc.stdout).items():
                inproc[side][kind] = min(inproc[side].get(kind, float("inf")), t)
    fresh = {side: float("inf") for side in roots}
    for i in range(FRESH_RUNS):
        for side in (list(roots) if i % 2 == 0 else list(roots)[::-1]):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-m", "qplane.cli", *FRESH_ARGV], env=env[side],
                           capture_output=True, check=True)
            fresh[side] = min(fresh[side], time.perf_counter() - t0)
    result = {
        "in_process": {"unit": "s per cli.main call, median", "rounds": EVAL_ROUNDS,
                       "calls_per_kind": 20 * EVAL_REPEATS, **inproc,
                       "ratio": {k: inproc["change"][k] / inproc["parent"][k] for k in inproc["parent"]}},
        "fresh_interpreter": {"unit": "s per run, best", "argv": FRESH_ARGV, "runs": FRESH_RUNS,
                              **fresh, "ratio": fresh["change"] / fresh["parent"]},
    }
    print(f"eval latency: {result}", flush=True)
    return result


def forward_latency(roots: dict) -> dict:
    """Best-of-FORWARD_ROUNDS median seconds of an in-process intertwiner_forward call, per side."""
    best = {side: float("inf") for side in roots}
    for i in range(FORWARD_ROUNDS):
        for side in (list(roots) if i % 2 == 0 else list(roots)[::-1]):
            proc = subprocess.run([sys.executable, "-c", FORWARD_CHILD, str(FORWARD_OPS)],
                                  env={**os.environ, **ENV, "PYTHONPATH": str(roots[side] / "src")},
                                  capture_output=True, text=True, check=True)
            best[side] = min(best[side], json.loads(proc.stdout))
    result = {"unit": "s per intertwiner_forward call, median", "rounds": FORWARD_ROUNDS,
              "ops": FORWARD_OPS, **best, "ratio": best["change"] / best["parent"]}
    print(f"forward latency: {result}", flush=True)
    return result


def perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                           str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def size_sweep(roots: dict) -> dict:
    """Best-of-SWEEP_ROUNDS gb_many seconds per call, {threads: {regime: {size: {side: s, ratio}}}}."""
    default_env = {k: v for k, v in os.environ.items() if k not in ENV}
    result = {}
    for threads, env in (("one", {**default_env, **ENV}), ("default", default_env)):
        best = {side: {} for side in roots}
        for i in range(SWEEP_ROUNDS):
            for side in (list(roots) if i % 2 == 0 else list(roots)[::-1]):
                proc = subprocess.run([sys.executable, "-c", SWEEP_CHILD, json.dumps(SWEEP_SIZES)],
                                      env={**env, "PYTHONPATH": str(roots[side] / "src")},
                                      capture_output=True, text=True, check=True)
                for regime, times in json.loads(proc.stdout).items():
                    for n, t in times.items():
                        key = (regime, n)
                        best[side][key] = min(best[side].get(key, float("inf")), t)
        result[threads] = {}
        for regime, n in best["parent"]:
            t = {side: best[side][(regime, n)] for side in roots}
            result[threads].setdefault(regime, {})[n] = {**t, "ratio": t["change"] / t["parent"]}
        print(f"size sweep, {threads} thread(s): {result[threads]}", flush=True)
    return result


def probe_counts(text: str) -> dict:
    """{probe stratum: [failed, run]} from perfbench's ``probe_failed_frac`` line."""
    m = re.search(r"probe_failed_frac .*\(not gated\): (.*)", text)
    if m is None:
        return {}
    return {k: [int(bad), int(n)] for k, bad, n in re.findall(r"(\S+) (\d+)/(\d+)", m.group(1))}


def pairs(roots: dict, seeds, seconds: float) -> dict:
    """{workload: {"median": ..., "runs": ...}}, seed-major: for each seed,
    every workload's pair of runs back to back."""
    runs = {w: {side: [] for side in roots} for w in WORKLOADS}
    for i, seed in enumerate(seeds):
        for workload in WORKLOADS:
            for side in (list(roots) if i % 2 == 0 else list(roots)[::-1]):
                out, text = perfbench(roots[side], workload, seed, seconds, 0)
                runs[workload][side].append({
                    "seed": seed, "failed": out["failed"], "attempted": out["attempted"],
                    "probes": probe_counts(text), **{k: v["value"] for k, v in out["metrics"].items()}})
                print(f"{workload} seed {seed} {side}: wall_s {runs[workload][side][-1]['wall_s']:.4f}",
                      flush=True)
    return {w: {"median": summarize(runs[w], len(seeds) > 1), "runs": runs[w]} for w in WORKLOADS}


def summarize(runs: dict, spread: bool) -> dict:
    """Per metric: each side's median, the change/parent ratio, the number of
    pairs in which the change reads lower and, with ``spread``, the parent's IQR."""
    summary = {}
    for metric in runs["parent"][0]:
        if metric in ("seed", "attempted", "probes"):
            continue
        vals = {side: [r[metric] for r in rs] for side, rs in runs.items()}
        med = {side: statistics.median(v) for side, v in vals.items()}
        summary[metric] = {**med, "ratio": med["change"] / med["parent"] if med["parent"] else None,
                           "change_lower_in": sum(c < p for p, c in zip(vals["parent"], vals["change"]))}
        if spread:  # the parent's own spread, to weigh the medians' difference against
            q1, _, q3 = statistics.quantiles(vals["parent"], n=4)
            summary[metric]["parent_iqr"] = q3 - q1
    return summary


def traced(roots: dict, workload: str) -> dict:
    """TRACE_RUNS alternating ``--trace 1`` runs per side: counts from the
    first run, times and rates the median over the runs that report them."""
    runs = {side: [] for side in roots}
    for i in range(TRACE_RUNS):
        for side in (list(roots) if i % 2 == 0 else list(roots)[::-1]):
            out, text = perfbench(roots[side], workload, TRACE_SEED, TRACE_SECONDS, 1)
            runs[side].append({"digest": re.search(r"work counts digest (\w+)", text).group(1),
                               "failed": out["failed"], "metrics": out["metrics"]})
    result = {}
    for side, rs in runs.items():
        digests = [r["digest"] for r in rs]
        result[side] = {"digests": digests, "digests_agree": len(set(digests)) == 1,
                        "failed": [r["failed"] for r in rs]}
        for k, unit in LAYERS.items():
            vals = [r["metrics"][k]["value"] for r in rs if k in r["metrics"]]
            if vals:
                result[side][k] = vals[0] if unit == "count" else statistics.median(vals)
    return result


def verify_wall(root: Path, suite: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "qplane.cli", "verify", suite, "--seed", "42",
                               "--out", str(report)], cwd=root,
                              env={**os.environ, **ENV, "PYTHONPATH": str(root / "src")})
        wall_s = time.perf_counter() - t0
        sha = hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else None
        return {"wall_s": wall_s, "exit": proc.returncode, "report_sha256": sha}


def verify_pair(roots: dict, suite: str) -> dict:
    """verify_wall on each side, and whether the two reports are byte-identical."""
    sides = {side: verify_wall(root, suite) for side, root in roots.items()}
    parent, change = (sides[side]["report_sha256"] for side in ("parent", "change"))
    return {**sides, "same_report": parent is not None and parent == change}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--parent-label", default="parent")
    ap.add_argument("--change-label", default="change")
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    result = {
        "parent": args.parent_label, "change": args.change_label,
        "nproc": os.cpu_count(), "seconds": SECONDS, "seeds": SEEDS,
        "order": "seed-major: per seed every workload's pair back to back, "
                 "parent first on even-indexed seeds",
        "eval_latency": eval_latency(roots),
        "forward_latency": forward_latency(roots),
        "size_sweep": {"sizes": SWEEP_SIZES, "rounds": SWEEP_ROUNDS, "unit": "s per gb_many call",
                       **size_sweep(roots)},
        "end_to_end": pairs(roots, SEEDS, SECONDS),
        "held_out": pairs(roots, [HELD_OUT_SEED], SECONDS),
        "per_layer": {"seed": TRACE_SEED, "runs": TRACE_RUNS, **{w: traced(roots, w) for w in WORKLOADS}},
        "verify": {suite: verify_pair(roots, suite) for suite in VERIFY_SUITES},
        "adaptive_nodes": {side: adaptive_nodes(root) for side, root in roots.items()},
        "src_lines": {side: src_lines(root) for side, root in roots.items()},
    }
    args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
