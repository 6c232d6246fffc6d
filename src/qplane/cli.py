"""Command-line interface: evaluation, verification suites, limit tables,
and transform application, with machine-readable output.

Exit codes: 0 success, 1 verification failure, 2 numerical domain error,
64 usage error.  Output is deterministic: identical invocations produce
byte-identical JSON/CSV.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys

import numpy as np

from . import axb, corep, qtransform
from . import qdilog as qd
from .classw import ClassWFunction, WTerm
from .errors import DomainError, QuadratureError
from .gammafn import gamma, hyp2f1_contour
from .modular import ModularParam, from_b, from_b2
from .verify import SUITES, run_suite

USAGE_EXIT = 64
DOMAIN_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_EXIT)


_Q_RE = re.compile(r"^([+-]?\d*\.?\d*)\s*Q\s*(?:/\s*(\d+\.?\d*))?$")


def parse_complex(token: str, p: ModularParam | None = None) -> complex:
    """Parse '0.3+0.4i', '1.2', '-0.5i', or 'Q/2'-style symbolic values."""
    token = token.strip()
    m = _Q_RE.match(token)
    if m:
        if p is None:
            raise DomainError(f"symbolic value {token!r} needs --b or --b2")
        coeff = m.group(1)
        mult = 1.0 if coeff in ("", "+") else (-1.0 if coeff == "-" else float(coeff))
        div = float(m.group(2)) if m.group(2) else 1.0
        return complex(mult * p.Q / div)
    try:
        return complex(token.replace("i", "j"))
    except ValueError as exc:
        raise DomainError(f"cannot parse complex value {token!r}") from exc


def _parse_param(args) -> ModularParam | None:
    if getattr(args, "b", None) is not None and getattr(args, "b2", None) is not None:
        raise DomainError("give exactly one of --b (real) or --b2 (complex)")
    if getattr(args, "b", None) is not None:
        return from_b(args.b)
    if getattr(args, "b2", None) is not None:
        return from_b2(parse_complex(args.b2))
    return None


def _c2j(z: complex) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def _emit(payload, args) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2 if args.json else None)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# eval


def _cmd_eval(args) -> int:
    p = _parse_param(args)
    vals = [parse_complex(t, p) for t in args.args]
    tol = args.tol
    fn = args.function
    backend = "closed-form"
    err = 0.0
    needs_param = {"gb", "sb", "gb_small", "veta", "ruijsenaars_g", "fb",
                   "qkernel", "coaction-kernel"}
    if fn in needs_param and p is None:
        raise DomainError(f"{fn} needs --b or --b2")
    if fn == "gamma":
        value = gamma(vals[0])
        backend = "lanczos-reflection"
    elif fn in ("gb", "sb", "gb_small", "veta", "ruijsenaars_g"):
        res = {"gb": qd.gb, "sb": qd.sb, "gb_small": qd.gb_small,
               "veta": qd.veta, "ruijsenaars_g": qd.ruijsenaars_g}[fn](vals[0], p, tol)
        value, backend, err = res.value, res.backend, res.err_estimate
    elif fn == "fb":
        value = qd.fb_hypergeometric(vals[0], vals[1], vals[2], vals[3], p, tol)
        backend = "contour"
    elif fn == "hyp2f1":
        value = hyp2f1_contour(vals[0], vals[1], vals[2], vals[3], tol)
        backend = "contour"
    elif fn == "ckernel":
        value = axb.classical_kernel(args.kind or "floor", *[v.real for v in vals[:3]])
    elif fn == "qkernel":
        value = qtransform.q_kernel(args.kind or "F_floor_star", vals, p, tol)
    elif fn == "coaction-kernel":
        value, mono = corep.coaction_kernel(vals[0].real, vals[1].real, p, tol)
    else:
        raise DomainError(f"unknown function {fn!r}")
    record = {
        "function": fn,
        "args": [_c2j(v) for v in vals],
        "value": _c2j(value),
        "err_estimate": float(err),
        "backend": backend,
    }
    _emit(record, args)
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    name = args.suite
    if name != "all" and name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {', '.join(SUITES + ('all',))}")
    records = run_suite(name, tol=args.tol, seed=args.seed)
    ok = all(r["pass"] for r in records)
    report = {
        "suite": name,
        "seed": args.seed,
        "n_total": len(records),
        "n_pass": sum(r["pass"] for r in records),
        "pass": ok,
        "checks": records,
    }
    _emit(report, args)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# table


def _cmd_table(args) -> int:
    rs = [float(t) for t in args.r_schedule.split(",")] if args.r_schedule else []
    if any(b >= a for a, b in zip(rs, rs[1:])) or any(r <= 0 for r in rs):
        raise DomainError("r-schedule must be strictly decreasing and positive")
    points = [t for t in (args.points.split(";") if args.points else []) if t.strip()]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if args.kind == "glim":
        writer.writerow(["x_re", "x_im", "r", "residual"])
        for tok in points:
            x = parse_complex(tok)
            for r in rs:
                writer.writerow([x.real, x.imag, r, qd.classical_limit_residual("Glim", x, r)])
    elif args.kind == "kernel-limit":
        writer.writerow(["lam", "t1", "t2", "r", "residual"])
        for tok in points:
            lam, t1, t2 = (float(v) for v in tok.split(","))
            for r in rs:
                writer.writerow([lam, t1, t2, r, qtransform.kernel_limit_residual(lam, t1, t2, r)])
    elif args.kind == "coaction-limit":
        writer.writerow(["x", "z", "r", "residual"])
        for tok in points:
            x, z = (float(v) for v in tok.split(","))
            for r in rs:
                writer.writerow([x, z, r, corep.coaction_limit_residual(x, z, r)])
    else:
        raise DomainError(f"unknown table kind {args.kind!r}")
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# transform


def _term_from_json(obj: dict) -> WTerm:
    poly = tuple(complex(c["re"], c.get("im", 0.0)) for c in obj.get("poly", [{"re": 1.0}]))
    b = obj.get("b", {"re": 0.0})
    return WTerm(float(obj["a"]), complex(b["re"], b.get("im", 0.0)), poly)


def _load_transform_input(path: str):
    with open(path) as fh:
        payload = json.load(fh)
    try:
        pairs = [
            (ClassWFunction((_term_from_json(t["f1"]),)), ClassWFunction((_term_from_json(t["f2"]),)))
            for t in payload["terms"]
        ]
        grid = payload.get("grid", [])
        b = payload.get("b")
        b = None if b is None else float(b)
        tol = float(payload.get("tol", 1e-8))
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"transform input schema violation: {exc}") from exc

    def f(u, v):
        out = np.zeros(np.broadcast(np.asarray(u), np.asarray(v)).shape, dtype=complex)
        for f1, f2 in pairs:
            out += f1(u) * f2(v)
        return out

    return f, grid, b, tol


def _cmd_transform(args) -> int:
    f, grid, b, tol = _load_transform_input(args.input)
    which = args.which
    p = from_b(b) if b is not None else None
    if which == "quantum" and p is None:
        raise DomainError("quantum transform input must carry the parameter b")
    keys = ("lam", "t") if args.direction == "forward" else ("t1", "t2")
    try:
        points = [tuple(float(pt[k]) for k in keys) for pt in grid]
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"transform input schema violation: grid points need numeric "
                          f"{' and '.join(keys)} ({exc!r})") from exc
    entry = {
        ("classical", "forward"): lambda x, y: axb.intertwiner_forward(f, x, y, tol=tol),
        ("classical", "inverse"): lambda x, y: axb.intertwiner_inverse(f, x, y, tol=tol),
        ("classical", "roundtrip"): lambda x, y: axb.intertwiner_roundtrip(f, x, y, tol=tol),
        ("quantum", "forward"): lambda x, y: qtransform.apply_q_forward(f, x, y, p, tol=tol),
        ("quantum", "inverse"): lambda x, y: qtransform.apply_q_inverse(f, x, y, p, tol=tol),
        ("quantum", "roundtrip"): lambda x, y: qtransform.q_roundtrip(f, x, y, p, tol=tol),
    }[which, args.direction]
    values = []
    for x, y in points:
        val = entry(x, y)
        rec = {keys[0]: x, keys[1]: y, "value": _c2j(val)}
        if args.direction == "roundtrip":  # forward-then-inverse against the input data
            rec["roundtrip_error"] = float(abs(val - complex(f(np.asarray(x), np.asarray(y)))))
        else:
            rec["err"] = tol
        values.append(rec)
    payload = {"which": which, "direction": args.direction, "values": values}
    text = json.dumps(payload, sort_keys=True)
    with open(args.output, "w") as fh:
        fh.write(text + "\n")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    ap = _Parser(prog="qplane", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a special function or kernel")
    pe.add_argument("function")
    pe.add_argument("args", nargs="*")
    pe.add_argument("--b", type=float)
    pe.add_argument("--b2")
    pe.add_argument("--kind")
    pe.add_argument("--tol", type=float, default=1e-10)
    pe.add_argument("--json", action="store_true", help="indent the JSON output")
    pe.add_argument("--out")
    pe.set_defaults(fn=_cmd_eval)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", nargs="?", default="all")
    pv.add_argument("--tol", type=float, default=None,
                    help="override the per-check default tolerances")
    pv.add_argument("--seed", type=int, default=42)
    pv.add_argument("--json", action="store_true")
    pv.add_argument("--out")
    pv.set_defaults(fn=_cmd_verify)

    pt = sub.add_parser("table", help="limit-convergence tables as CSV")
    pt.add_argument("--kind", required=True, choices=["glim", "kernel-limit", "coaction-limit"])
    pt.add_argument("--points", default="", help="semicolon-separated points")
    pt.add_argument("--r-schedule", default="", dest="r_schedule")
    pt.add_argument("--out")
    pt.set_defaults(fn=_cmd_table)

    px = sub.add_parser("transform", help="apply an intertwining transform to class-W data")
    px.add_argument("--which", required=True, choices=["classical", "quantum"])
    px.add_argument("--direction", required=True, choices=["forward", "inverse", "roundtrip"])
    px.add_argument("--input", required=True)
    px.add_argument("--output", required=True)
    px.set_defaults(fn=_cmd_transform)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, QuadratureError) as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return DOMAIN_EXIT
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
