"""Command-line interface: evaluation, verification suites, limit tables,
and transform application, with machine-readable output.

Exit codes: 0 success, 1 verification failure, 2 numerical domain error,
64 usage error.  Output is deterministic: identical invocations produce
byte-identical JSON/CSV.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import json
import math
import re
import sys

import numpy as np

from . import axb, corep, qtransform
from . import qdilog as qd
from .classw import ClassWFunction, WTerm
from .errors import DomainError, QuadratureError
from .gammafn import _hyp2f1_contour, gamma
from .modular import ModularParam, from_b, from_b2
from .verify import run_suite

USAGE_EXIT = 64
DOMAIN_EXIT = 2


class _UsageError(Exception):
    """A well-formed command line with the wrong number of values, or a
    table point or r-schedule that is not a list of numbers."""


class _Exit(Exception):
    """The end of a command line that argparse handles itself (-h/--help)."""


class _ValueToken:
    """In place of argparse's negative-number pattern: a token starting with '-'
    is a value, not an option, whenever parse_complex can read it ('-0.5i',
    '-14.5-9.1i', '-Q/2'), not only when it is a plain negative number."""

    @staticmethod
    def match(token: str) -> bool:
        return bool(_Q_RE.match(token)) or _complex_or_none(token) is not None


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _ValueToken  # subparsers are _Parsers too
        self._intermixing = False

    def parse_known_args(self, args=None, namespace=None):
        # a subcommand takes its options before, between or after its values
        # ('eval gb --b 0.8 0.5'): a parse that leaves tokens over is redone
        # intermixed, which calls back in here and costs a few times more
        if self._subparsers is not None or self._intermixing:
            return super().parse_known_args(args, namespace)
        parsed = super().parse_known_args(args, namespace)
        if not parsed[1]:
            return parsed
        self._intermixing = True
        try:
            return self.parse_known_intermixed_args(args, namespace)
        finally:
            self._intermixing = False

    def error(self, message):
        # main prints the message and returns 64, also when called in process
        self.print_usage(sys.stderr)
        raise _UsageError(message)

    def exit(self, status=0, message=None):
        # -h/--help end here, after printing: main returns the status, also in process
        raise _Exit(status)


_Q_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)?)\s*Q\s*(?:/\s*(\d+\.?\d*))?$")
_UNIT_RE = re.compile(r"[iI](?=\)?\s*$)")  # the imaginary unit ends a complex literal


def _complex_or_none(token: str) -> complex | None:
    """'0.3+0.4i' (or 'j') as a complex number; None if it is not one.  Only
    a final 'i' is the unit: 'inf' and 'infinity' keep theirs."""
    try:
        return complex(_UNIT_RE.sub("j", token))
    except ValueError:
        return None


def parse_complex(token: str, p: ModularParam | None = None) -> complex:
    """Parse '0.3+0.4i', '1.2', '-0.5i', or 'Q/2'-style symbolic values; a
    NaN or infinite part is a domain error."""
    token = token.strip()
    m = _Q_RE.match(token)
    if m:
        if p is None:
            raise DomainError(f"symbolic value {token!r} needs --b or --b2")
        coeff = m.group(1)
        mult = 1.0 if coeff in ("", "+") else (-1.0 if coeff == "-" else float(coeff))
        div = float(m.group(2)) if m.group(2) else 1.0
        return complex(mult * p.Q / div)
    if (value := _complex_or_none(token)) is None:
        raise DomainError(f"cannot parse complex value {token!r}")
    if not cmath.isfinite(value):
        raise DomainError(f"non-finite value {token!r}")
    return value


def _tol(token: str) -> float:
    """--tol: a positive finite float; anything else is a usage error."""
    try:
        tol = float(token)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise _UsageError(f"--tol must be a positive finite number, got {token!r}")
    return tol


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


# values each function takes; qkernel's position-picture kinds take four
_ARITY = {"gamma": 1, "gb": 1, "sb": 1, "gb_small": 1, "veta": 1, "ruijsenaars_g": 1,
          "fb": 4, "hyp2f1": 4, "ckernel": 3, "qkernel": 3, "coaction-kernel": 2}


@np.errstate(all="ignore")  # a non-finite result is reported below, not warned about
def _cmd_eval(args) -> int:
    p = _parse_param(args)
    vals = [parse_complex(t, p) for t in args.args]
    tol = args.tol
    fn = args.function
    backend = "closed-form"
    err = 0.0
    if fn not in _ARITY:
        raise DomainError(f"unknown function {fn!r}")
    n_vals = 4 if fn == "qkernel" and args.kind in qtransform.POSITION_KINDS else _ARITY[fn]
    if len(vals) != n_vals:
        raise _UsageError(f"{fn} takes {n_vals} value(s), got {len(vals)}")
    needs_param = {"gb", "sb", "gb_small", "veta", "ruijsenaars_g", "fb",
                   "qkernel", "coaction-kernel"}
    if fn in needs_param and p is None:
        raise DomainError(f"{fn} needs --b or --b2")
    res = None  # a QDValue carries its own value, backend and error estimate
    if fn == "gamma":
        value = gamma(vals[0])
        backend = "lanczos"
    elif fn in ("gb", "sb", "gb_small", "veta", "ruijsenaars_g"):
        res = {"gb": qd.gb, "sb": qd.sb, "gb_small": qd.gb_small,
               "veta": qd.veta, "ruijsenaars_g": qd.ruijsenaars_g}[fn](vals[0], p, tol)
    elif fn == "fb":
        value, err = qd._fb_hypergeometric(*vals, p, tol)
        backend = "contour"
    elif fn == "hyp2f1":
        value, err = _hyp2f1_contour(*vals, tol)
        backend = "contour"
    elif fn == "qkernel":
        res = qtransform.q_kernel(args.kind or "F_floor_star", vals, p, tol)
    elif bad := [t for t, v in zip(args.args, vals) if v.imag]:  # ckernel, coaction-kernel
        raise DomainError(f"{fn} takes real values, got {bad[0]!r}")
    elif fn == "ckernel":
        value = axb.classical_kernel(args.kind or "floor", *[v.real for v in vals])
    else:
        res, _ = corep.coaction_kernel(vals[0].real, vals[1].real, p, tol)
    if res is not None:
        value, backend, err = res.value, res.backend, res.err_estimate
    if not (cmath.isfinite(value) and math.isfinite(err)):  # never print NaN, which is not JSON
        raise DomainError(f"{fn} is not finite here: value {complex(value)}, "
                          f"err_estimate {float(err)}")
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
    records = run_suite(name, tol=args.tol, seed=args.seed)  # an unknown name raises DomainError
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


def _re_im(tok: str) -> tuple[float, float]:
    x = parse_complex(tok)
    return x.real, x.imag


def _reals(tok: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in tok.split(","))
    except ValueError:
        raise _UsageError(f"expected comma-separated numbers, got {tok!r}") from None


# --kind -> (CSV header, a point's columns from its token, residual(*columns, r))
_TABLES = {
    "glim": (["x_re", "x_im", "r", "residual"], _re_im,
             lambda re, im, r: qd.classical_limit_residual("Glim", complex(re, im), r)),
    "kernel-limit": (["lam", "t1", "t2", "r", "residual"], _reals, qtransform.kernel_limit_residual),
    "coaction-limit": (["x", "z", "r", "residual"], _reals, corep.coaction_limit_residual),
}


def _cmd_table(args) -> int:
    rs = _reals(args.r_schedule) if args.r_schedule else ()
    if any(b >= a for a, b in zip(rs, rs[1:])) or any(r <= 0 for r in rs):
        raise DomainError("r-schedule must be strictly decreasing and positive")
    header, parse, residual = _TABLES[args.kind]
    points = [parse(t) for t in (args.points.split(";") if args.points else []) if t.strip()]
    if bad := [cols for cols in points if len(cols) != len(header) - 2]:
        raise _UsageError(f"a {args.kind} point takes {len(header) - 2} values, got {len(bad[0])}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for cols in points:
        for r in rs:
            writer.writerow([*cols, r, residual(*cols, r)])
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
    try:
        with open(path) as fh:
            payload = json.load(fh)
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
    family = axb.GAMMA if which == "classical" else qtransform.gb_family(p, tol)
    values = []
    for x, y in points:
        rec = {keys[0]: x, keys[1]: y}
        if args.direction == "roundtrip":  # forward-then-inverse against the input data
            val = family.roundtrip(f, x, y)
            rec["roundtrip_error"] = float(abs(val - complex(f(np.asarray(x), np.asarray(y)))))
        else:  # the adaptive transforms, which also return the quadrature's error estimate
            transform = family.forward if args.direction == "forward" else family.inverse
            val, rec["err"] = transform(f, x, y, tol)
        rec["value"] = _c2j(val)
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
    pe.add_argument("--tol", type=_tol, default=1e-10)
    pe.add_argument("--json", action="store_true", help="indent the JSON output")
    pe.add_argument("--out")
    pe.set_defaults(fn=_cmd_eval)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", nargs="?", default="all")
    pv.add_argument("--tol", type=_tol, default=None,
                    help="replace every check's tolerance")
    pv.add_argument("--seed", type=int, default=42)
    pv.add_argument("--json", action="store_true")
    pv.add_argument("--out")
    pv.set_defaults(fn=_cmd_verify)

    pt = sub.add_parser("table", help="limit-convergence tables as CSV")
    pt.add_argument("--kind", required=True, choices=list(_TABLES))
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


@functools.cache
def _parser() -> _Parser:
    """The parser main uses, built on its first call (parse_args keeps no
    state between calls: each returns a new namespace)."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)  # a bad command line or --tol raises _UsageError here
        return args.fn(args)
    except (DomainError, QuadratureError, OverflowError) as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return DOMAIN_EXIT
    except (FileNotFoundError, _UsageError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_EXIT
    except _Exit as exc:
        return exc.args[0]


if __name__ == "__main__":
    sys.exit(main())
