import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qplane.qdilog as qd
from qplane import cli, corep, qtransform
from qplane.cli import main, parse_complex
from qplane.errors import DomainError
from qplane.modular import from_b

DATA = Path(__file__).parent / "data"


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "qplane.cli", *argv],
        capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_parse_complex_forms():
    p = from_b(0.8)
    assert parse_complex("0.3+0.4i") == 0.3 + 0.4j
    assert parse_complex("-1.5") == -1.5
    assert abs(parse_complex("Q/2", p) - p.Q / 2) < 1e-15
    assert abs(parse_complex("Q", p) - p.Q) < 1e-15
    with pytest.raises(DomainError):
        parse_complex("Q/2")  # no parameter
    with pytest.raises(DomainError):
        parse_complex("zzz")


def test_eval_gamma(tmp_path):
    code, out, _ = run_cli("eval", "gamma", "1.0")
    assert code == 0
    rec = json.loads(out)
    assert abs(rec["value"]["re"] - 1.0) < 1e-12
    assert abs(rec["value"]["im"]) < 1e-12


@pytest.mark.parametrize("arg", ["0.3", "2.5", "-1.7"])
def test_eval_gamma_backend_is_lanczos(capsys, arg):
    # every region is the Lanczos core: directly, after one recurrence step,
    # or under the reflection formula
    assert main(["eval", "gamma", arg]) == 0
    assert json.loads(capsys.readouterr().out)["backend"] == "lanczos"


def test_eval_gb_fixture():
    code, out, _ = run_cli("eval", "gb", "0.5", "--b", "0.8")
    assert code == 0
    rec = json.loads(out)
    assert abs(complex(rec["value"]["re"], rec["value"]["im"])
               - (0.2372083709438624 - 0.6429814245704509j)) < 1e-9
    assert rec["backend"] in ("integral", "functional-continuation")


def test_eval_gb_below_the_zeta_underflow():
    # at b^2 = 0.00025i zeta_b_bar alone underflows to 0 and the quotient of
    # the q-Pochhammer symbols overflows; the value is about 1e-46
    code, out, err = run_cli("eval", "gb", "0.5", "--b2", "0.00025i")
    assert code == 0 and err == ""
    rec = json.loads(out)
    value = complex(rec["value"]["re"], rec["value"]["im"])
    assert np.isfinite(value) and value != 0 and np.isfinite(rec["err_estimate"])


def test_eval_symbolic_midpoint():
    code, out, _ = run_cli("eval", "gb", "Q/2", "--b", "0.8")
    rec = json.loads(out)
    assert code == 0
    assert abs(abs(complex(rec["value"]["re"], rec["value"]["im"])) - 1.0) < 1e-8


def test_eval_pole_exit_code():
    code, _, err = run_cli("eval", "gamma", "--", "-1.0")
    assert code == 2
    assert "pole" in err


@pytest.mark.parametrize("argv", [
    ("hyp2f1", "0.5", "1.3", "2.1", "-0.4", "--tol", "1e-9"),
    ("fb", "0.4", "0.6", "1.1", "-0.5", "--b", "0.8", "--tol", "1e-6"),
])
def test_eval_contour_functions_report_the_quadrature_error(argv):
    code, out, _ = run_cli("eval", *argv)
    assert code == 0
    rec = json.loads(out)
    assert rec["backend"] == "contour"
    assert 0 < rec["err_estimate"] <= float(argv[-1])


@pytest.mark.parametrize("argv, fn, arg", [
    (("eval", "gamma", "-0.5+0.1i"), "gamma", -0.5 + 0.1j),
    (("eval", "gb", "-0.5i", "--b", "0.8"), "gb", -0.5j),
    (("eval", "gb", "-Q/2", "--b", "0.8"), "gb", -from_b(0.8).Q / 2),
])
def test_eval_takes_negative_complex_values(capsys, argv, fn, arg):
    # a token starting with '-' that parse_complex reads is a value, not an option
    assert main(list(argv)) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["function"] == fn and rec["args"] == [{"re": arg.real, "im": arg.imag}]
    code, out, err = run_cli(*argv)
    assert code == 0 and err == "" and json.loads(out) == rec


@pytest.mark.parametrize("argv", [
    ("eval", "gb", "--b", "0.8", "0.5"),
    ("eval", "gb", "--b", "0.8", "--tol", "1e-10", "0.5"),
    ("eval", "gb", "--b", "0.8", "--", "0.5"),
])
def test_eval_takes_options_before_the_values(capsys, argv):
    assert main(list(argv)) == 0
    rec = json.loads(capsys.readouterr().out)
    assert main(["eval", "gb", "0.5", "--b", "0.8"]) == 0
    assert json.loads(capsys.readouterr().out) == rec
    assert run_cli(*argv) == (0, json.dumps(rec, sort_keys=True) + "\n", "")


@pytest.mark.parametrize("token", ["inf", "-inf", "infinity", "1+infi", "-infi"])
def test_eval_infinite_value_is_a_domain_error(token):
    # 'inf' keeps its i: it is read as infinity, as 'nan' is read as NaN
    assert cli._complex_or_none(token) is not None
    assert run_cli("eval", "gamma", token) == (2, "", f"domain error: non-finite value {token!r}\n")


def test_usage_exit_code():
    code, _, _ = run_cli("bogus-subcommand")
    assert code == 64


@pytest.mark.parametrize("argv, code", [
    (("eval", "gamma"), 64),
    (("eval", "fb", "0.4", "0.6", "--b", "0.8"), 64),
    (("eval", "ckernel", "0.4", "1.0"), 64),
    (("eval", "qkernel", "0.3", "0.8", "--b", "0.8"), 64),
    (("eval", "coaction-kernel", "0.3", "--b", "0.8"), 64),
    (("eval", "ckernel", "0.4", "1.0", "2.0", "--kind", "nope"), 2),
    (("eval", "qkernel", "0.3", "0.8", "1.1", "--b", "0.8", "--kind", "nope"), 2),
    (("eval", "ckernel", "0.4+1i", "1.0", "2.0"), 2),
    (("eval", "coaction-kernel", "0.3", "0.5+0.2i", "--b", "0.8"), 2),
    (("transform", "--which", "classical", "--direction", "forward",
      "--input", "{truncated}", "--output", "{out}"), 2),
    (("eval", "gb", "0.5", "--b", "0.8", "--tol", "0"), 64),
    (("eval", "gb", "0.5", "--b2", "0.3+0.4i", "--tol", "0"), 64),
    (("eval", "gb", "0.5", "--b", "0.8", "--tol", "-1"), 64),
    (("eval", "gb", "0.5", "--b", "0.8", "--tol", "nan"), 64),
    (("verify", "q-binomial", "--tol", "inf"), 64),
    (("eval", "gamma", "nan"), 2),
    (("eval", "fb", "0.4", "0.6", "0.5", "nan", "--b", "0.8"), 2),
    (("eval", "gb", "0.5+nani", "--b", "0.8"), 2),
    (("eval", "hyp2f1", "0.3", "1", "2", "nan"), 2),
    (("eval", "gamma", "200"), 2),
    (("eval", "gb", ".Q", "--b", "0.8"), 2),
    (("eval", "gb", "-14.504-9.147i", "--b2", "0.3+0.4i"), 2),
])
def test_bad_invocation_exit_codes(tmp_path, argv, code):
    # a wrong value count or a --tol that is not a positive finite number is a
    # usage error, an unknown kind, unparsable transform input or a non-finite
    # value or result a domain error: an exit code and one line, no traceback
    truncated = tmp_path / "truncated.json"
    truncated.write_text((DATA / "gaussian_forward.json").read_text()[:60])
    argv = [a.format(truncated=truncated, out=tmp_path / "o.json") for a in argv]
    got, out, err = run_cli(*argv)
    assert got == code and "NaN" not in out
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    if argv[0] == "transform":
        assert "transform input schema violation" in err
    if code == 2 and (bad := [a for a in argv if "nan" in a]):
        assert err == f"domain error: non-finite value {bad[0]!r}\n"
    if "-14.504-9.147i" in argv:  # a value, once read as an unknown option (64)
        assert err == "domain error: G_b underflows to 0 at (-14.504-9.147j) (log G_b = -873.378+4.66636j)\n"


def test_verify_determinism(tmp_path):
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1, _, _ = run_cli("verify", "q-binomial", "--seed", "42", "--out", str(f1))
    code2, _, _ = run_cli("verify", "q-binomial", "--seed", "42", "--out", str(f2))
    assert code1 == 0 and code2 == 0
    assert f1.read_bytes() == f2.read_bytes()
    rep = json.loads(f1.read_text())
    assert rep["pass"] is True and rep["n_pass"] == rep["n_total"]


@pytest.mark.parametrize("suite", ["q-binomial", "limits"])
def test_verify_forced_failure_exit(suite):
    # --tol replaces every check's tolerance, the limit checks' included
    code, out, _ = run_cli("verify", suite, "--tol", "1e-30")
    assert code == 1
    rep = json.loads(out)
    assert rep["pass"] is False
    assert all(c["tol"] == 1e-30 for c in rep["checks"])


def test_verify_unknown_suite():
    code, _, _ = run_cli("verify", "no-such-suite")
    assert code == 2


def test_table_glim(tmp_path):
    out_csv = tmp_path / "glim.csv"
    code, _, _ = run_cli("table", "--kind", "glim", "--points", "0.5;1.5",
                         "--r-schedule", "0.1,0.05,0.025", "--out", str(out_csv))
    assert code == 0
    rows = out_csv.read_text().strip().splitlines()
    assert rows[0] == "x_re,x_im,r,residual"
    assert len(rows) == 7
    # residuals strictly decreasing within each x group
    res = [float(r.split(",")[3]) for r in rows[1:]]
    assert res[0] > res[1] > res[2] and res[3] > res[4] > res[5]


@pytest.mark.parametrize("kind, points, header, residual", [
    ("kernel-limit", "0.5,1.0,1.5;0.3,0.8,1.3", "lam,t1,t2,r,residual", qtransform.kernel_limit_residual),
    ("coaction-limit", "0.3,0.9;0,0.5", "x,z,r,residual", corep.coaction_limit_residual),
])
def test_table_limit_kinds(tmp_path, kind, points, header, residual):
    out_csv = tmp_path / "table.csv"
    code, _, _ = run_cli("table", "--kind", kind, "--points", points,
                         "--r-schedule", "0.1,0.05", "--out", str(out_csv))
    assert code == 0
    rows = out_csv.read_text().strip().splitlines()
    assert rows[0] == header
    assert len(rows) == 5
    *point, r, res = (float(v) for v in rows[3].split(","))  # second point, r = 0.1
    assert r == 0.1 and res == residual(*point, r)


def test_table_empty_grid():
    code, out, _ = run_cli("table", "--kind", "glim", "--points", "",
                           "--r-schedule", "0.1,0.05")
    assert code == 0
    assert out.strip() == "x_re,x_im,r,residual"


def test_table_bad_schedule():
    code, _, _ = run_cli("table", "--kind", "glim", "--points", "0.5",
                         "--r-schedule", "0.05,0.1")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (("--kind", "kernel-limit", "--points", "0.5,1", "--r-schedule", "0.1"),
     "error: a kernel-limit point takes 3 values, got 2\n"),
    (("--kind", "kernel-limit", "--points", "a,b", "--r-schedule", "0.1"),
     "error: expected comma-separated numbers, got 'a,b'\n"),
    (("--kind", "glim", "--points", "0.5", "--r-schedule", "0.1,abc"),
     "error: expected comma-separated numbers, got '0.1,abc'\n"),
])
def test_table_malformed_tokens_are_usage_errors(capsys, argv, message):
    # one line and exit 64, as for an eval with the wrong number of values
    assert run_cli("table", *argv) == (64, "", message)
    assert main(["table", *argv]) == 64
    assert capsys.readouterr() == ("", message)


def test_transform_classical_matches_fixture(tmp_path):
    out_json = tmp_path / "fw.json"
    code, _, _ = run_cli("transform", "--which", "classical", "--direction", "forward",
                         "--input", str(DATA / "gaussian_forward.json"),
                         "--output", str(out_json))
    assert code == 0
    got = json.loads(out_json.read_text())
    expected = json.loads((DATA / "classical_forward_expected.json").read_text())
    for g, e in zip(got["values"], expected["values"]):
        assert abs(g["value"]["re"] - e["value"]["re"]) < 1e-9
        assert abs(g["value"]["im"] - e["value"]["im"]) < 1e-9


@pytest.mark.parametrize("which", ["classical", "quantum"])
@pytest.mark.parametrize("direction, data", [("forward", "gaussian_forward.json"),
                                             ("inverse", "gaussian_pair.json")])
def test_transform_err_is_the_quadrature_estimate(tmp_path, which, direction, data):
    out_json = tmp_path / "o.json"
    code, _, _ = run_cli("transform", "--which", which, "--direction", direction,
                         "--input", str(DATA / data), "--output", str(out_json))
    assert code == 0
    tol = json.loads((DATA / data).read_text())["tol"]
    values = json.loads(out_json.read_text())["values"]
    assert values
    for v in values:
        assert np.isfinite(v["err"]) and 0 <= v["err"] <= tol and v["err"] != tol


def _roundtrip_values(tmp_path, which):
    out_json = tmp_path / "rt.json"
    code, _, _ = run_cli("transform", "--which", which, "--direction", "roundtrip",
                         "--input", str(DATA / "gaussian_pair.json"),
                         "--output", str(out_json))
    assert code == 0
    return json.loads(out_json.read_text())["values"]


def test_transform_quantum_roundtrip(tmp_path):
    assert all(v["roundtrip_error"] < 1e-3 for v in _roundtrip_values(tmp_path, "quantum"))


def test_transform_classical_roundtrip(tmp_path):
    values = _roundtrip_values(tmp_path, "classical")
    assert [(v["t1"], v["t2"]) for v in values] == [(0.4, 0.6), (0.3, 0.9)]
    assert all(v["roundtrip_error"] < 1e-3 for v in values)


def test_transform_schema_violation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"terms": [{"f1": {}}]}')
    code, _, _ = run_cli("transform", "--which", "classical", "--direction", "forward",
                         "--input", str(bad), "--output", str(tmp_path / "o.json"))
    assert code == 2
    # grid points carry (t1, t2), not the (lam, t) a forward transform needs
    code, _, err = run_cli("transform", "--which", "classical", "--direction", "forward",
                           "--input", str(DATA / "gaussian_pair.json"),
                           "--output", str(tmp_path / "o.json"))
    assert code == 2
    assert "schema violation" in err
    src = json.loads((DATA / "gaussian_pair.json").read_text())
    src["tol"] = "tight"
    bad.write_text(json.dumps(src))
    code, _, _ = run_cli("transform", "--which", "quantum", "--direction", "inverse",
                         "--input", str(bad), "--output", str(tmp_path / "o.json"))
    assert code == 2


def test_transform_empty_grid(tmp_path):
    src = json.loads((DATA / "gaussian_forward.json").read_text())
    src["grid"] = []
    inp = tmp_path / "empty.json"
    inp.write_text(json.dumps(src))
    out_json = tmp_path / "o.json"
    code, _, _ = run_cli("transform", "--which", "classical", "--direction", "forward",
                         "--input", str(inp), "--output", str(out_json))
    assert code == 0
    assert json.loads(out_json.read_text())["values"] == []


def test_main_entrypoint_inprocess(capsys):
    assert main(["eval", "gamma", "2.0"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert abs(rec["value"]["re"] - 1.0) < 1e-12


def test_usage_error_returns_64_in_process(capsys):
    assert main(["eval"]) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage: qplane eval") and "error: the following arguments" in err


def test_help_returns_0_in_process(capsys, monkeypatch):
    # -h prints the help a fresh interpreter prints and returns, not exits
    monkeypatch.setenv("COLUMNS", "80")  # the help wraps at the terminal width
    expected = run_cli("eval", "-h")
    assert (main(["eval", "-h"]), *capsys.readouterr()) == expected
    assert expected[0] == 0 and expected[1].startswith("usage: qplane eval")
    assert main(["--help"]) == 0 and "verify" in capsys.readouterr().out


def test_reused_parser_leaks_no_state(tmp_path, capsys, monkeypatch):
    # main reuses one parser for the process: each in-process call must print
    # what a fresh interpreter prints for the same argv, whatever came before
    monkeypatch.setenv("COLUMNS", "80")  # the usage lines wrap at the terminal width
    out_path = str(tmp_path / "eval.json")
    sequence = [
        ["eval", "qkernel", "0.3", "0.8", "1.1", "--b", "0.8", "--kind", "F_ceil_star"],
        ["eval", "qkernel", "0.3", "0.8", "1.1", "--b", "0.8"],
        ["eval", "gb", "0.5", "--b", "0.8", "--json"],
        ["eval", "gb", "0.5", "--b", "0.8"],
        ["eval", "gamma", "0.5", "--out", out_path],
        ["eval", "gamma", "0.5"],
        ["eval", "gb", "0.5", "--b2", "0.3+0.4i", "--tol", "1e-6"],
        ["eval", "gb", "0.5", "--b2", "0.3+0.4i"],
        ["eval", "gb", "0.5", "--b", "0.8", "--nope"],
        ["eval", "coaction-kernel", "0.3", "0.8", "--b", "0.8"],
    ]
    for argv in sequence:
        expected = run_cli(*argv)
        written = Path(out_path).read_bytes() if "--out" in argv else None
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected, argv
        if written is not None:
            assert Path(out_path).read_bytes() == written
    assert cli._parser.cache_info().misses <= 1


@pytest.mark.parametrize("argv, n_factors", [
    (("qkernel", "0.3", "0.8", "1.1", "--kind", "F_floor_star"), 3),
    (("qkernel", "0.3", "0.8", "1.1", "--kind", "F_ceil_star"), 3),
    (("qkernel", "0.3", "0.8", "1.1", "0.2", "--kind", "floor_star"), 2),
    (("qkernel", "0.3", "0.8", "1.1", "0.2", "--kind", "ceil_star"), 2),
    (("qkernel", "0.3", "0.8", "1.1", "0.2", "--kind", "floor"), 1),
    (("qkernel", "0.3", "0.8", "1.1", "0.2", "--kind", "ceil"), 1),
    (("coaction-kernel", "0.3", "0.8"), 1),
])
def test_eval_kernel_evaluates_each_gb_factor_once(capsys, monkeypatch, argv, n_factors):
    # the error estimate comes with the factors' values: no second evaluation
    calls = []
    gb_eval = qd._gb_eval
    monkeypatch.setattr(qd, "_gb_eval", lambda *a: calls.append(a) or gb_eval(*a))
    assert main(["eval", *argv, "--b", "0.8"]) == 0
    assert json.loads(capsys.readouterr().out)["err_estimate"] > 0
    assert len(calls) == n_factors


@pytest.mark.parametrize("argv", [
    ("qkernel", "0.3", "0.8", "1.1", "--b", "0.8"),
    ("qkernel", "0.3", "0.8", "1.1", "--b", "0.8", "--kind", "F_ceil_star"),
    ("qkernel", "0.3", "0.8", "1.1", "0.2", "--b", "0.8", "--kind", "floor_star"),
    ("qkernel", "0.3", "0.8", "1.1", "--b2", "0.3+0.4i"),
    ("coaction-kernel", "0.3", "0.8", "--b", "0.8"),
    ("coaction-kernel", "0.3", "3.8", "--b", "1.2"),
])
def test_kernel_err_estimate_bounds_the_error(capsys, argv):
    def run(tol):
        assert main(["eval", *argv, "--tol", str(tol)]) == 0
        rec = json.loads(capsys.readouterr().out)
        return complex(rec["value"]["re"], rec["value"]["im"]), rec["err_estimate"], rec["backend"]

    ref, _, _ = run(1e-13)
    for tol in (1e-8, 1e-10):
        value, err, backend = run(tol)
        assert backend in ("integral", "functional-continuation", "product")
        assert 0 < err and abs(value - ref) <= err + 1e-13 * abs(value)
