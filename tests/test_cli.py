import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def test_eval_gb_fixture():
    code, out, _ = run_cli("eval", "gb", "0.5", "--b", "0.8")
    assert code == 0
    rec = json.loads(out)
    assert abs(complex(rec["value"]["re"], rec["value"]["im"])
               - (0.2372083709438624 - 0.6429814245704509j)) < 1e-9
    assert rec["backend"] in ("integral", "functional-continuation")


def test_eval_symbolic_midpoint():
    code, out, _ = run_cli("eval", "gb", "Q/2", "--b", "0.8")
    rec = json.loads(out)
    assert code == 0
    assert abs(abs(complex(rec["value"]["re"], rec["value"]["im"])) - 1.0) < 1e-8


def test_eval_pole_exit_code():
    code, _, err = run_cli("eval", "gamma", "--", "-1.0")
    assert code == 2
    assert "pole" in err


def test_usage_exit_code():
    code, _, _ = run_cli("bogus-subcommand")
    assert code == 64


def test_verify_determinism(tmp_path):
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1, _, _ = run_cli("verify", "q-binomial", "--seed", "42", "--out", str(f1))
    code2, _, _ = run_cli("verify", "q-binomial", "--seed", "42", "--out", str(f2))
    assert code1 == 0 and code2 == 0
    assert f1.read_bytes() == f2.read_bytes()
    rep = json.loads(f1.read_text())
    assert rep["pass"] is True and rep["n_pass"] == rep["n_total"]


def test_verify_forced_failure_exit():
    code, out, _ = run_cli("verify", "q-binomial", "--tol", "1e-30")
    assert code == 1
    rep = json.loads(out)
    assert rep["pass"] is False


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


def test_table_empty_grid():
    code, out, _ = run_cli("table", "--kind", "glim", "--points", "",
                           "--r-schedule", "0.1,0.05")
    assert code == 0
    assert out.strip() == "x_re,x_im,r,residual"


def test_table_bad_schedule():
    code, _, _ = run_cli("table", "--kind", "glim", "--points", "0.5",
                         "--r-schedule", "0.05,0.1")
    assert code == 2


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
