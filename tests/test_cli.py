import json
import os
import pathlib
import subprocess
import sys

import pytest

from wickweights.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_weights_text(capsys):
    code, out, _ = run(capsys, "weights", "--ensemble", "orthogonal", "--kappa", "2")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip().startswith("(")]
    assert len(lines) == 4
    assert "(N) / (2)" in out                       # the single-trace coefficient
    assert "(-N^3) / (4*N^2 + 4*N - 8)" in out      # the two-trace coefficient


def test_weights_json_schema(capsys):
    code, out, _ = run(capsys, "weights", "--ensemble", "coe", "--kappa", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["ensemble"] == "coe" and obj["kappa"] == 2
    assert [e["partition"] for e in obj["coefficients"]] == [[], [1], [2], [1, 1]]
    entry = obj["coefficients"][1]["value"]
    assert set(entry) == {"num", "den"}
    assert all(isinstance(c, str) for c in entry["num"] + entry["den"])


def test_weights_byte_identical(capsys):
    _, out1, _ = run(capsys, "weights", "--ensemble", "orthogonal", "--kappa", "2")
    _, out2, _ = run(capsys, "weights", "--ensemble", "orthogonal", "--kappa", "2")
    assert out1 == out2


def test_weights_kappa_zero_usage_error(capsys):
    code, _, _ = run(capsys, "weights", "--ensemble", "orthogonal", "--kappa", "0")
    assert code == 2


def test_unknown_ensemble_usage_error(capsys):
    code, _, _ = run(capsys, "weights", "--ensemble", "symplectic", "--kappa", "2")
    assert code == 2


def test_cost_warning_above_four(capsys):
    # kappa=5 would be slow; just check the arg path emits the warning for
    # a command that fails later on purpose (bad monomial)
    code, _, err = run(capsys, "integrate", "--ensemble", "orthogonal", "--kappa", "5",
                       "--monomial", "M[1,1")
    assert code == 2
    assert "warning" in err


def test_moment_command(capsys):
    code, out, _ = run(capsys, "moment", "--ensemble", "orthogonal", "--invariants", "2")
    assert code == 0 and out.strip() == "2*N + 1"
    code, out, _ = run(capsys, "moment", "--ensemble", "unitary", "--invariants", "2")
    assert code == 0 and out.strip() == "2*N"
    code, out, _ = run(capsys, "moment", "--ensemble", "orthogonal", "--invariants", "1|1")
    assert code == 0 and out.strip() == "N^2 + 2"


def test_moment_parse_error(capsys):
    code, _, err = run(capsys, "moment", "--ensemble", "orthogonal", "--invariants", "2,x")
    assert code == 2 and "error" in err


def test_integrate_concrete(capsys):
    code, out, _ = run(capsys, "integrate", "--ensemble", "orthogonal", "--kappa", "2",
                       "--monomial", "M[1,1] M[1,1] M[1,1] M[1,1]")
    assert code == 0
    assert out.strip() == "(3) / (N^2 + 2*N)"


def test_integrate_at_dimension(capsys):
    code, out, _ = run(capsys, "integrate", "--ensemble", "orthogonal", "--kappa", "2",
                       "--monomial", "M[1,1] M[1,1] M[1,1] M[1,1]", "--at", "2")
    assert code == 0
    assert "= 3/8" in out


def test_integrate_odd_is_zero(capsys):
    code, out, _ = run(capsys, "integrate", "--ensemble", "orthogonal", "--kappa", "2",
                       "--monomial", "M[1,1]")
    assert code == 0 and out.strip() == "0"


def test_integrate_symbolic_text_and_json(capsys):
    code, out, _ = run(capsys, "integrate", "--ensemble", "orthogonal", "--kappa", "1",
                       "--monomial", "M[i,a] M[j,a]")
    assert code == 0 and "d(i,j)" in out
    code, out, _ = run(capsys, "integrate", "--ensemble", "orthogonal", "--kappa", "1",
                       "--monomial", "M[i,a] M[j,a]", "--format", "json")
    obj = json.loads(out)
    assert obj == [{"deltas": [["i", "j"]], "coeff": {"num": ["1"], "den": ["0", "1"]}}]


def test_integrate_rejects_conjugation_for_orthogonal(capsys):
    code, _, err = run(capsys, "integrate", "--ensemble", "orthogonal", "--kappa", "2",
                       "--monomial", "M[1,1] Mc[1,1]")
    assert code == 2 and "conjugated" in err


def test_integrate_pole_reported(capsys):
    code, _, err = run(capsys, "integrate", "--ensemble", "orthogonal", "--kappa", "2",
                       "--monomial", "M[1,1] M[1,1] M[1,1] M[1,1]", "--at", "-2")
    assert code == 2 and "N + 2" in err


def test_verify_commands(capsys):
    code, out, _ = run(capsys, "verify", "--ensemble", "orthogonal", "--kappa", "1")
    assert code == 0 and "ok" in out
    code, out, _ = run(capsys, "verify", "--ensemble", "orthogonal", "--kappa", "2")
    assert code == 0
    assert "observed beta=2" in out
    code, out, _ = run(capsys, "verify", "--ensemble", "coe", "--kappa", "2")
    assert code == 0


def test_sample_with_expectation(capsys):
    code, out, _ = run(capsys, "sample", "--ensemble", "orthogonal",
                       "--monomial", "M[1,1] M[1,1]", "--N", "8",
                       "--samples", "20000", "--seed", "7", "--expect", "1/8")
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True and obj["seed"] == 7


def test_sample_negative_control(capsys):
    code, out, _ = run(capsys, "sample", "--ensemble", "orthogonal",
                       "--monomial", "M[1,1] M[1,1]", "--N", "8",
                       "--samples", "20000", "--seed", "7", "--expect", "9/8")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_sample_plain_estimate(capsys):
    code, out, _ = run(capsys, "sample", "--ensemble", "unitary",
                       "--monomial", "M[1,1] Mc[1,1]", "--N", "8",
                       "--samples", "20000", "--seed", "3")
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["mc_mean"] - 0.125) < 0.01
    assert obj["samples"] == 20000


def test_sample_too_few_samples(capsys):
    code, _, err = run(capsys, "sample", "--ensemble", "orthogonal",
                       "--monomial", "M[1,1] M[1,1]", "--N", "8",
                       "--samples", "100", "--seed", "7")
    assert code == 2 and "10^4" in err


def test_sample_coe_offdiagonal(capsys):
    code, out, _ = run(capsys, "sample", "--ensemble", "coe",
                       "--monomial", "M[1,2] Mc[1,2]", "--N", "8",
                       "--samples", "30000", "--seed", "5", "--expect", "1/9")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_import_without_numpy():
    # start-up loads numpy only when the Monte Carlo oracle is asked for
    code = (
        "import sys, wickweights.cli\n"
        "assert 'numpy' not in sys.modules, 'numpy imported at start-up'\n"
        "from wickweights import mc_integrate\n"
        "assert 'numpy' in sys.modules and callable(mc_integrate)\n"
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
