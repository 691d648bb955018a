import json
import os
import pathlib
import subprocess
import sys

from wickweights import cli
from wickweights.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _run_python(code: str, timeout: int = 120) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports the package from src/."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=timeout)


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


def test_cost_warning_per_command(capsys, monkeypatch):
    # each command warns above its own kappa, and integrate also above 14
    # factors, before any work: the patched solve refuses at once
    def refuse(ensemble, kappa):
        raise ValueError("not solved")

    monkeypatch.setattr(cli, "solve_weight", refuse)
    for command, quiet in (("weights", 14), ("integrate", 14), ("verify", 10)):
        extra = ("--monomial", "M[1,1] Mc[1,1]") if command == "integrate" else ()
        for kappa in (quiet, quiet + 1):
            code, _, err = run(capsys, command, "--ensemble", "coe", "--kappa", str(kappa), *extra)
            assert code == 2 and "error" in err
            assert ("warning" in err) == (kappa > quiet), (command, kappa)
    for pairs in (7, 8):
        monomial = " ".join(["M[1,1] Mc[1,1]"] * pairs)
        code, _, err = run(capsys, "integrate", "--ensemble", "coe", "--kappa", "1", "--monomial", monomial)
        assert code == 2 and "error" in err
        assert ("warning" in err) == (pairs > 7), pairs
    assert "degree 16 has up to 15!! index structures" in err
    # the monomial is parsed first: one that does not parse warns of nothing
    code, _, err = run(capsys, "integrate", "--ensemble", "coe", "--kappa", "15", "--monomial", "M[1,1")
    assert code == 2 and "error" in err and "warning" not in err


# verify-cli's session: verify at kappa=3 in each ensemble and six integrals, one of them unitary kappa=4
_SESSION = [("verify", "--ensemble", e, "--kappa", "3") for e in ("orthogonal", "unitary", "coe")] + [
    ("integrate", "--ensemble", e, "--kappa", str(k), "--monomial", mono, "--at", str(n))
    for e, k, mono, n in [
        ("orthogonal", 3, "M[1,1] M[1,1] M[1,1] M[1,1] M[1,1] M[1,1]", 11),
        ("orthogonal", 3, "M[1,1] M[1,1] M[1,2] M[1,2]", 12),
        ("unitary", 3, "M[1,1] Mc[1,1] M[1,1] Mc[1,1] M[1,1] Mc[1,1]", 13),
        ("coe", 3, "M[1,1] Mc[1,1]", 14),
        ("coe", 3, "M[1,1] Mc[1,1] M[1,1] Mc[1,1]", 15),
        ("unitary", 4, "M[1,1] Mc[1,1] M[1,1] Mc[1,1] M[1,1] Mc[1,1] M[1,1] Mc[1,1]", 16),
    ]
] + [("weights", "--ensemble", e, "--kappa", "4", "--format", "json") for e in ("orthogonal", "unitary", "coe")]


def test_no_run_builds_or_solves_a_gram_system(capsys, monkeypatch):
    # every weight is the closed form, so the session prints the same when
    # the Gram build and the linear solver refuse to run
    from wickweights import algebra, weights

    want = [run(capsys, *argv) for argv in _SESSION]
    assert all(code == 0 and out for code, out, _ in want)

    def refuse(*args, **kwargs):
        raise AssertionError("a run built or solved a Gram system")

    monkeypatch.setattr(weights, "build_gram_system", refuse)
    monkeypatch.setattr(algebra, "solve_linear_system", refuse)
    assert [run(capsys, *argv) for argv in _SESSION] == want


def test_threads_is_usage_error(capsys):
    assert main(["--threads", "2", "moment", "--ensemble", "orthogonal", "--invariants", "2"]) == 2
    assert main(["--threads=2", "moment", "--ensemble", "orthogonal", "--invariants", "2"]) == 2
    assert main(["moment", "--ensemble", "orthogonal", "--invariants", "2", "--threads", "2"]) == 2


def test_moment_command(capsys):
    code, out, _ = run(capsys, "moment", "--ensemble", "orthogonal", "--invariants", "2")
    assert code == 0 and out.strip() == "2*N + 1"
    code, out, _ = run(capsys, "moment", "--ensemble", "unitary", "--invariants", "2")
    assert code == 0 and out.strip() == "2*N"
    code, out, _ = run(capsys, "moment", "--ensemble", "orthogonal", "--invariants", "1|1")
    assert code == 0 and out.strip() == "N^2 + 2"


def test_moment_parse_error(capsys):
    # the parser names the flag and says what is wrong
    for text in ("2,x", "a", "0", "2,1|"):
        code, _, err = run(capsys, "moment", "--ensemble", "orthogonal", "--invariants", text)
        assert code == 2 and "error" in err and "--invariants" in err and "positive parts" in err, text


def test_moment_too_deep_is_usage_error(capsys):
    # far above the power limit, where the loop equation would also recurse too deep
    code, out, err = run(capsys, "moment", "--ensemble", "unitary", "--invariants", "1200")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_moment_above_the_power_limit_is_refused_before_any_work(capsys, monkeypatch):
    # total power 45 is one above the limit; 44 is accepted
    from wickweights import wick

    def never(*args):
        raise AssertionError("the loop equation ran")

    monkeypatch.setattr(wick, "_loop_numerator", never)
    code, out, err = run(capsys, "moment", "--ensemble", "unitary", "--invariants", "40,4|1")
    assert code == 2 and out == ""
    assert err == "error: total trace power 45 exceeds the limit of 44\n"
    monkeypatch.setattr(wick, "_loop_numerator", lambda ensemble, powers: (1,))
    assert run(capsys, "moment", "--ensemble", "unitary", "--invariants", "40,3|1") == (0, "(1) / (N^44)\n", "")


def test_integrate_concrete(capsys):
    code, out, _ = run(capsys, "integrate", "--ensemble", "orthogonal", "--kappa", "2",
                       "--monomial", "M[1,1] M[1,1] M[1,1] M[1,1]")
    assert code == 0
    assert out.strip() == "(3) / (N^2 + 2*N)"
    code, out, _ = run(capsys, "integrate", "--ensemble", "orthogonal", "--kappa", "2",
                       "--monomial", "M[1,1] M[1,1]", "--format", "json")
    assert code == 0
    assert json.loads(out) == [{"deltas": [], "coeff": {"num": ["1"], "den": ["0", "1"]}}]
    code, out, err = run(capsys, "integrate", "--ensemble", "orthogonal", "--kappa", "2",
                         "--monomial", "M[1,1] M[1,1]", "--format", "json", "--at", "5")
    assert code == 2 and out == "" and "--at" in err


def test_integrate_at_dimension(capsys):
    code, out, _ = run(capsys, "integrate", "--ensemble", "orthogonal", "--kappa", "2",
                       "--monomial", "M[1,1] M[1,1] M[1,1] M[1,1]", "--at", "2")
    assert code == 0
    assert "= 3/8" in out


def test_integrate_odd_is_zero(capsys):
    # a zero expansion prints no --at header
    for ens, monomial, extra, want in (("orthogonal", "M[1,1]", ("--format", "text"), "0"),
                                       ("orthogonal", "M[i,j]", ("--format", "text"), "0"),
                                       ("orthogonal", "M[i,j]", ("--format", "json"), "[]"),
                                       ("unitary", "M[i,j]", ("--at", "3"), "0")):
        code, out, _ = run(capsys, "integrate", "--ensemble", ens, "--kappa", "2", "--monomial", monomial, *extra)
        assert code == 0 and out.strip() == want, (ens, monomial, extra)


def test_integrate_symbolic_text_and_json(capsys):
    code, out, _ = run(capsys, "integrate", "--ensemble", "orthogonal", "--kappa", "1",
                       "--monomial", "M[i,a] M[j,a]")
    assert code == 0 and "d(i,j)" in out
    code, out, _ = run(capsys, "integrate", "--ensemble", "orthogonal", "--kappa", "1",
                       "--monomial", "M[i,a] M[j,a]", "--at", "5")
    assert code == 0 and out.splitlines()[-2:] == ["-- coefficients at N = 5:", "  1/5"]
    code, out, _ = run(capsys, "integrate", "--ensemble", "orthogonal", "--kappa", "1",
                       "--monomial", "M[i,a] M[j,a]", "--format", "json")
    obj = json.loads(out)
    assert obj == [{"deltas": [["i", "j"]], "coeff": {"num": ["1"], "den": ["0", "1"]}}]


def test_integrate_symbolic_mixed_anchors(capsys):
    # d(i,j) and d(i,j,2) hold the same labels, one pinned to an index
    argv = ("integrate", "--ensemble", "orthogonal", "--kappa", "2",
            "--monomial", "M[i,2] M[i,2] M[j,i] M[j,i]")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert [ln.split()[0] for ln in out.splitlines()] == ["1", "d(i,2)", "d(i,j)", "d(i,j,2)"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and len(json.loads(out)) == 4


def test_empty_monomial_is_usage_error(capsys):
    for argv in (("integrate", "--ensemble", "orthogonal", "--kappa", "1", "--monomial", ""),
                 ("sample", "--ensemble", "unitary", "--monomial", " ", "--N", "4", "--samples", "10000")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "at least one factor" in err, argv


def test_integrate_rejects_conjugation_for_orthogonal(capsys):
    code, _, err = run(capsys, "integrate", "--ensemble", "orthogonal", "--kappa", "2",
                       "--monomial", "M[1,1] Mc[1,1]")
    assert code == 2 and "conjugated" in err


def test_integrate_pole_reported(capsys):
    # a pole is found before anything is printed, for concrete and symbolic monomials
    for monomial, at, factor in (("M[1,1] M[1,1] M[1,1] M[1,1]", "-2", "N + 2"),
                                 ("M[1,1] M[1,1]", "0", "factor N "),
                                 ("M[i,j] M[k,l]", "0", "factor N ")):
        code, out, err = run(capsys, "integrate", "--ensemble", "orthogonal", "--kappa", "2",
                             "--monomial", monomial, "--at", at)
        assert code == 2 and out == "" and factor in err


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
    assert code == 2 and "10^4" in err and "--samples" in err


def test_sample_negative_seed(capsys):
    code, _, err = run(capsys, "sample", "--ensemble", "orthogonal",
                       "--monomial", "M[1,1] M[1,1]", "--N", "8",
                       "--samples", "20000", "--seed", "-1")
    assert code == 2 and "--seed" in err and ">= 0" in err


def test_sample_bad_expect(capsys):
    # refused by the parser, before any sampling
    for text in ("1/0", "abc"):
        code, out, err = run(capsys, "sample", "--ensemble", "orthogonal",
                             "--monomial", "M[1,1] M[1,1]", "--N", "8", "--expect", text)
        assert code == 2 and out == "" and "--expect" in err and "not a rational number" in err, text


def test_sample_coe_offdiagonal(capsys):
    code, out, _ = run(capsys, "sample", "--ensemble", "coe",
                       "--monomial", "M[1,2] Mc[1,2]", "--N", "8",
                       "--samples", "30000", "--seed", "5", "--expect", "1/9")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_import_without_numpy():
    # start-up loads numpy only when the Monte Carlo oracle is asked for, and
    # json only when a command writes JSON
    code = (
        "import sys, wickweights.cli\n"
        "assert 'numpy' not in sys.modules, 'numpy imported at start-up'\n"
        "assert 'logging' not in sys.modules, 'logging imported at start-up'\n"
        "late = [m for m in ('dataclasses', 'inspect', 'json') if m in sys.modules]\n"
        "assert not late, f'{late} imported at start-up'\n"
        "from wickweights import mc_integrate\n"
        "assert 'numpy' in sys.modules and callable(mc_integrate)\n"
    )
    proc = _run_python(code, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_every_exported_name_resolves():
    import wickweights

    missing = [name for name in wickweights.__all__ if not hasattr(wickweights, name)]
    assert not missing


def test_run_touches_no_disk(tmp_path, monkeypatch, capsys):
    # every place a weight cache could live is one empty directory; nothing
    # is written there, and tables planted there are not read
    from wickweights.algebra import N, RatFunc, solve_linear_system
    from wickweights.weights import WeightFunction, build_gram_system
    from wickweights.wick import Ensemble

    for var in ("WICKWEIGHTS_CACHE_DIR", "XDG_CACHE_HOME", "HOME"):
        monkeypatch.setenv(var, str(tmp_path))
    commands = [
        ("weights", "--ensemble", "orthogonal", "--kappa", "2", "--format", "json"),
        ("verify", "--ensemble", "orthogonal", "--kappa", "2"),
        ("integrate", "--ensemble", "orthogonal", "--kappa", "2", "--monomial", "M[1,1] M[1,1]"),
    ]
    outputs = [run(capsys, *argv) for argv in commands]
    assert not any(tmp_path.iterdir())
    s = build_gram_system(Ensemble.ORTHOGONAL, 2)
    fresh = WeightFunction(Ensemble.ORTHOGONAL, 2, dict(zip(s.partitions, solve_linear_system(s.matrix, s.rhs))))
    assert outputs[0] == (0, json.dumps(fresh.to_json(), indent=2) + "\n", "")
    assert outputs[1][0] == 0 and "FAILED" not in outputs[1][1]
    assert outputs[2] == (0, f"{RatFunc(1, N)}\n", "")

    # a well-formed table with a_(1) = (N + 1)/2 for N/2, and a truncated file
    wrong = fresh.to_json()
    assert wrong["coefficients"][1]["partition"] == [1]
    wrong["coefficients"][1]["value"] = RatFunc(N + 1, 2).to_json()
    planted = {
        tmp_path / "weight_orthogonal_k2.json": json.dumps({"schema": 1, "payload": wrong}).encode(),
        tmp_path / "wickweights" / "weight_orthogonal_k2.json": b'{"schema": 1, "payload": ',
    }
    for path, content in planted.items():
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(content)
    assert [run(capsys, *argv) for argv in commands] == outputs
    proc = _run_python(
        "import sys\n"
        "from wickweights.cli import main\n"
        "assert main(['verify', '--ensemble', 'orthogonal', '--kappa', '2']) == 0\n"
        "assert 'wickweights.cache' not in sys.modules, 'wickweights.cache imported'\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == outputs[1][1]
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == planted


def test_integrate_kappa_4_degree_8_without_worker_processes():
    # Haar E[O_11^8] on O(N); the weight of order 4 reproduces it exactly
    from wickweights.algebra import N, RatFunc

    code = (
        "import sys\n"
        "from wickweights.cli import main\n"
        "rc = main(['integrate', '--ensemble', 'orthogonal', '--kappa', '4',\n"
        "           '--monomial', ' '.join(['M[1,1]'] * 8)])\n"
        "assert rc == 0, rc\n"
        "assert 'multiprocessing' not in sys.modules, 'multiprocessing imported'\n"
    )
    proc = _run_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(RatFunc(105, N * (N + 2) * (N + 4) * (N + 6)))


def test_non_integer_kappa_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--ensemble", "orthogonal", "--kappa", "1.5")
    assert code == 2 and "not an integer: '1.5'" in err
