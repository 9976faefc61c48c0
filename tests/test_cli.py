import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from signchange import hadamard_norm_sq, oracles
from signchange.cli import run


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# exit code and stdout sha256 of each README example, recorded with the benchmark
CLI_GOLDENS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json").read_text()
)["cli"]


def test_readme_examples_match_goldens(capsys):
    mismatched = []
    for golden in CLI_GOLDENS:
        code, out, _ = run_cli(capsys, *golden["args"])
        digest = hashlib.sha256(out.encode()).hexdigest()
        if (code, digest) != (golden["exit"], golden["stdout_sha256"]):
            mismatched.append(golden["args"])
    assert len(CLI_GOLDENS) == 11
    assert mismatched == []


def test_eval_example(capsys):
    code, out, _ = run_cli(capsys, "eval", "--x=-24,-30,19,14,0", "--topo=circular")
    assert code == 0
    payload = json.loads(out)
    assert payload["c"] == 4
    assert payload["t"] == 3
    assert payload["sign"] == [-1, -1, 1, 1, 0]
    assert payload["norm_sq_l"] == 3.0
    assert payload["hadamard_norm_sq"] == 3.0


def test_eval_linear_topology(capsys):
    code, out, _ = run_cli(capsys, "eval", "--x=-24,-30,19,14,0", "--topo=linear")
    assert code == 0
    payload = json.loads(out)
    assert payload["t"] == 2
    assert "hadamard_norm_sq" not in payload


def test_eval_deterministic(capsys):
    _, first, _ = run_cli(capsys, "eval", "--x=1,0,-1", "--k=1/4")
    _, second, _ = run_cli(capsys, "eval", "--x=1,0,-1", "--k=1/4")
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--x=1,banana"),
        ("eval", "--x=1"),
        ("eval", "--x=1,2", "--topo=torus"),
        ("eval", "--x=1,2", "--k=one"),
        ("enum", "--n=1"),
        ("enum", "--n=20"),
        ("profile", "--x=1,-1", "--kx=1/4"),
        ("feascheck", "--z=1,5,0,0"),
        ("check-1d", "--sigma=nan"),
        ("check-1d", "--c1=inf"),
        ("nosuchcommand",),
        ("feascheck", "--z=0.5,1,1,1"),
        ("polysys", "--z=1,-1,1,-1", "--mu=inf,0,0,0"),
        ("sphere", "--which=3d", "--resolution=730"),
        # rationals the reports would print as floats beyond float64
        ("eval", "--x=1,-1", "--k=1e400"),
        ("profile", "--x=1,-1", "--kx=1e400", "--format=json"),
        # values eval would print beyond float64: a squared norm, exact until then, and a
        # Hadamard form that meets inf * 0 (pyproject.toml makes a RuntimeWarning an error)
        ("eval", "--x=1,-1", "--k=1e154"),
        ("eval", "--x=1,-1,0", "--k=1e200"),
        ("eval", "--x=1,1", "--k=1e200"),
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    code, _, _ = run_cli(capsys, *argv)
    assert code == 2


def test_verify_pass_and_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "hessian_table")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["checks"] == 72


def test_verify_failing_oracle_prints_report(capsys, monkeypatch):
    # a wrong library value, as in test_oracles.BROKEN_LIBRARY
    monkeypatch.setattr(oracles, "hadamard_norm_sq", lambda x, k: hadamard_norm_sq(x, k) + 1.0)
    code, out, _ = run_cli(capsys, "verify", "hadamard_n3")
    assert code == 1
    report = oracles.run_oracle("hadamard_n3")
    assert report.passed is False
    assert json.loads(out) == json.loads(json.dumps(dataclasses.asdict(report)))


def test_verify_unknown_oracle(capsys):
    code, _, err = run_cli(capsys, "verify", "bogus")
    assert code == 2
    assert "unknown oracle" in err


def test_verify_list(capsys):
    code, out, _ = run_cli(capsys, "verify", "--list")
    assert code == 0
    names = out.strip().split("\n")
    assert "ft_inequality_n4" in names
    assert "signminor_random" in names


def test_verify_requires_name(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2
    assert "oracle" in err


def test_profile_csv_golden(capsys):
    code, out, _ = run_cli(capsys, "profile", "--x=1,-1", "--kx=1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,gap"
    assert len(lines) == 101
    assert lines[1] == "0.005,-7.9998"
    assert lines[-1] == "0.5,-6.0"


def test_profile_json_displaced_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "profile",
        "--x=-1,1,1,0,-1,0,0",
        "--d=0,74,75,0,-40,-50,0",
        "--kx=1",
        "--format=json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["weak"] == 4
    assert payload["flips"] == 1
    assert payload["quad_coeff"] == 4
    assert payload["offset"] == -8.0


def test_enum_csv(capsys):
    code, out, _ = run_cli(capsys, "enum", "--n=2", "--format=csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "z1,z2,t"
    assert len(lines) == 10


def test_enum_slice(capsys):
    code, out, _ = run_cli(capsys, "enum", "--n=4", "--format=csv", "--first-component=-1")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 28
    assert all(line.startswith("-1,") for line in lines[1:])


def test_enum_json_summary(capsys):
    code, out, _ = run_cli(capsys, "enum", "--n=4")
    assert code == 0
    payload = json.loads(out)
    assert payload["histogram"] == {"0": 3, "2": 36, "3": 24, "4": 18}
    assert payload["symmetry"]["closed_under_negation"] is True


def test_check_1d_reports_honest_failure(capsys):
    code, out, _ = run_cli(capsys, "check-1d", "--c1=-4.8", "--sigma=1", "--grid=10000")
    payload = json.loads(out)
    assert payload["K"] == pytest.approx(22.687208, abs=1e-3)
    assert payload["passed"] is False
    assert code == 1
    assert abs(payload["objective_argmin"] + 4.8) < 0.05


def test_check_1d_csv(capsys):
    code, out, _ = run_cli(capsys, "check-1d", "--format=csv", "--grid=300")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,f,ineq_a,ineq_b,ineq_c"
    assert len(lines) == 301


def test_sphere_csv(capsys):
    code, out, _ = run_cli(capsys, "sphere", "--which=2d", "--resolution=20")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "phi1,lambda2"
    assert len(lines) == 21
    code, _, _ = run_cli(capsys, "sphere", "--which=2d", "--resolution=2")
    assert code == 2


def test_polysys_plain(capsys):
    code, out, _ = run_cli(capsys, "polysys", "--z=1,-1,1,-1", "--format=plain")
    assert code == 0
    assert "c1^2 + s1^2 - 1 = 0" in out
    assert "# sign changes t(z) = 4" in out


def test_polysys_json_parses(capsys):
    code, out, _ = run_cli(capsys, "polysys", "--z=0,1,0,-1")
    assert code == 0
    payload = json.loads(out)
    assert payload["metadata"]["candidate"] == [0, 1, 0, -1]


def test_polysys_mu_must_be_integer(capsys):
    code, _, err = run_cli(capsys, "polysys", "--z=1,-1,1,-1", "--mu=0.5,0,0,0")
    assert code == 2
    assert "integer" in err


def test_feascheck_single(capsys):
    code, out, _ = run_cli(capsys, "feascheck", "--z=1,-1,1,-1")
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is False
    assert payload["certificate"]["forced_values"] == ["2", "-2"]
    assert payload["certificate"]["directions"] == [[-2, 0, 0, 0], [-1, 0, 0, 0]]


def test_feascheck_all(capsys):
    code, out, _ = run_cli(capsys, "feascheck", "--all")
    assert code == 0
    payload = json.loads(out)
    assert payload["infeasible"] == 81
    assert payload["feasible"] == 0


def test_output_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "enum", "--n=2", "--format=csv", f"--out={target}")
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("z1,z2,t")
    # the file holds the bytes stdout gets, final newline included, for JSON and CSV
    for argv in (("feascheck", "--z=1,-1,1,-1"), ("enum", "--n=2", "--format=csv")):
        _, stdout, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, f"--out={target}")
        assert (code, out) == (0, "")
        assert target.read_bytes() == stdout.encode()


def test_help_documents_examples(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "feascheck --all" in out
    assert "eval --x=-24,-30,19,14,0" in out
