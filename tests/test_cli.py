import dataclasses
import hashlib
import json
import math
import re
import shlex
import warnings
from pathlib import Path

import pytest

from signchange import hadamard_norm_sq, oracles
from signchange.cli import build_parser, run


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


def test_handlers_return_no_json_text():
    # run alone encodes JSON: text that a handler returns is CSV or plain text, never JSON
    parser = build_parser()
    argvs = [golden["args"] for golden in CLI_GOLDENS]
    for argv in [*argvs, ["polysys", "--format=json"], ["verify", "--list"]]:
        args = parser.parse_args(argv)
        output = args.handler(args)[0]
        if isinstance(output, str):
            with pytest.raises(json.JSONDecodeError):
                json.loads(output)


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
        # a transition value 2k beyond float64, and 1-D residuals whose multiplier overflows
        ("eval", "--x=1,-1,0", "--k=1e308"),
        ("check-1d", "--c1=-700"),
        ("check-1d", "--c1=-700", "--format=csv"),
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


# name, status, checks, seconds and checks/s, as the verify handler formats them
TIMING_LINE = re.compile(r"(.+?)  (PASS|FAIL)  +([\d,]+) checks +(\d+\.\d{3}) s +([\d,]+) checks/s")
TOTALS_LINE = re.compile(r"(\d+) oracles, (\d+) failures:  +([\d,]+) checks +(\d+\.\d{3}) s +([\d,]+) checks/s")


def test_verify_all_writes_reports_to_stdout_and_timings_to_stderr(capsys):
    code, out, err = run_cli(capsys, "verify", "all")
    names = oracles.list_oracles()
    reports = [dataclasses.asdict(oracles.run_oracle(name)) for name in names]
    assert code == 0
    assert out == json.dumps(reports, indent=2, sort_keys=True) + "\n"
    *lines, totals = err.splitlines()
    assert len(lines) == len(names) == 48
    for name, report, line in zip(names, reports, lines):
        match = TIMING_LINE.fullmatch(line)
        assert match is not None, line
        assert match[1].rstrip() == name and match[2] == "PASS"
        assert int(match[3].replace(",", "")) == report["checks"]
    match = TOTALS_LINE.fullmatch(totals)
    assert match is not None, totals
    assert (int(match[1]), int(match[2])) == (48, 0)
    assert int(match[3].replace(",", "")) == sum(r["checks"] for r in reports) == 15_910_448
    # the totals span every oracle's run; each printed time is rounded by at most 0.0005 s
    assert float(match[4]) >= sum(float(TIMING_LINE.fullmatch(line)[4]) for line in lines) - 0.0005 * 49


def test_verify_failing_oracle_prints_report(capsys, monkeypatch):
    # a wrong library value, as in test_oracles.BROKEN_LIBRARY
    monkeypatch.setattr(oracles, "hadamard_norm_sq", lambda x, k: hadamard_norm_sq(x, k) + 1.0)
    code, out, err = run_cli(capsys, "verify", "hadamard_n3")
    assert code == 1
    report = oracles.run_oracle("hadamard_n3")
    assert report.passed is False
    assert json.loads(out) == json.loads(json.dumps(dataclasses.asdict(report)))
    line, totals = err.splitlines()
    assert TIMING_LINE.fullmatch(line).groups()[:3] == ("hadamard_n3", "FAIL", f"{report.checks:,}")
    assert TOTALS_LINE.fullmatch(totals).groups()[:3] == ("1", "1", f"{report.checks:,}")


def test_verify_unknown_oracle(capsys):
    code, _, err = run_cli(capsys, "verify", "bogus")
    assert code == 2
    assert err.startswith("error: ") and "unknown oracle" in err and "checks" not in err


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
    # the file holds the bytes stdout gets, final newline included, with the same exit code
    target = tmp_path / "output"
    for golden in CLI_GOLDENS:
        code, stdout, _ = run_cli(capsys, *golden["args"])
        out_code, out, err = run_cli(capsys, *golden["args"], f"--out={target}")
        assert (out_code, out) == (code, "")
        assert target.read_bytes() == stdout.encode()
        # only verify writes to stderr: its timing table, an oracle line and the totals
        assert len(err.splitlines()) == (2 if golden["args"][0] == "verify" else 0)
    # a path that cannot be written is a usage error, not a traceback
    code, out, err = run_cli(capsys, "verify", "--list", f"--out={tmp_path / 'missing' / 'names'}")
    assert (code, out) == (2, "") and err.startswith("error: ")


# every numeric flag of every subcommand, each with the arguments it runs beside;
# "{}" marks the value, in the first entry of a vector flag
NUMERIC_FLAGS = [
    ("eval", "--x={},-1,0"),
    ("eval", "--x=1,-1,0", "--k={}"),
    *(
        ("profile", f"--format={fmt}", *argv)
        for fmt in ("json", "csv")
        for argv in (("--x={},-1",), ("--x=1,-1", "--d={},1"), ("--x=1,-1,0", "--kx={}"))
    ),
    ("profile", "--x=1,-1", "--step={}"),
    ("enum", "--n={}"),
    ("enum", "--format=csv", "--n={}"),
    ("enum", "--threshold={}"),
    ("enum", "--n=2", "--format=csv", "--first-component={}"),
    *(
        ("check-1d", f"--format={fmt}", flag)
        for fmt in ("json", "csv")
        for flag in ("--c1={}", "--sigma={}", "--grid={}")
    ),
    ("check-1d", "--tol={}"),
    ("sphere", "--which=2d", "--resolution={}"),
    ("sphere", "--which=3d", "--resolution={}"),
    ("polysys", "--z={},-1,1,-1"),
    ("polysys", "--mu={},0,0,0"),
    ("feascheck", "--z={},-1,1,-1"),
]
FLAG_VALUES = [
    "0", "-0.0", "5e-324", "1e154", "1e308", "-1e308", str(10**400), "nan", "inf", str(3**12 + 1)
]


def _refuse_constant(name):
    raise ValueError(f"JSON holds {name}")


def _output_fault(code, out, err, csv):
    """Why a run's exit code and output break the CLI contract, or None."""
    if code == 2:
        return None if out == "" and err.count("error:") == 1 else "exit 2 without one error line"
    if code not in (0, 1):
        return f"exit {code}"
    try:
        if csv:
            # the header, then rows of finite numbers
            rows = [line.split(",") for line in out.splitlines()[1:]]
            if not all(math.isfinite(float(v)) for row in rows for v in row):
                return "CSV holds a non-finite number"
        else:
            json.loads(out, parse_constant=_refuse_constant)
    except ValueError as exc:
        return f"output is not finite JSON or CSV: {exc}"
    return None


@pytest.mark.parametrize("flag", NUMERIC_FLAGS, ids=" ".join)
def test_numeric_flags_exit_cleanly_at_extreme_values(capsys, flag):
    faults = []
    for value in FLAG_VALUES:
        argv = [part.format(value) for part in flag]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(capsys, *argv)
        except Exception as exc:  # a traceback, or a warning raised as one
            faults.append((value, repr(exc)))
            continue
        fault = _output_fault(code, out, err, "--format=csv" in argv or argv[0] == "sphere")
        if fault is not None:
            faults.append((value, fault))
    assert faults == []


def test_help_documents_examples(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "feascheck --all" in out
    assert "eval --x=-24,-30,19,14,0" in out


def test_readme_figure_data_recipe_writes_every_artifact(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    recipe = readme.split("## Figure data", 1)[1].split("```")[1]
    commands = [shlex.split(line)[1:] for line in recipe.splitlines() if line.startswith("signchange ")]
    written = []
    for argv in commands:
        *flags, out = argv
        assert out.startswith("--out=figure_data/")
        name = out.removeprefix("--out=figure_data/")
        assert run_cli(capsys, *flags, f"--out={tmp_path / name}") == (0, "", "")
        written.append(name)
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(written)
    assert len(written) == 11
    for name in written:
        assert (tmp_path / name).read_text().endswith("\n")
    grid = json.loads((tmp_path / "feasibility_grid.json").read_text())
    alternating = json.loads((tmp_path / "feasibility_alternating.json").read_text())
    assert grid["infeasible"] == 81
    assert alternating["certificate"]["forced_values"] == ["2", "-2"]
