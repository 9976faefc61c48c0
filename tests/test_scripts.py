import importlib.util
import json
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_emit_figure_data_writes_every_artifact(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["emit_figure_data.py", "--out-dir", str(tmp_path)])
    assert load_script("emit_figure_data").main() == 0
    artifacts = [
        "grid4.csv",
        "grid4_z1_-1.csv",
        "grid4_z1_0.csv",
        "grid4_z1_1.csv",
        "kprofile_flips.csv",
        "kprofile_displaced.csv",
        "curves_1d.csv",
        "surface_2d.csv",
        "surface_3d.csv",
        "feasibility.json",
    ]
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(artifacts)
    assert capsys.readouterr().out.count("wrote ") == len(artifacts)
    text = (tmp_path / "feasibility.json").read_bytes()
    payload = json.loads(text)
    assert text == (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    assert payload["grid_summary"]["infeasible"] == 81
    assert payload["alternating_candidate"]["certificate"]["forced_values"] == ["2", "-2"]


def test_run_verifications_match_exits_zero(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["run_verifications.py", "--match", "hessian_table"])
    assert load_script("run_verifications").main() == 0
    out = capsys.readouterr().out
    assert "hessian_table  PASS" in out
    assert "1 oracles" in out


def test_run_verifications_json_prints_one_record_per_oracle(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["run_verifications.py", "--match", "hadamard", "--json"])
    script = load_script("run_verifications")
    assert script.main() == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    names = [n for n in script.list_oracles() if "hadamard" in n]
    assert [r["name"] for r in records] == names
    for record in records:
        assert set(record) == {"name", "passed", "checks", "seconds", "checks_per_s"}
        assert record["passed"] is True and record["checks"] > 0
        assert record["checks_per_s"] == record["checks"] / max(record["seconds"], 1e-9)
