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


PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]


def test_bench_pairs_statistics_on_canned_runs():
    compare = load_script("bench_pairs").compare
    # quartiles by the exclusive method: positions 2.75, 5.5 and 8.25 of 10
    five_faster = compare(PARENT, [v - 5.0 for v in PARENT], "lower")
    assert five_faster["quartiles"]["parent"] == [11.75, 14.5, 17.25]
    assert five_faster["medians"] == {"parent": 14.5, "change": 9.5}
    assert (five_faster["wins"], five_faster["ties"], five_faster["pairs"]) == (10, 0, 10)
    assert five_faster["gain"] == 5.0 and five_faster["parent_iqr"] == 5.5
    # every pair won, but by less than the parent's spread
    assert not five_faster["claim_holds"]
    assert compare(PARENT, [v - 6.0 for v in PARENT], "lower")["claim_holds"]
    # nine wins of ten still hold; eight do not
    nine = [v - 6.0 for v in PARENT[:9]] + [PARENT[9] + 1.0]
    assert compare(PARENT, nine, "lower")["wins"] == 9
    assert compare(PARENT, nine, "lower")["claim_holds"]
    eight = nine[:8] + PARENT[8:9] + nine[9:]
    tied = compare(PARENT, eight, "lower")
    assert (tied["wins"], tied["ties"], tied["claim_holds"]) == (8, 1, False)


def test_bench_pairs_statistics_follow_the_better_direction():
    compare = load_script("bench_pairs").compare
    higher = compare(PARENT, [v + 6.0 for v in PARENT], "higher")
    assert higher["wins"] == 10 and higher["gain"] == 6.0 and higher["claim_holds"]
    worse = compare(PARENT, [v + 6.0 for v in PARENT], "lower")
    assert worse["wins"] == 0 and worse["gain"] == -6.0 and not worse["claim_holds"]
    # one pair has no quartiles and never makes a claim
    single = compare([2.0], [1.0], "lower")
    assert single["quartiles"] == {"parent": None, "change": None}
    assert single["wins"] == 1 and not single["claim_holds"]
