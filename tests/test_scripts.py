import importlib.util
import math
import py_compile
from fractions import Fraction
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_bench_pairs_claim_covers_every_metric():
    script = load_script("bench_pairs")
    metrics = {
        "pass_s": script.compare(PARENT, [v - 6.0 for v in PARENT], "lower"),
        "op_p50_ms": script.compare(PARENT, [v - 5.0 for v in PARENT], "lower"),
        "peak_rss_mb": script.compare(PARENT, [v + 1.0 for v in PARENT], "lower"),
    }
    block = script.claim("lattice", metrics)
    assert block["workload"] == "lattice"
    assert list(block["metrics"]) == ["pass_s", "op_p50_ms", "peak_rss_mb"]
    assert {name: figures["holds"] for name, figures in block["metrics"].items()} == {
        "pass_s": True,
        "op_p50_ms": False,
        "peak_rss_mb": False,
    }
    op = block["metrics"]["op_p50_ms"]
    assert (op["wins"], op["ties"], op["pairs"], op["gain"], op["parent_iqr"]) == (10, 0, 10, 5.0, 5.5)
    assert op["medians"] == {"parent": 14.5, "change": 9.5}
    assert block["metrics"]["peak_rss_mb"]["gain"] == -1.0



def _canned_walls(import_parent, import_change, verify_parent, verify_change):
    """Wall runs as run_walls records them, from per-pair seconds, every stdout alike."""
    runs = []
    for i, seconds in enumerate(zip(import_parent, import_change, verify_parent, verify_change)):
        walls = {
            side: {
                "import_s": {"s": seconds[j], "stdout_sha256": "e3b0"},
                "verify_all_s": {"s": seconds[2 + j], "stdout_sha256": "21c1"},
            }
            for j, side in enumerate(("parent", "change"))
        }
        runs.append({"first": "parent" if i % 2 == 0 else "change", **walls})
    return runs


def test_bench_pairs_walls_record_on_canned_runs():
    script = load_script("bench_pairs")
    # the import wall barely moves, the verify wall gains 0.05 s in every pair
    parent = [1.10, 1.13, 1.12, 1.15, 1.11]
    runs = _canned_walls(parent, [v + 0.01 for v in parent], [v + 0.1 for v in parent], [v + 0.05 for v in parent])
    record = script.walls_record(runs)
    assert list(record) == ["commands", "first", "correct", "metrics", "runs"]
    assert record["commands"] == {
        "import_s": "python -c 'import signchange'",
        "verify_all_s": "python -m signchange verify all",
    }
    assert record["first"] == ["parent", "change", "parent", "change", "parent"]
    assert record["correct"] and record["runs"] is runs
    imports, verify = record["metrics"]["import_s"], record["metrics"]["verify_all_s"]
    assert imports["parent"] == parent and imports["medians"]["parent"] == 1.12
    assert (imports["wins"], verify["wins"], verify["pairs"]) == (0, 5, 5)
    assert round(imports["gain"], 9) == -0.01 and round(verify["gain"], 9) == 0.05
    # quartiles by the exclusive method: positions 1.5 and 4.5 of 5
    assert [round(q, 9) for q in imports["quartiles"]["parent"]] == [1.105, 1.12, 1.14]
    # five pairs are fewer than a claim needs, however clear the gain
    assert not verify["claim_holds"]
    # a side printing other output makes the record incorrect
    runs[3]["change"]["verify_all_s"]["stdout_sha256"] = "ffff"
    assert not script.walls_record(runs)["correct"]

def current_bytecode(root):
    """Each module under root/src, and whether its __pycache__ file is current for its
    source by the check the import system makes: source mtime and size, or a hash."""
    state = {}
    for source in sorted((root / "src").rglob("*.py")):
        cached = Path(importlib.util.cache_from_source(source))
        header = cached.read_bytes()[:16] if cached.exists() else bytes(16)
        if int.from_bytes(header[4:8], "little") & 1:
            current = header[8:16] == importlib.util.source_hash(source.read_bytes())
        else:
            stat = source.stat()
            current = header[8:16] == (int(stat.st_mtime) & 0xFFFFFFFF).to_bytes(4, "little") + (
                stat.st_size & 0xFFFFFFFF
            ).to_bytes(4, "little")
        state[source.relative_to(root).as_posix()] = current
    return state


def test_bench_pairs_prepares_both_trees_alike(tmp_path):
    trees = [tmp_path / "parent", tmp_path / "change"]
    for root in trees:
        package = root / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "mod.py").write_text("VALUE = 1\n")
    # as git archive leaves it, the parent has no bytecode; the checkout has bytecode
    # current for one module and stale for the other, whose source changed since
    change = trees[1] / "src" / "pkg"
    py_compile.compile(change / "__init__.py")
    py_compile.compile(change / "mod.py")
    (change / "mod.py").write_text("VALUE = 22\n")
    assert current_bytecode(trees[0]) != current_bytecode(trees[1])
    for root in trees:
        load_script("bench_pairs").prepare(root)
    expected = {"src/pkg/__init__.py": True, "src/pkg/mod.py": True}
    assert current_bytecode(trees[0]) == current_bytecode(trees[1]) == expected


def test_probe_pairs_compares_outcomes_by_kind_and_ulps():
    probe = load_script("probe_pairs")
    one, next_one = probe.encode(1.0), probe.encode(math.nextafter(1.0, 2.0))
    assert one == ["float:0x1.0000000000000p+0"]
    assert probe.kind(one, one) is None
    assert (probe.kind(one, next_one), probe.ulps(one, next_one)) == ("value", 1)
    # signed zeros differ in value by 0 ulps; ulps span the two signs
    assert probe.ulps(probe.encode(-0.0), probe.encode(0.0)) == 0
    assert probe.ulps(probe.encode(-5e-324), probe.encode(5e-324)) == 2
    assert probe.kind(probe.encode(Fraction(1, 2)), probe.encode(0.5)) == "type"
    assert probe.kind(probe.encode(ValueError("x")), one) == "error"
    batch = np.array([Fraction(1, 3), 2, 0.5], dtype=object)
    assert probe.encode(batch) == ["ndarray:|O (3,)", "Fraction:0x1/0x3", "int:0x2", "float:0x1.0000000000000p-1"]
    names = {name: [] for name in probe.NAMES}
    parent = {**names, "decoupled_gap": [["a", one], ["b", one], ["c", probe.encode(ValueError("beyond"))]]}
    change = {**names, "decoupled_gap": [["a", one], ["b", next_one], ["c", one]]}
    record = probe.compare(parent, change)["decoupled_gap"]
    assert record["cases"] == 3 and record["differences"] == {"value": 1, "type": 0, "error": 1}
    assert record["errors"] == {"parent_only": 1, "change_only": 0, "both": 0}
    assert (record["changed_values"], record["max_ulps"]) == (1, 1)
    assert [e["label"] for e in record["examples"]] == ["b", "c"]


def test_probe_pairs_battery_on_one_tree_against_itself_differs_nowhere():
    probe = load_script("probe_pairs")
    root = SCRIPTS.parent
    record = probe.compare(probe.run_side(root), probe.run_side(root))
    assert list(record) == list(probe.NAMES)
    assert all(r["cases"] > 0 for r in record.values())
    assert {name: sum(r["differences"].values()) for name, r in record.items()} == dict.fromkeys(probe.NAMES, 0)
