import importlib.util
import py_compile
from pathlib import Path

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
