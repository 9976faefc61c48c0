#!/usr/bin/env python3
"""Alternating parent/change pairs of benchmark runs, and the claim rule on them.

    python3 scripts/bench_pairs.py --parent REV --workload NAME --pairs 10 \\
        --first-seed S --seconds 15 --out FILE [--other-pairs 1] [--walls 5]

The parent is extracted with ``git archive REV`` into a temporary
directory; the change is this checkout as it stands.  Both trees are
prepared alike first: ``python -m compileall -f -q src`` in each, as an install
does, so neither side compiles the library from source in every process
while the other loads a ``__pycache__``.  Pair i runs
``perfbench/run.py --workload NAME --seed S+i --seconds SECONDS`` once on
each side, each in a fresh process from its own tree, the parent first on
even i and the change first on odd i.  With ``--other-pairs N`` every other
workload of ``BENCHMARK.json`` then gets N pairs of its own, on the same seeds.
With ``--walls N`` the script last times N alternating pairs of two process
walls, ``python -c "import signchange"`` and ``python -m signchange verify
all``, each a fresh interpreter in its tree with that tree's ``src`` on
``PYTHONPATH`` and one BLAS thread, in raw wall seconds; both sides of a
pair must exit 0 and print the same stdout.

FILE receives, per workload and per end-to-end metric of ``BENCHMARK.json``,
each side's values in pair order, their medians and quartiles
(``statistics.quantiles(n=4)``, the exclusive method), and the wins and ties
of the change.  Its claim block gives, for every end-to-end metric on NAME,
the wins, the gain, the medians and whether the claim rule holds: the change
wins at least nine pairs in ten, and its median beats the parent's by more
than the parent's interquartile range.  The walls get the same statistics
under ``walls``, outside the claim block.  Exits 1 when a run reports a wrong
output; a run that fails stops the script.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import shlex
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the share of pairs the change must win for a claim, and the least number of pairs
CLAIM_WIN_SHARE = 0.9
CLAIM_MIN_PAIRS = 10
# run in the root of each tree before any pair; -f rewrites bytecode whose header
# compileall would pass on mtime alone (a source rewritten within the same second)
PREPARE = ["-m", "compileall", "-f", "-q", "src"]
# the process walls of --walls, by metric name: the interpreter's arguments
WALLS = {
    "import_s": ["-c", "import signchange"],
    "verify_all_s": ["-m", "signchange", "verify", "all"],
}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def extract(rev: str, dest: Path) -> str:
    """Write the tree of rev into dest with git archive; returns rev's full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = ["git", "archive", "--format=tar", commit]
    tar = subprocess.run(archive, cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def prepare(root: Path) -> None:
    """Compile the library under root to current bytecode, the same way on both sides."""
    subprocess.run([sys.executable, *PREPARE], cwd=root, check=True)


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One fresh perfbench/run.py process in root: its summary and result lines."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    summary, result = proc.stdout.strip().splitlines()[-2:]
    return {"summary": json.loads(summary)["summary"], "result": json.loads(result)}


def quartiles(values: list[float]) -> list[float] | None:
    """The three quartiles by statistics.quantiles(n=4), or None for fewer than two values."""
    return statistics.quantiles(values, n=4) if len(values) >= 2 else None


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Pairwise and summary statistics of one metric; parent[i] and change[i] form pair i.

    gain is how far the change's median beats the parent's in the better
    direction (negative when it is worse); claim_holds applies the claim rule.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    ties = sum(p == c for p, c in zip(parent, change))
    medians = {"parent": statistics.median(parent), "change": statistics.median(change)}
    quarts = {"parent": quartiles(parent), "change": quartiles(change)}
    parent_iqr = quarts["parent"][2] - quarts["parent"][0] if quarts["parent"] else None
    gain = sign * (medians["parent"] - medians["change"])
    pairs = len(parent)
    return {
        "parent": parent,
        "change": change,
        "medians": medians,
        "quartiles": quarts,
        "wins": wins,
        "ties": ties,
        "pairs": pairs,
        "gain": gain,
        "parent_iqr": parent_iqr,
        "claim_holds": pairs >= CLAIM_MIN_PAIRS
        and wins >= math.ceil(CLAIM_WIN_SHARE * pairs)
        and gain > parent_iqr,
    }


def claim(workload: str, metrics: dict) -> dict:
    """The claim rule's figures for every metric of one workload, from compare's statistics."""
    keys = ("wins", "ties", "pairs", "gain", "parent_iqr", "medians")
    return {
        "workload": workload,
        "metrics": {
            name: {**{k: stats[k] for k in keys}, "holds": stats["claim_holds"]}
            for name, stats in metrics.items()
        },
    }


def run_pairs(parent: Path, workload: str, pairs: int, first_seed: int, seconds: float, spec: dict) -> dict:
    """pairs alternating runs of one workload; the statistics of every end-to-end metric."""
    runs = []
    for i in range(pairs):
        seed = first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            pair[side] = run_side(parent if side == "parent" else ROOT, workload, seed, seconds)
            print(f"{workload} seed {seed} {side}: {pair[side]['result']['metrics']}", file=sys.stderr)
        runs.append({"seed": seed, "first": order[0], **pair})
    metrics = {
        m["name"]: compare(
            [r["parent"]["result"]["metrics"][m["name"]]["value"] for r in runs],
            [r["change"]["result"]["metrics"][m["name"]]["value"] for r in runs],
            m["better"],
        )
        for m in spec["end_to_end"]
    }
    correct = all(r[side]["result"]["correct"] for r in runs for side in ("parent", "change"))
    return {
        "seeds": [r["seed"] for r in runs],
        "first": [r["first"] for r in runs],
        "correct": correct,
        "ops_failed_frac": {
            side: [r[side]["summary"].get("ops_failed_frac") for r in runs] for side in ("parent", "change")
        },
        "metrics": metrics,
        "runs": runs,
    }


def time_wall(root: Path, args: list[str]) -> dict:
    """One fresh interpreter running args in root, root's src first on PYTHONPATH:
    its wall seconds and the sha256 of its stdout.  A nonzero exit stops the script."""
    path = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1"), "PYTHONPATH": path}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=root, env=env, capture_output=True, check=False)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"python {' '.join(args)} in {root} exited {proc.returncode}:\n{proc.stderr.decode()}")
    return {"s": seconds, "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest()}


def walls_record(runs: list[dict]) -> dict:
    """The statistics of every wall over runs, each {"first": side, "parent": walls,
    "change": walls} with walls mapping each name of WALLS to time_wall's result.
    correct: in every pair both sides printed the same stdout."""

    def column(side: str, name: str, key: str) -> list:
        return [r[side][name][key] for r in runs]

    return {
        "commands": {name: shlex.join(["python", *args]) for name, args in WALLS.items()},
        "first": [r["first"] for r in runs],
        "correct": all(column("parent", n, "stdout_sha256") == column("change", n, "stdout_sha256") for n in WALLS),
        "metrics": {n: compare(column("parent", n, "s"), column("change", n, "s"), "lower") for n in WALLS},
        "runs": runs,
    }


def run_walls(parent: Path, pairs: int) -> dict:
    """pairs alternating pairs of every wall, the parent first on even pair indices."""
    runs = []
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        run = {"first": order[0]}
        for side in order:
            root = parent if side == "parent" else ROOT
            run[side] = {name: time_wall(root, args) for name, args in WALLS.items()}
            print(f"walls pair {i} {side}: {[w['s'] for w in run[side].values()]}", file=sys.stderr)
        runs.append(run)
    return walls_record(runs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--other-pairs", type=int, default=0, help="pairs of every other workload")
    parser.add_argument("--walls", type=int, default=0, help="pairs of the process walls")
    parser.add_argument("--what", default="", help="one line saying what the change is")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names or args.pairs < 1 or args.other_pairs < 0 or args.walls < 0:
        parser.error(f"need a workload of {names}, --pairs >= 1, --other-pairs >= 0 and --walls >= 0")
    seconds = args.seconds or spec["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        commit = extract(args.parent, Path(tmp))
        for root in (Path(tmp), ROOT):
            prepare(root)
        plan = [(args.workload, args.pairs)]
        plan += [(name, args.other_pairs) for name in names if name != args.workload and args.other_pairs]
        workloads = {
            name: run_pairs(Path(tmp), name, pairs, args.first_seed, seconds, spec) for name, pairs in plan
        }
        walls = run_walls(Path(tmp), args.walls) if args.walls else None

    record = {
        "what": args.what,
        "parent_commit": commit,
        "machine": workloads[args.workload]["runs"][0]["change"]["summary"]["machine"],
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds:g}",
        "prepare": " ".join(["python3", *PREPARE]) + " in the root of both trees",
        "how": "alternating pairs, the parent first on even pair indices, one fresh process per run, "
        "the parent from git archive of its commit and the change from this checkout, "
        "both prepared by the command in prepare; "
        "times in perfbench reference seconds; quartiles by statistics.quantiles(n=4)",
        "claim": claim(args.workload, workloads[args.workload]["metrics"]),
        "workloads": workloads,
    }
    if walls:
        record["walls"] = walls
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["claim"]))
    correct = all(w["correct"] for w in workloads.values()) and (walls is None or walls["correct"])
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
