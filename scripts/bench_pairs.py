#!/usr/bin/env python3
"""Alternating parent/change pairs of benchmark runs, and the claim rule on them.

    python3 scripts/bench_pairs.py --parent REV --workload NAME --pairs 10 \\
        --first-seed S --seconds 15 --out FILE [--other-pairs 1] [--walls 5] [--layers]

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
pair must exit 0 and print the same stdout.  With ``--layers`` it then times
four layers of the pair kernel, ``counting._signs``, ``transitions.pair_stats``
(on the int8 signs), ``sign_changes`` and ``count_nonzero``, on a float64
array and on a list of ints and ``Fraction``s of each length in
``LAYER_SIZES``: ``LAYER_ROUNDS`` alternating rounds, each a fresh interpreter
per tree with that tree's ``src`` first on ``PYTHONPATH``, one BLAS thread
and pinned to one CPU, which times every call in process as the best of
``LAYER_REPEAT`` loops of at least ``LAYER_LOOP_S`` seconds.

FILE receives, per workload and per end-to-end metric of ``BENCHMARK.json``,
each side's values in pair order, their medians and quartiles
(``statistics.quantiles(n=4)``, the exclusive method), and the wins and ties
of the change.  Its claim block gives, for every end-to-end metric on NAME,
the wins, the gain, the medians and whether the claim rule holds: the change
wins at least nine pairs in ten, and its median beats the parent's by more
than the parent's interquartile range.  The walls get the same statistics
under ``walls``, outside the claim block, and the layer timings under ``layers``:
per call, each round's seconds, each side's best, the change's best over the
parent's and nanoseconds per entry.  Exits 1 when a run reports a wrong output
or a layer call returns another output on the two sides; a run that fails
stops the script.
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
# --layers: the vector lengths, the rounds per side, and each call's timing loop
LAYER_SIZES = tuple(10**k for k in range(1, 7))
LAYER_ROUNDS = 2
LAYER_REPEAT = 5
LAYER_LOOP_S = 0.05


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


def run_in(root: Path, args: list[str]) -> subprocess.CompletedProcess:
    """One fresh interpreter running args in root, root's src first on PYTHONPATH,
    with one BLAS thread.  A nonzero exit stops the script."""
    path = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1"), "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, *args], cwd=root, env=env, capture_output=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"python {' '.join(args)} in {root} exited {proc.returncode}:\n{proc.stderr.decode()}")
    return proc


def time_wall(root: Path, args: list[str]) -> dict:
    """run_in(root, args): its wall seconds and the sha256 of its stdout."""
    start = time.perf_counter()
    proc = run_in(root, args)
    seconds = time.perf_counter() - start
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


def time_layers() -> list[dict]:
    """Every layer call of --layers timed in this process, on the signchange it
    imports: one row per call with the seconds of one call, the best of
    LAYER_REPEAT loops of at least LAYER_LOOP_S seconds, and its output as text."""
    import timeit
    from fractions import Fraction

    import numpy as np
    from signchange import count_nonzero, sign_changes
    from signchange.counting import _signs
    from signchange.transitions import Topology, pair_stats

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    rows = []
    for n in LAYER_SIZES:
        rng = np.random.default_rng(n)
        floats = rng.standard_normal(n)
        floats[rng.random(n) < 0.25] = 0.0
        # a quarter zeros, then ints and Fractions in turn
        nums = (floats * 10**6).astype(np.int64).tolist()
        exact = [Fraction(p, 7) if i % 2 else p for i, p in enumerate(nums)]
        for name, x in (("float64", floats), ("int_fraction_list", exact)):
            signs = _signs(x)
            calls = {
                "_signs": lambda: _signs(x),
                "pair_stats": lambda: pair_stats(signs, Topology.CIRCULAR),
                "sign_changes": lambda: sign_changes(x),
                "count_nonzero": lambda: count_nonzero(x),
            }
            for layer, call in calls.items():
                timer, number = timeit.Timer(call), 1
                while timer.timeit(number) < LAYER_LOOP_S:
                    number *= 4
                seconds = min(timer.repeat(LAYER_REPEAT, number)) / number
                out = call()
                text = hashlib.sha256(out.tobytes()).hexdigest() if isinstance(out, np.ndarray) else repr(out)
                rows.append({"layer": layer, "input": name, "n": n, "s": seconds, "out": text})
    return rows


def layers_record(runs: list[dict]) -> dict:
    """The statistics of every layer call over runs, each {"first": side, "parent":
    rows, "change": rows} with rows as time_layers returns them, in one order.
    correct: every call returned the same output on both sides in every run."""
    cells = []
    for i, row in enumerate(runs[0]["parent"]):
        seconds = {side: [r[side][i]["s"] for r in runs] for side in ("parent", "change")}
        best = {side: min(values) for side, values in seconds.items()}
        cells.append({
            **{key: row[key] for key in ("layer", "input", "n")},
            **seconds,
            "best": best,
            "ratio": best["change"] / best["parent"],
            "ns_per_entry": {side: 1e9 * s / row["n"] for side, s in best.items()},
        })
    outputs = [[row["out"] for row in r[side]] for r in runs for side in ("parent", "change")]
    return {
        "how": f"in-process best of {LAYER_REPEAT} loops of at least {LAYER_LOOP_S} s per call, "
        "one fresh interpreter per side and round, pinned to one CPU; best is the least over rounds",
        "first": [r["first"] for r in runs],
        "correct": all(out == outputs[0] for out in outputs),
        "rows": cells,
    }


def run_layers(parent: Path, rounds: int) -> dict:
    """rounds alternating rounds of time_layers on both trees, the parent first on even rounds."""
    program = f"import json, sys; sys.path.insert(0, {str(ROOT / 'scripts')!r}); "
    program += "import bench_pairs; print(json.dumps(bench_pairs.time_layers()))"
    runs = []
    for i in range(rounds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        run = {"first": order[0]}
        for side in order:
            run[side] = json.loads(run_in(parent if side == "parent" else ROOT, ["-c", program]).stdout)
            print(f"layers round {i} {side}: done", file=sys.stderr)
        runs.append(run)
    return layers_record(runs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--other-pairs", type=int, default=0, help="pairs of every other workload")
    parser.add_argument("--walls", type=int, default=0, help="pairs of the process walls")
    parser.add_argument("--layers", action="store_true", help="time the pair kernel's layers")
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
        layers = run_layers(Path(tmp), LAYER_ROUNDS) if args.layers else None

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
    if layers:
        record["layers"] = layers
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["claim"]))
    correct = all(w["correct"] for w in (*workloads.values(), walls, layers) if w is not None)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
