#!/usr/bin/env python3
"""Benchmark of the ``signchange`` package, built from ``src/`` in this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S     # every workload, one table

Workloads (see ``workloads.py``): ``cli_readme``, ``verify_all``,
``long_vectors``, ``lattice``.  Each run is one fresh process, pinned with
its children to one CPU, with one BLAS/OpenMP thread.  ``setup_s`` is the
median over three fresh processes of the time ``import signchange`` takes.
Operations then run in a seeded order, one after another, until
``--seconds`` have passed and every operation has run at least once; every
output is checked, and a wrong output, wrong exit code or exception is a
failed operation.  With ``--trace 1`` the run reports per-layer figures
instead (``layers.py``) and writes its spans under ``.bench_build/``.

End-to-end metrics, all times in reference seconds (``speed.py``):

* ``setup_s``: median ``import signchange`` time in a fresh process;
* ``pass_s``: one pass over the workload's operations, the sum of each
  operation's median time;
* ``op_p50_ms``: the median over operations of each operation's median time;
* ``peak_rss_mb``: peak resident memory of this process, or of the CLI
  child processes for ``cli_readme``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is a JSON summary: the machine, the raw seconds, the host speed samples,
the figures under their long names (``cli_pass_s``, ``verify_s``,
``vec_elems_per_s``, ``lattice_s`` and the rest), ``ops_failed_frac``, and
the exact inputs outside float64 that the library gets wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedLog

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
SETUP_CODE = (
    "import time; start = time.perf_counter(); import signchange; "
    "print(time.perf_counter() - start, signchange.__file__)"
)


def pin_environment() -> None:
    """One BLAS/OpenMP thread per process, and the checkout's ``src`` first on the path.

    Runs before numpy is imported anywhere, in this process or its children.
    """
    for name in THREAD_VARS:
        os.environ[name] = "1"
    # One CPU for this process and every child, so the host speed samples
    # (speed.py) are taken where the measured work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(SRC))


def setup_seconds(speed) -> tuple[list[float], list[float]]:
    """``import signchange`` in fresh processes, each of which must load this checkout.

    Returns the raw seconds and the same in reference seconds (see ``speed.py``).
    """
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        speed.sample()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], capture_output=True, text=True, check=True, cwd=ROOT
        )
        end = time.perf_counter()
        speed.sample()
        seconds, location = proc.stdout.split()
        if not Path(location).resolve().is_relative_to(SRC):
            raise RuntimeError(f"signchange imported from {location}, not from {SRC}")
        raw.append(float(seconds))
        scaled.append(float(seconds) * speed.scale(start, end))
    return raw, scaled


def measure(ops, seconds: float, rng, speed) -> dict:
    """Closed loop over the operations in seeded order until time is up and each has run.

    Each operation's samples are kept in raw and in reference seconds.
    """
    timings = [[] for _ in ops]
    failed = []
    unsampled = len(ops)
    start = time.perf_counter()
    while unsampled or time.perf_counter() - start < seconds:
        for i in rng.permutation(len(ops)):
            if unsampled == 0 and time.perf_counter() - start >= seconds:
                break
            speed.sample()
            began = time.perf_counter()
            elapsed, ok = workloads.timed(ops[i])
            unsampled -= not timings[i]
            timings[i].append((began, elapsed))
            if not ok:
                failed.append(ops[i].name)
    speed.sample()
    raw = [[elapsed for _, elapsed in t] for t in timings]
    scaled = [[e * speed.scale(b, b + e) for b, e in t] for t in timings]
    return {"raw": raw, "scaled": scaled, "failed": failed}


def end_to_end(ops, samples: list[list[float]]) -> dict[str, float]:
    """pass_s: sum over operations of each one's median; op_p50_ms: median of those medians.

    Medians per operation first, so operations sampled more often in a run
    weigh no more than the others.
    """
    medians = [statistics.median(s) for s in samples]
    pass_s = sum(medians)
    return {
        "pass_s": pass_s,
        "op_p50_ms": statistics.median(medians) * 1e3,
        "work_per_s": sum(op.work for op in ops) / pass_s,
    }


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_readme" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def machine() -> dict:
    import numpy
    import scipy

    model = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {name: os.environ[name] for name in THREAD_VARS},
    }


def long_names(workload: str, metrics: dict[str, float], every: list[float]) -> dict:
    """The figures under the names used in the project's planning documents."""
    names = {"setup_s": metrics["setup_s"], "peak_rss_mb": metrics["peak_rss_mb"]}
    if workload == "cli_readme":
        names.update(cli_p50_s=metrics["op_p50_ms"] / 1e3, cli_pass_s=metrics["pass_s"])
    elif workload == "verify_all":
        names.update(verify_s=metrics["pass_s"], verify_checks_per_s=metrics["work_per_s"])
    elif workload == "long_vectors":
        names.update(vec_elems_per_s=metrics["work_per_s"], vec_call_p50_ms=metrics["op_p50_ms"])
        if len(every) >= 100:
            names["vec_call_p90_ms"] = statistics.quantiles(every, n=10)[8] * 1e3
    elif workload == "lattice":
        names.update(lattice_s=metrics["pass_s"], lattice_decision_p50_ms=metrics["op_p50_ms"])
    return names


UNITS = {"setup_s": "s", "pass_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def run_workload(args) -> int:
    if not (SRC / "signchange" / "__init__.py").is_file():
        print(f"error: no signchange package under {SRC}", file=sys.stderr)
        return 2
    speed = SpeedLog()
    setup_raw, setup = setup_seconds(speed)

    import numpy as np

    import signchange
    import signchange.cli  # noqa: F401  (loaded so the tracer also rebinds its names)

    ops = workloads.build(args.workload, args.seed, signchange)
    loop_rng = np.random.default_rng([args.seed, 1 + workloads.WORKLOADS.index(args.workload)])
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs_sha256": workloads.fingerprint(ops),
        "machine": machine(),
    }
    if args.trace:
        import layers

        span_path = ROOT / ".bench_build" / f"spans-{args.workload}-seed{args.seed}.npz"
        traced = layers.traced_run(args.workload, ops, signchange, args.seed, span_path, speed)
        attempted, failed = traced["attempted"], traced["failed"]
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in traced["metrics"].items()}
        summary.update(
            spans=str(span_path.relative_to(ROOT)), host_speed=speed.summary(), **traced["notes"]
        )
    else:
        result = measure(ops, args.seconds, loop_rng, speed)
        every = [t for s in result["scaled"] for t in s]
        values = end_to_end(ops, result["scaled"])
        values["setup_s"] = statistics.median(setup)
        values["peak_rss_mb"] = peak_rss_mb(args.workload)
        raw = end_to_end(ops, result["raw"])
        raw["setup_s"] = statistics.median(setup_raw)
        attempted, failed = len(every), len(result["failed"])
        metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}
        summary.update(
            named=long_names(args.workload, values, every),
            raw_seconds=raw,
            host_speed=speed.summary(),
            ops_failed_frac=failed / attempted,
            failed_ops=sorted(set(result["failed"]))[:10],
            samples=len(every),
        )
        if args.workload == "long_vectors":
            import layers

            tried, bad = layers.exact_defect_probe(signchange, args.seed)
            summary["known_exact_defect"] = {"attempted": tried, "failed": bad}
    print(json.dumps({"summary": summary}))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, then one table of the figures."""
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False, cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        summary_line, result_line = proc.stdout.strip().splitlines()[-2:]
        summary, result = json.loads(summary_line)["summary"], json.loads(result_line)
        rows.append((name, summary, result))
    for name, summary, result in rows:
        named = ", ".join(f"{k}={v:.6g}" for k, v in summary["named"].items())
        print(f"{name}: {named}, ops_failed_frac={summary['ops_failed_frac']:.6g}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
        if "known_exact_defect" in summary:
            print(f"  known exact-input defect: {summary['known_exact_defect']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    pin_environment()
    import workloads

    sys.exit(main())
