"""The four workloads, each a list of operations built from a seed.

Every operation is one call into the program (or one ``python -m signchange``
process) plus a check of its output against :mod:`reference` or a golden
recorded when the benchmark was written.  Workloads are single-caller closed
loops: the next operation starts when the previous one has returned.

Workload inputs are chosen so that every seed costs the same work: the seed
changes values, zero positions, topologies and the order of operations, never
the lengths, zero densities, zero counts or the set of commands and oracles.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np

import reference

GOLDENS = json.loads((Path(__file__).with_name("goldens.json")).read_text())

WORKLOADS = ("cli_readme", "verify_all", "long_vectors", "lattice")

# long_vectors: 16 lengths log-spaced from 10 to 10**6; two of them (one in
# eight) are Python lists of int/Fraction values.  Zero densities spread over
# 0 to 0.5 in a fixed order that does not follow the length, because a zero
# costs more than a nonzero in the library's sign loop.
VECTOR_LENGTHS = tuple(int(round(10 ** (1 + 5 * k / 15))) for k in range(16))
ZERO_DENSITIES = tuple(0.5 * (5 * k % 16) / 15 for k in range(16))
EXACT_SLOTS = (3, 11)
# lattice: one classify_point call per zero count, at n = 12.
CLASSIFY_N = 12
CLASSIFY_ZEROS = tuple(range(2, 11))


@dataclass
class Op:
    """One timed call; ``check`` returns True when the output is right."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    work: int = 1
    inputs: object = field(default=None, repr=False)


def timed(op: Op) -> tuple[float, bool]:
    """Run one operation: (seconds spent in the call, whether its output checked out).

    An exception counts as a failed operation, whatever it is: the benchmark
    must keep going and report it.
    """
    start = time.perf_counter()
    try:
        out = op.call()
    except Exception:
        return time.perf_counter() - start, False
    seconds = time.perf_counter() - start
    return seconds, bool(op.check(out))


def fingerprint(ops: list[Op]) -> str:
    """sha256 over every operation's name and inputs, in order."""
    digest = hashlib.sha256()
    for op in ops:
        digest.update(op.name.encode())
        for item in op.inputs if isinstance(op.inputs, tuple) else (op.inputs,):
            if isinstance(item, np.ndarray):
                digest.update(item.tobytes())
            else:
                digest.update(repr(item).encode())
    return digest.hexdigest()


def golden_cli_ops(run: Callable[[tuple[str, ...]], tuple[int, str]]) -> list[Op]:
    """The README examples, each checked against its golden (exit code, stdout sha256).

    ``run`` takes the arguments and returns the exit code and the stdout sha256.
    """
    return [
        Op(
            name=" ".join(golden["args"]),
            call=lambda args=tuple(golden["args"]): run(args),
            check=lambda got, want=(golden["exit"], golden["stdout_sha256"]): got == want,
            inputs=tuple(golden["args"]),
        )
        for golden in GOLDENS["cli"]
    ]


def run_process(args: tuple[str, ...]) -> tuple[int, str]:
    """One ``python -m signchange`` process."""
    proc = subprocess.run(
        [sys.executable, "-m", "signchange", *args], capture_output=True, check=False
    )
    return proc.returncode, hashlib.sha256(proc.stdout).hexdigest()


def oracle_op(name: str, sc) -> Op:
    checks = GOLDENS["oracles"][name]
    return Op(
        name=name,
        call=lambda: sc.oracles.run_oracle(name),
        check=lambda report: report.passed and report.checks == checks,
        work=checks,
        inputs=name,
    )


def _float_vector(rng: np.random.Generator, n: int, zero_density: float) -> np.ndarray:
    x = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=n)
    x[rng.random(n) < zero_density] = 0.0
    return x


def _exact_vector(rng: np.random.Generator, n: int, zero_density: float) -> list:
    """ints and Fractions, every value well inside float64 range and resolution."""
    nums = rng.integers(-(10**6), 10**6, size=n, endpoint=True)
    dens = rng.integers(1, 1000, size=n, endpoint=True)
    as_fraction = rng.random(n) < 0.5
    zero = rng.random(n) < zero_density
    return [
        0 if z else (Fraction(int(p), int(q)) if f else int(p))
        for p, q, f, z in zip(nums, dens, as_fraction, zero)
    ]


def defect_vectors(rng: np.random.Generator) -> list[tuple[list, bool]]:
    """Exact inputs outside float64: magnitudes above its range or below its resolution.

    When this benchmark was written the library converted to float64 first, so
    these raised OverflowError or lost signs; they are run and reported on their own.
    """
    out = []
    for _ in range(4):
        n = int(rng.integers(3, 9))
        huge = [int(v) * 10**400 for v in rng.choice([-1, 1], size=n)]
        tiny = [Fraction(int(v), 10**400) for v in rng.choice([-1, 1], size=n)]
        tiny[int(rng.integers(n))] = int(rng.choice([-1, 1]))
        out.append((huge, bool(rng.integers(2))))
        out.append((tiny, bool(rng.integers(2))))
    return out


VECTOR_FUNCTIONS = ("count_nonzero", "sign_changes", "pair_counts", "transition_norm_sq")


def vector_ops(values, circular: bool, label: str, sc) -> list[Op]:
    """The four calls of long_vectors on one vector, checked against the reference."""
    topology = sc.Topology.CIRCULAR if circular else sc.Topology.LINEAR
    expected = reference.vector_outputs(values, circular)
    half = Fraction(1, 2)
    calls = {
        "count_nonzero": lambda: sc.count_nonzero(values),
        "sign_changes": lambda: sc.sign_changes(values, topology),
        "pair_counts": lambda: sc.pair_counts(values, topology),
        "transition_norm_sq": lambda: sc.transition_norm_sq(values, half, topology),
    }
    inputs = (values if isinstance(values, np.ndarray) else tuple(values), circular)
    return [
        Op(
            name=f"{label}.{fn}",
            call=calls[fn],
            check=lambda out, want=expected[fn]: out == want,
            work=len(values),
            inputs=inputs,
        )
        for fn in VECTOR_FUNCTIONS
    ]


def long_vector_ops(rng: np.random.Generator, sc) -> list[Op]:
    ops = []
    for slot, (n, density) in enumerate(zip(VECTOR_LENGTHS, ZERO_DENSITIES)):
        circular = bool(rng.integers(2))
        if slot in EXACT_SLOTS:
            values = _exact_vector(rng, n, density)
        else:
            values = _float_vector(rng, n, density)
        ops.extend(vector_ops(values, circular, f"n{n}", sc))
    return ops


def classify_points(rng: np.random.Generator) -> list[tuple[int, np.ndarray, bool]]:
    points = []
    for zeros in CLASSIFY_ZEROS:
        x = rng.normal(size=CLASSIFY_N)
        x[x == 0.0] = 1.0
        x[rng.choice(CLASSIFY_N, size=zeros, replace=False)] = 0.0
        points.append((zeros, x, bool(rng.integers(2))))
    return points


def _candidate_holds(z, out) -> bool:
    result, built, parsed = out
    return (
        reference.feasibility_holds(z, result)
        and parsed == built
        and built.metadata["candidate"] == list(z)
        and built.metadata["t"] == reference.circular_changes(z)
    )


def _classify_holds(want, got) -> bool:
    values = [t for _, t in got.reachable]
    return (
        got.label.value == want["label"]
        and got.t_at_x == want["t_at_x"]
        and len(values) == want["completions"]
        and min(values) == want["t_min"]
        and max(values) == want["t_max"]
    )


def lattice_ops(rng: np.random.Generator, sc) -> list[Op]:
    ops = [candidate_op(z, sc) for z in product((-1, 0, 1), repeat=4)]
    for zeros, x, circular in classify_points(rng):
        ops.append(classify_op(f"classify_z{zeros}", x, circular, sc))
    return ops


def classify_op(name: str, x: np.ndarray, circular: bool, sc) -> Op:
    topology = sc.Topology.CIRCULAR if circular else sc.Topology.LINEAR
    want = reference.classify(x, circular)
    return Op(
        name=name,
        call=lambda: sc.classify_point(x, topology),
        check=lambda got: _classify_holds(want, got),
        inputs=(x, circular),
    )


def candidate_op(z: tuple[int, ...], sc) -> Op:
    """Feasibility decision plus the build/export/parse round trip for one candidate."""
    polysys = sc.polysys

    def call():
        built = polysys.build_4d_system(z)
        parsed = polysys.parse_system(polysys.export_system(built))
        return polysys.finite_direction_feasibility(z), built, parsed

    return Op(
        name="candidate" + ",".join(map(str, z)),
        call=call,
        check=lambda out: _candidate_holds(z, out),
        inputs=z,
    )


def build(workload: str, seed: int, sc=None) -> list[Op]:
    """Operations of one workload in seeded order; ``sc`` is the ``signchange`` package."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "cli_readme":
        ops = golden_cli_ops(run_process)
    elif workload == "verify_all":
        ops = [oracle_op(name, sc) for name in sorted(GOLDENS["oracles"])]
    elif workload == "long_vectors":
        ops = long_vector_ops(rng, sc)
    elif workload == "lattice":
        ops = lattice_ops(rng, sc)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [ops[i] for i in rng.permutation(len(ops))]
