"""Traced run: per-layer figures for one workload.

The workload's operations run once untraced and once under the
:class:`tracing.Tracer`; the ratio of the two passes, each in reference
seconds (``speed.py``), is the tracing overhead.  A layer the
workload never calls is then measured on one fixed desk-scale call (the
"cover" operations below), so every figure is measured on every workload.
Probes that do not depend on the workload follow, untraced: the import
breakdown, each CLI subcommand in process and as a process, ``sign_changes``
per element, the n = 12 pattern grid, and the exact inputs outside float64.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np

import reference
import workloads
from tracing import Tracer
from workloads import GOLDENS, Op

FAMILIES = (
    "bound_chain",
    "coupled_equality",
    "ft_inequality",
    "hadamard",
    "hadamard_random",
    "hessian_table",
    "library_crosscheck",
    "qhat_identity",
    "signminor_random",
    "smoothing",
    "zero_set",
)
CLI_SUBCOMMANDS = (
    "eval", "verify", "profile", "enum", "check-1d", "sphere", "polysys", "feascheck"
)
CALLS_AND_SELF = (
    "counting.sign_vector",
    "transitions.sign_changes",
    "transitions.pair_counts",
    "transitions.transition_norm_sq",
    "transitions.hadamard_norm_sq",
    "transitions.smoothed_sign_changes",
    "subgradients.zero_direction_gap",
    "subgradients.decoupled_gap",
    "oracles.classify_point",
    "polysys.finite_direction_feasibility",
    "polysys.solve_rational_system",
)
SELF_ONLY = (
    "counting.as_vector",
    "counting.count_nonzero",
    "optimality.check_1d_condition",
    "optimality.surface_csv",
)
ROUND_TRIP = ("polysys.build_4d_system", "polysys.export_system", "polysys.parse_system")
NS_PER_ELEM_SIZES = {"n1e3": (10**3, 31), "n1e5": (10**5, 5), "n1e6": (10**6, 1)}
CLI_INPROC_REPS = 3
OVERHEAD_EXAMPLES = 3
GRID_REPS = 3


def family(oracle: str) -> str:
    return re.sub(r"_n\d+$", "", oracle)


def inproc_cli_ops(sc) -> list[Op]:
    """README examples through ``signchange.cli.run`` in this process, stdout captured."""

    def run(args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = sc.cli.run(list(args))
        return code, hashlib.sha256(out.getvalue().encode()).hexdigest()

    return workloads.golden_cli_ops(run)


def cover_ops(sc) -> list[Op]:
    """One desk-scale call into every layer with per-layer figures, and the
    smallest oracle of every family."""
    x = np.array([3.0, -1.0, 0.0, 2.0, -5.0, 0.0, 4.0])
    weak, flips = (int(v) for v in reference.pair_stats(reference.signs(x), circular=True))
    params = sc.GapParams(k_y=Fraction(1, 4), k_x=Fraction(1))
    gap = 4 * (params.k_y**2 - params.k_x**2) * flips
    point = np.array([1.5, 0.0, -2.0, 0.0, 0.5, -1.0])
    ops = workloads.vector_ops(x, True, "cover", sc) + [
        Op("cover.hadamard", lambda: sc.hadamard_norm_sq(x, 0.5), lambda v: v == weak + flips),
        Op(
            "cover.smoothed",
            lambda: sc.smoothed_sign_changes(x, 1e-3),
            lambda v: 0.0 <= v <= weak + flips,
        ),
        Op("cover.zero_gap", lambda: sc.zero_direction_gap(x, params), lambda v: v == gap),
        Op(
            "cover.decoupled_gap",
            lambda: sc.decoupled_gap(x, np.zeros_like(x), params),
            lambda v: v == gap,
        ),
        workloads.classify_op("cover.classify", point, True, sc),
        workloads.candidate_op((1, -1, 1, -1), sc),
        Op(
            "cover.check_1d",
            lambda: sc.check_1d_condition(sc.OneDProblem(), grid_points=1000),
            lambda report: report.grid_size == 1000,
        ),
        Op(
            "cover.surface",
            lambda: sc.surface_csv("2d", resolution=16),
            lambda text: text.count("\n") == 17,
        ),
    ]
    for name in FAMILIES:
        smallest = min(n for n in GOLDENS["oracles"] if family(n) == name)
        ops.append(workloads.oracle_op(smallest, sc))
    return ops


def run_once(ops: list[Op], tracer: Tracer | None = None) -> tuple[list[float], int]:
    """Each operation once, in order: (seconds per operation, failures)."""
    times = []
    failed = 0
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        seconds, ok = workloads.timed(op)
        times.append(seconds)
        failed += not ok
    return times, failed


def import_breakdown() -> dict[str, float]:
    """Cumulative import seconds from ``python -X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import signchange"],
        capture_output=True,
        text=True,
        check=True,
    )
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
    return {
        "import.signchange_s": cumulative["signchange"],
        "import.scipy_stats_s": cumulative["scipy.stats"],
        "import.numpy_s": cumulative["numpy"],
    }


def cli_probe(sc) -> tuple[dict[str, float], int, int]:
    """In-process seconds per subcommand and the per-invocation process overhead.

    The overhead is the median of (process time - in-process time) over the
    ``OVERHEAD_EXAMPLES`` examples that take least time in process, each run
    once as ``python -m signchange``.
    """
    ops = inproc_cli_ops(sc)
    reps = [run_once(ops) for _ in range(CLI_INPROC_REPS)]
    failed = sum(f for _, f in reps)
    inproc = {op.name: statistics.median(r[0][i] for r in reps) for i, op in enumerate(ops)}
    metrics = {f"cli.{sub}.inproc_s": 0.0 for sub in CLI_SUBCOMMANDS}
    for op in ops:
        metrics[f"cli.{op.inputs[0]}.inproc_s"] += inproc[op.name]
    quickest = sorted(inproc, key=inproc.get)[:OVERHEAD_EXAMPLES]
    processes = [
        op for op in workloads.golden_cli_ops(workloads.run_process) if op.name in quickest
    ]
    process_times, process_failed = run_once(processes)
    metrics["cli.process_overhead_s"] = statistics.median(
        seconds - inproc[op.name] for op, seconds in zip(processes, process_times)
    )
    attempted = len(ops) * CLI_INPROC_REPS + len(processes)
    return metrics, attempted, failed + process_failed


def sign_changes_probe(sc, rng) -> tuple[dict[str, float], int, int]:
    metrics = {}
    attempted = failed = 0
    for label, (n, reps) in NS_PER_ELEM_SIZES.items():
        x = rng.normal(size=n)
        x[rng.random(n) < 0.3] = 0.0
        op = workloads.vector_ops(x, True, label, sc)[1]
        times = []
        for _ in range(reps):
            seconds, bad = run_once([op])
            times += seconds
            failed += bad
        attempted += reps
        ns_per_elem = statistics.median(times) * 1e9 / n
        metrics[f"transitions.sign_changes.ns_per_elem.{label}"] = ns_per_elem
    return metrics, attempted, failed


def grid_probe(sc) -> tuple[dict[str, float], int, int]:
    n = 12
    digits = np.arange(3**n)[:, None] // 3 ** np.arange(n - 1, -1, -1)[None, :] % 3
    weak, flips = reference.pair_stats((digits - 1).astype(np.int8), circular=True)
    op = Op(
        "enumerate_grid.n12",
        lambda: sc.enumerate_grid(n),
        lambda table: np.array_equal(table.t, weak + flips),
    )
    times, failed = run_once([op] * GRID_REPS)
    return {"oracles.enumerate_grid.n12_s": statistics.median(times)}, GRID_REPS, failed


def exact_defect_probe(sc, seed: int) -> tuple[int, int]:
    """Run the out-of-float64 exact inputs: (calls made, calls that raised or were wrong)."""
    ops = []
    vectors = workloads.defect_vectors(np.random.default_rng([seed, 99]))
    for i, (values, circular) in enumerate(vectors):
        ops += workloads.vector_ops(values, circular, f"defect{i}", sc)
    _, failed = run_once(ops)
    return len(ops), failed


class LayerStats:
    """A tracer plus the counts its observers gather from returned values."""

    def __init__(self) -> None:
        self.family_s: dict[str, float] = defaultdict(float)
        self.certificates: Counter = Counter()
        self.checks = 0
        self.completions = 0
        self.tracer = Tracer(
            observers={
                "oracles.run_oracle": self._on_report,
                "polysys.finite_direction_feasibility": self._on_feasibility,
                "oracles.classify_point": self._on_classify,
            }
        )

    def _on_report(self, report, seconds) -> None:
        self.family_s[family(report.name)] += seconds
        self.checks += report.checks

    def _on_feasibility(self, result, seconds) -> None:
        if result.certificate is not None:
            self.certificates[result.certificate.kind] += 1

    def _on_classify(self, result, seconds) -> None:
        self.completions += len(result.reachable)

    def run(self, ops: list[Op]) -> tuple[list[float], int]:
        with self.tracer:
            return run_once(ops, self.tracer)

    def metrics(self) -> dict[str, tuple[float, str]]:
        tracer = self.tracer
        out: dict[str, tuple[float, str]] = {}
        for name in CALLS_AND_SELF:
            out[f"{name}.calls"] = (tracer.calls[name], "count")
            out[f"{name}.self_s"] = (tracer.self_s[name], "s")
        for name in SELF_ONLY:
            out[f"{name}.self_s"] = (tracer.self_s[name], "s")
        out["polysys.build_export_parse.self_s"] = (sum(tracer.self_s[n] for n in ROUND_TRIP), "s")
        for name in FAMILIES:
            out[f"oracles.{name}_s"] = (self.family_s[name], "s")
        out["oracles.checks"] = (self.checks, "count")
        out["oracles.classify_point.completions"] = (self.completions, "count")
        out["polysys.certificates.axis_conflict"] = (self.certificates["axis_conflict"], "count")
        out["polysys.certificates.elimination"] = (self.certificates["elimination"], "count")
        eliminations = tracer.calls["polysys.solve_rational_system"]
        useful = self.certificates["elimination"] / eliminations if eliminations else 0.0
        out["polysys.elimination_useful_ratio"] = (useful, "ratio")
        return out


def traced_run(workload: str, ops: list[Op], sc, seed: int, span_path: Path, speed) -> dict:
    """Per-layer metrics, attempted/failed counts and notes for the summary.

    Times are scaled to reference seconds by one factor for the whole run,
    from host speed samples taken between its stages (see ``speed.py``).
    """
    if workload == "cli_readme":
        ops = inproc_cli_ops(sc)
    speed.sample()
    untraced_at = time.perf_counter()
    untraced, failed = run_once(ops)
    attempted = len(ops)

    speed.sample()
    traced_at = time.perf_counter()
    stats = LayerStats()
    traced, bad = stats.run(ops)
    failed += bad
    attempted += len(ops)
    speed.sample()
    untraced_s = sum(untraced) * speed.scale(untraced_at, untraced_at + sum(untraced))
    traced_s = sum(traced) * speed.scale(traced_at, traced_at + sum(traced))
    span_path.parent.mkdir(parents=True, exist_ok=True)
    stats.tracer.write(span_path)

    speed.sample()
    cover = LayerStats()
    desk_ops = cover_ops(sc)
    _, bad = cover.run(desk_ops)
    failed += bad
    attempted += len(desk_ops)
    metrics = stats.metrics()
    from_cover = []
    for name, (value, unit) in cover.metrics().items():
        if metrics[name][0] == 0 and value != 0:
            metrics[name] = (value, unit)
            from_cover.append(name)
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    metrics["trace.spans"] = (stats.tracer.span_count, "count")

    speed.sample()
    for name, seconds in import_breakdown().items():
        metrics[name] = (seconds, "s")
    probes = (
        lambda: cli_probe(sc),
        lambda: sign_changes_probe(sc, np.random.default_rng([seed, 7])),
        lambda: grid_probe(sc),
    )
    for probe in probes:
        speed.sample()
        values, tried, bad = probe()
        for name, value in values.items():
            metrics[name] = (value, "ns" if ".ns_per_elem." in name else "s")
        attempted += tried
        failed += bad
    speed.sample()
    defect_attempted, defect_failed = exact_defect_probe(sc, seed)
    metrics["counting.exact_input_failures"] = (defect_failed, "count")
    scale = speed.run_scale()
    for name, (value, unit) in metrics.items():
        if unit in ("s", "ns"):
            metrics[name] = (value * scale, unit)
    eliminations = stats.tracer.calls["polysys.solve_rational_system"]
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "notes": {
            "traced_pass_raw_s": sum(traced),
            "untraced_pass_raw_s": sum(untraced),
            "reference_scale": scale,
            "measured_on_desk_calls": from_cover,
            "elimination_useful": f"{stats.certificates['elimination']}/{eliminations}",
            "known_exact_defect": {"attempted": defect_attempted, "failed": defect_failed},
        },
    }
