"""Tests of the benchmark itself: seeded inputs, references, trace wrappers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import signchange  # noqa: E402
import signchange.cli  # noqa: E402,F401
import layers  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

IN_PROCESS = ("verify_all", "long_vectors", "lattice")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = workloads.fingerprint(workloads.build(workload, 5, signchange))
    again = workloads.fingerprint(workloads.build(workload, 5, signchange))
    other = workloads.fingerprint(workloads.build(workload, 6, signchange))
    assert first == again
    assert first != other


def test_every_seed_costs_the_same_work():
    for workload in IN_PROCESS:
        works = {
            seed: sorted(op.work for op in workloads.build(workload, seed, signchange))
            for seed in (1, 2)
        }
        assert works[1] == works[2]


def test_verify_all_is_pinned_to_the_seed_oracles():
    pinned = workloads.GOLDENS["oracles"]
    assert len(pinned) == 47
    assert sum(pinned.values()) == 15_910_286
    ops = workloads.build("verify_all", 0, signchange)
    assert sorted(op.name for op in ops) == sorted(pinned)


def _small_vectors(rng):
    for n in (2, 3, 5, 8, 13):
        x = rng.normal(size=n)
        x[rng.random(n) < 0.4] = 0.0
        yield x, bool(rng.integers(2))
        exact = [Fraction(int(v * 1000), 7) if i % 2 else int(v * 1000) for i, v in enumerate(x)]
        yield exact, bool(rng.integers(2))


def test_vector_reference_agrees_with_library_on_clean_inputs():
    rng = np.random.default_rng(0)
    for values, circular in _small_vectors(rng):
        for op in workloads.vector_ops(values, circular, "clean", signchange):
            _, ok = workloads.timed(op)
            assert ok, (op.name, values)


def test_reference_is_exact_where_float64_is_not():
    tiny = [Fraction(1, 10**400), Fraction(-1, 10**400), 1]
    huge = [10**400, -1]
    assert reference.vector_outputs(tiny, circular=False)["sign_changes"] == 2
    assert reference.vector_outputs(huge, circular=False)["sign_changes"] == 1
    # Rounding to float64 first, as the library did when this benchmark was
    # written, loses the tiny signs and cannot represent the huge value; the
    # reference must see both.
    rounded = np.sign(np.asarray(tiny, dtype=float))
    assert int(np.count_nonzero(rounded[:-1] != rounded[1:])) == 1
    with pytest.raises(OverflowError):
        np.asarray(huge, dtype=float)


def test_defect_probe_counts_exactly_the_wrong_calls():
    rng = np.random.default_rng([3, 99])
    wrong = 0
    for values, circular in workloads.defect_vectors(rng):
        for op in workloads.vector_ops(values, circular, "defect", signchange):
            try:
                out = op.call()
            except (OverflowError, ValueError):
                wrong += 1
            else:
                wrong += not op.check(out)
    attempted, failed = layers.exact_defect_probe(signchange, 3)
    assert attempted == 32
    assert failed == wrong


def test_lattice_references_agree_with_library():
    for z in product((-1, 0, 1), repeat=4):
        result = signchange.finite_direction_feasibility(z)
        assert reference.feasibility_holds(z, result)
    rng = np.random.default_rng(1)
    for zeros in (0, 1, 3, 5):
        x = rng.normal(size=7)
        x[rng.choice(7, size=zeros, replace=False)] = 0.0
        for circular in (True, False):
            _, ok = workloads.timed(workloads.classify_op("c", x, circular, signchange))
            assert ok


def test_lattice_reference_rejects_a_wrong_certificate():
    z = (1, -1, 1, -1)
    result = signchange.finite_direction_feasibility(z)
    cert = result.certificate
    bent = type(cert)(
        kind=cert.kind,
        equation_indices=cert.equation_indices,
        coefficients=(cert.coefficients[0], 2 * cert.coefficients[1]),
        value=cert.value,
        directions=cert.directions,
    )
    assert not reference.feasibility_holds(z, type(result)(**{**vars(result), "certificate": bent}))


def _bindings():
    return {
        (module.__name__, name): obj
        for module in tracing.package_modules()
        for name, obj in vars(module).items()
    }


def _outputs(sc):
    ops = (
        workloads.vector_ops(np.array([2.0, 0.0, -1.0, 3.0]), True, "v", sc)
        + [workloads.oracle_op("qhat_identity_n3", sc), workloads.candidate_op((0, 1, -1, 1), sc)]
        + layers.inproc_cli_ops(sc)[:3]
    )
    results = []
    for op in ops:
        out = op.call()
        assert op.check(out), op.name
        if isinstance(out, tuple) and len(out) == 3:
            out = out[0]
        results.append(repr(out))
    return results


def test_tracer_restores_every_binding_and_changes_no_output():
    before = _bindings()
    plain = _outputs(signchange)
    tracer = tracing.Tracer()
    with tracer:
        assert signchange.oracles.pair_counts is not before[("signchange.oracles", "pair_counts")]
        assert signchange.pair_counts is signchange.transitions.pair_counts
        assert signchange.cli.sign_changes is signchange.transitions.sign_changes
        assert signchange.counting.sign is before[("signchange.counting", "sign")]
        traced = _outputs(signchange)
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is obj for key, obj in before.items())
    assert traced == plain
    assert tracer.calls["transitions.pair_counts"] > 0
    assert tracer.calls["subgradients.zero_direction_gap"] > 0


def test_self_time_excludes_children(tmp_path):
    tracer = tracing.Tracer()
    with tracer:
        signchange.transition_norm_sq(np.ones(1000), 0.5)
    name = "transitions.transition_norm_sq"
    assert tracer.calls[name] == 1
    assert 0 < tracer.self_s[name] < tracer.total_s[name]
    path = tmp_path / "spans.npz"
    tracer.write(path)
    with np.load(path) as spans:
        assert spans["start"].size == tracer.span_count
        assert np.all(spans["end"] >= spans["start"])
        names = list(spans["names"])
        root = spans["parent"] == -1
        assert [names[i] for i in spans["name"][root]] == [name]
