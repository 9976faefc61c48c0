import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from signchange import oracles
from signchange.counting import sign_minorant_gap
from signchange.oracles import (
    EXPECTED_2EIG_UPPER,
    GridTable,
    Label,
    center_symmetry_check,
    classify_point,
    enumerate_grid,
    expected_double_eigenvalues,
    list_oracles,
    pattern_grid,
    run_oracle,
)
from signchange.polysys import finite_direction_feasibility
from signchange.subgradients import coupled_subgradient_value, zero_direction_gap
from signchange.transitions import (
    Topology,
    hadamard_norm_sq,
    pair_counts,
    pair_stats,
    sign_changes,
    smoothed_sign_changes,
    symmetric2_eigenvalues,
    transition_norm_sq,
)

dims = st.integers(min_value=2, max_value=6)


def test_pattern_grid_matches_product_order():
    grid = pattern_grid(3)
    expected = list(product((-1, 0, 1), repeat=3))
    assert [tuple(int(v) for v in row) for row in grid] == expected


@given(dims)
def test_pattern_grid_negation_is_reversal(n):
    grid = pattern_grid(n)
    assert np.array_equal(-grid, grid[::-1])


def test_pattern_grid_bounds():
    with pytest.raises(ValueError):
        pattern_grid(1)
    with pytest.raises(ValueError):
        pattern_grid(13)


@given(dims, st.sampled_from(list(Topology)))
def test_pattern_stats_match_scalar_counts(n, topo):
    grid = pattern_grid(n)
    weak, flips = pair_stats(grid, topo)
    for r in range(0, len(grid), max(1, len(grid) // 40)):
        pattern = tuple(int(v) for v in grid[r])
        assert (int(weak[r]), int(flips[r])) == pair_counts(pattern, topo)


def test_enumerate_grid_n2_circular_values():
    table = enumerate_grid(2, Topology.CIRCULAR)
    values = {pattern: t for pattern, t in table.rows()}
    assert len(values) == 9
    assert values[(1, 1)] == 0
    assert values[(1, -1)] == 2
    assert values[(1, 0)] == 2
    assert values[(0, 0)] == 0
    # circular n=2 visits each unordered pair twice, so t is even
    assert all(t % 2 == 0 for t in values.values())


def test_enumerate_grid_n4_circular_census():
    table = enumerate_grid(4, Topology.CIRCULAR)
    hist = table.histogram()
    assert hist == {0: 3, 2: 36, 3: 24, 4: 18}
    top = [pattern for pattern, t in table.rows() if t == 4]
    assert len(top) == 18
    full_support = [p for p in top if all(v != 0 for v in p)]
    assert sorted(full_support) == [(-1, 1, -1, 1), (1, -1, 1, -1)]
    zero_change = [pattern for pattern, t in table.rows() if t == 0]
    assert sorted(zero_change) == [(-1, -1, -1, -1), (0, 0, 0, 0), (1, 1, 1, 1)]


@pytest.mark.parametrize(
    "n,threshold",
    [(4, 3), (2, 0), (3, 1)],
)
def test_center_symmetry_sample_points(n, threshold):
    table = enumerate_grid(n, Topology.CIRCULAR)
    assert center_symmetry_check(table, threshold)


@given(dims, st.sampled_from(list(Topology)), st.integers(min_value=-1, max_value=6))
def test_center_symmetry_any_threshold(n, topo, threshold):
    # negation invariance of the count makes every threshold symmetric
    assert center_symmetry_check(enumerate_grid(n, topo), threshold)


def test_first_component_slices_partition_rows():
    table = enumerate_grid(4, Topology.CIRCULAR)
    slices = table.first_component_slices()
    assert slices == {-1: (0, 27), 0: (27, 54), 1: (54, 81)}
    for z1, (lo, hi) in slices.items():
        assert all(int(p[0]) == z1 for p in table.patterns[lo:hi])


def test_to_csv_layout_and_slice():
    table = enumerate_grid(2, Topology.CIRCULAR)
    lines = table.to_csv().strip().split("\n")
    assert lines[0] == "z1,z2,t"
    assert lines[1] == "-1,-1,0"
    assert len(lines) == 10
    sliced = table.to_csv(first_component=1).strip().split("\n")
    assert len(sliced) == 4
    assert all(line.startswith("1,") for line in sliced[1:])
    with pytest.raises(ValueError):
        table.to_csv(first_component=2)


def test_json_summary_contents():
    summary = enumerate_grid(4, Topology.CIRCULAR).json_summary()
    assert summary["rows"] == 81
    assert summary["histogram"]["4"] == 18
    assert summary["symmetry"]["threshold"] == 3
    assert summary["symmetry"]["closed_under_negation"] is True
    assert summary["symmetry"]["count_above"] == 18


def test_classify_no_zero_stationary():
    result = classify_point((1.0, -1.0))
    assert result.label is Label.NO_ZERO_STATIONARY
    assert result.reachable == (((1, -1), 2),)
    assert "= {0}" in result.frechet_note


def test_classify_local_max_with_reachable_set():
    result = classify_point((1.0, 0.0))
    assert result.label is Label.LOCAL_MAX
    assert result.t_at_x == 2
    reachable = dict(result.reachable)
    assert reachable == {(1, -1): 2, (1, 0): 2, (1, 1): 0}
    assert "zero-support subspace" in result.frechet_note


def test_classify_origin_local_min():
    result = classify_point((0.0, 0.0, 0.0))
    assert result.label is Label.LOCAL_MIN
    assert result.t_at_x == 0
    assert len(result.reachable) == 27


def test_classify_neither():
    result = classify_point((0.0, 0.0, 1.0), Topology.LINEAR)
    assert result.label is Label.NEITHER
    values = [t for _, t in result.reachable]
    assert min(values) < result.t_at_x < max(values)


@given(st.lists(st.floats(-5, 5).filter(lambda v: abs(v) > 1e-6), min_size=2, max_size=6))
def test_classify_full_support_is_stationary(x):
    result = classify_point(x)
    assert result.label is Label.NO_ZERO_STATIONARY
    assert len(result.reachable) == 1


def test_expected_eigenvalue_table_branch_relation():
    for point in EXPECTED_2EIG_UPPER:
        hi, lo = expected_double_eigenvalues(point, 0.5)
        lhi, llo = expected_double_eigenvalues((-point[0], -point[1]), -0.5)
        assert (lhi, llo) == (-lo, -hi)
        assert hi >= lo


def test_expected_eigenvalue_spot_values():
    assert expected_double_eigenvalues((0, 0), 0.5) == (1.0, -1.0)
    # -2 +- 5
    assert expected_double_eigenvalues((-1, -1), 0.5) == (3.0, -7.0)
    assert expected_double_eigenvalues((1, 1), 0.5) == (17.0, -5.0)
    hi, lo = expected_double_eigenvalues((0, 1), 0.5)
    assert hi == pytest.approx(3.0 + 3.0 * math.sqrt(2.0))
    assert lo == pytest.approx(3.0 - 3.0 * math.sqrt(2.0))


def test_oracle_registry_listing():
    names = list_oracles()
    assert "ft_inequality_n4" in names
    assert "bound_chain_n6" in names
    assert "hessian_table" in names
    assert names == sorted(names)


@pytest.mark.parametrize(
    "name",
    ["library_crosscheck_n2", "hessian_table", "qhat_identity_n2", "smoothing_n3"],
)
def test_fast_oracles_pass(name):
    report = run_oracle(name)
    assert report.passed, report
    assert report.counterexample is None
    assert report.checks > 0


def test_unknown_oracle_rejected():
    with pytest.raises(KeyError):
        run_oracle("does_not_exist")


def test_feasibility_oracle_covers_every_candidate():
    report = run_oracle("feasibility_n4")
    assert report.passed, report
    assert report.checks == 81 * 2


def test_grid_table_type():
    table = enumerate_grid(3, Topology.LINEAR)
    assert isinstance(table, GridTable)
    assert table.t.max() <= 2
    assert sign_changes((1, -1, 1), Topology.LINEAR) == 2


def _negated_flips(signs, topology):
    weak, flips = pair_stats(signs, topology)
    return weak, -flips


def _nan_flips(signs, topology):
    weak, flips = pair_stats(signs, topology)
    return weak, flips * np.nan


def _bent_certificate(z):
    result = finite_direction_feasibility(z)
    cert = result.certificate
    return replace(result, certificate=replace(cert, value=cert.value + 1))


# (oracle, name it calls from the library, a wrong stand-in, its passing check count)
BROKEN_LIBRARY = [
    ("library_crosscheck_n3", "pair_counts", lambda x, topology: (0, 0), 162),
    ("ft_inequality_n3", "pair_stats", _negated_flips, 17496),
    ("coupled_equality_n3", "pair_stats", _nan_flips, 1512),
    (
        "coupled_equality_n3",
        "coupled_subgradient_value",
        lambda y, topology: coupled_subgradient_value(y, topology) + 1,
        1512,
    ),
    ("bound_chain_n3", "pair_stats", _negated_flips, 594),
    (
        "bound_chain_n3",
        "transition_norm_sq",
        lambda x, k, topology: transition_norm_sq(x, k, topology) + 1,
        594,
    ),
    ("zero_set_n3", "pair_stats", _negated_flips, 270),
    ("hadamard_n3", "hadamard_norm_sq", lambda x, k: hadamard_norm_sq(x, k) + 1.0, 81),
    (
        "qhat_identity_n3",
        "zero_direction_gap",
        lambda x, params, topology: zero_direction_gap(x, params, topology) + 1,
        1944,
    ),
    (
        "smoothing_n3",
        "smoothed_sign_changes",
        lambda x, eps, topology: smoothed_sign_changes(x, eps, topology) + 1.0,
        270,
    ),
    ("feasibility_n4", "finite_direction_feasibility", _bent_certificate, 162),
    ("hadamard_random", "hadamard_norm_sq", lambda x, k: hadamard_norm_sq(x, k) + 1.0, 1000),
    ("hessian_table", "symmetric2_eigenvalues", lambda h: symmetric2_eigenvalues(h)[::-1], 72),
    ("signminor_random", "sign_minorant_gap", lambda x: sign_minorant_gap(x) - 1.0, 10003),
]


# an oracle's first row is named after the oracle, any further row after its target too
BROKEN_IDS = []
for name, target, *_ in BROKEN_LIBRARY:
    BROKEN_IDS.append(name if name not in BROKEN_IDS else f"{name}-{target}")


@pytest.mark.parametrize("name,target,wrong,golden", BROKEN_LIBRARY, ids=BROKEN_IDS)
def test_oracle_reports_a_wrong_library_value(monkeypatch, name, target, wrong, golden):
    monkeypatch.setattr(oracles, target, wrong)
    report = run_oracle(name)
    assert report.passed is False
    assert report.counterexample
    assert 0 < report.checks <= golden
