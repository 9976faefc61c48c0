import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from batching import assert_rows_equal, batches, rowwise
from signchange.oracles import SWEEP_WEIGHTS, SWEEP_WEIGHTS_EXACT, pattern_grid
from signchange.subgradients import (
    GapParams,
    GapProfile,
    coupled_subgradient_value,
    decoupled_gap,
    gap_profile,
    profile_csv,
    zero_direction_gap,
)
from signchange.transitions import Topology, pair_stats, sign_changes

signs = st.sampled_from((-1, 0, 1))
patterns = st.lists(signs, min_size=2, max_size=6).map(tuple)
topologies = st.sampled_from(list(Topology))
weight_pairs = st.sampled_from(SWEEP_WEIGHTS_EXACT)
# int, float and Fraction weights on the positive branch, then on either sign
positive_branch = st.sampled_from(
    SWEEP_WEIGHTS_EXACT + SWEEP_WEIGHTS + [(Fraction(1, 3), 1), (0.3, 3), (Fraction(1, 2), 0.75)]
)
any_branch = positive_branch | st.sampled_from(
    [(-0.5, -2.0), (0.25, -0.5), (Fraction(-1, 4), 1), (Fraction(1, 5), -3)]
)


@pytest.mark.parametrize(
    "k_y,k_x",
    [(0.5, 0.5), (0.1, 2.0), (-0.5, -2.0), (Fraction(1, 4), Fraction(3, 4)), (0.25, -0.5)],
)
def test_gap_params_accepts_valid_weights(k_y, k_x):
    params = GapParams(k_y=k_y, k_x=k_x)
    assert abs(params.k_y) <= Fraction(1, 2) <= abs(params.k_x)


@pytest.mark.parametrize(
    "k_y,k_x",
    [(0.6, 1.0), (0.3, 0.4), (0.0, 1.0), (0.5, 0.25), (0.25, math.inf), (0.25, -math.inf)],
)
def test_gap_params_rejects_invalid_weights(k_y, k_x):
    with pytest.raises(ValueError):
        GapParams(k_y=k_y, k_x=k_x)


def test_coupled_value_examples():
    assert coupled_subgradient_value((1.0, -1.0)) == 2
    assert coupled_subgradient_value((0.0, 0.0)) == 0
    assert coupled_subgradient_value((-1, 1, 1, 0, -1, 0, 0)) == 5


@given(patterns, topologies)
def test_coupled_value_equals_count(pattern, topo):
    assert coupled_subgradient_value(pattern, topo) == sign_changes(pattern, topo)


@given(patterns, patterns, topologies)
def test_coupled_difference_is_exact(base, displaced, topo):
    if len(base) != len(displaced):
        displaced = base[::-1]
    lhs = sign_changes(displaced, topo) - sign_changes(base, topo)
    rhs = coupled_subgradient_value(displaced, topo) - coupled_subgradient_value(base, topo)
    assert lhs == rhs


def test_decoupled_gap_examples():
    params = GapParams(k_y=Fraction(1, 2), k_x=Fraction(1))
    assert decoupled_gap((1, -1), (0, 0), params) == -6
    assert decoupled_gap((1, 1), (0, -2), params) == 2
    assert sign_changes((1, -1)) - sign_changes((1, 1)) == 2
    assert decoupled_gap((0, 0), (0, 0), params) == 0


def test_decoupled_gap_dimension_mismatch():
    with pytest.raises(ValueError):
        decoupled_gap((1, -1), (0, 0, 0), GapParams(0.5, 1.0))


def test_gaps_are_exact_beyond_float64():
    # both entries round to 0.0 in float64, which would erase the two flips
    x = [Fraction(1, 10**400), Fraction(-1, 10**400), 1]
    params = GapParams(Fraction(1, 4), Fraction(1))
    expected = zero_direction_gap(x, params, Topology.LINEAR)
    assert expected == Fraction(-15, 2)
    assert decoupled_gap(x, [0, 0, 0], params, Topology.LINEAR) == expected
    profile = gap_profile(x, [0, 0, 0], Fraction(1), Topology.LINEAR)
    assert profile.value(Fraction(1, 4)) == expected
    big = [10**400, -(10**400), 3]
    assert decoupled_gap(big, np.zeros(3, dtype=np.int64), params, Topology.LINEAR) == expected
    # a float displacement is added at its exact value, not rounded into float64
    for point in (x, big):
        assert decoupled_gap(point, np.zeros(3), params, Topology.LINEAR) == expected
        profile = gap_profile(point, [0.0, -0.0, 0.5], Fraction(1), Topology.LINEAR)
        assert profile.flips == 2


@given(patterns, patterns, topologies, weight_pairs)
def test_subgradient_inequality_on_pattern_pairs(base, displaced, topo, weights):
    if len(base) != len(displaced):
        displaced = base[::-1]
    d = np.asarray(displaced, dtype=float) - np.asarray(base, dtype=float)
    params = GapParams(k_y=weights[0], k_x=weights[1])
    gap = decoupled_gap(base, d, params, topo)
    assert sign_changes(displaced, topo) - sign_changes(base, topo) >= gap


def test_zero_direction_examples():
    assert zero_direction_gap((1, -1), GapParams(Fraction(1, 2), Fraction(1))) == -6
    assert zero_direction_gap((1, 1), GapParams(Fraction(1, 2), Fraction(1))) == 0
    value = zero_direction_gap((1, -1, 0), GapParams(Fraction(1, 4), Fraction(1)))
    assert value == Fraction(-15, 4)
    assert float(value) == -3.75


def test_zero_direction_requires_positive_branch():
    with pytest.raises(ValueError):
        zero_direction_gap((1, -1), GapParams(-0.5, 1.0))


@given(patterns, topologies, weight_pairs)
def test_zero_direction_matches_gap_at_zero(pattern, topo, weights):
    params = GapParams(k_y=weights[0], k_x=weights[1])
    closed = zero_direction_gap(pattern, params, topo)
    direct = decoupled_gap(pattern, [0] * len(pattern), params, topo)
    assert closed == direct
    assert closed <= 0


@given(patterns, topologies, weight_pairs)
def test_zero_direction_reduction(pattern, topo, weights):
    k_y, k_x = weights
    _, flips = pair_stats(np.asarray([pattern], dtype=np.int8), topo)
    expected = 4 * (k_y * k_y - k_x * k_x) * int(flips[0])
    assert zero_direction_gap(pattern, GapParams(k_y, k_x), topo) == expected


def test_convex_blend_of_gaps_stays_subgradient():
    # convex combinations of valid gap functions keep the inequality
    n = 4
    grid = pattern_grid(n)
    for topo in Topology:
        weak, flips = pair_stats(grid, topo)
        t = (weak + flips).astype(float)
        lhs = t[None, :] - t[:, None]
        pairs = [(Fraction(1, 10), Fraction(2)), (Fraction(1, 2), Fraction(1, 2))]
        gaps = []
        for k_y, k_x in pairs:
            displaced = weak + 4.0 * float(k_y) ** 2 * flips
            base = weak + 4.0 * float(k_x) ** 2 * flips
            gaps.append(displaced[None, :] - base[:, None])
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            blend = alpha * gaps[0] + (1.0 - alpha) * gaps[1]
            assert np.all(lhs >= blend - 1e-12)


def test_gap_tightens_with_weights():
    # more spread between the weights only lowers the slack at d = 0
    x = (1, -1, 0, 1)
    zero = (0, 0, 0, 0)
    by_kx = [
        decoupled_gap(x, zero, GapParams(Fraction(1, 2), kx))
        for kx in (Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(2))
    ]
    assert all(a > b for a, b in zip(by_kx, by_kx[1:]))
    by_ky = [
        decoupled_gap(x, zero, GapParams(ky, Fraction(2)))
        for ky in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2))
    ]
    assert all(a < b for a, b in zip(by_ky, by_ky[1:]))


def test_profile_flips_only_pattern():
    profile = gap_profile((1, -1), (0, 0), Fraction(1))
    assert (profile.weak, profile.flips) == (0, 2)
    assert profile.quad_coeff == 8
    assert profile.offset == -8
    assert profile.value(Fraction(1, 2)) == -6


def test_profile_constant_zero():
    profile = gap_profile((1, 1), (0, 0), Fraction(1))
    assert profile.value(Fraction(1, 4)) == 0
    assert profile.value(Fraction(1, 2)) == 0


def test_profile_displaced_example():
    x = (-1, 1, 1, 0, -1, 0, 0)
    d = (0, 74, 75, 0, -40, -50, 0)
    profile = gap_profile(x, d, Fraction(1))
    assert (profile.weak, profile.flips) == (4, 1)
    # base norm |l(x; 1)|^2 = 4 weak + 4 * 1 flip = 8
    assert profile.offset == -8
    assert profile.value(Fraction(1, 2)) == -3


@given(patterns, patterns, st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]))
def test_profile_agrees_with_gap(base, displaced, k_x):
    if len(base) != len(displaced):
        displaced = base[::-1]
    d = np.asarray(displaced, dtype=float) - np.asarray(base, dtype=float)
    profile = gap_profile(base, d, k_x)
    for k in (Fraction(1, 8), Fraction(1, 3), Fraction(1, 2)):
        params = GapParams(k_y=k, k_x=k_x)
        assert profile.value(k) == decoupled_gap(base, d, params)


def test_profile_validation():
    with pytest.raises(ValueError):
        gap_profile((1, -1), (0, 0), Fraction(1, 4))
    with pytest.raises(ValueError):
        gap_profile((1, -1), (0, 0, 0), Fraction(1))
    profile = GapProfile(weak=0, flips=2, offset=-8, k_x=1)
    with pytest.raises(ValueError):
        profile.value(Fraction(3, 4))
    with pytest.raises(ValueError):
        profile.value(0)


def test_profile_csv_layout():
    profile = gap_profile((1, -1), (0, 0), Fraction(1))
    text = profile_csv(profile)
    lines = text.strip().split("\n")
    assert lines[0] == "k,gap"
    assert len(lines) == 101
    assert lines[1] == "0.005,-7.9998"
    assert lines[-1] == "0.5,-6.0"
    with pytest.raises(ValueError):
        profile_csv(profile, step=Fraction(0))


@given(batches(), positive_branch, topologies)
def test_zero_direction_batch_matches_rows(x, weights, topo):
    params = GapParams(*weights)
    expected = rowwise(lambda row: zero_direction_gap(row, params, topo), x)
    assert_rows_equal(zero_direction_gap(x, params, topo), expected)


@given(st.data(), any_branch, topologies)
def test_decoupled_batch_matches_rows(data, weights, topo):
    # x and d of independent kinds: int + int, float + float and every mix
    x = data.draw(batches())
    d = data.draw(batches(shape=x.shape))
    params = GapParams(*weights)
    expected = rowwise(lambda p, q: decoupled_gap(p, q, params, topo), x, d)
    if expected is None:
        with pytest.raises(ValueError):
            decoupled_gap(x, d, params, topo)
    else:
        assert_rows_equal(decoupled_gap(x, d, params, topo), expected)


def test_decoupled_batch_int64_overflow():
    # both sums in row 0 wrap to -2^63 in int64; the true sums are positive
    x = np.array([[2**62, -1, 2**63 - 1], [1, -1, 0]], dtype=np.int64)
    d = np.array([[2**62, 0, 1], [0, 0, 0]], dtype=np.int64)
    params = GapParams(Fraction(1, 4), Fraction(1))
    expected = [decoupled_gap(p, q, params, Topology.LINEAR) for p, q in zip(x, d)]
    assert expected[0] == Fraction(-15, 2)
    assert_rows_equal(decoupled_gap(x, d, params, Topology.LINEAR), expected)


def test_batch_gap_validation():
    params = GapParams(Fraction(1, 4), Fraction(1))
    x = pattern_grid(3)
    with pytest.raises(ValueError):
        decoupled_gap(x, np.zeros((len(x), 2)), params)
    with pytest.raises(ValueError):
        decoupled_gap(x, [0, 0, 0], params)
    assert zero_direction_gap(np.zeros((0, 3)), params).shape == (0,)
    assert decoupled_gap(np.zeros((0, 3)), np.zeros((0, 3)), params).shape == (0,)


@pytest.mark.parametrize("n", range(2, 6))
def test_batch_gaps_match_scalar_sweep(n):
    # the per-pattern loop that the qhat_identity oracles ran before they
    # went over to one batch call per topology and weight pair
    patterns = pattern_grid(n)
    zero = np.zeros_like(patterns)
    rows = [tuple(row) for row in patterns.tolist()]
    for topo in Topology:
        for ky, kx in SWEEP_WEIGHTS_EXACT:
            params = GapParams(k_y=ky, k_x=kx)
            assert_rows_equal(
                zero_direction_gap(patterns, params, topo),
                [zero_direction_gap(row, params, topo) for row in rows],
            )
            assert_rows_equal(
                decoupled_gap(patterns, zero, params, topo),
                [decoupled_gap(row, [0] * n, params, topo) for row in rows],
            )
