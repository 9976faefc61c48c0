import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from batching import assert_rows_equal, batches, rowwise, weights
from signchange.counting import count_nonzero
from signchange.transitions import (
    Hessian2,
    Topology,
    hadamard_norm_sq,
    pair_counts,
    sign_changes,
    smoothed_sign_changes,
    symmetric2_eigenvalues,
    transition_hessian_2d,
    transition_map,
    transition_norm_sq,
)
from signchange.transitions import _classes, _int_codes

signs = st.sampled_from((-1, 0, 1))
patterns = st.lists(signs, min_size=2, max_size=8).map(tuple)
topologies = st.sampled_from(list(Topology))


def test_topology_from_name():
    assert Topology.from_name("circular") is Topology.CIRCULAR
    assert Topology.from_name("LINEAR") is Topology.LINEAR
    with pytest.raises(ValueError):
        Topology.from_name("moebius")


def _pair_value(a, b, k):
    """The transition value of the one linear pair of the 2-vector (a, b)."""
    (value,) = transition_map((a, b), k, Topology.LINEAR)
    return value


@pytest.mark.parametrize("a,b", [(x, x) for x in (-1, 0, 1)])
def test_component_vanishes_on_equal_signs(a, b):
    for k in (0.5, -0.5, 2.0, Fraction(1, 3)):
        assert _pair_value(a, b, k) == 0


@pytest.mark.parametrize("a,b", [(0, 1), (1, 0), (0, -1), (-1, 0)])
def test_component_weak_transition_magnitude_one(a, b):
    for k in (0.5, -0.5, 2.0):
        assert abs(_pair_value(a, b, k)) == 1


@pytest.mark.parametrize("a,b", [(1, -1), (-1, 1)])
def test_component_full_flip_is_plus_two_k(a, b):
    # both flip orientations give +2k, not opposite signs
    assert _pair_value(a, b, 0.5) == 1.0
    assert _pair_value(a, b, Fraction(1, 2)) == Fraction(1)
    assert _pair_value(a, b, -2) == -4


def test_component_rejects_non_signs():
    for bad in (math.nan, "a"):
        with pytest.raises(ValueError):
            _pair_value(bad, 0, 0.5)
    with pytest.raises(ValueError):
        _pair_value(0, 1, math.inf)


@pytest.mark.parametrize("k", [300, Fraction(1, 3), 0.5])
@pytest.mark.parametrize("topo", list(Topology))
def test_transition_map_matches_components(k, topo):
    # 300 flips to 2k = 600, beyond int8; each value has the type of the formula on int signs
    for pattern in product((-1, 0, 1), repeat=4):
        # the circular wrap pair (n - 1, 0) comes last
        pairs = list(zip(pattern, pattern[1:] + pattern[:1]))
        if topo is Topology.LINEAR:
            pairs.pop()
        expected = [(a + b + k * a * b) * (a * b - 1) for a, b in pairs]
        values = transition_map(pattern, k, topo)
        assert [(type(v), v) for v in values] == [(type(v), v) for v in expected]


def test_sign_change_example_vector():
    x = (-24.0, -30.0, 19.0, 14.0, 0.0)
    assert sign_changes(x, Topology.CIRCULAR) == 3
    assert sign_changes(x, Topology.LINEAR) == 2
    assert pair_counts(x, Topology.CIRCULAR) == (2, 1)


def test_sign_changes_needs_two_components():
    with pytest.raises(ValueError):
        sign_changes([1.0])


@given(patterns, topologies)
def test_norm_at_half_counts_changes(pattern, topo):
    t = sign_changes(pattern, topo)
    assert transition_norm_sq(pattern, Fraction(1, 2), topo) == t
    assert transition_norm_sq(pattern, Fraction(-1, 2), topo) == t
    assert transition_norm_sq(pattern, 0.5, topo) == t


@given(patterns, topologies, st.sampled_from((0.1, 0.25, 0.4, 0.5)), st.sampled_from((0.5, 0.75, 1.0, 2.0)))
def test_norm_brackets_count(pattern, topo, k_low, k_high):
    t = sign_changes(pattern, topo)
    assert transition_norm_sq(pattern, k_low, topo) <= t
    assert transition_norm_sq(pattern, k_high, topo) >= t


@given(patterns, topologies)
def test_count_is_negation_invariant(pattern, topo):
    negated = tuple(-v for v in pattern)
    assert sign_changes(pattern, topo) == sign_changes(negated, topo)


@given(patterns, topologies, st.sampled_from((0.1, 0.5, 1.0, -0.3, 2.0)))
def test_transition_support_size_is_the_count(pattern, topo, k):
    values = transition_map(pattern, k, topo)
    assert count_nonzero(np.asarray(values, dtype=float)) == sign_changes(pattern, topo)


@given(patterns, topologies)
def test_weak_plus_flips_is_the_count(pattern, topo):
    weak, flips = pair_counts(pattern, topo)
    assert weak + flips == sign_changes(pattern, topo)
    assert sign_changes(pattern, topo) <= (len(pattern) if topo is Topology.CIRCULAR else len(pattern) - 1)


@given(patterns, st.sampled_from((0.5, 1.0, 0.25, -1.5)))
def test_hadamard_form_matches_closed_form(pattern, k):
    direct = float(transition_norm_sq(pattern, k, Topology.CIRCULAR))
    assert hadamard_norm_sq(pattern, k) == pytest.approx(direct, abs=1e-12)


def test_hadamard_on_real_vector():
    x = np.array([3.5, -0.2, 0.0, 12.0, -7.0])
    assert hadamard_norm_sq(x, 0.5) == float(sign_changes(x, Topology.CIRCULAR))


def test_norm_sq_exact_fraction_arithmetic():
    value = transition_norm_sq((1, -1, 0, 1), Fraction(1, 3), Topology.CIRCULAR)
    # 2 weak transitions and 1 full flip: 2 + 4*(1/9)
    assert value == Fraction(22, 9)
    assert isinstance(value, Fraction)


def test_smoothing_params_validation():
    with pytest.raises(ValueError, match="positive"):
        smoothed_sign_changes([1.0, -1.0], 0.0)
    with pytest.raises(ValueError, match="positive"):
        smoothed_sign_changes([1.0, -1.0], -1e-9)
    with pytest.raises(ValueError):
        smoothed_sign_changes([1.0, -1.0], math.inf)


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8), topologies)
def test_smoothed_count_below_count(y, topo):
    assert smoothed_sign_changes(y, 1e-3, topo) <= sign_changes(y, topo) + 1e-12


@given(patterns, topologies)
def test_smoothed_changes_scale_on_patterns(pattern, topo):
    # transition entries on patterns are 0 or +-1 at k = 1/2, so the
    # smoothed value collapses to t / (1 + eps)
    t = sign_changes(pattern, topo)
    for eps in (1e-1, 1e-4, 1e-8):
        value = smoothed_sign_changes(pattern, eps, topo)
        assert value == pytest.approx(t / (1.0 + eps), abs=1e-9)
        assert value <= t


def test_smoothed_changes_monotone_in_eps():
    x = (1.0, -2.0, 0.0, 3.0)
    values = [smoothed_sign_changes(x, eps) for eps in (1e-1, 1e-3, 1e-6, 1e-9)]
    assert values == sorted(values)
    assert values[-1] == pytest.approx(sign_changes(x), abs=1e-6)


def test_hessian_entries_match_finite_differences():
    def g(x1, x2, b):
        return (x1 + x2 + b * x1 * x2) * (x1 * x2 - 1.0)

    x1, x2, b, h = 0.7, -1.3, 0.5, 1e-5
    hess = transition_hessian_2d((x1, x2), b)
    d11 = (g(x1 + h, x2, b) - 2.0 * g(x1, x2, b) + g(x1 - h, x2, b)) / (h * h)
    d22 = (g(x1, x2 + h, b) - 2.0 * g(x1, x2, b) + g(x1, x2 - h, b)) / (h * h)
    d12 = (
        g(x1 + h, x2 + h, b) - g(x1 + h, x2 - h, b) - g(x1 - h, x2 + h, b) + g(x1 - h, x2 - h, b)
    ) / (4.0 * h * h)
    assert hess.a11 == pytest.approx(d11, abs=1e-5)
    assert hess.a22 == pytest.approx(d22, abs=1e-5)
    assert hess.a12 == pytest.approx(d12, abs=1e-5)


def test_hessian_branch_negation_symmetry():
    # H at (-x) on the -1/2 branch is the negated +1/2 branch H at x
    for point in product((-1.0, 0.0, 1.0, 0.4), repeat=2):
        upper = transition_hessian_2d(point, 0.5)
        lower = transition_hessian_2d(tuple(-v for v in point), -0.5)
        assert lower.a11 == pytest.approx(-upper.a11, abs=1e-12)
        assert lower.a12 == pytest.approx(-upper.a12, abs=1e-12)
        assert lower.a22 == pytest.approx(-upper.a22, abs=1e-12)


def test_hessian_validation():
    with pytest.raises(ValueError):
        transition_hessian_2d((1.0, 2.0, 3.0), 0.5)
    with pytest.raises(ValueError):
        transition_hessian_2d((1.0, 2.0), 0.3)


@given(
    st.floats(-100, 100),
    st.floats(-100, 100),
    st.floats(-100, 100),
)
def test_closed_form_eigenvalues_match_numpy(a11, a12, a22):
    hi, lo = symmetric2_eigenvalues(Hessian2(a11=a11, a12=a12, a22=a22, branch=0.5))
    ref = np.linalg.eigvalsh(np.array([[a11, a12], [a12, a22]]))
    assert hi == pytest.approx(float(ref[1]), abs=1e-9)
    assert lo == pytest.approx(float(ref[0]), abs=1e-9)
    assert hi >= lo


TINY = [Fraction(1, 10**400), Fraction(-1, 10**400), 1]
HUGE = [10**400, -1]


def test_exact_signs_beyond_float64():
    # both values round to 0.0 or overflow in float64; the signs must survive
    assert sign_changes(TINY, Topology.LINEAR) == 2
    assert sign_changes(HUGE) == 2
    assert pair_counts(TINY, Topology.LINEAR) == (0, 2)
    assert pair_counts(HUGE) == (0, 2)
    for x, topo in ((TINY, Topology.LINEAR), (HUGE, Topology.CIRCULAR)):
        assert transition_norm_sq(x, Fraction(1, 2), topo) == 2
        value = transition_norm_sq(x, Fraction(1, 3), topo)
        # two full flips: 4 * (1/9) * 2
        assert value == Fraction(8, 9)
        assert isinstance(value, Fraction)


@pytest.mark.parametrize("k", [math.nan, np.float32("nan"), np.float32("-inf")])
def test_weight_must_be_finite(k):
    with pytest.raises(ValueError):
        transition_norm_sq((1, -1, 0), k)


@pytest.mark.parametrize(
    "call",
    [
        lambda x: sign_changes(x),
        lambda x: pair_counts(x),
        lambda x: transition_norm_sq(x, 0.5),
        lambda x: transition_norm_sq(x, 0.5, Topology.LINEAR),
        lambda x: hadamard_norm_sq(x, 0.5),
        lambda x: transition_map(x, 0.5),
        lambda x: smoothed_sign_changes(x, 1e-3),
    ],
    ids=[
        "sign_changes",
        "pair_counts",
        "transition_norm_sq",
        "transition_norm_sq_linear",
        "hadamard_norm_sq",
        "transition_map",
        "smoothed_sign_changes",
    ],
)
def test_pair_statistics_need_two_components(call):
    for x in ([1.0], [0], np.array([-2.5])):
        with pytest.raises(ValueError):
            call(x)


@given(batches(), weights, topologies)
def test_norm_batch_matches_rows(x, k, topo):
    expected = rowwise(lambda row: transition_norm_sq(row, k, topo), x)
    assert_rows_equal(transition_norm_sq(x, k, topo), expected)


@given(batches(), weights)
def test_hadamard_batch_matches_rows(x, k):
    batch = hadamard_norm_sq(x, k)
    expected = rowwise(lambda row: hadamard_norm_sq(row, k), x)
    assert batch.dtype == np.float64 and batch.shape == (len(x),)
    assert batch.tolist() == expected


@given(batches(), st.floats(1e-12, 10.0), topologies)
def test_smoothed_batch_matches_rows(x, eps, topo):
    batch = smoothed_sign_changes(x, eps, topo)
    assert batch.dtype == np.float64
    assert batch.tolist() == rowwise(lambda row: smoothed_sign_changes(row, eps, topo), x)


BATCH_CALLS = [
    lambda x: transition_norm_sq(x, Fraction(1, 3)),
    lambda x: hadamard_norm_sq(x, 0.5),
    lambda x: smoothed_sign_changes(x, 1e-3, Topology.LINEAR),
]


@pytest.mark.parametrize("call", BATCH_CALLS)
def test_batch_validation(call):
    assert call(np.zeros((0, 3))).shape == (0,)
    for bad in (np.zeros((2, 1)), np.array([[1.0, math.nan]]), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError):
            call(bad)


def _byte_partition(columns):
    stacked = np.stack(columns, axis=-1)
    _, inverse = np.unique(stacked.view(f"V{stacked.itemsize * len(columns)}"), return_inverse=True)
    return inverse.reshape(-1)


def _same_partition(a, b):
    return np.array_equal(a[:, None] == a[None, :], b[:, None] == b[None, :])


# value pools with extremes of each dtype; drawn with repeats, so rows collide
INT_COLUMN_POOLS = {
    "int8": [np.array([-128, -1, 0, 127], dtype=np.int8)] * 3,
    "int64": [
        np.array([-(2**40), -5, 0, 2**20], dtype=np.int64),
        np.array([-(2**63), -(2**63) + 3], dtype=np.int64),
        np.array([2**63 - 1, 2**63 - 9], dtype=np.int64),
    ],
    "negative": [np.array([-3, -2, -1], dtype=np.int64), np.array([-7, -1], dtype=np.int16)],
    "near_2_64": [np.array([2**64 - 1, 2**64 - 2, 2**64 - 2**20], dtype=np.uint64)] * 3,
    "int8_int64": [np.array([-128, 0, 127], dtype=np.int8), np.array([-(2**52), 2**52], dtype=np.int64)],
    "span_2_62": [np.array([-(2**61), 2**61 - 1], dtype=np.int64)],
}


@pytest.mark.parametrize("case", sorted(INT_COLUMN_POOLS))
def test_int_codes_partition_rows_as_their_bytes_do(case):
    rng = np.random.default_rng(0)
    for rows in (1, 7, 300):
        columns = [rng.choice(pool, rows) for pool in INT_COLUMN_POOLS[case]]
        codes = _int_codes(columns)
        assert codes is not None and codes.dtype == np.int64
        assert _same_partition(np.unique(codes, return_inverse=True)[1], _byte_partition(columns))
        rep, inverse = _classes(*columns)
        assert _same_partition(inverse, _byte_partition(columns))
        for column in columns:
            assert np.array_equal(column[rep][inverse], column)


@pytest.mark.parametrize(
    "pools",
    [
        [np.array([0, 2**62], dtype=np.int64)],
        [np.array([0, 2**31], dtype=np.int64)] * 2,
        [np.array([0, 2**64 - 1], dtype=np.uint64)],
        [np.array([0, 1], dtype=np.int8), np.array([0.5, 1.5])],
    ],
    ids=["span_past_2_62", "product_past_2_62", "uint64_full", "float"],
)
def test_wide_or_float_columns_group_by_their_bytes(pools):
    columns = [np.resize(pool, 300) for pool in pools]
    # reversed, so the two columns of a two-column case differ row by row
    columns[0] = columns[0][::-1].copy()
    assert _int_codes(columns) is None
    rep, inverse = _classes(*columns)
    assert _same_partition(inverse, _byte_partition(columns))
    for column in columns:
        assert np.array_equal(column[rep][inverse], column)
