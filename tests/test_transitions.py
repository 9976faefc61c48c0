import math
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from batching import assert_rows_equal, batches, object_array, rowwise, weights
from signchange.counting import _signs, count_nonzero, sign_vector
from signchange.grid import pattern_grid
from signchange import transitions
from signchange.oracles import _reference_pair_counts
from signchange.subgradients import GapParams, zero_direction_gap
from signchange.transitions import (
    Hessian2,
    Topology,
    hadamard_norm_sq,
    pair_counts,
    pair_stats,
    sign_changes,
    smoothed_sign_changes,
    symmetric2_eigenvalues,
    transition_hessian_2d,
    transition_map,
    transition_norm_sq,
)
from signchange.transitions import _SHORT, _classes

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
    # one entry, the length just below the shortest vector pair_stats counts
    counts = [sign_changes, pair_counts, lambda x, topology: transition_norm_sq(x, 0.5, topology)]
    for count, x, topology in product(counts, ([1.0], np.array([-1.0])), Topology):
        with pytest.raises(ValueError, match="at least two components"):
            count(x, topology)


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
    # smoothed value collapses to t / (1 + eps), rounded once
    t = sign_changes(pattern, topo)
    for eps in (1e-1, 1e-3, 1e-4, 1e-8):
        value = smoothed_sign_changes(pattern, eps, topo)
        assert value == t / (1.0 + eps)
        assert value <= t


@pytest.mark.parametrize("topo", list(Topology))
def test_smoothed_batch_is_the_count_over_one_plus_eps(topo):
    grid = pattern_grid(6)
    counts = [sum(_reference_pair_counts(tuple(row), topo)) for row in grid.tolist()]
    # at 1e-3 and 0.7 a per-pair sum of 1 / (1 + eps) misses that division by an ulp
    for eps in (1e-1, 1e-3, 1e-4, 1e-8, 0.7):
        assert smoothed_sign_changes(grid, eps, topo).tolist() == [t / (1.0 + eps) for t in counts]


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


def _reference_eigenvalues(h: Hessian2) -> tuple[Decimal, Decimal]:
    """The eigenvalues of the float entries of h in 50-digit decimal arithmetic,
    descending: the root of larger magnitude mean +- spread, the other det / it."""
    with localcontext(prec=50):
        a11, a12, a22 = (Decimal(float(v)) for v in (h.a11, h.a12, h.a22))
        mean = (a11 + a22) / 2
        spread = (((a11 - a22) / 2) ** 2 + a12**2).sqrt()
        larger = mean + spread if mean >= 0 else mean - spread
        other = (a11 * a22 - a12**2) / larger if larger else Decimal(0)
        return (larger, other) if mean >= 0 else (other, larger)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "h",
    [
        # used to overflow to (inf, inf)
        Hessian2(1e308, 0.0, 1e308, 0.5),
        Hessian2(-1e308, 0.0, -1.5e308, 0.5),
        Hessian2(5e307, 1e308, 5e307, 0.5),
        # used to give (1e308, 0.0): mean - spread cancels to about -3e200
        transition_hessian_2d([1e154, -1e100], 0.5),
        Hessian2(1e300, 0.0, 1e-300, 0.5),
        Hessian2(1e-200, 1e200, 1e-200, -0.5),
        Hessian2(1.0, 1.0, 1.0, 0.5),
        # numpy entries are read as the floats of their values
        Hessian2(np.float32(1.5), np.float32(1.5), np.float32(1.5), 0.5),
        Hessian2(np.longdouble(3.0), np.float64(4.0), np.int64(-3), 0.5),
        Hessian2(3.0, 4.0, -3.0, 0.5),
        Hessian2(2.0, 1.0, 2.0, 0.5),
        Hessian2(0.0, 0.0, 0.0, 0.5),
        # subnormal entries: halving 5e-324 would round it to 0.0
        Hessian2(5e-324, 0.0, 5e-324, 0.5),
        Hessian2(5e-324, 5e-324, -1e-323, 0.5),
        transition_hessian_2d((1, -1), 0.5),
        transition_hessian_2d((-1, 0), -0.5),
    ],
    ids=[
        "equal_1e308", "negative_1e308", "off_diagonal_1e308", "cancelling_1e308",
        "spread_1e600", "off_diagonal_only", "rank_one", "rank_one_float32",
        "numpy_plus_minus_5", "plus_minus_5", "three_and_one", "zero",
        "subnormal", "subnormal_off_diagonal",
        "table_point", "table_point_lower",
    ],
)
def test_eigenvalues_match_a_decimal_reference(h):
    got = symmetric2_eigenvalues(h)
    assert all(type(v) is float for v in got) and got[0] >= got[1]
    for value, ref in zip(got, _reference_eigenvalues(h)):
        assert abs(Decimal(value) - ref) <= 2 * Decimal(math.ulp(float(ref)))
        # the signs decide definiteness, and 2 ulps of a subnormal reach zero
        assert (value > 0) - (value < 0) == (ref > 0) - (ref < 0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "h",
    [Hessian2(1e308, 1e308, 1e308, 0.5), Hessian2(-1.5e308, 1e308, 1.5e308, 0.5)],
    ids=["sum_2e308", "plus_minus_1.8e308"],
)
def test_eigenvalues_beyond_float64_raise(h):
    with pytest.raises(ValueError, match="leaves the float64 range"):
        symmetric2_eigenvalues(h)


@pytest.mark.parametrize(
    "h",
    [Hessian2("1.5", 0, 0, 0.5), Hessian2(10**400, 0, 0, 0.5)],
    ids=["string", "int_1e400"],
)
def test_eigenvalues_read_each_entry_as_a_float_parameter(h):
    # the string used to give (1.5, 0.0), the int an OverflowError
    with pytest.raises(ValueError, match="Hessian entry"):
        symmetric2_eigenvalues(h)


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call",
    [
        lambda: transition_map([1, -1], 1e308),
        lambda: transition_map([1, -1], np.float64(-1e308)),
        lambda: transition_norm_sq([1, -1], 1e200),
        lambda: transition_norm_sq([1, -1], np.float64(1e200)),
        lambda: hadamard_norm_sq([1, -1], 1e200),
        lambda: transition_hessian_2d([1e200, 1e200], 0.5),
        lambda: transition_hessian_2d([-1e200, 1.0], -0.5),
    ],
)
def test_float_results_beyond_float64_raise(call):
    with pytest.raises(ValueError, match="float64 range"):
        call()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call, want",
    [
        # 4k^2 is beyond float64, but no pair flips: the exact value is finite
        (lambda: transition_norm_sq([1, 1], 1e200), [0.0]),
        (lambda: transition_norm_sq(np.array([[1, 1], [1, 0]]), 1e200), [0.0, 2.0]),
    ],
)
def test_float_results_within_float64_are_returned_whatever_4k2_is(call, want):
    values = np.ravel(call()).tolist()
    assert [type(v) for v in values] == [float] * len(want) and values == want


def test_exact_weights_stay_exact_beyond_float64():
    assert transition_map([1, -1], 10**308) == (2 * 10**308, 2 * 10**308)
    assert transition_norm_sq([1, -1], 10**200) == 8 * 10**400
    assert transition_norm_sq([1, 1], Fraction(10**400, 3)) == 0
    # a numpy integer weight is read as the Python int of its value: 4k^2 does not wrap in int64
    assert transition_norm_sq([1, -1], np.int64(2**40)) == 8 * 2**80


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


# a sequence of weights, one per row, as a list, a tuple or an object array
weight_containers = st.sampled_from([list, tuple, object_array])


@given(st.data(), batches(), topologies, weight_containers)
def test_norm_batch_takes_one_weight_per_row(data, x, topo, container):
    ks = data.draw(st.lists(weights, min_size=len(x), max_size=len(x)))
    expected = rowwise(lambda row, k: transition_norm_sq(row, k, topo), x, ks)
    assert_rows_equal(transition_norm_sq(x, container(ks), topo), expected)


@given(st.data(), batches(), weight_containers)
def test_hadamard_batch_takes_one_weight_per_row(data, x, container):
    ks = data.draw(st.lists(weights, min_size=len(x), max_size=len(x)))
    batch = hadamard_norm_sq(x, container(ks))
    expected = np.array(rowwise(hadamard_norm_sq, x, ks), dtype=float).reshape(-1)
    assert batch.dtype == np.float64 and batch.shape == (len(x),)
    # bit for bit, so -0.0 and 0.0 differ
    assert batch.tobytes() == expected.tobytes()


def test_per_row_weights_keep_their_types():
    x = np.array([[1, -1, 0], [1, 1, -1], [0, 1, -1], [-1, 1, 0]])
    ks = [2, Fraction(1, 3), 0.5, np.int64(2**40)]
    values = transition_norm_sq(x, ks).tolist()
    singles = [transition_norm_sq(row, k) for row, k in zip(x, ks)]
    assert values == singles
    # int, Fraction, float, and a numpy integer read as the Python int of its value
    assert [type(v) for v in values] == [type(v) for v in singles] == [int, Fraction, float, int]
    assert values[1] == Fraction(8, 9) and values[3] == 2 + 4 * 2**80
    # a numeric weight array gives its entries as Python numbers
    assert transition_norm_sq(x, np.array([2, 0, 1, 3])).tolist() == [18, 0, 6, 38]
    assert [type(v) for v in transition_norm_sq(x, np.full(4, 0.5)).tolist()] == [float] * 4


@pytest.mark.parametrize("call", [transition_norm_sq, hadamard_norm_sq])
def test_a_batch_with_no_rows_and_no_weights_is_empty(call):
    for ks in ([], (), np.zeros(0)):
        result = call(np.zeros((0, 3)), ks)
        assert result.shape == (0,)


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


GRID = pattern_grid(4)
# the rows of GRID in the layouts a batch may come in, each counted row by row below
BATCH_LAYOUTS = {
    "every_other_row": GRID[::2],
    "reversed_columns": GRID[:, ::-1],
    "fortran_order": np.asfortranarray(GRID),
    "no_rows": GRID[:0],
    "one_row": GRID[40:41],
    "two_columns": GRID[:, :2],
    "int64": GRID.astype(np.int64),
    "bool": GRID != 0,
}


@pytest.mark.parametrize("layout", sorted(BATCH_LAYOUTS))
@pytest.mark.parametrize("topology", list(Topology))
def test_batch_pair_stats_match_the_one_vector_call(layout, topology):
    signs = BATCH_LAYOUTS[layout]
    weak, flips = pair_stats(signs, topology)
    assert weak.dtype == flips.dtype == np.intp and weak.shape == flips.shape == (len(signs),)
    by_row = [tuple(map(int, pair_stats(row, topology))) for row in signs]
    assert list(zip(weak.tolist(), flips.tolist())) == by_row


def test_batch_pair_stats_count_rows_longer_than_a_byte_holds():
    # 300 flips per row, which a sum in 8 bits would wrap
    weak, flips = pair_stats(np.tile(np.array([1, -1], dtype=np.int8), (3, 150)), Topology.CIRCULAR)
    assert weak.tolist() == [0, 0, 0] and flips.tolist() == [300, 300, 300]


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
    # no rows, as an empty batch gives _per_row
    for rows in (0, 1, 7, 300):
        columns = [rng.choice(pool, rows) for pool in INT_COLUMN_POOLS[case]]
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
    rep, inverse = _classes(*columns)
    assert _same_partition(inverse, _byte_partition(columns))
    for column in columns:
        assert np.array_equal(column[rep][inverse], column)


def _numeric_pool(dtype) -> np.ndarray:
    """Entries of one numeric dtype: zero, one and the dtype's extremes, with
    -1 where it is signed; for a float type also -0.0 and its subnormals."""
    if np.dtype(dtype).kind == "b":
        return np.array([False, True])
    if np.dtype(dtype).kind in "iu":
        info = np.iinfo(dtype)
        return np.array(sorted({info.min, -1 if info.min else 0, 0, 1, info.max}), dtype=dtype)
    info = np.finfo(dtype)
    tiny = info.smallest_subnormal
    return np.array([-0.0, 0.0, tiny, -tiny, 1.5, -1.5, info.max, -info.max], dtype=dtype)


# entries that the typed pass reads (ints, Fractions, floats), beyond float64 too
EXACT_POOL = [
    0, -0.0, 5e-324, -1.5, 10**400, -(10**400), Fraction(1, 10**400), Fraction(-1, 10**400),
    2**63 - 1, -(2**63), 2**64 - 1,
]
# with numpy scalars and a bool, which send the vector through the entry reader
MIXED_POOL = EXACT_POOL + [
    np.uint64(2**64 - 1), np.int64(-(2**63)), np.float32(-1e-45),
    -np.finfo(np.longdouble).smallest_subnormal, True,
]
NUMERIC_DTYPES = [
    np.bool_, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64,
    np.float16, np.float32, np.float64, np.longdouble,
]
CONTAINERS = {"list": list, "tuple": tuple, "object": object_array}
KERNEL_INPUTS = {
    **{np.dtype(dt).name: (_numeric_pool(dt), "array") for dt in NUMERIC_DTYPES},
    **{
        f"{container}_{name}": (pool, container)
        for name, pool in (("exact", EXACT_POOL), ("mixed", MIXED_POOL))
        for container in CONTAINERS
    },
}


# the lengths of the long vectors each kernel case is also read as: both
# sides of pair_stats' cut between its byte and numpy routes, and far past it
LONGS = (_SHORT - 1, _SHORT, _SHORT + 1, 4096)


def _entry_sign(v) -> int:
    """The per-entry rule (v > 0) - (v < 0), on the entry as it is."""
    return int(v > 0) - int(v < 0)


@pytest.mark.parametrize("n", [2, 3, 8])
@pytest.mark.parametrize("topology", list(Topology))
@pytest.mark.parametrize("case", sorted(KERNEL_INPUTS))
def test_sign_and_pair_kernels_match_the_per_entry_and_per_pair_rules(case, topology, n):
    pool, container = KERNEL_INPUTS[case]
    rng = np.random.default_rng([n, len(pool)])
    # one constant row, then rows drawn from the pool
    picks = np.vstack([np.zeros((1, n), dtype=int), rng.integers(len(pool), size=(11, n))])
    entries = [[pool[i] for i in row] for row in picks.tolist()]
    if container == "array":
        batch = pool[picks]
        rows = list(batch)
    else:
        batch = object_array(sum(entries, [])).reshape(picks.shape)
        rows = [CONTAINERS[container](row) for row in entries]
    want = [[_entry_sign(v) for v in row] for row in rows]
    for x, signs_want in zip(rows, want):
        ref = _reference_pair_counts(tuple(signs_want), topology)
        s = _signs(x)
        assert s.dtype == np.int8 and s.flags.writeable and s.tolist() == signs_want
        assert not np.shares_memory(s, x)
        got = sign_vector(x)
        assert got == tuple(signs_want) and {type(v) for v in got} == {int}
        count = count_nonzero(x)
        assert type(count) is int and count == sum(map(bool, signs_want))
        counts = pair_counts(x, topology)
        assert counts == ref and {type(v) for v in counts} == {int}
        t = sign_changes(x, topology)
        assert type(t) is int and t == sum(ref)
        # wider integer and float sign arrays go through the same int8 cast
        for signs in (s, s.astype(np.int64), s.astype(float)):
            stats = pair_stats(signs, topology)
            assert stats == ref and {type(v) for v in stats} == {int}
    s = _signs(batch, batch=True)
    assert s.dtype == np.int8 and s.flags.writeable and s.tolist() == want
    weak, flips = pair_stats(s, topology)
    assert weak.dtype == flips.dtype == np.intp
    expected = [_reference_pair_counts(tuple(row), topology) for row in want]
    assert list(zip(weak.tolist(), flips.tolist())) == expected
    # the same entries, repeated into longer vectors, so that no kernel path
    # taken only by long inputs goes unchecked
    for size in LONGS:
        flat = (sum(entries, []) * -(-size // batch.size))[:size]
        x = np.array(flat, dtype=pool.dtype) if container == "array" else CONTAINERS[container](flat)
        signs_want = (sum(want, []) * -(-size // batch.size))[:size]
        s = _signs(x)
        assert s.dtype == np.int8 and s.flags.writeable and s.tolist() == signs_want
        assert count_nonzero(x) == sum(map(bool, signs_want))
        ref = _reference_pair_counts(tuple(signs_want), topology)
        assert sign_changes(x, topology) == sum(ref) and pair_counts(x, topology) == ref
        stats = pair_stats(s, topology)
        assert stats == ref and {type(v) for v in stats} == {int}


# entries of the lists and tuples that the scalar pair statistics count from
# their sign bytes, by kind; "mixed" draws from all of them
SCALAR_POOLS = {
    "int": [0, 1, -1, 3, -3, 2**63, -(2**64)],
    "fraction": [Fraction(0), Fraction(1, 3), Fraction(-7, 2), Fraction(5)],
    "float": [0.0, -0.0, 5e-324, -5e-324, 1.5, -1e308],
    "bool": [False, True],
    "numpy": [np.int64(0), np.int64(-5), np.uint8(7), np.float32(-1e-45), np.float64(0.0), np.float64(2.5)],
    "exact": [0, 10**400, -(10**400), Fraction(1, 10**400), Fraction(-1, 10**400)],
}
SCALAR_POOLS["mixed"] = sum(SCALAR_POOLS.values(), [])
# both sides of _SHORT, where lists and tuples leave the byte route for pair_stats
SCALAR_LENGTHS = (2, 3, _SHORT - 1, _SHORT, _SHORT + 1, 2 * _SHORT + 1)
SCALAR_GAPS = (GapParams(k_y=Fraction(1, 4), k_x=Fraction(3, 4)), GapParams(k_y=0.25, k_x=2.0))


def _scalar_statistics(x, topology):
    """The five scalar pair statistics of x, each weight form of the norm and the gap."""
    return (
        pair_counts(x, topology),
        sign_changes(x, topology),
        *(transition_norm_sq(x, k, topology) for k in (3, Fraction(1, 3), 0.5, -0.75)),
        smoothed_sign_changes(x, 0.1, topology),
        *(zero_direction_gap(x, p, topology) for p in SCALAR_GAPS),
    )


def _typed(value):
    """value with the type of it, and of each entry of a tuple, for comparisons in type too."""
    return tuple(map(_typed, value)) if isinstance(value, tuple) else (type(value), value)


@pytest.mark.parametrize("topology", list(Topology))
@pytest.mark.parametrize("container", [list, tuple])
@pytest.mark.parametrize("pool", sorted(SCALAR_POOLS))
def test_scalar_statistics_of_lists_and_tuples_match_the_array_route(pool, container, topology):
    entries = SCALAR_POOLS[pool]
    rng = np.random.default_rng([len(entries), _SHORT])
    for n in SCALAR_LENGTHS:
        x = container(entries[i] for i in rng.integers(len(entries), size=n))
        weak, flips = _reference_pair_counts(tuple(map(_entry_sign, x)), topology)
        norms = [weak + 4 * k * k * flips for k in (3, Fraction(1, 3), 0.5, -0.75)]
        gaps = [4 * (p.k_y * p.k_y - p.k_x * p.k_x) * flips for p in SCALAR_GAPS]
        expected = ((weak, flips), weak + flips, *norms, (weak + flips) / 1.1, *gaps)
        got = _scalar_statistics(x, topology)
        assert _typed(got) == _typed(_scalar_statistics(np.array(x, dtype=object), topology))
        assert _typed(got) == _typed(expected), n
    # n = 2 on the circle counts its one pair twice
    assert pair_counts(container((1, 0)), topology) == (2 if topology is Topology.CIRCULAR else 1, 0)


@pytest.mark.parametrize(
    "x,message",
    [
        ([], "nonempty 1-D real vector"),
        ([1], "at least two components"),
        ([Fraction(1, 10**400)], "at least two components"),
        ([1, math.nan], "must be finite"),
        ([math.inf] + [1] * _SHORT, "must be finite"),
        ([1] * (_SHORT - 1) + [np.float32("-inf")], "must be finite"),
        (["a", 1], "nonempty 1-D real vector"),
        ([1] * _SHORT + ["a"], "nonempty 1-D real vector"),
    ],
)
@pytest.mark.parametrize("container", [list, tuple])
def test_scalar_statistics_of_lists_and_tuples_raise_as_the_array_route(x, message, container):
    calls = [
        lambda v: pair_counts(v, Topology.LINEAR),
        sign_changes,
        lambda v: transition_norm_sq(v, Fraction(1, 2)),
        lambda v: smoothed_sign_changes(v, 0.1),
        lambda v: zero_direction_gap(v, SCALAR_GAPS[0]),
    ]
    for call in calls:
        errors = []
        for v in (container(x), np.array(x, dtype=object)):
            with pytest.raises(ValueError, match=message) as error:
                call(v)
            errors.append(str(error.value))
        assert errors[0] == errors[1]


def test_short_lists_and_tuples_are_counted_with_no_array(monkeypatch):
    # the byte route builds no array and never calls pair_stats, so a refactor that
    # sends short lists back through them fails here
    def refuse(*args, **kwargs):
        raise AssertionError("called on the byte route")

    short = [(1, -1, 0, 0, 2, -3), tuple(([1, -1, 0, Fraction(1, 2)] * _SHORT)[:_SHORT])]
    with monkeypatch.context() as patch:
        patch.setattr(transitions, "pair_stats", refuse)
        patch.setattr(np, "frombuffer", refuse)
        for x in short:
            # count_nonzero counts the sign bytes of a list or tuple of any length
            for long in (x, x * 3):
                assert count_nonzero(long) == count_nonzero(list(long)) == sum(map(bool, map(_entry_sign, long)))
            for topology in Topology:
                got = _scalar_statistics(list(x), topology)
                assert got == _scalar_statistics(x, topology)
                assert got[0] == _reference_pair_counts(tuple(map(_entry_sign, x)), topology)
    seen = []

    def recorded(signs, topology):
        seen.append(signs.size)
        return pair_stats(signs, topology)

    monkeypatch.setattr(transitions, "pair_stats", recorded)
    for x in (np.array(short[0]), np.array(short[1], dtype=object), [1, 0, -1] * 171):
        for call in (
            pair_counts,
            sign_changes,
            lambda v: transition_norm_sq(v, 0.5),
            lambda v: smoothed_sign_changes(v, 0.1),
            lambda v: zero_direction_gap(v, SCALAR_GAPS[0]),
        ):
            seen.clear()
            call(x)
            assert seen == [len(x)]
