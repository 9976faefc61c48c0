import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from batching import assert_rows_equal, batches, rowwise
from signchange.grid import pattern_grid
from signchange.oracles import SWEEP_WEIGHTS, SWEEP_WEIGHTS_EXACT
from signchange.subgradients import (
    GapParams,
    GapProfile,
    coupled_subgradient_value,
    decoupled_gap,
    gap_profile,
    profile_csv,
    zero_direction_gap,
)
from signchange.oracles import _reference_pair_counts
from signchange.transitions import Topology, pair_stats, sign_changes, transition_norm_sq

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


@pytest.mark.filterwarnings("error")
def test_profile_fields_are_counts_and_finite_reals():
    # profile_csv raised TypeError for a string count
    for fields in [
        ("1", 1, 0, 1),
        (-1, 0, 0, 1),
        (0, 1.5, 0, 1),
        (0, 1, math.nan, 1),
        (0, 1, 0, "a"),
    ]:
        with pytest.raises(ValueError, match="a profile needs"):
            GapProfile(*fields)
    # numpy numbers are read as the Python numbers of their values, integral counts as ints
    profile = GapProfile(np.int64(1), 2.0, np.float32(-1.5), np.int64(1))
    assert [type(v) for v in (profile.weak, profile.flips, profile.offset, profile.k_x)] == [int, int, float, int]
    assert profile_csv(profile).splitlines()[-1] == "0.5,1.5"
    # a longdouble beyond float64 is finite: the exact Fraction of its value, which
    # profile_csv cannot print as a float (it raised TypeError from the longdouble)
    wide = np.longdouble("1e400")
    if np.isfinite(wide):
        profile = GapProfile(0, 1, wide, 1)
        assert profile.offset == Fraction(*wide.as_integer_ratio())
        with pytest.raises(ValueError, match="a gap value"):
            profile_csv(profile)


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call",
    [
        lambda: zero_direction_gap([1, -1], GapParams(0.5, 1e200)),
        lambda: zero_direction_gap(np.array([[1, -1], [1, 1]]), GapParams(0.5, 1e200)),
        lambda: zero_direction_gap([1, -1], GapParams(0.5, np.float64(1e200))),
        lambda: decoupled_gap([1, -1], [0, 0], GapParams(0.5, 1e200)),
    ],
)
def test_gaps_beyond_float64_raise(call):
    with pytest.raises(ValueError, match="float64 range"):
        call()


@pytest.mark.filterwarnings("error")
def test_float_gaps_within_float64_are_returned_whatever_4_kx_squared_is():
    # 4 k_x^2 is beyond float64, but the base pair has no flip: the exact gap is 2
    _assert_same(decoupled_gap([1, 1], [0, -2], GapParams(0.5, 1e200)), 2.0)


def test_exact_gaps_stay_exact_beyond_float64():
    assert zero_direction_gap([1, -1], GapParams(Fraction(1, 2), 10**200)) == 2 - 8 * 10**400
    params = GapParams(Fraction(1, 4), 10**200)
    assert decoupled_gap([1, -1], [0, 0], params) == Fraction(1, 2) - 8 * 10**400
    # a numpy integer weight is read as the Python int of its value: 4 k_x^2 does not wrap
    params = GapParams(Fraction(1, 4), np.int64(2**40))
    assert type(params.k_x) is int
    assert zero_direction_gap([1, -1], params) == Fraction(1, 2) - 8 * 2**80


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


# one list of weight pairs: the exact sweep pairs, their floats and int outer weights
WEIGHT_LIST = [
    GapParams(k_y=ky, k_x=kx)
    for ky, kx in SWEEP_WEIGHTS_EXACT + SWEEP_WEIGHTS + [(Fraction(1, 3), 1), (0.3, 3), (Fraction(1, 2), 2)]
]


@pytest.mark.parametrize("n", range(2, 6))
def test_gap_lists_match_the_per_pair_calls(n):
    # entry [..., j] is params[j]'s own call in value and type, for a batch and for one vector
    patterns = pattern_grid(n)
    zero = np.zeros_like(patterns)
    for topo in Topology:
        for gap, args in ((zero_direction_gap, (patterns,)), (decoupled_gap, (patterns, zero))):
            columns = gap(*args, WEIGHT_LIST, topo)
            assert columns.shape == (len(patterns), len(WEIGHT_LIST))
            for j, params in enumerate(WEIGHT_LIST):
                assert_rows_equal(columns[:, j], gap(*args, params, topo).tolist())
            for row in zip(*args):
                assert_rows_equal(
                    gap(*row, tuple(WEIGHT_LIST), topo), [gap(*row, params, topo) for params in WEIGHT_LIST]
                )


# The norm and the gaps in exact arithmetic, each float weight at its exact
# Fraction value: the library must give their values and types for int, bool
# and Fraction weights, and where a weight is a float, that exact value rounded
# once by float(), a ValueError (through OverflowError) where it leaves float64.
def _exact(k):
    """k at its exact value: a float as its Fraction, any other weight as it is."""
    return Fraction(k) if isinstance(k, float) else k


def _rounded(value, *weights):
    """An exact value as the library gives it: rounded once to float where a weight is a float."""
    return float(value) if any(isinstance(k, float) for k in weights) else value


def _norm_expression(weak, flips, k):
    e = _exact(k)
    return _rounded(weak + (4 * e * e) * flips, k)


def _decoupled_expression(wy, fy, wx, fx, p):
    ky, kx = _exact(p.k_y), _exact(p.k_x)
    return _rounded(wy + (4 * ky * ky) * fy - (wx + (4 * kx * kx) * fx), p.k_y, p.k_x)


def _zero_direction_expression(q, l, p):
    if not 0 < p.k_y <= Fraction(1, 2) <= p.k_x:
        raise ValueError("not the positive branch")
    ky, kx = _exact(p.k_y), _exact(p.k_x)
    return _rounded((ky - kx) * ((ky + kx) * q + l), p.k_y, p.k_x)


def _outcome(call, *args):
    """call(*args), or ValueError where it raises that, overflows, or gives a float
    beyond float64: what the library refuses with ValueError."""
    try:
        value = call(*args)
    except (ValueError, OverflowError):
        return ValueError
    return ValueError if isinstance(value, float) and not math.isfinite(value) else value


def _expected_table(rows):
    """A table of outcomes as the batch call must give it: ValueError if any entry is one."""
    return ValueError if any(v is ValueError for row in rows for v in row) else rows


def _assert_same(got, want):
    """Equal in value and type; floats bit for bit."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, float):
        assert got.hex() == want.hex()
    else:
        assert got == want


def _assert_table(call, want):
    """call() gives the table want (rows of entries), or raises ValueError where want is one."""
    if want is ValueError:
        with pytest.raises(ValueError):
            call()
        return
    got = call()
    assert isinstance(got, np.ndarray) and got.dtype == object
    got = got.reshape(len(want), -1).tolist()
    assert [len(row) for row in got] == [len(row) for row in want]
    for got_row, want_row in zip(got, want):
        for g, w in zip(got_row, want_row):
            _assert_same(g, w)


def _as_read(k):
    """A weight as the library reads it: a numpy integer as its int, a numpy float as its
    float, or as the Fraction of its value where the type is wider than float64."""
    if isinstance(k, np.integer):
        return int(k)
    if isinstance(k, np.floating):
        return float(k) if k.itemsize <= 8 else Fraction(*k.as_integer_ratio())
    return k


BIG = 10**400
# a positive rational with numerator and denominator up to 10**400
big_ratios = st.builds(Fraction, st.integers(1, BIG), st.integers(1, BIG))
signed = st.sampled_from((1, -1))


def _inner(r):
    """r folded into (0, 1/2]."""
    return r if r <= Fraction(1, 2) else 1 / (4 * r)


def _outer(r):
    """r folded into [1/2, inf)."""
    return r if r >= Fraction(1, 2) else 1 / (4 * r)


# weights of every type the gap and norm functions take
inner_weights = st.one_of(
    st.builds(lambda r, s: s * _inner(r), big_ratios, signed),
    st.builds(lambda v, s: s * v, st.floats(5e-324, 0.5), signed),
    st.floats(0.01, 0.5).map(lambda v: np.longdouble(v) / 3 + np.longdouble(v) / 3),
)
outer_weights = st.one_of(
    st.builds(lambda r, s: s * _outer(r), big_ratios, signed),
    st.builds(lambda n, s: s * n, st.integers(1, BIG), signed),
    st.just(True),
    st.integers(1, 2**62).map(np.int64),
    st.builds(lambda v, s: s * v, st.floats(0.5, 1.7e308), signed),
    st.floats(0.8, 3.0).map(lambda v: np.longdouble(v) * 2 / 3),
)
norm_weights = st.one_of(
    st.builds(lambda r, s: s * r, big_ratios, signed),
    st.integers(-BIG, BIG),
    st.booleans(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-4, 4).map(lambda v: np.longdouble(v) / 3),
    inner_weights,
)
gap_param_lists = st.lists(
    st.builds(GapParams, inner_weights, outer_weights), min_size=1, max_size=4
)


@st.composite
def pattern_batches(draw):
    """A 2-D list of sign patterns of one length, at least one row."""
    n = draw(st.integers(2, 6))
    return draw(st.lists(st.lists(signs, min_size=n, max_size=n), min_size=1, max_size=5))


def _zero_direction_parts(pattern, topology):
    """(q, l): the two weight-free sums of the zero-direction closed form, pair by pair."""
    n = len(pattern)
    q = l = 0
    for i in range(n if topology is Topology.CIRCULAR else n - 1):
        a, b = pattern[i], pattern[(i + 1) % n]
        damp = (a * b - 1) ** 2
        q += damp * (a * b) ** 2
        l += damp * 2 * a * b * (a + b)
    return q, l


@given(pattern_batches(), st.lists(norm_weights, min_size=1, max_size=5), topologies)
def test_norm_routes_match_the_expressions(batch, ks, topo):
    stats = [_reference_pair_counts(tuple(row), topo) for row in batch]
    reads = [_as_read(k) for k in ks]
    # one vector, and a batch with one weight, at every weight
    for k, kr in zip(ks, reads):
        want = _expected_table([[_outcome(_norm_expression, *stats[0], kr)]])
        _assert_table(lambda: np.array([transition_norm_sq(batch[0], k, topo)], dtype=object), want)
        rows = _expected_table([[_outcome(_norm_expression, w, f, kr)] for w, f in stats])
        _assert_table(lambda: transition_norm_sq(np.array(batch), k, topo), rows)
    # one weight per row, cycling through the drawn weights
    per_row = [ks[r % len(ks)] for r in range(len(batch))]
    rows = _expected_table(
        [[_outcome(_norm_expression, w, f, reads[r % len(ks)])] for r, (w, f) in enumerate(stats)]
    )
    _assert_table(lambda: transition_norm_sq(np.array(batch), per_row, topo), rows)


@given(pattern_batches(), st.data(), gap_param_lists, topologies)
def test_gap_routes_match_the_expressions(batch, data, params, topo):
    moved = [data.draw(st.lists(signs, min_size=len(row), max_size=len(row))) for row in batch]
    d = [[m - x for m, x in zip(mrow, xrow)] for mrow, xrow in zip(moved, batch)]
    base_stats = [_reference_pair_counts(tuple(row), topo) for row in batch]
    moved_stats = [_reference_pair_counts(tuple(row), topo) for row in moved]
    parts = [_zero_direction_parts(row, topo) for row in batch]
    decoupled = [
        [_outcome(_decoupled_expression, *m, *b, p) for p in params] for m, b in zip(moved_stats, base_stats)
    ]
    closed = [[_outcome(_zero_direction_expression, *qs, p) for p in params] for qs in parts]
    # a list of GapParams, one GapParams, on a batch and on one vector
    _assert_table(lambda: decoupled_gap(np.array(batch), np.array(d), params, topo), _expected_table(decoupled))
    _assert_table(lambda: zero_direction_gap(np.array(batch), params, topo), _expected_table(closed))
    _assert_table(lambda: decoupled_gap(batch[0], d[0], params, topo), _expected_table(decoupled[:1]))
    _assert_table(lambda: zero_direction_gap(batch[0], params, topo), _expected_table(closed[:1]))
    for j, p in enumerate(params):
        column = [[row[j]] for row in decoupled]
        _assert_table(lambda: decoupled_gap(np.array(batch), np.array(d), p, topo), _expected_table(column))
        column = [[row[j]] for row in closed]
        _assert_table(lambda: zero_direction_gap(np.array(batch), p, topo), _expected_table(column))


@pytest.mark.parametrize("n", range(2, 6))
def test_zero_direction_gap_is_the_papers_sum(n):
    # the library reads only the flips; the paper's per-pair sum is evaluated here in Fraction
    patterns = pattern_grid(n)
    rows = [tuple(row) for row in patterns.tolist()]
    params = [GapParams(k_y=ky, k_x=kx) for ky, kx in SWEEP_WEIGHTS_EXACT]
    for topo in Topology:
        parts = [_zero_direction_parts(row, topo) for row in rows]
        # the linear part 2 s_i s_j (s_i + s_j) of the summand never survives its damping
        assert [l for _, l in parts] == [0] * len(rows)
        for qs, values in zip(parts, zero_direction_gap(patterns, params, topo).tolist()):
            for p, value in zip(params, values):
                _assert_same(value, _zero_direction_expression(*qs, p))


# weight pairs with a float or a bool: floats, a float beside a Fraction,
# and an int or a bool outer weight
FLOAT_ROUTE_WEIGHTS = [
    (0.1, 0.75), (0.5, 2.0), (Fraction(1, 3), 0.75), (0.25, Fraction(3, 2)),
    (0.3, 3), (0.2, True), (Fraction(1, 4), True),
]


@pytest.mark.parametrize("topo", list(Topology))
def test_float_gaps_are_the_exact_values_rounded_once(topo):
    # the docstrings' promise: a float weight's gap is its exact value, rounded once
    grid = pattern_grid(4)
    d = np.random.default_rng(20240817).integers(-2, 3, size=grid.shape)
    base = [_reference_pair_counts(tuple(row), topo) for row in grid.tolist()]
    moved = [_reference_pair_counts(tuple(row), topo) for row in np.sign(grid + d).tolist()]
    for ky, kx in FLOAT_ROUTE_WEIGHTS:
        params = GapParams(k_y=ky, k_x=kx)
        gaps = decoupled_gap(grid, d, params, topo).tolist()
        closed = zero_direction_gap(grid, params, topo).tolist()
        for (wy, fy), (wx, fx), gap, value in zip(moved, base, gaps, closed):
            _assert_same(gap, _decoupled_expression(wy, fy, wx, fx, params))
            # the zero-direction sums are q = 4 flips and l = 0
            _assert_same(value, _zero_direction_expression(4 * fx, 0, params))


def test_float_gaps_do_not_cancel():
    # wy = wx = 2: the float expression (2 + 4e-10) - 2 kept 4.000000330961484e-10
    x, d = [0, 1, 1, 0], [0, 0, -2, 0]
    exact = float(Fraction(4) * Fraction(1e-5) ** 2)
    assert exact == 4.0000000000000007e-10
    _assert_same(decoupled_gap(x, d, GapParams(1e-5, 0.5), Topology.LINEAR), exact)
    _assert_same(decoupled_gap(np.array([x]), np.array([d]), [GapParams(1e-5, 0.5)], Topology.LINEAR)[0, 0], exact)
    # the profile at a float k_x: its offset -2.0 is exact, so the value is 4e-10 rounded once
    profile = gap_profile(x, d, 0.7, Topology.LINEAR)
    _assert_same(profile.value(Fraction(1, 100000)), 4e-10)
    _assert_same(profile.value(1e-5), exact)


def test_float_zero_direction_gap_at_no_flip_is_positive_zero():
    # the exact value 0 rounds to +0.0; (k_y - k_x) * ((k_y + k_x) * 0) gave -0.0
    for x in ([1, 1, 0], np.array([[1, 1, 0], [0, 0, 0]])):
        for p in (GapParams(0.25, 0.75), GapParams(Fraction(1, 4), 2.5)):
            values = np.ravel(zero_direction_gap(x, p)).tolist()
            assert [v.hex() for v in values] == [(0.0).hex()] * len(values)


def _signed(magnitudes):
    return st.builds(lambda v, s: s * v, magnitudes, signed)


# floats at both ends of float64, the others of the same width, Fractions
# beside them, and bools: each result must be the exact value rounded once
subnormals = st.floats(5e-324, 2.2250738585072014e-308)
near_overflow = st.floats(1e300, 1.7976931348623157e308)
edge_norm_weights = st.one_of(
    _signed(subnormals), _signed(near_overflow), _signed(st.floats(0, 1e300)), st.booleans(), big_ratios
)
edge_inner_weights = st.one_of(
    _signed(subnormals), _signed(st.floats(1e-300, 0.5)), st.builds(lambda r, s: s * _inner(r), big_ratios, signed)
)
edge_outer_weights = st.one_of(
    _signed(near_overflow),
    _signed(st.floats(0.5, 1e300)),
    st.just(True),
    st.builds(lambda r, s: s * _outer(r), big_ratios, signed),
)


def _assert_outcome(got, want):
    """Two _outcome results alike: both ValueError, or the same value and type."""
    if want is ValueError or got is ValueError:
        assert got is want, (got, want)
    else:
        _assert_same(got, want)


@given(st.data(), patterns, edge_norm_weights, edge_inner_weights, edge_outer_weights, topologies)
def test_float_results_are_the_exact_values_rounded_once(data, x, k, ky, kx, topo):
    moved = data.draw(st.lists(signs, min_size=len(x), max_size=len(x)))
    d = [m - v for m, v in zip(moved, x)]
    (wx, fx), (wy, fy) = (_reference_pair_counts(tuple(v), topo) for v in (x, moved))
    _assert_outcome(_outcome(transition_norm_sq, x, k, topo), _outcome(_norm_expression, wx, fx, k))
    p = GapParams(ky, kx)
    _assert_outcome(_outcome(decoupled_gap, x, d, p, topo), _outcome(_decoupled_expression, wy, fy, wx, fx, p))
    _assert_outcome(_outcome(zero_direction_gap, x, p, topo), _outcome(_zero_direction_expression, 4 * fx, 0, p))
    # the profile's offset is the base norm as the library gives it, rounded once at a float k_x
    offset = _outcome(transition_norm_sq, x, kx, topo)
    if ky > 0 and offset is not ValueError:
        e = _exact(ky)
        want = _outcome(lambda: _rounded(wy + (4 * e * e) * fy - _exact(offset), ky, offset))
        _assert_outcome(_outcome(gap_profile(x, d, kx, topo).value, ky), want)


@pytest.mark.parametrize("topo", list(Topology))
def test_gap_profile_agrees_with_the_decoupled_gap_on_the_grid(topo):
    # every pair (x, d = s' - x) of the n = 3 grid, at the exact sweep weights
    grid = pattern_grid(3)
    x = np.repeat(grid, len(grid), axis=0)
    d = np.tile(grid, (len(grid), 1)) - x
    params = [GapParams(k_y=ky, k_x=kx) for ky, kx in SWEEP_WEIGHTS_EXACT]
    gaps = decoupled_gap(x, d, params, topo)
    for row, (point, step) in enumerate(zip(x.tolist(), d.tolist())):
        profiles = {}
        for j, (ky, kx) in enumerate(SWEEP_WEIGHTS_EXACT):
            if kx not in profiles:
                profiles[kx] = gap_profile(point, step, kx, topo)
            value = profiles[kx].value(ky)
            assert type(value) is type(gaps[row, j]) and value == gaps[row, j]


def test_exact_gaps_make_no_fraction_arithmetic(monkeypatch):
    # before exact weights were summed over one denominator, the two gaps made
    # thousands of Fraction operations at n = 6
    grid = pattern_grid(6)
    zero = np.zeros_like(grid)
    params = [GapParams(k_y=ky, k_x=kx) for ky, kx in SWEEP_WEIGHTS_EXACT]
    calls = []
    for method in ("add", "sub", "mul", "truediv"):
        for name in (f"__{method}__", f"__r{method}__"):

            def counted(self, other, operation=getattr(Fraction, name), name=name):
                calls.append(name)
                return operation(self, other)

            monkeypatch.setattr(Fraction, name, counted)
    assert Fraction(1, 2) + 1 == Fraction(3, 2) and calls == ["__add__"]
    calls.clear()
    for topo in Topology:
        closed = zero_direction_gap(grid, params, topo)
        direct = decoupled_gap(grid, zero, params, topo)
        assert closed.shape == direct.shape == (len(grid), len(params))
    assert calls == []
