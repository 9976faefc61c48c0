import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import qmc

from batching import LIST_ENTRIES, batches, object_array, rowwise
from signchange.counting import (
    IndexSets,
    _signs,
    count_nonzero,
    frechet_inequality_probe,
    index_sets,
    is_count_subgradient,
    sign,
    sign_minorant_gap,
    sign_vector,
)
from signchange.optimality import lagrangian_residual

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
vectors = st.lists(finite_floats, min_size=1, max_size=12)


@pytest.mark.parametrize(
    "value,expected",
    [(3.2, 1), (-0.001, -1), (0.0, 0), (-0.0, 0), (1e-300, 1)],
)
def test_sign_values(value, expected):
    assert sign(value) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sign_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        sign(bad)


def test_sign_vector_example():
    assert sign_vector((-24.0, -30.0, 19.0, 14.0, 0.0)) == (-1, -1, 1, 1, 0)


@given(vectors)
def test_count_equals_squared_sign_norm(x):
    s = np.asarray(sign_vector(x))
    assert count_nonzero(x) == int(np.dot(s, s))


@given(vectors)
def test_index_sets_partition(x):
    sets = index_sets(x)
    assert isinstance(sets, IndexSets)
    assert sets.zeros | sets.support == frozenset(range(len(x)))
    assert sets.zeros & sets.support == frozenset()
    assert len(sets.support) == count_nonzero(x)


@given(
    st.lists(LIST_ENTRIES, min_size=1, max_size=8),
    st.sampled_from([list, tuple, object_array]),
)
def test_sign_reader_matches_scalar_sign(values, container):
    signs = _signs(container(values))
    assert signs.dtype == np.int8
    assert signs.tolist() == [sign(v) for v in values]


@given(st.integers(1, 4), st.integers(1, 8), st.data())
def test_sign_reader_matches_scalar_sign_on_object_batches(rows, n, data):
    values = data.draw(st.lists(LIST_ENTRIES, min_size=rows * n, max_size=rows * n))
    signs = _signs(object_array(values).reshape(rows, n), batch=True)
    assert signs.dtype == np.int8 and signs.shape == (rows, n)
    assert signs.ravel().tolist() == [sign(v) for v in values]


@given(st.lists(st.booleans(), min_size=1, max_size=8))
def test_sign_reader_takes_bool_arrays_as_zero_and_one(values):
    assert _signs(np.array(values)).tolist() == [sign(v) for v in values]
    assert count_nonzero(np.array(values)) == count_nonzero(np.array(values, dtype=float))


def test_vector_validation():
    with pytest.raises(ValueError):
        count_nonzero([])
    with pytest.raises(ValueError):
        count_nonzero([[1.0, 2.0]])
    with pytest.raises(ValueError):
        count_nonzero([1.0, math.nan])
    for bad in ([1, [2]], "abc", [-math.inf], [1 + 2j]):
        with pytest.raises(ValueError):
            count_nonzero(bad)


@given(vectors, st.data())
def test_subgradient_predicate_vanishing_on_support(x, data):
    n = len(x)
    candidate = np.array(data.draw(st.lists(finite_floats, min_size=n, max_size=n)))
    candidate[np.asarray(x) != 0.0] = 0.0
    assert is_count_subgradient(x, candidate)


def test_subgradient_predicate_rejects_support_components():
    assert not is_count_subgradient([1.0, 0.0], [0.5, 3.0])
    assert is_count_subgradient([1.0, 0.0], [0.0, 3.0])
    # at the origin every vector qualifies
    assert is_count_subgradient([0.0, 0.0], [4.0, -7.0])
    with pytest.raises(ValueError):
        is_count_subgradient([1.0, 0.0], [1.0])


# squared norms under/overflow outside a moderate range, so keep the probe bounded
moderate_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=12
)


@given(moderate_vectors.filter(lambda v: any(abs(c) > 1e-6 for c in v)))
def test_minorant_gap_nonnegative(x):
    assert sign_minorant_gap(x) >= -1e-12


@pytest.mark.parametrize("value", [2.0, -3.5, 1e-7, 1e8])
def test_minorant_gap_tight_on_single_support(value):
    x = [0.0, 0.0, value, 0.0]
    assert sign_minorant_gap(x) == 0.0


def test_minorant_gap_undefined_at_origin():
    with pytest.raises(ValueError):
        sign_minorant_gap([0.0, 0.0, 0.0])


def test_minorant_gap_beyond_float64():
    # the count is taken from the exact entries, the scale-free norm ratio
    # from x scaled to unit magnitude before any rounding
    assert sign_minorant_gap([10**400, -1]) == pytest.approx(1.0)
    assert sign_minorant_gap([Fraction(1, 10**400), -1]) == pytest.approx(1.0)
    assert sign_minorant_gap([Fraction(1, 10**400), 0]) == 0.0
    assert sign_minorant_gap(np.array([-(10**400), 10**400], dtype=object)) == pytest.approx(
        2.0 - math.sqrt(2.0)
    )
    # float entries whose squares overflow or underflow
    for x in ([1e200, 1e200], np.array([1e-200, -1e-200]), [1.5e308, -1.5e308]):
        assert sign_minorant_gap(x) == pytest.approx(2.0 - math.sqrt(2.0))


def test_minorant_gap_narrow_floats_match_float64():
    # float16 and float32 input is widened before the sums, so the result is
    # that of the float64 copy bit for bit, and float16 sums cannot overflow
    x = np.array([1.0, 1e-3, 0.3, -2.5], dtype=np.float32)
    assert sign_minorant_gap(x) == sign_minorant_gap(x.astype(np.float64))
    near_one = np.full(70_000, 0.99, dtype=np.float16)  # float16 sum: inf
    gap = sign_minorant_gap(near_one)
    assert gap == sign_minorant_gap(near_one.astype(np.float64))
    assert gap == pytest.approx(70_000 - math.sqrt(70_000))


@given(batches())
def test_minorant_batch_matches_rows(x):
    expected = rowwise(sign_minorant_gap, x)
    if expected is None:  # some row is all zero
        with pytest.raises(ValueError):
            sign_minorant_gap(x)
        return
    batch = sign_minorant_gap(x)
    assert batch.dtype == np.float64 and batch.shape == (len(x),)
    # bit for bit, so -0.0 and 0.0 differ here
    assert batch.tobytes() == np.array(expected, dtype=np.float64).tobytes()


@pytest.mark.parametrize(
    "bad",
    [np.array([[1.0, -2.0], [0.0, 0.0]]), np.ones((2, 2, 2)), np.zeros((2, 0))],
    ids=["zero_row", "3d", "empty_rows"],
)
def test_minorant_batch_validation(bad):
    with pytest.raises(ValueError):
        sign_minorant_gap(bad)


def test_minorant_empty_batch():
    # a batch with no rows gives no values, as the other batch forms do
    for dtype in (np.float64, np.float32, np.int64, object):
        gap = sign_minorant_gap(np.zeros((0, 3), dtype=dtype))
        assert gap.dtype == np.float64 and gap.shape == (0,)


def test_float_conversion_beyond_range_is_value_error():
    # signs of ints, Fractions and floats are taken exactly: no float64 conversion
    assert sign_vector([10**400, 1]) == (1, 1)
    with pytest.raises(ValueError, match="float64 range"):
        lagrangian_residual((1, -1), [0, 0], 0.5, [10**400, 0])
    with pytest.raises(ValueError):
        sign_vector([1 + 2j, 1])


def test_probe_zero_candidate_nowhere_negative():
    # away from zeros the count is locally constant, so the quotient is 0
    report = frechet_inequality_probe([1.0, -2.0], [0.0, 0.0], samples=64, radius=0.1)
    assert report.min_quotient == 0.0
    assert report.samples_used >= 64


def test_probe_detects_support_component():
    # a candidate with mass on the support fails the difference quotient
    # along one of the axis probes
    report = frechet_inequality_probe([1.0, 0.0], [2.0, 0.0], samples=64, radius=0.1)
    assert report.min_quotient < -1.0
    assert report.worst_offset[0] != 0.0


def test_probe_accepts_modest_zero_set_candidate():
    report = frechet_inequality_probe([1.0, 0.0], [0.0, 0.5], samples=128, radius=0.1)
    assert report.min_quotient >= 0.0


def test_probe_deterministic():
    a = frechet_inequality_probe([1.0, 0.0, -1.0], [0.0, 0.2, 0.0], samples=256)
    b = frechet_inequality_probe([1.0, 0.0, -1.0], [0.0, 0.2, 0.0], samples=256)
    assert a == b


@pytest.mark.parametrize("radius", [1e-3, 0.1, 10.0, 100.0, 1e4])
@pytest.mark.parametrize("samples", [1, 100, 512])
def test_probe_uses_every_offset_but_the_origin(samples, radius):
    # projected rows lie on the sphere at any radius; only Sobol's centre
    # point (1/2, ..., 1/2), an offset of zero norm, is left out
    x = [1.0, 0.0, -1.0, 2.0, 0.0]
    m = max(1, math.ceil(math.log2(samples)))
    unit = qmc.Sobol(d=len(x), scramble=False).random_base2(m)[:samples]
    centre = int(np.all(unit == 0.5, axis=1).sum())
    report = frechet_inequality_probe(x, [0.3, 0.0, -0.2, 0.1, 0.0], samples=samples, radius=radius)
    assert report.samples_used == samples + 2 * len(x) - centre
    assert centre == (samples > 1)
    assert 0.0 < math.hypot(*report.worst_offset) <= radius * (1 + 1e-12)


def test_probe_validation():
    with pytest.raises(ValueError):
        frechet_inequality_probe([1.0], [0.0], samples=0)
    with pytest.raises(ValueError):
        frechet_inequality_probe([1.0], [0.0], radius=0.0)
    with pytest.raises(ValueError):
        frechet_inequality_probe([1.0, 2.0], [0.0])


def test_count_is_exact_beyond_float64():
    assert count_nonzero([10**400]) == 1
    assert count_nonzero([Fraction(1, 10**400), 0, -(10**400)]) == 2
    assert sign_vector([Fraction(-1, 10**400), 10**400, 0]) == (-1, 1, 0)
