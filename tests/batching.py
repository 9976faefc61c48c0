"""Hypothesis strategies and assertions shared by the batch-form tests.

A batch is a 2-D array of vectors, one per row.  Every batch form must
return, for row r, what the 1-D call on row r returns.
"""

from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

# x + d overflows int64 for some pairs of these
INT64_EDGES = (2**62, -(2**62), 2**63 - 1, -(2**63))
FLOAT_EDGES = (-0.0, 5e-324, -1.5e308, 1.5e308)
EXACT_EDGES = (10**400, -(10**400), Fraction(1, 10**400), Fraction(-1, 10**400))

ENTRIES = {
    "int": st.one_of(st.integers(-3, 3), st.sampled_from(INT64_EDGES)),
    "float": st.one_of(st.floats(-1e6, 1e6), st.sampled_from(FLOAT_EDGES)),
    "exact": st.one_of(
        st.integers(-3, 3),
        st.fractions(-2, 2, max_denominator=7),
        st.sampled_from(EXACT_EDGES),
    ),
}
DTYPES = {"int": np.int64, "float": np.float64, "exact": object}
# every kind of entry a list may hold: Python ints, Fractions and floats,
# the exact edges beyond float64, numpy integers and floats, and bools
LIST_ENTRIES = st.one_of(
    ENTRIES["int"],
    ENTRIES["float"],
    ENTRIES["exact"],
    st.sampled_from(EXACT_EDGES),
    st.integers(-3, 3).map(np.int64),
    st.sampled_from(INT64_EDGES).map(np.int64),
    st.floats(-1e6, 1e6, width=32).map(np.float32),
    st.booleans(),
)

weights = st.one_of(
    st.integers(-3, 3),
    st.floats(-4, 4),
    st.fractions(-3, 3, max_denominator=9),
)


def object_array(values):
    """values as a 1-D object array, each entry kept as it is."""
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return arr


@st.composite
def batches(draw, shape=None):
    """A 2-D int64, float64 or object (int and Fraction) array."""
    kind = draw(st.sampled_from(sorted(ENTRIES)))
    rows, n = shape or (draw(st.integers(1, 5)), draw(st.integers(2, 6)))
    values = draw(st.lists(ENTRIES[kind], min_size=rows * n, max_size=rows * n))
    arr = np.empty(rows * n, dtype=DTYPES[kind])
    arr[:] = values
    return arr.reshape(rows, n)


def rowwise(call, *batches_):
    """call on each row of the batches, or None if a row raises ValueError."""
    try:
        return [call(*rows) for rows in zip(*batches_)]
    except ValueError:
        return None


def assert_rows_equal(batch, expected):
    """An object array whose entries equal the expected values, type for type."""
    assert isinstance(batch, np.ndarray) and batch.dtype == object
    assert batch.shape == (len(expected),)
    for got, want in zip(batch.tolist(), expected):
        assert type(got) is type(want) and got == want, (got, want)
