"""Counting nonzero components and the subdifferential of the count.

The number of nonzero components of a vector equals the squared Euclidean
norm of its componentwise sign vector.  Its Frechet, proximal and Clarke
subdifferentials at x all coincide with the subspace of vectors vanishing
on the support of x, so membership is a simple predicate.  A concave-style
minorant |x|_1 / |x|_2 bounds the count from below away from the origin.
"""

from __future__ import annotations

import math
import numbers
import sys
from fractions import Fraction
from typing import Iterable

import numpy as np
from scipy.stats import qmc  # noqa: F401 -- unused; perfbench/layers.py:160 times this import

__all__ = [
    "sign",
    "sign_vector",
    "count_nonzero",
    "is_count_subgradient",
    "sign_minorant_gap",
]


_NOT_A_VECTOR = "expected a nonempty 1-D real vector"
_NOT_FINITE = "vector entries must be finite"
# the largest table the library builds: the 3^12 rows of the n = 12 pattern grid
_MAX_ROWS = 3**12


def _finite(value) -> bool:
    """The one scalar rule: ints and Fractions are finite without a float
    conversion (which could overflow); any other real must pass math.isfinite.
    A float is tested first, with a type test rather than the slower ABC ones."""
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, numbers.Rational) or (
        isinstance(value, numbers.Real) and math.isfinite(value)
    )


def _real(value, name: str) -> float:
    """A float parameter: a finite real value, converted once to float64."""
    if not (_finite(value) and abs(value) <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite real number within the float64 range")
    return float(value)


def _integral(value) -> bool:
    """The one integer rule: a finite value equal to its int (an int, by a type test)."""
    return type(value) is int or (_finite(value) and value == int(value))


def _check_rows(rows, what: str, least: int = 1) -> int:
    """rows read as an int count in least.._MAX_ROWS, checked before any allocation."""
    if not _integral(rows):
        raise ValueError(f"{what} needs an integer count, got {rows!r}")
    if not least <= rows <= _MAX_ROWS:
        raise ValueError(f"{what} would have {rows} rows; it needs {least} to {_MAX_ROWS}")
    return int(rows)


def _vector(x, batch: bool = False):
    """x read as a nonempty 1-D real vector (with batch=True, a 2-D array of
    them): a numeric array as it is, any other iterable as a list or tuple.
    Float arrays must be finite.  The entries of lists, tuples and object
    arrays are checked by the reader that takes them, through _entries."""
    if isinstance(x, np.ndarray):
        if x.ndim != 1 + batch or x.shape[-1] == 0 or x.dtype.kind not in "fiubO":
            raise ValueError(_NOT_A_VECTOR)
        if x.dtype.kind == "f" and not np.isfinite(x).all():
            raise ValueError(_NOT_FINITE)
        return x
    try:
        x = x if isinstance(x, (list, tuple)) else list(x)
    except TypeError:
        raise ValueError(_NOT_A_VECTOR) from None
    if not x:
        raise ValueError(_NOT_A_VECTOR)
    return x


def _entries(values) -> list:
    """The one entry rule, for a vector or batch read by _vector: its entries,
    flat, as Python reals.  A numpy integer or float becomes the Python int or
    float of its value, which a sum cannot wrap and a Fraction can hold, or,
    for a finite longdouble wider than float64, the Fraction of its value,
    unrounded; any other finite numbers.Real is kept.  A real that is not
    finite raises ValueError naming finiteness; any other entry is no real."""
    reals = [
        int(v)
        if isinstance(v, np.integer)
        else v
        if not isinstance(v, np.floating)
        else float(v)
        if v.itemsize <= 8 or not np.isfinite(v)
        else Fraction(*v.as_integer_ratio())
        for v in (values.ravel().tolist() if isinstance(values, np.ndarray) else values)
    ]
    if not all(map(_finite, reals)):
        real = any(isinstance(v, numbers.Real) and not _finite(v) for v in reals)
        raise ValueError(_NOT_FINITE if real else _NOT_A_VECTOR)
    return reals


def _integer_vector(v, length: int | None = None, signs: bool = False) -> tuple[int, ...]:
    """v as a tuple of ints, once each entry is an integral value and v has the
    given length.  With signs=True v is a sign pattern: an integer vector whose
    entries lie in -1..1."""
    values = _entries(_vector(v))
    bound = 1 if signs else math.inf
    if length not in (None, len(values)) or not all(_integral(x) and abs(x) <= bound for x in values):
        what = "a sign pattern (entries in -1, 0, 1)" if signs else "an integer vector"
        raise ValueError(f"expected {what} of length {length or 'n'}")
    return tuple(map(int, values))


def _displaced(x, d) -> tuple[list, list]:
    """(x, x + d) for vectors of one length, added element by element.

    The entries are read by _entries, so numpy integers add as Python ints,
    which cannot overflow, and a float beside an int or Fraction counts at its
    exact value: the signs of x + d are the true ones, beyond float64 too.
    """
    base, step = (_entries(_vector(v)) for v in (x, d))
    if len(base) != len(step):
        raise ValueError("dimension mismatch between point and displacement")
    return base, [
        a + b if isinstance(a, float) == isinstance(b, float) else Fraction(a) + Fraction(b)
        for a, b in zip(base, step)
    ]


def sign(value: float) -> int:
    """Sign in {-1, 0, +1} of one value, as sign_vector gives it."""
    return sign_vector((value,))[0]


def _signs(x, batch: bool = False) -> np.ndarray:
    """Componentwise signs of x, read by _vector, as an int8 array."""
    return _sign_array(_vector(x, batch))


def _sign_array(values) -> np.ndarray:
    """Signs of a vector or batch read by _vector, as an int8 array.

    Float and integer arrays go through np.sign and bool arrays through one
    cast.  Lists, tuples and object arrays take one pass that reads and checks
    each entry: an int by comparison, a Fraction by its numerator (its
    denominator is positive), a finite float by comparison.  Any other entry
    sends the vector through _entries and one more pass.  So ints and
    Fractions never pass through float64 and keep their signs beyond it.
    """
    is_array = isinstance(values, np.ndarray)
    if is_array and values.dtype.kind in "fiu":
        return np.sign(values).astype(np.int8)
    if is_array and values.dtype.kind == "b":
        return values.astype(np.int8)
    # one comprehension with exact type tests and no call for int, Fraction
    # and float entries: the conditional form is faster than (v > 0) - (v < 0);
    # any other entry sets other, and the vector is then read through _entries
    other = False
    signs = [
        (1 if v > 0 else -1 if v < 0 else 0)
        if type(v) is int
        else (1 if (p := v.numerator) > 0 else -1 if p < 0 else 0)
        if type(v) is Fraction
        else (1 if v > 0 else -1 if v < 0 else 0)
        if type(v) is float and math.isfinite(v)
        else (other := True)
        for v in (values.ravel().tolist() if is_array else values)
    ]
    if other:
        signs = [(v > 0) - (v < 0) for v in _entries(values)]
    return np.array(signs, dtype=np.int8).reshape(values.shape if is_array else -1)


def _is_batch(x) -> bool:
    """Whether x is a 2-D array of vectors, one per row, rather than one vector."""
    return isinstance(x, np.ndarray) and x.ndim == 2


def _float_array(x) -> np.ndarray:
    """x as a float64 array of any shape: object entries through _entries and
    _real, numeric arrays cast whole; any other dtype (strings, complex) or an
    entry not finite in float64, such as a wider float beyond it, raises ValueError."""
    arr = np.asarray(x)
    if arr.dtype.kind == "O":
        return np.array([_real(v, "an entry") for v in _entries(arr)]).reshape(arr.shape)
    if arr.dtype.kind in "fiub":
        # a float wider than float64 can still overflow to inf
        with np.errstate(over="ignore"):
            arr = arr.astype(float, copy=False)
        if np.isfinite(arr).all():
            return arr
    raise ValueError("entries must be finite real numbers within the float64 range")


def as_vector(x: Iterable[float]) -> np.ndarray:
    """Read x as a vector and convert it to float64 through _float_array."""
    arr = _float_array(_vector(x))
    if arr.ndim != 1:
        raise ValueError(_NOT_A_VECTOR)
    return arr


def sign_vector(x: Iterable[float]) -> tuple[int, ...]:
    """Componentwise signs in {-1, 0, +1}, taken exactly."""
    return tuple(_signs(x).tolist())


def count_nonzero(x: Iterable[float]) -> int:
    """Number of nonzero components (zero detection is exact)."""
    return int(np.count_nonzero(_signs(x)))


def is_count_subgradient(x: Iterable[float], candidate: Iterable[float]) -> bool:
    """Whether candidate lies in the subdifferential of the count at x.

    All three subdifferential notions (Frechet, proximal, Clarke) agree:
    the candidate must vanish on the support of x.  At x = 0 every vector
    qualifies.
    """
    signs = _signs(x)
    cand = _signs(candidate)
    if signs.size != cand.size:
        raise ValueError("dimension mismatch")
    return bool(np.all(cand[signs != 0] == 0))


def _row_dot(a: np.ndarray, b: np.ndarray):
    """<a, b> for one vector, or per row of two 2-D arrays by (1 x n) @ (n x 1)
    products: the BLAS dot that np.dot runs on one vector, so each row is
    bit-identical to the 1-D call (einsum and norm(axis=1) round differently)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _unit_magnitudes(x) -> np.ndarray:
    """|x| / 2^e as float64, with 2^e the power of two just above max |x|,
    for one vector or for each row of a 2-D array of them.

    Float arrays are scaled in float64 (other precisions are converted
    first), all rows in one pass; scaling by a power of two is exact in
    binary floating point, so ratios of norms are those of the float64
    image.  Other entries are scaled at their exact values before rounding,
    row by row, so none overflows float64 and a nonzero vector never rounds
    to the origin.
    """
    if isinstance(x, np.ndarray) and x.dtype.kind == "f":
        mags = np.abs(_float_array(x))
        return np.ldexp(mags, -np.frexp(mags.max(axis=-1, keepdims=True))[1])
    if _is_batch(x):
        return np.array([_unit_magnitudes(row) for row in x.tolist()], dtype=float).reshape(x.shape)
    mags = [abs(Fraction(v)) for v in _entries(x)]
    top = max(mags)
    scale = Fraction(2) ** (top.denominator.bit_length() - top.numerator.bit_length() - 1)
    return np.array([float(m * scale) for m in mags])


def sign_minorant_gap(x: Iterable[float]) -> float:
    """count_nonzero(x) - |x|_1 / |x|_2, nonnegative for x != 0.

    The count is taken exactly from x; the norm ratio is scale-free and is
    computed on x scaled to unit magnitude, so int and Fraction entries beyond
    float64 and float entries whose squares over- or underflow all work.
    A 2-D array of vectors (rows) gives a float64 array with one value per
    row, bit-identical to the call on that row; every row must be nonzero,
    and a batch with no rows gives an empty array.
    """
    batch = _is_batch(x)
    x = _vector(x, batch)
    count = np.count_nonzero(_sign_array(x), axis=-1)
    if not count.all():
        raise ValueError("minorant gap is undefined at the origin")
    mags = _unit_magnitudes(x)
    norm = np.sqrt(_row_dot(mags, mags))
    gap = count - mags.sum(axis=-1) / norm
    return gap if batch else float(gap)
