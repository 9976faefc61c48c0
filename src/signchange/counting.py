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
    """The one scalar rule: ints, Fractions and numpy bools (0 or 1, as
    _entries reads them) are finite without a float conversion (which could
    overflow), a numpy float in its own precision (a longdouble beyond float64
    is finite, as _entries reads it), any other real by math.isfinite.  A
    float is tested first, by type rather than by ABC."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, (numbers.Rational, np.bool_)):
        return True
    if isinstance(value, np.floating):
        return bool(np.isfinite(value))
    return isinstance(value, numbers.Real) and math.isfinite(value)


def _finite_real(value, what: str):
    """value once finite, else ValueError naming what.  A numpy number becomes the
    Python number _entries reads, which compares with a Fraction, cannot wrap and
    overflows to inf without a warning."""
    if not _finite(value):
        raise ValueError(f"{what} must be finite")
    return _entries((value,))[0] if isinstance(value, np.generic) else value


def _real(value, name: str) -> float:
    """A float parameter: a finite real value, converted once to float64.  A numpy float of
    at most 64 bits is within range unchecked: numpy would cast float64's max to its type."""
    narrow = isinstance(value, np.floating) and value.itemsize <= 8
    if not (_finite(value) and (narrow or abs(value) <= sys.float_info.max)):
        raise ValueError(f"{name} must be a finite real number within the float64 range")
    return float(value)


def _within_float64(values, what: str):
    """values, once no float in them lies beyond float64 (inf or nan), else ValueError:
    a float array, or one value, where an int or a Fraction passes exact and unbounded."""
    if isinstance(values, (np.ndarray, list)):
        finite = np.isfinite(values).all()
    else:
        finite = not isinstance(values, float) or math.isfinite(values)
    if not finite:
        raise ValueError(f"{what} leaves the float64 range")
    return values


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
    No entry is read here: the reader that takes them checks each one, a
    float array's in the pass that signs or counts it (_sign_array,
    _nonzeros) or converts it (_float_array), the entries of lists, tuples
    and object arrays through _sign_codes or _entries."""
    if isinstance(x, np.ndarray):
        if x.ndim != 1 + batch or x.shape[-1] == 0 or x.dtype.kind not in "fiubO":
            raise ValueError(_NOT_A_VECTOR)
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
    flat, as Python reals.  A numpy bool is read as 0 or 1, as a Python bool
    is; a numpy integer or float becomes the Python int or
    float of its value, which a sum cannot wrap and a Fraction can hold, or,
    for a finite longdouble wider than float64, the Fraction of its value,
    unrounded; any other finite numbers.Real is kept.  A real that is not
    finite raises ValueError naming finiteness; any other entry is no real."""
    reals = [
        int(v)
        if isinstance(v, (np.integer, np.bool_))
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


# The entries of one block.  The count reads every numeric array block by
# block, and the signs an array longer than _SIGN_PIECE (512 KiB of float64
# each); every block is checked finite and signed, or counted, while it is
# still in cache: whole-array passes read it from memory once for the check
# and once for each comparison.  The sign pass of one float64 vector, 30 %
# zeros, read by _vector and then in one piece or in blocks, and the count in
# blocks, best of 15 on one core of a 2-vCPU x86-64 VM (numpy 2.4.6, Python
# 3.11.7), two runs:
#
#          n        signs: one piece   blocks       count: blocks
#     46,416        28-31 us           25-28 us     25-27 us
#    215,443       158-165 us         140-145 us   115-152 us
#    464,159       521-528 us         353-354 us   317-319 us
#       10^6       1.20-1.22 ms       0.74-0.78 ms 0.62-0.63 ms
#
# At 10^6, blocks of 2^14, 2^15, 2^16, 2^17 and 2^18 entries took 1.15-1.27,
# 0.88-0.98, 0.77-0.85, 0.89-0.92 and 1.12-1.19 ms for the signs, and 0.88-0.92,
# 0.71-0.78, 0.64-0.69, 0.70-0.74 and 0.74-0.87 ms for the count.
_BLOCK = 1 << 16
# The most entries _sign_array signs in one piece.  Up to about 180,000
# float64 entries a vector and its three byte masks stay in a core's L2
# cache, where a block's five more numpy calls cost more than its one read
# saves.  Signs in one piece -> in blocks of _BLOCK, the same way but best of
# 25: 50.7 -> 59.0-61.4 us at 100,000 entries, 75.3-78.4 -> 93.9-95.5 us at
# 150,000, 129.0-129.5 -> 118.5-123.4 us at 196,608.  The count has no such
# piece: its blocks count a != 0 mask, cheaper than np.count_nonzero on the
# floats past a few thousand entries (13.5 -> 9.8 us at 10,000, 91.4-94.7 ->
# 46.7-48.4 us at 100,000), for about 3 us more per call below (2.7 -> 5.9 us
# at 10 entries).
_SIGN_PIECE = 3 * _BLOCK


def _blocks(shape: tuple[int, ...]) -> list[tuple[slice, ...]]:
    """Index tuples that cover an array of this shape, one vector or a 2-D
    batch, in blocks of at most _BLOCK entries, each a view of the array
    whatever its strides: runs of one vector, whole rows of a batch whose rows
    are shorter than _BLOCK, runs of one row of a batch whose rows are longer."""
    *rows, n = shape
    step = min(n, _BLOCK)
    runs = [slice(j, j + step) for j in range(0, n, step)]
    if not rows:
        return [(run,) for run in runs]
    height = max(1, _BLOCK // n)
    return [(slice(i, i + height), run) for i in range(0, rows[0], height) for run in runs]


def _check_finite(values: np.ndarray) -> None:
    """ValueError naming finiteness unless every entry of a numeric array is finite."""
    if values.dtype.kind == "f" and not np.isfinite(values).all():
        raise ValueError(_NOT_FINITE)


def _signs(x, batch: bool = False) -> np.ndarray:
    """Componentwise signs of x, read by _vector, as an int8 array."""
    return _sign_array(_vector(x, batch))


def _sign_array(values) -> np.ndarray:
    """Signs of a vector or batch read by _vector, as a writable int8 array.

    Numeric and bool arrays are signed by _block_signs, which checks a float
    array finite first: an array of at most _SIGN_PIECE entries in one piece,
    a longer one block by block of _blocks, in place whatever its strides,
    into one C-contiguous int8 array.  So each entry is read once from memory.

    Lists, tuples and object arrays are coded by _sign_codes into one
    bytearray of the byte codes 1, 0 and 255 (-1 as int8), read here as int8
    without a copy; transitions counts a short list or tuple from those
    bytes alone, with no array.
    """
    is_array = isinstance(values, np.ndarray)
    if is_array and values.dtype.kind in "fiub":
        if values.size <= _SIGN_PIECE:
            return _block_signs(values)
        signs = np.empty(values.shape, dtype=np.int8)
        for block in _blocks(values.shape):
            _block_signs(values[block], signs[block])
        return signs
    signs = np.frombuffer(_sign_codes(values), dtype=np.int8)
    return signs.reshape(values.shape) if is_array else signs


def _block_signs(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(values > 0) - (values < 0) of a numeric array once _check_finite passes it
    (NaN would compare as 0), written into the int8 array out, or a new one.
    The two comparisons, viewed as int8 and subtracted in place, allocate one
    byte per entry and no temporary as wide as the input."""
    _check_finite(values)
    signs = np.greater(values, 0, out=None if out is None else out.view(bool)).view(np.int8)
    signs -= np.less(values, 0).view(np.int8)
    return signs


def _sign_codes(values) -> bytearray:
    """Signs of a list, tuple or object array read by _vector, flat, as the
    byte codes 1, 0 and 255 (-1 as int8).

    One pass reads and checks each entry: an int by comparison, a Fraction
    by its numerator (its denominator is positive), a finite float by
    comparison.  Any other entry sends the vector through _entries and one
    more pass.  So ints and Fractions never pass through float64 and keep
    their signs beyond it.
    """
    # one comprehension with exact type tests and no call for int, Fraction
    # and float entries: the conditional form is faster than (v > 0) - (v < 0);
    # any other entry sets other, and the vector is then read through _entries
    other = False
    codes = [
        (1 if v > 0 else 255 if v < 0 else 0)
        if type(v) is int
        else (1 if (p := v.numerator) > 0 else 255 if p < 0 else 0)
        if type(v) is Fraction
        else (1 if v > 0 else 255 if v < 0 else 0)
        if type(v) is float and math.isfinite(v)
        else (other := True)
        for v in (values.ravel().tolist() if isinstance(values, np.ndarray) else values)
    ]
    if other:
        codes = [1 if v > 0 else 255 if v < 0 else 0 for v in _entries(values)]
    return bytearray(codes)


def _is_batch(x) -> bool:
    """Whether x is a 2-D array of vectors, one per row, rather than one vector."""
    return isinstance(x, np.ndarray) and x.ndim == 2


def _float_array(x) -> np.ndarray:
    """x as a float64 array of any shape: object entries through _entries and
    _real, numeric arrays cast whole and checked finite once, in float64; any
    other dtype (strings, complex) or an entry not finite in float64, such as
    a wider float beyond it, raises ValueError."""
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
    """Read x as a vector and convert it to float64 through _float_array, the
    one check of its entries; a float array refused there for an entry not
    finite in its own precision is refused as every vector reader refuses it."""
    x = _vector(x)
    try:
        arr = _float_array(x)
    except ValueError:
        if isinstance(x, np.ndarray):
            _check_finite(x)
        raise
    if arr.ndim != 1:
        raise ValueError(_NOT_A_VECTOR)
    return arr


def sign_vector(x: Iterable[float]) -> tuple[int, ...]:
    """Componentwise signs in {-1, 0, +1}, taken exactly."""
    return tuple(_signs(x).tolist())


def _row_nonzeros(values: np.ndarray):
    """Nonzero entries of a numeric vector, as a Python int, or of each row of a
    2-D batch, as an np.intp array.

    One vector is counted by np.count_nonzero, one C call.  A batch's nonzero
    mask is summed per row as int8 into intp by one einsum, a single reduction
    that count_nonzero(axis=-1) would run row by row; intp holds the count of
    any row, where a narrower sum (a uint8 matmul) would wrap.
    """
    if values.ndim == 1:
        return int(np.count_nonzero(values))
    mask = values if values.dtype == bool else values != 0
    return np.einsum("ij->i", mask.view(np.int8), dtype=np.intp)


def _nonzeros(values):
    """Nonzero entries of a vector read by _vector, or of each row of a batch.

    A numeric array is counted as it is, with no sign array (-0.0 is zero),
    block by block of _blocks, however short: each block is checked by
    _check_finite and then counted by its != 0 mask while it is in cache.
    A list or tuple is counted from its _sign_codes bytes, with no array; an
    object array takes the exact sign pass.
    """
    if isinstance(values, (list, tuple)):
        codes = _sign_codes(values)
        return len(codes) - codes.count(0)
    if values.dtype.kind not in "fiub":
        return _row_nonzeros(_sign_array(values))
    counts = np.zeros(values.shape[:-1], dtype=np.intp)
    for block in _blocks(values.shape):
        part = values[block]
        _check_finite(part)
        counts[block[:-1]] += _row_nonzeros(part != 0)
    return counts if values.ndim == 2 else int(counts)


def count_nonzero(x: Iterable[float]) -> int:
    """Number of nonzero components (zero detection is exact), counted by _nonzeros."""
    return int(_nonzeros(_vector(x)))


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
    count = _nonzeros(x)
    if not np.all(count):
        raise ValueError("minorant gap is undefined at the origin")
    mags = _unit_magnitudes(x)
    norm = np.sqrt(_row_dot(mags, mags))
    gap = count - mags.sum(axis=-1) / norm
    return gap if batch else float(gap)
