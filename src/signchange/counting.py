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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np
from scipy.stats import qmc

__all__ = [
    "sign",
    "sign_vector",
    "count_nonzero",
    "IndexSets",
    "index_sets",
    "is_count_subgradient",
    "sign_minorant_gap",
    "ProbeReport",
    "frechet_inequality_probe",
]


_NOT_A_VECTOR = "expected a nonempty 1-D real vector"
_FLOAT_TYPES = (float, np.floating)
# the largest table the library builds: the 3^12 rows of the n = 12 pattern grid
_MAX_ROWS = 3**12


def _finite(value) -> bool:
    """The one scalar rule: ints and Fractions are finite without a float
    conversion (which could overflow); any other real must pass math.isfinite."""
    return isinstance(value, numbers.Rational) or (
        isinstance(value, numbers.Real) and math.isfinite(value)
    )


def _real(value, name: str) -> float:
    """A float parameter: a finite real value, converted once to float64."""
    if not (_finite(value) and abs(value) <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite real number within the float64 range")
    return float(value)


def _check_rows(rows: int, what: str, least: int = 1) -> None:
    """Refuse, before any allocation, a table estimated outside least.._MAX_ROWS rows."""
    if not least <= rows <= _MAX_ROWS:
        raise ValueError(f"{what} would have {rows} rows; it needs {least} to {_MAX_ROWS}")


def _vector(x, batch: bool = False):
    """x read as a nonempty 1-D real vector (with batch=True, a 2-D array of
    them): a numeric array as it is, any other iterable as a list or tuple.
    Float entries must be finite; callers that compare or convert the other
    entries turn a TypeError into ValueError(_NOT_A_VECTOR)."""
    if isinstance(x, np.ndarray):
        if x.ndim != 1 + batch or x.shape[-1] == 0 or x.dtype.kind not in "fiubO":
            raise ValueError(_NOT_A_VECTOR)
        if x.dtype.kind == "f" and not np.isfinite(x).all():
            raise ValueError("vector entries must be finite")
        if x.dtype.kind != "O":
            return x
        values = x.ravel()
    else:
        try:
            x = values = x if isinstance(x, (list, tuple)) else list(x)
        except TypeError:
            raise ValueError(_NOT_A_VECTOR) from None
        if not values:
            raise ValueError(_NOT_A_VECTOR)
    # a type test per entry, not an ABC test: this pass runs over every exact list
    if any(isinstance(v, _FLOAT_TYPES) and not math.isfinite(v) for v in values):
        raise ValueError("vector entries must be finite")
    return x


def _sign_pattern(z, length: int | None = None) -> tuple[int, ...]:
    """z as a tuple of ints, once each entry equals -1, 0 or 1 and z has the given length."""
    values = _vector(z)
    signs = all(_finite(v) and v in (-1, 0, 1) for v in values)
    if not signs or length not in (None, len(values)):
        raise ValueError(f"expected a sign pattern (entries in -1, 0, 1) of length {length or 'n'}")
    return tuple(int(v) for v in values)


def _displaced(x, d) -> tuple[Sequence, list]:
    """(x, x + d) for vectors of one length, added element by element.

    Integer arrays become Python ints, which cannot overflow, and a float
    beside an int or Fraction counts at its exact value, so the signs taken
    from x + d downstream are the true ones, beyond float64 too.
    """
    base, step = (v.tolist() if isinstance(v, np.ndarray) else v for v in map(_vector, (x, d)))
    if len(base) != len(step):
        raise ValueError("dimension mismatch between point and displacement")
    try:
        return base, [
            a + b if isinstance(a, float) == isinstance(b, float) else Fraction(a) + Fraction(b)
            for a, b in zip(base, step)
        ]
    except TypeError:
        raise ValueError(_NOT_A_VECTOR) from None


def sign(value: float, tol: float = 0.0) -> int:
    """Componentwise sign in {-1, 0, +1}; |value| <= tol maps to 0."""
    if not (_finite(value) and _finite(tol) and tol >= 0):
        raise ValueError(f"sign needs finite value and tol >= 0, got {value!r}, {tol!r}")
    if value > tol:
        return 1
    if value < -tol:
        return -1
    return 0


def _signs(x, batch: bool = False) -> np.ndarray:
    """Componentwise signs of x, read by _vector, as an int8 array."""
    return _sign_array(_vector(x, batch))


def _sign_array(values) -> np.ndarray:
    """Signs of a vector or batch already read by _vector: np.sign on float
    and integer arrays, else comparisons against 0 entry by entry, so ints and
    Fractions never pass through float64 and keep their signs beyond it."""
    is_array = isinstance(values, np.ndarray)
    if is_array and values.dtype.kind in "fiu":
        return np.sign(values).astype(np.int8)
    try:
        signs = [1 if v > 0 else -1 if v < 0 else 0 for v in (values.ravel() if is_array else values)]
    except (TypeError, ValueError):
        raise ValueError(_NOT_A_VECTOR) from None
    return np.array(signs, dtype=np.int8).reshape(values.shape if is_array else -1)


def _is_batch(x) -> bool:
    """Whether x is a 2-D array of vectors, one per row, rather than one vector."""
    return isinstance(x, np.ndarray) and x.ndim == 2


def as_vector(x: Iterable[float]) -> np.ndarray:
    """Read x as a vector and convert it to float64; entries beyond its range
    raise ValueError, not OverflowError."""
    try:
        arr = np.asarray(_vector(x), dtype=float)
    except (TypeError, OverflowError):
        arr = None
    # a float wider than float64 can still overflow to inf
    if arr is None or not np.isfinite(arr).all():
        raise ValueError("vector entries must be real numbers within the float64 range")
    if arr.ndim != 1:
        raise ValueError(_NOT_A_VECTOR)
    return arr


def sign_vector(x: Iterable[float], tol: float = 0.0) -> tuple[int, ...]:
    """Componentwise signs; with tol != 0 each entry goes through sign(v, tol)."""
    if tol == 0.0:
        return tuple(_signs(x).tolist())
    return tuple(sign(v, tol) for v in _vector(x))


def count_nonzero(x: Iterable[float]) -> int:
    """Number of nonzero components (zero detection is exact)."""
    return int(np.count_nonzero(_signs(x)))


@dataclass(frozen=True)
class IndexSets:
    """Partition of 0-based indices by zero versus nonzero component."""

    zeros: frozenset[int]
    support: frozenset[int]


def index_sets(x: Iterable[float]) -> IndexSets:
    signs = _signs(x)
    zeros = frozenset(int(i) for i in np.flatnonzero(signs == 0))
    support = frozenset(range(signs.size)) - zeros
    return IndexSets(zeros=zeros, support=support)


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


def _unit_magnitudes(x) -> np.ndarray:
    """|x| / 2^e as float64, with 2^e the power of two just above max |x|.

    Float arrays are scaled in float64 (other precisions are converted
    first); scaling by a power of two is exact in binary floating point, so
    ratios of norms are those of the float64 image.  Other entries are
    scaled at their exact values before rounding, so none overflows float64
    and a nonzero vector never rounds to the origin.
    """
    if isinstance(x, np.ndarray) and x.dtype.kind == "f":
        mags = np.abs(x if x.dtype == np.float64 else as_vector(x))
        return np.ldexp(mags, -math.frexp(mags.max())[1])
    values = x.tolist() if isinstance(x, np.ndarray) else x
    mags = [abs(Fraction(float(v) if isinstance(v, np.floating) else v)) for v in values]
    top = max(mags)
    scale = Fraction(2) ** (top.denominator.bit_length() - top.numerator.bit_length() - 1)
    return np.array([float(m * scale) for m in mags])


def sign_minorant_gap(x: Iterable[float]) -> float:
    """count_nonzero(x) - |x|_1 / |x|_2, nonnegative for x != 0.

    The count is taken exactly from x; the norm ratio is scale-free and is
    computed on x scaled to unit magnitude, so int and Fraction entries beyond
    float64 and float entries whose squares over- or underflow all work.
    """
    x = _vector(x)
    count = int(np.count_nonzero(_sign_array(x)))
    if count == 0:
        raise ValueError("minorant gap is undefined at the origin")
    mags = _unit_magnitudes(x)
    return count - float(np.sum(mags)) / float(np.linalg.norm(mags))


@dataclass(frozen=True)
class ProbeReport:
    """Worst sampled Frechet difference quotient near a point."""

    min_quotient: float
    worst_offset: tuple[float, ...]
    samples_used: int
    radius: float


def frechet_inequality_probe(
    x: Iterable[float],
    candidate: Iterable[float],
    samples: int = 512,
    radius: float = 0.1,
) -> ProbeReport:
    """Sample (c(y) - c(x) - <candidate, y - x>) / |y - x| over y near x.

    Uses an unscrambled Sobol sample of the radius box (deterministic)
    plus every axis-aligned +-radius probe.  A markedly negative minimum
    is evidence against candidate being a Frechet subgradient; the probe
    is one-sided and cannot certify membership.
    """
    arr = as_vector(x)
    cand = as_vector(candidate)
    if arr.size != cand.size:
        raise ValueError("dimension mismatch")
    if samples < 1:
        raise ValueError("need at least one sample")
    radius = _real(radius, "radius")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    n = arr.size

    m = max(1, math.ceil(math.log2(samples)))
    _check_rows(2**m, "the Sobol draw")
    unit = qmc.Sobol(d=n, scramble=False).random_base2(m)[:samples]
    offsets = []
    for row in unit:
        off = radius * (2.0 * row - 1.0)
        norm = float(np.linalg.norm(off))
        if norm > radius:
            # project box corners back onto the sphere so no budget is lost
            off = off * (radius / norm)
        offsets.append(off)
    for i in range(n):
        for s in (radius, -radius):
            probe = np.zeros(n)
            probe[i] = s
            offsets.append(probe)

    base = count_nonzero(arr)
    best = math.inf
    worst = None
    used = 0
    for off in offsets:
        norm = float(np.linalg.norm(off))
        if norm == 0.0 or norm > radius + 1e-15:
            continue
        used += 1
        quotient = (count_nonzero(arr + off) - base - float(np.dot(cand, off))) / norm
        if quotient < best:
            best = quotient
            worst = off
    assert worst is not None
    return ProbeReport(
        min_quotient=best,
        worst_offset=tuple(float(v) for v in worst),
        samples_used=used,
        radius=radius,
    )
