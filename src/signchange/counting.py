"""Counting nonzero components and the subdifferential of the count.

The number of nonzero components of a vector equals the squared Euclidean
norm of its componentwise sign vector.  Its Frechet, proximal and Clarke
subdifferentials at x all coincide with the subspace of vectors vanishing
on the support of x, so membership is a simple predicate.  A concave-style
minorant |x|_1 / |x|_2 bounds the count from below away from the origin.
"""

from __future__ import annotations

import math
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


def sign(value: float, tol: float = 0.0) -> int:
    """Componentwise sign in {-1, 0, +1}; |value| <= tol maps to 0."""
    if not math.isfinite(value):
        raise ValueError(f"sign is undefined for non-finite value {value!r}")
    if tol < 0.0:
        raise ValueError("tolerance must be nonnegative")
    if value > tol:
        return 1
    if value < -tol:
        return -1
    return 0


_NOT_A_VECTOR = "expected a nonempty 1-D real vector"
_FLOAT_TYPES = (float, np.floating)


def _signs(x, batch: bool = False) -> np.ndarray:
    """Componentwise signs of a nonempty 1-D real vector as an int8 array.

    Float and integer arrays go through np.sign (floats after a finiteness
    check).  Anything else is signed element by element with comparisons
    against 0, so ints and Fractions never pass through float64 and keep
    their signs beyond its range and resolution.  With batch=True, x must be
    a 2-D array of such vectors (rows) and the result is 2-D.
    """
    if isinstance(x, np.ndarray):
        if x.ndim != 1 + batch or x.shape[-1] == 0 or x.dtype.kind not in "fiubO":
            raise ValueError(_NOT_A_VECTOR)
        if x.dtype.kind == "f" and not np.isfinite(x).all():
            raise ValueError("vector entries must be finite")
        if x.dtype.kind in "fiu":
            return np.sign(x).astype(np.int8)
        if batch:
            return np.array([_signs(row) for row in x], dtype=np.int8).reshape(x.shape)
    try:
        values = x if isinstance(x, (list, tuple, np.ndarray)) else list(x)
        signs = [1 if v > 0 else -1 if v < 0 else 0 for v in values]
    except (TypeError, ValueError):
        raise ValueError(_NOT_A_VECTOR) from None
    if not signs:
        raise ValueError(_NOT_A_VECTOR)
    if any(isinstance(v, _FLOAT_TYPES) and not math.isfinite(v) for v in values):
        raise ValueError("vector entries must be finite")
    return np.array(signs, dtype=np.int8)


def _is_batch(x) -> bool:
    """Whether x is a 2-D array of vectors, one per row, rather than one vector."""
    return isinstance(x, np.ndarray) and x.ndim == 2


def as_vector(x: Iterable[float]) -> np.ndarray:
    """Validate and convert to a 1-D float array with finite entries.

    Entries beyond the float64 range raise ValueError, not OverflowError.
    """
    try:
        arr = np.asarray(list(x) if not isinstance(x, (np.ndarray, list, tuple)) else x, dtype=float)
    except TypeError:
        raise ValueError(_NOT_A_VECTOR) from None
    except OverflowError:
        raise ValueError("vector entries must lie within the float64 range") from None
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(_NOT_A_VECTOR)
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector entries must be finite")
    return arr


def sign_vector(x: Iterable[float], tol: float = 0.0) -> tuple[int, ...]:
    if tol == 0.0:
        return tuple(_signs(x).tolist())
    return tuple(sign(v, tol) for v in as_vector(x))


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
    try:
        x = x if isinstance(x, (np.ndarray, list, tuple)) else list(x)
    except TypeError:
        raise ValueError(_NOT_A_VECTOR) from None
    count = count_nonzero(x)
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
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    n = arr.size

    m = max(1, math.ceil(math.log2(samples)))
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
