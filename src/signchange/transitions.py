"""Sign change counting via a parametrized transition map.

For adjacent components with signs (a, b) the transition value is

    (a + b + k*a*b) * (a*b - 1)

which vanishes when the signs agree, has magnitude 1 when exactly one of
them is zero (a weak transition) and magnitude 2|k| on a full sign flip.
At k = +-1/2 the squared norm of the transition vector therefore counts
the sign changes exactly, and for general k it brackets that count from
below (|k| <= 1/2) or above (|k| >= 1/2).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .counting import _finite, _integer_vector, _is_batch, _real, _row_dot, _signs, as_vector

__all__ = [
    "Topology",
    "transition_component",
    "transition_map",
    "pair_stats",
    "sign_changes",
    "pair_counts",
    "transition_norm_sq",
    "hadamard_norm_sq",
    "smoothed_count",
    "smoothed_sign_changes",
    "Hessian2",
    "transition_hessian_2d",
    "symmetric2_eigenvalues",
]


class Topology(enum.Enum):
    """Adjacency pattern: wrap around (n pairs) or chain (n - 1 pairs)."""

    CIRCULAR = "circular"
    LINEAR = "linear"

    def neighbors(self, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(a, b): the two ends of every adjacency pair along the last axis.

        Works on one vector or a 2-D batch of them; the circular wrap pair
        (n - 1, 0) comes last.
        """
        if arr.ndim not in (1, 2) or arr.shape[-1] < 2:
            raise ValueError("adjacency pairs need at least two components")
        if self is Topology.CIRCULAR:
            return arr, np.concatenate((arr[..., 1:], arr[..., :1]), axis=-1)
        return arr[..., :-1], arr[..., 1:]

    @classmethod
    def from_name(cls, name: str) -> "Topology":
        try:
            return cls(name.lower())
        except (AttributeError, ValueError):
            raise ValueError(f"unknown topology {name!r}; use 'circular' or 'linear'") from None


def _check_weight(k) -> None:
    if not _finite(k):
        raise ValueError("transition weight k must be finite")


def transition_component(sign_a: int, sign_b: int, k):
    """(a + b + k*a*b) * (a*b - 1) for signs a, b in {-1, 0, 1}.

    Exact when k is int or Fraction.  Note both full flips evaluate to
    +2k: (-1 + 1 - k)(-1 - 1) = 2k, same as (1 - 1 - k)(-1 - 1).
    """
    a, b = _integer_vector((sign_a, sign_b), signs=True)
    _check_weight(k)
    return _transition_values(a, b, k)


def _transition_values(a, b, k):
    """(a + b + k*a*b) * (a*b - 1) on signs or on arrays of signs."""
    prod = a * b
    return (a + b + k * prod) * (prod - 1)


def transition_map(x: Iterable[float], k, topology: Topology = Topology.CIRCULAR) -> tuple:
    """Transition values over the adjacency pairs of x, in pair order."""
    # Python-int signs: each value has transition_component's value and type
    _check_weight(k)
    a, b = topology.neighbors(_signs(x).astype(object))
    return tuple(_transition_values(a, b, k).tolist())


def pair_stats(signs: np.ndarray, topology: Topology):
    """(weak transitions, full flips) of one sign vector, or one entry per
    row of a 2-D batch of them, as numpy integers.

    A pair is weak when exactly one of its signs is zero and a full flip
    when the signs are opposite; t = weak + flips counts the pairs that differ.
    """
    a, b = topology.neighbors(signs)
    # without an axis count_nonzero is one C call, several times faster on short vectors
    axis = None if signs.ndim == 1 else -1
    flips = np.count_nonzero(a * b < 0, axis=axis)
    weak = np.count_nonzero(a != b, axis=axis) - flips
    return weak, flips


def pair_counts(x: Iterable[float], topology: Topology = Topology.CIRCULAR) -> tuple[int, int]:
    """(weak transitions, full flips) over the adjacency pairs of x."""
    weak, flips = pair_stats(_signs(x), topology)
    return int(weak), int(flips)


def sign_changes(x: Iterable[float], topology: Topology = Topology.CIRCULAR) -> int:
    """Number of adjacent pairs whose componentwise signs differ."""
    weak, flips = pair_stats(_signs(x), topology)
    return int(weak + flips)


def _norm_sq(weak: int, flips: int, four_k_sq):
    """weak + 4*k^2*flips, with the flip weight 4*k^2 computed once by the caller."""
    return weak + four_k_sq * flips


def _classes(*columns):
    """Group the rows of equal-length 1-D columns by the exact bytes of their values.

    Returns (rep, inverse): one row index per class and each row's class, so
    column[rep][inverse] reproduces every column bit for bit.  Columns of
    mixed dtypes compare in their common dtype (int counts are exact in
    float64), and equal NaNs group together, unlike under ==.
    """
    stacked = np.stack(columns, axis=-1)
    # a 1-D unique over one void scalar per row, several times faster than unique(axis=0)
    keys, inverse = np.unique(stacked.view(f"V{stacked.itemsize * len(columns)}"), return_inverse=True)
    inverse = inverse.reshape(-1)
    rep = np.empty(len(keys), dtype=np.intp)
    rep[inverse] = np.arange(inverse.size)
    return rep, inverse


def _per_row(formula, *columns):
    """formula(*ints) on the integer statistics of one vector (scalars),
    or on every row of a batch's (1-D columns) as an object array.

    On a batch the formula runs once per distinct tuple of column values and
    its result is broadcast back to the rows, so exact weights cost a handful
    of rational operations per batch however many rows it has.
    """
    if not isinstance(columns[0], np.ndarray):
        return formula(*(int(c) for c in columns))
    rep, inverse = _classes(*columns)
    values = np.empty(len(rep), dtype=object)
    values[:] = [formula(*key) for key in zip(*(c[rep].tolist() for c in columns))]
    return values[inverse]


def transition_norm_sq(x: Iterable[float], k, topology: Topology = Topology.CIRCULAR):
    """Squared norm of the transition vector, via weak + 4*k^2*flips.

    The closed form avoids accumulating squares, so the result is exact
    for int or Fraction k and reproduces sign_changes exactly at k = +-1/2.
    A 2-D array of vectors (rows) gives an object array with one value per
    row, equal in value and type to the call on that row.
    """
    _check_weight(k)
    weak, flips = pair_stats(_signs(x, _is_batch(x)), topology)
    four_k_sq = 4 * k * k
    return _per_row(lambda w, f: _norm_sq(w, f, four_k_sq), weak, flips)


def hadamard_norm_sq(x: Iterable[float], k) -> float:
    """Circular-topology squared norm in Hadamard product form.

    <((I + Z)s + k(s o Zs))^o2, ((s o Zs) - e)^o2> with s the sign vector
    of x and Z the one-step circular shift; an independent route to
    transition_norm_sq(x, k, CIRCULAR).  A 2-D array of vectors (rows)
    gives a float64 array with one value per row, bit-identical to the call
    on that row.
    """
    k = _real(k, "transition weight k")
    batch = _is_batch(x)
    s, zs = Topology.CIRCULAR.neighbors(_signs(x, batch).astype(float))
    prod = s * zs
    left = (s + zs + k * prod) ** 2
    right = (prod - 1.0) ** 2
    value = _row_dot(left, right)
    return value if batch else float(value)


def _epsilon(eps) -> float:
    eps = _real(eps, "smoothing epsilon")
    if not eps > 0.0:
        raise ValueError("smoothing epsilon must be positive")
    return eps


def _smoothed_sum(values: np.ndarray, e: float):
    sq = values * values
    return np.sum(sq / (sq + e), axis=-1)


def smoothed_count(y: Iterable[float], eps) -> float:
    """Smooth minorant of count_nonzero: sum of y_i^2 / (y_i^2 + eps)."""
    e = _epsilon(eps)
    return float(_smoothed_sum(as_vector(y), e))


def smoothed_sign_changes(x: Iterable[float], eps, topology: Topology = Topology.CIRCULAR) -> float:
    """Smoothed count applied to the transition vector at k = 1/2.

    Monotonically nondecreasing as eps decreases, with limit sign_changes(x).
    A 2-D array of vectors (rows) gives a float64 array with one value per
    row, bit-identical to the call on that row.
    """
    e = _epsilon(eps)
    batch = _is_batch(x)
    a, b = topology.neighbors(_signs(x, batch))
    total = _smoothed_sum(_transition_values(a, b, 0.5), e)
    return total if batch else float(total)


@dataclass(frozen=True)
class Hessian2:
    """Symmetric 2x2 Hessian of the smooth two-component transition entry."""

    a11: float
    a12: float
    a22: float
    branch: float


def transition_hessian_2d(x: Iterable[float], branch: float) -> Hessian2:
    """Hessian of (x1 + x2 + b*x1*x2)(x1*x2 - 1) at real x, b = +-1/2.

    Second derivatives: d11 = x2(2 + 2b*x2), d22 = x1(2 + 2b*x1),
    d12 = 2(x1 + x2 + 2b*x1*x2 - b/2).
    """
    arr = as_vector(x)
    if arr.size != 2:
        raise ValueError("the smooth transition Hessian is a 2-D construction")
    if branch not in (0.5, -0.5):
        raise ValueError("branch must be +0.5 or -0.5")
    x1, x2 = float(arr[0]), float(arr[1])
    b = branch
    return Hessian2(
        a11=x2 * (2.0 + 2.0 * b * x2),
        a12=2.0 * x1 + 2.0 * x2 + 4.0 * b * x1 * x2 - b,
        a22=x1 * (2.0 + 2.0 * b * x1),
        branch=b,
    )


def symmetric2_eigenvalues(h: Hessian2) -> tuple[float, float]:
    """Closed-form eigenvalues of a symmetric 2x2 matrix, descending."""
    mean = 0.5 * (h.a11 + h.a22)
    spread = math.hypot(0.5 * (h.a11 - h.a22), h.a12)
    return (mean + spread, mean - spread)
