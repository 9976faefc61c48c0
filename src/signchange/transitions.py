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
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .counting import (
    _finite_real,
    _is_batch,
    _real,
    _row_dot,
    _row_nonzeros,
    _sign_array,
    _sign_codes,
    _signs,
    _vector,
    _within_float64,
    as_vector,
)

__all__ = [
    "Topology",
    "transition_map",
    "sign_changes",
    "pair_counts",
    "transition_norm_sq",
    "hadamard_norm_sq",
    "smoothed_sign_changes",
    "Hessian2",
    "transition_hessian_2d",
    "symmetric2_eigenvalues",
]

_TOO_SHORT = "adjacency pairs need at least two components"


class Topology(enum.Enum):
    """Adjacency pattern: wrap around (n pairs) or chain (n - 1 pairs)."""

    CIRCULAR = "circular"
    LINEAR = "linear"

    def neighbors(self, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(a, b): the two ends of every adjacency pair along the last axis,
        with the circular wrap pair (n - 1, 0) last.  On the chain a and b
        are the views arr[..., :-1] and arr[..., 1:], with no copy; on the
        circle a is arr itself.

        Works on one vector or a 2-D batch of them.
        """
        if arr.ndim not in (1, 2) or arr.shape[-1] < 2:
            raise ValueError(_TOO_SHORT)
        if self is Topology.LINEAR:
            return arr[..., :-1], arr[..., 1:]
        return arr, np.concatenate((arr[..., 1:], arr[..., :1]), axis=-1)

    @classmethod
    def from_name(cls, name: str) -> "Topology":
        try:
            return cls(name.lower())
        except (AttributeError, ValueError):
            raise ValueError(f"unknown topology {name!r}; use 'circular' or 'linear'") from None


def _transition_values(a, b, k):
    """(a + b + k*a*b) * (a*b - 1) on signs or on arrays of signs."""
    prod = a * b
    return (a + b + k * prod) * (prod - 1)


def transition_map(x: Iterable[float], k, topology: Topology = Topology.CIRCULAR) -> tuple:
    """Transition values over the adjacency pairs of x, in pair order."""
    # on Python-int signs each value is exact, of the type the formula gives on ints
    k = _finite_real(k, "transition weight k")
    a, b = topology.neighbors(_signs(x).astype(object))
    with np.errstate(over="ignore", invalid="ignore"):
        values = _transition_values(a, b, k).tolist()
    return tuple(_within_float64(v, "transition_map at this k") for v in values)


# the pair code of a full flip, as an int8 scalar: comparing with a Python int costs more
_FLIP = np.int8(-2)
# The longest vector pair_stats counts by one big-int xor over its sign bytes;
# longer ones take the numpy xor pass of a batch.  The big-int route has the
# smaller fixed cost and the larger cost per entry, and the two cross between
# 512 and 1,024 entries.  pair_stats of one int8 vector on the circle by each
# route, best of 7 on one core of a 2-vCPU x86-64 VM (numpy 2.4.6, Python
# 3.11.7), whose speed drifts 10-25 %, three runs:
#
#        n   xor pass       bytes
#        6   4.8-5.6 us     0.8-1.7 us
#      256   5.0-6.0 us     1.9-2.1 us
#      512   5.5-5.8 us     2.9-3.4 us
#    1,024   5.6-6.5 us     5.2-7.9 us
#    4,096   6.4-9.4 us     16-19 us
#     10^6   0.25-0.36 ms   10.5-10.8 ms
#
# sign_changes of a 6-entry tuple, the same way: 2.9-3.0 us through an int8
# array and pair_stats, 2.0 us from its sign bytes by _vector_counts.
_SHORT = 512


def _byte_counts(raw, circular: bool) -> tuple[int, int]:
    """(weak, flips) as Python ints of one vector of 2 to _SHORT sign bytes
    (1, 0 and 255), by one big-endian int w over them: byte i of
    w ^ (w >> 8) is raw[i - 1] ^ raw[i] for i >= 1 (byte 0 is raw[0]), 254
    on a flip, 1 or 255 when weak, and bytes.count counts those codes.  On
    the circle the wrap code raw[-1] ^ raw[0] is added."""
    n = len(raw)
    w = int.from_bytes(raw, "big")
    codes = (w ^ (w >> 8)).to_bytes(n, "big")
    flips = codes.count(254, 1)
    differ = n - 1 - codes.count(0, 1)
    if circular:
        code = raw[-1] ^ raw[0]
        flips += code == 254
        differ += code != 0
    return differ - flips, flips


def pair_stats(signs: np.ndarray, topology: Topology):
    """(weak transitions, full flips) of one sign vector, as Python ints, or
    of each row of a 2-D batch of them, as two np.intp arrays.

    A pair is weak when exactly one of its signs is zero and a full flip
    when the signs are opposite; t = weak + flips counts the pairs that
    differ.  The signs are read through one int8 cast, and each pair gets the
    code a ^ b: 0 when the signs are equal, -2 on a flip (1 ^ -1) and +-1
    when weak.  Two routes, by length.  A vector of at most _SHORT entries is
    counted from its bytes by _byte_counts, whose big-int xor has the smaller
    fixed cost.  A longer vector, and a batch, is coded by one xor over its
    rows laid end to end into a C-contiguous int8 array shaped like the
    signs; each row's last column, which that xor paired with the first entry
    of the next row, is then overwritten with the row's wrap code on the
    circle and 0 on the chain.  counting._row_nonzeros counts the codes and
    the flips among them (one reduction over a whole batch), and the weak
    pairs are the rest.  Not in __all__: an entry outside -1..1 is
    miscounted, so only callers holding a reader's signs use it; it keeps an
    unprefixed name, which perfbench's tracer times as a layer.
    """
    signs = signs.astype(np.int8, copy=False)
    if signs.shape[-1] < 2:
        raise ValueError(_TOO_SHORT)
    if signs.ndim == 1 and signs.size <= _SHORT:
        return _byte_counts(signs.tobytes(), topology is Topology.CIRCULAR)
    codes = np.empty(signs.shape, dtype=np.int8)
    # the rows end to end, copied only where they are not C-contiguous
    flat = signs.reshape(-1)
    np.bitwise_xor(flat[:-1], flat[1:], out=codes.reshape(-1)[:-1])
    codes[..., -1] = signs[..., -1] ^ signs[..., 0] if topology is Topology.CIRCULAR else 0
    flips = _row_nonzeros(codes == _FLIP)
    return _row_nonzeros(codes) - flips, flips


def _vector_counts(x, topology: Topology, batch: bool = False):
    """(weak, flips) of one vector x as Python ints or, with batch=True, of
    each row of a 2-D batch as np.intp arrays: the route of every pair
    statistic.  x is read by _vector; a list or tuple of 2 to _SHORT entries
    is counted by _byte_counts from its _sign_codes, with no array, and any
    other x, every ndarray among them, through pair_stats of its signs."""
    x = _vector(x, batch)
    if isinstance(x, (list, tuple)) and 2 <= len(x) <= _SHORT:
        return _byte_counts(_sign_codes(x), topology is Topology.CIRCULAR)
    return pair_stats(_sign_array(x), topology)


def pair_counts(x: Iterable[float], topology: Topology = Topology.CIRCULAR) -> tuple[int, int]:
    """(weak transitions, full flips) over the adjacency pairs of x."""
    return _vector_counts(x, topology)


def sign_changes(x: Iterable[float], topology: Topology = Topology.CIRCULAR) -> int:
    """Number of adjacent pairs whose componentwise signs differ."""
    weak, flips = _vector_counts(x, topology)
    return weak + flips


def _linear_form(weights, coefficients):
    """The form (s_1, s_2, ...) -> sum a_i * s_i in integer statistics at these
    weights, as (scaled, common, kind) for _form_value: a_i = scaled[i] / common.

    Each weight is read at its exact value, as a ratio of ints: a float as its
    dyadic k.as_integer_ratio(), an int or bool as (k, 1), a Fraction or any
    other Rational as (numerator, denominator).  coefficients(*ratios) returns
    the ints (scaled, common), common > 0, so no Fraction or float operator
    runs.  kind is the type of every value: float once a weight is a float,
    else Fraction once a weight is no int, else int.
    """
    ratios, kind = [], int
    for k in weights:
        if isinstance(k, float):
            ratios.append(k.as_integer_ratio())
            kind = float
        elif isinstance(k, int):
            ratios.append((k, 1))
        else:
            ratios.append((k.numerator, k.denominator))
            if kind is int:
                kind = Fraction
    scaled, common = coefficients(*ratios)
    return scaled, common, kind


def _form_value(form, stats, what: str):
    """A _linear_form's value at the integer statistics stats, from the one int
    sum of scaled[i] * stats[i]: the sum itself, Fraction(sum, common), or for a
    float weight sum / common, Python's int/int true division, which rounds the
    exact value once, correctly; its OverflowError, where that value leaves
    float64, becomes the ValueError of _within_float64, naming what."""
    scaled, common, kind = form
    total = sum(map(operator.mul, scaled, stats))
    if kind is int:
        return total
    if kind is Fraction:
        return Fraction(total, common)
    try:
        return total / common
    except OverflowError:
        raise ValueError(f"{what} leaves the float64 range") from None


def _norm_form(k):
    """weak + 4*k^2*flips as the _linear_form of (weak, flips) at k, for a weight of
    any type: the one place that writes the norm, 1 and 4 n^2 over d^2 for k = n / d."""
    return _linear_form((k,), lambda r: ((r[1] * r[1], 4 * r[0] * r[0]), r[1] * r[1]))


def _classes(*columns):
    """Group the rows of equal-length 1-D columns by their exact values.

    Returns (rep, inverse): one row index per class and each row's class, so
    column[rep][inverse] reproduces every column bit for bit.  Rows of signed
    integer columns group by one int64 code: each column offset by its minimum
    is one digit of a mixed-radix number whose radices are the column spans,
    while their running product stays within 2^62.  Other rows group by the
    bytes of their values, where columns of mixed dtypes compare in their
    common dtype (int counts are exact in float64) and equal NaNs group
    together, unlike under ==.
    """
    keys = None
    if len(columns[0]) and all(c.dtype.kind == "i" for c in columns):
        keys, radix = 0, 1
        for c in columns:
            low = int(c.min())
            span = int(c.max()) - low + 1
            radix *= span
            if radix > 2**62:
                keys = None
                break
            # c - low lies in [0, span) and keys in [0, radix / span), so nothing wraps
            keys = keys * span + (c.astype(np.int64, copy=False) - low)
    if keys is None:
        stacked = np.stack(columns, axis=-1)
        # a 1-D unique over one void scalar per row, several times faster than unique(axis=0)
        keys = stacked.view(f"V{stacked.itemsize * len(columns)}")
    keys, inverse = np.unique(keys, return_inverse=True)
    inverse = inverse.reshape(-1)
    rep = np.empty(len(keys), dtype=np.intp)
    rep[inverse] = np.arange(inverse.size)
    return rep, inverse


def _per_row(forms, what, *columns):
    """Each _linear_form's value on the integer statistics of one vector (ints),
    or on every row of a batch's (1-D columns), as an object array whose last
    axis has one entry per form; .T[0] is one form's value, or its batch column.
    A float value beyond float64 raises ValueError naming what.

    On a batch each form is evaluated once per distinct tuple of column values
    and its value is broadcast back to the rows, so a weight costs one
    evaluation per class of rows however many rows the batch has.
    """
    batch = isinstance(columns[0], np.ndarray)
    rep, inverse = _classes(*columns) if batch else (None, 0)
    keys = zip(*(c[rep].tolist() for c in columns)) if batch else [columns]
    values = [_form_value(form, key, what) for key in keys for form in forms]
    return np.array(values, dtype=object).reshape(-1, len(forms))[inverse]


def _weights(k, x, read):
    """k read by read as one weight or, beside a 2-D batch x, a 1-D sequence
    (list, tuple or array) of one weight per row, each read by read, as a list."""
    if not (isinstance(k, (list, tuple)) or isinstance(k, np.ndarray) and k.ndim):
        return read(k)
    if not _is_batch(x):
        raise ValueError("one weight per row needs a 2-D batch of vectors")
    # an object array keeps each entry as it is; a numeric one yields numpy scalars
    weights = k if isinstance(k, np.ndarray) else np.array(k, dtype=object)
    if weights.ndim != 1 or len(weights) != len(x):
        raise ValueError(f"expected one weight or a 1-D sequence of {len(x)} weights, one per row")
    return [read(w) for w in weights]


def transition_norm_sq(x: Iterable[float], k, topology: Topology = Topology.CIRCULAR):
    """Squared norm of the transition vector, via weak + 4*k^2*flips.

    The closed form avoids accumulating squares, and it is summed in ints
    over one denominator at k's exact value (_linear_form): an int or
    Fraction k gives the value and type Fraction arithmetic gives, so it
    reproduces sign_changes exactly at k = +-1/2, and a float k gives that
    exact value rounded once to float, ValueError where it leaves float64.
    A 2-D array of vectors (rows) gives an object array with one value per
    row, equal in value and type to the call on that row; k is then one
    weight, or a sequence with one weight per row, and row r takes k[r].
    """
    k = _weights(k, x, lambda w: _finite_real(w, "transition weight k"))
    what = "transition_norm_sq at this k"
    batch = _is_batch(x)
    weak, flips = _vector_counts(x, topology, batch)
    if not batch:
        return _form_value(_norm_form(k), (weak, flips), what)
    if isinstance(k, list):
        # rows that share (weak, flips) may differ in k, so the form is built once per row
        rows = zip(weak.tolist(), flips.tolist(), k)
        return np.array([_form_value(_norm_form(kr), (w, f), what) for w, f, kr in rows], dtype=object)
    return _per_row([_norm_form(k)], what, weak, flips).T[0]


def hadamard_norm_sq(x: Iterable[float], k) -> float:
    """Circular-topology squared norm in Hadamard product form.

    <((I + Z)s + k(s o Zs))^o2, ((s o Zs) - e)^o2> with s the sign vector
    of x and Z the one-step circular shift; an independent route to
    transition_norm_sq(x, k, CIRCULAR).  A 2-D array of vectors (rows)
    gives a float64 array with one value per row, bit-identical to the call
    on that row; k is then one weight, or a sequence with one weight per
    row, and row r takes k[r].
    """
    k = _weights(k, x, lambda w: _real(w, "transition weight k"))
    if isinstance(k, list):
        # a column, so that row r is scaled by its own weight
        k = np.array(k, dtype=float)[:, None]
    batch = _is_batch(x)
    s, zs = Topology.CIRCULAR.neighbors(_signs(x, batch).astype(float))
    prod = s * zs
    # a k near the float64 limit overflows; the check below refuses the result
    with np.errstate(over="ignore", invalid="ignore"):
        value = _row_dot((s + zs + k * prod) ** 2, (prod - 1.0) ** 2)
    return _within_float64(value if batch else float(value), "hadamard_norm_sq at this k")


def smoothed_sign_changes(x: Iterable[float], eps, topology: Topology = Topology.CIRCULAR) -> float:
    """Sum of l_i^2 / (l_i^2 + eps) over the transition vector l of x at k = 1/2.

    At k = 1/2 each l_i^2 is 0 or 1 (1 exactly on the t pairs that differ),
    so the sum is t / (1 + eps), computed as that one division from the
    pair counts.  Monotonically nondecreasing as eps decreases, with
    limit sign_changes(x).  A 2-D array of vectors (rows) gives a float64
    array with one value per row, bit-identical to the call on that row.
    """
    eps = _real(eps, "smoothing epsilon")
    if not eps > 0.0:
        raise ValueError("smoothing epsilon must be positive")
    weak, flips = _vector_counts(x, topology, _is_batch(x))
    return (weak + flips) / (1.0 + eps)


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
    d12 = 2(x1 + x2 + 2b*x1*x2 - b/2).  ValueError where an entry leaves float64.
    """
    arr = as_vector(x)
    if arr.size != 2:
        raise ValueError("the smooth transition Hessian is a 2-D construction")
    if branch not in (0.5, -0.5):
        raise ValueError("branch must be +0.5 or -0.5")
    x1, x2 = float(arr[0]), float(arr[1])
    b = branch
    entries = (
        x2 * (2.0 + 2.0 * b * x2),
        2.0 * x1 + 2.0 * x2 + 4.0 * b * x1 * x2 - b,
        x1 * (2.0 + 2.0 * b * x1),
    )
    a11, a12, a22 = (_within_float64(v, "transition_hessian_2d at this x") for v in entries)
    return Hessian2(a11=a11, a12=a12, a22=a22, branch=b)


def symmetric2_eigenvalues(h: Hessian2) -> tuple[float, float]:
    """Closed-form eigenvalues of a symmetric 2x2 matrix, descending, as floats.

    mean +- spread on the entries read as float parameters.  Where a11 + a22 or
    a11 - a22 leaves float64, both entries exceed 2^970 in magnitude, and the
    mean and half difference are formed from the halved entries, exactly; so
    no sum overflows on the way to an eigenvalue inside float64, and a
    subnormal entry is never halved.  The eigenvalue of larger magnitude is the
    sum that does not cancel; where the other one would cancel by more than
    half, it is det / larger, with det = a11 * a22 - a12^2 taken exactly.
    ValueError for an entry that is no finite real within float64, or an eigenvalue beyond it.
    """
    a11, a12, a22 = (_real(v, "a Hessian entry") for v in (h.a11, h.a12, h.a22))
    mean, half_diff = 0.5 * (a11 + a22), 0.5 * (a11 - a22)
    if not (math.isfinite(mean) and math.isfinite(half_diff)):
        mean, half_diff = 0.5 * a11 + 0.5 * a22, 0.5 * a11 - 0.5 * a22
    spread = math.hypot(half_diff, a12)
    larger, other = (mean + spread, mean - spread) if mean >= 0 else (mean - spread, mean + spread)
    if abs(other) < 0.5 * abs(larger) and math.isfinite(larger):
        # det / larger over the floats' exact integer ratios; int true division rounds once
        (n11, d11), (n12, d12), (n22, d22), (nl, dl) = (
            v.as_integer_ratio() for v in (a11, a12, a22, larger)
        )
        other = (n11 * n22 * d12 * d12 - n12 * n12 * d11 * d22) * dl / (d11 * d22 * d12 * d12 * nl)
    pair = (larger, other) if mean >= 0 else (other, larger)
    return tuple(_within_float64(v, "symmetric2_eigenvalues") for v in pair)
