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
    _signs,
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


class Topology(enum.Enum):
    """Adjacency pattern: wrap around (n pairs) or chain (n - 1 pairs)."""

    CIRCULAR = "circular"
    LINEAR = "linear"

    def pairs(self, arr: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], tuple | None]:
        """((a, b), wrap): the linear pair views a = arr[..., :-1] and
        b = arr[..., 1:] along the last axis, and on the circle the wrap pair
        (arr[..., -1], arr[..., 0]), else None.  No entry is copied.

        Works on one vector or a 2-D batch of them.
        """
        if arr.ndim not in (1, 2) or arr.shape[-1] < 2:
            raise ValueError("adjacency pairs need at least two components")
        wrap = (arr[..., -1], arr[..., 0]) if self is Topology.CIRCULAR else None
        return (arr[..., :-1], arr[..., 1:]), wrap

    def neighbors(self, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(a, b): the two ends of every adjacency pair along the last axis,
        the pairs of pairs() in one array each, with the circular wrap pair
        (n - 1, 0) last.

        Works on one vector or a 2-D batch of them.
        """
        (a, b), wrap = self.pairs(arr)
        if wrap is None:
            return a, b
        # a followed by the wrap pair's first end, arr[..., -1], is arr itself
        return arr, np.concatenate((b, wrap[1][..., None]), axis=-1)

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
# longer ones take numpy.  The big-int route has the smaller fixed cost and
# the larger cost per entry, and the two cross between 512 and 1,024 entries.
# pair_stats of one int8 vector on the circle, best of 7 on one core of a
# 2-vCPU x86-64 VM (numpy 2.4.6, Python 3.11.7), whose speed drifts 10-25 %:
#
#        n   numpy    bytes
#        6   3.5 us   1.4 us
#      256   3.4 us   2.3 us
#      512   3.7 us   3.4 us
#    1,024   4.0 us   5.5 us
#    4,096   4.5 us  15-25 us
#     10^6   0.21 ms  9.6 ms
_SHORT = 512
# np.intp(k) costs about 0.5 us; the counts of a short vector are read from here
_SHORT_COUNTS = tuple(np.arange(_SHORT + 1, dtype=np.intp))


def pair_stats(signs: np.ndarray, topology: Topology):
    """(weak transitions, full flips) of one sign vector, or one entry per
    row of a 2-D batch of them, as numpy integers.

    A pair is weak when exactly one of its signs is zero and a full flip
    when the signs are opposite; t = weak + flips counts the pairs that differ.
    The signs are read through one int8 cast, and each pair gets the code
    a ^ b: 0 when the signs are equal, -2 on a flip (1 ^ -1) and +-1 when
    weak.  A vector of at most _SHORT entries is read as one big-endian
    Python int w over its bytes; w ^ (w >> 8) holds every pair's code in one
    byte (254 on a flip, 1 or 255 when weak), and bytes.count counts them:
    one xor in place of numpy's five calls of fixed cost, but dearer per
    entry, so _SHORT is the measured crossover.  A longer vector xors the
    pair views of Topology.pairs and counts them with np.count_nonzero.  On
    the circle both add the wrap pair's code, read as Python ints.  A batch
    is coded in one xor over its rows laid end to end, written into a
    C-contiguous int8 array shaped like the signs; each row's last column,
    which that xor paired with the first entry of the next row, is then
    overwritten with the row's wrap code on the circle and 0 on the chain.
    Its rows are counted by counting._row_nonzeros, one reduction over the
    whole batch rather than a loop over its rows, exact for any row length:
    flips on the codes equal to -2, weak pairs on the odd codes.  Not in
    __all__: an entry outside -1..1 is miscounted, so only callers holding a
    reader's signs use it; it keeps an unprefixed name, which perfbench's
    tracer times as a layer.
    """
    signs = signs.astype(np.int8, copy=False)
    if signs.ndim != 2:
        n = signs.size
        if signs.ndim == 1 and 2 <= n <= _SHORT:
            # byte i of codes is raw[i - 1] ^ raw[i] for i >= 1; byte 0 is raw[0]
            raw = signs.tobytes()
            w = int.from_bytes(raw, "big")
            codes = (w ^ (w >> 8)).to_bytes(n, "big")
            flips = codes.count(254, 1)
            differ = n - 1 - codes.count(0, 1)
            if topology is Topology.CIRCULAR:
                code = raw[-1] ^ raw[0]
                flips += code == 254
                differ += code != 0
            return _SHORT_COUNTS[differ - flips], _SHORT_COUNTS[flips]
        (a, b), wrap = topology.pairs(signs)
        codes = a ^ b
        flips = np.count_nonzero(codes == _FLIP)
        differ = np.count_nonzero(codes)
        if wrap is not None:
            code = wrap[0].item() ^ wrap[1].item()
            flips = flips + (code == -2)
            differ = differ + (code != 0)
        return differ - flips, flips
    _, wrap = topology.pairs(signs)
    codes = np.empty(signs.shape, dtype=np.int8)
    # the rows end to end, copied only where they are not C-contiguous
    flat = signs.reshape(-1)
    np.bitwise_xor(flat[:-1], flat[1:], out=codes.reshape(-1)[:-1])
    codes[:, -1] = 0 if wrap is None else wrap[0] ^ wrap[1]
    # a code is odd exactly on a weak pair: -2 (a flip) and 0 are even
    return _row_nonzeros((codes & 1).view(bool)), _row_nonzeros(codes == _FLIP)


def pair_counts(x: Iterable[float], topology: Topology = Topology.CIRCULAR) -> tuple[int, int]:
    """(weak transitions, full flips) over the adjacency pairs of x."""
    weak, flips = pair_stats(_signs(x), topology)
    return int(weak), int(flips)


def sign_changes(x: Iterable[float], topology: Topology = Topology.CIRCULAR) -> int:
    """Number of adjacent pairs whose componentwise signs differ."""
    weak, flips = pair_stats(_signs(x), topology)
    return int(weak + flips)


def _linear_form(weights, coefficients):
    """The function of integer statistics s_1, s_2, ... that gives sum a_i * s_i,
    for exact weights, or None when a weight is no int or Fraction by exact type
    (a float, a bool, any other Rational): the caller then keeps its own expression.

    coefficients(*ratios) takes each weight as its (numerator, denominator) and
    returns the a_i the same way, as ints, so no Fraction operator runs.  Each
    a_i is scaled to L, the lcm of their reduced denominators: a value is one
    integer sum and one Fraction(sum, L), reduced as every Fraction is, so it
    equals the value and type of the same formula in Fraction arithmetic.  With
    only int weights it is the int sum; one Fraction weight makes every value a
    Fraction, a whole one too, as that arithmetic would.
    """
    ratios, fraction = [], False
    for k in weights:
        if type(k) is Fraction:
            ratios.append((k.numerator, k.denominator))
            fraction = True
        elif type(k) is int:
            ratios.append((k, 1))
        else:
            return None
    terms = coefficients(*ratios)
    common = math.lcm(*(d // math.gcd(n, d) for n, d in terms))
    # n / d in lowest terms has a denominator dividing common, so d divides n * common
    scaled = [n * common // d for n, d in terms]
    if not fraction:
        return lambda *stats: sum(map(operator.mul, scaled, stats))
    return lambda *stats: Fraction(sum(map(operator.mul, scaled, stats)), common)


def _norm_form(k):
    """(weak, flips) -> weak + 4*k^2*flips, the one place that writes the norm:
    over one denominator for an exact k (_linear_form), else the expression
    weak + (4*k*k)*flips with 4*k*k computed once, in float or Rational
    arithmetic as k gives it."""
    form = _linear_form((k,), lambda r: ((1, 1), (4 * r[0] * r[0], r[1] * r[1])))
    if form is not None:
        return form
    four_k_sq = 4 * k * k
    return lambda w, f: w + four_k_sq * f


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


def _per_row(formulas, what, *columns):
    """Each formula(*ints) on the integer statistics of one vector (scalars), or on
    every row of a batch's (1-D columns), as an object array whose last axis has
    one entry per formula; .T[0] is one formula's value, or its batch column.
    A float value beyond float64 raises ValueError naming what.

    On a batch each formula runs once per distinct tuple of column values and
    its result is broadcast back to the rows, so exact weights cost one
    evaluation per class of rows however many rows the batch has.
    """
    batch = isinstance(columns[0], np.ndarray)
    rep, inverse = _classes(*columns) if batch else (None, 0)
    keys = zip(*(c[rep].tolist() for c in columns)) if batch else [[int(c) for c in columns]]
    values = [_within_float64(formula(*key), what) for key in keys for formula in formulas]
    return np.array(values, dtype=object).reshape(-1, len(formulas))[inverse]


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

    The closed form avoids accumulating squares, so the result is exact
    for int or Fraction k and reproduces sign_changes exactly at k = +-1/2.
    An int or Fraction k is summed in ints over one denominator, to the
    value and type Fraction arithmetic gives; any other k keeps the
    expression weak + (4*k*k)*flips, so float results are unchanged.
    A 2-D array of vectors (rows) gives an object array with one value per
    row, equal in value and type to the call on that row; k is then one
    weight, or a sequence with one weight per row, and row r takes k[r].
    """
    k = _weights(k, x, lambda w: _finite_real(w, "transition weight k"))
    batch = _is_batch(x)
    weak, flips = pair_stats(_signs(x, batch), topology)
    what = "transition_norm_sq at this k"
    if not batch:
        return _within_float64(_norm_form(k)(int(weak), int(flips)), what)
    if isinstance(k, list):
        # rows that share (weak, flips) may differ in k, so the formula runs once per row
        rows = zip(weak.tolist(), flips.tolist(), k)
        values = [_within_float64(_norm_form(kr)(w, f), what) for w, f, kr in rows]
        return np.array(values, dtype=object)
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
    pair_stats counts.  Monotonically nondecreasing as eps decreases, with
    limit sign_changes(x).  A 2-D array of vectors (rows) gives a float64
    array with one value per row, bit-identical to the call on that row.
    """
    eps = _real(eps, "smoothing epsilon")
    if not eps > 0.0:
        raise ValueError("smoothing epsilon must be positive")
    batch = _is_batch(x)
    weak, flips = pair_stats(_signs(x, batch), topology)
    total = (weak + flips) / (1.0 + eps)
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
