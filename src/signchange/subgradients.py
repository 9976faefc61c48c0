"""Generalized subgradient gaps for the sign change count.

The count admits a two-argument subgradient calculus: a gap function
q(x, d) qualifies when t(x + d) - t(x) >= q(x, d) - q(x, 0) for all
displacements d.  The coupled choice q(x, d) = |l(x + d; 1/2)|^2 achieves
equality everywhere.  Decoupling the weight into an inner value k_y with
0 < |k_y| <= 1/2 for the displaced point and an outer value |k_x| >= 1/2
for the base point keeps the inequality valid and opens a nonpositive
slack at d = 0 with a short closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .counting import _check_rows, _displaced, _entries, _finite, _finite_real, _integral, _is_batch
from .counting import _real, _signs
from .transitions import (
    Topology,
    _form_value,
    _linear_form,
    _per_row,
    _vector_counts,
    pair_counts,
    pair_stats,
    transition_norm_sq,
)

__all__ = [
    "GapParams",
    "coupled_subgradient_value",
    "decoupled_gap",
    "zero_direction_gap",
    "GapProfile",
    "gap_profile",
    "profile_csv",
]


@dataclass(frozen=True)
class GapParams:
    """Weight pair (k_y, k_x) with 0 < |k_y| <= 1/2 <= |k_x|."""

    k_y: object
    k_x: object

    def __post_init__(self) -> None:
        # the bounds below admit |k_x| = inf and cannot compare a non-number;
        # a numpy weight is kept as the Python number of its value
        for name in ("k_y", "k_x"):
            object.__setattr__(self, name, _finite_real(getattr(self, name), f"gap weight {name}"))
        if not 0 < abs(self.k_y) <= Fraction(1, 2) <= abs(self.k_x):
            raise ValueError("gap weights must satisfy 0 < |k_y| <= 1/2 <= |k_x|")


def coupled_subgradient_value(y: Iterable[float], topology: Topology = Topology.CIRCULAR):
    """|l(y; 1/2)|^2, which equals sign_changes(y) exactly.

    A 2-D array of vectors (rows) gives an object array with one value per
    row, as transition_norm_sq does.
    """
    return transition_norm_sq(y, 0.5, topology)


def _displaced_signs(x, d) -> tuple[np.ndarray, np.ndarray]:
    """Signs of x and of x + d, for one vector or a 2-D array x of points with
    d of the same shape.

    One vector adds through _displaced.  Two integer arrays add in int64
    unless a sum overflows; every other pair of arrays, and an overflowing
    one, adds row by row through _displaced.  Each way the sums are those of
    the 1-D call.
    """
    if not _is_batch(x):
        return tuple(map(_signs, _displaced(x, d)))
    d = np.asarray(d)
    if d.shape != x.shape:
        raise ValueError("dimension mismatch between point and displacement")
    kinds = {x.dtype.kind, d.dtype.kind}
    if kinds <= {"i", "u"} and np.can_cast(np.result_type(x, d), np.int64):
        a, b = x.astype(np.int64), d.astype(np.int64)
        total = a + b
        if not np.any((a ^ total) & (b ^ total) < 0):
            return _signs(x, batch=True), _signs(total, batch=True)
    rows = [_signs(_displaced(p, q)[1]) for p, q in zip(x, d)]
    return _signs(x, batch=True), np.array(rows, dtype=np.int8).reshape(x.shape)


def _decoupled_coefficients(y, x):
    """The coefficients of (wy, fy, wx, fx) in the decoupled gap, 1, 4 k_y^2, -1 and
    -4 k_x^2, over dy^2 dx^2, from the (numerator, denominator) of y = k_y and x = k_x."""
    (ny, dy), (nx, dx) = y, x
    common = dy * dy * dx * dx
    return (common, 4 * ny * ny * dx * dx, -common, -4 * nx * nx * dy * dy), common


def _zero_direction_coefficients(y, x):
    """The coefficient of the flips in the zero-direction gap, 4(k_y^2 - k_x^2), over
    dy^2 dx^2, from the (numerator, denominator) of y = k_y and x = k_x, once the
    weights lie on the positive branch 0 < k_y <= 1/2 <= k_x (denominators are > 0)."""
    (ny, dy), (nx, dx) = y, x
    if not (0 < ny and 2 * ny <= dy and 2 * nx >= dx):
        raise ValueError("closed form requires the positive branch 0 < k_y <= 1/2 <= k_x")
    return (4 * (ny * ny * dx * dx - nx * nx * dy * dy),), dy * dy * dx * dx


def _per_pair(params, coefficients, what, *columns):
    """_per_row over the _linear_form of each weight pair (k_y, k_x) in params by
    coefficients; one GapParams takes column 0."""
    if isinstance(params, GapParams):
        return _per_pair([params], coefficients, what, *columns).T[0]
    if not (isinstance(params, (list, tuple)) and params and all(isinstance(p, GapParams) for p in params)):
        raise ValueError("params must be a GapParams or a nonempty list or tuple of them")
    return _per_row([_linear_form((p.k_y, p.k_x), coefficients) for p in params], what, *columns)


def decoupled_gap(
    x: Iterable[float],
    d: Iterable[float],
    params: GapParams | Sequence[GapParams],
    topology: Topology = Topology.CIRCULAR,
):
    """|l(x + d; k_y)|^2 - |l(x; k_x)|^2.

    Subgradient inequality: sign_changes(x + d) - sign_changes(x) dominates
    this value for every displacement d.  A 2-D array x of points (rows)
    with d of the same shape gives an object array with one value per row,
    equal in value and type to the call on that row.  A list of GapParams adds a
    last axis, entry j equal in value and type to the call at params[j].
    wy + 4 k_y^2 fy - wx - 4 k_x^2 fx is one integer sum over one denominator
    at the weights' exact values (_linear_form): int and Fraction weights give
    the value and type Fraction arithmetic gives, and a float weight gives that
    exact value rounded once to float, ValueError where it leaves float64.
    """
    base, moved = _displaced_signs(x, d)
    columns = (*pair_stats(moved, topology), *pair_stats(base, topology))
    return _per_pair(params, _decoupled_coefficients, "decoupled_gap at this k_x", *columns)


def zero_direction_gap(
    x: Iterable[float],
    params: GapParams | Sequence[GapParams],
    topology: Topology = Topology.CIRCULAR,
):
    """Closed form of the gap at d = 0 for the positive weight branch.

    (k_y - k_x) * sum over pairs of
        (s_i s_j - 1)^2 ((k_y + k_x) s_i^2 s_j^2 + 2 s_i s_j (s_i + s_j))
    where s is the sign vector of x.  The damping (s_i s_j - 1)^2 vanishes on
    equal nonzero signs; where a sign is zero s_i s_j = 0, and on a full flip
    s_i s_j = -1 and s_i + s_j = 0, so each summand is 0 except on the flips,
    where it is 4(k_y + k_x).  The value is therefore 4(k_y^2 - k_x^2) * flips
    <= 0, with flips read from the pair kernel, and it is one integer product
    over one denominator at the weights' exact values (_linear_form): int and
    Fraction weights give the value and type Fraction arithmetic gives, and a
    float weight gives that exact value rounded once to float (0.0 at no
    flip), ValueError where it leaves float64.  A 2-D array of vectors (rows)
    gives an object array with one value per row, equal in value and type to
    the call on that row; a list of GapParams adds a last axis, entry j equal
    in value and type to the call at params[j].
    """
    _, flips = _vector_counts(x, topology, _is_batch(x))
    return _per_pair(params, _zero_direction_coefficients, "zero_direction_gap at this k_x", flips)


def _profile_coefficients(k, offset):
    """The coefficients of (weak, flips, 1) in a gap profile, 1, 4 k^2 and the offset,
    over d^2 do, from the (numerator, denominator) (n, d) of k and (no, do) of the offset."""
    (n, d), (no, do) = k, offset
    return (d * d * do, 4 * n * n * do, no * d * d), d * d * do


@dataclass(frozen=True)
class GapProfile:
    """Exact quadratic k |-> weak + 4*flips*k^2 + offset on (0, 1/2].

    weak and flips describe the displaced sign pattern; offset is the
    negated base norm -|l(x; k_x)|^2, kept exact when k_x is rational.
    """

    weak: int
    flips: int
    offset: object
    k_x: object

    def __post_init__(self) -> None:
        # finite reals, the counts integral, read as Python numbers that profile_csv can add
        fields = (self.weak, self.flips, self.offset, self.k_x)
        if not (all(map(_finite, fields)) and all(_integral(c) and c >= 0 for c in fields[:2])):
            raise ValueError("a profile needs integer counts >= 0 and finite reals")
        for name, value in zip(("weak", "flips", "offset", "k_x"), _entries(fields)):
            object.__setattr__(self, name, int(value) if name in ("weak", "flips") else value)

    @property
    def quad_coeff(self) -> int:
        return 4 * self.flips

    def value(self, k):
        """weak + 4*flips*k^2 + offset at k in (0, 1/2], summed in ints at the
        exact values of k and the offset (_linear_form), as the gaps are: exact
        for int and Fraction ones, and a float value rounded once, ValueError
        where it leaves float64.  At a float k_x the stored offset was itself
        rounded once to float when the profile was built."""
        k = _finite_real(k, "profile weight")
        if not 0 < k <= Fraction(1, 2):
            raise ValueError("profile weight must lie in (0, 1/2]")
        form = _linear_form((k, self.offset), _profile_coefficients)
        return _form_value(form, (self.weak, self.flips, 1), "a gap profile value")


def gap_profile(
    x: Iterable[float],
    d: Iterable[float],
    k_x,
    topology: Topology = Topology.CIRCULAR,
) -> GapProfile:
    """Gap at fixed displacement as an exact quadratic in the inner weight."""
    k_x = _finite_real(k_x, "outer weight k_x")
    if abs(k_x) < Fraction(1, 2):
        raise ValueError("outer weight must satisfy |k_x| >= 1/2")
    base, moved = _displaced(x, d)
    weak, flips = pair_counts(moved, topology)
    return GapProfile(
        weak=weak,
        flips=flips,
        offset=-transition_norm_sq(base, k_x, topology),
        k_x=k_x,
    )


def profile_csv(profile: GapProfile, step: Fraction = Fraction(1, 200)) -> str:
    """CSV rows 'k,gap' for k = step, 2*step, ... up to 1/2."""
    step = Fraction(_finite_real(step, "profile step"))
    if not 0 < step <= Fraction(1, 2):
        raise ValueError("step must lie in (0, 1/2]")
    _check_rows(Fraction(1, 2) // step, "the profile")
    lines = ["k,gap"]
    k = step
    while k <= Fraction(1, 2):
        lines.append(f"{float(k)!r},{_real(profile.value(k), 'a gap value')!r}")
        k += step
    return "\n".join(lines) + "\n"
