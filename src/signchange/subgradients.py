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
from typing import Iterable

import numpy as np

from .counting import _check_rows, _displaced, _finite, _is_batch, _real, _signs
from .transitions import (
    Topology,
    _check_weight,
    _norm_sq,
    _per_row,
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
        # the bounds below admit |k_x| = inf and cannot compare a non-number
        _check_weight(self.k_y)
        _check_weight(self.k_x)
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


def decoupled_gap(
    x: Iterable[float],
    d: Iterable[float],
    params: GapParams,
    topology: Topology = Topology.CIRCULAR,
):
    """|l(x + d; k_y)|^2 - |l(x; k_x)|^2.

    Subgradient inequality: sign_changes(x + d) - sign_changes(x) dominates
    this value for every displacement d.  A 2-D array x of points (rows)
    with d of the same shape gives an object array with one value per row,
    equal in value and type to the call on that row.
    """
    base, moved = _displaced_signs(x, d)

    def gap(weak_y, flips_y, weak_x, flips_x):
        return _norm_sq(weak_y, flips_y, params.k_y) - _norm_sq(weak_x, flips_x, params.k_x)

    return _per_row(gap, *pair_stats(moved, topology), *pair_stats(base, topology))


def zero_direction_gap(
    x: Iterable[float],
    params: GapParams,
    topology: Topology = Topology.CIRCULAR,
):
    """Closed form of the gap at d = 0 for the positive weight branch.

    (k_y - k_x) * sum over pairs of
        (s_i s_j - 1)^2 ((k_y + k_x) s_i^2 s_j^2 + 2 s_i s_j (s_i + s_j))
    where s is the sign vector of x.  Each summand is 0 except on full
    flips, where it contributes 4(k_y^2 - k_x^2) <= 0.  The sum runs over
    integer sign arrays in two weight-free parts; the weights enter only in
    the two closing rational operations, so the value is exact for
    Fraction weights.  A 2-D array of vectors (rows) gives an object array
    with one value per row, equal in value and type to the call on that row.
    """
    k_y, k_x = params.k_y, params.k_x
    if not 0 < k_y <= Fraction(1, 2) <= k_x:
        raise ValueError("closed form requires the positive branch 0 < k_y <= 1/2 <= k_x")
    a, b = topology.neighbors(_signs(x, _is_batch(x)).astype(np.int64))
    prod = a * b
    damp = (prod - 1) ** 2
    quadratic = np.sum(damp * prod * prod, axis=-1)
    linear = np.sum(damp * 2 * prod * (a + b), axis=-1)
    return _per_row(lambda q, l: (k_y - k_x) * ((k_y + k_x) * q + l), quadratic, linear)


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

    @property
    def quad_coeff(self) -> int:
        return 4 * self.flips

    def value(self, k):
        if not (_finite(k) and 0 < k <= Fraction(1, 2)):
            raise ValueError("profile weight must lie in (0, 1/2]")
        return self.weak + self.quad_coeff * k * k + self.offset


def gap_profile(
    x: Iterable[float],
    d: Iterable[float],
    k_x,
    topology: Topology = Topology.CIRCULAR,
) -> GapProfile:
    """Gap at fixed displacement as an exact quadratic in the inner weight."""
    if not (_finite(k_x) and abs(k_x) >= Fraction(1, 2)):
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
    if not (_finite(step) and 0 < step <= Fraction(1, 2)):
        raise ValueError("step must lie in (0, 1/2]")
    step = Fraction(step)
    _check_rows(Fraction(1, 2) // step, "the profile")
    lines = ["k,gap"]
    k = step
    while k <= Fraction(1, 2):
        lines.append(f"{float(k)!r},{_real(profile.value(k), 'a gap value')!r}")
        k += step
    return "\n".join(lines) + "\n"
