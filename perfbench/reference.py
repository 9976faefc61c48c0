"""Independent references for every output the benchmark checks.

Nothing here imports ``signchange``: signs come from ``np.sign`` for float64
input and from exact Python comparisons for ``int``/``Fraction`` input, pair
statistics from shifted array compares, certificates are recombined from the
benchmark's own copy of the lattice system, and local classifications come
from a numpy brute force over every completion of the zeros.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np


def signs(values) -> np.ndarray:
    """Componentwise signs as int8: ``np.sign`` for float arrays, exact otherwise."""
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        return np.sign(values).astype(np.int8)
    return np.array([(v > 0) - (v < 0) for v in values], dtype=np.int8)


def _neighbours(s: np.ndarray, circular: bool) -> tuple[np.ndarray, np.ndarray]:
    if circular:
        return s, np.roll(s, -1, axis=-1)
    return s[..., :-1], s[..., 1:]


def pair_stats(s: np.ndarray, circular: bool) -> tuple[np.ndarray, np.ndarray]:
    """(weak transitions, full flips) along the last axis of a sign array."""
    a, b = _neighbours(s, circular)
    prod = a.astype(np.int16) * b.astype(np.int16)
    flips = np.count_nonzero(prod == -1, axis=-1)
    weak = np.count_nonzero((prod == 0) & (a != b), axis=-1)
    return weak, flips


def vector_outputs(values, circular: bool) -> dict[str, object]:
    """Expected count_nonzero, sign_changes, pair_counts and transition_norm_sq(k=1/2)."""
    s = signs(values)
    weak, flips = pair_stats(s, circular)
    weak, flips = int(weak), int(flips)
    k = Fraction(1, 2)
    return {
        "count_nonzero": int(np.count_nonzero(s)),
        "sign_changes": weak + flips,
        "pair_counts": (weak, flips),
        "transition_norm_sq": weak + 4 * k * k * flips,
    }


def circular_changes(z) -> int:
    weak, flips = pair_stats(np.asarray(z, dtype=np.int8), circular=True)
    return int(weak + flips)


def lattice_rows(z) -> tuple[list[tuple[int, ...]], list[int]]:
    """Directions d != 0 with z + d on the sign grid, lexicographic, and t(z) - F(d)."""
    options = [tuple(v - zi for v in (-1, 0, 1)) for zi in z]
    rows = [d for d in product(*options) if any(d)]
    t = circular_changes(z)
    n = len(z)
    rhs = []
    for d in rows:
        form = 0
        for i in range(n):
            a, b = d[i], d[(i + 1) % n]
            form += (a + b) ** 2 * (a * b - 1) ** 2
        rhs.append(t - form)
    return rows, rhs


def feasibility_holds(z, result) -> bool:
    """A witness must solve every row; a certificate must combine rows to 0 = value != 0."""
    rows, rhs = lattice_rows(z)
    if result.candidate != tuple(z) or result.t != circular_changes(z):
        return False
    if result.n_directions != len(rows):
        return False
    if result.feasible:
        mu = [Fraction(v) for v in result.witness]
        return all(sum(m * d for m, d in zip(mu, row)) == b for row, b in zip(rows, rhs))
    cert = result.certificate
    if cert is None or len(cert.equation_indices) != len(cert.coefficients):
        return False
    combined = [Fraction(0)] * len(z)
    value = Fraction(0)
    for idx, coeff, direction in zip(cert.equation_indices, cert.coefficients, cert.directions):
        if rows[idx] != tuple(direction):
            return False
        for i, d in enumerate(rows[idx]):
            combined[i] += coeff * d
        value += coeff * rhs[idx]
    return all(c == 0 for c in combined) and value != 0 and value == cert.value


def classify(x: np.ndarray, circular: bool) -> dict[str, object]:
    """Brute force over every completion of the zeros of x."""
    s = signs(x)
    zeros = np.flatnonzero(s == 0)
    completions = np.repeat(s[None, :], 3 ** zeros.size, axis=0)
    if zeros.size:
        digits = np.arange(3 ** zeros.size)[:, None] // 3 ** np.arange(zeros.size)[None, :] % 3
        completions[:, zeros] = digits - 1
    weak, flips = pair_stats(completions, circular)
    t = weak + flips
    weak_x, flips_x = pair_stats(s, circular)
    t_x = int(weak_x + flips_x)
    if zeros.size == 0:
        label = "NoZeroStationary"
    elif np.all(t <= t_x):
        label = "LocalMax"
    elif np.all(t >= t_x):
        label = "LocalMin"
    else:
        label = "Neither"
    return {
        "label": label,
        "t_at_x": t_x,
        "completions": int(t.size),
        "t_min": int(t.min()),
        "t_max": int(t.max()),
    }
