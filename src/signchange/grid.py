"""The sign grid {-1, 0, 1}^n and the exhaustive count table over it.

The grid is laid out in lexicographic order: row r holds the base-3 digits
of r shifted to {-1, 0, 1}, so negating every pattern reverses the rows and
each leading component is one contiguous block of 3^(n-1) rows.  Tables are
built up to MAX_GRID_DIM, the 3^12 rows of the library's row ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .counting import _finite, _integral
from .transitions import Topology, pair_stats

__all__ = ["pattern_grid", "GridTable", "enumerate_grid", "center_symmetry_check"]

MAX_GRID_DIM = 12


# the three digit values of one component, as a column that broadcasts over its blocks
_DIGITS = np.arange(-1, 2, dtype=np.int8)[:, None]


def pattern_grid(n: int) -> np.ndarray:
    """All 3^n sign patterns as a C-contiguous int8 array in lexicographic order.

    Row r holds the base-3 digits of r shifted to {-1, 0, 1}, so the
    ordering matches itertools.product((-1, 0, 1), repeat=n) and the
    negation of row r is row 3^n - 1 - r.  Component j runs through -1, 0
    and 1 in blocks of 3^(n-1-j) rows, 3^j times over: each column is
    written in int8 through one view of the grid, with no division.
    """
    # an integral n in range, checked before 3^n is formed
    if not (_integral(n) and 2 <= n <= MAX_GRID_DIM):
        raise ValueError(f"pattern dimension must be an integer in [2, {MAX_GRID_DIM}], got {n!r}")
    n = int(n)
    grid = np.empty((3**n, n), dtype=np.int8)
    for j in range(n):
        # reshaping the C-contiguous grid is a view, so the write lands in it
        grid.reshape(3**j, 3, 3 ** (n - 1 - j), n)[..., j] = _DIGITS
    return grid


@dataclass(frozen=True)
class GridTable:
    """Exhaustive sign change table over all patterns of one dimension."""

    n: int
    topology: Topology
    patterns: np.ndarray
    t: np.ndarray

    def histogram(self) -> dict[int, int]:
        values, counts = np.unique(self.t, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    def rows(self) -> Iterable[tuple[tuple[int, ...], int]]:
        for pattern, value in zip(self.patterns, self.t):
            yield tuple(pattern.tolist()), int(value)

    def first_component_slices(self) -> dict[int, tuple[int, int]]:
        """Contiguous row ranges per leading component (lex-major order)."""
        block = 3 ** (self.n - 1)
        return {z1: ((z1 + 1) * block, (z1 + 2) * block) for z1 in (-1, 0, 1)}

    def to_csv(self, first_component: int | None = None) -> str:
        header = ",".join(f"z{i + 1}" for i in range(self.n)) + ",t"
        if first_component is None:
            rows = zip(self.patterns, self.t)
        else:
            if first_component not in (-1, 0, 1):
                raise ValueError("slice selector must be a sign value")
            lo, hi = self.first_component_slices()[first_component]
            rows = zip(self.patterns[lo:hi], self.t[lo:hi])
        lines = [header]
        for pattern, value in rows:
            lines.append(",".join(str(int(v)) for v in pattern) + f",{int(value)}")
        return "\n".join(lines) + "\n"

    def json_summary(self, threshold: int | None = None) -> dict:
        thr = self.n - 1 if threshold is None else threshold
        # t is an integer, so the threshold is read by the integer rule, as a plain int for JSON
        if not _integral(thr):
            raise ValueError(f"symmetry threshold must be an integer, got {thr!r}")
        thr = int(thr)
        closed = center_symmetry_check(self, thr)
        sel = self.t > thr
        return {
            "n": self.n,
            "topology": self.topology.value,
            "rows": int(self.t.size),
            "histogram": {str(k): v for k, v in sorted(self.histogram().items())},
            "slices": {
                str(z1): list(span) for z1, span in self.first_component_slices().items()
            },
            "symmetry": {
                "threshold": thr,
                "count_above": int(np.count_nonzero(sel)),
                "closed_under_negation": closed,
            },
        }


def enumerate_grid(n: int, topology: Topology = Topology.CIRCULAR) -> GridTable:
    patterns = pattern_grid(n)
    weak, flips = pair_stats(patterns, topology)
    return GridTable(n=patterns.shape[1], topology=topology, patterns=patterns, t=weak + flips)


def center_symmetry_check(table: GridTable, threshold: int) -> bool:
    """Whether {z : t(z) > threshold} is closed under z -> -z.

    Lexicographic ordering maps negation to index reversal, so the
    selected mask must be a palindrome.
    """
    if not _finite(threshold):
        raise ValueError(f"symmetry threshold must be finite, got {threshold!r}")
    sel = table.t > threshold
    return bool(np.array_equal(sel, sel[::-1]))
