"""Brute-force enumeration and named verification oracles.

Everything here recomputes sign change statistics directly from integer
pattern arrays, independently of the scalar library routines, so the
registered oracles can confront the library with exhaustive desk-scale
evidence: full pattern-pair subgradient sweeps, norm bound chains,
Hadamard identity checks, the 2-D Hessian eigenvalue table, the exact
zero-direction gap identity and the 4-D feasibility certificates.  The
finite-direction system behind those certificates is built only here, by
lattice enumeration and a per-pair loop, and decided once by exact
Gauss-Jordan elimination.  Every pattern-grid oracle, and the random
minorant sample, reports through _sweep: its first failed check in sweep
order, or its check count.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Sequence

import numpy as np

from .counting import _check_rows, _finite, _integral, _signs, sign_minorant_gap
from .polysys import finite_direction_feasibility
from .subgradients import GapParams, coupled_subgradient_value, decoupled_gap, zero_direction_gap
from .transitions import (
    Topology,
    _classes,
    hadamard_norm_sq,
    pair_counts,
    pair_stats,
    sign_changes,
    smoothed_sign_changes,
    symmetric2_eigenvalues,
    transition_hessian_2d,
    transition_norm_sq,
)

__all__ = [
    "pattern_grid",
    "GridTable",
    "enumerate_grid",
    "center_symmetry_check",
    "Label",
    "LocalClass",
    "classify_point",
    "VerifyReport",
    "run_oracle",
    "list_oracles",
]

MAX_GRID_DIM = 12

# weight pairs (inner, outer) satisfying 0 < inner <= 1/2 <= outer
SWEEP_WEIGHTS_EXACT = [
    (ky, kx)
    for ky in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2))
    for kx in (Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(2))
]
SWEEP_WEIGHTS = [(float(ky), float(kx)) for ky, kx in SWEEP_WEIGHTS_EXACT]

# the draws of the hadamard_random and signminor_random oracles
_RANDOM_SEED = 20240817
_HADAMARD_RANDOM_COUNT = 1000
_SIGNMINOR_RANDOM_COUNT = 10000


def pattern_grid(n: int) -> np.ndarray:
    """All 3^n sign patterns as an int8 array in lexicographic order.

    Row r holds the base-3 digits of r shifted to {-1, 0, 1}, so the
    ordering matches itertools.product((-1, 0, 1), repeat=n) and the
    negation of row r is row 3^n - 1 - r.
    """
    # an integral n in range, checked before 3^n is formed
    if not (_integral(n) and 2 <= n <= MAX_GRID_DIM):
        raise ValueError(f"pattern dimension must be an integer in [2, {MAX_GRID_DIM}], got {n!r}")
    n = int(n)
    powers = 3 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    idx = np.arange(3**n, dtype=np.int64)
    return ((idx[:, None] // powers[None, :]) % 3 - 1).astype(np.int8)


def _reference_pair_counts(pattern: tuple[int, ...], topology: Topology) -> tuple[int, int]:
    """(weak, flips) of a sign pattern by a per-pair Python loop, independent
    of the array kernel that the library routines share."""
    n = len(pattern)
    weak = 0
    flips = 0
    for i in range(n if topology is Topology.CIRCULAR else n - 1):
        j = (i + 1) % n
        prod = pattern[i] * pattern[j]
        if prod == -1:
            flips += 1
        elif prod == 0 and pattern[i] != pattern[j]:
            weak += 1
    return weak, flips


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


class Label(enum.Enum):
    NO_ZERO_STATIONARY = "NoZeroStationary"
    LOCAL_MAX = "LocalMax"
    LOCAL_MIN = "LocalMin"
    NEITHER = "Neither"


# where x has zero and nonzero entries, completions arbitrarily near x lower t,
# so no v is a regular subgradient (README: "Regular subdifferential of t")
_FRECHET_NOTES = {
    Label.NO_ZERO_STATIONARY: "frechet subdifferential = {0}",
    Label.NEITHER: "frechet subdifferential is empty",
    Label.LOCAL_MAX: "frechet subdifferential is empty",
    Label.LOCAL_MIN: "frechet subdifferential = {0}",
}


@dataclass(frozen=True)
class LocalClass:
    """Local behaviour of the count near x, with the sign pattern of x."""

    label: Label
    t_at_x: int
    frechet_note: str
    pattern: tuple[int, ...]
    topology: Topology

    @cached_property
    def reachable(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The patterns reachable from x, every completion of its zeros, with
        their t in lexicographic order: built on first read, under the row ceiling."""
        _check_rows(3 ** self.pattern.count(0), "the completions of x")
        options = [(si,) if si != 0 else (-1, 0, 1) for si in self.pattern]
        patterns = list(product(*options))
        weak, flips = pair_stats(np.array(patterns, dtype=np.int8), self.topology)
        return tuple(zip(patterns, (weak + flips).tolist()))


def classify_point(x: Iterable[float], topology: Topology = Topology.CIRCULAR) -> LocalClass:
    """Classify x by how the completions of its zeros move t.

    Nonzero components keep their sign under small perturbations while
    zeros may take any sign. A completion lowers t wherever x has both zero
    and nonzero entries, and raises it exactly when two zeros are adjacent
    (README: "Regular subdifferential of t").
    """
    s = _signs(x)
    zero = s == 0
    a, b = topology.neighbors(zero)
    if not zero.any():
        label = Label.NO_ZERO_STATIONARY
    elif zero.all():
        label = Label.LOCAL_MIN
    elif np.any(a & b):
        label = Label.NEITHER
    else:
        label = Label.LOCAL_MAX
    return LocalClass(
        label=label,
        t_at_x=int(sum(pair_stats(s, topology))),
        frechet_note=_FRECHET_NOTES[label],
        pattern=tuple(s.tolist()),
        topology=topology,
    )


@dataclass(frozen=True)
class VerifyReport:
    name: str
    passed: bool
    checks: int
    counterexample: dict | None
    details: str


def _report(name: str, checks: int, counterexample: dict | None, details: str) -> VerifyReport:
    return VerifyReport(
        name=name,
        passed=counterexample is None,
        checks=checks,
        counterexample=counterexample,
        details=details,
    )


def _sweep(
    name: str,
    blocks: Iterable[tuple[np.ndarray | tuple, Callable[[int], dict]]],
    details: str,
) -> VerifyReport:
    """Report the first failed check of a sweep, or pass with every check counted.

    Each block is its failed checks and a function from the flat index of a
    failure in that block to its counterexample.  The failed checks are a
    boolean array in sweep (C) order, or a class table (failed, rows, cols)
    for a block of len(rows) x len(cols) checks whose two sides read row i
    and column j only through their classes rows[i] and cols[j]: failed
    decides each pair of classes once, and the full array in sweep order is
    built only when some class pair fails.  A failing report counts the
    checks up to and including the first failure; a passing one fills
    {checks} in details.
    """
    checks = 0
    for failed, counterexample in blocks:
        if isinstance(failed, tuple):
            table, rows, cols = failed
            if not table.any():
                checks += len(rows) * len(cols)
                continue
            failed = table[np.ix_(rows, cols)]
        if failed.any():
            first = int(failed.argmax())
            return _report(name, checks + first + 1, counterexample(first), "")
        checks += failed.size
    return _report(name, checks, None, details.format(checks=checks))


def _oracle_library_crosscheck(n: int) -> VerifyReport:
    """Scalar routines and the batch kernel against a per-pair Python loop."""
    patterns = pattern_grid(n)
    rows = list(map(tuple, patterns.tolist()))

    def blocks():
        for topology in Topology:

            def failed_checks(pattern, kernel):
                expected = _reference_pair_counts(pattern, topology)
                t_lib = sign_changes(pattern, topology)
                return (
                    pair_counts(pattern, topology) != expected or kernel != expected,
                    t_lib != sum(expected),
                    transition_norm_sq(pattern, 0.5, topology) != t_lib,
                )

            def counterexample(i):
                pattern = rows[i // 3]
                kinds = (
                    {"pair_counts": pair_counts(pattern, topology)},
                    {"t": sign_changes(pattern, topology)},
                    {"norm_half": True},
                )
                return {"pattern": pattern, **kinds[i % 3]}

            weak, flips = pair_stats(patterns, topology)
            kernel = zip(weak.tolist(), flips.tolist())
            yield np.array([failed_checks(p, k) for p, k in zip(rows, kernel)]), counterexample

    return _sweep(f"library_crosscheck_n{n}", blocks(), "{checks} scalar/array comparisons agree")


def _oracle_ft_inequality(n: int) -> VerifyReport:
    """t(s') - t(s) >= |l(s'; ky)|^2 - |l(s; kx)|^2 over all pattern pairs.

    Every displaced pattern s' is realized by d = s' - s, so the pair
    sweep is a complete verification at this dimension.
    """
    patterns = pattern_grid(n)

    def blocks():
        for topology in Topology:
            # both sides of a check read a pattern only through its (weak, flips)
            weak, flips = pair_stats(patterns, topology)
            rep, classes = _classes(weak, flips)
            weak, flips = weak[rep], flips[rep]
            t = (weak + flips).astype(float)
            lhs = t[None, :] - t[:, None]
            for ky, kx in SWEEP_WEIGHTS:
                displaced = weak + 4.0 * ky * ky * flips
                base = weak + 4.0 * kx * kx * flips

                def counterexample(index):
                    i, j = divmod(index, len(patterns))
                    return {
                        "base": tuple(patterns[i].tolist()),
                        "displaced": tuple(patterns[j].tolist()),
                        "weights": (ky, kx),
                        "topology": topology.value,
                    }

                yield (lhs < displaced[None, :] - base[:, None], classes, classes), counterexample

    return _sweep(
        f"ft_inequality_n{n}",
        blocks(),
        f"{3**n}x{3**n} pattern pairs x {len(SWEEP_WEIGHTS)} weight pairs x 2 topologies, no violation",
    )


def _oracle_coupled_equality(n: int) -> VerifyReport:
    """The coupled gap |l(y; 1/2)|^2 matches t(y) exactly, so the
    subgradient inequality holds with equality on every pattern pair."""
    patterns = pattern_grid(n)

    def blocks():
        for topology in Topology:
            weak, flips = pair_stats(patterns, topology)
            t = weak + flips
            # float64, so the class-pair comparison below stays out of object arithmetic
            coupled = coupled_subgradient_value(patterns, topology).astype(float)
            yield coupled != t, lambda r: {"pattern": tuple(patterns[r].tolist())}
            # the pair check reads a pattern only through its (t, coupled)
            rep, classes = _classes(t, coupled)
            t, coupled = t[rep], coupled[rep]
            lhs = (t[None, :] - t[:, None]).astype(float)
            failed = lhs != coupled[None, :] - coupled[:, None]
            yield (failed, classes, classes), lambda _: {"topology": topology.value}

    return _sweep(f"coupled_equality_n{n}", blocks(), "coupled gap equals the count difference exactly")


def _oracle_bound_chain(n: int) -> VerifyReport:
    """|l(x; k)|^2 <= t(x) <= |l(x; k')|^2 for |k| <= 1/2 <= |k'|."""
    lows = (0.1, 0.25, 0.4, 0.5, -0.5)
    highs = (0.5, 0.75, 1.0, 2.0, -2.0)
    patterns = pattern_grid(n)

    def blocks():
        for topology in Topology:
            weak, flips = pair_stats(patterns, topology)
            t = weak + flips
            for ks, beyond in ((lows, np.greater), (highs, np.less)):
                for k in ks:
                    norm = weak + 4.0 * k * k * flips
                    yield beyond(norm, t), lambda r: {"pattern": tuple(patterns[r].tolist()), "k": k}
            norm_half = transition_norm_sq(patterns, 0.5, topology)
            yield norm_half != t, lambda r: {"pattern": tuple(patterns[r].tolist()), "k": 0.5}

    return _sweep(f"bound_chain_n{n}", blocks(), "norm bracket around the count holds at every pattern")


def _oracle_zero_set(n: int) -> VerifyReport:
    """count_nonzero(l(x; k)) = t(x) for every k != 0."""
    patterns = pattern_grid(n)

    def blocks():
        for topology in Topology:
            weak, flips = pair_stats(patterns, topology)
            a, b = topology.neighbors(patterns.astype(float))
            prod = a * b
            for k in (0.1, 0.5, 1.0, 2.0, -0.3):
                values = (a + b + k * prod) * (prod - 1.0)
                nonzeros = np.count_nonzero(values != 0.0, axis=1)
                yield nonzeros != weak + flips, lambda r: {"pattern": tuple(patterns[r].tolist()), "k": k}

    return _sweep(f"zero_set_n{n}", blocks(), "transition support size equals the count for k != 0")


def _oracle_hadamard(n: int) -> VerifyReport:
    """Hadamard product form against the closed-form circular norm."""
    patterns = pattern_grid(n)
    ks = (0.5, 1.0, 0.25)
    # one row per pattern, one column per weight: the scalar sweep's check order
    deltas = np.stack(
        [
            np.abs(
                hadamard_norm_sq(patterns, k)
                - transition_norm_sq(patterns, k, Topology.CIRCULAR).astype(float)
            )
            for k in ks
        ],
        axis=1,
    )

    def counterexample(i):
        r, w = np.unravel_index(i, deltas.shape)
        return {"pattern": tuple(patterns[r].tolist()), "k": ks[w], "delta": float(deltas[r, w])}

    return _sweep(
        f"hadamard_n{n}",
        [(deltas > 1e-12, counterexample)],
        f"max |difference| = {float(deltas.max()):.3e}",
    )


def _oracle_hadamard_random() -> VerifyReport:
    name = "hadamard_random"
    rng = np.random.default_rng(_RANDOM_SEED)
    checks = 0
    worst = 0.0
    for _ in range(_HADAMARD_RANDOM_COUNT):
        n = int(rng.integers(2, 11))
        x = rng.normal(scale=10.0, size=n)
        x[rng.random(n) < 0.3] = 0.0
        k = float(rng.uniform(-2.0, 2.0))
        checks += 1
        delta = abs(hadamard_norm_sq(x, k) - float(transition_norm_sq(x, k, Topology.CIRCULAR)))
        worst = max(worst, delta)
        if delta > 1e-12:
            return _report(name, checks, {"x": x.tolist(), "k": k, "delta": delta}, "")
    return _report(name, checks, None, f"{checks} random vectors, max |difference| = {worst:.3e}")


_SQRT26 = math.sqrt(26.0)
_SQRT41 = math.sqrt(41.0)
_SQRT2 = math.sqrt(2.0)

# 2 * eigenvalue pairs of the upper branch (+1/2) Hessian at each sign point;
# the lower branch at p equals the negated upper branch at -p.
EXPECTED_2EIG_UPPER: dict[tuple[int, int], tuple[float, float]] = {
    (-1, -1): (3.0, -7.0),
    (-1, 0): (-1.0 + _SQRT26, -1.0 - _SQRT26),
    (-1, 1): (2.0 + _SQRT41, 2.0 - _SQRT41),
    (0, -1): (-1.0 + _SQRT26, -1.0 - _SQRT26),
    (0, 0): (1.0, -1.0),
    (0, 1): (3.0 + 3.0 * _SQRT2, 3.0 - 3.0 * _SQRT2),
    (1, -1): (2.0 + _SQRT41, 2.0 - _SQRT41),
    (1, 0): (3.0 + 3.0 * _SQRT2, 3.0 - 3.0 * _SQRT2),
    (1, 1): (17.0, -5.0),
}


def expected_double_eigenvalues(point: tuple[int, int], branch: float) -> tuple[float, float]:
    if branch == 0.5:
        return EXPECTED_2EIG_UPPER[point]
    hi, lo = EXPECTED_2EIG_UPPER[(-point[0], -point[1])]
    return (-lo, -hi)


def _oracle_hessian_table() -> VerifyReport:
    """Eigenvalue table at the nine sign points, both branches.

    Confronts the closed-form symmetric eigensolver with numpy's
    eigvalsh and with the frozen expected values (doubled eigenvalues).
    """
    name = "hessian_table"
    checks = 0
    worst = 0.0
    for point in product((-1, 0, 1), repeat=2):
        for branch in (0.5, -0.5):
            h = transition_hessian_2d(point, branch)
            hi, lo = symmetric2_eigenvalues(h)
            ref = np.linalg.eigvalsh(np.array([[h.a11, h.a12], [h.a12, h.a22]]))
            exp_hi, exp_lo = expected_double_eigenvalues(point, branch)
            deltas = (
                abs(2.0 * hi - exp_hi),
                abs(2.0 * lo - exp_lo),
                abs(hi - float(ref[1])),
                abs(lo - float(ref[0])),
            )
            checks += len(deltas)
            worst = max(worst, *deltas)
            if max(deltas) > 1e-10:
                return _report(
                    name,
                    checks,
                    {"point": point, "branch": branch, "eigenvalues": (hi, lo)},
                    "",
                )
    return _report(name, checks, None, f"9 points x 2 branches match, max delta {worst:.3e}")


def _oracle_qhat_identity(n: int) -> VerifyReport:
    """Zero-direction closed form equals the decoupled gap at d = 0 exactly
    and reduces to 4(ky^2 - kx^2) * flips <= 0 (Fraction arithmetic).

    Each weight pair is one batch call over the pattern grid; failures are
    reported in the order of a per-pattern sweep over the weights."""
    patterns = pattern_grid(n)
    zero = np.zeros_like(patterns)

    def blocks():
        for topology in Topology:
            _, flips = pair_stats(patterns, topology)
            # failed[r, w, c]: check c (direct, reduction, sign) of pattern r at weight pair w
            failed = np.zeros((len(patterns), len(SWEEP_WEIGHTS_EXACT), 3), dtype=bool)
            for w, (ky, kx) in enumerate(SWEEP_WEIGHTS_EXACT):
                params = GapParams(k_y=ky, k_x=kx)
                closed = zero_direction_gap(patterns, params, topology)
                direct = decoupled_gap(patterns, zero, params, topology)
                by_flips = np.empty(n + 1, dtype=object)
                by_flips[:] = [4 * (ky * ky - kx * kx) * f for f in range(n + 1)]
                failed[:, w] = np.stack((closed != direct, closed != by_flips[flips], closed > 0), axis=1)

            def counterexample(i):
                r, w, c = np.unravel_index(i, failed.shape)
                ky, kx = SWEEP_WEIGHTS_EXACT[w]
                kinds = ({"weights": (str(ky), str(kx))}, {"reduction": True}, {"positive": True})
                return {"pattern": tuple(patterns[r].tolist()), **kinds[c]}

            yield failed, counterexample

    return _sweep(f"qhat_identity_n{n}", blocks(), "{checks} exact rational identities hold")


def _oracle_smoothing(n: int) -> VerifyReport:
    """Smoothed count below the count, monotone as eps decreases, tight
    at eps = 1e-9."""
    eps_grid = (1e-1, 1e-3, 1e-6)
    kinds = ({"above": True},) * len(eps_grid) + ({"monotone": False}, {"limit": False})
    patterns = pattern_grid(n)

    def blocks():
        for topology in Topology:
            weak, flips = pair_stats(patterns, topology)
            t = (weak + flips)[:, None]
            values = np.stack([smoothed_sign_changes(patterns, e, topology) for e in eps_grid], axis=1)
            limit = smoothed_sign_changes(patterns, 1e-9, topology)[:, None]
            # failed[r, c]: above the count at each eps, not monotone, not tight at the limit
            failed = np.column_stack(
                (
                    values > t,
                    np.any(values[:, :-1] > values[:, 1:], axis=1),
                    np.abs(limit - t) > 1e-6,
                )
            )

            def counterexample(i):
                r, c = np.unravel_index(i, failed.shape)
                return {"pattern": tuple(patterns[r].tolist()), **kinds[c]}

            yield failed, counterexample

    return _sweep(f"smoothing_n{n}", blocks(), "smoothing is a monotone lower approximation")


def _minorant_sample(seed: int, count: int):
    """count random nonzero vectors as the rows of a (count x 10) float64
    array, with each row's length and scale.

    A vector has a length n uniform on 1..10 and N(0, scale^2) entries for
    a scale drawn from {0.01, 1, 100}, each zeroed with probability 0.25; a
    vector left all zero gets one N(0, 1) entry (1.0 if that draw is 0) at a
    uniform position.  Entries past column n are zero padding, which leaves
    the count and both norms unchanged.
    """
    width = 10
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, width + 1, size=count)
    scales = rng.choice([0.01, 1.0, 100.0], size=count)
    x = rng.normal(size=(count, width)) * scales[:, None]
    x[(rng.random(x.shape) < 0.25) | (np.arange(width) >= lengths[:, None])] = 0.0
    empty = np.flatnonzero(~x.any(axis=1))
    fill = rng.normal(size=empty.size)
    x[empty, rng.integers(lengths[empty])] = np.where(fill == 0.0, 1.0, fill)
    return x, lengths, scales


def _oracle_signminor_random() -> VerifyReport:
    """Minorant gap nonnegative on random nonzero vectors, zero on
    single-support ones."""
    x, lengths, _ = _minorant_sample(_RANDOM_SEED, _SIGNMINOR_RANDOM_COUNT)
    gaps = sign_minorant_gap(x)
    single = np.zeros((3, 4))
    single[:, 1] = (3.0, -0.5, 1e-8)
    blocks = [
        (gaps < -1e-12, lambda i: {"x": x[i, : lengths[i]].tolist(), "gap": float(gaps[i])}),
        (sign_minorant_gap(single) != 0.0, lambda i: {"x": single[i].tolist()}),
    ]
    return _sweep("signminor_random", blocks, f"minimum sampled gap = {gaps.min():.3e}")


def _pair_form(d: tuple[int, ...]) -> int:
    """F(d), the sum over circular pairs of (d_i + d_j)^2 (d_i d_j - 1)^2."""
    return sum((a + b) ** 2 * (a * b - 1) ** 2 for a, b in zip(d, d[1:] + d[:1]))


def _lattice_system(z: tuple[int, ...]) -> tuple[int, list[tuple[int, ...]], list[int]]:
    """t(z) and the finite-direction system <mu, d> = t(z) - F(d) of a sign
    pattern z: its rows d, every nonzero step with z + d on the sign grid in
    lexicographic order, and their right-hand sides."""
    t = sum(_reference_pair_counts(z, Topology.CIRCULAR))
    rows = [d for d in product(*[(-1 - zi, -zi, 1 - zi) for zi in z]) if any(d)]
    return t, rows, [t - _pair_form(d) for d in rows]


def _solve_rational_system(rows: Sequence[Sequence[int]], rhs: Sequence[int]):
    """Decide A x = b over the rationals by Gauss-Jordan elimination.

    Returns ('feasible', witness) with free variables set to zero, or
    ('infeasible', combo, value) where combo is a list of
    (original row index, Fraction coefficient) combining to the
    contradiction 0 = value != 0.
    """
    if not rows or len(rows) != len(rhs):
        raise ValueError("need a nonempty system with one right-hand side per row")
    # each row carries its right-hand side and its combination of the input rows
    work = [
        ([Fraction(v) for v in row], Fraction(b), {idx: Fraction(1)})
        for idx, (row, b) in enumerate(zip(rows, rhs))
    ]
    pivots: dict[int, int] = {}  # column -> its pivot row
    for col in range(len(rows[0])):
        pivot = next((r for r, w in enumerate(work) if w[0][col] and r not in pivots.values()), None)
        if pivot is None:
            continue
        pivots[col] = pivot
        prow, pb, pcombo = work[pivot]
        for r, (row, b, combo) in enumerate(work):
            factor = row[col] / prow[col]
            if r != pivot and factor:
                work[r] = (
                    [v - factor * p for v, p in zip(row, prow)],
                    b - factor * pb,
                    {i: combo.get(i, 0) - factor * pcombo.get(i, 0) for i in combo.keys() | pcombo},
                )
    # every column is eliminated from the rows that hold no pivot, so b != 0 there is 0 = b
    for r, (_, b, combo) in enumerate(work):
        if b and r not in pivots.values():
            return ("infeasible", sorted((i, c) for i, c in combo.items() if c), b)
    witness = [Fraction(0)] * len(rows[0])
    for col, r in pivots.items():
        witness[col] = work[r][1] / work[r][0][col]
    for row, b in zip(rows, rhs):
        assert sum(Fraction(v) * w for v, w in zip(row, witness)) == b
    return ("feasible", witness)


def _oracle_feasibility_n4() -> VerifyReport:
    """The pure-axis decision of finite_direction_feasibility on every n = 4
    candidate, against the lattice rows rebuilt here by enumeration and a
    per-pair loop: each certificate must recombine them to 0 = value != 0.
    A valid certificate proves infeasibility, so exact Gauss-Jordan
    elimination runs once, on the alternating candidate, as a cross-check."""
    name = "feasibility_n4"
    n = 4
    checks = 0
    for z in product((-1, 0, 1), repeat=n):
        t, rows, rhs = _lattice_system(z)
        result = finite_direction_feasibility(z)
        checks += 1
        if result.feasible or (result.t, result.n_directions) != (t, len(rows)):
            return _report(name, checks, {"z": z, "result": repr(result)}, "")
        if z == (1, -1, 1, -1) and _solve_rational_system(rows, rhs)[0] != "infeasible":
            return _report(name, checks, {"z": z, "elimination": "feasible"}, "")
        cert = result.certificate
        checks += 1
        combined = [Fraction(0)] * n
        value = Fraction(0)
        for idx, coeff, direction in zip(cert.equation_indices, cert.coefficients, cert.directions):
            if rows[idx] != direction:
                return _report(name, checks, {"z": z, "equation": idx}, "")
            combined = [c + coeff * v for c, v in zip(combined, direction)]
            value += coeff * rhs[idx]
        if any(combined) or value == 0 or value != cert.value:
            return _report(name, checks, {"z": z, "certificate": repr(cert)}, "")
    return _report(
        name,
        checks,
        None,
        "lemma certificates recombine on all 81 candidates; elimination agrees on (1, -1, 1, -1)",
    )


def _build_registry() -> dict[str, Callable[[], VerifyReport]]:
    registry: dict[str, Callable[[], VerifyReport]] = {}
    for n in range(2, 7):
        registry[f"library_crosscheck_n{n}"] = lambda n=n: _oracle_library_crosscheck(n)
        registry[f"ft_inequality_n{n}"] = lambda n=n: _oracle_ft_inequality(n)
        registry[f"coupled_equality_n{n}"] = lambda n=n: _oracle_coupled_equality(n)
        registry[f"zero_set_n{n}"] = lambda n=n: _oracle_zero_set(n)
        registry[f"qhat_identity_n{n}"] = lambda n=n: _oracle_qhat_identity(n)
        registry[f"smoothing_n{n}"] = lambda n=n: _oracle_smoothing(n)
    for n in range(2, 9):
        registry[f"bound_chain_n{n}"] = lambda n=n: _oracle_bound_chain(n)
        registry[f"hadamard_n{n}"] = lambda n=n: _oracle_hadamard(n)
    registry["feasibility_n4"] = _oracle_feasibility_n4
    registry["hadamard_random"] = _oracle_hadamard_random
    registry["hessian_table"] = _oracle_hessian_table
    registry["signminor_random"] = _oracle_signminor_random
    return registry


_REGISTRY = _build_registry()


def list_oracles() -> list[str]:
    return sorted(_REGISTRY)


def run_oracle(name: str) -> VerifyReport:
    try:
        runner = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown oracle {name!r}; known: {', '.join(list_oracles())}") from None
    return runner()
