"""Named verification oracles: brute force against the library.

Everything here recomputes sign change statistics directly from integer
pattern arrays, independently of the scalar library routines, so the
registered oracles can confront the library with exhaustive desk-scale
evidence over the sign grid of signchange.grid: full pattern-pair
subgradient sweeps, norm bound chains, Hadamard identity checks, the 2-D
Hessian eigenvalue table, the exact zero-direction gap identity and the 4-D
feasibility certificates.  The finite-direction system behind those
certificates is built only here, by lattice enumeration and a per-pair loop,
and its verdict is cross-checked once by exact elimination on the augmented
rows.  Every oracle reports through _sweep: its first failed check in sweep
order (draw order for the two random samples), or its check count.
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

from .counting import _check_rows, _signs, sign_minorant_gap
from .grid import pattern_grid
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

__all__ = ["Label", "LocalClass", "classify_point", "VerifyReport", "run_oracle", "list_oracles"]

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
            return VerifyReport(name, False, checks + first + 1, counterexample(first), "")
        checks += failed.size
    return VerifyReport(name, True, checks, None, details.format(checks=checks))


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
    """Hadamard product form against the closed-form circular norm on random
    vectors of lengths 2..10, each with its own weight k in [-2, 2).

    Each vector is drawn in turn from one generator: its length, its N(0, 10^2)
    entries, the mask that zeroes each with probability 0.3, and its weight;
    it is kept as a row of one zero-padded matrix.  The draws of one length
    are then checked together, in one call per routine with one weight per
    row, and reported in draw order.
    """
    count, width = _HADAMARD_RANDOM_COUNT, 10
    rng = np.random.default_rng(_RANDOM_SEED)
    draws = np.zeros((count, width))
    lengths = np.empty(count, dtype=np.intp)
    ks = np.empty(count)
    for i in range(count):
        n = lengths[i] = int(rng.integers(2, width + 1))
        x = rng.normal(scale=10.0, size=n)
        x[rng.random(n) < 0.3] = 0.0
        draws[i, :n] = x
        ks[i] = rng.uniform(-2.0, 2.0)
    deltas = np.empty(count)
    for n in np.unique(lengths):
        index = np.flatnonzero(lengths == n)
        x, k = draws[index, :n], ks[index].tolist()
        direct = transition_norm_sq(x, k, Topology.CIRCULAR).astype(float)
        deltas[index] = np.abs(hadamard_norm_sq(x, k) - direct)

    def counterexample(i):
        return {"x": draws[i, : lengths[i]].tolist(), "k": float(ks[i]), "delta": float(deltas[i])}

    return _sweep(
        "hadamard_random",
        [(deltas > 1e-12, counterexample)],
        f"{count} random vectors, max |difference| = {float(deltas.max()):.3e}",
    )


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
    cases = [(point, branch) for point in product((-1, 0, 1), repeat=2) for branch in (0.5, -0.5)]
    deltas = []
    for point, branch in cases:
        h = transition_hessian_2d(point, branch)
        hi, lo = symmetric2_eigenvalues(h)
        ref = np.linalg.eigvalsh(np.array([[h.a11, h.a12], [h.a12, h.a22]]))
        exp_hi, exp_lo = expected_double_eigenvalues(point, branch)
        deltas.append((2.0 * hi - exp_hi, 2.0 * lo - exp_lo, hi - ref[1], lo - ref[0]))
    deltas = np.abs(deltas)

    def counterexample(i):
        point, branch = cases[i // 4]
        eigenvalues = symmetric2_eigenvalues(transition_hessian_2d(point, branch))
        return {"point": point, "branch": branch, "eigenvalues": eigenvalues}

    return _sweep(
        "hessian_table",
        [(deltas > 1e-10, counterexample)],
        f"9 points x 2 branches match, max delta {float(deltas.max()):.3e}",
    )


def _oracle_qhat_identity(n: int) -> VerifyReport:
    """Zero-direction closed form equals the decoupled gap at d = 0 exactly
    and reduces to 4(ky^2 - kx^2) * flips <= 0 (Fraction arithmetic).

    Each topology is one batch call per gap over the grid at all weight pairs;
    failures are reported in the order of a per-pattern sweep over the weights.
    The checks of a row read only its returned objects and its flips, so they
    are decided once per class of rows sharing all of them and weight pair."""
    patterns = pattern_grid(n)
    zero = np.zeros_like(patterns)
    params = [GapParams(k_y=ky, k_x=kx) for ky, kx in SWEEP_WEIGHTS_EXACT]
    steps = np.array([4 * (ky * ky - kx * kx) for ky, kx in SWEEP_WEIGHTS_EXACT], dtype=object)

    def blocks():
        for topology in Topology:
            _, flips = pair_stats(patterns, topology)
            closed = zero_direction_gap(patterns, params, topology)
            direct = decoupled_gap(patterns, zero, params, topology)
            # each list keeps its entries alive while their ids are read, so equal ids mean one object
            ids = [np.fromiter(map(id, v.tolist()), dtype=np.uintp) for v in (*closed.T, *direct.T)]
            rep, classes = _classes(*ids, flips)
            closed, direct = closed[rep], direct[rep]
            reduced = steps * flips[rep].astype(object)[:, None]
            # failed[r, w, c]: check c (direct, reduction, sign) of pattern r at weight pair w
            failed = np.stack((closed != direct, closed != reduced, closed > 0), axis=-1)[classes]

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


def _solvable(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> bool:
    """Whether A x = b has a rational solution, by exact Gaussian elimination
    over Fraction on the augmented rows [A | b]: each nonzero row in turn is a
    pivot eliminating its leading column from the rest, and a pivot whose
    leading entry lies in the b column reads 0 = b != 0."""
    if not rows or len(rows) != len(rhs) or len({len(row) for row in rows}) != 1:
        raise ValueError("need a nonempty system of equal-length rows, one right-hand side per row")
    pending = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    while pending:
        pivot = pending.pop()
        col = next((c for c, v in enumerate(pivot) if v), None)
        if col is None:
            continue
        if col == len(pivot) - 1:
            return False
        for row in pending:
            if row[col]:
                factor = row[col] / pivot[col]
                row[:] = [v - factor * p for v, p in zip(row, pivot)]
    return True


def _certificate_fault(cert, rows: list[tuple[int, ...]], rhs: list[int]) -> dict | None:
    """None where cert recombines the rows to 0 = value != 0, else where it fails."""
    combined = [Fraction(0)] * len(rows[0])
    value = Fraction(0)
    for idx, coeff, direction in zip(cert.equation_indices, cert.coefficients, cert.directions):
        if rows[idx] != direction:
            return {"equation": idx}
        combined = [c + coeff * v for c, v in zip(combined, direction)]
        value += coeff * rhs[idx]
    if any(combined) or value == 0 or value != cert.value:
        return {"certificate": repr(cert)}
    return None


def _oracle_feasibility_n4() -> VerifyReport:
    """The pure-axis decision of finite_direction_feasibility on every n = 4
    candidate, against the lattice rows rebuilt here by enumeration and a
    per-pair loop: each certificate must recombine them to 0 = value != 0.
    A valid certificate proves infeasibility, so an exact elimination on the
    augmented rows runs once, on the alternating candidate, as a verdict-only
    cross-check.
    Each candidate has two checks: its result, then its certificate."""
    candidates = list(product((-1, 0, 1), repeat=4))
    faults = []
    for z in candidates:
        t, rows, rhs = _lattice_system(z)
        result = finite_direction_feasibility(z)
        if result.feasible or (result.t, result.n_directions) != (t, len(rows)):
            faults.append(({"result": repr(result)}, None))
        elif z == (1, -1, 1, -1) and _solvable(rows, rhs):
            faults.append(({"elimination": "feasible"}, None))
        else:
            faults.append((None, _certificate_fault(result.certificate, rows, rhs)))
    failed = np.array([[fault is not None for fault in pair] for pair in faults])
    return _sweep(
        "feasibility_n4",
        [(failed, lambda i: {"z": candidates[i // 2], **faults[i // 2][i % 2]})],
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
    runner = _REGISTRY.get(name) if isinstance(name, str) else None
    if runner is None:
        raise KeyError(f"unknown oracle {name!r}; known: {', '.join(list_oracles())}")
    return runner()
