"""Polynomial optimality system in spherical coordinates, exact feasibility.

For a 4-D sign pattern candidate z the stationarity ansatz for the count's
transition surrogate becomes one polynomial equation in spherical variables
(rho, c1, c2, c3, s1, s2, s3) plus the three Pythagorean identities.  The
direction components are d1 = rho c1, d2 = rho c2 s1, d3 = rho c3 s1 s2,
d4 = rho s1 s2 s3, and each circular adjacency contributes a term
(d_i + d_j)^2 (d_i d_j - 1)^2.

Restricting the direction to the integer lattice steps that keep z + d on
the sign grid turns the ansatz into a linear system for the multipliers.
The pure-axis lemma decides it in O(n) exact rational operations;
infeasibility comes with a machine-checkable certificate (a rational
combination of two equations that reduces to 0 = nonzero).  The general
Gauss-Jordan elimination stays as the independent cross-check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

import numpy as np

from .counting import _finite, _real, _sign_pattern, as_vector
from .transitions import Topology, sign_changes

__all__ = [
    "SPHERICAL_VARIABLES",
    "ADMISSIBLE_RHO_SQUARED",
    "PolySystem",
    "build_4d_system",
    "export_system",
    "parse_system",
    "evaluate_system",
    "spherical_to_cartesian",
    "lattice_directions",
    "pair_form_value",
    "solve_rational_system",
    "Certificate",
    "FeasibilityResult",
    "finite_direction_feasibility",
    "feasibility_report",
    "grid_feasibility_summary",
]

SPHERICAL_VARIABLES = ("rho", "c1", "c2", "c3", "s1", "s2", "s3")
MULTIPLIER_VARIABLES = ("mu1", "mu2", "mu3", "mu4")

# squared lengths of nonzero lattice steps with components in {-2,...,2}:
# 4a + b with a twos and b ones, a + b <= 4
ADMISSIBLE_RHO_SQUARED = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16)

# term = (integer coefficient, {variable: positive exponent})
Term = tuple[int, dict[str, int]]


@dataclass(frozen=True)
class PolySystem:
    """Integer-coefficient polynomial equations, each read as '= 0'."""

    variables: tuple[str, ...]
    equations: tuple[tuple[Term, ...], ...]
    metadata: dict


def _mono_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            m = _mono_mul(ma, mb)
            c = out.get(m, 0) + ca * cb
            if c:
                out[m] = c
            elif m in out:
                del out[m]
    return out


def _poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        elif m in out:
            del out[m]
    return out


def _poly_scale(p: dict, factor: int) -> dict:
    return {m: c * factor for m, c in p.items()} if factor else {}


def _normalize(poly: dict, variables: tuple[str, ...]) -> tuple[Term, ...]:
    """Sort terms graded-lexicographically, highest first, constants last."""

    def key(mono: tuple[int, ...]):
        return (-sum(mono), tuple(-e for e in mono))

    terms = []
    for mono in sorted(poly, key=key):
        powers = {variables[i]: e for i, e in enumerate(mono) if e}
        terms.append((int(poly[mono]), powers))
    return tuple(terms)


def build_4d_system(z: Sequence[int], mu: Sequence[int] | None = None) -> PolySystem:
    """Stationarity equation plus Pythagorean identities for candidate z.

    With mu = None the four multipliers stay symbolic as extra variables;
    otherwise the given values are substituted.  Coefficients are kept
    integral, so only integer multipliers are accepted here.
    """
    pattern = _sign_pattern(z, 4)
    if mu is not None:
        if len(mu) != 4 or not all(_finite(v) and v == int(v) for v in mu):
            raise ValueError("multiplier substitution requires four integers")
        mu = [int(v) for v in mu]
        variables = SPHERICAL_VARIABLES
    else:
        variables = SPHERICAL_VARIABLES + MULTIPLIER_VARIABLES
    nvars = len(variables)
    vidx = {name: i for i, name in enumerate(variables)}

    def mono(**powers) -> dict:
        m = [0] * nvars
        for name, e in powers.items():
            m[vidx[name]] += e
        return {tuple(m): 1}

    one = {(0,) * nvars: 1}
    d = [
        mono(rho=1, c1=1),
        mono(rho=1, c2=1, s1=1),
        mono(rho=1, c3=1, s1=1, s2=1),
        mono(rho=1, s1=1, s2=1, s3=1),
    ]
    main: dict = {}
    for i in range(4):
        if mu is None:
            term = _poly_mul(mono(**{MULTIPLIER_VARIABLES[i]: 1}), d[i])
        else:
            term = _poly_scale(d[i], mu[i])
        main = _poly_add(main, term)
    for di, dj in zip(d, d[1:] + d[:1]):
        s = _poly_add(di, dj)
        p = _poly_add(_poly_mul(di, dj), _poly_scale(one, -1))
        main = _poly_add(main, _poly_mul(_poly_mul(s, s), _poly_mul(p, p)))
    t = sign_changes(pattern, Topology.CIRCULAR)
    main = _poly_add(main, _poly_scale(one, -t))

    equations = [_normalize(main, variables)]
    for i in (1, 2, 3):
        pyth = _poly_add(
            _poly_add(mono(**{f"c{i}": 2}), mono(**{f"s{i}": 2})),
            _poly_scale(one, -1),
        )
        equations.append(_normalize(pyth, variables))

    return PolySystem(
        variables=variables,
        equations=tuple(equations),
        metadata={
            "candidate": list(pattern),
            "t": t,
            "admissible_rho_squared": list(ADMISSIBLE_RHO_SQUARED),
            "multipliers": "symbolic" if mu is None else list(mu),
        },
    )


def _format_term(coeff: int, powers: dict[str, int], variables: tuple[str, ...]) -> str:
    factors = []
    for name in variables:
        e = powers.get(name, 0)
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    magnitude = abs(coeff)
    if not factors:
        return str(magnitude)
    if magnitude != 1:
        factors.insert(0, str(magnitude))
    return "*".join(factors)


def _format_equation(terms: tuple[Term, ...], variables: tuple[str, ...]) -> str:
    if not terms:
        return "0 = 0"
    pieces = []
    for idx, (coeff, powers) in enumerate(terms):
        body = _format_term(coeff, powers, variables)
        if idx == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces) + " = 0"


def export_system(system: PolySystem, fmt: str = "json") -> str:
    if fmt == "json":
        payload = {
            "variables": list(system.variables),
            "equations": [
                [[coeff, powers] for coeff, powers in eq] for eq in system.equations
            ],
            "metadata": system.metadata,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "plain":
        lines = [
            f"# candidate z = {tuple(system.metadata['candidate'])}",
            f"# sign changes t(z) = {system.metadata['t']}",
            f"# admissible rho^2 values: {system.metadata['admissible_rho_squared']}",
        ]
        for eq in system.equations:
            lines.append(_format_equation(eq, system.variables))
        return "\n".join(lines) + "\n"
    raise ValueError("format must be 'json' or 'plain'")


def parse_system(text: str) -> PolySystem:
    """Inverse of export_system(..., 'json')."""
    payload = json.loads(text)
    equations = tuple(
        tuple((int(coeff), {str(k): int(v) for k, v in powers.items()}) for coeff, powers in eq)
        for eq in payload["equations"]
    )
    return PolySystem(
        variables=tuple(payload["variables"]),
        equations=equations,
        metadata=payload["metadata"],
    )


def evaluate_system(system: PolySystem, assignment: dict[str, float]) -> list:
    """Evaluate every equation's left side at the assignment."""
    missing = [v for v in system.variables if v not in assignment]
    if missing:
        raise ValueError(f"assignment missing variables: {missing}")
    values = []
    for eq in system.equations:
        total = 0
        for coeff, powers in eq:
            term = coeff
            for name, e in powers.items():
                term = term * assignment[name] ** e
            total = total + term
        values.append(total)
    return values


def spherical_to_cartesian(rho: float, phis: Sequence[float]) -> np.ndarray:
    """(rho c1, rho c2 s1, rho c3 s1 s2, rho s1 s2 s3) with ci = cos(phi_i)."""
    rho, phis = _real(rho, "radius"), as_vector(phis)
    if rho < 0 or phis.size != 3:
        raise ValueError("need a nonnegative radius and exactly three angles")
    c, s = np.cos(phis), np.sin(phis)
    return np.array(
        [
            rho * c[0],
            rho * c[1] * s[0],
            rho * c[2] * s[0] * s[1],
            rho * s[2] * s[0] * s[1],
        ]
    )


def lattice_directions(z: Sequence[int]) -> list[tuple[int, ...]]:
    """Nonzero integer steps d with z + d still on the sign grid, in
    lexicographic order (3^n - 1 of them)."""
    pattern = _sign_pattern(z)
    options = [tuple(v - zi for v in (-1, 0, 1)) for zi in pattern]
    return [d for d in product(*options) if any(d)]


def _pair_forms(steps: np.ndarray):
    """F of one integer step, or of every row of a 2-D array of steps."""
    a, b = Topology.CIRCULAR.neighbors(steps)
    return np.sum((a + b) ** 2 * (a * b - 1) ** 2, axis=-1)


def pair_form_value(d: Sequence[int]) -> int:
    """F(d) = sum over circular pairs of (d_i + d_j)^2 (d_i d_j - 1)^2.

    Summed over Python ints (an object array), so any integer step is exact.
    """
    return int(_pair_forms(np.array([int(v) for v in d], dtype=object)))


def solve_rational_system(
    rows: Sequence[Sequence[int]],
    rhs: Sequence[int],
):
    """Decide A x = b over the rationals by Gauss-Jordan elimination.

    Returns ('feasible', witness) with free variables set to zero, or
    ('infeasible', combo, value) where combo is a list of
    (original row index, Fraction coefficient) combining to the
    contradiction 0 = value != 0.
    """
    if len(rows) != len(rhs):
        raise ValueError("row/right-hand-side length mismatch")
    if not rows:
        raise ValueError("empty system")
    ncols = len(rows[0])
    work = [
        ([Fraction(v) for v in row], Fraction(b), {idx: Fraction(1)})
        for idx, (row, b) in enumerate(zip(rows, rhs))
    ]
    pivot_of_col: dict[int, int] = {}
    pivot_rows: set[int] = set()
    for col in range(ncols):
        pivot = next(
            (r for r in range(len(work)) if r not in pivot_rows and work[r][0][col] != 0),
            None,
        )
        if pivot is None:
            continue
        pivot_of_col[col] = pivot
        pivot_rows.add(pivot)
        prow, pb, pcombo = work[pivot]
        for r in range(len(work)):
            if r == pivot:
                continue
            row, b, combo = work[r]
            factor = row[col] / prow[col]
            if factor == 0:
                continue
            for c in range(ncols):
                row[c] -= factor * prow[c]
            b -= factor * pb
            for idx, coeff in pcombo.items():
                combo[idx] = combo.get(idx, Fraction(0)) - factor * coeff
            work[r] = (row, b, combo)
    for r, (row, b, combo) in enumerate(work):
        if r in pivot_rows:
            continue
        if all(v == 0 for v in row) and b != 0:
            cleaned = sorted((idx, coeff) for idx, coeff in combo.items() if coeff != 0)
            return ("infeasible", cleaned, b)
    witness = [Fraction(0)] * ncols
    for col, pivot in pivot_of_col.items():
        prow, pb, _ = work[pivot]
        witness[col] = pb / prow[col]
    for row, b in zip(rows, rhs):
        assert sum(Fraction(v) * w for v, w in zip(row, witness)) == b
    return ("feasible", witness)


@dataclass(frozen=True)
class Certificate:
    """Rational combination of equations reducing to 0 = value != 0."""

    kind: str
    equation_indices: tuple[int, ...]
    coefficients: tuple[Fraction, ...]
    value: Fraction
    directions: tuple[tuple[int, ...], ...]
    axis: int | None = None
    forced_values: tuple[Fraction, Fraction] | None = None


@dataclass(frozen=True)
class FeasibilityResult:
    candidate: tuple[int, ...]
    t: int
    n_directions: int
    feasible: bool
    certificate: Certificate


def finite_direction_feasibility(z: Sequence[int]) -> FeasibilityResult:
    """Decide whether multipliers mu solve t(z) = <mu, d> + F(d) for every
    admissible lattice direction d of z.

    Decided by the pure-axis lemma, without enumerating the 3^n - 1
    directions: the two pure steps a*e_i, b*e_i on axis i force
    mu_i = (t - F(a e_i)) / a and mu_i = (t - F(b e_i)) / b, and since
    F(a e_i) = 2 a^2 on the circle, the pair (4 - t/2, 2 - t) for z_i = 1
    (its negation for z_i = -1) never agrees, while the all-zero candidate
    conflicts on axis 0 (mu_0 = 2 against -2).  So every candidate is
    infeasible; the certificate names the first conflicting axis in index
    order, with equation indices in lattice_directions' lexicographic order.
    The registered oracle feasibility_n4 recombines every certificate on
    independently enumerated directions and cross-checks one representative
    candidate against exact Gauss-Jordan elimination (solve_rational_system).
    """
    pattern = _sign_pattern(z, 4)
    n = len(pattern)
    t = sign_changes(pattern, Topology.CIRCULAR)
    # the two nonzero steps a < b per axis, axis by axis
    steps = [a for zi in pattern for a in (-1 - zi, -zi, 1 - zi) if a]
    pure = np.zeros((2 * n, n), dtype=np.int64)
    pure[np.arange(2 * n), np.arange(2 * n) // 2] = steps
    rhs = (t - _pair_forms(pure)).tolist()
    # mixed-radix position of z + d in the sign grid; the zero step sits at `origin`
    origin = sum((zi + 1) * 3 ** (n - 1 - k) for k, zi in enumerate(pattern))
    for axis in range(n):
        a, b = steps[2 * axis : 2 * axis + 2]
        f_a = Fraction(rhs[2 * axis], a)
        f_b = Fraction(rhs[2 * axis + 1], b)
        if f_a == f_b:
            continue
        d_a, d_b = (tuple(step if k == axis else 0 for k in range(n)) for step in (a, b))
        return FeasibilityResult(
            candidate=pattern,
            t=t,
            n_directions=3**n - 1,
            feasible=False,
            certificate=Certificate(
                kind="axis_conflict",
                equation_indices=tuple(
                    origin + step * 3 ** (n - 1 - axis) - (step > 0) for step in (a, b)
                ),
                coefficients=(Fraction(1, a), Fraction(-1, b)),
                value=f_a - f_b,
                directions=(d_a, d_b),
                axis=axis,
                forced_values=(f_a, f_b),
            ),
        )
    raise AssertionError(f"pure-axis lemma found no conflicting axis for {pattern}")


def feasibility_report(result: FeasibilityResult) -> dict:
    """JSON-ready view with rationals rendered as strings."""
    report = {
        "z": list(result.candidate),
        "t": result.t,
        "n_directions": result.n_directions,
        "feasible": result.feasible,
        "admissible_rho_squared": list(ADMISSIBLE_RHO_SQUARED),
    }
    cert = result.certificate
    payload = {
        "kind": cert.kind,
        "equations": list(cert.equation_indices),
        "directions": [list(d) for d in cert.directions],
        "coefficients": [str(c) for c in cert.coefficients],
        "combination_value": str(cert.value),
    }
    if cert.axis is not None:
        payload["axis"] = cert.axis
        payload["forced_values"] = [str(v) for v in cert.forced_values]
    report["certificate"] = payload
    return report


def grid_feasibility_summary() -> dict:
    """Run the finite-direction check over the whole 4-D sign grid."""
    results = [finite_direction_feasibility(z) for z in product((-1, 0, 1), repeat=4)]
    feasible = [list(r.candidate) for r in results if r.feasible]
    return {
        "grid_size": 3**4,
        "infeasible": len(results) - len(feasible),
        "feasible": len(feasible),
        "feasible_candidates": feasible,
    }
