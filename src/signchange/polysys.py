"""Polynomial optimality system in spherical coordinates, exact feasibility.

For a 4-D sign pattern candidate z the stationarity ansatz for the count's
transition surrogate becomes one polynomial equation in spherical variables
(rho, c1, c2, c3, s1, s2, s3) plus the three Pythagorean identities.  The
direction components are d1 = rho c1, d2 = rho c2 s1, d3 = rho c3 s1 s2,
d4 = rho s1 s2 s3, and each circular adjacency contributes a term
(d_i + d_j)^2 (d_i d_j - 1)^2.  Only the constant -t(z) depends on z: the
multiplier and pair terms are the same for all 81 candidates.

Restricting the direction to the integer lattice steps that keep z + d on
the sign grid turns the ansatz into a linear system for the multipliers.
The pure-axis lemma decides it in O(n) exact rational operations, without
building the system; infeasibility comes with a machine-checkable
certificate (a rational combination of two equations that reduces to
0 = nonzero).  The lattice enumeration and the verdict-only elimination on
its augmented rows that cross-check it live in the feasibility_n4 oracle.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, product
from typing import Sequence

import numpy as np

from .counting import _integer_vector, _integral, _real, as_vector
from .transitions import Topology, sign_changes

__all__ = [
    "SPHERICAL_VARIABLES",
    "ADMISSIBLE_RHO_SQUARED",
    "PolySystem",
    "build_4d_system",
    "export_system",
    "parse_system",
    "spherical_to_cartesian",
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

# the spherical factors of each direction component, d_i = rho * prod(factors),
# in the order spherical_to_cartesian multiplies them
DIRECTION = (("c1",), ("c2", "s1"), ("c3", "s1", "s2"), ("s3", "s1", "s2"))

# (d_i + d_j)^2 (d_i d_j - 1)^2 = (d_i^2 + 2 d_i d_j + d_j^2)(d_i^2 d_j^2 - 2 d_i d_j + 1)
# as {(a, b): c} over its terms c d_i^a d_j^b
PAIR_TERMS = {
    (4, 2): 1, (3, 3): 2, (2, 4): 1,
    (3, 1): -2, (2, 2): -4, (1, 3): -2,
    (2, 0): 1, (1, 1): 2, (0, 2): 1,
}

# term = (integer coefficient, {variable: positive exponent})
Term = tuple[int, dict[str, int]]

# json.dumps(..., sort_keys=True) without its circular-reference bookkeeping
_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)


@dataclass(frozen=True)
class PolySystem:
    """Integer-coefficient polynomial equations, each read as '= 0'."""

    variables: tuple[str, ...]
    equations: tuple[tuple[Term, ...], ...]
    metadata: dict


@cache
def _template(symbolic: bool) -> tuple[tuple[str, ...], tuple[int, ...], tuple]:
    """The part of build_4d_system's output shared by all 81 candidates: the
    variables, the fixed coefficients (1 and -1 for the identities, then the
    summed pair and symbolic multiplier terms) and the four equations as
    (index, powers) terms in graded order.  An index past the fixed
    coefficients picks a value of the call: mu_1..mu_4 if substituted, then -t.
    """
    variables = SPHERICAL_VARIABLES + (MULTIPLIER_VARIABLES if symbolic else ())

    def exponents(*names: str) -> tuple[int, ...]:
        return tuple(map(names.count, variables))

    def graded(poly: dict) -> tuple:
        """(value, powers) per monomial, graded-lexicographically, highest first, constants last."""
        order = sorted(poly, key=lambda mono: (-sum(mono), tuple(-e for e in mono)))
        return tuple((poly[m], {variables[i]: e for i, e in enumerate(m) if e}) for m in order)

    d = [exponents("rho", *factors) for factors in DIRECTION]
    main: Counter = Counter()
    for di, dj in zip(d, d[1:] + d[:1]):
        for (a, b), coeff in PAIR_TERMS.items():
            main[tuple(a * p + b * q for p, q in zip(di, dj))] += coeff
    if symbolic:
        main.update(exponents(m, "rho", *f) for m, f in zip(MULTIPLIER_VARIABLES, DIRECTION))
    fixed = [mono for mono, c in main.items() if c]
    coeffs = (1, -1, *(main[mono] for mono in fixed))
    # the call's values follow coeffs; no pair term has degree below 2 in d, so none is fixed
    index = {mono: k for k, mono in enumerate(fixed + ([] if symbolic else d) + [exponents()], 2)}
    identities = (
        {exponents(f"c{i}", f"c{i}"): 0, exponents(f"s{i}", f"s{i}"): 0, exponents(): 1}
        for i in (1, 2, 3)
    )
    return variables, coeffs, tuple(map(graded, (index, *identities)))


def build_4d_system(z: Sequence[int], mu: Sequence[int] | None = None) -> PolySystem:
    """Stationarity equation plus Pythagorean identities for candidate z.

    With mu = None the four multipliers stay symbolic as extra variables;
    otherwise the given values are substituted.  Coefficients are kept
    integral, so only integer multipliers are accepted here.  Only the
    constant -t(z) depends on z, so every call fills the multipliers and -t
    into one template per multiplier mode; a zero coefficient drops its term.
    """
    pattern = _integer_vector(z, 4, signs=True)
    if mu is not None:
        mu = _integer_vector(mu, 4)
    t = sign_changes(pattern, Topology.CIRCULAR)
    variables, coeffs, equations = _template(mu is None)
    values = (*coeffs, *(mu or ()), -t)
    return PolySystem(
        variables=variables,
        equations=tuple(
            tuple((values[k], dict(powers)) for k, powers in eq if values[k]) for eq in equations
        ),
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
            pieces.append(body if coeff >= 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff >= 0 else f"- {body}")
    return " ".join(pieces) + " = 0"


def _payload(system: PolySystem) -> dict:
    """The JSON view of a system: its variables, the equations as
    [coefficient, powers] pairs and the metadata."""
    return {
        "variables": list(system.variables),
        "equations": [[[coeff, powers] for coeff, powers in eq] for eq in system.equations],
        "metadata": system.metadata,
    }


def export_system(system: PolySystem, fmt: str = "json") -> str:
    """The system as text: 'json' or 'plain'.

    The JSON text is json.dumps(_payload(system), sort_keys=True) plus a newline,
    from one reused json C encoder; parse_system reads it back, and the CLI's
    indented print of the same payload.  The plain text is a header from the
    metadata's candidate, t and admissible_rho_squared, then one 'lhs = 0' line
    per equation, where a zero coefficient prints with a plus sign; metadata
    without one of them, an equation or term parse_system refuses, a value
    JSON cannot encode or a system that holds itself raises ValueError.
    """
    if fmt == "json":
        try:
            return _ENCODER.encode(_payload(system)) + "\n"
        except (TypeError, RecursionError) as error:
            raise ValueError(f"the system holds a value JSON cannot encode: {error}") from None
    if fmt == "plain":
        meta = system.metadata
        for key in ("candidate", "t", "admissible_rho_squared"):
            if not isinstance(meta, dict) or key not in meta:
                raise ValueError(f"plain export needs the metadata key {key!r}")
        try:
            equations = _read_equations(system.equations, frozenset(system.variables))
        except (TypeError, AttributeError):
            raise ValueError("plain export needs equations of (coefficient, powers) terms") from None
        lines = [
            f"# candidate z = {tuple(meta['candidate'])}",
            f"# sign changes t(z) = {meta['t']}",
            f"# admissible rho^2 values: {meta['admissible_rho_squared']}",
        ]
        for eq in equations:
            lines.append(_format_equation(eq, system.variables))
        return "\n".join(lines) + "\n"
    raise ValueError("format must be 'json' or 'plain'")


_NOT_EXPORTED = "expected an exported polynomial system"


def _read_int(value) -> int:
    """One coefficient or exponent of a parsed system, by the integer rule;
    a JSON true or false is no number."""
    if isinstance(value, bool) or not _integral(value):
        raise ValueError(f"coefficients and exponents must be integers, got {value!r}")
    return int(value)


def _read_powers(powers: dict, names: frozenset) -> dict[str, int]:
    """One term's exponents, integers >= 0 on listed variables."""
    read = {k: _read_int(e) for k, e in powers.items()}
    if not read.keys() <= names or min(read.values(), default=0) < 0:
        raise ValueError(f"exponents must be nonnegative, on listed variables: {powers!r}")
    return read


def _read_equations(rows, names: frozenset) -> tuple[tuple[Term, ...], ...]:
    """The rows' (coefficient, powers) terms by the integer rule: kept as they are when one
    whole-system check, each pass in C, finds them all so, else read term by term."""
    terms = [*chain.from_iterable(rows)]
    coeffs, powers = zip(*terms, strict=True) if terms else ((), ())
    if {*map(type, powers)} <= {dict}:
        exponents = [*chain.from_iterable(map(dict.values, powers))]
        if ({*map(type, coeffs), *map(type, exponents)} <= {int} and min(exponents, default=0) >= 0
                and names.issuperset(set().union(*powers))):
            return tuple(tuple(map(tuple, eq)) for eq in rows)
    return tuple(tuple((_read_int(c), _read_powers(p, names)) for c, p in eq) for eq in rows)


def parse_system(text: str) -> PolySystem:
    """Inverse of export_system(..., 'json').

    The variables must be a list of distinct strings, each term a
    [coefficient, powers] pair and the metadata a JSON object.  Coefficients
    and exponents are read by the integer rule, so 1.5 is refused rather than
    truncated; an exponent must be nonnegative and on a listed variable, and
    any other layout, or text nested too deep for json, raises ValueError.
    A whole-system check passes exported terms through; others go term by term.
    """
    try:
        payload = json.loads(text)
        variables = payload["variables"]
        if type(variables) is not list or not all(type(name) is str for name in variables):
            raise ValueError(f"variables must be a list of names, got {variables!r}")
        names = frozenset(variables)
        if len(names) != len(variables):
            raise ValueError(f"variable names must be distinct, got {variables!r}")
        rows, metadata = payload["equations"], payload["metadata"]
        # every term a [coefficient, powers] pair, and the metadata a JSON object
        if type(metadata) is not dict or any({*map(type, eq), *map(len, eq)} - {list, 2} for eq in rows):
            raise ValueError(_NOT_EXPORTED)
        return PolySystem(tuple(variables), _read_equations(rows, names), metadata)
    except (KeyError, TypeError, AttributeError, RecursionError):
        raise ValueError(_NOT_EXPORTED) from None


def spherical_to_cartesian(rho: float, phis: Sequence[float]) -> np.ndarray:
    """(rho c1, rho c2 s1, rho c3 s1 s2, rho s3 s1 s2) with ci = cos(phi_i),
    si = sin(phi_i): rho times the DIRECTION factors, multiplied in that order."""
    rho, phis = _real(rho, "radius"), as_vector(phis)
    if rho < 0 or phis.size != 3:
        raise ValueError("need a nonnegative radius and exactly three angles")
    trig = dict(zip(SPHERICAL_VARIABLES[1:], np.concatenate([np.cos(phis), np.sin(phis)])))
    return np.array([math.prod((trig[f] for f in factors), start=rho) for factors in DIRECTION])


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
    order, with equation indices in the lexicographic order of the
    directions.  The registered oracle feasibility_n4 enumerates the
    directions itself, recombines every certificate on them, and
    cross-checks one representative candidate's verdict by exact
    elimination on the augmented rows [A | b].
    """
    pattern = _integer_vector(z, 4, signs=True)
    n = len(pattern)
    t = sign_changes(pattern, Topology.CIRCULAR)
    # mixed-radix position of z + d in the sign grid; the zero step sits at `origin`
    origin = sum((zi + 1) * 3 ** (n - 1 - k) for k, zi in enumerate(pattern))
    for axis, zi in enumerate(pattern):
        # the two nonzero steps a < b with z_i + step on the sign grid
        a, b = (step for step in (-1 - zi, -zi, 1 - zi) if step)
        f_a, f_b = (Fraction(t - 2 * step * step, step) for step in (a, b))
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
    """JSON-ready view with rationals rendered as strings; a certificate
    without an axis or forced values gives null for each."""
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
        "axis": cert.axis,
        "forced_values": None if cert.forced_values is None else [str(v) for v in cert.forced_values],
    }
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
