"""Global optimality condition checks on worked examples.

One dimensional: minimize x^2 cos(2x) over [-2pi, 2pi] with a candidate
c1, multiplier lambda1(x) = |x - c1| exp|x - c1| on the left bound and a
zero multiplier on the right bound.  The three dependent inequalities
below (the first is the sum of the other two) are evaluated on a grid
and their minima reported; the checker takes no position on whether they
certify anything, it just measures.

Spherical: on the sign grid, substituting a Lagrange ansatz for the
count's smooth transition surrogate yields closed forms for the last
multiplier in dimensions 2 and 3 once the direction runs over the unit
sphere; plugging the closed form back must annihilate the residual.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .counting import _check_rows, _float_array, _integer_vector, _real, _within_float64, as_vector
from .transitions import Topology, _transition_values, sign_changes

__all__ = [
    "OneDProblem",
    "objective_1d",
    "inequality_values_1d",
    "ConditionReport",
    "check_1d_condition",
    "global_min_1d",
    "curves_csv_1d",
    "lagrangian_residual",
    "multiplier_2d",
    "multiplier_3d",
    "surface_csv",
]

TWO_PI = 2.0 * math.pi


def objective_1d(x):
    """x^2 cos(2x), elementwise; ValueError where it leaves float64 (|x| above about 1.3e154)."""
    arr = _float_array(x)
    with np.errstate(over="ignore", invalid="ignore"):
        value = arr * arr * np.cos(2.0 * arr)
    return _within_float64(value, "objective_1d at this x")


@dataclass(frozen=True)
class OneDProblem:
    """Candidate and penalty weight for the interval problem on [-2pi, 2pi].

    The default c1 = -4.8 is the reference's rounded candidate, not the
    minimiser of x^2 cos(2x) on the interval (about -4.8148).
    """

    c1: float = -4.8
    sigma: float = 1.0

    def __post_init__(self) -> None:
        for name in ("c1", "sigma"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if self.sigma < 0.0:
            raise ValueError("penalty weight must be nonnegative")

    @property
    def K(self) -> float:
        """Offset -f(c1) that zeroes the objective at the candidate."""
        return -float(objective_1d(self.c1))

    def multiplier(self, x):
        """lambda1(x) = |x - c1| exp|x - c1| (left bound multiplier); ValueError
        where it leaves float64, as once |x - c1| exceeds about 703."""
        with np.errstate(over="ignore", invalid="ignore"):
            gap = np.abs(_float_array(x) - self.c1)
            value = gap * np.exp(gap)
        return _within_float64(value, "the multiplier at this x")


def inequality_values_1d(problem: OneDProblem, x) -> dict[str, np.ndarray]:
    """The three dependent inequality residuals; 'a' = 'b' + 'c'.  ValueError where one
    leaves float64, as on [-2pi, 2pi] once |c1| exceeds about 695 (the multiplier overflows)."""
    arr = _float_array(x)
    with np.errstate(over="ignore", invalid="ignore"):
        f = objective_1d(arr)
        K = problem.K
        bound_term = -problem.multiplier(arr) * (arr + TWO_PI)
        penalty = problem.sigma * np.abs(arr - problem.c1)
        values = {
            "a": bound_term + f + K,
            "b": bound_term - f - K + penalty,
            "c": 2.0 * f + 2.0 * K - penalty,
        }
    _within_float64(list(values.values()), "a 1-D residual at this c1 and sigma")
    return values


@dataclass(frozen=True)
class ConditionReport:
    grid_size: int
    tol: float
    minima: dict[str, float]
    argmins: dict[str, float]
    violations: dict[str, int]
    passed: bool
    full_interval_minima: dict[str, float] = field(default_factory=dict)


def check_1d_condition(
    problem: OneDProblem,
    grid_points: int = 10000,
    tol: float = 1e-6,
) -> ConditionReport:
    """Evaluate the three inequalities on [-2pi, 0] and report minima.

    Passes when every grid minimum stays above -tol.  The behaviour over
    the full interval is reported alongside but does not enter the flag.
    """
    grid_points = _check_rows(grid_points, "the grid", least=100)
    tol = _real(tol, "tolerance")
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    grid = np.linspace(-TWO_PI, 0.0, grid_points)
    values = inequality_values_1d(problem, grid)
    minima = {}
    argmins = {}
    violations = {}
    for key, v in values.items():
        i = int(np.argmin(v))
        minima[key] = float(v[i])
        argmins[key] = float(grid[i])
        violations[key] = int(np.count_nonzero(v < -tol))
    full_grid = np.linspace(-TWO_PI, TWO_PI, grid_points)
    full_values = inequality_values_1d(problem, full_grid)
    return ConditionReport(
        grid_size=grid_points,
        tol=tol,
        minima=minima,
        argmins=argmins,
        violations=violations,
        passed=all(m >= -tol for m in minima.values()),
        full_interval_minima={k: float(np.min(v)) for k, v in full_values.items()},
    )


def global_min_1d(grid_points: int = 10000) -> float:
    """Grid argmin of the objective over the interval, with refinement.

    Deterministic: near-ties (within 1e-9 relative, absorbing last-ulp
    noise between mirrored grid points of the even objective) resolve to
    the leftmost grid point, then three zoom rounds shrink the bracket
    around the incumbent.
    """
    grid_points = _check_rows(grid_points, "the grid", least=100)
    lo, hi = -TWO_PI, TWO_PI
    best = lo
    for _ in range(4):
        grid = np.linspace(lo, hi, grid_points)
        values = objective_1d(grid)
        floor = values.min()
        near = np.flatnonzero(values <= floor + 1e-9 * (1.0 + abs(floor)))
        best = float(grid[int(near[0])])
        width = (hi - lo) / (grid_points - 1)
        lo = max(-TWO_PI, best - 2.0 * width)
        hi = min(TWO_PI, best + 2.0 * width)
    return best


def curves_csv_1d(problem: OneDProblem, grid_points: int = 1000) -> str:
    """CSV columns x,f,ineq_a,ineq_b,ineq_c over the full interval."""
    grid_points = _check_rows(grid_points, "the grid", least=2)
    grid = np.linspace(-TWO_PI, TWO_PI, grid_points)
    f = objective_1d(grid)
    values = inequality_values_1d(problem, grid)
    lines = ["x,f,ineq_a,ineq_b,ineq_c"]
    for i in range(grid_points):
        row = (grid[i], f[i], values["a"][i], values["b"][i], values["c"][i])
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def lagrangian_residual(
    z: Sequence[int],
    multipliers: Iterable[float],
    k,
    d: Iterable[float],
    topology: Topology = Topology.CIRCULAR,
) -> float:
    """t(z) + sum_i lam_i d_i (1 - 3 z_i^2) - sum_pairs (d_i + d_j + k_ij d_i d_j)^2 (d_i d_j - 1)^2.

    z must be a sign pattern; k is a scalar or one weight per adjacency
    pair.  At d = 0 the residual is t(z).  A residual beyond float64 raises ValueError.
    """
    pattern = _integer_vector(z, signs=True)
    lam = as_vector(multipliers)
    dd = as_vector(d)
    if lam.size != len(pattern) or dd.size != len(pattern):
        raise ValueError("multipliers and direction must match the candidate dimension")
    a, b = topology.neighbors(dd)
    weights = _real(k, "pair weight") if isinstance(k, numbers.Real) else as_vector(k)
    if np.ndim(weights) and weights.size != a.size:
        raise ValueError("need one pair weight per adjacency pair")
    with np.errstate(over="ignore", invalid="ignore"):
        stationarity = np.dot(lam * dd, 1.0 - 3.0 * np.square(pattern))
        pair_terms = np.sum(_transition_values(a, b, weights) ** 2)
        residual = float(sign_changes(pattern, topology) + stationarity - pair_terms)
    return _within_float64(residual, "lagrangian_residual at this input")


def _check_open_angle(phi: float) -> float:
    phi = _real(phi, "angle")
    if not 0.0 < phi < math.pi:
        raise ValueError("angles must lie in the open interval (0, pi)")
    return phi


def multiplier_2d(phi1: float) -> float:
    """Closed form for the second multiplier at z = (-1, 1), k = 0.

    4 lam2 sin(phi) = 4 - (cos phi + sin phi)^2 (sin(2 phi) - 2)^2.

    Near 0 and pi, where lam2 tends to 3 phi and 3 (pi - phi), the numerator
    cancels: the relative error grows like 1e-16 / phi^2 (1 % at 1e-7), below
    1e-8 the result is noise, and multiplier_2d(5e-324) is 0.0.
    """
    phi = _check_open_angle(phi1)
    c, s = math.cos(phi), math.sin(phi)
    return (4.0 - (c + s) ** 2 * (math.sin(2.0 * phi) - 2.0) ** 2) / (4.0 * s)


def multiplier_3d(phi1: float, phi2: float) -> float:
    """Closed form for the third multiplier at z = (1, -1, 1), k = 0.

    8 lam3 sin(phi1) sin(phi2) = 8 - three squared pair terms in the
    spherical direction (cos phi1, cos phi2 sin phi1, sin phi2 sin phi1).
    The numerator cancels as multiplier_2d's does.  ValueError where the result
    leaves the float64 range: the quotient overflows, or 8 sin(phi1) sin(phi2)
    underflows to 0, as at (1e-200, 1e-200).
    """
    p1 = _check_open_angle(phi1)
    p2 = _check_open_angle(phi2)
    c1, s1 = math.cos(p1), math.sin(p1)
    c2, s2 = math.cos(p2), math.sin(p2)
    term1 = (c1 + c2 * s1) ** 2 * (c2 * math.sin(2.0 * p1) - 2.0) ** 2
    term2 = s1 * s1 * (c2 + s2) ** 2 * (s1 * s1 * math.sin(2.0 * p2) - 2.0) ** 2
    term3 = (c1 + s1 * s2) ** 2 * (s2 * math.sin(2.0 * p1) - 2.0) ** 2
    what, denominator = "multiplier_3d at these angles", 8.0 * s1 * s2
    if denominator == 0.0:
        raise ValueError(f"{what} leaves the float64 range")
    return _within_float64((8.0 - term1 - term2 - term3) / denominator, what)


def surface_csv(which: str, resolution: int = 360) -> str:
    """Multiplier surface samples on open angle grids.

    '2d' emits resolution rows (phi1, lambda2); '3d' emits resolution^2
    rows (phi1, phi2, lambda3).  Grid points pi*j/(resolution + 1),
    j = 1..resolution, stay clear of the singular boundary.
    """
    resolution = _check_rows(resolution, "one side of the surface", least=16)
    _check_rows(resolution**2 if which == "3d" else resolution, "the surface")
    angles = [math.pi * j / (resolution + 1) for j in range(1, resolution + 1)]
    if which == "2d":
        lines = ["phi1,lambda2"]
        for phi in angles:
            lines.append(f"{phi!r},{multiplier_2d(phi)!r}")
    elif which == "3d":
        lines = ["phi1,phi2,lambda3"]
        for phi1 in angles:
            for phi2 in angles:
                lines.append(f"{phi1!r},{phi2!r},{multiplier_3d(phi1, phi2)!r}")
    else:
        raise ValueError("surface selector must be '2d' or '3d'")
    return "\n".join(lines) + "\n"
