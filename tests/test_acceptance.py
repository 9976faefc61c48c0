"""End-to-end acceptance checks, one test per numbered criterion.

Each test states its claim directly and measures its own runtime where a
budget applies.  The budgets live in CRITERION_BUDGETS_S; a budgeted test
records the budget and the time it measured, and the acceptance summary
printed by conftest.py shows the two side by side.  Criteria 08 and 11
compute their expected values from closed forms (the residuals at x = 0
and at the objective's grid minimiser; the chromatic polynomial of the
4-cycle), never from the code under test.  The README derives them and records why they replace the
reference values 2 and "all residuals nonnegative".
"""

import math
import re
import time
import timeit
from fractions import Fraction

import numpy as np
import pytest

from signchange.counting import sign_minorant_gap
from signchange.grid import enumerate_grid, pattern_grid
from signchange.oracles import EXPECTED_2EIG_UPPER, expected_double_eigenvalues, run_oracle
from signchange.optimality import (
    OneDProblem,
    check_1d_condition,
    global_min_1d,
    lagrangian_residual,
    multiplier_2d,
    multiplier_3d,
)
from signchange.polysys import finite_direction_feasibility, grid_feasibility_summary
from signchange.transitions import (
    Topology,
    sign_changes,
    symmetric2_eigenvalues,
    transition_hessian_2d,
    transition_norm_sq,
)

EXAMPLE_X = (-24.0, -30.0, 19.0, 14.0, 0.0)

# seconds allowed for the span each budgeted criterion times
CRITERION_BUDGETS_S = {
    "01": 1e-3,  # one sign_changes call on the example, best of 50
    "02": 10.0,  # the norm sweeps over n = 2..8 and the exact n <= 4 check
    "04": 0.5,  # hadamard_n2..n8 and hadamard_random
    "05": 1e-3,  # one closed-form pass over the eigenvalue table, best of 20
    "06": 60.0,  # ft_inequality and coupled_equality, n = 2..6
    "07": 1.0,  # qhat_identity_n2..n6
    "08": 1.0,  # check_1d_condition on 10,000 grid points
    "09": 1.0,  # the 2-D and 3-D multiplier grids
    "10": 5.0,  # one feasibility decision and the 81-candidate summary
    "12": 0.25,  # the signminor_random oracle
}


@pytest.fixture
def within_budget(request, record_property):
    """Assert that a measured span fits its criterion's budget, and record both."""
    criterion = re.search(r"criterion_(\d+)", request.node.name).group(1)
    budget = CRITERION_BUDGETS_S[criterion]
    record_property("budget_s", budget)

    def check(seconds: float, what: str) -> None:
        record_property("measured_s", seconds)
        assert seconds < budget, f"{what} took {seconds:.3g} s, budget {budget:g} s"

    return check


def _pair_arrays(patterns: np.ndarray, topology: Topology):
    if topology is Topology.CIRCULAR:
        return patterns, np.roll(patterns, -1, axis=1)
    return patterns[:, :-1], patterns[:, 1:]


def test_criterion_01_count_example(within_budget):
    assert sign_changes(EXAMPLE_X, Topology.CIRCULAR) == 3
    runtime = min(
        timeit.repeat(lambda: sign_changes(EXAMPLE_X, Topology.CIRCULAR), number=1, repeat=50)
    )
    within_budget(runtime, "single evaluation")


def test_criterion_02_norm_equality_and_bracket(within_budget):
    start = time.perf_counter()
    for n in range(2, 9):
        patterns = pattern_grid(n)
        for topology in Topology:
            a, b = _pair_arrays(patterns, topology)
            t = np.count_nonzero(a != b, axis=1)
            af = a.astype(float)
            bf = b.astype(float)
            prod = af * bf

            def norm_sq(k):
                values = (af + bf + k * prod) * (prod - 1.0)
                return np.einsum("ij,ij->i", values, values)

            assert np.array_equal(norm_sq(0.5), t)
            assert np.array_equal(norm_sq(-0.5), t)
            for k in (0.1, 0.25, 0.4, 0.5):
                assert np.all(norm_sq(k) <= t)
            for k in (0.5, 0.75, 1.0, 2.0):
                assert np.all(norm_sq(k) >= t)
    # the library evaluator agrees with the sweep arithmetic, in exact rationals
    for n in (2, 3, 4):
        for topology in Topology:
            for pattern in pattern_grid(n):
                row = tuple(int(v) for v in pattern)
                t_row = sign_changes(row, topology)
                assert transition_norm_sq(row, Fraction(1, 2), topology) == t_row
                assert transition_norm_sq(row, Fraction(-1, 2), topology) == t_row
    within_budget(time.perf_counter() - start, "sweep")


def test_criterion_03_transition_support_size():
    for n in range(2, 9):
        patterns = pattern_grid(n)
        for topology in Topology:
            a, b = _pair_arrays(patterns, topology)
            t = np.count_nonzero(a != b, axis=1)
            af = a.astype(float)
            bf = b.astype(float)
            prod = af * bf
            for k in (0.1, 0.25, 0.4, 0.5, 0.75, 1.0, 2.0, -0.5, -2.0):
                values = (af + bf + k * prod) * (prod - 1.0)
                assert np.array_equal(np.count_nonzero(values != 0.0, axis=1), t), (
                    f"support mismatch at n={n}, k={k}, {topology.value}"
                )


def test_criterion_04_hadamard_identity(within_budget):
    names = [f"hadamard_n{n}" for n in range(2, 9)] + ["hadamard_random"]
    start = time.perf_counter()
    for name in names:
        report = run_oracle(name)
        assert report.passed, f"{name}: {report.counterexample}"
    within_budget(time.perf_counter() - start, "hadamard oracles")


def test_criterion_05_hessian_eigenvalue_table(within_budget):
    report = run_oracle("hessian_table")
    assert report.passed, report.counterexample

    points = sorted(EXPECTED_2EIG_UPPER)

    def closed_form_pass():
        for point in points:
            for branch in (0.5, -0.5):
                hi, lo = symmetric2_eigenvalues(transition_hessian_2d(point, branch))
                exp_hi, exp_lo = expected_double_eigenvalues(point, branch)
                if abs(2.0 * hi - exp_hi) > 1e-10 or abs(2.0 * lo - exp_lo) > 1e-10:
                    raise AssertionError((point, branch))

    closed_form_pass()
    runtime = min(timeit.repeat(closed_form_pass, number=1, repeat=20))
    within_budget(runtime, "table pass")

    assert expected_double_eigenvalues((0, 0), 0.5) == (1.0, -1.0)
    assert expected_double_eigenvalues((-1, -1), 0.5) == (-2.0 + 5.0, -2.0 - 5.0)


def test_criterion_06_difference_inequality_sweep(within_budget):
    start = time.perf_counter()
    for n in range(2, 7):
        for prefix in ("ft_inequality", "coupled_equality"):
            report = run_oracle(f"{prefix}_n{n}")
            assert report.passed, f"{prefix}_n{n}: {report.counterexample}"
    within_budget(time.perf_counter() - start, "sweep")


def test_criterion_07_zero_direction_identity(within_budget):
    start = time.perf_counter()
    for n in range(2, 7):
        report = run_oracle(f"qhat_identity_n{n}")
        assert report.passed, f"qhat_identity_n{n}: {report.counterexample}"
    within_budget(time.perf_counter() - start, "qhat_identity oracles")


def test_criterion_08_interval_example(within_budget):
    problem = OneDProblem(c1=-4.8, sigma=1.0)
    assert abs(problem.K - 22.687) <= 1e-3

    argmin = global_min_1d(grid_points=10000)
    assert abs(argmin - (-4.8)) <= 0.05

    start = time.perf_counter()
    report = check_1d_condition(problem, grid_points=10000, tol=1e-6)
    within_budget(time.perf_counter() - start, "grid check")

    # The residuals as defined cannot certify c1 = -4.8 on [-2 pi, 0].  At the
    # right endpoint x = 0 the bound term is -2 pi |c1| e^|c1| and f(0) = 0.
    c1, sigma = problem.c1, problem.sigma
    K = -(c1 * c1 * math.cos(2.0 * c1))
    bound_at_0 = -2.0 * math.pi * abs(c1) * math.exp(abs(c1))
    assert not report.passed
    assert report.minima["a"] == pytest.approx(bound_at_0 + K, rel=1e-9)
    assert report.minima["b"] == pytest.approx(bound_at_0 - K + sigma * abs(c1), rel=1e-9)
    # c = 2 (f + K) - sigma |x - c1| holds no multiplier: at the grid
    # minimiser x* of x^2 cos 2x, f(x*) < f(c1) makes it negative for any
    # sigma >= 0, because c1 is a rounded candidate, not the minimiser.
    grid = np.linspace(-2.0 * math.pi, 0.0, 10000)
    x_star = float(grid[np.argmin(grid * grid * np.cos(2.0 * grid))])
    c_at_x_star = 2.0 * (x_star * x_star * math.cos(2.0 * x_star) + K) - sigma * abs(
        x_star - c1
    )
    assert c_at_x_star < 0.0
    assert report.minima["c"] <= c_at_x_star, (
        f"residual c reaches {report.minima['c']} on the grid but "
        f"{c_at_x_star} at x* = {x_star}"
    )


def test_criterion_09_closed_form_multipliers(within_budget):
    start = time.perf_counter()
    worst = 0.0
    for j in range(1, 361):
        phi = math.pi * j / 361.0
        d = (math.cos(phi), math.sin(phi))
        lam = (0.0, multiplier_2d(phi))
        worst = max(worst, abs(lagrangian_residual((-1, 1), lam, 0.0, d, Topology.CIRCULAR)))
    for i in range(1, 65):
        phi1 = math.pi * i / 65.0
        s1, c1 = math.sin(phi1), math.cos(phi1)
        for j in range(1, 65):
            phi2 = math.pi * j / 65.0
            d = (c1, math.cos(phi2) * s1, math.sin(phi2) * s1)
            lam = (0.0, 0.0, multiplier_3d(phi1, phi2))
            worst = max(
                worst, abs(lagrangian_residual((1, -1, 1), lam, 0.0, d, Topology.CIRCULAR))
            )
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10, f"max |residual| = {worst:.3e}"
    within_budget(elapsed, "grid evaluation")


def test_criterion_10_four_dim_feasibility(within_budget):
    start = time.perf_counter()
    result = finite_direction_feasibility((1, -1, 1, -1))
    assert not result.feasible
    cert = result.certificate
    assert cert is not None
    assert cert.axis == 0
    assert cert.directions == ((-2, 0, 0, 0), (-1, 0, 0, 0))
    assert cert.forced_values == (Fraction(2), Fraction(-2))

    summary = grid_feasibility_summary()
    elapsed = time.perf_counter() - start
    assert summary["grid_size"] == 81
    assert summary["infeasible"] == 81
    assert summary["feasible"] == 0
    within_budget(elapsed, "feasibility scan")


def test_criterion_11_grid_symmetry():
    table = enumerate_grid(4, Topology.CIRCULAR)
    assert len(table.patterns) == 81

    above = {
        tuple(int(v) for v in p) for p, t in zip(table.patterns, table.t) if t > 3
    }
    assert above and all(tuple(-v for v in p) in above for p in above)

    csv_text = table.to_csv()
    assert len(csv_text.strip().split("\n")) == 82
    assert table.first_component_slices() == {-1: (0, 27), 0: (27, 54), 1: (54, 81)}

    # t(z) = 4 = n makes every adjacent pair on the 4-cycle differ, and 0
    # differs from +-1: the level set is the proper 3-colourings of C_4,
    # counted by the chromatic polynomial (q - 1)^n + (-1)^n (q - 1).
    def cycle_colourings(q, n):
        return (q - 1) ** n + (-1) ** n * (q - 1)

    histogram = table.histogram()
    assert histogram[4] == cycle_colourings(3, 4) == 18
    # Restricted to full support (q = 2 colours) only the alternating pair remains.
    full_support = {p for p, t in table.rows() if t == 4 and 0 not in p}
    alternating = {tuple(s * (-1) ** i for i in range(4)) for s in (1, -1)}
    assert len(alternating) == cycle_colourings(2, 4) == 2
    assert full_support == alternating


def test_criterion_12_minorant_gap(within_budget):
    start = time.perf_counter()
    report = run_oracle("signminor_random")
    within_budget(time.perf_counter() - start, "signminor_random oracle")
    assert report.passed, report.counterexample
    assert report.checks >= 10000
    assert sign_minorant_gap([0.0, -2.5, 0.0]) == 0.0


def test_criterion_13_smoothing_contract():
    for n in range(2, 7):
        report = run_oracle(f"smoothing_n{n}")
        assert report.passed, f"smoothing_n{n}: {report.counterexample}"
