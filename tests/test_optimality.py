import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from signchange.optimality import (
    OneDProblem,
    check_1d_condition,
    curves_csv_1d,
    global_min_1d,
    inequality_values_1d,
    lagrangian_residual,
    multiplier_2d,
    multiplier_3d,
    objective_1d,
    surface_csv,
)
from signchange.transitions import Topology

angles = st.floats(min_value=1e-3, max_value=math.pi - 1e-3)


@given(st.floats(-10, 10))
def test_objective_is_even(x):
    assert float(objective_1d(x)) == pytest.approx(float(objective_1d(-x)), abs=1e-12)


def test_problem_constant_matches_candidate():
    problem = OneDProblem()
    assert problem.K == pytest.approx(22.687208197496684, abs=1e-9)
    assert float(objective_1d(problem.c1)) == pytest.approx(-problem.K, abs=1e-12)
    assert float(problem.multiplier(problem.c1)) == 0.0
    assert float(problem.multiplier(problem.c1 + 1.0)) == pytest.approx(math.e, abs=1e-12)


@pytest.mark.parametrize("field", ["c1", "sigma", "lower", "upper"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_problem_rejects_non_finite_fields(field, value):
    with pytest.raises(ValueError):
        OneDProblem(**{field: value})


def test_problem_validation():
    with pytest.raises(ValueError):
        OneDProblem(lower=1.0, upper=-1.0)
    with pytest.raises(ValueError):
        OneDProblem(sigma=-0.5)


@given(st.floats(-2.0 * math.pi, 2.0 * math.pi))
def test_first_inequality_is_sum_of_others(x):
    values = inequality_values_1d(OneDProblem(), x)
    assert float(values["a"]) == pytest.approx(float(values["b"] + values["c"]), rel=1e-9, abs=1e-9)


def test_condition_report_measured_minima():
    report = check_1d_condition(OneDProblem(), grid_points=10000, tol=1e-6)
    # the three residuals dip far below zero on [-2pi, 0]; the report
    # must say so rather than round it away
    assert not report.passed
    assert report.minima["a"] == pytest.approx(-3641.9806479, rel=1e-6)
    assert report.minima["b"] == pytest.approx(-3682.5550643, rel=1e-6)
    assert report.minima["c"] == pytest.approx(-0.0383881, rel=1e-4)
    assert report.argmins["a"] == 0.0
    assert report.argmins["b"] == 0.0
    assert report.argmins["c"] == pytest.approx(-4.8197, abs=1e-3)
    assert report.violations["a"] > 0
    assert report.full_interval_minima["a"] < report.minima["a"]


def test_condition_check_validation():
    with pytest.raises(ValueError):
        check_1d_condition(OneDProblem(), grid_points=10)
    with pytest.raises(ValueError):
        check_1d_condition(OneDProblem(), tol=0.0)


def test_global_min_near_negative_candidate():
    argmin = global_min_1d()
    assert abs(argmin - (-4.8)) < 0.05
    assert float(objective_1d(argmin)) < -22.69


def test_global_min_validation():
    with pytest.raises(ValueError):
        global_min_1d(grid_points=50)


def test_curves_csv_shape():
    text = curves_csv_1d(OneDProblem(), grid_points=200)
    lines = text.strip().split("\n")
    assert lines[0] == "x,f,ineq_a,ineq_b,ineq_c"
    assert len(lines) == 201
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == pytest.approx(-2.0 * math.pi, abs=1e-12)
    with pytest.raises(ValueError):
        curves_csv_1d(OneDProblem(), grid_points=1)


def test_lagrangian_residual_at_zero_direction():
    assert lagrangian_residual((1, -1), (0.0, 0.0), 0.0, (0.0, 0.0)) == 2.0
    assert lagrangian_residual((1, -1, 1), (1.0, 2.0, 3.0), 0.5, (0.0, 0.0, 0.0)) == 2.0


def test_lagrangian_residual_validation():
    with pytest.raises(ValueError):
        lagrangian_residual((2, 0), (0.0, 0.0), 0.0, (0.0, 0.0))
    with pytest.raises(ValueError):
        lagrangian_residual((1, -1), (0.0,), 0.0, (0.0, 0.0))
    with pytest.raises(ValueError):
        lagrangian_residual((1, -1), (0.0, 0.0), [0.0], (0.0, 0.0))


def test_lagrangian_residual_accepts_per_pair_weights():
    value = lagrangian_residual((1, -1), (0.0, 0.0), [0.25, 0.5], (0.1, -0.2))
    assert isinstance(value, float)


@pytest.mark.parametrize("k", [2, 0.5, Fraction(1, 2), np.int64(2)])
def test_lagrangian_residual_scalar_weight_types(k):
    assert lagrangian_residual((1, -1, 1), [0, 0, 0], k, [0, 0, 0]) == 2.0
    lam, d = (1.0, -0.5, 2.0), (0.3, -1.2, 0.7)
    per_pair = lagrangian_residual((1, -1, 1), lam, [float(k)] * 3, d)
    assert lagrangian_residual((1, -1, 1), lam, k, d) == per_pair


@given(angles)
def test_multiplier_2d_annihilates_residual(phi):
    lam = multiplier_2d(phi)
    d = (math.cos(phi), math.sin(phi))
    residual = lagrangian_residual((-1, 1), (0.0, lam), 0.0, d, Topology.CIRCULAR)
    assert abs(residual) <= 1e-10


@given(angles, angles)
def test_multiplier_3d_annihilates_residual(phi1, phi2):
    lam = multiplier_3d(phi1, phi2)
    d = (
        math.cos(phi1),
        math.cos(phi2) * math.sin(phi1),
        math.sin(phi2) * math.sin(phi1),
    )
    residual = lagrangian_residual((1, -1, 1), (0.0, 0.0, lam), 0.0, d, Topology.CIRCULAR)
    assert abs(residual) <= 1e-10


def test_multiplier_domain_is_open():
    for bad in (0.0, math.pi, -0.1, 4.0):
        with pytest.raises(ValueError):
            multiplier_2d(bad)
        with pytest.raises(ValueError):
            multiplier_3d(bad, 1.0)


def test_surface_csv_2d():
    text = surface_csv("2d", resolution=24)
    lines = text.strip().split("\n")
    assert lines[0] == "phi1,lambda2"
    assert len(lines) == 25
    first_angle = float(lines[1].split(",")[0])
    assert 0.0 < first_angle < math.pi


def test_surface_csv_3d():
    text = surface_csv("3d", resolution=16)
    lines = text.strip().split("\n")
    assert lines[0] == "phi1,phi2,lambda3"
    assert len(lines) == 16 * 16 + 1


def test_surface_csv_validation():
    with pytest.raises(ValueError):
        surface_csv("4d", resolution=24)
    with pytest.raises(ValueError):
        surface_csv("2d", resolution=4)


def test_surface_csv_deterministic():
    assert surface_csv("2d", resolution=20) == surface_csv("2d", resolution=20)
