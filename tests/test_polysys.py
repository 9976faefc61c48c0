import json
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from signchange import polysys
from signchange.polysys import (
    ADMISSIBLE_RHO_SQUARED,
    build_4d_system,
    evaluate_system,
    export_system,
    feasibility_report,
    finite_direction_feasibility,
    grid_feasibility_summary,
    lattice_directions,
    pair_form_value,
    parse_system,
    solve_rational_system,
    spherical_to_cartesian,
)
from signchange.transitions import Topology, sign_changes

sign_patterns = st.tuples(*([st.sampled_from((-1, 0, 1))] * 4))


def test_build_system_shape():
    system = build_4d_system((1, -1, 1, -1))
    assert len(system.equations) == 4
    assert system.metadata["candidate"] == [1, -1, 1, -1]
    assert system.metadata["t"] == 4
    assert "mu1" in system.variables
    rho_powers = {powers.get("rho", 0) for eq in system.equations for _, powers in eq}
    assert max(rho_powers) == 6


def test_build_system_validation():
    with pytest.raises(ValueError):
        build_4d_system((1, -1, 1))
    with pytest.raises(ValueError):
        build_4d_system((2, 0, 0, 0))
    with pytest.raises(ValueError):
        build_4d_system((1, -1, 1, -1), mu=(1, 2, 3))
    with pytest.raises(ValueError):
        build_4d_system((1, -1, 1, -1), mu=(0.5, 0, 0, 0))


def test_substituted_multipliers_drop_symbols():
    system = build_4d_system((1, -1, 1, -1), mu=(2, 0, 0, 0))
    assert "mu1" not in system.variables
    plain = export_system(system, fmt="plain")
    assert "2*rho*c1" in plain
    assert "mu" not in plain


def test_plain_export_layout():
    plain = export_system(build_4d_system((1, -1, 1, -1)), fmt="plain")
    lines = plain.strip().split("\n")
    assert lines[0] == "# candidate z = (1, -1, 1, -1)"
    assert lines[1] == "# sign changes t(z) = 4"
    assert "c1^2 + s1^2 - 1 = 0" in lines
    assert "c2^2 + s2^2 - 1 = 0" in lines
    assert "c3^2 + s3^2 - 1 = 0" in lines
    assert lines[3].endswith("- 4 = 0")


def test_json_export_round_trip():
    system = build_4d_system((0, -1, 0, 1))
    text = export_system(system, fmt="json")
    assert parse_system(text) == system
    payload = json.loads(text)
    assert payload["metadata"]["admissible_rho_squared"] == list(ADMISSIBLE_RHO_SQUARED)
    with pytest.raises(ValueError):
        export_system(system, fmt="latex")


@given(sign_patterns, st.integers(0, 10_000))
def test_main_equation_matches_direct_evaluation(z, seed):
    rng = np.random.default_rng(seed)
    rho = float(rng.uniform(0.2, 2.5))
    phis = rng.uniform(0.05, 3.1, size=3)
    d = spherical_to_cartesian(rho, phis)
    angles = {
        "rho": rho,
        "c1": math.cos(phis[0]),
        "c2": math.cos(phis[1]),
        "c3": math.cos(phis[2]),
        "s1": math.sin(phis[0]),
        "s2": math.sin(phis[1]),
        "s3": math.sin(phis[2]),
    }
    pairs = [(0, 3), (0, 1), (1, 2), (2, 3)]
    forms = sum((d[i] + d[j]) ** 2 * (d[i] * d[j] - 1.0) ** 2 for i, j in pairs)
    forms -= sign_changes(z, Topology.CIRCULAR)
    mu = rng.uniform(-4.0, 4.0, size=4)
    symbolic = dict(angles, mu1=mu[0], mu2=mu[1], mu3=mu[2], mu4=mu[3])
    integer_mu = rng.integers(-4, 5, size=4)
    # symbolic multipliers, and integer ones substituted into the coefficients
    for system, assignment, weights in (
        (build_4d_system(z), symbolic, mu),
        (build_4d_system(z, integer_mu), angles, integer_mu),
    ):
        values = evaluate_system(system, assignment)
        assert values[0] == pytest.approx(float(weights @ d) + forms, abs=1e-9)
        assert max(abs(v) for v in values[1:]) < 1e-12


def test_evaluate_requires_full_assignment():
    system = build_4d_system((1, 1, 1, 1))
    with pytest.raises(ValueError):
        evaluate_system(system, {"rho": 1.0})


def test_spherical_examples():
    x = spherical_to_cartesian(2.0, (math.pi / 2, math.pi / 2, math.pi / 2))
    assert np.allclose(x, [0.0, 0.0, 0.0, 2.0], atol=1e-12)
    assert np.allclose(spherical_to_cartesian(1.0, (0.0, 0.3, 0.9)), [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        spherical_to_cartesian(-1.0, (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        spherical_to_cartesian(1.0, (1.0, 1.0))


@given(st.floats(0.0, 5.0), st.tuples(st.floats(0, math.pi), st.floats(0, math.pi), st.floats(0, 2 * math.pi)))
def test_spherical_norm_is_radius(rho, phis):
    x = spherical_to_cartesian(rho, phis)
    assert float(np.linalg.norm(x)) == pytest.approx(rho, abs=1e-9)


@given(sign_patterns)
def test_lattice_directions_complete(z):
    directions = lattice_directions(z)
    assert len(directions) == 80
    assert directions == sorted(directions)
    assert all(any(d) for d in directions)
    for d in directions:
        moved = tuple(zi + di for zi, di in zip(z, d))
        assert all(v in (-1, 0, 1) for v in moved)


def test_admissible_radii_cover_direction_lengths():
    lengths = set()
    for z in product((-1, 0, 1), repeat=4):
        for d in lattice_directions(z):
            lengths.add(sum(v * v for v in d))
    assert lengths == set(ADMISSIBLE_RHO_SQUARED)


@pytest.mark.parametrize(
    "d,expected",
    [((-2, 0, 0, 0), 8), ((-1, 0, 0, 0), 2), ((1, 1, 1, 1), 0), ((-1, 2, -1, 2), 36)],
)
def test_pair_form_values(d, expected):
    assert pair_form_value(d) == expected


def test_pair_form_value_reads_integer_steps():
    assert pair_form_value((2.0, 0, Fraction(0), 0)) == pair_form_value((2, 0, 0, 0)) == 8
    assert pair_form_value(np.array([-1, 2, -1, 2])) == 36
    # Python ints, so a step beyond int64 stays exact
    big = 10**20
    assert pair_form_value((big, 0, 0, 0)) == 2 * big**2


@pytest.mark.parametrize("bad", [0.5, Fraction(1, 2), math.inf, math.nan, "a"])
def test_pair_form_value_rejects_non_integer_steps(bad):
    # (0.5, 1, 1, 1) used to truncate to (0, 1, 1, 1), whose value is 2
    with pytest.raises(ValueError):
        pair_form_value((bad, 1, 1, 1))


def test_solver_feasible_witness():
    outcome = solve_rational_system([[1, 0], [0, 2], [1, 2]], [3, 4, 7])
    assert outcome[0] == "feasible"
    assert outcome[1] == [Fraction(3), Fraction(2)]


def test_solver_underdetermined_sets_free_to_zero():
    outcome = solve_rational_system([[1, 1, 0]], [4])
    assert outcome == ("feasible", [Fraction(4), Fraction(0), Fraction(0)])


def test_solver_infeasible_certificate_combines_to_contradiction():
    rows = [[1, 1], [2, 2], [1, 0]]
    rhs = [1, 3, 0]
    outcome = solve_rational_system(rows, rhs)
    assert outcome[0] == "infeasible"
    combo, value = outcome[1], outcome[2]
    assert value != 0
    total_row = [Fraction(0), Fraction(0)]
    total_rhs = Fraction(0)
    for idx, coeff in combo:
        for c in range(2):
            total_row[c] += coeff * rows[idx][c]
        total_rhs += coeff * rhs[idx]
    assert total_row == [0, 0]
    assert total_rhs == value


def test_solver_validation():
    with pytest.raises(ValueError):
        solve_rational_system([], [])
    with pytest.raises(ValueError):
        solve_rational_system([[1]], [1, 2])


def test_feasibility_certificate_for_alternating_candidate():
    result = finite_direction_feasibility((1, -1, 1, -1))
    assert not result.feasible
    assert result.t == 4
    assert result.n_directions == 80
    cert = result.certificate
    assert cert.kind == "axis_conflict"
    assert cert.axis == 0
    assert cert.directions == ((-2, 0, 0, 0), (-1, 0, 0, 0))
    assert cert.forced_values == (Fraction(2), Fraction(-2))


@given(sign_patterns)
def test_every_candidate_is_infeasible_with_valid_certificate(z):
    result = finite_direction_feasibility(z)
    assert not result.feasible
    cert = result.certificate
    directions = lattice_directions(z)
    rhs = [result.t - pair_form_value(d) for d in directions]
    combined = [Fraction(0)] * 4
    combined_rhs = Fraction(0)
    for idx, coeff in zip(cert.equation_indices, cert.coefficients):
        for c in range(4):
            combined[c] += coeff * directions[idx][c]
        combined_rhs += coeff * rhs[idx]
    assert combined == [0, 0, 0, 0]
    assert combined_rhs == cert.value != 0


def test_feasibility_report_is_json_ready():
    report = feasibility_report(finite_direction_feasibility((1, -1, 1, -1)))
    text = json.dumps(report, sort_keys=True)
    assert '"feasible": false' in text
    assert report["certificate"]["forced_values"] == ["2", "-2"]
    assert report["certificate"]["directions"] == [[-2, 0, 0, 0], [-1, 0, 0, 0]]


def test_grid_summary_counts():
    summary = grid_feasibility_summary()
    assert summary == {
        "grid_size": 81,
        "infeasible": 81,
        "feasible": 0,
        "feasible_candidates": [],
    }


def test_decision_neither_eliminates_nor_enumerates(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the pure-axis decision must not call this")

    z = (1, -1, 1, -1)
    directions = lattice_directions(z)
    monkeypatch.setattr(polysys, "solve_rational_system", forbidden)
    monkeypatch.setattr(polysys, "lattice_directions", forbidden)
    assert grid_feasibility_summary()["infeasible"] == 81
    cert = finite_direction_feasibility(z).certificate
    assert cert.kind == "axis_conflict"
    assert tuple(directions[i] for i in cert.equation_indices) == cert.directions


def test_feasibility_validation():
    with pytest.raises(ValueError):
        finite_direction_feasibility((1, -1, 1))
    with pytest.raises(ValueError):
        lattice_directions((0, 3, 0, 0))
