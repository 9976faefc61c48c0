import hashlib
import json
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signchange import oracles, polysys
from signchange.cli import run
from signchange.oracles import _lattice_system, _pair_form, _solve_rational_system
from signchange.polysys import (
    ADMISSIBLE_RHO_SQUARED,
    Certificate,
    FeasibilityResult,
    PolySystem,
    build_4d_system,
    export_system,
    feasibility_report,
    finite_direction_feasibility,
    grid_feasibility_summary,
    parse_system,
    spherical_to_cartesian,
)
from signchange.transitions import Topology, sign_changes

# the 81 candidates of the 4-D sign grid, in lexicographic order
CANDIDATES = list(product((-1, 0, 1), repeat=4))


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


def _polysys_stdout(capsys, z, mu, fmt="json"):
    """stdout of the CLI's polysys for candidate z, run in process."""
    argv = ["polysys", "--z=" + ",".join(map(str, z)), f"--format={fmt}"]
    if mu is not None:
        argv.append("--mu=" + ",".join(map(str, mu)))
    assert run(argv) == 0
    return capsys.readouterr().out


def test_json_export_round_trip(capsys):
    for z in CANDIDATES:
        for mu in (None, (2, 0, -1, 3)):
            system = build_4d_system(z, mu)
            text = export_system(system, fmt="json")
            # one line from json's C encoder
            assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
            assert parse_system(text) == system
            # the CLI's indented print of the same payload, the layout of earlier exports
            assert parse_system(_polysys_stdout(capsys, z, mu)) == system
    system = build_4d_system((0, -1, 0, 1))
    payload = json.loads(export_system(system, fmt="json"))
    assert payload["metadata"]["admissible_rho_squared"] == list(ADMISSIBLE_RHO_SQUARED)
    with pytest.raises(ValueError):
        export_system(system, fmt="latex")


# sha256 of the CLI's polysys stdout for the 81 candidates, symbolic and with
# mu = (2, 0, -1, 3), concatenated in candidate order
EXPORT_SHA256 = {
    "json": "7ac70ebc0a083249621bc25aeb2c38509a1cc3da7a7033ba00375fae60eb2830",
    "plain": "8104a963e3fb3d8ccc6b92ecf6c5b40b2382f70bc22a26ad64d939ee997d9240",
}


@pytest.mark.parametrize("fmt", sorted(EXPORT_SHA256))
def test_export_bytes_are_pinned(capsys, fmt):
    text = "".join(
        _polysys_stdout(capsys, z, mu, fmt) for z in CANDIDATES for mu in (None, (2, 0, -1, 3))
    )
    assert hashlib.sha256(text.encode()).hexdigest() == EXPORT_SHA256[fmt]


def test_built_systems_share_no_state():
    for mu in (None, (2, 0, -1, 3)):
        # parse(export(...)) is a copy that shares nothing with the builder
        reference = [parse_system(export_system(build_4d_system(z, mu))) for z in CANDIDATES]
        spoiled = build_4d_system((1, -1, 1, -1), mu)
        for eq in spoiled.equations:
            for _, powers in eq:
                powers["rho"] = 99
        for value in spoiled.metadata.values():
            if isinstance(value, list):
                value.append(5)
        assert [build_4d_system(z, mu) for z in CANDIDATES] == reference


def test_only_the_constant_depends_on_z():
    rest = set()
    for z in CANDIDATES:
        t = sum(z[i] != z[(i + 1) % 4] for i in range(4))
        main = build_4d_system(z).equations[0]
        assert [coeff for coeff, powers in main if not powers] == ([-t] if t else [])
        rest.add(json.dumps([term for term in main if term[1]], sort_keys=True))
    # the main equation without its constant is one polynomial for every candidate
    assert len(rest) == 1


def test_parse_system_reads_integers_or_raises_value_error():
    layout = {"variables": ["a"], "metadata": {}}
    # integral floats count as their ints, as everywhere else
    whole = json.dumps({"equations": [[[2.0, {"a": 3.0}], [-1, {}]]], **layout})
    assert parse_system(whole).equations == (((2, {"a": 3}), (-1, {})),)
    for bad in (
        # used to parse as (1, {"a": 2})
        {"equations": [[[1.5, {"a": 2.7}]]], **layout},
        {"equations": [[[1, {"a": 2.7}]]], **layout},
        {"equations": [[["1", {}]]], **layout},
        {"equations": [[[1, {"a": None}]]], **layout},
        # JSON booleans used to parse as 1 and 0
        {"equations": [[[True, {}]]], **layout},
        {"equations": [[[1, {"a": True}]]], **layout},
        {"equations": [[[False, {}]]], **layout},
        {"equations": [[[1, [2]]]], **layout},
        {"equations": [[[1]]], **layout},
        # used to parse, and export_system(..., "plain") then dropped the factor
        {"equations": [[[3, {"a": -1}], [1, {}]]], **layout},
        {"equations": [[[2, {"zz": 2}], [1, {}]]], **layout},
        {"equations": [[[1, {"a": -2.0}]]], **layout},
        {"equations": 5, **layout},
        {"equations": [], "variables": ["a"]},
        # a string used to parse as its letters, ('r', 'h', 'o')
        {"equations": [[[1, {"r": 1}]]], "variables": "rho", "metadata": {}},
        {"equations": [], "variables": ["a", "a"], "metadata": {}},
        {"equations": [], "variables": ["a", 1], "metadata": {}},
        {"equations": [], "variables": [["a"]], "metadata": {}},
        {"equations": [], "variables": [None], "metadata": {}},
        {"equations": [], "variables": {"a": 1}, "metadata": {}},
        {},
        [],
    ):
        with pytest.raises(ValueError):
            parse_system(json.dumps(bad))
    with pytest.raises(ValueError):
        parse_system("not json")


def test_parse_system_refuses_terms_that_are_not_pairs_and_metadata_that_is_no_object():
    layout = {"variables": ["a"], "metadata": {}}
    for bad in (
        # used to raise Python's "not enough values to unpack" or "too many values"
        {"equations": [[[1]]], **layout},
        {"equations": [[[1, {}, 2]]], **layout},
        {"equations": [["a"]], **layout},
        {"equations": ["ab"], **layout},
        # two-item strings and dicts used to unpack into a coefficient and powers
        {"equations": [["1a"]], **layout},
        {"equations": [[{"a": 1, "b": 2}]], **layout},
        {"equations": [[5]], **layout},
        # used to parse, with the list as the system's metadata
        {"variables": ["a"], "equations": [], "metadata": [1, 2]},
        {"variables": ["a"], "equations": [], "metadata": "z"},
        {"variables": ["a"], "equations": [], "metadata": None},
    ):
        with pytest.raises(ValueError, match="expected an exported polynomial system"):
            parse_system(json.dumps(bad))


def test_plain_export_names_missing_metadata():
    full = build_4d_system((1, -1, 1, -1))
    assert export_system(parse_system(export_system(full)), "plain") == export_system(full, "plain")
    for key in ("candidate", "t", "admissible_rho_squared"):
        payload = json.loads(export_system(full))
        del payload["metadata"][key]
        parsed = parse_system(json.dumps(payload))
        with pytest.raises(ValueError, match=key):
            export_system(parsed, "plain")
    with pytest.raises(ValueError, match="candidate"):
        export_system(PolySystem(full.variables, full.equations, []), "plain")


def _evaluate(system, assignment):
    """Every equation's left side at an assignment of all of the system's variables."""
    return [
        sum(coeff * math.prod(assignment[name] ** e for name, e in powers.items()) for coeff, powers in eq)
        for eq in system.equations
    ]


# each example draws one point and one set of multipliers per candidate
@settings(max_examples=5)
@given(st.integers(0, 10_000))
def test_main_equation_matches_direct_evaluation(seed):
    rng = np.random.default_rng(seed)
    pairs = [(0, 3), (0, 1), (1, 2), (2, 3)]
    for z in CANDIDATES:
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
            values = _evaluate(system, assignment)
            assert values[0] == pytest.approx(float(weights @ d) + forms, abs=1e-9)
            assert max(abs(v) for v in values[1:]) < 1e-12


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


def test_lattice_directions_complete():
    for z in CANDIDATES:
        t, directions, rhs = _lattice_system(z)
        assert t == sign_changes(z, Topology.CIRCULAR)
        assert len(directions) == len(rhs) == 80
        assert directions == sorted(directions)
        assert all(any(d) for d in directions)
        for d in directions:
            moved = tuple(zi + di for zi, di in zip(z, d))
            assert all(v in (-1, 0, 1) for v in moved)


def test_admissible_radii_cover_direction_lengths():
    lengths = set()
    for z in CANDIDATES:
        for d in product(*[(-1 - zi, -zi, 1 - zi) for zi in z]):
            if any(d):
                lengths.add(sum(v * v for v in d))
    assert lengths == set(ADMISSIBLE_RHO_SQUARED)


@pytest.mark.parametrize(
    "d,expected",
    [((-2, 0, 0, 0), 8), ((-1, 0, 0, 0), 2), ((1, 1, 1, 1), 0), ((-1, 2, -1, 2), 36)],
)
def test_pair_form_values(d, expected):
    assert _pair_form(d) == expected


def test_solver_feasible_witness():
    outcome = _solve_rational_system([[1, 0], [0, 2], [1, 2]], [3, 4, 7])
    assert outcome[0] == "feasible"
    assert outcome[1] == [Fraction(3), Fraction(2)]


def test_solver_underdetermined_sets_free_to_zero():
    outcome = _solve_rational_system([[1, 1, 0]], [4])
    assert outcome == ("feasible", [Fraction(4), Fraction(0), Fraction(0)])


def test_solver_infeasible_certificate_combines_to_contradiction():
    rows = [[1, 1], [2, 2], [1, 0]]
    rhs = [1, 3, 0]
    outcome = _solve_rational_system(rows, rhs)
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
        _solve_rational_system([], [])
    with pytest.raises(ValueError):
        _solve_rational_system([[1]], [1, 2])


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


def _forced_values(zi, t):
    """The multiplier values that the two pure steps a < b on an axis with
    sign zi force, (t - 2 a^2) / a and (t - 2 b^2) / b, in closed form."""
    return {
        1: (4 - Fraction(t, 2), 2 - t),  # steps -2, -1
        0: (2 - t, t - 2),  # steps -1, 1
        -1: (t - 2, Fraction(t, 2) - 4),  # steps 1, 2: the negations, in step order
    }[zi]


def test_every_candidate_is_infeasible_with_valid_certificate():
    for z in CANDIDATES:
        result = finite_direction_feasibility(z)
        t, directions, rhs = _lattice_system(z)
        assert not result.feasible
        assert (result.t, result.n_directions) == (t, len(directions))
        cert = result.certificate
        combined = [Fraction(0)] * 4
        combined_rhs = Fraction(0)
        for idx, coeff, direction in zip(cert.equation_indices, cert.coefficients, cert.directions):
            assert directions[idx] == direction
            for c in range(4):
                combined[c] += coeff * direction[c]
            combined_rhs += coeff * rhs[idx]
        assert combined == [0, 0, 0, 0]
        assert combined_rhs == cert.value != 0


def test_forced_values_follow_the_lemma():
    for z in CANDIDATES:
        t = sign_changes(z, Topology.CIRCULAR)
        cert = finite_direction_feasibility(z).certificate
        forced = [_forced_values(zi, t) for zi in z]
        # the first axis whose two forced values differ
        assert cert.axis == next(i for i, (f_a, f_b) in enumerate(forced) if f_a != f_b)
        assert cert.forced_values == forced[cert.axis]
        assert cert.value == forced[cert.axis][0] - forced[cert.axis][1]


def test_feasibility_report_is_json_ready():
    report = feasibility_report(finite_direction_feasibility((1, -1, 1, -1)))
    text = json.dumps(report, sort_keys=True)
    assert '"feasible": false' in text
    assert report["certificate"]["forced_values"] == ["2", "-2"]
    assert report["certificate"]["directions"] == [[-2, 0, 0, 0], [-1, 0, 0, 0]]


def test_feasibility_report_writes_null_for_a_certificate_without_an_axis():
    # the dataclass defaults both fields to None, as for a certificate built by hand
    result = finite_direction_feasibility((1, -1, 1, -1))
    cert = result.certificate
    bare = Certificate(
        kind=cert.kind,
        equation_indices=cert.equation_indices,
        coefficients=cert.coefficients,
        value=cert.value,
        directions=cert.directions,
    )
    report = feasibility_report(FeasibilityResult(**{**vars(result), "certificate": bare}))
    payload = json.loads(json.dumps(report))["certificate"]
    assert payload["axis"] is None and payload["forced_values"] is None
    full = feasibility_report(result)["certificate"]
    assert {key: value for key, value in payload.items() if key not in ("axis", "forced_values")} == {
        key: value for key, value in full.items() if key not in ("axis", "forced_values")
    }


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

    # the lattice system and its elimination exist only in the oracles
    for name in ("lattice_directions", "pair_form_value", "_pair_forms", "solve_rational_system"):
        assert not hasattr(polysys, name)
    z = (1, -1, 1, -1)
    _, directions, _ = _lattice_system(z)
    monkeypatch.setattr(oracles, "_solve_rational_system", forbidden)
    monkeypatch.setattr(oracles, "_lattice_system", forbidden)
    # and the decision builds no numpy array
    monkeypatch.setattr(polysys, "np", None)
    assert grid_feasibility_summary()["infeasible"] == 81
    cert = finite_direction_feasibility(z).certificate
    assert cert.kind == "axis_conflict"
    assert tuple(directions[i] for i in cert.equation_indices) == cert.directions


def test_feasibility_validation():
    with pytest.raises(ValueError):
        finite_direction_feasibility((1, -1, 1))
    with pytest.raises(ValueError):
        finite_direction_feasibility((0, 3, 0, 0))
