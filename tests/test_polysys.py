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
from signchange.oracles import _lattice_system, _pair_form, _solvable
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


def test_parse_system_refuses_text_nested_past_the_decoder():
    # json.loads used to raise RecursionError
    with pytest.raises(ValueError, match="expected an exported polynomial system"):
        parse_system("[" * 10000 + "]" * 10000)


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


def test_json_export_refuses_values_json_cannot_encode():
    # json.dumps raised TypeError for a Fraction coefficient or metadata value
    half = Fraction(1, 2)
    for system in (
        PolySystem(("a",), (((half, {"a": 1}),),), {}),
        PolySystem(("a",), (((1, {"a": 1}),),), {"t": half}),
    ):
        with pytest.raises(ValueError, match="JSON cannot encode"):
            export_system(system)


def test_json_export_refuses_systems_holding_themselves_and_terms_that_are_not_pairs():
    looped = {"t": 1}
    looped["self"] = looped
    # json's circular-reference check said "Circular reference detected"
    with pytest.raises(ValueError):
        export_system(PolySystem(("a",), (((1, {"a": 1}),),), looped))
    for term in ((1, {"a": 1}, 2), (1,), [1, {"a": 1}, 2]):
        with pytest.raises(ValueError):
            export_system(PolySystem(("a",), ((term,),), {}))


PLAIN_METADATA = {"candidate": [1, -1, 1, -1], "t": 4, "admissible_rho_squared": [1]}


@pytest.mark.parametrize(
    "term",
    [(1, {"b": 2}), (1, {"a": -2}), (1, {"a": 1.5}), (2.5, {"a": 1}), (True, {"a": 1})],
    ids=["unlisted-variable", "negative-exponent", "float-exponent", "float-coefficient", "bool"],
)
def test_plain_export_refuses_terms_that_parse_system_refuses(term):
    # printed as "1 = 0", "1 = 0", "a^1.5 = 0", "2.5*a = 0" and "a = 0"
    system = PolySystem(("a",), (((1, {"a": 1}), term),), PLAIN_METADATA)
    with pytest.raises(ValueError):
        export_system(system, "plain")
    payload = json.loads(export_system(system))
    with pytest.raises(ValueError):
        parse_system(json.dumps(payload))


def test_plain_export_prints_terms_as_parse_system_reads_them():
    system = PolySystem(("a", "b"), (((2.0, {"a": 3.0}), (-1, {"b": 0}), (np.int64(4), {})),), PLAIN_METADATA)
    assert export_system(system, "plain").splitlines()[-1] == "2*a^3 - 1 + 4 = 0"


def _list_payload(system):
    """A system's JSON payload built from lists and dicts: the reference for the export's bytes."""
    return {
        "variables": list(system.variables),
        "equations": [[[coeff, dict(powers)] for coeff, powers in eq] for eq in system.equations],
        "metadata": system.metadata,
    }


@pytest.mark.parametrize("mu", [None, (1, 2, -3, 0), (0, 0, 0, 0)], ids=["symbolic", "mixed", "zero"])
def test_json_export_bytes_match_json_dumps_of_lists(capsys, mu):
    for z in CANDIDATES:
        system = build_4d_system(z, mu)
        payload = _list_payload(system)
        assert export_system(system) == json.dumps(payload, sort_keys=True) + "\n"
        indented = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
        assert _polysys_stdout(capsys, z, mu) == indented


# each deviation from an exported term, and the term it is read as
READ_AS = {
    "coefficient-2.0": (lambda c, p: [2.0, p], lambda c, p: [2, p]),
    "exponent-2.0": (lambda c, p: [c, {**p, "rho": 2.0}], lambda c, p: [c, {**p, "rho": 2}]),
}
REFUSED = {
    "coefficient-1.5": lambda c, p: [1.5, p],
    "exponent-1.5": lambda c, p: [c, {**p, "rho": 1.5}],
    "coefficient-true": lambda c, p: [True, p],
    "exponent-true": lambda c, p: [c, {**p, "rho": True}],
    "negative-exponent": lambda c, p: [c, {**p, "rho": -1}],
    "unlisted-variable": lambda c, p: [c, {**p, "x": 1}],
    "powers-not-a-dict": lambda c, p: [c, [["rho", 1]]],
    "three-entries": lambda c, p: [c, p, 0],
}


def _deviated(deviate, first):
    """The exported text of one 4-D system with deviate applied to its first
    term (of the first equation) or its last (of the last equation)."""
    payload = json.loads(export_system(build_4d_system((1, -1, 0, 1))))
    eq, k = (0, 0) if first else (-1, -1)
    payload["equations"][eq][k] = deviate(*payload["equations"][eq][k])
    return json.dumps(payload)


@pytest.mark.parametrize("first", [True, False], ids=["first-term", "last-term"])
@pytest.mark.parametrize("name", sorted(READ_AS))
def test_whole_system_check_reads_integral_floats_in_any_term(name, first):
    deviate, read_as = READ_AS[name]
    parsed = parse_system(_deviated(deviate, first))
    assert parsed == parse_system(_deviated(read_as, first))
    values = [v for eq in parsed.equations for c, p in eq for v in (c, *p.values())]
    assert {type(v) for v in values} == {int}


@pytest.mark.parametrize("first", [True, False], ids=["first-term", "last-term"])
@pytest.mark.parametrize("name", sorted(REFUSED))
def test_whole_system_check_refuses_a_deviation_in_any_term(name, first):
    with pytest.raises(ValueError):
        parse_system(_deviated(REFUSED[name], first))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_parse_inverts_json_export(data):
    variables = data.draw(st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True))
    # empty powers and zero exponents included
    powers = st.dictionaries(st.sampled_from(variables), st.integers(0, 6), max_size=len(variables))
    term = st.tuples(st.integers(-(10**30), 10**30), powers)
    equations = data.draw(st.lists(st.lists(term, max_size=5).map(tuple), max_size=4).map(tuple))
    metadata = data.draw(st.dictionaries(st.text(max_size=3), st.integers() | st.text(max_size=3), max_size=3))
    system = PolySystem(tuple(variables), equations, metadata)
    assert parse_system(export_system(system)) == system


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


@pytest.mark.parametrize(
    "rows,rhs,solvable",
    [
        # x = (3, 2)
        ([[1, 0], [0, 2], [1, 2]], [3, 4, 7], True),
        # underdetermined
        ([[1, 1, 0]], [4], True),
        # the second row is twice the first with 3 != 2 * 1
        ([[1, 1], [2, 2], [1, 0]], [1, 3, 0], False),
    ],
    ids=["determined", "underdetermined", "inconsistent"],
)
def test_solvable_verdicts(rows, rhs, solvable):
    assert _solvable(rows, rhs) is solvable


def test_solvable_validation():
    for rows, rhs in [([], []), ([[1]], [1, 2]), ([[1, 0], [1]], [1, 2])]:
        with pytest.raises(ValueError):
            _solvable(rows, rhs)


def test_every_lattice_system_is_unsolvable():
    assert not any(_solvable(*_lattice_system(z)[1:]) for z in CANDIDATES)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 5), st.integers(1, 6))
def test_solvable_systems_are_the_consistent_ones(data, width, height):
    entries = st.integers(-4, 4)
    solution = data.draw(st.lists(entries, min_size=width, max_size=width))
    row = st.lists(entries, min_size=width, max_size=width)
    rows = data.draw(st.lists(row, min_size=height, max_size=height))
    rhs = [sum(a * x for a, x in zip(row, solution)) for row in rows]
    assert _solvable(rows, rhs)
    # a combination of the rows with a shifted right-hand side reads 0 = shift != 0
    weights = data.draw(st.lists(entries, min_size=height, max_size=height))
    shift = data.draw(st.integers(-4, 4).filter(bool))
    combined = [sum(w * row[c] for w, row in zip(weights, rows)) for c in range(width)]
    value = sum(w * b for w, b in zip(weights, rhs)) + shift
    assert not _solvable(rows + [combined], rhs + [value])


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
    monkeypatch.setattr(oracles, "_solvable", forbidden)
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
