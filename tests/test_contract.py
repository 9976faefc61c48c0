"""The input contract of the public entry points.

A vector is read the same way everywhere: an exact result, or ValueError,
never OverflowError or TypeError, and its entries follow the scalar rule of
sign, so nan or inf at any position is refused as such.  A sign pattern is
a vector whose entries equal -1, 0 or 1.  Float parameters are finite and
within the float64 range, count parameters are integral values, and every
table stays under one row ceiling.  A function that takes no vector is
called with extreme values in each of its own arguments instead.
"""

import inspect
import json
import math
import re
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import signchange
from batching import LIST_ENTRIES, object_array
from signchange import (
    GapParams,
    GapProfile,
    Hessian2,
    OneDProblem,
    PolySystem,
    Topology,
    build_4d_system,
    center_symmetry_check,
    check_1d_condition,
    classify_point,
    count_nonzero,
    coupled_subgradient_value,
    curves_csv_1d,
    decoupled_gap,
    enumerate_grid,
    export_system,
    feasibility_report,
    finite_direction_feasibility,
    gap_profile,
    global_min_1d,
    hadamard_norm_sq,
    inequality_values_1d,
    is_count_subgradient,
    lagrangian_residual,
    multiplier_2d,
    multiplier_3d,
    objective_1d,
    pair_counts,
    parse_system,
    pattern_grid,
    profile_csv,
    run_oracle,
    sign,
    sign_changes,
    sign_minorant_gap,
    sign_vector,
    smoothed_sign_changes,
    spherical_to_cartesian,
    surface_csv,
    symmetric2_eigenvalues,
    transition_hessian_2d,
    transition_map,
    transition_norm_sq,
    zero_direction_gap,
)
from signchange.counting import _BLOCK, _SIGN_PIECE

PARAMS = GapParams(Fraction(1, 4), Fraction(1))

# depend on x only through its signs, so the call on x equals the call on them
SIGN_ENTRY_POINTS = {
    "sign_vector": sign_vector,
    "count_nonzero": count_nonzero,
    "is_count_subgradient": lambda x: is_count_subgradient(x, x),
    "transition_map": lambda x: transition_map(x, Fraction(1, 3)),
    "sign_changes": sign_changes,
    "pair_counts": pair_counts,
    "transition_norm_sq": lambda x: transition_norm_sq(x, Fraction(1, 3)),
    "hadamard_norm_sq": lambda x: hadamard_norm_sq(x, 0.5),
    "smoothed_sign_changes": lambda x: smoothed_sign_changes(x, 1e-3),
    "coupled_subgradient_value": coupled_subgradient_value,
    # x + x has the signs of x
    "decoupled_gap": lambda x: decoupled_gap(x, x, PARAMS),
    "zero_direction_gap": lambda x: zero_direction_gap(x, PARAMS),
    "gap_profile": lambda x: gap_profile(x, x, 1),
    "classify_point": classify_point,
}
# read x as float64 or as magnitudes: a value or ValueError, nothing exact to compare
FLOAT_ENTRY_POINTS = {
    "sign_minorant_gap": sign_minorant_gap,
    "transition_hessian_2d": lambda x: transition_hessian_2d(list(x)[:2], 0.5),
    "spherical_to_cartesian": lambda x: spherical_to_cartesian(1.0, x),
}
# read z as a sign pattern, so a pattern given as floats or Fractions is the int pattern
PATTERN_ENTRY_POINTS = {
    "lagrangian_residual": lambda z: lagrangian_residual(z, [0] * len(z), 0.5, [0] * len(z)),
    "build_4d_system": build_4d_system,
    "finite_direction_feasibility": finite_direction_feasibility,
}

# every extreme value one argument is called with: non-finite, beyond float64 either way,
# below its smallest subnormal, bools, strings and negative values, one of them a float32
EXTREMES = (
    math.nan, math.inf, -math.inf, 10**400, -(10**400), Fraction(1, 10**400),
    True, False, "1.5", "a", -1, -2.5, np.float32(-1.5),
)
PROFILE = gap_profile((1, -1), (0, 0), 1)
FEASIBILITY = finite_direction_feasibility((1, -1, 1, -1))
SYSTEM_TEXT = '{"variables": ["a"], "equations": [[[%s, {"a": 1}]]], "metadata": {}}'
PLAIN_METADATA = {"candidate": [1, -1, 1, -1], "t": 4, "admissible_rho_squared": [1]}


def holding_itself(value) -> dict:
    """Metadata that holds the value and itself."""
    metadata = {"value": value}
    metadata["self"] = metadata
    return metadata


# public functions that take no vector or sign pattern, one call per argument of its own
# type, each taking one extreme value; an object argument that a library call builds is
# built by it at the extreme value, and a dataclass is given it in one field
EXTREME_CALLS = {
    # one scalar, also covered by test_scalar_rule_cases
    "sign": [sign],
    "symmetric2_eigenvalues": [
        lambda v: symmetric2_eigenvalues(Hessian2(v, 0.0, 0.0, 0.5)),
        lambda v: symmetric2_eigenvalues(Hessian2(1.0, v, 0.0, 0.5)),
        lambda v: symmetric2_eigenvalues(Hessian2(1.0, 0.0, v, 0.5)),
    ],
    "profile_csv": [
        lambda v: profile_csv(PROFILE, step=v),
        lambda v: profile_csv(gap_profile((1, -1), (0, 0), v)),
        lambda v: profile_csv(GapProfile(v, 1, 0, 1)),
        lambda v: profile_csv(GapProfile(0, v, 0, 1)),
        lambda v: profile_csv(GapProfile(0, 1, v, 1)),
        lambda v: profile_csv(GapProfile(0, 1, 0, v)),
    ],
    # an integer dimension bounded by grid.MAX_GRID_DIM
    "pattern_grid": [pattern_grid],
    "enumerate_grid": [enumerate_grid],
    "center_symmetry_check": [lambda v: center_symmetry_check(enumerate_grid(3), v)],
    # an oracle name; any name no oracle has raises KeyError instead
    "run_oracle": [run_oracle],
    # elementwise float formulas on an array of any shape
    "objective_1d": [objective_1d, lambda v: objective_1d([1.0, v])],
    "inequality_values_1d": [
        lambda v: inequality_values_1d(OneDProblem(), v),
        lambda v: inequality_values_1d(OneDProblem(c1=v), 1.0),
        lambda v: inequality_values_1d(OneDProblem(sigma=v), 1.0),
    ],
    "check_1d_condition": [
        lambda v: check_1d_condition(OneDProblem(c1=v), grid_points=100),
        lambda v: check_1d_condition(OneDProblem(sigma=v), grid_points=100),
        lambda v: check_1d_condition(OneDProblem(), grid_points=v),
        lambda v: check_1d_condition(OneDProblem(), grid_points=100, tol=v),
    ],
    "global_min_1d": [global_min_1d],
    "curves_csv_1d": [
        lambda v: curves_csv_1d(OneDProblem(c1=v), grid_points=100),
        lambda v: curves_csv_1d(OneDProblem(), grid_points=v),
    ],
    "multiplier_2d": [multiplier_2d],
    "multiplier_3d": [lambda v: multiplier_3d(v, 1.0), lambda v: multiplier_3d(1.0, v)],
    "surface_csv": [
        surface_csv,
        lambda v: surface_csv("2d", resolution=v),
        lambda v: surface_csv("3d", resolution=v),
    ],
    "export_system": [
        lambda v: export_system(build_4d_system((1, -1, 1, -1)), fmt=v),
        lambda v: export_system(build_4d_system((1, -1, 1, -1), mu=[v, 0, 0, 0])),
        # a system built by hand: a term of three entries, metadata that holds itself,
        # and plain export of the value as a coefficient and as an exponent
        lambda v: export_system(PolySystem(("a",), (((1, {"a": 1}, v),),), {})),
        lambda v: export_system(PolySystem(("a",), (((1, {"a": 1}),),), holding_itself(v))),
        lambda v: export_system(PolySystem(("a",), (((v, {"a": 1}),),), PLAIN_METADATA), "plain"),
        lambda v: export_system(PolySystem(("a",), (((1, {"a": v}),),), PLAIN_METADATA), "plain"),
        # plain export of the value as a whole term, and as the whole list of equations
        lambda v: export_system(PolySystem(("a",), ((v,),), PLAIN_METADATA), "plain"),
        lambda v: export_system(PolySystem(("a",), v, PLAIN_METADATA), "plain"),
    ],
    # JSON text, and the extreme values as the text's coefficient; more in test_polysys.py
    "parse_system": [parse_system, lambda v: parse_system(SYSTEM_TEXT % (v,))],
    "feasibility_report": [
        lambda v: feasibility_report(replace(FEASIBILITY, t=v)),
        lambda v: feasibility_report(replace(FEASIBILITY, feasible=v)),
        lambda v: feasibility_report(
            replace(FEASIBILITY, certificate=replace(FEASIBILITY.certificate, value=v))
        ),
    ],
}
# extra arguments of one type: a real beyond float64 that numpy holds, text nested deeper
# than json's decoder recurses, an exported system with a coefficient beyond float64, and
# names that are no string
EXTRA_EXTREMES = {
    # finite as a longdouble wider than float64, inf as a float
    "profile_csv": (np.longdouble("1e400"),),
    "parse_system": ("[" * 10000 + "]" * 10000, SYSTEM_TEXT % "1e400", SYSTEM_TEXT % "NaN"),
    "run_oracle": ([], None, ("hessian_table",)),
}

# public functions that take no argument at all
EXEMPT = {"list_oracles", "grid_feasibility_summary"}
ENTRY_POINTS = {**SIGN_ENTRY_POINTS, **FLOAT_ENTRY_POINTS, **PATTERN_ENTRY_POINTS}
# every reader of float64 entries: the table above and the elementwise 1-D formulas
FLOAT_READERS = {
    **FLOAT_ENTRY_POINTS,
    "objective_1d": objective_1d,
    "inequality_values_1d": lambda x: inequality_values_1d(OneDProblem(), x),
    "multiplier": OneDProblem().multiplier,
}


def test_every_public_function_is_covered_or_exempt():
    functions = {
        name for name in signchange.__all__ if inspect.isfunction(getattr(signchange, name))
    }
    tables = (set(ENTRY_POINTS), set(EXTREME_CALLS), EXEMPT)
    assert sum(map(len, tables)) == len(set().union(*tables))
    assert functions == set().union(*tables), (
        "a public function must join a contract table, or take no argument"
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(EXTREME_CALLS))
def test_calls_at_extreme_values_return_or_raise_value_error(name):
    refused = KeyError if name == "run_oracle" else ValueError
    for call in EXTREME_CALLS[name]:
        for value in EXTREMES + EXTRA_EXTREMES.get(name, ()):
            try:
                call(value)
            except refused:
                pass


containers = st.sampled_from([list, tuple, object_array])


@given(st.lists(LIST_ENTRIES, min_size=2, max_size=6), containers)
def test_vector_entry_points_are_exact_or_value_error(values, container):
    signs = [1 if v > 0 else -1 if v < 0 else 0 for v in values]
    for name, call in ENTRY_POINTS.items():
        try:
            result = call(container(values))
        except ValueError:
            continue
        if name in SIGN_ENTRY_POINTS:
            assert result == call(signs), name
        elif name in PATTERN_ENTRY_POINTS:
            assert values == signs, name
            assert result == call(tuple(signs)), name
    # every entry of LIST_ENTRIES has a sign, one by one and as a vector
    assert sign_vector(container(values)) == tuple(signs)
    assert tuple(sign(v) for v in values) == tuple(signs)


NON_FINITE = (math.nan, math.inf, -math.inf)
# int, Fraction and float entries; length 4 is the length the 4-D pattern readers need
MIXED = (1, Fraction(-1, 2), 0.5, -3)
# the lambda in FLOAT_ENTRY_POINTS passes only the first two entries on
ENTRIES_READ = {"transition_hessian_2d": 2}


def float_array(values):
    """values as a float64 array."""
    return np.array(values, dtype=float)


@pytest.mark.parametrize(
    "container", [list, tuple, object_array, float_array], ids=["list", "tuple", "object", "float"]
)
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_non_finite_entries_are_refused_at_every_position(name, container):
    for bad in NON_FINITE:
        for i in range(ENTRIES_READ.get(name, len(MIXED))):
            values = list(MIXED)
            values[i] = bad
            with pytest.raises(ValueError, match="finite"):
                ENTRY_POINTS[name](container(values))


# the ends of the first block of a float array that is signed and counted block by
# block, and its last entry
BLOCK_POSITIONS = (0, _BLOCK - 1, _BLOCK, _SIGN_PIECE + 1)
# the message a non-finite entry of a float array is refused with; transition_hessian_2d
# reads a list of its first two entries as float64
NOT_FINITE_MESSAGES = {"transition_hessian_2d": "entries must be finite real numbers within the float64 range"}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_non_finite_entries_of_long_float_arrays_are_refused_at_block_edges(name):
    message = NOT_FINITE_MESSAGES.get(name, "vector entries must be finite")
    for bad in NON_FINITE:
        for i in (i for i in BLOCK_POSITIONS if i < ENTRIES_READ.get(name, math.inf)):
            x = np.resize(np.array([1.0, -0.5, 0.0, 2.0]), BLOCK_POSITIONS[-1] + 1)
            x[i] = bad
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                ENTRY_POINTS[name](x)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_displacement_sums_refuse_non_finite_entries(bad):
    # an exact entry beside a float one adds through Fraction, which holds no nan or inf
    pairs = [
        ([bad, 1], [Fraction(1), 0]),
        ([1, 0], [bad, Fraction(1)]),
        ([Fraction(1, 3), 1], [1, bad]),
    ]
    for x, d in pairs:
        for call in (
            lambda: decoupled_gap(x, d, PARAMS),
            lambda: gap_profile(x, d, 1),
            # a batch of object rows adds row by row
            lambda: decoupled_gap(np.array([x, x], dtype=object), np.array([d, d], dtype=object), PARAMS),
        ):
            with pytest.raises(ValueError, match="finite"):
                call()


def test_numpy_integer_entries_count_at_their_python_values():
    # 2^62 + 2^62 wraps in int64, and a Fraction of an np.int64 has no bit_length
    big = np.int64(2**62)
    assert decoupled_gap([1, big], [1, big], PARAMS) == decoupled_gap([1, 1], [1, 1], PARAMS)
    assert sign_minorant_gap([np.int64(3), 1]) == sign_minorant_gap([3, 1])


# a sign pattern is an integer vector with entries in -1..1, so 2 and -2 are refused too
@pytest.mark.parametrize("bad", [0.5, 1.7, math.nan, "a", 2, -2])
@pytest.mark.parametrize("name", sorted(PATTERN_ENTRY_POINTS))
def test_pattern_entry_points_reject_non_signs(name, bad):
    with pytest.raises(ValueError):
        PATTERN_ENTRY_POINTS[name]((bad, 1, 1, 1))


def test_scalar_rule_cases():
    # ints and Fractions are finite without a float conversion
    assert sign(10**400) == 1
    assert sign_vector([10**400, -1]) == (1, -1)
    assert sign_vector([np.float32(1), 10**400]) == (1, 1)
    # a bool array is read as 1 and 0, and so are Python and numpy bools
    assert sign_vector(np.array([True, False])) == (1, 0)
    assert sign_changes([np.True_, np.False_]) == sign_changes([True, False]) == 2
    assert sign_changes(np.array([True, False])) == count_nonzero((np.True_, 1.0, np.False_)) == 2
    # a longdouble is not rounded to float64 where that type is wider
    tiny = np.longdouble("1e-400")
    assert sign(tiny) == int(tiny > 0)
    assert count_nonzero([tiny]) == count_nonzero(object_array([tiny])) == int(tiny > 0)
    assert sign_vector(np.array([tiny, -3 * tiny])) == (int(tiny > 0), -int(tiny > 0))
    assert sign_vector([tiny, -3 * tiny]) == (int(tiny > 0), -int(tiny > 0))
    # a grid dimension is an integral value: 4.0 counts as 4
    assert pattern_grid(4.0).shape == (81, 4)
    assert enumerate_grid(Fraction(4)).n == 4
    # so is a symmetry threshold, which the JSON summary holds as a plain int
    summary = enumerate_grid(3).json_summary(threshold=np.int64(2))
    assert type(summary["symmetry"]["threshold"]) is int
    assert json.loads(json.dumps(summary)) == enumerate_grid(3).json_summary(threshold=2)
    with pytest.raises(ValueError):
        check_1d_condition(OneDProblem(), tol=math.nan)
    # float parameters beyond float64: ValueError, not OverflowError
    with pytest.raises(ValueError, match="float64 range"):
        OneDProblem(c1=10**400)
    with pytest.raises(ValueError, match="float64 range"):
        smoothed_sign_changes([1.0, 0.0], 10**400)
    with pytest.raises(ValueError, match="finite"):
        build_4d_system((1, -1, 1, -1), mu=[math.inf, 0, 0, 0])
    # an open angle can still take a multiplier beyond float64: 8 sin(phi1) sin(phi2)
    # underflows to 0, or the quotient overflows
    for angles in [(1e-200, 1e-200), (1.0, 5e-324)]:
        with pytest.raises(ValueError, match="float64 range"):
            multiplier_3d(*angles)
    # the documented cancellation: the limit 3 phi is 1.5e-323, the numerator rounds to 0
    assert multiplier_2d(5e-324) == 0.0
    # gap weights and array entries: ValueError, not TypeError or OverflowError
    for call in (
        lambda: GapParams(k_y="a", k_x=1),
        lambda: GapParams(k_y=Fraction(1, 4), k_x="a"),
        lambda: gap_profile((1, -1), (0, 0), "a"),
        lambda: GapProfile(0, 1, 0, 1).value("a"),
        lambda: GapProfile(0, 1, 0, 1).value(math.nan),
        lambda: objective_1d(10**400),
        lambda: objective_1d([1.0, 10**400]),
        lambda: inequality_values_1d(OneDProblem(), 10**400),
        lambda: OneDProblem().multiplier(10**400),
        # a symmetry threshold: ValueError, not a NaN token or a vacuous True
        lambda: enumerate_grid(3).json_summary(threshold=math.nan),
        # refused before numpy compares the table with it (a UFuncTypeError)
        lambda: enumerate_grid(3).json_summary(threshold="a"),
        # t is an integer: a fractional threshold is refused, not written as a Fraction
        lambda: enumerate_grid(3).json_summary(threshold=Fraction(3, 2)),
        lambda: center_symmetry_check(enumerate_grid(3), math.inf),
        # a grid dimension: ValueError, not numpy's negative-power error or
        # TypeError, and a huge one is refused before 3^n is formed
        lambda: pattern_grid(2.5),
        lambda: pattern_grid(10**400),
        lambda: enumerate_grid("3"),
        lambda: enumerate_grid(math.nan),
        # a topology name: ValueError, not AttributeError
        lambda: Topology.from_name(3),
        # vector entries follow the scalar rule: a Decimal is no numbers.Real, as for sign
        lambda: sign(Decimal(1)),
        lambda: count_nonzero([Decimal(1), 1]),
        lambda: count_nonzero([Decimal("NaN"), 1]),
        lambda: decoupled_gap([Decimal("sNaN"), 1], [1, 0], PARAMS),
        # an infinite profile step: ValueError, not OverflowError from Fraction(inf)
        lambda: profile_csv(gap_profile((1, -1), (0, 0), 1), step=math.inf),
        # a gap value beyond float64, printed as a float: ValueError, not OverflowError
        lambda: profile_csv(gap_profile((1, -1), (0, 0), 10**400)),
    ):
        with pytest.raises(ValueError):
            call()
    # the float64 readers follow the same entry rule: no string is parsed and
    # no Decimal or complex entry is converted
    for call in FLOAT_READERS.values():
        for bad in ("1.5", Decimal("1.5"), 1 + 2j):
            for container in (list, tuple, object_array):
                for values in ([bad, 0.5], [0.5, bad]):
                    with pytest.raises(ValueError):
                        call(container(values))


def test_narrow_numpy_float_parameters_are_read_without_a_cast():
    # the range check compared a float32 with float64's max, which numpy cast to
    # float32 with an overflow warning
    assert OneDProblem(c1=np.float32(1.5)).c1 == 1.5
    assert smoothed_sign_changes([1.0, 0.0], np.float16(0.5)) == smoothed_sign_changes([1.0, 0.0], 0.5)
    assert symmetric2_eigenvalues(Hessian2(np.float32(2.0), 0.0, 0.0, 0.5)) == (2.0, 0.0)


# the batch forms that take one weight or a sequence of one weight per row
PER_ROW_WEIGHTS = {"transition_norm_sq": transition_norm_sq, "hadamard_norm_sq": hadamard_norm_sq}
ROWS = np.array([[1, -1, 0], [1, 1, -1]])


@pytest.mark.parametrize("name", sorted(PER_ROW_WEIGHTS))
def test_per_row_weights_are_one_finite_weight_per_row(name):
    call = PER_ROW_WEIGHTS[name]
    for x, ks in [
        # a sequence of the wrong length
        (ROWS, [0.5]),
        (ROWS, (0.5, 0.5, 0.5)),
        # a 2-D weight array, as an array or as nested lists
        (ROWS, np.full((2, 1), 0.5)),
        (ROWS, [[0.5], [0.5]]),
        # a per-row sequence beside one vector
        (ROWS[0], [0.5, 0.5, 0.5]),
        ([1, -1, 0], [0.5]),
        # each weight follows the scalar rule
        (ROWS, [0.5, math.nan]),
        (ROWS, [math.inf, 0.5]),
        (ROWS, np.array([0.5, -math.inf])),
        (ROWS, object_array([0.5, "a"])),
    ]:
        with pytest.raises(ValueError):
            call(x, ks)


def test_per_row_weights_beyond_float64():
    # hadamard_norm_sq reads each weight as a float, transition_norm_sq keeps it exact
    with pytest.raises(ValueError, match="float64 range"):
        hadamard_norm_sq(ROWS, [0.5, 10**400])
    values = transition_norm_sq(ROWS, [10**400, 1]).tolist()
    assert values == [transition_norm_sq(ROWS[0], 10**400), transition_norm_sq(ROWS[1], 1)]
    assert values == [2 + 4 * 10**800, 8]


# the gaps take one GapParams or a nonempty list or tuple of them
GAP_CALLS = {
    "decoupled_gap": lambda x, params: decoupled_gap(x, np.zeros_like(x), params),
    "zero_direction_gap": zero_direction_gap,
}


@pytest.mark.parametrize("name", sorted(GAP_CALLS))
def test_gap_weight_pairs_are_gap_params(name):
    call = GAP_CALLS[name]
    for x in (ROWS, ROWS[0]):
        for params in (
            [],
            (),
            [PARAMS, (Fraction(1, 4), 1)],
            (PARAMS, None),
            [PARAMS, [PARAMS]],
            (Fraction(1, 4), 1),
            np.array([PARAMS]),
            "ab",
        ):
            with pytest.raises(ValueError):
                call(x, params)
    # the positive branch binds the closed form only
    pairs = [PARAMS, GapParams(Fraction(-1, 4), 1)]
    if name == "zero_direction_gap":
        with pytest.raises(ValueError, match="positive branch"):
            call(ROWS, pairs)
    else:
        assert call(ROWS, pairs).shape == (2, 2)


def test_wide_floats_beyond_float64_are_value_error():
    # finite as a longdouble where that is wider than float64, inf once converted,
    # and refused without a RuntimeWarning from the cast
    wide = np.array([np.longdouble("1e400"), 1], dtype=np.longdouble)
    with pytest.raises(ValueError):
        sign_minorant_gap(wide)
    with pytest.raises(ValueError):
        transition_hessian_2d(wide, 0.5)


# a float weight beside an int or Fraction weight beyond float64: Python raised
# OverflowError where the two met, in a gap formula, in k_y +- k_x or in a profile value
HUGE = GapParams(0.5, 10**400)
MIXED_BEYOND_FLOAT64 = {
    "decoupled_int": lambda: decoupled_gap([1, -1], [0, 0], HUGE),
    "decoupled_fraction": lambda: decoupled_gap([1, -1], [0, 0], GapParams(0.5, Fraction(10**400, 3))),
    "decoupled_batch_list": lambda: decoupled_gap(ROWS, np.zeros_like(ROWS), [PARAMS, HUGE]),
    "zero_direction": lambda: zero_direction_gap([1, -1], HUGE),
    "zero_direction_batch": lambda: zero_direction_gap(ROWS, HUGE),
    "zero_direction_list": lambda: zero_direction_gap([1, -1], [PARAMS, HUGE]),
    "profile_value": lambda: GapProfile(0, 1, -(10**400), 1).value(0.25),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(MIXED_BEYOND_FLOAT64))
def test_float_weights_meeting_exact_ones_beyond_float64(name):
    with pytest.raises(ValueError, match="leaves the float64 range"):
        MIXED_BEYOND_FLOAT64[name]()


@pytest.mark.filterwarnings("error")
@pytest.mark.skipif(
    np.finfo(np.longdouble).max == np.finfo(np.float64).max, reason="longdouble is float64 here"
)
def test_longdouble_weights_beyond_float64_are_finite():
    # finite in its own precision, as sign_vector reads it: the Fraction of its value
    wide, tiny = np.longdouble("1e400"), np.longdouble("1e-400")
    exact = Fraction(*wide.as_integer_ratio())
    assert sign_vector([wide, -1]) == (1, -1)
    assert transition_norm_sq([1, -1], wide) == transition_norm_sq([1, -1], exact)
    assert GapParams(0.5, wide).k_x == exact
    assert gap_profile([1, -1], [0, 0], wide) == gap_profile([1, -1], [0, 0], exact)
    # a longdouble profile weight or step compares with the Fraction bounds (was TypeError)
    assert GapProfile(0, 1, 0, 1).value(tiny) == 4 * Fraction(*tiny.as_integer_ratio()) ** 2
    for step in (wide, tiny):
        with pytest.raises(ValueError):
            profile_csv(gap_profile([1, -1], [0, 0], 1), step=step)


# 3^12 rows, the n = 12 pattern grid; each case asks for one row past it
CEILING = 3**12


@pytest.mark.parametrize(
    "call",
    [
        lambda: surface_csv("2d", resolution=CEILING + 1),
        lambda: surface_csv("3d", resolution=math.isqrt(CEILING) + 1),
        lambda: profile_csv(gap_profile((1, -1), (0, 0), 1), step=Fraction(1, 2 * (CEILING + 1))),
        lambda: check_1d_condition(OneDProblem(), grid_points=CEILING + 1),
        lambda: curves_csv_1d(OneDProblem(), grid_points=CEILING + 1),
        lambda: global_min_1d(grid_points=CEILING + 1),
        # 3^13 completions of 13 zeros, counted when they are read
        lambda: classify_point([0.0] * 13).reachable,
    ],
    ids=[
        "surface_2d",
        "surface_3d",
        "profile",
        "check_1d",
        "curves_1d",
        "global_min_1d",
        "classify",
    ],
)
def test_row_ceiling_refuses_the_next_size(call):
    with pytest.raises(ValueError, match=f"rows; it needs .* to {CEILING}"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda count: check_1d_condition(OneDProblem(), grid_points=count),
        lambda count: global_min_1d(grid_points=count),
        lambda count: curves_csv_1d(OneDProblem(), grid_points=count),
        lambda count: surface_csv("2d", resolution=count),
    ],
    ids=["check_1d", "global_min_1d", "curves_1d", "surface_2d"],
)
def test_count_parameters_read_integral_values(call):
    # an integral value counts as its int; anything else is ValueError, not TypeError
    assert call(200.0) == call(200)
    assert call(Fraction(200)) == call(200)
    for bad in (2.5, 16.5, 100.5, math.nan, math.inf, "20", None, 1 + 2j):
        with pytest.raises(ValueError, match="integer count"):
            call(bad)
