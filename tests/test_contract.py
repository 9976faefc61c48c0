"""The input contract of the public entry points.

A vector is read the same way everywhere: an exact result, or ValueError,
never OverflowError or TypeError, and its entries follow the scalar rule of
sign, so nan or inf at any position is refused as such.  A sign pattern is
a vector whose entries equal -1, 0 or 1.  Float parameters are finite and
within the float64 range, count parameters are integral values, and every
table stays under one row ceiling.
"""

import inspect
import json
import math
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
    OneDProblem,
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
    pattern_grid,
    profile_csv,
    sign,
    sign_changes,
    sign_minorant_gap,
    sign_vector,
    smoothed_sign_changes,
    spherical_to_cartesian,
    surface_csv,
    transition_hessian_2d,
    transition_map,
    transition_norm_sq,
    zero_direction_gap,
)

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

# public functions that take no vector or sign pattern, with the reason
EXEMPT = {
    "sign": "one scalar, covered by test_scalar_rule_cases",
    "symmetric2_eigenvalues": "takes a Hessian2",
    "profile_csv": "takes a GapProfile and a step, covered by the ceiling and scalar rule cases",
    "pattern_grid": "an integer dimension bounded by MAX_GRID_DIM",
    "enumerate_grid": "an integer dimension bounded by MAX_GRID_DIM",
    "center_symmetry_check": "takes a GridTable",
    "run_oracle": "an oracle name",
    "list_oracles": "no argument",
    "objective_1d": "elementwise float formula on an array of any shape, covered by "
    "test_scalar_rule_cases",
    "inequality_values_1d": "elementwise float formula on an array of any shape, covered by "
    "test_scalar_rule_cases",
    "check_1d_condition": "a OneDProblem, a grid size and a tolerance",
    "global_min_1d": "a grid size",
    "curves_csv_1d": "a OneDProblem and a grid size",
    "multiplier_2d": "one angle",
    "multiplier_3d": "two angles",
    "surface_csv": "a selector and a resolution",
    "export_system": "takes a PolySystem",
    "parse_system": "JSON text, covered in test_polysys.py",
    "feasibility_report": "takes a FeasibilityResult",
    "grid_feasibility_summary": "no argument",
}
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
    assert not set(ENTRY_POINTS) & set(EXEMPT)
    assert functions == set(ENTRY_POINTS) | set(EXEMPT), (
        "a public function must join the contract table or be exempted with a reason"
    )


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


@pytest.mark.parametrize("container", [list, tuple, object_array], ids=["list", "tuple", "object"])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_non_finite_entries_are_refused_at_every_position(name, container):
    for bad in NON_FINITE:
        for i in range(ENTRIES_READ.get(name, len(MIXED))):
            values = list(MIXED)
            values[i] = bad
            with pytest.raises(ValueError, match="finite"):
                ENTRY_POINTS[name](container(values))


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
    # a bool array is read as 1 and 0
    assert sign_vector(np.array([True, False])) == (1, 0)
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


def test_wide_floats_beyond_float64_are_value_error():
    # finite as a longdouble where that is wider than float64, inf once converted,
    # and refused without a RuntimeWarning from the cast
    wide = np.array([np.longdouble("1e400"), 1], dtype=np.longdouble)
    with pytest.raises(ValueError):
        sign_minorant_gap(wide)
    with pytest.raises(ValueError):
        transition_hessian_2d(wide, 0.5)


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
