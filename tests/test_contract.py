"""The input contract of the public entry points.

A vector is read the same way everywhere: an exact result, or ValueError,
never OverflowError or TypeError.  A sign pattern is a vector whose entries
equal -1, 0 or 1.  Float parameters are finite and within the float64 range,
and every table stays under one row ceiling.
"""

import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import signchange
from batching import ENTRIES, EXACT_EDGES
from signchange import (
    GapParams,
    OneDProblem,
    build_4d_system,
    check_1d_condition,
    classify_point,
    count_nonzero,
    coupled_subgradient_value,
    curves_csv_1d,
    decoupled_gap,
    finite_direction_feasibility,
    frechet_inequality_probe,
    gap_profile,
    global_min_1d,
    hadamard_norm_sq,
    index_sets,
    is_count_subgradient,
    lagrangian_residual,
    lattice_directions,
    pair_counts,
    profile_csv,
    sign,
    sign_changes,
    sign_minorant_gap,
    sign_vector,
    smoothed_count,
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
    "index_sets": index_sets,
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
    "smoothed_count": lambda x: smoothed_count(x, 1e-3),
    "transition_hessian_2d": lambda x: transition_hessian_2d(list(x)[:2], 0.5),
    "frechet_inequality_probe": lambda x: frechet_inequality_probe(x, x, samples=8),
    "spherical_to_cartesian": lambda x: spherical_to_cartesian(1.0, x),
}
# read z as a sign pattern, so a pattern given as floats or Fractions is the int pattern
PATTERN_ENTRY_POINTS = {
    "lagrangian_residual": lambda z: lagrangian_residual(z, [0] * len(z), 0.5, [0] * len(z)),
    "lattice_directions": lattice_directions,
    "build_4d_system": build_4d_system,
    "finite_direction_feasibility": finite_direction_feasibility,
}

# public functions that take no vector or sign pattern, with the reason
EXEMPT = {
    "sign": "one scalar, covered by test_scalar_rule_cases",
    "transition_component": "two scalar signs, read as a sign pattern, and a weight",
    "pair_stats": "kernel on sign arrays that a reader already produced",
    "symmetric2_eigenvalues": "takes a Hessian2",
    "profile_csv": "takes a GapProfile and a step, covered by the ceiling cases",
    "pattern_grid": "an integer dimension bounded by MAX_GRID_DIM",
    "enumerate_grid": "an integer dimension bounded by MAX_GRID_DIM",
    "center_symmetry_check": "takes a GridTable",
    "run_oracle": "an oracle name",
    "list_oracles": "no argument",
    "objective_1d": "elementwise float formula on an array of any shape",
    "inequality_values_1d": "elementwise float formula on an array of any shape",
    "check_1d_condition": "a OneDProblem, a grid size and a tolerance",
    "global_min_1d": "a grid size and a OneDProblem",
    "curves_csv_1d": "a OneDProblem and a grid size",
    "multiplier_2d": "one angle",
    "multiplier_3d": "two angles",
    "surface_csv": "a selector and a resolution",
    "export_system": "takes a PolySystem",
    "parse_system": "JSON text",
    "evaluate_system": "a PolySystem and a variable assignment",
    "pair_form_value": "an integer lattice step, not a real vector",
    "solve_rational_system": "a rational matrix and right-hand side",
    "feasibility_report": "takes a FeasibilityResult",
    "grid_feasibility_summary": "no argument",
}
ENTRY_POINTS = {**SIGN_ENTRY_POINTS, **FLOAT_ENTRY_POINTS, **PATTERN_ENTRY_POINTS}


def test_every_public_function_is_covered_or_exempt():
    functions = {
        name for name in signchange.__all__ if inspect.isfunction(getattr(signchange, name))
    }
    assert not set(ENTRY_POINTS) & set(EXEMPT)
    assert functions == set(ENTRY_POINTS) | set(EXEMPT), (
        "a public function must join the contract table or be exempted with a reason"
    )


def _object_array(values):
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return arr


entries = st.one_of(ENTRIES["int"], ENTRIES["float"], ENTRIES["exact"], st.sampled_from(EXACT_EDGES))
containers = st.sampled_from([list, tuple, _object_array])


# entries near the float64 limit overflow when smoothed_count squares them
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(st.lists(entries, min_size=2, max_size=6), containers)
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


@pytest.mark.parametrize("bad", [0.5, 1.7, math.nan, "a"])
@pytest.mark.parametrize("name", sorted(PATTERN_ENTRY_POINTS))
def test_pattern_entry_points_reject_non_signs(name, bad):
    with pytest.raises(ValueError):
        PATTERN_ENTRY_POINTS[name]((bad, 1, 1, 1))


def test_scalar_rule_cases():
    # ints and Fractions are finite without a float conversion
    assert sign(10**400) == 1
    assert sign_vector([10**400, -1], tol=0.5) == (1, -1)
    with pytest.raises(ValueError):
        sign(1.0, tol=math.nan)
    with pytest.raises(ValueError):
        check_1d_condition(OneDProblem(), tol=math.nan)
    # float parameters beyond float64: ValueError, not OverflowError
    with pytest.raises(ValueError, match="float64 range"):
        OneDProblem(c1=10**400)
    with pytest.raises(ValueError, match="float64 range"):
        smoothed_count([1.0, 0.0], 10**400)
    with pytest.raises(ValueError, match="float64 range"):
        frechet_inequality_probe([1.0], [0.0], radius=10**400)
    with pytest.raises(ValueError, match="integer"):
        build_4d_system((1, -1, 1, -1), mu=[math.inf, 0, 0, 0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_wide_floats_beyond_float64_are_value_error():
    # finite as a longdouble where that is wider than float64, inf once converted
    wide = np.array([np.longdouble("1e400"), 1], dtype=np.longdouble)
    with pytest.raises(ValueError):
        sign_minorant_gap(wide)
    with pytest.raises(ValueError):
        smoothed_count(wide, 1e-3)


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
        # the Sobol draw rounds the sample count up to a power of two
        lambda: frechet_inequality_probe([1.0], [0.0], samples=2 ** (CEILING.bit_length() - 1) + 1),
    ],
    ids=["surface_2d", "surface_3d", "profile", "check_1d", "curves_1d", "global_min_1d", "probe"],
)
def test_row_ceiling_refuses_the_next_size(call):
    with pytest.raises(ValueError, match=f"rows; it needs .* to {CEILING}"):
        call()
