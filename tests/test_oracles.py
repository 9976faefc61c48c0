import hashlib
import inspect
import json
import math
import sys
import tracemalloc
from dataclasses import asdict, replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import signchange
from signchange import oracles
from signchange.counting import sign_minorant_gap
from signchange.oracles import (
    EXPECTED_2EIG_UPPER,
    GridTable,
    Label,
    center_symmetry_check,
    classify_point,
    enumerate_grid,
    expected_double_eigenvalues,
    list_oracles,
    pattern_grid,
    run_oracle,
)
from signchange.polysys import finite_direction_feasibility
from signchange.subgradients import coupled_subgradient_value, decoupled_gap, zero_direction_gap
from signchange.transitions import (
    Topology,
    hadamard_norm_sq,
    pair_counts,
    pair_stats,
    sign_changes,
    smoothed_sign_changes,
    symmetric2_eigenvalues,
    transition_norm_sq,
)

dims = st.integers(min_value=2, max_value=6)


def test_pattern_grid_matches_product_order():
    grid = pattern_grid(3)
    expected = list(product((-1, 0, 1), repeat=3))
    assert [tuple(int(v) for v in row) for row in grid] == expected


@given(dims)
def test_pattern_grid_negation_is_reversal(n):
    grid = pattern_grid(n)
    assert np.array_equal(-grid, grid[::-1])


def test_pattern_grid_bounds():
    with pytest.raises(ValueError):
        pattern_grid(1)
    with pytest.raises(ValueError):
        pattern_grid(13)


@given(dims, st.sampled_from(list(Topology)))
def test_pattern_stats_match_scalar_counts(n, topo):
    grid = pattern_grid(n)
    weak, flips = pair_stats(grid, topo)
    for r in range(0, len(grid), max(1, len(grid) // 40)):
        pattern = tuple(int(v) for v in grid[r])
        assert (int(weak[r]), int(flips[r])) == pair_counts(pattern, topo)


def test_enumerate_grid_n2_circular_values():
    table = enumerate_grid(2, Topology.CIRCULAR)
    values = {pattern: t for pattern, t in table.rows()}
    assert len(values) == 9
    assert values[(1, 1)] == 0
    assert values[(1, -1)] == 2
    assert values[(1, 0)] == 2
    assert values[(0, 0)] == 0
    # circular n=2 visits each unordered pair twice, so t is even
    assert all(t % 2 == 0 for t in values.values())


def test_enumerate_grid_n4_circular_census():
    table = enumerate_grid(4, Topology.CIRCULAR)
    hist = table.histogram()
    assert hist == {0: 3, 2: 36, 3: 24, 4: 18}
    top = [pattern for pattern, t in table.rows() if t == 4]
    assert len(top) == 18
    full_support = [p for p in top if all(v != 0 for v in p)]
    assert sorted(full_support) == [(-1, 1, -1, 1), (1, -1, 1, -1)]
    zero_change = [pattern for pattern, t in table.rows() if t == 0]
    assert sorted(zero_change) == [(-1, -1, -1, -1), (0, 0, 0, 0), (1, 1, 1, 1)]


@pytest.mark.parametrize("topology", list(Topology))
@pytest.mark.parametrize("n", range(2, 9))
def test_census_matches_the_transfer_matrix_closed_form(n, topology):
    # the transfer matrix (1 - y) I + y J has eigenvalues 1 + 2y and 1 - y (twice),
    # so the y^t coefficient of (1 + 2y)^n + 2 (1 - y)^n counts the circle and
    # that of 3 (1 + 2y)^(n - 1) the path
    if topology is Topology.CIRCULAR:
        counts = [math.comb(n, t) * (2**t + 2 * (-1) ** t) for t in range(n + 1)]
    else:
        counts = [3 * math.comb(n - 1, t) * 2**t for t in range(n)]
    expected = {t: c for t, c in enumerate(counts) if c}
    assert enumerate_grid(n, topology).histogram() == expected


@pytest.mark.parametrize(
    "n,threshold",
    [(4, 3), (2, 0), (3, 1)],
)
def test_center_symmetry_sample_points(n, threshold):
    table = enumerate_grid(n, Topology.CIRCULAR)
    assert center_symmetry_check(table, threshold)


@given(dims, st.sampled_from(list(Topology)), st.integers(min_value=-1, max_value=6))
def test_center_symmetry_any_threshold(n, topo, threshold):
    # negation invariance of the count makes every threshold symmetric
    assert center_symmetry_check(enumerate_grid(n, topo), threshold)


def test_first_component_slices_partition_rows():
    table = enumerate_grid(4, Topology.CIRCULAR)
    slices = table.first_component_slices()
    assert slices == {-1: (0, 27), 0: (27, 54), 1: (54, 81)}
    for z1, (lo, hi) in slices.items():
        assert all(int(p[0]) == z1 for p in table.patterns[lo:hi])


def test_to_csv_layout_and_slice():
    table = enumerate_grid(2, Topology.CIRCULAR)
    lines = table.to_csv().strip().split("\n")
    assert lines[0] == "z1,z2,t"
    assert lines[1] == "-1,-1,0"
    assert len(lines) == 10
    sliced = table.to_csv(first_component=1).strip().split("\n")
    assert len(sliced) == 4
    assert all(line.startswith("1,") for line in sliced[1:])
    with pytest.raises(ValueError):
        table.to_csv(first_component=2)


def test_json_summary_contents():
    summary = enumerate_grid(4, Topology.CIRCULAR).json_summary()
    assert summary["rows"] == 81
    assert summary["histogram"]["4"] == 18
    assert summary["symmetry"]["threshold"] == 3
    assert summary["symmetry"]["closed_under_negation"] is True
    assert summary["symmetry"]["count_above"] == 18


def test_classify_no_zero_stationary():
    result = classify_point((1.0, -1.0))
    assert result.label is Label.NO_ZERO_STATIONARY
    assert result.reachable == (((1, -1), 2),)
    assert "= {0}" in result.frechet_note


def test_classify_local_max_with_reachable_set():
    result = classify_point((1.0, 0.0))
    assert result.label is Label.LOCAL_MAX
    assert result.t_at_x == 2
    reachable = dict(result.reachable)
    assert reachable == {(1, -1): 2, (1, 0): 2, (1, 1): 0}
    # the completion (1, 1) lowers t, so the regular subdifferential is empty
    assert _lower_completion((1, 0), Topology.CIRCULAR) == (1, 1)
    assert result.frechet_note == "frechet subdifferential is empty"


def _brute_t(signs, topology):
    """Sign changes by a loop over the adjacency pairs."""
    n = len(signs)
    pairs = range(n) if topology is Topology.CIRCULAR else range(n - 1)
    return sum(signs[i] != signs[(i + 1) % n] for i in pairs)


def _completions(signs, topology):
    """Every completion of the zeros of signs with its t, in product order."""
    options = [(-1, 0, 1) if s == 0 else (s,) for s in signs]
    return tuple((y, _brute_t(y, topology)) for y in product(*options))


def _lower_completion(signs, topology):
    """The first completion of the zeros of signs with lower t, or None."""
    t_x = _brute_t(signs, topology)
    return next((y for y, t in _completions(signs, topology) if t < t_x), None)


@pytest.mark.parametrize("topology", list(Topology))
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_frechet_notes_match_brute_force(n, topology):
    # completions arbitrarily near x that lower t drive the Frechet quotient
    # to -infinity for every v; without one the set is {0}
    for signs in product((-1, 0, 1), repeat=n):
        reachable = _completions(signs, topology)
        t_x = _brute_t(signs, topology)
        values = [t for _, t in reachable]
        if 0 not in signs:
            label = Label.NO_ZERO_STATIONARY
        elif max(values) <= t_x:
            label = Label.LOCAL_MAX
        elif min(values) >= t_x:
            label = Label.LOCAL_MIN
        else:
            label = Label.NEITHER
        result = classify_point(signs, topology)
        assert (result.label, result.t_at_x) == (label, t_x), signs
        assert result.reachable == reachable, signs
        lower = min(values) < t_x
        assert lower == (0 in signs and any(signs)), signs
        assert lower == (label in (Label.LOCAL_MAX, Label.NEITHER)), signs
        expected = "is empty" if lower else "= {0}"
        assert result.frechet_note == f"frechet subdifferential {expected}", signs


def test_classify_origin_local_min():
    result = classify_point((0.0, 0.0, 0.0))
    assert result.label is Label.LOCAL_MIN
    assert result.t_at_x == 0
    assert len(result.reachable) == 27


def test_classify_neither():
    result = classify_point((0.0, 0.0, 1.0), Topology.LINEAR)
    assert result.label is Label.NEITHER
    values = [t for _, t in result.reachable]
    assert min(values) < result.t_at_x < max(values)


@given(st.lists(st.floats(-5, 5).filter(lambda v: abs(v) > 1e-6), min_size=2, max_size=6))
def test_classify_full_support_is_stationary(x):
    result = classify_point(x)
    assert result.label is Label.NO_ZERO_STATIONARY
    assert len(result.reachable) == 1


def test_expected_eigenvalue_table_branch_relation():
    for point in EXPECTED_2EIG_UPPER:
        hi, lo = expected_double_eigenvalues(point, 0.5)
        lhi, llo = expected_double_eigenvalues((-point[0], -point[1]), -0.5)
        assert (lhi, llo) == (-lo, -hi)
        assert hi >= lo


def test_expected_eigenvalue_spot_values():
    assert expected_double_eigenvalues((0, 0), 0.5) == (1.0, -1.0)
    # -2 +- 5
    assert expected_double_eigenvalues((-1, -1), 0.5) == (3.0, -7.0)
    assert expected_double_eigenvalues((1, 1), 0.5) == (17.0, -5.0)
    hi, lo = expected_double_eigenvalues((0, 1), 0.5)
    assert hi == pytest.approx(3.0 + 3.0 * math.sqrt(2.0))
    assert lo == pytest.approx(3.0 - 3.0 * math.sqrt(2.0))


def test_oracle_registry_listing():
    names = list_oracles()
    assert "ft_inequality_n4" in names
    assert "bound_chain_n6" in names
    assert "hessian_table" in names
    assert names == sorted(names)


@pytest.mark.parametrize(
    "name",
    ["library_crosscheck_n2", "hessian_table", "qhat_identity_n2", "smoothing_n3"],
)
def test_fast_oracles_pass(name):
    report = run_oracle(name)
    assert report.passed, report
    assert report.counterexample is None
    assert report.checks > 0


def test_unknown_oracle_rejected():
    with pytest.raises(KeyError):
        run_oracle("does_not_exist")


def test_feasibility_oracle_covers_every_candidate():
    report = run_oracle("feasibility_n4")
    assert report.passed, report
    assert report.checks == 81 * 2


# sha256 of each oracle's report, json.dumps(asdict(report), sort_keys=True):
# verdict, check count, counterexample and details, floats as the report formats them.
# A new oracle adds one line; a changed report fails under its name.
REPORT_SHA256 = {
    "bound_chain_n2": "f38780b3537242d98183e5bf73dca8afcc4f1eeab217ffd52c0fc356ca535b29",
    "bound_chain_n3": "b0ee6756aa163e62590c1e9835a3bde4c86fced8e72336346b67c290621b0e96",
    "bound_chain_n4": "f731f180e39b5e0fc11b8e1b7baa06ad23d918212c72e4169c59c169d94849ee",
    "bound_chain_n5": "b4fc19faaedcf6c0ab0d1dbcdc4eec4bbac08197ea13ea6ca0e5ee7816940ed6",
    "bound_chain_n6": "5744682f3686a7de69230673dc659f940eec8127a9416f4e19b4c12b4001cecb",
    "bound_chain_n7": "4fe6299955cee600f7769b03ae23bef0617818578d78ab40102633fd89d36a42",
    "bound_chain_n8": "34d7d81477089b1b71b35ea42ccf84a89d54951cbee4c63a35994692d9b88f08",
    "coupled_equality_n2": "ca4ce775b7317daeba7d58171abcd94e84acda1adb75ae6e8504144f3d3083b2",
    "coupled_equality_n3": "d54141528df992dad634981bb5c2b1d2af7c40a262ce3150547ceba35f007871",
    "coupled_equality_n4": "e8689b1b1fa46356ab963d93f0ad0e616e2e1204faf03e5a307bdfd11cf55484",
    "coupled_equality_n5": "2228e4a6b0ff6ceca19c3b31f715199c34b812a9308aa62fad87ebdbbc47b709",
    "coupled_equality_n6": "0315e5478400f8ca658e46e46d6e77c0b02c6d730554281409c164e1a4dc92c9",
    "feasibility_n4": "758fd3893c18d5732173523cee529bf0a1e3f0634cd4c346cb038947ba9f4da9",
    "ft_inequality_n2": "110456cdb4a031f6dc3f0d1ad06517115e7050b1fa3c17506d9ffad609d6256a",
    "ft_inequality_n3": "c9ded96338d42993034b369cb614d98ce1c2fc07cc2a724fa3a46318582b314b",
    "ft_inequality_n4": "2241b9c3ff9f167c6cfcff4c1c8b91ad2f9592b18f4d2785c8ec4da1671e8303",
    "ft_inequality_n5": "b4c6a235e7416108a096abcd9864e0496357da3cbfa210412e163011b6ea1a51",
    "ft_inequality_n6": "6b1a13fd82e376816ac6989dc713765b6c8c748abcf8b699065cdd2c07ec5820",
    "hadamard_n2": "fa226f72e10e5919730ab11d23fc3a2de8e01a3d4c7e66f4ac0398f8c622d6b4",
    "hadamard_n3": "2f7d24150df02e4a079e51728e1f84409880086de93d23496b1d7766c588206e",
    "hadamard_n4": "43e230e1a9781174883e06e0e54c0f61000ea13627b5e052f7dd19a6f7b15623",
    "hadamard_n5": "2583908ce0946aa648e25e14ccf60a5354759f9dba25f9fe8326e0461ec06766",
    "hadamard_n6": "3898f95d98a536cc5bbbb03439ef2b0613a88eb6f707aa783236210d257dc271",
    "hadamard_n7": "705286797a09f50fd5618d5e9261acd09c8d2b9907af6af42af50d8632601195",
    "hadamard_n8": "b5bd2e8efd0d842378c11fb7d0505043cd1f08de31fa20b1e88f8878e82f2d56",
    "hadamard_random": "03572269aafd6cb1bd710ade994af51e08d892c776cddcf06834dfe211991e9c",
    "hessian_table": "ea1c338c0813bb9a55eefe7cfa3b38974195ba9431dc132e226b750b2bcee79e",
    "library_crosscheck_n2": "43d382e838c76fbe7b218f80f837cf406901f3fba6330fd97e47bd7528e86656",
    "library_crosscheck_n3": "973a995854590f5e45436a596b0db661360d3a6c228cc35bfe647dec1a41ab44",
    "library_crosscheck_n4": "1bbe854aad26a77e652782d4a1bdedc652bede16f7c74919c354b18c32a288ad",
    "library_crosscheck_n5": "531bcb577985097e665bac78049edc5c96953c6dbd897cfb995981aca37b2839",
    "library_crosscheck_n6": "20153a9b5cd0068e539abdecec272fbe7b9e1f1eabb1db46e5505a6efc525fc3",
    "qhat_identity_n2": "5dc1dddec7ab25de862e99667afdcb25f543cfe1e63a3e776f7114cc64d366b5",
    "qhat_identity_n3": "efc42baa5f63082a2e1427fba4be1834827fc32140cd5e75871438920433bd8b",
    "qhat_identity_n4": "96b8782ffd7e1076cf53e5f81950d95be3674c27992c209939aef9d859af2884",
    "qhat_identity_n5": "0b5bc497889d31c266edd5157265eadbeffbab2fd8b8d44e050e1c117f693b3b",
    "qhat_identity_n6": "14ed17f0a52fb734a7f5112104bf6c29e72111df0041ce4a13e38e4cfbd16bc0",
    "signminor_random": "3a6be25aa43e2056ca19a3f87e83ad40d890ad2c0d4c1f997b3e0ac404c672cc",
    "smoothing_n2": "6611510d3594d3333ca4f22a28bcbb5e971bb69daafe86acc9f862a1a04d128b",
    "smoothing_n3": "fc82060c5ec5a5fe4c2eedc28e489b7a96401eadbaf42f23496cc45bcd7650c4",
    "smoothing_n4": "2eb71d506415cd4ae4151ca150fd107af8bd96f7dc80e122e19c88a438adde02",
    "smoothing_n5": "a8eed513f097bce09bfa638cd5b2d0474cd75b99f56f488eca96bebd766c4223",
    "smoothing_n6": "fe0ef805188923d5ba834d7e1d2108dcc2725d64e945e303c31db38f7b6f97e6",
    "zero_set_n2": "db5e463bd958f9f51eb011a9199bddb8e91c749441c7abdabe91c8e1ca6fa621",
    "zero_set_n3": "66039bdb021e62d76b03b6910018d51535541a514c48985d7387cf10ff9950be",
    "zero_set_n4": "fc8ea07c1bd228c7c3c31e7ef8d105f4f78ae77c9d268bbd7098b10d9c2e04f9",
    "zero_set_n5": "03bec9936c59724ed9697ed0ae8a46cd4f2eb6802a62c7e08fa6230aef626554",
    "zero_set_n6": "90dc50ba7839c1e0fe2de67e7aff10034cb659171b5c4d2a0ff9648ac68fe92a",
}


def test_oracle_reports_are_pinned():
    assert sorted(REPORT_SHA256) == list_oracles()
    changed = [
        name
        for name, digest in REPORT_SHA256.items()
        if hashlib.sha256(json.dumps(asdict(run_oracle(name)), sort_keys=True).encode()).hexdigest()
        != digest
    ]
    assert changed == []


# the public functions and methods that the oracles call, as the README and the package
# docstring list them; every other public name is covered by unit tests only
ORACLE_CALLED = {
    "Topology.neighbors",
    "Topology.pairs",
    "coupled_subgradient_value",
    "decoupled_gap",
    "finite_direction_feasibility",
    "hadamard_norm_sq",
    "list_oracles",
    "pair_counts",
    "pattern_grid",
    "sign_changes",
    "sign_minorant_gap",
    "smoothed_sign_changes",
    "symmetric2_eigenvalues",
    "transition_hessian_2d",
    "transition_norm_sq",
    "zero_direction_gap",
}


def test_oracles_call_the_documented_public_names():
    public = {}
    for name in signchange.__all__:
        obj = getattr(signchange, name)
        if inspect.isfunction(obj):
            public[obj.__code__] = name
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = member.fget if isinstance(member, property) else member
                member = getattr(member, "__func__", member)
                if not attr.startswith("_") and inspect.isfunction(member):
                    public[member.__code__] = f"{name}.{attr}"
    called = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in public:
            called.add(public[frame.f_code])

    sys.setprofile(hook)
    try:
        for name in list_oracles():
            run_oracle(name)
    finally:
        sys.setprofile(None)
    assert called == ORACLE_CALLED | {"run_oracle"}


def test_minorant_sample_keeps_the_per_vector_distribution(monkeypatch):
    # the batch draw must deliver what one draw per vector did: no fewer or easier samples
    draw = oracles._minorant_sample
    samples = []

    def record(*args):
        samples.append(draw(*args))
        return samples[-1]

    monkeypatch.setattr(oracles, "_minorant_sample", record)
    report = run_oracle("signminor_random")
    assert report.passed and report.checks == 10003
    assert report.details == "minimum sampled gap = 0.000e+00"
    [(x, lengths, scales)] = samples
    assert x.shape == (10000, 10) and x.dtype == np.float64
    assert set(lengths.tolist()) == set(range(1, 11))
    assert set(scales.tolist()) == {0.01, 1.0, 100.0}
    inside = np.arange(10) < lengths[:, None]
    assert not x[~inside].any(), "entries past a vector's length are zero padding"
    assert x.any(axis=1).all(), "every vector is nonzero"
    assert abs(np.mean(x[inside] == 0.0) - 0.25) <= 0.02


def test_grid_table_type():
    table = enumerate_grid(3, Topology.LINEAR)
    assert isinstance(table, GridTable)
    assert table.t.max() <= 2
    assert sign_changes((1, -1, 1), Topology.LINEAR) == 2


def _negated_flips(signs, topology):
    weak, flips = pair_stats(signs, topology)
    return weak, -flips


def _nan_flips(signs, topology):
    weak, flips = pair_stats(signs, topology)
    return weak, flips * np.nan


def _linear_row_flips_minus_3(row):
    """pair_stats with 3 fewer flips in one row of the linear pattern grid (row modulo its size)."""

    def wrong(signs, topology):
        weak, flips = pair_stats(signs, topology)
        if topology is Topology.LINEAR:
            flips[row % len(flips)] -= 3
        return weak, flips

    return wrong


def _bent_certificate(z):
    result = finite_direction_feasibility(z)
    cert = result.certificate
    return replace(result, certificate=replace(cert, value=cert.value + 1))


# (oracle, name it calls from the library, a wrong stand-in, its passing check count)
BROKEN_LIBRARY = [
    ("library_crosscheck_n3", "pair_counts", lambda x, topology: (0, 0), 162),
    ("ft_inequality_n3", "pair_stats", _negated_flips, 17496),
    ("coupled_equality_n3", "pair_stats", _nan_flips, 1512),
    (
        "coupled_equality_n3",
        "coupled_subgradient_value",
        lambda y, topology: coupled_subgradient_value(y, topology) + 1,
        1512,
    ),
    ("bound_chain_n3", "pair_stats", _negated_flips, 594),
    (
        "bound_chain_n3",
        "transition_norm_sq",
        lambda x, k, topology: transition_norm_sq(x, k, topology) + 1,
        594,
    ),
    ("zero_set_n3", "pair_stats", _negated_flips, 270),
    ("hadamard_n3", "hadamard_norm_sq", lambda x, k: hadamard_norm_sq(x, k) + 1.0, 81),
    (
        "qhat_identity_n3",
        "zero_direction_gap",
        lambda x, params, topology: zero_direction_gap(x, params, topology) + 1,
        1944,
    ),
    (
        "smoothing_n3",
        "smoothed_sign_changes",
        lambda x, eps, topology: smoothed_sign_changes(x, eps, topology) + 1.0,
        270,
    ),
    ("feasibility_n4", "finite_direction_feasibility", _bent_certificate, 162),
    ("hadamard_random", "hadamard_norm_sq", lambda x, k: hadamard_norm_sq(x, k) + 1.0, 1000),
    (
        "hadamard_random",
        "transition_norm_sq",
        lambda x, k, topology: transition_norm_sq(x, k, topology) + 1,
        1000,
    ),
    ("hessian_table", "symmetric2_eigenvalues", lambda h: symmetric2_eigenvalues(h)[::-1], 72),
    ("signminor_random", "sign_minorant_gap", lambda x: sign_minorant_gap(x) - 1.0, 10003),
    ("ft_inequality_n4", "pair_stats", _linear_row_flips_minus_3(40), 157464),
]


# an oracle's first row is named after the oracle, any further row after its target too
BROKEN_IDS = []
for name, target, *_ in BROKEN_LIBRARY:
    BROKEN_IDS.append(name if name not in BROKEN_IDS else f"{name}-{target}")


@pytest.mark.parametrize("name,target,wrong,golden", BROKEN_LIBRARY, ids=BROKEN_IDS)
def test_oracle_reports_a_wrong_library_value(monkeypatch, name, target, wrong, golden):
    monkeypatch.setattr(oracles, target, wrong)
    report = run_oracle(name)
    assert report.passed is False
    assert report.counterexample
    assert 0 < report.checks <= golden


def _hadamard_random_draws():
    """The (x, k) draws of hadamard_random, drawn one vector at a time."""
    rng = np.random.default_rng(oracles._RANDOM_SEED)
    for _ in range(oracles._HADAMARD_RANDOM_COUNT):
        n = int(rng.integers(2, 11))
        x = rng.normal(scale=10.0, size=n)
        x[rng.random(n) < 0.3] = 0.0
        yield x, float(rng.uniform(-2.0, 2.0))


# the first draw of length 7 is the third draw; with lengths 2 and 8 the first wrong draw
# is the first draw (length 8), where a report in order of length would name a later one
@pytest.mark.parametrize("wrong_lengths", [(7,), (2, 8)])
def test_hadamard_random_reports_the_first_wrong_draw(monkeypatch, wrong_lengths):
    def wrong(x, k):
        return hadamard_norm_sq(x, k) + (np.shape(x)[-1] in wrong_lengths)

    draws = enumerate(_hadamard_random_draws())
    first, (x, k) = next((i, draw) for i, draw in draws if draw[0].size in wrong_lengths)
    monkeypatch.setattr(oracles, "hadamard_norm_sq", wrong)
    report = run_oracle("hadamard_random")
    assert report.passed is False
    assert report.checks == first + 1
    assert report.counterexample["x"] == x.tolist() and report.counterexample["k"] == k
    assert report.counterexample["delta"] == pytest.approx(1.0, abs=1e-12)


def _reference_ft_inequality(n):
    """ft_inequality_n{n} as the full sweep: one 3^n x 3^n boolean per topology and
    weight pair, from the library names the oracle module calls."""
    patterns = pattern_grid(n)

    def blocks():
        for topology in Topology:
            weak, flips = oracles.pair_stats(patterns, topology)
            t = (weak + flips).astype(float)
            lhs = t[None, :] - t[:, None]
            for ky, kx in oracles.SWEEP_WEIGHTS:
                displaced = weak + 4.0 * ky * ky * flips
                base = weak + 4.0 * kx * kx * flips

                def counterexample(index):
                    i, j = np.unravel_index(index, lhs.shape)
                    return {
                        "base": tuple(patterns[i].tolist()),
                        "displaced": tuple(patterns[j].tolist()),
                        "weights": (ky, kx),
                        "topology": topology.value,
                    }

                yield lhs < displaced[None, :] - base[:, None], counterexample

    return oracles._sweep(
        f"ft_inequality_n{n}",
        blocks(),
        f"{3**n}x{3**n} pattern pairs x {len(oracles.SWEEP_WEIGHTS)} weight pairs x 2 topologies, no violation",
    )


def _reference_coupled_equality(n):
    """coupled_equality_n{n} with its pair check as one 3^n x 3^n boolean per topology."""
    patterns = pattern_grid(n)

    def blocks():
        for topology in Topology:
            weak, flips = oracles.pair_stats(patterns, topology)
            t = weak + flips
            coupled = oracles.coupled_subgradient_value(patterns, topology).astype(float)
            yield coupled != t, lambda r: {"pattern": tuple(patterns[r].tolist())}
            lhs = (t[None, :] - t[:, None]).astype(float)
            yield lhs != coupled[None, :] - coupled[:, None], lambda _: {"topology": topology.value}

    return oracles._sweep(
        f"coupled_equality_n{n}", blocks(), "coupled gap equals the count difference exactly"
    )


def _row_coupled_plus_1(row):
    def wrong(y, topology):
        coupled = coupled_subgradient_value(y, topology)
        coupled[row % len(coupled)] += 1
        return coupled

    return wrong


def _infinite_row(row):
    """t and the coupled value both inf in one row: equal there, but inf - inf is nan,
    so only the pair check fails, at that row's pair with itself."""

    def stats(signs, topology):
        weak, flips = pair_stats(signs, topology)
        flips = flips.astype(float)
        flips[row % len(flips)] = math.inf
        return weak, flips

    def coupled(y, topology):
        values = coupled_subgradient_value(y, topology)
        values[row % len(values)] = math.inf
        return values

    return {"pair_stats": stats, "coupled_subgradient_value": coupled}


# library names patched into the oracle module, by case
PAIR_SWEEP_CASES = {
    "unmodified": {},
    "negated_flips": {"pair_stats": _negated_flips},
    "nan_flips": {"pair_stats": _nan_flips},
    "coupled_plus_1": {
        "coupled_subgradient_value": lambda y, topology: coupled_subgradient_value(y, topology) + 1
    },
    **{f"linear_row{r}_flips_minus_3": {"pair_stats": _linear_row_flips_minus_3(r)} for r in (0, 13, 40, 80)},
    "row40_coupled_plus_1": {"coupled_subgradient_value": _row_coupled_plus_1(40)},
    "row40_infinite": _infinite_row(40),
}


@pytest.mark.parametrize("case", sorted(PAIR_SWEEP_CASES))
def test_pair_sweep_class_tables_match_the_full_sweep(monkeypatch, case):
    # verdict, check count, counterexample and details of every 9^n pair sweep
    for target, wrong in PAIR_SWEEP_CASES[case].items():
        monkeypatch.setattr(oracles, target, wrong)
    reports = {}
    # inf - inf in the infinite case is the nan under test, not a fault of the sweep
    with np.errstate(invalid="ignore"):
        for n in range(2, 6):
            for name, reference in (
                (f"ft_inequality_n{n}", _reference_ft_inequality),
                (f"coupled_equality_n{n}", _reference_coupled_equality),
            ):
                reports[name] = run_oracle(name)
                assert reports[name] == reference(n), name
    if case.startswith("linear_row"):
        # the circular blocks pass (81 x 81 x 12 checks); the defect fails in the first linear one
        assert 78_733 <= reports["ft_inequality_n4"].checks <= 78_813
    if case == "row40_infinite":
        # past the per-pattern checks, at pattern 40's pair with itself
        assert reports["coupled_equality_n4"].checks == 81 + 40 * 81 + 40 + 1


@pytest.mark.parametrize("name", ["ft_inequality_n6", "coupled_equality_n6"])
def test_pair_sweeps_build_no_pattern_pair_matrix(name):
    # one 3^6 x 3^6 float64 matrix is 4 MiB; the class tables take a few KiB
    run_oracle(name)
    tracemalloc.start()
    try:
        report = run_oracle(name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"


def _reference_qhat_identity(n):
    """qhat_identity_n{n} with every check compared row by row, from the library
    names the oracle module calls."""
    patterns = pattern_grid(n)
    zero = np.zeros_like(patterns)

    def blocks():
        for topology in Topology:
            _, flips = oracles.pair_stats(patterns, topology)
            failed = np.zeros((len(patterns), len(oracles.SWEEP_WEIGHTS_EXACT), 3), dtype=bool)
            for w, (ky, kx) in enumerate(oracles.SWEEP_WEIGHTS_EXACT):
                params = oracles.GapParams(k_y=ky, k_x=kx)
                closed = oracles.zero_direction_gap(patterns, params, topology)
                direct = oracles.decoupled_gap(patterns, zero, params, topology)
                reduced = 4 * (ky * ky - kx * kx) * flips.astype(object)
                failed[:, w] = np.stack((closed != direct, closed != reduced, closed > 0), axis=1)

            def counterexample(i):
                r, w, c = np.unravel_index(i, failed.shape)
                ky, kx = oracles.SWEEP_WEIGHTS_EXACT[w]
                kinds = ({"weights": (str(ky), str(kx))}, {"reduction": True}, {"positive": True})
                return {"pattern": tuple(patterns[r].tolist()), **kinds[c]}

            yield failed, counterexample

    return oracles._sweep(f"qhat_identity_n{n}", blocks(), "{checks} exact rational identities hold")


def _row_changed(gap, row, change):
    """A batch gap function with the value of one row (modulo the grid) replaced by change(value)."""

    def wrong(*args):
        values = gap(*args)
        values[row % len(values)] = change(values[row % len(values)])
        return values

    return wrong


def _distinct_equal(value):
    copy = Fraction(value)
    assert copy == value and copy is not value
    return copy


# library names patched into the oracle module, by case
QHAT_CASES = {
    "unmodified": {},
    "plus_1": {"zero_direction_gap": lambda *args: zero_direction_gap(*args) + 1},
    "float64": {"zero_direction_gap": lambda *args: zero_direction_gap(*args).astype(float)},
    "row40_equal_copy": {"zero_direction_gap": _row_changed(zero_direction_gap, 40, _distinct_equal)},
    "row40_plus_1": {"zero_direction_gap": _row_changed(zero_direction_gap, 40, lambda value: value + 1)},
    "row40_nan": {"zero_direction_gap": _row_changed(zero_direction_gap, 40, lambda value: math.nan)},
    "direct_row40_plus_1": {"decoupled_gap": _row_changed(decoupled_gap, 40, lambda value: value + 1)},
    "linear_row40_flips_minus_3": {"pair_stats": _linear_row_flips_minus_3(40)},
}


@pytest.mark.parametrize("case", sorted(QHAT_CASES))
def test_qhat_identity_class_verdicts_match_the_row_sweep(monkeypatch, case):
    # verdict, check count, counterexample and details of the per-row comparison
    for target, wrong in QHAT_CASES[case].items():
        monkeypatch.setattr(oracles, target, wrong)
    reports = {}
    for n in range(2, 6):
        # nan > 0 in the nan case is the value under test, not a fault of the sweep
        with np.errstate(invalid="ignore"):
            reports[n] = run_oracle(f"qhat_identity_n{n}")
            assert reports[n] == _reference_qhat_identity(n), n
    # float64 fails too, as 1/10 has no exact binary value; at n = 4 row 40 is the middle pattern
    assert reports[4].passed is (case in ("unmodified", "row40_equal_copy"))
    # at n = 2 row 40 is row 4, (0, 0), whose linear flips 0 - 3 = -3 fail the reduction
    if case == "linear_row40_flips_minus_3":
        assert not reports[2].passed


def test_qhat_identity_compares_each_distinct_pair_once(monkeypatch):
    # the row-by-row sweep makes 52,536 rational comparisons at n = 6
    calls = []
    for method in ("__eq__", "__gt__"):

        def counted(self, other, compare=getattr(Fraction, method)):
            calls.append(None)
            return compare(self, other)

        monkeypatch.setattr(Fraction, method, counted)
    assert run_oracle("qhat_identity_n6").passed
    assert 0 < len(calls) < 3000
