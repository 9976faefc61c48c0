#!/usr/bin/env python3
"""Output equivalence of the library's numeric names between a parent revision and this checkout.

    python3 scripts/probe_pairs.py --parent REV --out FILE

The parent is extracted with ``git archive REV`` into a temporary directory,
as ``scripts/bench_pairs.py`` does; the change is this checkout as it
stands.  One seeded, fixed battery of calls (``battery``) runs once in a
fresh interpreter per tree, with that tree's ``src`` first on
``PYTHONPATH``:

- the public numeric names of NAMES, ``GapProfile.value`` among them;
- the sign patterns of ``pattern_grid(n)``, n = 2..7, on both topologies,
  as batches and, for a seeded sample of rows, one vector at a time;
- int, ``Fraction``, float, float32, longdouble and bool weights and
  entries, with values beyond float64 among them;
- batches, one weight per row, and lists of ``GapParams``.

Every outcome is flattened into "type:text" leaves: a float by
``float.hex``, an int in hex, a ``Fraction`` as numerator/denominator, an
array by its dtype and shape and then its entries, an error by its type and
message.  FILE receives, per name, the number of cases, the number that
differ in value, in type and in error (raised by the parent only, by the
change only, or by both, differently), the number of leaves changed in the
cases that differ in value, the largest change in units in the last place
(ulps) between floats that differ in value (signed zeros count 0), and the
first few differences.  With ``--battery`` the script only prints one
tree's outcomes as JSON: the library is the one on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import struct
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 20261021
# the names the battery calls; "GapProfile.value" is the method of gap_profile's result
NAMES = (
    "sign_vector",
    "count_nonzero",
    "sign_minorant_gap",
    "sign_changes",
    "pair_counts",
    "transition_map",
    "transition_norm_sq",
    "hadamard_norm_sq",
    "smoothed_sign_changes",
    "coupled_subgradient_value",
    "decoupled_gap",
    "zero_direction_gap",
    "gap_profile",
    "GapProfile.value",
    "profile_csv",
)
# differences listed per name in the record
EXAMPLES = 5


def _load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _weights():
    """Norm weights of every type the library takes, values beyond float64 among them."""
    return [
        0, 1, -3, 2**40, 10**200, True, False, np.int64(-(2**62)),
        Fraction(1, 2), Fraction(-1, 3), Fraction(10**400, 3), Fraction(1, 10**400),
        0.5, -0.75, 0.1, 1e-5, 2.0, 5e-324, 1e-160, 1e200, 1.7e308,
        np.float32(0.1), np.float64(-0.3), np.longdouble(1) / 3,
    ]


def _gap_pairs():
    """(k_y, k_x) weight pairs of every type, each on the positive branch or off it."""
    return [
        (Fraction(1, 4), Fraction(3, 4)), (Fraction(1, 2), 1), (Fraction(1, 3), 10**400),
        (0.25, 2.0), (1e-5, 0.5), (0.1, 0.75), (0.5, 0.5), (5e-324, 1e200), (0.3, 1.7e308),
        (Fraction(1, 3), 0.75), (0.25, Fraction(3, 2)), (0.3, 3), (0.2, True), (0.5, 10**400),
        (np.float32(0.25), np.longdouble(4) / 3), (np.longdouble(1) / 3, np.float32(1.5)),
        (-0.25, -2.0), (Fraction(-1, 5), 0.75),
    ]


def _vectors(rng):
    """Vectors beyond the sign grid: exact entries beyond float64, float32, longdouble and bool."""
    return [
        [10**400, -1, 0, Fraction(1, 10**400)],
        (Fraction(-1, 3), 1e-300, -5e-324, 0.0, 2),
        np.array([1.5, -0.0, 3e38, -1e-45], dtype=np.float32),
        np.array([1, -2, 0, 5], dtype=np.longdouble) / 3,
        np.array([True, False, True, True]),
        rng.normal(size=9).tolist(),
        np.round(rng.normal(size=7), 1),
    ]


def _library_calls() -> dict:
    """Each name of NAMES as a function of plain arguments.  The gaps take (k_y, k_x)
    pairs, or a list of them, and build their GapParams when called, so a pair
    that a tree refuses is an outcome like any other."""
    import signchange as sc

    def params(pairs):
        return [sc.GapParams(*p) for p in pairs] if isinstance(pairs, list) else sc.GapParams(*pairs)

    calls = {name: getattr(sc, name) for name in NAMES if hasattr(sc, name)}
    calls["decoupled_gap"] = lambda x, d, pairs, *topo: sc.decoupled_gap(x, d, params(pairs), *topo)
    calls["zero_direction_gap"] = lambda x, pairs, *topo: sc.zero_direction_gap(x, params(pairs), *topo)
    calls["GapProfile.value"] = lambda x, d, k_x, topo, k: sc.gap_profile(x, d, k_x, topo).value(k)
    calls["profile_csv"] = lambda x, d, k_x, step: sc.profile_csv(sc.gap_profile(x, d, k_x), step)
    return calls


def battery() -> list[tuple[str, str, tuple]]:
    """(name, label, arguments) for every case, the same seeded list on every tree."""
    from signchange import Topology, pattern_grid

    rng = np.random.default_rng(SEED)
    weights, pairs = _weights(), _gap_pairs()
    # the pairs whose gaps stay within float64 on the positive branch, for the lists
    listed = pairs[:7] + pairs[9:13] + pairs[14:16]
    cases = []

    def add(name, label, *args):
        cases.append((name, label, args))

    for n in range(2, 8):
        grid = pattern_grid(n)
        d = rng.integers(-2, 3, size=grid.shape)
        sample = grid[rng.choice(len(grid), size=min(len(grid), 12), replace=False)].tolist()
        per_row = [weights[r % len(weights)] for r in range(len(grid))]
        for topo in Topology:
            tag = f"n={n} {topo.value}"
            for k in weights:
                add("transition_norm_sq", f"{tag} batch k={k!r}", grid, k, topo)
            add("transition_norm_sq", f"{tag} batch per-row weights", grid, per_row, topo)
            add("smoothed_sign_changes", f"{tag} batch", grid, 1e-3, topo)
            add("coupled_subgradient_value", f"{tag} batch", grid, topo)
            for pair in pairs:
                add("decoupled_gap", f"{tag} batch {pair!r}", grid, d, pair, topo)
                add("zero_direction_gap", f"{tag} batch {pair!r}", grid, pair, topo)
            for i, row in enumerate(sample):
                step = rng.integers(-2, 3, size=n).tolist()
                k, k_x = weights[i % len(weights)], pairs[i % len(pairs)][1]
                rtag = f"{tag} x={row} d={step}"
                add("sign_changes", rtag, row, topo)
                add("pair_counts", rtag, tuple(row), topo)
                add("transition_map", f"{rtag} k={k!r}", row, k, topo)
                add("transition_norm_sq", f"{rtag} k={k!r}", row, k, topo)
                add("decoupled_gap", f"{rtag} listed pairs", row, step, listed, topo)
                add("zero_direction_gap", f"{rtag} listed pairs", row, listed, topo)
                add("gap_profile", f"{rtag} k_x={k_x!r}", row, step, k_x, topo)
                for ky in (Fraction(1, 7), 0.1, 1e-5, 5e-324, np.float32(0.3), 0.5):
                    add("GapProfile.value", f"{rtag} k_x={k_x!r} k={ky!r}", row, step, k_x, topo, ky)
        for k in weights[::3]:
            add("hadamard_norm_sq", f"n={n} batch k={k!r}", grid, k)
    for i, x in enumerate(_vectors(rng)):
        tag = f"vector {i}"
        for name in NAMES[:5] + ("coupled_subgradient_value",):
            add(name, tag, x)
        for k in weights[::2]:
            for name in ("transition_norm_sq", "hadamard_norm_sq", "transition_map"):
                add(name, f"{tag} k={k!r}", x, k)
        add("smoothed_sign_changes", tag, x, 0.25)
        for pair in pairs:
            add("zero_direction_gap", f"{tag} {pair!r}", x, pair)
            add("decoupled_gap", f"{tag} {pair!r}", x, x[::-1], pair)
    for k_x in (Fraction(3, 4), 0.7, 2.0, 10**400):
        add("profile_csv", f"k_x={k_x!r}", [0, 1, 1, 0], [0, 0, -2, 0], k_x, Fraction(1, 20))
    return cases


def encode(value) -> list[str]:
    """value as a flat list of "type:text" leaves, exact: floats by float.hex, ints in hex."""
    if isinstance(value, BaseException):
        return [f"error:{type(value).__name__}: {value}"]
    if isinstance(value, np.ndarray):
        head = [f"ndarray:{value.dtype.str} {value.shape}"]
        return head + [leaf for v in value.ravel().tolist() for leaf in encode(v)]
    if isinstance(value, (tuple, list)):
        return [f"{type(value).__name__}:{len(value)}"] + [leaf for v in value for leaf in encode(v)]
    if dataclasses.is_dataclass(value):
        fields = [f.name for f in dataclasses.fields(value)]
        return [f"{type(value).__name__}:{','.join(fields)}"] + [
            leaf for f in fields for leaf in encode(getattr(value, f))
        ]
    if isinstance(value, (float, np.floating)):
        return [f"{type(value).__name__}:{float(value).hex()}"]
    if isinstance(value, (bool, np.bool_)):
        return [f"{type(value).__name__}:{bool(value)}"]
    if isinstance(value, (int, np.integer)):
        return [f"{type(value).__name__}:{hex(int(value))}"]
    if isinstance(value, Fraction):
        return [f"Fraction:{hex(value.numerator)}/{hex(value.denominator)}"]
    return [f"{type(value).__name__}:{value!r}"]


def run_battery() -> dict:
    """Every case's outcome on the library that imports here: {name: [[label, leaves], ...]}."""
    calls, outcomes = _library_calls(), {name: [] for name in NAMES}
    for name, label, args in battery():
        try:
            value = calls[name](*args)
        except Exception as error:  # an error is an outcome like any other
            value = error
        outcomes[name].append([label, encode(value)])
    return outcomes


def run_side(root: Path) -> dict:
    """The battery in a fresh interpreter by bench_pairs.run_in, with root's src first on PYTHONPATH."""
    return json.loads(_load_bench_pairs().run_in(root, [str(Path(__file__).resolve()), "--battery"]).stdout)


def _ordinal(x: float) -> int:
    """x's place on the line of float64 values, so that two places differ by the ulps between them."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def ulps(parent: list[str], change: list[str]) -> int:
    """The largest ulp distance between float leaves at the same place, 0 where none differ."""
    distances = [
        abs(_ordinal(float.fromhex(p[6:])) - _ordinal(float.fromhex(c[6:])))
        for p, c in zip(parent, change)
        if p != c and p.startswith("float:") and c.startswith("float:")
    ]
    return max(distances, default=0)


def kind(parent: list[str], change: list[str]) -> str | None:
    """How two outcomes differ: None, "error" (either is an error), "type" or "value"."""
    if parent == change:
        return None
    if parent[0].startswith("error:") or change[0].startswith("error:"):
        return "error"
    if [leaf.partition(":")[0] for leaf in parent] != [leaf.partition(":")[0] for leaf in change]:
        return "type"
    return "value"


def compare(parent: dict, change: dict) -> dict:
    """Per name, the case count, the differences by kind, the largest ulp change and examples."""
    record = {}
    for name in NAMES:
        if [label for label, _ in parent[name]] != [label for label, _ in change[name]]:
            raise ValueError(f"the two batteries differ in their cases of {name}")
        counts = {"value": 0, "type": 0, "error": 0}
        errors = {"parent_only": 0, "change_only": 0, "both": 0}
        largest, values, examples = 0, 0, []
        for (label, p), (_, c) in zip(parent[name], change[name]):
            how = kind(p, c)
            if how is None:
                continue
            counts[how] += 1
            if how == "error":
                raised = (p[0].startswith("error:"), c[0].startswith("error:"))
                errors["both" if all(raised) else "parent_only" if raised[0] else "change_only"] += 1
            if how == "value":
                largest = max(largest, ulps(p, c))
                values += sum(a != b for a, b in zip(p, c))
            if len(examples) < EXAMPLES:
                changed = [[a, b] for a, b in zip(p, c) if a != b][:3] if how == "value" else [p[:4], c[:4]]
                examples.append({"label": label, "kind": how, "parent_change": changed})
        record[name] = {
            "cases": len(parent[name]),
            "differences": counts,
            "errors": errors,
            "changed_values": values,
            "max_ulps": largest,
            "examples": examples,
        }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="git revision of the parent side")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--battery", action="store_true", help="print this interpreter's outcomes as JSON")
    args = parser.parse_args(argv)
    if args.battery:
        json.dump(run_battery(), sys.stdout)
        return 0
    if not (args.parent and args.out):
        parser.error("need --parent and --out, or --battery")
    with tempfile.TemporaryDirectory(prefix="probe-parent-") as tmp:
        commit = _load_bench_pairs().extract(args.parent, Path(tmp))
        names = compare(run_side(Path(tmp)), run_side(ROOT))
    record = {
        "parent_commit": commit,
        "seed": SEED,
        "how": "one battery per tree, each in a fresh interpreter with that tree's src on PYTHONPATH; "
        "floats compared by float.hex, ulps between float64 values that differ (signed zeros count 0)",
        "totals": {
            "cases": sum(r["cases"] for r in names.values()),
            "differences": sum(sum(r["differences"].values()) for r in names.values()),
        },
        "names": names,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["totals"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
