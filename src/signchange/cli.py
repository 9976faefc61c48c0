"""Command line front end.

Every operation in the library is reachable through one subcommand, with
machine-readable JSON (default) or CSV output so figure and table data can
be reproduced from a shell.  Exit codes: 0 success or passing check,
1 failing verification (counterexample included in the output), 2 usage
error such as a malformed vector or an out-of-range parameter.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from fractions import Fraction

import numpy as np

from . import oracles, optimality, polysys, subgradients
from .counting import _real, count_nonzero, sign_minorant_gap, sign_vector
from .transitions import (
    Topology,
    hadamard_norm_sq,
    pair_counts,
    sign_changes,
    transition_map,
    transition_norm_sq,
)

__all__ = ["build_parser", "run", "main"]

EPILOG = """\
examples:
  signchange eval --x=-24,-30,19,14,0 --topo=circular
  signchange eval --x=1,-1 --k=1
  signchange verify --list
  signchange verify ft_inequality_n4
  signchange verify all
  signchange profile --x=-1,1,1,0,-1,0,0 --d=0,74,75,0,-40,-50,0 --kx=1
  signchange enum --n=4 --format=csv
  signchange enum --n=2 --format=json
  signchange check-1d --c1=-4.8 --sigma=1 --grid=10000
  signchange sphere --which=2d --resolution=360
  signchange sphere --which=3d --resolution=64
  signchange polysys --z=1,-1,1,-1 --format=plain
  signchange feascheck --z=1,-1,1,-1
  signchange feascheck --all
"""


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.asarray([float(part) for part in text.split(",")], dtype=float)
    except ValueError:
        raise ValueError(f"not a comma-separated vector: {text!r}") from None


def _parse_fraction(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational number: {text!r}") from None
    # the reports print it as a float
    _real(value, f"the rational {text!r}")
    return value


def _emit(text: str, path: str | None) -> None:
    """Write text, newline-terminated, to stdout or to the file at path: the same bytes."""
    text = text if text.endswith("\n") else text + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit_json(payload, path: str | None) -> None:
    _emit(polysys._json_text(payload), path)


def _cmd_eval(args: argparse.Namespace) -> int:
    x = _parse_vector(args.x)
    topo = Topology.from_name(args.topo)
    k = _parse_fraction(args.k)
    signs = sign_vector(x)
    weak, flips = pair_counts(x, topo)
    report = {
        "x": [float(v) for v in x],
        "topology": topo.name.lower(),
        "sign": [int(v) for v in signs],
        "c": count_nonzero(x),
        "t": sign_changes(x, topo),
        "weak_transitions": weak,
        "full_flips": flips,
        "k": float(k),
        "l": [float(v) for v in transition_map(x, float(k), topo)],
        "norm_sq_l": _real(transition_norm_sq(x, k, topo), "norm_sq_l"),
    }
    report["minorant_gap"] = None if report["c"] == 0 else sign_minorant_gap(x)
    if topo is Topology.CIRCULAR:
        report["hadamard_norm_sq"] = hadamard_norm_sq(x, float(k))
    _emit_json(report, args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.list:
        _emit("\n".join(oracles.list_oracles()), args.out)
        return 0
    if args.oracle is None:
        raise ValueError("name an oracle, 'all', or pass --list")
    names = oracles.list_oracles() if args.oracle == "all" else [args.oracle]
    try:
        reports = [oracles.run_oracle(name) for name in names]
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    payload = [dataclasses.asdict(r) for r in reports]
    _emit_json(payload if args.oracle == "all" else payload[0], args.out)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    x = _parse_vector(args.x)
    d = _parse_vector(args.d) if args.d is not None else np.zeros_like(x)
    topo = Topology.from_name(args.topo)
    k_x = _parse_fraction(args.kx)
    step = _parse_fraction(args.step)
    profile = subgradients.gap_profile(x, d, k_x, topo)
    if args.format == "csv":
        _emit(subgradients.profile_csv(profile, step=step), args.out)
    else:
        _emit_json(
            {
                "weak": profile.weak,
                "flips": profile.flips,
                "quad_coeff": profile.quad_coeff,
                "offset": float(profile.offset),
                "offset_exact": str(Fraction(profile.offset)),
                "k_x": float(profile.k_x),
                "domain": "0 < k <= 1/2",
            },
            args.out,
        )
    return 0


def _cmd_enum(args: argparse.Namespace) -> int:
    topo = Topology.from_name(args.topo)
    table = oracles.enumerate_grid(args.n, topo)
    if args.format == "csv":
        first = None if args.first_component is None else int(args.first_component)
        _emit(table.to_csv(first_component=first), args.out)
    else:
        _emit_json(table.json_summary(threshold=args.threshold), args.out)
    return 0


def _cmd_check_1d(args: argparse.Namespace) -> int:
    problem = optimality.OneDProblem(c1=args.c1, sigma=args.sigma)
    if args.format == "csv":
        _emit(optimality.curves_csv_1d(problem, grid_points=args.grid), args.out)
        return 0
    report = optimality.check_1d_condition(problem, grid_points=args.grid, tol=args.tol)
    payload = {
        "c1": problem.c1,
        "sigma": problem.sigma,
        "K": problem.K,
        "grid_size": report.grid_size,
        "tolerance": report.tol,
        "minima": report.minima,
        "argmins": report.argmins,
        "violations": report.violations,
        "passed": report.passed,
        "full_interval_minima": report.full_interval_minima,
        "objective_argmin": optimality.global_min_1d(grid_points=args.grid),
    }
    _emit_json(payload, args.out)
    return 0 if report.passed else 1


def _cmd_sphere(args: argparse.Namespace) -> int:
    resolution = args.resolution
    if resolution is None:
        resolution = 360 if args.which == "2d" else 64
    _emit(optimality.surface_csv(args.which, resolution=resolution), args.out)
    return 0


def _cmd_polysys(args: argparse.Namespace) -> int:
    mu = None if args.mu is None else _parse_vector(args.mu)
    system = polysys.build_4d_system(_parse_vector(args.z), mu=mu)
    _emit(polysys.export_system(system, fmt=args.format), args.out)
    return 0


def _cmd_feascheck(args: argparse.Namespace) -> int:
    if args.all:
        _emit_json(polysys.grid_feasibility_summary(), args.out)
        return 0
    result = polysys.finite_direction_feasibility(_parse_vector(args.z))
    _emit_json(polysys.feasibility_report(result), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signchange",
        description="Sign counting, sign change counting, their generalized "
        "subgradients, and global-optimality checks with exhaustive "
        "verification at small dimension.",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_eval = sub.add_parser("eval", help="counts, transition vector, norms for one vector")
    p_eval.add_argument("--x", required=True, help="comma-separated components")
    p_eval.add_argument("--topo", default="circular", help="circular or linear")
    p_eval.add_argument("--k", default="1/2", help="transition weight (rational)")
    p_eval.add_argument("--out", default=None, help="write output to this path")
    p_eval.set_defaults(handler=_cmd_eval)

    p_verify = sub.add_parser("verify", help="run a registered brute-force oracle")
    p_verify.add_argument("oracle", nargs="?", default=None, help="oracle name or 'all'")
    p_verify.add_argument("--list", action="store_true", help="list oracle names")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(handler=_cmd_verify)

    p_profile = sub.add_parser("profile", help="gap as a function of the lower weight k")
    p_profile.add_argument("--x", required=True)
    p_profile.add_argument("--d", default=None, help="direction (default: zero)")
    p_profile.add_argument("--kx", default="1", help="upper weight, |kx| >= 1/2")
    p_profile.add_argument("--step", default="1/200", help="CSV sampling step")
    p_profile.add_argument("--topo", default="circular")
    p_profile.add_argument("--format", choices=("json", "csv"), default="csv")
    p_profile.add_argument("--out", default=None)
    p_profile.set_defaults(handler=_cmd_profile)

    p_enum = sub.add_parser("enum", help="full sign-pattern table of change counts")
    p_enum.add_argument("--n", type=int, default=4, help="dimension, 2..12")
    p_enum.add_argument("--topo", default="circular")
    p_enum.add_argument("--format", choices=("json", "csv"), default="json")
    p_enum.add_argument(
        "--first-component",
        choices=("-1", "0", "1"),
        default=None,
        help="restrict the CSV to one leading-component slice",
    )
    p_enum.add_argument("--threshold", type=int, default=None, help="symmetry threshold")
    p_enum.add_argument("--out", default=None)
    p_enum.set_defaults(handler=_cmd_enum)

    p_check = sub.add_parser("check-1d", help="interval condition check for the 1-D problem")
    p_check.add_argument("--c1", type=float, default=-4.8)
    p_check.add_argument("--sigma", type=float, default=1.0)
    p_check.add_argument("--grid", type=int, default=10000)
    p_check.add_argument("--tol", type=float, default=1e-6)
    p_check.add_argument("--format", choices=("json", "csv"), default="json")
    p_check.add_argument("--out", default=None)
    p_check.set_defaults(handler=_cmd_check_1d)

    p_sphere = sub.add_parser("sphere", help="closed-form multiplier surfaces as CSV")
    p_sphere.add_argument("--which", choices=("2d", "3d"), required=True)
    p_sphere.add_argument("--resolution", type=int, default=None)
    p_sphere.add_argument("--out", default=None)
    p_sphere.set_defaults(handler=_cmd_sphere)

    p_poly = sub.add_parser("polysys", help="polynomial stationarity system for a 4-D candidate")
    p_poly.add_argument("--z", default="1,-1,1,-1", help="sign pattern candidate")
    p_poly.add_argument("--mu", default=None, help="substitute integer multipliers")
    p_poly.add_argument("--format", choices=("json", "plain"), default="json")
    p_poly.add_argument("--out", default=None)
    p_poly.set_defaults(handler=_cmd_polysys)

    p_feas = sub.add_parser("feascheck", help="finite-direction multiplier feasibility")
    p_feas.add_argument("--z", default="1,-1,1,-1")
    p_feas.add_argument("--all", action="store_true", help="sweep all 81 candidates")
    p_feas.add_argument("--out", default=None)
    p_feas.set_defaults(handler=_cmd_feascheck)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
