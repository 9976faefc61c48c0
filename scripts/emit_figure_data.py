#!/usr/bin/env python3
"""Emit the CSV/JSON artifacts behind the figures into an output directory.

    python3 scripts/emit_figure_data.py --out-dir figure_data

Artifacts:
  grid4.csv, grid4_z1_{-1,0,1}.csv   n=4 circular sign-change table and slices
  kprofile_flips.csv                 gap profile for the pure double-flip pattern
  kprofile_displaced.csv             gap profile for the displaced 7-dim example
  curves_1d.csv                      objective and inequality residuals on the interval
  surface_2d.csv, surface_3d.csv     closed-form multiplier surfaces
  feasibility.json                   certificate for the alternating candidate + grid summary
"""

import argparse
import json
import sys
from pathlib import Path

from signchange.optimality import OneDProblem, curves_csv_1d, surface_csv
from signchange.oracles import enumerate_grid
from signchange.polysys import (
    feasibility_report,
    finite_direction_feasibility,
    grid_feasibility_summary,
)
from signchange.subgradients import gap_profile, profile_csv
from signchange.transitions import Topology


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="figure_data", help="directory for the artifacts")
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name: str, text: str) -> None:
        (out / name).write_text(text)
        written.append(name)

    table = enumerate_grid(4, Topology.CIRCULAR)
    emit("grid4.csv", table.to_csv())
    for z1 in (-1, 0, 1):
        emit(f"grid4_z1_{z1}.csv", table.to_csv(first_component=z1))

    emit("kprofile_flips.csv", profile_csv(gap_profile((1, -1), (0, 0), 1.0, Topology.CIRCULAR)))
    emit(
        "kprofile_displaced.csv",
        profile_csv(
            gap_profile(
                (-1, 1, 1, 0, -1, 0, 0),
                (0, 74, 75, 0, -40, -50, 0),
                1.0,
                Topology.CIRCULAR,
            )
        ),
    )

    emit("curves_1d.csv", curves_csv_1d(OneDProblem(), grid_points=2000))
    emit("surface_2d.csv", surface_csv("2d", resolution=360))
    emit("surface_3d.csv", surface_csv("3d", resolution=64))

    payload = {
        "alternating_candidate": feasibility_report(finite_direction_feasibility((1, -1, 1, -1))),
        "grid_summary": grid_feasibility_summary(),
    }
    emit("feasibility.json", json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")

    for name in written:
        print(f"wrote {out / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
