#!/usr/bin/env python3
"""Run every registered verification oracle and print a status table.

Each row gives the oracle's check count, its wall time in seconds and its
throughput in checks per second; the totals line sums them up.

With --json it prints one JSON record per oracle instead, one per line:
name, passed, checks, seconds and checks_per_s.

Exits 1 if any oracle fails, so the script doubles as a CI gate:

    python3 scripts/run_verifications.py
    python3 scripts/run_verifications.py --match hadamard
    python3 scripts/run_verifications.py --json
"""

import argparse
import json
import sys
import time

from signchange.oracles import list_oracles, run_oracle


def _rate(checks: int, seconds: float) -> str:
    return f"{checks / max(seconds, 1e-9):>12,.0f} checks/s"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--match", default="", help="only run oracles whose name contains this")
    parser.add_argument("--json", action="store_true", help="one JSON record per oracle, no table")
    args = parser.parse_args()

    names = [n for n in list_oracles() if args.match in n]
    if not names:
        print(f"no oracle matches {args.match!r}", file=sys.stderr)
        return 2

    width = max(len(n) for n in names)
    failures = 0
    total_checks = 0
    start = time.perf_counter()
    for name in names:
        began = time.perf_counter()
        report = run_oracle(name)
        seconds = time.perf_counter() - began
        total_checks += report.checks
        if not report.passed:
            failures += 1
        if args.json:
            record = {
                "name": name,
                "passed": report.passed,
                "checks": report.checks,
                "seconds": seconds,
                "checks_per_s": report.checks / max(seconds, 1e-9),
            }
            print(json.dumps(record))
        else:
            status = "PASS" if report.passed else "FAIL"
            note = report.details if report.passed else f"counterexample: {report.counterexample}"
            print(
                f"{name:<{width}}  {status}  {report.checks:>10,} checks  {seconds:7.3f} s"
                f"  {_rate(report.checks, seconds)}  {note}"
            )
    if not args.json:
        elapsed = time.perf_counter() - start
        print(
            f"\n{len(names)} oracles, {total_checks:,} checks, {failures} failures, {elapsed:.1f} s,"
            f" {_rate(total_checks, elapsed).strip()}"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
