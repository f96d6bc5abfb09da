"""Run every named check suite and print one line per check.

Exit status is the number of failed checks, capped at 99 so it stays a
valid exit code.
"""

from __future__ import annotations

import argparse
import sys

from stanlab.verification import SUITES, run_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", default="all",
                        choices=sorted(SUITES) + ["all"])
    parser.add_argument("--max-size", type=int, default=None,
                        help="override the per-suite default size")
    args = parser.parse_args()

    report = run_suite(args.suite, max_size=args.max_size)
    failed = 0
    for check in report["checks"]:
        status = check["status"].upper()
        print(f"[{status}] {check['name']}")
        if check["status"] != "pass":
            failed += 1
            print(f"    expected: {check['expected']}")
            print(f"    actual:   {check['actual']}")
    print(f"{len(report['checks'])} checks, {failed} failed")
    return min(failed, 99)


if __name__ == "__main__":
    sys.exit(main())
