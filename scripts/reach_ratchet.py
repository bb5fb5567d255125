#!/usr/bin/env python
"""Reach ratchet: fail CI if the code no run reaches grows.

Usage::

    python scripts/reach_audit.py > reach.txt
    python scripts/reach_ratchet.py reach.txt            # check
    python scripts/reach_ratchet.py reach.txt --update   # lower the ceiling

``reach.txt`` is the report of ``scripts/reach_audit.py``, whose first
line reads ``functions F / ran R / outermost unrun U / lines L``.  The
ceiling on ``L`` -- the lines the outermost unrun defs span -- lives in
``reach-ratchet.json`` at the repo root; the check passes while
``L <= ceiling``, and ``--update`` lowers the ceiling to the current
count (never raises it).  Either way the report's summary line is
printed, so the job summary shows where the count stands.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RATCHET_FILE = REPO_ROOT / "reach-ratchet.json"
SUMMARY = re.compile(
    r"functions (\d+) / ran (\d+) / outermost unrun (\d+) / lines (\d+)"
)


def unrun_lines(report: str) -> tuple[str, int]:
    """The report's summary line and its outermost-unrun line count."""
    for line in report.splitlines():
        match = SUMMARY.search(line)
        if match:
            return line.strip(), int(match.group(4))
    raise ValueError("no reach-audit summary line in the report")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", type=pathlib.Path)
    parser.add_argument(
        "--update",
        action="store_true",
        help="lower the ratchet ceiling to the current count",
    )
    parser.add_argument(
        "--ratchet-file",
        type=pathlib.Path,
        default=RATCHET_FILE,
        help="path to the ratchet ceiling file (default: repo root)",
    )
    args = parser.parse_args(argv)

    if not args.report.exists():
        print(f"reach-audit report not found: {args.report}")
        return 2
    try:
        summary, lines = unrun_lines(args.report.read_text(encoding="utf-8"))
    except ValueError as exc:
        print(f"{args.report}: {exc}")
        return 2

    ratchet_file = args.ratchet_file
    ratchet = json.loads(ratchet_file.read_text(encoding="utf-8"))
    ceiling = int(ratchet["max_outermost_unrun_lines"])
    print(summary)
    print(f"outermost unrun lines: {lines} (ratchet ceiling: {ceiling})")

    if args.update:
        if lines < ceiling:
            ratchet["max_outermost_unrun_lines"] = lines
            ratchet_file.write_text(
                json.dumps(ratchet, indent=2) + "\n", encoding="utf-8"
            )
            print(f"ratchet ceiling lowered: {ceiling} -> {lines}")
        else:
            print("ratchet ceiling unchanged")
        return 0

    if lines > ceiling:
        print(
            f"\nFAIL: {lines} outermost unrun lines, above the ratchet "
            f"ceiling {ceiling}.  Reach the new code from a workload, "
            "bench, example or CLI call, or delete it."
        )
        return 1
    print("reach ratchet OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
