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

Every def the report lists as unrun must also say why it is kept: the
ratchet file's ``kept`` map goes from ``path:qualname`` to one of
:data:`KEEP_CLASSES`.  The check fails when an unrun def has no class,
when a class is unknown, and when a ``kept`` entry is not in the
report (it ran, or no longer exists): then delete the entry.
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
#: One report line per outermost unrun def: ``path:line qualname (lines)``.
UNRUN = re.compile(r"^(\S+):\d+ (\S+) \(\d+\)$")

#: Why an unrun def stays.
KEEP_CLASSES = {
    "bench-pinned": "bench/trace.py wraps it; it goes when the bench stops",
    "failure-path": "error, rollback or forgetting path no run reaches",
    "user-api": "public API a user may call that no run exercises",
    "golden-or-oracle": "read by a golden's capture module or a test oracle",
    "protocol": "Python protocol method or an abstract hook",
}


def unrun_lines(report: str) -> tuple[str, int]:
    """The report's summary line and its outermost-unrun line count."""
    for line in report.splitlines():
        match = SUMMARY.search(line)
        if match:
            return line.strip(), int(match.group(4))
    raise ValueError("no reach-audit summary line in the report")


def unrun_defs(report: str) -> list[str]:
    """``path:qualname`` of every outermost unrun def in the report."""
    return [
        f"{m.group(1)}:{m.group(2)}"
        for m in map(UNRUN.match, report.splitlines())
        if m
    ]


def keep_problems(unrun: list[str], kept: dict[str, str]) -> list[str]:
    """One line per unrun def without a class, unknown class, or
    ``kept`` entry that is not unrun."""
    problems = [f"unrun, no keep class: {key}" for key in unrun if key not in kept]
    problems += [
        f"unknown keep class {cls!r}: {key}"
        for key, cls in kept.items()
        if cls not in KEEP_CLASSES
    ]
    unrun_set = set(unrun)
    problems += [
        f"kept but not unrun (it ran, or no longer exists): {key}"
        for key in kept
        if key not in unrun_set
    ]
    return problems


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
    text = args.report.read_text(encoding="utf-8")
    try:
        summary, lines = unrun_lines(text)
    except ValueError as exc:
        print(f"{args.report}: {exc}")
        return 2

    ratchet_file = args.ratchet_file
    ratchet = json.loads(ratchet_file.read_text(encoding="utf-8"))
    ceiling = int(ratchet["max_outermost_unrun_lines"])
    problems = keep_problems(unrun_defs(text), ratchet.get("kept", {}))
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
    elif lines > ceiling:
        print(
            f"\nFAIL: {lines} outermost unrun lines, above the ratchet "
            f"ceiling {ceiling}.  Reach the new code from a workload, "
            "bench, example or CLI call, or delete it."
        )
        return 1
    if problems:
        print(f"\nFAIL: {len(problems)} keep-class problems in {ratchet_file.name}:")
        for line in problems:
            print(f"  {line}")
        print("Keep classes:")
        for cls, why in KEEP_CLASSES.items():
            print(f"  {cls}: {why}")
        return 1
    print("reach ratchet OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
