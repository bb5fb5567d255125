#!/usr/bin/env python
"""Reachability audit: which ``src/repro`` functions does the system run?

Usage::

    python scripts/reach_audit.py                    # run everything, report
    python scripts/reach_audit.py --records DIR      # keep the call records
    python scripts/reach_audit.py --records DIR --no-run   # re-analyse them

The audit runs what the project itself runs -- the four benchmark
workloads (``bench/run.py --seed 1 --scale 0.1 --trace 1``), the paper
benches (``pytest benchmarks``), the examples and a fixed list of CLI
invocations that reaches every subcommand, its flags and its
malformed-input exits -- with a ``sitecustomize.py`` on ``PYTHONPATH``.
That module installs ``sys.setprofile`` and ``threading.setprofile``,
records ``(co_filename, co_firstlineno)`` of every ``src/repro`` code
object called, and writes one JSON record per process at exit.

The records are then matched against the ``ast`` defs of ``src/repro``:
a def ran when a record names its ``def`` line or its first decorator
line (where a decorated function's code object starts).  An unrun def
is *outermost* when no enclosing def also went unrun, so a dead helper
and its dead closures count once.  Defs whose body is only a docstring
and/or ``...`` (``Protocol`` and abstract stubs) are declarations and
are left out of every count.

The report prints four numbers -- functions, ran, outermost unrun, and
the lines those outermost defs span -- then each outermost unrun def as
``path:line qualname (lines)``.  The unit tests never run the full
audit (it takes minutes); they check the matcher on a fixture module.

Records name defs by line, so they only match the source they were
made from.  The audit hashes every ``src/repro`` file when it starts
and again before it reports; if any file changed in between, it names
the files and exits 2 instead of matching stale records.  A run writes
the hashes it started from beside its records, in ``sources.sha256``
(not ``*.json``, which holds records); ``--no-run`` compares them with
today's ``src/repro`` and, when a file differs or the hashes are
missing, names the files and exits 2.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PACKAGE = SRC / "repro"

WORKLOADS = ("serve_shifted", "solve_cold", "resolve_churn", "fleet_day")

#: Written next to nothing else in a temporary directory that goes first
#: on ``PYTHONPATH``, so every Python process the audit starts (and the
#: subprocesses those start) imports it at start-up.
SITECUSTOMIZE = '''\
import atexit, json, os, sys, threading

_ROOT = os.environ["REACH_AUDIT_PACKAGE"]
_OUT = os.environ["REACH_AUDIT_RECORDS"]
_seen = set()


def _profile(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _dump():
    sys.setprofile(None)
    rows = sorted({
        (os.path.realpath(c.co_filename), c.co_firstlineno) for c in _seen
    })
    rows = [r for r in rows if r[0].startswith(_ROOT)]
    path = os.path.join(_OUT, "%d.json" % os.getpid())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rows, fh)


sys.setprofile(_profile)
threading.setprofile(_profile)
atexit.register(_dump)
'''

Record = Tuple[str, int]


@dataclass(frozen=True)
class Def:
    """One ``def`` in a source file."""

    path: str
    qualname: str
    start: int  # first decorator line, else the def line
    def_line: int
    end: int
    parent: Optional[int]  # index of the enclosing def in the same list
    stub: bool

    @property
    def lines(self) -> int:
        return self.end - self.start + 1


def _is_stub(node: ast.AST) -> bool:
    """Body is only a docstring and/or ``...``: a declaration, not code."""
    for stmt in node.body:
        if not isinstance(stmt, ast.Expr) or not isinstance(stmt.value, ast.Constant):
            return False
        value = stmt.value.value
        if value is not Ellipsis and not isinstance(value, str):
            return False
    return True


def collect_defs(path: str, source: str) -> List[Def]:
    """Every function def in ``source``, outer defs before their inner ones."""
    defs: List[Def] = []

    def visit(node: ast.AST, prefix: str, parent: Optional[int]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                start = min([d.lineno for d in child.decorator_list] + [child.lineno])
                defs.append(Def(
                    path=path,
                    qualname=prefix + child.name,
                    start=start,
                    def_line=child.lineno,
                    end=child.end_lineno,
                    parent=parent,
                    stub=_is_stub(child),
                ))
                visit(child, f"{prefix}{child.name}.<locals>.", len(defs) - 1)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", parent)
            else:
                visit(child, prefix, parent)

    visit(ast.parse(source, filename=path), "", None)
    return defs


def ran_flags(defs: Sequence[Def], records: Set[Record]) -> List[bool]:
    """Whether a record names each def's ``def`` or first decorator line."""
    return [
        (d.path, d.start) in records or (d.path, d.def_line) in records
        for d in defs
    ]


def outermost_unrun(defs: Sequence[Def], ran: Sequence[bool]) -> List[Def]:
    """Unrun non-stub defs with no unrun enclosing def."""
    out = []
    for i, d in enumerate(defs):
        if d.stub or ran[i]:
            continue
        parent = d.parent
        while parent is not None and ran[parent]:
            parent = defs[parent].parent
        if parent is None:
            out.append(d)
    return out


@dataclass(frozen=True)
class Summary:
    functions: int
    ran: int
    outermost_unrun: List[Def]
    stubs: int

    @property
    def unrun_lines(self) -> int:
        return sum(d.lines for d in self.outermost_unrun)


def summarise(defs: Sequence[Def], records: Set[Record]) -> Summary:
    ran = ran_flags(defs, records)
    code = [i for i, d in enumerate(defs) if not d.stub]
    return Summary(
        functions=len(code),
        ran=sum(ran[i] for i in code),
        outermost_unrun=outermost_unrun(defs, ran),
        stubs=len(defs) - len(code),
    )


def package_defs(package: pathlib.Path) -> List[Def]:
    """Every def under ``package``, one file after another; ``parent``
    indexes this combined list."""
    defs: List[Def] = []
    for path in sorted(package.rglob("*.py")):
        resolved = str(path.resolve())
        offset = len(defs)
        defs.extend(
            d if d.parent is None else replace(d, parent=d.parent + offset)
            for d in collect_defs(resolved, path.read_text(encoding="utf-8"))
        )
    return defs


#: Beside the records: the source hashes they were made from.
HASHES_FILE = "sources.sha256"


def source_hashes(package: pathlib.Path) -> Dict[str, str]:
    """SHA-256 of every ``.py`` file under ``package``, by path relative
    to ``package``."""
    return {
        path.relative_to(package).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(package.rglob("*.py"))
    }


def write_hashes(records_dir: pathlib.Path, hashes: Dict[str, str]) -> None:
    (records_dir / HASHES_FILE).write_text(
        "".join(f"{digest}  {path}\n" for path, digest in hashes.items())
    )


def read_hashes(records_dir: pathlib.Path) -> Optional[Dict[str, str]]:
    """The hashes :func:`write_hashes` left, or ``None`` if there are none."""
    path = records_dir / HASHES_FILE
    if not path.exists():
        return None
    return {
        name: digest
        for digest, name in (line.split("  ", 1) for line in path.read_text().splitlines())
    }


def changed_files(before: Dict[str, str], after: Dict[str, str]) -> List[str]:
    """Files added, removed or edited between two :func:`source_hashes`."""
    return sorted(p for p in before.keys() | after.keys() if before.get(p) != after.get(p))


def load_records(records_dir: pathlib.Path) -> Set[Record]:
    records: Set[Record] = set()
    for path in sorted(records_dir.glob("*.json")):
        records.update((f, int(line)) for f, line in json.loads(path.read_text()))
    return records


def cli_invocations(work: pathlib.Path) -> List[List[str]]:
    """Every subcommand, its flags, and its malformed-input exits."""
    w = lambda name: str(work / name)  # noqa: E731
    store = w("jobs.json")
    (work / "bad.jsonl").write_text('{"not": "a span"}\n')
    run_io = [
        "--report", w("r.jsonl"),
        "--window", "1800", "--slo", "--export-prom", w("p.prom"),
    ]
    return [
        ["list"],
        ["deploy", "image_processing", "--seed", "1"],
        ["carbon", "--hours", "24"],
        ["solve", "image_processing", "--seed", "3"],
        ["solve", "dna_visualization", "--worst-case", "--solver", "coarse"],
        ["solve", "text2speech_censoring", "--solver", "exact",
         "--regions", "us-east-1,us-west-2"],
        ["run", "dna_visualization", "-n", "4", *run_io],
        ["run", "text2speech_censoring", "-n", "4", "--chaos",
         "--trace-sample", "2", "--report", w("r2.jsonl")],
        ["run", "image_processing", "-n", "3", "--coarse", "us-west-2"],
        ["run", "image_processing", "-n", "3", "--solver", "exact"],
        ["run", "image_processing", "-n", "3", "--solver", "coarse"],
        ["report", w("r.jsonl")],
        ["report", w("r2.jsonl"), "--requests"],
        ["diff", w("r.jsonl"), w("r2.jsonl")],
        ["dash", w("r.jsonl")],
        ["dash", w("r2.jsonl"), "--width", "20"],
        ["report", w("missing.jsonl")],
        ["report", w("bad.jsonl")],
        ["diff", w("p.prom"), w("r.jsonl")],
        ["dash", w("r.jsonl"), "--width", "0"],
        ["fleet-report", "dna_visualization", "-w", "2", "-n", "2"],
        ["fleet-report", "dna_visualization", "-w", "2", "-n", "2", "--json"],
        ["submit", "dna_visualization", "--store", store],
        ["submit", "image_processing", "--store", store],
        ["serve", "--store", store, "--steps", "3"],
        ["jobs", "--store", store],
        ["cancel", "image_processing-0002", "--store", store],
        ["serve", "--store", store, "--steps", "16"],
        ["jobs", "--store", store, "--json"],
        ["job", "dna_visualization-0001", "--store", store],
    ]


def commands(work: pathlib.Path) -> List[List[str]]:
    py = sys.executable
    cmds = [
        [py, "bench/run.py", "--workload", wl, "--seed", "1",
         "--scale", "0.1", "--trace", "1"]
        for wl in WORKLOADS
    ]
    cmds.append([py, "-m", "pytest", "benchmarks", "-q", "-o", "addopts=",
                 "-p", "no:cacheprovider"])
    cmds.extend([py, str(p)] for p in sorted((REPO_ROOT / "examples").glob("*.py")))
    cmds.extend([py, "-m", "repro.cli", *args] for args in cli_invocations(work))
    return cmds


def run_all(records_dir: pathlib.Path) -> None:
    with tempfile.TemporaryDirectory() as site, tempfile.TemporaryDirectory() as work:
        pathlib.Path(site, "sitecustomize.py").write_text(SITECUSTOMIZE)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([site, str(SRC)])
        env["REACH_AUDIT_PACKAGE"] = str(PACKAGE.resolve()) + os.sep
        env["REACH_AUDIT_RECORDS"] = str(records_dir.resolve())
        for cmd in commands(pathlib.Path(work)):
            shown = " ".join(cmd[1:])
            proc = subprocess.run(
                cmd, cwd=REPO_ROOT, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            print(f"exit {proc.returncode}: {shown}", file=sys.stderr)


def report(summary: Summary, root: pathlib.Path = REPO_ROOT) -> Iterable[str]:
    yield (
        f"functions {summary.functions} / ran {summary.ran} / "
        f"outermost unrun {len(summary.outermost_unrun)} / "
        f"lines {summary.unrun_lines}  "
        f"({summary.stubs} declaration stubs not counted)"
    )
    for d in summary.outermost_unrun:
        rel = os.path.relpath(d.path, root)
        yield f"{rel}:{d.start} {d.qualname} ({d.lines})"


def refuse(changed: List[str], why: str) -> bool:
    """Print ``why`` and the ``changed`` files, if there are any."""
    if changed:
        print(f"{why}:", file=sys.stderr)
        for path in changed:
            print(f"  {os.path.relpath(PACKAGE / path, REPO_ROOT)}", file=sys.stderr)
    return bool(changed)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=pathlib.Path,
                        help="directory for the per-process call records "
                        "(default: a temporary one)")
    parser.add_argument("--no-run", action="store_true",
                        help="only analyse the records already in --records")
    args = parser.parse_args(argv)
    if args.no_run and args.records is None:
        parser.error("--no-run needs --records")
    hashes = source_hashes(PACKAGE)
    with tempfile.TemporaryDirectory() as tmp:
        records_dir = args.records or pathlib.Path(tmp)
        records_dir.mkdir(parents=True, exist_ok=True)
        if args.no_run:
            recorded = read_hashes(records_dir)
            if recorded is None:
                print(f"{records_dir / HASHES_FILE} is missing, so the records "
                      "cannot be matched to a source", file=sys.stderr)
                return 2
            if refuse(changed_files(recorded, hashes), "the records in "
                      f"{records_dir} were made from another src/repro"):
                return 2
        else:
            write_hashes(records_dir, hashes)
            run_all(records_dir)
        records = load_records(records_dir)
    if refuse(changed_files(hashes, source_hashes(PACKAGE)), "src/repro changed "
              "during the audit, so its call records no longer match the source"):
        return 2
    for line in report(summarise(package_defs(PACKAGE), records)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
