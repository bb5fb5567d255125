"""One harness for every golden under ``tests/golden/``.

A golden is a name in :data:`REGISTRY`: one file, the function that
computes all of it on the working tree, and one serialisation (sorted
JSON at the file's indent, or a text byte for byte).  Its capture
module or test says what it pins and why.  :func:`check` compares with
``==`` and names the first path that differs; under ``UPDATE_GOLDEN=1``
(read here only) it first pins what the test computed, and only that,
so ``pytest -k`` re-pins a subset and leaves every other byte alone.

``PYTHONPATH=src python -m tests.golden diff [NAME…]`` recomputes the
goldens (all by default) and prints each changed path with old value,
new value and relative change (line numbers for texts), the file
digests that moved and a summary line.  It writes nothing.
"""

import dataclasses
import difflib
import hashlib
import importlib
import itertools
import json
import os
import pathlib
import sys
from typing import Iterator, List, Optional, Tuple

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
UPDATE = bool(os.environ.get("UPDATE_GOLDEN"))


#: The value on the side of a change where a key or list item is not.
ABSENT = type("Absent", (), {"__repr__": lambda self: "<absent>"})()


@dataclasses.dataclass(frozen=True)
class Golden:
    """``compute`` (``"module:function"``) is called once, or once per
    name in the module's sequence ``cases``; text goldens have no indent."""

    file: str
    compute: str
    indent: Optional[int] = 1
    cases: Optional[str] = None
    ensure_ascii: bool = True
    directory: pathlib.Path = GOLDEN_DIR

    @property
    def path(self) -> pathlib.Path:
        return self.directory / self.file

    def text(self) -> str:
        return self.path.read_bytes().decode("utf-8")  # no newline translation

    def load(self):
        return self.text() if self.indent is None else json.loads(self.text())

    def serialise(self, content) -> str:
        return content if self.indent is None else json.dumps(
            content, indent=self.indent, sort_keys=True, ensure_ascii=self.ensure_ascii
        ) + "\n"

    def plain(self, content):
        """``content`` as the file stores it (tuples become lists)."""
        return content if self.indent is None else json.loads(self.serialise(content))

    def run(self):
        module, function = self.compute.split(":")
        module = importlib.import_module(module)
        compute = getattr(module, function)
        if self.cases:
            return self.plain({case: compute(case) for case in getattr(module, self.cases)})
        return self.plain(compute())

    def check(self, got, *keys, update: bool = False) -> None:
        """Assert ``got`` is the content at ``keys``, first pinned there with ``update``."""
        got = self.plain(got)
        if update:
            content = got
            if keys:
                content = node = self.load() if self.path.exists() else {}
                for key in keys[:-1]:
                    node = node.setdefault(key, {})
                node[keys[-1]] = got
            self.path.write_bytes(self.serialise(content).encode("utf-8"))
        want = self.load()
        for key in keys:
            want = want[key]
        if got != want:
            path, old, new = next(changes(want, got, keys))
            raise AssertionError(f"{self.file} moved at {_path(path)}: {describe(old, new)}")


#: name (the file's stem) -> golden, one for every file under ``tests/golden/``.
REGISTRY = {pathlib.Path(g.file).stem: g for g in (
    Golden("chaos_serve.json", "tests.chaos_capture:capture", cases="APPS"),
    Golden("control_loop.json", "tests.control_loop_capture:capture"),
    Golden("dag_structure.json", "tests.front_end_capture:dag_structure"),
    Golden("executor_paths.json", "tests.executor_capture:capture_all"),
    Golden("front_end.json", "tests.front_end_capture:capture"),
    Golden("ledger_pricing.json", "tests.ledger_capture:capture", cases="APPS"),
    Golden("ledger_records.json", "tests.ledger_capture:capture_fleet"),
    Golden("lifecycle.json", "tests.lifecycle_capture:capture_case", cases="CASES"),
    Golden("quickstart_bundle.json", "tests.test_bundle:quickstart_pin"),
    Golden("quickstart_prom.txt", "tests.test_prom_golden:quickstart_prom", None),
    Golden("quickstart_report.json", "tests.test_report_golden:quickstart_report", 2),
    Golden("quickstart_trace.jsonl", "tests.test_trace_golden:quickstart_jsonl", None),
    Golden("solve_day_contract.json", "tests.test_solve_day_contract:solve_day_contract",
           cases="APPS"),
    Golden("solver_gap.json", "tests.test_solver_gap_golden:solver_gap_table", 2),
    Golden("views.json", "tests.views_capture:capture", ensure_ascii=False),
)}


def check(name: str, got, *keys) -> None:
    """:meth:`Golden.check` of golden ``name``, updating under ``UPDATE_GOLDEN=1``."""
    REGISTRY[name].check(got, *keys, update=UPDATE)


def load(name: str):
    return REGISTRY[name].load()


def changes(old, new, path: Tuple = ()) -> Iterator[tuple]:
    """Every ``(path, old, new)`` at which two JSON trees differ, in key
    order; a key or list item on one side only pairs with ``ABSENT``."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from changes(old.get(key, ABSENT), new.get(key, ABSENT), path + (key,))
    elif isinstance(old, list) and isinstance(new, list):
        for i, pair in enumerate(itertools.zip_longest(old, new, fillvalue=ABSENT)):
            yield from changes(*pair, path + (i,))
    elif type(old) is not type(new) or old != new:
        yield path, old, new


def relative_change(old, new) -> Optional[float]:
    """``(new - old) / |old|`` of two numbers (not booleans; ``inf`` from 0), else ``None``."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)):
        return None
    return (new - old) / abs(old) if old else (0.0 if new == 0 else float("inf"))


def changed_lines(old: str, new: str) -> List[str]:
    """The 1-based line ranges that differ, ``old lines -> new lines``."""
    matcher = difflib.SequenceMatcher(None, old.splitlines(True), new.splitlines(True), False)
    return [f"{_span(i1, i2)} -> {_span(j1, j2)}"
            for tag, i1, i2, j1, j2 in matcher.get_opcodes() if tag != "equal"]


def describe(old, new) -> str:
    """Two texts' changed lines, else ``old -> new`` (and a number's relative change)."""
    if isinstance(old, str) and isinstance(new, str) and "\n" in old + new:
        return f"lines {', '.join(changed_lines(old, new))}"
    rel = relative_change(old, new)
    return f"{_short(old)} -> {_short(new)}" + ("" if rel is None else f" ({rel:+.3g})")


def report(goldens: dict) -> int:
    """Recompute ``goldens`` (name -> :class:`Golden`), print what moved
    against their files, and return how many moved."""
    moved, paths, largest = [], 0, 0.0
    for golden in goldens.values():
        content = golden.run()
        old, new = golden.text(), golden.serialise(content)
        if new == old:
            continue
        moved.append(f"  {golden.file}: {digest(old)} -> {digest(new)}")
        print(f"{golden.file}:")
        for path, was, now in changes(golden.load(), content):
            paths += 1
            largest = max(largest, abs(relative_change(was, now) or 0.0))
            print(f"  {_path(path)}: {describe(was, now)}")
    if not moved:
        print(f"golden diff: no golden moved ({len(goldens)} recomputed)")
        return 0
    print("digests moved:", *moved, sep="\n")
    print(f"golden diff: {len(moved)} of {len(goldens)} goldens moved, {paths} paths "
          f"changed, largest relative change {largest:.3g}")
    return len(moved)


def _path(path: Tuple) -> str:
    return "".join(f"[{json.dumps(key, ensure_ascii=False)}]" for key in path) or "."


def _short(value, limit: int = 80) -> str:
    text = repr(value) if value is ABSENT else json.dumps(value, ensure_ascii=False)
    return text if len(text) <= limit else text[: limit - 1] + "…"


def _span(lo: int, hi: int) -> str:
    return f"{lo + 1}-{hi}" if hi - lo > 1 else str(hi) if hi > lo else f"(none after {lo})"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv: List[str]) -> int:
    names = argv[1:] or list(REGISTRY)
    if argv[:1] != ["diff"] or not set(names) <= REGISTRY.keys():
        print(f"usage: python -m tests.golden diff [{'|'.join(REGISTRY)}]...", file=sys.stderr)
        return 2
    report({name: REGISTRY[name] for name in names})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
