"""Tests for the reachability audit's matcher (runs it as plain Python).

The full audit runs the benchmark workloads, the paper benches, the
examples and the CLI under a profiler and takes minutes, so it is not
run here; these tests check how call records are matched to defs.
"""

import importlib.util
import pathlib
import sys

SCRIPT = pathlib.Path(__file__).parent.parent / "scripts" / "reach_audit.py"
spec = importlib.util.spec_from_file_location("reach_audit", SCRIPT)
reach_audit = importlib.util.module_from_spec(spec)
# Dataclasses look their module up in sys.modules while being defined.
sys.modules[spec.name] = reach_audit
spec.loader.exec_module(reach_audit)

PATH = "/src/repro/fixture.py"
FIXTURE = '''\
from typing import Protocol


def live():
    return 1


@staticmethod
@property
def decorated():
    return 2


def dead_outer():
    def dead_inner():
        return 3

    return dead_inner


def live_outer():
    def dead_closure():
        return 4

    return 0


class Store(Protocol):
    def read(self) -> int:
        """One value."""
        ...

    def write(self, value: int) -> None: ...


class Impl:
    def read(self) -> int:
        return 5
'''


def line_of(text):
    return FIXTURE.splitlines().index(text) + 1


def records(*lines):
    return {(PATH, line_of(text)) for text in lines}


def defs():
    return reach_audit.collect_defs(PATH, FIXTURE)


def by_name(qualname):
    [d] = [d for d in defs() if d.qualname == qualname]
    return d


class TestMatcher:
    def test_decorated_def_matches_on_its_first_decorator_line(self):
        # A decorated function's code object starts at its first
        # decorator, which is what the profiler records.
        d = by_name("decorated")
        assert d.start == line_of("@staticmethod")
        assert d.def_line == line_of("def decorated():")
        [ran] = reach_audit.ran_flags([d], records("@staticmethod"))
        assert ran
        [ran] = reach_audit.ran_flags([d], records("def decorated():"))
        assert ran

    def test_unrun_def_inside_an_unrun_def_counts_once(self):
        summary = reach_audit.summarise(
            defs(), records("def live():", "def live_outer():")
        )
        unrun = [d.qualname for d in summary.outermost_unrun]
        assert "dead_outer" in unrun
        assert "dead_outer.<locals>.dead_inner" not in unrun
        # An unrun closure of a def that ran is outermost itself.
        assert "live_outer.<locals>.dead_closure" in unrun
        assert by_name("dead_outer").lines == 5
        assert summary.unrun_lines == sum(d.lines for d in summary.outermost_unrun)

    def test_protocol_stubs_are_declarations_not_code(self):
        assert by_name("Store.read").stub
        assert by_name("Store.write").stub
        assert not by_name("Impl.read").stub
        summary = reach_audit.summarise(defs(), set())
        unrun = [d.qualname for d in summary.outermost_unrun]
        assert "Store.read" not in unrun and "Store.write" not in unrun
        assert "Impl.read" in unrun
        assert summary.stubs == 2
        assert summary.functions == len(defs()) - 2
        assert summary.ran == 0
