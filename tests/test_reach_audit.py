"""Tests for the reachability audit's matcher (runs it as plain Python).

The full audit runs the benchmark workloads, the paper benches, the
examples and the CLI under a profiler and takes minutes, so it is not
run here; these tests check how call records are matched to defs.
"""

import importlib.util
import json
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

    def test_nesting_is_kept_across_the_files_of_a_package(self, tmp_path):
        # A later file's nested defs point at their own enclosing def,
        # not at whatever def sits at the same index of the first file.
        package = tmp_path / "repro"
        package.mkdir()
        (package / "a.py").write_text(FIXTURE)
        (package / "b.py").write_text(FIXTURE)
        defs = reach_audit.package_defs(package)
        b = str((package / "b.py").resolve())
        inner = next(d for d in defs if d.path == b and d.qualname.endswith("dead_inner"))
        assert defs[inner.parent].path == b
        assert defs[inner.parent].qualname == "dead_outer"
        unrun = reach_audit.summarise(defs, set()).outermost_unrun
        assert [d.qualname for d in unrun if d.path == b].count("dead_outer") == 1
        assert not [d for d in unrun if d.qualname == "dead_outer.<locals>.dead_inner"]


class TestSourceChangeGuard:
    """Records name defs by line, so an edit to ``src/repro`` while the
    audit runs, or between a run and a ``--no-run`` re-analysis, would
    match them against the wrong defs."""

    def _audit(self, tmp_path, monkeypatch, edit):
        package = tmp_path / "repro"
        package.mkdir()
        module = package / "fixture.py"
        module.write_text(FIXTURE)

        def run_all(records_dir):
            row = [str(module.resolve()), line_of("def live():")]
            (records_dir / "1.json").write_text(json.dumps([row]))
            edit(module)

        monkeypatch.setattr(reach_audit, "PACKAGE", package)
        monkeypatch.setattr(reach_audit, "run_all", run_all)
        return reach_audit.main(["--records", str(tmp_path / "records")])

    def test_an_edit_between_record_and_report_exits_2(
        self, tmp_path, monkeypatch, capsys
    ):
        # Two lines pushed in front: the record now names no def.
        code = self._audit(
            tmp_path, monkeypatch, lambda m: m.write_text("\n\n" + FIXTURE)
        )
        out, err = capsys.readouterr()
        assert code == 2
        assert "fixture.py" in err
        assert out == ""  # no report from stale records

    def test_an_unchanged_source_is_reported(self, tmp_path, monkeypatch, capsys):
        assert self._audit(tmp_path, monkeypatch, lambda m: None) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("functions 7 / ran 1 / ")

    def test_no_run_refuses_records_of_another_source(self, tmp_path, monkeypatch, capsys):
        assert self._audit(tmp_path, monkeypatch, lambda m: None) == 0
        records = tmp_path / "records"
        assert (records / reach_audit.HASHES_FILE).exists()
        capsys.readouterr()
        (tmp_path / "repro" / "fixture.py").write_text("\n\n" + FIXTURE)
        code = reach_audit.main(["--records", str(records), "--no-run"])
        out, err = capsys.readouterr()
        assert code == 2
        assert "fixture.py" in err
        assert out == ""

    def test_no_run_reports_records_of_this_source(self, tmp_path, monkeypatch, capsys):
        assert self._audit(tmp_path, monkeypatch, lambda m: None) == 0
        first = capsys.readouterr().out
        assert reach_audit.main(["--records", str(tmp_path / "records"), "--no-run"]) == 0
        assert capsys.readouterr().out == first

    def test_no_run_refuses_records_without_hashes(self, tmp_path, monkeypatch, capsys):
        assert self._audit(tmp_path, monkeypatch, lambda m: None) == 0
        (tmp_path / "records" / reach_audit.HASHES_FILE).unlink()
        assert reach_audit.main(["--records", str(tmp_path / "records"), "--no-run"]) == 2
        assert reach_audit.HASHES_FILE in capsys.readouterr().err
