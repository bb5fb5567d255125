"""Tests for the CI reach-ratchet script (runs it as plain Python)."""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).parent.parent / "scripts" / "reach_ratchet.py"
spec = importlib.util.spec_from_file_location("reach_ratchet", SCRIPT)
ratchet = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ratchet)


def write_report(path, lines, unrun=("src/repro/fixture.py:4 dead (3)",)):
    path.write_text(
        f"functions 875 / ran 768 / outermost unrun 107 / lines {lines}  "
        "(12 declaration stubs not counted)\n"
        + "".join(line + "\n" for line in unrun)
    )


def write_ratchet(path, kept):
    path.write_text(json.dumps({"max_outermost_unrun_lines": 700, "kept": kept}))


@pytest.fixture
def paths(tmp_path):
    report = tmp_path / "reach.txt"
    ceiling = tmp_path / "reach-ratchet.json"
    write_ratchet(ceiling, {"src/repro/fixture.py:dead": "failure-path"})
    return report, ceiling


def run(*args):
    return ratchet.main([str(a) for a in args])


class TestRatchet:
    def test_passes_at_or_below_the_ceiling(self, paths, capsys):
        report, ceiling = paths
        for lines in (700, 650):
            write_report(report, lines)
            assert run(report, "--ratchet-file", ceiling) == 0
            out = capsys.readouterr().out
            assert "reach ratchet OK" in out
            assert "functions 875 / ran 768" in out

    def test_fails_above_the_ceiling(self, paths, capsys):
        report, ceiling = paths
        write_report(report, 701)
        assert run(report, "--ratchet-file", ceiling) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_update_lowers_the_ceiling(self, paths, capsys):
        report, ceiling = paths
        write_report(report, 640)
        assert run(report, "--update", "--ratchet-file", ceiling) == 0
        assert json.loads(ceiling.read_text())["max_outermost_unrun_lines"] == 640
        assert "700 -> 640" in capsys.readouterr().out

    def test_update_never_raises_the_ceiling(self, paths, capsys):
        report, ceiling = paths
        write_report(report, 800)
        assert run(report, "--update", "--ratchet-file", ceiling) == 0
        assert json.loads(ceiling.read_text())["max_outermost_unrun_lines"] == 700
        assert "unchanged" in capsys.readouterr().out

    def test_a_report_without_a_summary_is_an_error(self, paths, capsys):
        report, ceiling = paths
        report.write_text("exit 0: bench/run.py\n")
        assert run(report, "--ratchet-file", ceiling) == 2
        assert "no reach-audit summary" in capsys.readouterr().out

    def test_missing_report(self, paths, capsys):
        _, ceiling = paths
        assert run(ceiling.parent / "absent.txt", "--ratchet-file", ceiling) == 2
        assert "not found" in capsys.readouterr().out

    def test_the_committed_ceiling_reads(self):
        committed = json.loads(ratchet.RATCHET_FILE.read_text(encoding="utf-8"))
        assert isinstance(committed["max_outermost_unrun_lines"], int)


class TestKeepClasses:
    def test_an_unrun_def_without_a_class_fails(self, paths, capsys):
        report, ceiling = paths
        write_report(report, 650, unrun=(
            "src/repro/fixture.py:4 dead (3)",
            "src/repro/fixture.py:9 Store.unused (2)",
        ))
        assert run(report, "--ratchet-file", ceiling) == 1
        out = capsys.readouterr().out
        assert "unrun, no keep class: src/repro/fixture.py:Store.unused" in out
        assert "fixture.py:dead" not in out

    def test_a_kept_entry_that_ran_or_is_gone_fails(self, paths, capsys):
        report, ceiling = paths
        write_report(report, 650, unrun=())
        assert run(report, "--ratchet-file", ceiling) == 1
        assert (
            "kept but not unrun (it ran, or no longer exists): "
            "src/repro/fixture.py:dead"
        ) in capsys.readouterr().out

    def test_an_unknown_class_fails(self, paths, capsys):
        report, ceiling = paths
        write_ratchet(ceiling, {"src/repro/fixture.py:dead": "nice-to-have"})
        write_report(report, 650)
        assert run(report, "--ratchet-file", ceiling) == 1
        assert "unknown keep class 'nice-to-have'" in capsys.readouterr().out

    def test_update_still_checks_the_classes(self, paths, capsys):
        report, ceiling = paths
        write_report(report, 640, unrun=("src/repro/fixture.py:9 other (2)",))
        assert run(report, "--update", "--ratchet-file", ceiling) == 1
        assert json.loads(ceiling.read_text())["max_outermost_unrun_lines"] == 640

    def test_every_committed_class_is_known(self):
        committed = json.loads(ratchet.RATCHET_FILE.read_text(encoding="utf-8"))
        assert committed["kept"]
        assert set(committed["kept"].values()) <= set(ratchet.KEEP_CLASSES)
