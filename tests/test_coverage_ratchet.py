"""Tests for the CI coverage-ratchet script (runs it as plain Python)."""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = (
    pathlib.Path(__file__).parent.parent / "scripts" / "coverage_ratchet.py"
)
spec = importlib.util.spec_from_file_location("coverage_ratchet", SCRIPT)
ratchet = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ratchet)


def write_report(path, total, files=None):
    files = files or {
        "src/repro/a.py": {
            "summary": {"percent_covered": 50.0, "num_statements": 100}
        },
        "src/repro/b.py": {
            "summary": {"percent_covered": 90.0, "num_statements": 10}
        },
    }
    path.write_text(
        json.dumps({"totals": {"percent_covered": total}, "files": files})
    )


@pytest.fixture
def paths(tmp_path):
    report = tmp_path / "coverage.json"
    floor = tmp_path / "ratchet.json"
    floor.write_text(json.dumps({"min_line_coverage_pct": 70.0}))
    return report, floor


class TestRatchet:
    def test_passes_at_or_above_floor(self, paths, capsys):
        report, floor = paths
        write_report(report, 70.0)
        assert ratchet.main([str(report), "--ratchet-file", str(floor)]) == 0
        out = capsys.readouterr().out
        assert "coverage ratchet OK" in out
        assert "least-covered modules" in out
        assert "src/repro/a.py" in out

    def test_fails_below_floor(self, paths, capsys):
        report, floor = paths
        write_report(report, 69.5)
        assert ratchet.main([str(report), "--ratchet-file", str(floor)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_update_raises_floor(self, paths, capsys):
        report, floor = paths
        write_report(report, 85.3)
        assert (
            ratchet.main([str(report), "--update", "--ratchet-file", str(floor)])
            == 0
        )
        assert json.loads(floor.read_text())["min_line_coverage_pct"] == 85.3
        assert "floor raised: 70.00% -> 85.30%" in capsys.readouterr().out

    def test_update_never_lowers_floor(self, paths, capsys):
        report, floor = paths
        write_report(report, 60.0)
        ratchet.main([str(report), "--update", "--ratchet-file", str(floor)])
        assert json.loads(floor.read_text())["min_line_coverage_pct"] == 70.0
        assert "floor unchanged" in capsys.readouterr().out

    def test_update_respects_ceiling(self, paths, capsys):
        report, floor = paths
        write_report(report, 99.9)
        ratchet.main([str(report), "--update", "--ratchet-file", str(floor)])
        assert (
            json.loads(floor.read_text())["min_line_coverage_pct"]
            == ratchet.CEILING_PCT
        )
        assert "floor raised: 70.00% -> 98.00%" in capsys.readouterr().out

    def test_missing_report_is_an_error(self, paths, capsys):
        report, floor = paths
        assert ratchet.main([str(report), "--ratchet-file", str(floor)]) == 2
        captured = capsys.readouterr()
        assert "coverage report not found" in captured.out + captured.err

    def test_least_covered_sorted_ascending(self, paths, capsys):
        report, floor = paths
        write_report(report, 75.0)
        ratchet.main([str(report), "--ratchet-file", str(floor)])
        out = capsys.readouterr().out
        assert out.index("src/repro/a.py") < out.index("src/repro/b.py")
