"""The example scripts must stay runnable — they are documentation."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "deploying to the home region" in out
        assert "carbon per invocation" in out
        assert "saved" in out  # it demonstrates an actual saving

    def test_carbon_explorer(self, capsys):
        out = run_example("carbon_explorer.py", capsys)
        assert "weekly average carbon intensity" in out
        assert "ca-central-1" in out
        assert "shifting opportunity" in out

    def test_service_quickstart(self, capsys):
        # The script asserts its own recovery contract (0 re-solves).
        out = run_example("service_quickstart.py", capsys)
        assert "0 simulations run" in out
        assert "under fleet management: dna_visualization-0002, doc-pipeline-0001" in out

    @pytest.mark.slow
    def test_compliance_constrained_shifting(self, capsys):
        out = run_example("compliance_constrained_shifting.py", capsys)
        assert "(pinned)" in out
        assert "never leaves the US" in out

    def test_all_examples_importable(self):
        # Syntax/import health even for the ones too slow to execute here.
        import ast

        for path in sorted(EXAMPLES.glob("*.py")):
            ast.parse(path.read_text())
