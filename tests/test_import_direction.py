"""The product does not depend on its own evaluation harness or its CLI.

``repro.experiments`` measures the system and ``repro.cli`` drives it;
both sit on top.  No module in the layers below imports either, at
module level or inside a function.  The scan reads the syntax tree, so
a docstring that names them is fine.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
LOWER_PACKAGES = ("core", "service", "cloud", "metrics", "model", "obs")
UPPER_MODULES = ("repro.experiments", "repro.cli")


def _is_upper(module: str) -> bool:
    return any(module == m or module.startswith(m + ".") for m in UPPER_MODULES)


def upward_imports(source: str) -> list:
    """``(line, module)`` for every import statement of an upper module
    in ``source``."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            # ``from repro import cli`` names the module in the alias.
            names = [node.module] + [
                f"{node.module}.{alias.name}" for alias in node.names
            ]
        else:
            continue
        upper = [name for name in names if _is_upper(name)]
        if upper:
            hits.append((node.lineno, upper[0]))
    return hits


def test_lower_layers_do_not_import_the_harness_or_the_cli():
    offenders = {}
    for package in LOWER_PACKAGES:
        for path in sorted((SRC / "repro" / package).rglob("*.py")):
            hits = upward_imports(path.read_text(encoding="utf-8"))
            if hits:
                offenders[str(path.relative_to(SRC))] = hits
    assert offenders == {}


@pytest.mark.parametrize(
    "source, hits",
    [("from repro.experiments.harness import warm_up", 1),
     ("import repro.experiments", 1),
     ("from repro import cli", 1),
     ("def f():\n    from repro.cli import main", 1),
     ("from repro.experimental import x\nimport repro.clinic", 0),
     ('"""repro.experiments is the harness."""', 0)],
)
def test_the_scan_sees_every_import_form(source, hits):
    assert len(upward_imports(source)) == hits
