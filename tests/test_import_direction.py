"""The product does not depend on its own evaluation harness or its CLI,
nor at run time on anything but the standard library and numpy.

``repro.experiments`` measures the system and ``repro.cli`` drives it;
both sit on top.  No module in the layers below imports either, at
module level or inside a function.  No module under ``src/repro``
imports a third-party package other than numpy (networkx and scipy are
test oracles, in the ``dev`` extra).  The scans read the syntax tree, so
a docstring that names a module is fine.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNTIME_PACKAGES = frozenset(sys.stdlib_module_names) | {"numpy", "repro"}
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


def imported_packages(source: str) -> set:
    """The top-level package of every absolute import in ``source``."""
    packages = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            packages |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            packages.add(node.module.split(".")[0])
    return packages


def test_src_imports_only_the_stdlib_numpy_and_itself():
    offenders = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        foreign = imported_packages(path.read_text(encoding="utf-8")) - RUNTIME_PACKAGES
        if foreign:
            offenders[str(path.relative_to(SRC))] = sorted(foreign)
    assert offenders == {}


@pytest.mark.parametrize(
    "source, packages",
    [("import networkx as nx", {"networkx"}),
     ("def f():\n    from scipy.stats import norm", {"scipy"}),
     ("import os.path, numpy.random", {"os", "numpy"}),
     ("from . import dag\nfrom .model import dag", set()),
     ('"""import networkx"""', set())],
)
def test_the_package_scan_sees_every_import_form(source, packages):
    assert imported_packages(source) == packages


def test_numpy_is_the_one_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", spec).group(0) for spec in project["dependencies"]]
    assert names == ["numpy"]


def test_the_cli_and_the_bench_load_no_oracle_package():
    code = ("import sys, repro.cli, bench.workloads; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'networkx', 'scipy'}))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, cwd=ROOT, check=True).stdout
    assert out.strip() == "[]"
