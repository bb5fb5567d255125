"""The documents name only code that exists: every backticked
``repro.…`` name in README.md, DESIGN.md, EXPERIMENTS.md and docs/API.md
resolves to a module or to an attribute of one."""

import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/API.md")
#: A backticked span that starts with a dotted ``repro`` name; whatever
#: follows the name in the span (``.*``, a call, prose) is not part of it.
NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)*)")


def _names():
    found = set()
    for doc in DOCS:
        text = (ROOT / doc).read_text(encoding="utf-8")
        found.update((doc, name) for name in NAME.findall(text))
    return sorted(found)


def resolve(name: str):
    """The module or attribute ``name`` denotes; raises ImportError or
    AttributeError when it denotes nothing."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(name)


@pytest.mark.parametrize("doc, name", _names(),
                         ids=[f"{doc}:{name}" for doc, name in _names()])
def test_named_code_exists(doc, name):
    resolve(name)


def test_the_scan_sees_the_module_tables():
    names = _names()
    assert ("DESIGN.md", "repro.core.solver.hbss") in names
    assert ("docs/API.md", "repro.obs.views") in names
    assert ("DESIGN.md", "repro.apps") in names  # from `repro.apps.*`


@pytest.mark.parametrize("name", ["repro.core.dag", "repro.cloud.iam",
                                  "repro.obs.views.render_dashboard"])
def test_a_missing_name_does_not_resolve(name):
    with pytest.raises((ImportError, AttributeError)):
        resolve(name)
