"""Tier-1 guard for the frozen benchmark's tracing hooks.

``bench.trace.install`` replaces class attributes by name
(``owner.__dict__[attr]``), so removing or inheriting-away a wrapped
method makes every ``bench/run.py --trace 1`` run raise ``KeyError`` —
which only a traced benchmark run would otherwise notice.
"""

from bench.trace import _targets


def test_every_traced_method_is_defined_on_its_class():
    missing = [
        f"{owner.__name__}.{attr}"
        for _layer, owner, attr, _options in _targets()
        if attr not in owner.__dict__
    ]
    assert not missing
