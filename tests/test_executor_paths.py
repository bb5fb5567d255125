"""Every engine's request path serialises byte-equal to the capture in
``golden/executor_paths.json`` (see ``tests/executor_capture.py``):
ledger, trace, join order, request status, reliability counters and
Step Functions transitions, case by case."""

import json
import os

import pytest

from tests import executor_capture

GOLDEN = executor_capture.load()
SHAPES = GOLDEN["shapes"]


def test_shapes_cover_multi_sink_dags():
    assert len(SHAPES) >= 20
    multi_sink = [
        shape for shape in SHAPES
        if sum(
            not any(src == node for src, _dst, _c in shape["edges"])
            for node in shape["nodes"]
        ) > 1
    ]
    assert len(multi_sink) >= 5


@pytest.mark.parametrize("name", sorted(GOLDEN["cases"]))
def test_case_matches_the_capture(name):
    got = executor_capture.capture_case(name, SHAPES)
    if os.environ.get("UPDATE_GOLDEN"):
        pinned = executor_capture.load()
        pinned["cases"][name] = GOLDEN["cases"][name] = got
        executor_capture.GOLDEN.write_text(
            json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    assert got == GOLDEN["cases"][name]
