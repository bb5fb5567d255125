"""Every engine's request path serialises byte-equal to the capture in
``golden/executor_paths.json`` (see ``tests/executor_capture.py``):
ledger, trace, join order, request status, reliability counters and
Step Functions transitions, case by case."""

import pytest

from tests import executor_capture, golden

PINNED = golden.load("executor_paths")
SHAPES = PINNED["shapes"]


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


@pytest.mark.parametrize("name", sorted(PINNED["cases"]))
def test_case_matches_the_capture(name):
    golden.check("executor_paths", executor_capture.capture_case(name, SHAPES), "cases", name)
