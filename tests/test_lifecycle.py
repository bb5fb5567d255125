"""The lifecycle's callers against the capture in
``golden/lifecycle.json`` (see ``tests/lifecycle_capture.py``)."""

import pytest

from tests import golden, lifecycle_capture


@pytest.mark.parametrize("name", lifecycle_capture.CASES)
def test_case_matches_the_capture(name):
    golden.check("lifecycle", lifecycle_capture.capture_case(name), name)
