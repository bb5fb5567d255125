"""Every view's stdout against the capture in ``golden/views.json``
(see ``tests/views_capture.py``)."""

import pytest

from tests import golden, views_capture


@pytest.fixture(scope="module")
def captured():
    return views_capture.capture()


@pytest.mark.parametrize("name", views_capture.CASES)
def test_case_matches_the_capture(name, captured):
    golden.check("views", captured[name], name)


def test_every_case_is_pinned():
    assert sorted(golden.load("views")) == sorted(views_capture.CASES)
