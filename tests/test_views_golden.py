"""Every view's stdout against the capture in ``golden/views.json``
(see ``tests/views_capture.py``)."""

import os

import pytest

from tests import views_capture


@pytest.fixture(scope="module")
def captured(tmp_path_factory):
    return views_capture.capture(tmp_path_factory.mktemp("views"))


@pytest.mark.parametrize("name", views_capture.CASES)
def test_case_matches_the_capture(name, captured):
    got = captured[name]
    if os.environ.get("UPDATE_GOLDEN"):
        golden = views_capture.GOLDEN
        pinned = views_capture.load() if golden.exists() else {}
        pinned[name] = got
        views_capture.write(pinned)
    assert got == views_capture.load()[name]


def test_every_case_is_pinned():
    assert sorted(views_capture.load()) == sorted(views_capture.CASES)
