"""Fixtures shared by every test module."""

import pytest


@pytest.fixture(autouse=True)
def private_calibration_cache(tmp_path_factory, monkeypatch):
    """Point the CSV calibration cache at a fresh directory, for this process and its children."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
