"""Fixtures shared by every test module."""

import shutil

import pytest


@pytest.fixture(autouse=True)
def private_table_store(tmp_path, monkeypatch):
    # cheb's table store lives under $XDG_CACHE_HOME: each test starts from an empty one
    # of its own, so it builds its tables, and no test reads or writes the user's cache;
    # the tables go once the test ends (pytest keeps its last runs' tmp_path directories)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    yield
    shutil.rmtree(tmp_path / "chebquark", ignore_errors=True)
