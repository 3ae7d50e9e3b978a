import os

import pytest


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    """Shared catalog cache so enumeration work is done once per session."""
    return tmp_path_factory.mktemp("catalog-cache")


@pytest.fixture
def forks(monkeypatch):
    """Each os.fork call, counted; the command must leave no child behind."""
    calls = []
    real = os.fork

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counting)
    yield calls
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
