import os

import pytest


@pytest.fixture
def no_mpclust_env(monkeypatch):
    """No MPCLUST_* variable, in this process and in the subprocesses it starts."""
    for key in list(os.environ):
        if key.startswith("MPCLUST_"):
            monkeypatch.delenv(key)
