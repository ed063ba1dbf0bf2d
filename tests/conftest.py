import pytest
from hypothesis import settings

from equiscalar import features

# Tier-1 runs the same examples every time and never fails on wall time.
settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")


@pytest.fixture
def gram_calls(monkeypatch):
    """The argument tuples of every features.gram call, the Gram still made."""
    calls = []
    original = features.gram
    monkeypatch.setattr(features, "gram", lambda *args: calls.append(args) or original(*args))
    return calls
