import numpy as np
import pytest


@pytest.fixture
def count_linalg(monkeypatch):
    """``count_linalg(*names)`` counts the calls of those np.linalg functions
    made from then on, in the dict it returns."""

    def start(*names) -> dict:
        counts = dict.fromkeys(names, 0)

        def counting(name):
            original = getattr(np.linalg, name)

            def wrapped(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return wrapped

        for name in names:
            monkeypatch.setattr(np.linalg, name, counting(name))
        return counts

    return start


@pytest.fixture
def linalg_calls(count_linalg) -> dict:
    """Counts of np.linalg.svd and np.linalg.eigvalsh calls made during the test."""
    return count_linalg("svd", "eigvalsh")
