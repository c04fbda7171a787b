import numpy as np
import pytest


@pytest.fixture
def linalg_calls(monkeypatch) -> dict:
    """Counts of np.linalg.svd and np.linalg.eigvalsh calls made during the test."""
    counts = {"svd": 0, "eigvalsh": 0}

    def counting(name):
        original = getattr(np.linalg, name)

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapped

    for name in counts:
        monkeypatch.setattr(np.linalg, name, counting(name))
    return counts
