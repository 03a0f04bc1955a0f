"""Fixtures shared by the test modules."""

import pytest

from polentsim import spectral


@pytest.fixture
def set_lanes(monkeypatch):
    """``set_lanes(count)`` runs the band kernels on ``count`` lanes for the
    rest of the test, whatever the CPUs of this process."""

    def set_lanes(count):
        monkeypatch.setattr(spectral, "_lane_count", lambda: count)

    return set_lanes
