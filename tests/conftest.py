import pytest

from topoflux.config import resolve
from topoflux.presets import scenario_preset


@pytest.fixture
def set1():
    """Weak-contamination operating point (g/g' ~ 2): the fig2a device."""
    return resolve(scenario_preset("fig2a")).device


@pytest.fixture
def set2():
    """Strong-contamination operating point (g' = 3g): the altParams device."""
    return resolve(scenario_preset("altParams")).device
