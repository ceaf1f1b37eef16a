import pytest
from hypothesis import settings

from topoflux.config import resolve
from topoflux.presets import scenario_preset

# every run draws the same examples and none is stored between runs, so a commit's verdict
# does not depend on the run or on a database left in the checkout; each test's
# max_examples stands
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


@pytest.fixture
def set1():
    """Weak-contamination operating point (g/g' ~ 2): the fig2a device."""
    return resolve(scenario_preset("fig2a")).device


@pytest.fixture
def set2():
    """Strong-contamination operating point (g' = 3g): the altParams device."""
    return resolve(scenario_preset("altParams")).device
