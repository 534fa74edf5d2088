import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from secache import ChannelScenario

# Property tests draw the same examples on every run and keep no database.
settings.register_profile("secache", derandomize=True, database=None, deadline=None)
settings.load_profile("secache")


@pytest.fixture
def fig3():
    return ChannelScenario(K_w=5, K_s=15, delta_w=0.7, delta_s=0.3, delta_z=0.8, D=30)


@pytest.fixture
def fig4():
    return ChannelScenario(K_w=5, K_s=15, delta_w=0.8, delta_s=0.3, delta_z=0.6, D=30)


@pytest.fixture
def fig5():
    return ChannelScenario(K_w=20, K_s=10, delta_w=0.7, delta_s=0.2, delta_z=0.8, D=50)
