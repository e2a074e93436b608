from pathlib import Path

import pytest

from feddrive.sim.network import load_network_file
from feddrive.sim.world import ScenarioConfig

REPO = Path(__file__).resolve().parent.parent
NETS = REPO / "nets"
CONFIGS = REPO / "configs"


@pytest.fixture(scope="session")
def grid_net():
    return load_network_file(NETS / "grid2x2.net")


@pytest.fixture(scope="session")
def single_road_net():
    return load_network_file(NETS / "single_road.net")


@pytest.fixture(scope="session")
def cross_net():
    return load_network_file(NETS / "cross.net")


@pytest.fixture
def road_scenario(single_road_net):
    def make(**overrides):
        kwargs = dict(
            network=single_road_net,
            ego_route="main",
            destination_node="b",
            master_seed=0,
        )
        kwargs.update(overrides)
        return ScenarioConfig(**kwargs)

    return make
