from itertools import combinations
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


def assert_background_apart_and_bounded(world):
    """No two background bodies overlap, and every speed is within its edge's limit.

    Bodies are compared on one edge and across every pair of edges the world links
    along a route (``_shift``), so an overlap across an edge boundary fails too.
    """
    for v in world.background:
        assert 0.0 <= v.speed_mps <= world.net.edges[v.edge_id].speed_limit_mps, f"{v.vehicle_id} at {v.speed_mps}"
    for a, b in combinations(world.background, 2):
        shift = world._shift[a.edge_id].get(b.edge_id)
        if shift is not None:
            front = a.pos_m + shift  # a's front in b's coordinates
            assert front <= b.tail_m or front - a.length_m >= b.pos_m, (
                f"{a.vehicle_id} at {a.pos_m} on {a.edge_id} overlaps {b.vehicle_id} at {b.pos_m} on {b.edge_id}"
            )


def pytest_collection_modifyitems(items):
    """Refuse an ``xfail`` mark that does not name its exception with ``raises=``.

    Without it a strict xfail also passes when the test fails for another
    reason, such as a broken set-up, and then pins nothing.
    """
    unnamed = [item.nodeid for item in items for mark in item.iter_markers("xfail") if "raises" not in mark.kwargs]
    if unnamed:
        raise pytest.UsageError(f"an xfail mark must name its exception with raises=: {', '.join(unnamed)}")
