import math

import pytest

from feddrive.sim.network import NetworkParseError, load_network, straight_corridor
from feddrive.sim.world import ScenarioConfig, TrafficWorld

MINIMAL = """
node a 0 0
node b 100 0
edge ab a b 100 20 1
"""


def test_minimal_network():
    net = load_network(MINIMAL)
    assert len(net.edges) == 1
    assert len(net.lights) == 0
    assert net.edges["ab"].length_m == 100.0


def test_dangling_node_reference():
    text = MINIMAL + "edge bogus a n9 50 20 1\n"
    with pytest.raises(NetworkParseError, match="n9"):
        load_network(text)


def test_grid_fixture_counts(grid_net):
    assert len(grid_net.nodes) == 4
    assert len(grid_net.edges) == 8
    assert len(grid_net.lights) == 1


def test_comments_and_blank_lines():
    net = load_network("# header\n\nnode a 0 0  # trailing\nnode b 1 0\nedge ab a b 1 5 1\n")
    assert set(net.nodes) == {"a", "b"}


@pytest.mark.parametrize(
    "bad,match",
    [
        ("node a 0 0\nnode b 1 0\nedge ab a b 0 20 1", "non-positive length"),
        ("node a 0 0\nnode b 1 0\nedge ab a b 5 -1 1", "speed limit"),
        ("node a 0 0\nnode b 1 0\nedge ab a b 5 20 0", "lane count"),
        ("node a 0 0\nnode a 1 0", "duplicate node"),
        ("wibble a 0 0", "unknown directive"),
        ("node a 0", "node needs"),
        ("node a 0 zero", "bad numeric"),
        ("node a 0 0\nnode b 1 0\nedge ab a b 5 20 1\nlight a 0 10 0", "cycle durations"),
        ("node a 0 0\nnode b 1 0\nedge ab a b 5 20 1\nroute r missing_edge", "undefined edge"),
        ("node a nan 0", "non-finite coordinates"),
        ("node a 0 -inf", "non-finite coordinates"),
        ("node a 0 0\nnode b 1 0\nedge ab a b nan 20 1", "non-finite length"),
        ("node a 0 0\nnode b 1 0\nedge ab a b inf 20 1", "non-finite length"),
        ("node a 0 0\nnode b 1 0\nedge ab a b 5 inf 1", "speed limit inf"),
        ("node a 0 0\nnode b 1 0\nedge ab a b 5 nan 1", "speed limit nan"),
        ("node a 0 0\nnode b 1 0\nedge ab a b 5 20 1\nlight b inf 10 0", "non-finite timings"),
        ("node a 0 0\nnode b 1 0\nedge ab a b 5 20 1\nlight b 10 nan 0", "non-finite timings"),
        ("node a 0 0\nnode b 1 0\nedge ab a b 5 20 1\nlight b 10 10 nan", "non-finite timings"),
        ("node a 0 0\nnode b 1 0\nedge ab a b 5 20 1\nlight b 10 10 0\nlight b 20 5 0", "line 5: duplicate light"),
        ("node a 0 0\nnode b 1 0\nedge ab a b 5 20", "line 3: edge needs"),
        ("node a 0 0\nlight a 10 10", "line 2: light needs"),
        ("node a 0 0\nnode b 1 0\nedge ab a b 5 20 1\nroute r", "line 4: route needs"),
        ("node a 0 0\nnode b 1 0\nedge ab a b 5 20 1\nedge ab b a 5 20 1", "line 4: duplicate edge id 'ab'"),
        ("node a 0 0\nnode b 1 0\nedge ab a b 5 20 1\nroute r ab\nroute r ab", "line 5: duplicate route name 'r'"),
        ("node a 0 0\nnode b 1 0\nedge ab a b 5 20 one", "line 3: bad lane count 'one'"),
        ("node b 1 0\nedge ab n9 b 5 20 1", "edge 'ab' references undefined node 'n9'"),
        ("node a 0 0\nlight z 10 10 0", "light references undefined node 'z'"),
    ],
)
def test_parse_errors(bad, match):
    with pytest.raises(NetworkParseError, match=match):
        load_network(bad)


def test_empty_route_rejected():
    net = load_network(MINIMAL)
    net.routes["r"] = ()  # the text format cannot say this; a network built in Python can
    with pytest.raises(NetworkParseError, match="route 'r' is empty"):
        net.validate()


def test_parse_error_carries_line_number():
    with pytest.raises(NetworkParseError) as exc:
        load_network("node a 0 0\nwibble\n")
    assert exc.value.line == 2
    assert "line 2" in str(exc.value)


def test_disconnected_route_rejected():
    text = """
node a 0 0
node b 1 0
node c 2 0
edge ab a b 1 5 1
edge cb c b 1 5 1
route broken ab cb
"""
    with pytest.raises(NetworkParseError, match="disconnected"):
        load_network(text)


def test_heading_and_point_at(grid_net):
    assert grid_net.heading("e_s") == pytest.approx(0.0)  # eastbound
    assert grid_net.heading("e_e") == pytest.approx(math.pi / 2)  # northbound
    # the world observes a position along an edge at its point on the node-to-node line
    world = TrafficWorld(ScenarioConfig(network=grid_net, ego_route="to_light", destination_node="n10"))
    world.reset(0)
    world.ego.pos_m = 25.0  # parked a quarter of the way down the southbound e_w, from (0, 100)
    obs = world.step(0.0).observation
    assert (obs.pos_x, obs.pos_y, obs.heading) == (0.0, 75.0, grid_net.heading("e_w"))


def test_route_helpers(grid_net):
    assert grid_net.route_length_m("loop") == 400.0
    assert grid_net.route_is_cyclic(grid_net.routes["loop"])
    assert not grid_net.route_is_cyclic(grid_net.routes["to_light"])
    assert grid_net.route_end_node("to_light") == "n10"


def test_route_length_adds_edges_in_route_order():
    # compensated summation (the built-in sum of floats from Python 3.12) would give 1e16 + 2
    text = MINIMAL.replace("edge ab a b 100 20 1", "edge ab a b 1e16 20 1")
    text += "node c 200 0\nnode d 300 0\nedge bc b c 1 20 1\nedge cd c d 1 20 1\nroute r ab bc cd\n"
    assert load_network(text).route_length_m("r") == 1e16


def test_light_cycle(grid_net):
    light = grid_net.lights["n10"]
    assert light.is_green(0.0)
    assert light.is_green(9.9)
    assert not light.is_green(10.0)
    assert not light.is_green(19.9)
    assert light.is_green(20.0)  # next cycle


def test_straight_corridor_geometry():
    net = straight_corridor(52.0)
    assert net.nodes["dest"].x == 52.0
    assert net.route_end_node("ego") == "dest"
    assert net.route_length_m("through") == 102.0
    with pytest.raises(ValueError):
        straight_corridor(0.0)
