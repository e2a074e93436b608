import math

import pytest

from feddrive.sim import NetworkParseError, load_network, straight_corridor

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
    ],
)
def test_parse_errors(bad, match):
    with pytest.raises(NetworkParseError, match=match):
        load_network(bad)


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
    x, y = grid_net.point_at("e_s", 25.0)
    assert (x, y) == (25.0, 0.0)


def test_route_helpers(grid_net):
    assert grid_net.route_length_m("loop") == 400.0
    assert grid_net.route_is_cyclic(grid_net.routes["loop"])
    assert not grid_net.route_is_cyclic(grid_net.routes["to_light"])
    assert grid_net.route_end_node("to_light") == "n10"


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
