"""Road network model and the line-oriented network-map format.

File format, one directive per line, ``#`` starts a comment:

    node  <id> <x> <y>
    edge  <id> <from> <to> <length_m> <speed_limit_mps> <lanes>
    light <node> <green_s> <red_s> <offset_s>
    route <name> <edge> [<edge> ...]

Every number must be finite.  Coordinates are meters.  Edges are directed.  A light sits on a node and
governs the end of every edge that enters that node.  ``<lanes>`` is parsed and must be at least 1, but
has no effect on traffic: vehicles drive single file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path


class NetworkParseError(ValueError):
    """Malformed network-map text; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class Node:
    node_id: str
    x: float
    y: float


@dataclass(frozen=True)
class Edge:
    edge_id: str
    from_node: str
    to_node: str
    length_m: float
    speed_limit_mps: float
    lanes: int


@dataclass(frozen=True)
class TrafficLight:
    node_id: str
    green_s: float
    red_s: float
    offset_s: float

    @property
    def cycle_s(self) -> float:
        return self.green_s + self.red_s

    def is_green(self, t: float) -> bool:
        return (t + self.offset_s) % self.cycle_s < self.green_s


@dataclass
class RoadNetwork:
    nodes: dict[str, Node] = field(default_factory=dict)
    edges: dict[str, Edge] = field(default_factory=dict)
    lights: dict[str, TrafficLight] = field(default_factory=dict)
    routes: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def validate(self) -> None:
        for n in self.nodes.values():
            if not (math.isfinite(n.x) and math.isfinite(n.y)):
                raise NetworkParseError(f"node {n.node_id!r} has non-finite coordinates ({n.x}, {n.y})")
        for e in self.edges.values():
            if e.from_node not in self.nodes:
                raise NetworkParseError(f"edge {e.edge_id!r} references undefined node {e.from_node!r}")
            if e.to_node not in self.nodes:
                raise NetworkParseError(f"edge {e.edge_id!r} references undefined node {e.to_node!r}")
            if not (math.isfinite(e.length_m) and math.isfinite(e.speed_limit_mps)):
                raise NetworkParseError(
                    f"edge {e.edge_id!r} has non-finite length {e.length_m} or speed limit {e.speed_limit_mps}"
                )
            if e.length_m <= 0:
                raise NetworkParseError(f"edge {e.edge_id!r} has non-positive length {e.length_m}")
            if e.speed_limit_mps <= 0:
                raise NetworkParseError(f"edge {e.edge_id!r} has non-positive speed limit {e.speed_limit_mps}")
            if e.lanes < 1:
                raise NetworkParseError(f"edge {e.edge_id!r} has lane count {e.lanes} < 1")
        for lt in self.lights.values():
            if lt.node_id not in self.nodes:
                raise NetworkParseError(f"light references undefined node {lt.node_id!r}")
            if not all(math.isfinite(v) for v in (lt.green_s, lt.red_s, lt.offset_s)):
                raise NetworkParseError(f"light at {lt.node_id!r} has non-finite timings")
            if lt.green_s <= 0 or lt.red_s <= 0:
                raise NetworkParseError(f"light at {lt.node_id!r} has non-positive cycle durations")
        for name, edge_ids in self.routes.items():
            if not edge_ids:
                raise NetworkParseError(f"route {name!r} is empty")
            for eid in edge_ids:
                if eid not in self.edges:
                    raise NetworkParseError(f"route {name!r} references undefined edge {eid!r}")
            for a, b in zip(edge_ids, edge_ids[1:]):
                if self.edges[a].to_node != self.edges[b].from_node:
                    raise NetworkParseError(
                        f"route {name!r} is disconnected between edges {a!r} and {b!r}"
                    )

    def heading(self, edge_id: str) -> float:
        """Direction of an edge in radians (atan2 of its node-to-node vector)."""
        e = self.edges[edge_id]
        a, b = self.nodes[e.from_node], self.nodes[e.to_node]
        return math.atan2(b.y - a.y, b.x - a.x)

    def route_length_m(self, route_name: str) -> float:
        """Sum of the route's edge lengths, added in route order (``sum`` compensates from Python 3.12)."""
        length = 0.0
        for eid in self.routes[route_name]:
            length += self.edges[eid].length_m
        return length

    def route_end_node(self, route_name: str) -> str:
        return self.edges[self.routes[route_name][-1]].to_node

    def route_is_cyclic(self, edge_ids: tuple[str, ...]) -> bool:
        """Whether the route's last edge ends where its first begins."""
        return self.edges[edge_ids[-1]].to_node == self.edges[edge_ids[0]].from_node


def _floats(parts: list[str], n: int, line: int, what: str) -> list[float]:
    try:
        return [float(p) for p in parts[:n]]
    except ValueError as exc:
        raise NetworkParseError(f"bad numeric field in {what}: {exc}", line) from None


def load_network(text: str) -> RoadNetwork:
    """Parse network-map text and return a validated RoadNetwork."""
    net = RoadNetwork()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        if kind == "node":
            if len(args) != 3:
                raise NetworkParseError("node needs: <id> <x> <y>", lineno)
            if args[0] in net.nodes:
                raise NetworkParseError(f"duplicate node id {args[0]!r}", lineno)
            x, y = _floats(args[1:], 2, lineno, "node")
            net.nodes[args[0]] = Node(args[0], x, y)
        elif kind == "edge":
            if len(args) != 6:
                raise NetworkParseError("edge needs: <id> <from> <to> <length> <vmax> <lanes>", lineno)
            if args[0] in net.edges:
                raise NetworkParseError(f"duplicate edge id {args[0]!r}", lineno)
            length, vmax = _floats(args[3:5], 2, lineno, "edge")
            try:
                lanes = int(args[5])
            except ValueError:
                raise NetworkParseError(f"bad lane count {args[5]!r}", lineno) from None
            net.edges[args[0]] = Edge(args[0], args[1], args[2], length, vmax, lanes)
        elif kind == "light":
            if len(args) != 4:
                raise NetworkParseError("light needs: <node> <green_s> <red_s> <offset_s>", lineno)
            if args[0] in net.lights:
                raise NetworkParseError(f"duplicate light at node {args[0]!r}", lineno)
            green, red, offset = _floats(args[1:], 3, lineno, "light")
            net.lights[args[0]] = TrafficLight(args[0], green, red, offset)
        elif kind == "route":
            if len(args) < 2:
                raise NetworkParseError("route needs: <name> <edge> [<edge> ...]", lineno)
            if args[0] in net.routes:
                raise NetworkParseError(f"duplicate route name {args[0]!r}", lineno)
            net.routes[args[0]] = tuple(args[1:])
        else:
            raise NetworkParseError(f"unknown directive {kind!r}", lineno)
    net.validate()
    return net


def load_network_file(path: str | Path) -> RoadNetwork:
    return load_network(Path(path).read_text())


def straight_corridor(
    dest_distance_m: float,
    overrun_m: float = 50.0,
    speed_limit_mps: float = 20.0,
) -> RoadNetwork:
    """Build a straight single-lane road with the destination node at an exact distance.

    The ego route ``ego`` ends at the destination node; the background route
    ``through`` continues ``overrun_m`` past it so background traffic clears
    the corridor instead of parking at the end.
    """
    if dest_distance_m <= 0:
        raise ValueError(f"destination distance must be positive, got {dest_distance_m}")
    net = RoadNetwork()
    net.nodes["start"] = Node("start", 0.0, 0.0)
    net.nodes["dest"] = Node("dest", dest_distance_m, 0.0)
    net.nodes["exit"] = Node("exit", dest_distance_m + overrun_m, 0.0)
    net.edges["main"] = Edge("main", "start", "dest", dest_distance_m, speed_limit_mps, 1)
    net.edges["tail"] = Edge("tail", "dest", "exit", overrun_m, speed_limit_mps, 1)
    net.routes["ego"] = ("main",)
    net.routes["through"] = ("main", "tail")
    net.validate()
    return net
