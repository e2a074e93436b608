"""Discrete-time traffic world: one controlled ego vehicle plus scripted traffic.

The ego is driven purely by a longitudinal acceleration command, and moves
first.  Background vehicles then follow a gap-limited safe-speed rule: each
step a vehicle may not move faster than would keep at least ``min_gap_m`` to
its leader's tail at the end of the step, assuming the leader does not move.
Because leaders never move backwards this is conservative: a background
vehicle never runs into one ahead of it on its route, though it sees nothing
past its route's end.  All background decisions are computed from one
snapshot of positions, taken after the ego's move and before any background
vehicle's, so they keep their gap to the ego's new tail and the update is
order-independent.

Traffic is single file, as the ego commands only its longitudinal
acceleration: every vehicle follows the one ahead of it on its path.  Which
vehicles can touch is one relation, built from the routes when the world is
built.  Bodies touch along a path on one edge, or on two edges that follow one
another on a route; there the ego collides when its body overlaps another's
after a step, or when it drove through one over the step.  Edges that share a
node and no route cross there; the ego collides when it shares that node's
intersection box with a vehicle on a crossing edge.  An episode ends at the
first collision, on arrival within the destination tolerance, or when the step
budget is exhausted.

Random background vehicles are placed exactly, with no retries, from one
per-edge table (``EdgeSlots``) read from that relation, which also bounds
``background_count``, so every count the world accepts places at every reset.
A scripted spawn that would come within ``min_gap_m`` of another vehicle waits
a step.

The world checks its scenario and reads the network's geometry once, when it
is built; editing the network or replacing ``scenario`` afterwards is not
supported.

What the ego sees is defined here once: ``EgoObservation`` gives the
components and their order, ``OBS_SCALE`` a scale per component, and
``STATE_DIM`` the width.  ``normalize_observation`` turns an observation
into the policy's state; the networks, the replay rows and the actor checks
all read these names.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ..seeding import check_master_seed, derive_seed
from .network import RoadNetwork, TrafficLight
from .reward import REWARD_BY_FLAGS, EventFlags

CAUSE_NONE = "none"
CAUSE_COLLISION = "collision"
CAUSE_DESTINATION = "destination"
CAUSE_MAX_STEPS = "max-steps"

# event-flag predicates of the reward
BRAKING_ACCEL_MPS2 = -0.5  # the ego brakes when its acceleration is below this
WAITING_SPEED_MPS = 0.1  # it waits at a light when slower than this ...
WAITING_LIGHT_RANGE_M = 15.0  # ... within this distance of a red stop line
# how far ahead a background vehicle looks for a leader on its next edges
BG_LOOKAHEAD_M = 100.0


class EpisodeDoneError(RuntimeError):
    """step() was called with no episode in progress: before a reset succeeded, or after the episode ended."""


class UnreachableDestinationError(ValueError):
    """The ego route does not end within tolerance of the destination node."""


class SpawnError(ValueError):
    """A scripted background spawn names an unknown route or lies past its route's end."""


class BackgroundCountError(ValueError):
    """More random background vehicles than the routes' edges can hold beside the ego."""


@dataclass(frozen=True)
class SpawnSpec:
    """Scripted background spawn, positioned in route coordinates.

    ``speed_factor`` scales the edge speed limit into the vehicle's desired
    speed; 0 keeps it parked.
    """

    step: int
    route: str
    pos_m: float = 0.0
    speed_mps: float = 0.0
    speed_factor: float = 1.0

    def __post_init__(self):
        for name in ("step", "pos_m", "speed_mps", "speed_factor"):
            if not 0.0 <= getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be >= 0 and finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class ScenarioConfig:
    network: RoadNetwork
    ego_route: str
    destination_node: str
    destination_tolerance_m: float = 5.0
    background_count: int = 0
    background_spawns: tuple[SpawnSpec, ...] = ()
    step_length_s: float = 1.0
    max_steps: int = 900
    master_seed: int = 0
    # vehicle physics
    accel_min_mps2: float = -4.5
    accel_max_mps2: float = 2.6
    vehicle_length_m: float = 5.0
    min_gap_m: float = 2.5
    intersection_box_m: float = 5.0
    # background driving
    bg_accel_mps2: float = 2.6
    bg_speed_factor_min: float = 0.8
    bg_speed_factor_max: float = 1.0

    def __post_init__(self):
        # written so that NaN fails each check
        check_master_seed(self.master_seed)
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.background_count < 0:
            raise ValueError("background_count must be >= 0")
        if not -math.inf < self.accel_min_mps2 < self.accel_max_mps2 < math.inf:
            raise ValueError("accel_min_mps2 must be below accel_max_mps2, both finite")
        if not 0.0 <= self.bg_speed_factor_min <= self.bg_speed_factor_max < math.inf:
            raise ValueError("need 0 <= bg_speed_factor_min <= bg_speed_factor_max, both finite")
        for name in ("step_length_s", "destination_tolerance_m", "vehicle_length_m", "bg_accel_mps2"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        for name in ("min_gap_m", "intersection_box_m"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be >= 0 and finite, got {getattr(self, name)}")


@dataclass
class VehicleState:
    vehicle_id: str
    edge_id: str
    pos_m: float
    speed_mps: float
    accel_mps2: float  # kept up to date for the ego only: nothing reads a background vehicle's
    length_m: float
    route: tuple[str, ...]
    route_idx: int
    speed_factor: float = 1.0

    @property
    def tail_m(self) -> float:
        return self.pos_m - self.length_m


# The per-step records (these two and reward.EventFlags) are named tuples:
# immutable, and cheaper to build than frozen dataclasses, with the same
# fields, order and repr.
class EgoObservation(NamedTuple):
    """What the ego sees each step, in raw units; ``normalize_observation`` makes it the policy's state."""

    pos_x: float  # m
    pos_y: float  # m
    speed: float  # m/s
    heading: float  # rad
    acceleration: float  # m/s^2
    dest_distance: float  # m

    def as_vector(self) -> np.ndarray:
        """The raw components as float64, in field order."""
        return np.array(self, dtype=np.float64)


# Each component's fixed scale.  Raw meter-scale inputs saturate tanh layers;
# the scaled state is O(1).  Every network input is scaled alike, so
# checkpoints need no extra metadata.
OBS_SCALE = np.array(
    EgoObservation(pos_x=100.0, pos_y=100.0, speed=20.0, heading=math.pi, acceleration=5.0, dest_distance=100.0)
)
OBS_SCALE.flags.writeable = False  # no config hash covers it, so an edit would silently rescale every state
STATE_DIM = len(EgoObservation._fields)


def normalize_observation(obs: EgoObservation | np.ndarray) -> np.ndarray:
    """The float64 state vector of an observation, or of its ``as_vector``."""
    return np.array(obs, dtype=np.float64) / OBS_SCALE


class StepOutcome(NamedTuple):
    observation: EgoObservation
    reward: float
    done: bool
    cause: str
    flags: EventFlags


class EdgeInfo(NamedTuple):
    """What the simulation reads of one edge, taken from the network when the world is built."""

    length_m: float
    speed_limit_mps: float
    light: TrafficLight | None  # the light governing the edge's end
    line: tuple[float, float, float, float]  # start x, y and the x, y deltas to the end
    heading: float  # RoadNetwork.heading


class EdgeSlots(NamedTuple):
    """Where random background vehicles can stand on one route edge.

    Fronts on the edge stand ``vehicle_length_m + min_gap_m`` (a spacing) apart, and so do fronts either
    side of the end of an edge that a route follows on, and the ego's front at reset.
    """

    edge_id: str
    lo: float  # lowest front, m
    hi: float  # highest front, m
    places: int  # fronts that fit from lo to hi, one spacing apart
    through: list[tuple[tuple[str, ...], int]]  # (route, index) of each pass of a route over the edge


def distance_to_destination(pos: tuple[float, float], dest: tuple[float, float]) -> float:
    """Euclidean distance between two planar points."""
    return math.hypot(pos[0] - dest[0], pos[1] - dest[1])


def _point(edge: EdgeInfo, pos_m: float) -> tuple[float, float]:
    """x/y coordinates of a longitudinal position along an edge."""
    ax, ay, dx, dy = edge.line
    f = pos_m / edge.length_m
    return ax + f * dx, ay + f * dy


def _distance_to_red_light(edge: EdgeInfo, pos_m: float, t: float) -> float | None:
    """Distance from ``pos_m`` on ``edge`` to the stop line of a red light at its end."""
    light = edge.light
    if light is None or light.is_green(t):
        return None
    return edge.length_m - pos_m


class TrafficWorld:
    """Single-episode traffic environment.  Not thread-safe; one owner at a time."""

    def __init__(self, scenario: ScenarioConfig):
        self.scenario = sc = scenario
        self.net = net = scenario.network
        self.done = True  # no episode in progress until a reset succeeds
        if sc.ego_route not in net.routes:
            raise ValueError(f"unknown ego route {sc.ego_route!r}")
        if sc.destination_node not in net.nodes:
            raise ValueError(f"unknown destination node {sc.destination_node!r}")
        end_node = net.nodes[net.route_end_node(sc.ego_route)]
        dest = net.nodes[sc.destination_node]
        gap = distance_to_destination((end_node.x, end_node.y), (dest.x, dest.y))
        if gap > sc.destination_tolerance_m:
            raise UnreachableDestinationError(
                f"ego route {sc.ego_route!r} ends {gap:.1f} m from destination "
                f"{sc.destination_node!r} (tolerance {sc.destination_tolerance_m} m)"
            )
        for spawn in sc.background_spawns:
            if spawn.route not in net.routes:
                raise SpawnError(f"spawn references unknown route {spawn.route!r}")
            # _route_point would clamp such a spawn to the route's end, from where it would drive off at once
            route_length = net.route_length_m(spawn.route)
            if spawn.pos_m > route_length:
                raise SpawnError(
                    f"spawn at {spawn.pos_m} m on route {spawn.route!r} lies past the route's end "
                    f"({route_length} m long)"
                )
        # everything step, background and spawn code read of the network
        self._dest_xy = (dest.x, dest.y)
        self._edges = {}
        for eid, e in net.edges.items():
            a, b = net.nodes[e.from_node], net.nodes[e.to_node]
            line = (a.x, a.y, b.x - a.x, b.y - a.y)
            light = net.lights.get(e.to_node)
            self._edges[eid] = EdgeInfo(e.length_m, e.speed_limit_mps, light, line, net.heading(eid))
        self._route_cyclic = {route: net.route_is_cyclic(route) for route in net.routes.values()}
        # _shift[a][b] puts a position on edge a into edge b's coordinates where bodies can touch along a path:
        # on one edge, and on two edges that follow one another on a route (a cyclic one's last, then its first);
        # two edges that follow each other both ways keep the link of the last route read
        self._shift = {eid: {eid: 0.0} for eid in net.edges}
        for route in net.routes.values():
            for a, b in zip(route, route[1:] + route[:1] if self._route_cyclic[route] else route[1:]):
                if a != b:
                    self._shift[a][b] = -net.edges[a].length_m
                    self._shift[b][a] = net.edges[a].length_m
        # _crossers[a][b] is the x, y of the node where edges a and b cross: they share one end and no route
        # links them.  An edge and its reverse share both ends, as do two edges that join the same two nodes
        # in the same direction; neither pair crosses
        self._crossers = {a: {} for a in net.edges}
        for a, ea in net.edges.items():
            for b, eb in net.edges.items():
                shared = {ea.from_node, ea.to_node} & {eb.from_node, eb.to_node}
                if len(shared) == 1 and b not in self._shift[a]:
                    node = net.nodes[shared.pop()]
                    self._crossers[a][b] = (node.x, node.y)
        # per route edge in id order, with its routes in name order.  The ego's body at reset is (-length, 0] on
        # its first edge: fronts start a spacing in there and on every edge a route enters from another, and end a
        # spacing short of the end of an edge that leads into the ego's first edge
        self._spacing = spacing = sc.vehicle_length_m + sc.min_gap_m
        ego_edge = net.routes[sc.ego_route][0]
        routes = [net.routes[name] for name in sorted(net.routes)]
        self._slots = []
        for eid in sorted(set().union(*routes)):
            shifts = self._shift[eid]
            lo = spacing if eid == ego_edge or any(shift > 0.0 for shift in shifts.values()) else 0.0
            hi = net.edges[eid].length_m - (spacing if shifts.get(ego_edge, 0.0) < 0.0 else 0.0)
            places = math.floor((hi - lo) / spacing) + 1 if hi >= lo else 0
            through = [(route, idx) for route in routes for idx, e in enumerate(route) if e == eid]
            self._slots.append(EdgeSlots(eid, lo, hi, places, through))
        self._places = places = sum(slot.places for slot in self._slots)
        if sc.background_count > places:
            raise BackgroundCountError(
                f"background_count {sc.background_count} exceeds the {places} vehicles that fit beside the ego "
                f"on the routes' edges at {spacing} m front to front"
            )

    # ------------------------------------------------------------------ reset

    def reset(self, episode_seed: int) -> EgoObservation:
        sc = self.scenario
        self.steps = 0
        self.done = True  # until every vehicle is placed: a failed reset leaves no episode in progress
        self.cause = CAUSE_NONE
        self.distance_traveled_m = 0.0
        self.traveled_freeflow_time_s = 0.0  # free-flow time over the distance the ego has actually covered
        self._next_bg_id = 0
        self._pending_spawns = list(sc.background_spawns)

        route = self.net.routes[sc.ego_route]
        self.ego = VehicleState("ego", route[0], 0.0, 0.0, 0.0, sc.vehicle_length_m, route, 0)
        self.background: list[VehicleState] = []
        if sc.background_count:
            self._spawn_random_background(sc.background_count, derive_seed(sc.master_seed, episode_seed))
        self.done = False
        return self._observe()

    def _spawn_random_background(self, count: int, seed: int) -> None:
        """Place ``count`` vehicles at once from the slot table; no draw is ever rejected.

        Each vehicle takes one of the places left, so an edge is picked in proportion to its free
        places.  An edge's k fronts are k sorted uniforms spread over its free length, each pushed
        up one spacing per vehicle behind it: uniform over the layouts of k fronts that keep the spacing.
        """
        sc = self.scenario
        # the first count draws pick places; then per edge, in id order, its k fronts, and per vehicle
        # its route, speed factor and speed
        u = np.random.Generator(np.random.PCG64(seed)).random(5 * count).tolist()
        left = [slot.places for slot in self._slots]
        taken = [0] * len(left)
        free = self._places
        for r in u[:count]:
            place, i = int(r * free), 0  # the place-th free place, counting edge by edge
            while place >= left[i]:
                place -= left[i]
                i += 1
            left[i] -= 1
            taken[i] += 1
            free -= 1
        spacing = self._spacing
        low, high = sc.bg_speed_factor_min, sc.bg_speed_factor_max
        at = count
        for (eid, lo, hi, _, through), k in zip(self._slots, taken):
            if not k:
                continue
            span = hi - lo - (k - 1) * spacing
            limit = self._edges[eid].speed_limit_mps
            fronts = sorted(u[at : at + k])
            at += k
            for j, u_front in enumerate(fronts):
                u_route, u_factor, u_speed = u[at : at + 3]
                at += 3
                route, idx = through[int(u_route * len(through))]
                # uniform(low, high) draws as Generator.uniform does: low + (high - low) * random()
                factor = low + (high - low) * u_factor
                pos = lo + u_front * span + j * spacing
                self._add_background(route, eid, pos, idx, limit * factor * u_speed, factor)

    def _add_background(
        self, route: tuple[str, ...], edge_id: str, pos: float, idx: int, speed: float, factor: float
    ) -> None:
        length = self.scenario.vehicle_length_m
        self.background.append(
            VehicleState(f"bg{self._next_bg_id}", edge_id, pos, speed, 0.0, length, route, idx, factor)
        )
        self._next_bg_id += 1

    def _route_point(self, route: tuple[str, ...], pos_on_route: float) -> tuple[str, float, int]:
        remaining = pos_on_route
        for idx, eid in enumerate(route[:-1]):
            length = self._edges[eid].length_m
            if remaining <= length:
                return eid, remaining, idx
            remaining -= length
        return route[-1], min(remaining, self._edges[route[-1]].length_m), len(route) - 1

    # ------------------------------------------------------------------- step

    def step(self, action_accel: float) -> StepOutcome:
        """Advance one step with the ego's commanded acceleration, clamped to the physical range.

        A NaN action raises ``ValueError`` before anything changes.
        """
        if self.done:
            raise EpisodeDoneError("no episode in progress; call reset()")
        accel = float(action_accel)
        if math.isnan(accel):
            raise ValueError(f"acceleration action {accel!r} is not a number")
        sc = self.scenario
        dt = sc.step_length_s
        t_start = self.steps * dt

        if self._pending_spawns:
            self._insert_scheduled_spawns()

        accel = min(max(accel, sc.accel_min_mps2), sc.accel_max_mps2)
        ego = self.ego
        prev_speed = ego.speed_mps
        new_speed = max(0.0, prev_speed + accel * dt)
        ego_from = (ego.edge_id, ego.pos_m)
        self._advance_ego(new_speed * dt)
        ego.speed_mps = new_speed
        ego.accel_mps2 = (new_speed - prev_speed) / dt

        # with no traffic left there is nothing to move or hit
        collided = bool(self.background) and (self.background_step(t_start, ego_from) or self.collision_check())
        observation = self._observe()
        reached = (not collided) and observation.dest_distance <= sc.destination_tolerance_m
        braking = ego.accel_mps2 < BRAKING_ACCEL_MPS2
        waiting = self._ego_waiting_at_light(t_start)
        moving = new_speed != 0.0
        # positional arguments in field order: binding keywords costs more, every step
        flags = EventFlags(collided, reached, braking, waiting, moving)
        reward = REWARD_BY_FLAGS[flags]  # compute_reward, for flags that are consistent by construction

        self.steps += 1
        if collided:
            cause = CAUSE_COLLISION
        elif reached:
            cause = CAUSE_DESTINATION
        elif self.steps >= sc.max_steps:
            cause = CAUSE_MAX_STEPS
        else:
            cause = CAUSE_NONE
        self.cause = cause
        self.done = done = cause != CAUSE_NONE
        return StepOutcome(observation, reward, done, cause, flags)

    def _advance_ego(self, displacement: float) -> None:
        """Move the ego along its route, clamping at the end of the last edge."""
        self.distance_traveled_m += displacement
        ego = self.ego
        pos = ego.pos_m + displacement
        moved_from = ego.pos_m
        edge = self._edges[ego.edge_id]
        while pos > edge.length_m:
            edge_len = edge.length_m
            self.traveled_freeflow_time_s += (edge_len - moved_from) / edge.speed_limit_mps
            if ego.route_idx + 1 >= len(ego.route):
                overshoot = pos - edge_len
                self.distance_traveled_m -= overshoot
                pos = edge_len
                break
            pos -= edge_len
            moved_from = 0.0
            ego.route_idx += 1
            ego.edge_id = ego.route[ego.route_idx]
            edge = self._edges[ego.edge_id]
        else:
            self.traveled_freeflow_time_s += (pos - moved_from) / edge.speed_limit_mps
        ego.pos_m = pos

    def _insert_scheduled_spawns(self) -> None:
        kept = []
        for spawn in self._pending_spawns:
            if spawn.step > self.steps:
                kept.append(spawn)
                continue
            route = self.net.routes[spawn.route]
            edge_id, pos, idx = self._route_point(route, spawn.pos_m)
            others = (self.ego, *self.background)
            if self._overlaps(edge_id, pos, self.scenario.vehicle_length_m, others, self.scenario.min_gap_m):
                kept.append(replace(spawn, step=spawn.step + 1))  # deferred to the next step rather than dropped
            else:
                self._add_background(route, edge_id, pos, idx, spawn.speed_mps, spawn.speed_factor)
        self._pending_spawns = kept

    # ------------------------------------------------------- background logic

    def background_step(self, t: float, ego_from: tuple[str, float]) -> bool:
        """Advance every background vehicle one step; vehicles leaving the network are dropped.

        Decisions use a snapshot of all vehicles taken after the ego's move and
        before any background vehicle's, so the result does not depend on update
        order.  ``ego_from`` is the ego's edge and front before its move; returns
        whether the ego drove through a vehicle that stays on the network: from
        at or behind its tail before the step to at or ahead of its front after.
        """
        sc = self.scenario
        dt = sc.step_length_s
        ego = self.ego
        # value snapshot: later updates must not change earlier vehicles' gaps;
        # each entry keeps its vehicle, so a vehicle skips itself by identity
        snapshot = [(v, v.edge_id, v.pos_m, v.pos_m - v.length_m) for v in (ego, *self.background)]
        shifts_from = self._shift[ego_from[0]]
        shifts_to = self._shift[ego.edge_id]
        ego_tail = ego.pos_m - ego.length_m
        passed = False

        survivors: list[VehicleState] = []
        for veh in self.background:
            edge_id, tail = veh.edge_id, veh.pos_m - veh.length_m
            edge = self._edges[edge_id]
            candidate = min(
                veh.speed_mps + sc.bg_accel_mps2 * dt,
                edge.speed_limit_mps * veh.speed_factor,
                edge.speed_limit_mps,
            )
            gap = self._gap_to_leader(veh, snapshot)
            if gap is not None:
                candidate = min(candidate, max(0.0, (gap - sc.min_gap_m) / dt))
            stop_dist = _distance_to_red_light(edge, veh.pos_m, t)
            if stop_dist is not None:
                candidate = min(candidate, max(0.0, stop_dist / dt))
            new_speed = max(0.0, candidate)

            veh.speed_mps = new_speed
            if self._advance_background(veh, new_speed * dt):
                survivors.append(veh)
                before, after = shifts_from.get(edge_id), shifts_to.get(veh.edge_id)
                if before is not None and after is not None:
                    passed = passed or (ego_from[1] + before <= tail and ego_tail + after >= veh.pos_m)
        self.background = survivors
        return passed

    def _advance_background(self, veh: VehicleState, displacement: float) -> bool:
        """Move a background vehicle; returns False when it leaves the network."""
        pos = veh.pos_m + displacement
        edge = self._edges[veh.edge_id]
        while pos > edge.length_m:
            pos -= edge.length_m
            idx = self._next_route_idx(veh.route, veh.route_idx)
            if idx is None:
                return False
            veh.route_idx = idx
            veh.edge_id = veh.route[veh.route_idx]
            edge = self._edges[veh.edge_id]
            limit = edge.speed_limit_mps
            if veh.speed_mps > limit:
                veh.speed_mps = limit
        veh.pos_m = pos
        return True

    def _next_route_idx(self, route: tuple[str, ...], idx: int) -> int | None:
        """The index after ``idx`` on ``route``: 0 past the end of a cyclic route, None past the end of another."""
        if idx + 1 < len(route):
            return idx + 1
        return 0 if self._route_cyclic[route] else None

    def _gap_to_leader(
        self, veh: VehicleState, snapshot: list[tuple[VehicleState, str, float, float]]
    ) -> float | None:
        """Bumper gap to the nearest other vehicle ahead on this vehicle's path.

        The leader is sought on the vehicle's own edge first, then edge by edge
        along its route while the next edge starts within ``BG_LOOKAHEAD_M``.
        """
        edge_id, pos_m = veh.edge_id, veh.pos_m
        best: float | None = None
        for other, e, pos, tail in snapshot:
            if e == edge_id and pos > pos_m and other is not veh:
                gap = tail - pos_m
                if best is None or gap < best:
                    best = gap
        if best is not None:
            return best
        route, idx = veh.route, veh.route_idx
        dist = self._edges[edge_id].length_m - pos_m  # to the start of the next edge
        while dist < BG_LOOKAHEAD_M:
            idx = self._next_route_idx(route, idx)
            if idx is None:
                break
            eid = route[idx]
            for other, e, _pos, tail in snapshot:
                if e == eid and other is not veh:
                    gap = dist + tail
                    if best is None or gap < best:
                        best = gap
            if best is not None or eid == edge_id:  # found, or wrapped all the way around
                break
            dist += self._edges[eid].length_m
        return best

    # -------------------------------------------------------------- collision

    def _overlaps(
        self, edge_id: str, pos: float, length: float, others: Iterable[VehicleState], margin: float
    ) -> bool:
        """Whether a body ``(pos - length, pos]`` on ``edge_id`` comes within ``margin`` of any of ``others``.

        Bodies are compared on one edge, or across the end of an edge that a route follows on with the other.
        """
        shifts = self._shift[edge_id]
        for other in others:
            shift = shifts.get(other.edge_id)
            if shift is not None:
                front = pos + shift  # in the other's coordinates
                if front + margin > other.pos_m - other.length_m and other.pos_m + margin > front - length:
                    return True
        return False

    def collision_check(self) -> bool:
        """True when the ego overlaps another vehicle or shares an intersection box with a crossing one."""
        ego = self.ego
        if self._overlaps(ego.edge_id, ego.pos_m, ego.length_m, self.background, 0.0):
            return True
        crossers = self._crossers[ego.edge_id]
        box = self.scenario.intersection_box_m
        for other in self.background:
            node = crossers.get(other.edge_id)
            if node is not None:
                nx, ny = node
                ex, ey = _point(self._edges[ego.edge_id], ego.pos_m)
                ox, oy = _point(self._edges[other.edge_id], other.pos_m)
                if math.hypot(ex - nx, ey - ny) <= box and math.hypot(ox - nx, oy - ny) <= box:
                    return True
        return False

    # ------------------------------------------------------------ observation

    def _ego_waiting_at_light(self, t: float) -> bool:
        if self.ego.speed_mps >= WAITING_SPEED_MPS:
            return False
        stop_dist = _distance_to_red_light(self._edges[self.ego.edge_id], self.ego.pos_m, t)
        return stop_dist is not None and stop_dist <= WAITING_LIGHT_RANGE_M

    def _observe(self) -> EgoObservation:
        ego = self.ego
        edge = self._edges[ego.edge_id]
        x, y = _point(edge, ego.pos_m)
        dest_x, dest_y = self._dest_xy
        heading = edge.heading
        dest_distance = math.hypot(x - dest_x, y - dest_y)  # distance_to_destination
        return EgoObservation(x, y, ego.speed_mps, heading, ego.accel_mps2, dest_distance)

    @property
    def time_s(self) -> float:
        return self.steps * self.scenario.step_length_s
