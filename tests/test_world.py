from dataclasses import replace
from itertools import pairwise, product

import numpy as np
import pytest

from feddrive.evaluation import EvalTemplate, realize_scenario
from feddrive.sim.network import RoadNetwork, load_network, straight_corridor
from feddrive.sim.reward import FLAGS_AND_REWARD, EventFlags, compute_reward
from feddrive.sim.world import (
    BRAKING_ACCEL_MPS2,
    CAUSE_COLLISION,
    CAUSE_DESTINATION,
    CAUSE_MAX_STEPS,
    CAUSE_NONE,
    OBS_SCALE,
    WAITING_LIGHT_RANGE_M,
    WAITING_SPEED_MPS,
    BackgroundCountError,
    EgoObservation,
    EpisodeDoneError,
    ScenarioConfig,
    SpawnError,
    SpawnSpec,
    StepOutcome,
    TrafficWorld,
    UnreachableDestinationError,
    VehicleState,
    distance_to_destination,
)
from tests.conftest import assert_background_apart_and_bounded

# straight road with a light at the midpoint node, red during [0, 10)
LIT_ROAD = """
node a 0 0
node b 100 0
node c 200 0
edge ab a b 100 20 1
edge bc b c 100 20 1
light b 10 10 10
route main ab bc
"""


def make_world(net, **overrides):
    """A world on network-map text or a built network, reset with episode seed 0."""
    network = net if isinstance(net, RoadNetwork) else load_network(net)
    kwargs = dict(network=network, ego_route="main", destination_node="c", master_seed=0)
    kwargs.update(overrides)
    world = TrafficWorld(ScenarioConfig(**kwargs))
    world.reset(0)
    return world


def add_background(world, edge_id, pos, speed=0.0, factor=1.0, route=("ab", "bc")):
    # direct injection for geometric edge cases that normal spawning refuses
    idx = route.index(edge_id)
    world.background.append(
        VehicleState(
            vehicle_id=f"bg{len(world.background)}",
            edge_id=edge_id,
            pos_m=pos,
            speed_mps=speed,
            accel_mps2=0.0,
            length_m=world.scenario.vehicle_length_m,
            route=tuple(route),
            route_idx=idx,
            speed_factor=factor,
        )
    )
    return world.background[-1]


def background_step(world, t):
    """Move the background one step at time ``t``, with the ego standing where it is."""
    return world.background_step(t, (world.ego.edge_id, world.ego.pos_m))


def random_actions(episode_seed, steps, low=-4.5):
    """The random-action stream of the grid sweeps: uniform over [low, 2.6], by default the ego's whole range."""
    return np.random.default_rng(episode_seed).uniform(low, 2.6, size=steps).tolist()


def grid_loop_world(grid_net, count, master_seed):
    return TrafficWorld(
        ScenarioConfig(
            network=grid_net,
            ego_route="loop",
            destination_node="n00",
            destination_tolerance_m=1.0,
            background_count=count,
            max_steps=400,
            master_seed=master_seed,
        )
    )


# ----------------------------------------------------------------- distance


def test_distance_examples():
    assert distance_to_destination((0, 0), (0, 0)) == 0.0
    assert distance_to_destination((0, 0), (3, 4)) == 5.0
    assert distance_to_destination((1, 1), (-2, 5)) == 5.0


def test_scenario_validation(single_road_net):
    base = dict(network=single_road_net, ego_route="main", destination_node="b")
    with pytest.raises(ValueError, match="max_steps"):
        ScenarioConfig(**base, max_steps=0)
    with pytest.raises(ValueError, match="step_length_s"):
        ScenarioConfig(**base, step_length_s=0.0)
    with pytest.raises(ValueError, match="tolerance"):
        ScenarioConfig(**base, destination_tolerance_m=0.0)
    with pytest.raises(ValueError, match="accel"):
        ScenarioConfig(**base, accel_min_mps2=3.0, accel_max_mps2=2.6)
    for name in ("step_length_s", "destination_tolerance_m", "accel_min_mps2"):
        with pytest.raises(ValueError, match=name):  # NaN fails the checks too
            ScenarioConfig(**base, **{name: float("nan")})
    # the spawn draws need a finite, non-negative, ordered factor range
    for low, high in [(0.9, 0.8), (-0.1, 0.5), (0.5, float("inf")), (float("nan"), 1.0)]:
        with pytest.raises(ValueError, match="bg_speed_factor"):
            ScenarioConfig(**base, bg_speed_factor_min=low, bg_speed_factor_max=high)
    ScenarioConfig(**base, bg_speed_factor_min=0.0, bg_speed_factor_max=0.0)  # parked traffic is fine
    with pytest.raises(ValueError, match="ego route"):
        TrafficWorld(ScenarioConfig(network=single_road_net, ego_route="nope", destination_node="b"))


_POSITIVE = ("vehicle_length_m", "bg_accel_mps2")
_NON_NEGATIVE = ("min_gap_m", "intersection_box_m")
_NON_FINITE = (float("nan"), float("inf"))


@pytest.mark.parametrize(
    "name,bad",
    [(name, bad) for name in _POSITIVE for bad in (0.0, -1.0, *_NON_FINITE)]
    + [(name, bad) for name in _NON_NEGATIVE for bad in (-0.5, *_NON_FINITE)],
)
def test_scenario_rejects_bad_physics(single_road_net, name, bad):
    with pytest.raises(ValueError, match=name):
        ScenarioConfig(network=single_road_net, ego_route="main", destination_node="b", **{name: bad})


def test_scenario_accepts_zero_gaps_and_ranges(single_road_net):
    zeros = dict.fromkeys(_NON_NEGATIVE, 0.0)
    ScenarioConfig(network=single_road_net, ego_route="main", destination_node="b", **zeros)


# -------------------------------------------------------------------- reset


def test_reset_deterministic(road_scenario):
    sc = road_scenario(background_count=3)
    a = TrafficWorld(sc).reset(123)
    b = TrafficWorld(sc).reset(123)
    assert np.array_equal(a.as_vector(), b.as_vector())
    w1, w2 = TrafficWorld(sc), TrafficWorld(sc)
    w1.reset(123), w2.reset(123)
    for v1, v2 in zip(w1.background, w2.background, strict=True):
        assert (v1.edge_id, v1.pos_m, v1.speed_mps, v1.speed_factor) == (
            v2.edge_id,
            v2.pos_m,
            v2.speed_mps,
            v2.speed_factor,
        )


def expected_observation(world):
    """The ego's observation, worked out here from the network and the ego's state."""
    ego, net = world.ego, world.net
    edge = net.edges[ego.edge_id]
    a, b = net.nodes[edge.from_node], net.nodes[edge.to_node]
    f = ego.pos_m / edge.length_m
    x, y = a.x + f * (b.x - a.x), a.y + f * (b.y - a.y)
    dest = net.nodes[world.scenario.destination_node]
    dest_distance = distance_to_destination((x, y), (dest.x, dest.y))
    return EgoObservation(x, y, ego.speed_mps, net.heading(ego.edge_id), ego.accel_mps2, dest_distance)


def expected_flags(world):
    """The last step's events, worked out here from the world after it."""
    ego, net = world.ego, world.net
    edge = net.edges[ego.edge_id]
    light = net.lights.get(edge.to_node)
    t_start = (world.steps - 1) * world.scenario.step_length_s
    waiting = (
        ego.speed_mps < WAITING_SPEED_MPS
        and light is not None
        and not light.is_green(t_start)
        and edge.length_m - ego.pos_m <= WAITING_LIGHT_RANGE_M
    )
    return EventFlags(
        world.cause == CAUSE_COLLISION,
        world.cause == CAUSE_DESTINATION,
        ego.accel_mps2 < BRAKING_ACCEL_MPS2,
        waiting,
        ego.speed_mps != 0.0,
    )


def test_step_table_holds_each_consistent_flag_combination_with_its_reward():
    combos = [bits for bits in product((False, True), repeat=5) if not (bits[0] and bits[1])]
    assert len(combos) == 24 and set(FLAGS_AND_REWARD) == set(combos)
    for bits in combos:
        flags, reward = FLAGS_AND_REWARD[bits]
        assert type(flags) is EventFlags
        assert (flags, reward) == (EventFlags(*bits), compute_reward(EventFlags(*bits)))


@pytest.mark.parametrize("where", ["eval_corridor", "grid"])
def test_step_records_have_their_class_and_fields_in_traffic(where, grid_net):
    if where == "grid":
        world, low = grid_loop_world(grid_net, 6, master_seed=17), -4.5
    else:  # an ego that never brakes meets the corridor's slow traffic
        template = EvalTemplate(background_count=2, bg_speed_factor_min=0.4, bg_speed_factor_max=0.7, max_steps=60)
        world, low = TrafficWorld(realize_scenario(template, 207.0)), 0.0
    causes = set()
    for seed in range(12):
        obs = world.reset(seed)
        assert type(obs) is EgoObservation and obs == expected_observation(world)
        for action in random_actions(seed, world.scenario.max_steps, low):
            out = world.step(action)
            for record, cls in ((out, StepOutcome), (out.observation, EgoObservation), (out.flags, EventFlags)):
                assert type(record) is cls
                assert record == cls(**record._asdict())
            assert out.observation == expected_observation(world)
            assert out.flags == expected_flags(world)
            assert out == (out.observation, compute_reward(out.flags), world.done, world.cause, out.flags)
            assert type(out.reward) is float and type(out.done) is bool
            if out.done:
                break
        causes.add(world.cause)
    assert CAUSE_COLLISION in causes and len(causes) > 1  # the terminal records are built too


def test_step_records_print_their_fields():
    world = make_world(LIT_ROAD)
    out = world.step(2.6)
    obs = out.observation
    assert repr(out) == (
        f"StepOutcome(observation=EgoObservation(pos_x={obs.pos_x!r}, pos_y=0.0, speed=2.6, heading=0.0, "
        f"acceleration=2.6, dest_distance={obs.dest_distance!r}), reward=0.05, done=False, cause='none', "
        "flags=EventFlags(collided=False, reached_destination=False, braking=False, waiting_at_light=False, "
        "speed_nonzero=True))"
    )
    assert obs.as_vector().tolist() == [obs.pos_x, obs.pos_y, obs.speed, obs.heading, obs.acceleration, obs.dest_distance]


def test_reset_initial_observation():
    net = "node a 0 0\nnode b 3 4\nedge ab a b 5 20 1\nroute main ab\n"
    world = make_world(net, destination_node="b")
    obs = world.reset(0)
    assert obs.dest_distance == 5.0
    assert obs.speed == 0.0
    assert obs.acceleration == 0.0
    assert (obs.pos_x, obs.pos_y) == (0.0, 0.0)


def test_unreachable_destination():
    net = load_network("node a 0 0\nnode b 100 0\nedge ab a b 100 20 1\nroute main ab\n")
    with pytest.raises(UnreachableDestinationError):
        TrafficWorld(ScenarioConfig(network=net, ego_route="main", destination_node="a"))


def test_world_rejects_an_unknown_destination_or_spawn_route(road_scenario):
    with pytest.raises(ValueError, match="unknown destination node 'zz'"):
        TrafficWorld(road_scenario(destination_node="zz"))
    stray = SpawnSpec(step=0, route="nope", pos_m=1.0, speed_mps=0.0)
    with pytest.raises(SpawnError, match="spawn references unknown route 'nope'"):
        TrafficWorld(road_scenario(background_spawns=(stray,)))


def test_step_before_reset_rejected(road_scenario):
    world = TrafficWorld(road_scenario())
    with pytest.raises(EpisodeDoneError):
        world.step(0.0)


def test_step_after_a_failed_reset_rejected(road_scenario, monkeypatch):
    world = TrafficWorld(road_scenario(background_count=35))
    world.reset(0)
    world.step(0.0)
    add = world._add_background

    def fail_on_the_third(*args):
        if len(world.background) == 2:
            raise RuntimeError("placement failed")
        add(*args)

    monkeypatch.setattr(world, "_add_background", fail_on_the_third)
    with pytest.raises(RuntimeError, match="placement failed"):
        world.reset(10)  # gives up part-way through placing the background
    assert len(world.background) == 2
    with pytest.raises(EpisodeDoneError):  # not a step on a half-placed episode
        world.step(0.0)


# --------------------------------------------------------------------- step


def test_speed_clamped_at_zero(road_scenario):
    world = TrafficWorld(road_scenario(accel_min_mps2=-10.0))
    world.reset(0)
    world.ego.speed_mps = 5.0
    out = world.step(-10.0)
    assert out.observation.speed == 0.0


def test_action_clamped_defensively(road_scenario):
    world = TrafficWorld(road_scenario())
    world.reset(0)
    out = world.step(99.0)  # clamps to accel_max 2.6
    assert out.observation.speed == pytest.approx(2.6)


@pytest.mark.parametrize("action", [float("nan"), np.nan, np.float64("nan")])
def test_nan_action_rejected_before_anything_changes(road_scenario, action):
    world = TrafficWorld(road_scenario())
    world.reset(0)
    world.step(2.0)
    world.step(2.0)  # 4 m/s: a NaN clamped to a bound would brake or speed up
    before = (world.steps, world.ego.pos_m, world.ego.speed_mps, world.ego.accel_mps2, world.distance_traveled_m)
    with pytest.raises(ValueError, match="acceleration action nan"):
        world.step(action)
    assert (world.steps, world.ego.pos_m, world.ego.speed_mps, world.ego.accel_mps2, world.distance_traveled_m) == before
    assert world.step(0.0).observation.speed == 4.0  # the episode goes on


def test_no_teleport(road_scenario):
    world = TrafficWorld(road_scenario())
    world.reset(0)
    rng = np.random.default_rng(5)
    for _ in range(30):
        if world.done:
            break
        before = world.ego.pos_m
        out = world.step(rng.uniform(-4.5, 2.6))
        assert world.ego.pos_m == before + out.observation.speed * world.scenario.step_length_s


def test_destination_termination_and_reward(road_scenario):
    world = TrafficWorld(road_scenario())
    world.reset(0)
    out = None
    for _ in range(400):
        out = world.step(2.6)
        if out.done:
            break
    assert out.cause == CAUSE_DESTINATION
    assert out.reward == 10.0
    assert out.flags.reached_destination


def test_max_steps_termination(road_scenario):
    world = TrafficWorld(road_scenario(max_steps=900))
    world.reset(0)
    for i in range(900):
        out = world.step(-4.5)  # parked forever
        assert out.done == (i == 899)
    assert out.cause == CAUSE_MAX_STEPS
    with pytest.raises(EpisodeDoneError):
        world.step(0.0)


def test_done_exactly_once(road_scenario):
    world = TrafficWorld(road_scenario(max_steps=10))
    world.reset(0)
    dones = [world.step(0.0).done for _ in range(10)]
    assert dones == [False] * 9 + [True]


def test_ego_crosses_edges():
    world = make_world(LIT_ROAD, max_steps=900)
    for _ in range(9):  # cumulative distance 2.6 * 45 = 117 m > 100 m
        world.step(2.6)
    assert world.ego.edge_id == "bc"
    assert world.ego.route_idx == 1


# --------------------------------------------------------------- background


def test_background_free_acceleration():
    world = make_world(LIT_ROAD, background_spawns=(SpawnSpec(step=0, route="main", pos_m=10.0, speed_mps=3.0),))
    world.step(0.0)
    (veh,) = world.background
    assert veh.speed_mps == pytest.approx(3.0 + 2.6)


def test_background_respects_speed_limit_factor():
    world = make_world(
        LIT_ROAD,
        background_spawns=(SpawnSpec(step=0, route="main", pos_m=10.0, speed_mps=18.0, speed_factor=0.5),),
    )
    world.step(0.0)
    (veh,) = world.background
    assert veh.speed_mps == 10.0  # 20 * 0.5


def test_background_stopped_leader_one_metre():
    world = make_world(LIT_ROAD, max_steps=900)
    world.ego.pos_m = 90.0  # ego far from the pair
    follower = add_background(world, "ab", 10.0, speed=4.0)
    leader = add_background(world, "ab", 16.0, speed=0.0, factor=0.0)  # tail at 11, gap 1 m
    background_step(world, 50.0)  # green phase, light not a factor
    assert follower.speed_mps == 0.0
    assert leader.tail_m - follower.pos_m == pytest.approx(1.0)


def test_leader_sharing_the_followers_id_still_blocks_it():
    # a vehicle skips only itself: an id is a label that two vehicles can share
    world = make_world(LIT_ROAD, max_steps=900)
    world.ego.pos_m = 90.0
    follower = add_background(world, "ab", 10.0, speed=4.0)
    leader = add_background(world, "ab", 20.0, speed=0.0, factor=0.0)  # tail at 15, gap 5 m
    leader.vehicle_id = follower.vehicle_id
    background_step(world, 50.0)
    assert follower.speed_mps == 5.0 - world.scenario.min_gap_m
    assert leader.tail_m - follower.pos_m == world.scenario.min_gap_m


def test_background_slows_to_a_lower_limit_on_entering_its_edge():
    slow_exit = LIT_ROAD.replace("edge bc b c 100 20 1", "edge bc b c 100 5 1")
    world = make_world(slow_exit)
    veh = add_background(world, "ab", 95.0, speed=15.0)
    background_step(world, 12.0)  # green: 17.6 m/s carries it 12.6 m into bc
    assert veh.edge_id == "bc"
    assert veh.pos_m == pytest.approx(12.6)
    assert veh.speed_mps == 5.0


def test_background_red_light_deceleration():
    # 2 m from a red stop line at speed 5: candidate = min(5+2.6, 20, 2/1) = 2
    world = make_world(LIT_ROAD)
    veh = add_background(world, "ab", 98.0, speed=5.0)
    background_step(world, 0.0)  # red during [0, 10)
    assert veh.speed_mps == 2.0
    background_step(world, 1.0)
    assert veh.pos_m <= 100.0


def test_background_crosses_on_green():
    world = make_world(LIT_ROAD)
    veh = add_background(world, "ab", 98.0, speed=5.0)
    background_step(world, 12.0)  # green phase
    assert veh.edge_id == "bc"


def test_background_despawns_at_route_end():
    world = make_world(LIT_ROAD)
    add_background(world, "bc", 99.0, speed=15.0)
    background_step(world, 50.0)
    assert world.background == []


def test_background_wraps_cyclic_route(grid_net):
    sc = ScenarioConfig(network=grid_net, ego_route="loop", destination_node="n00", master_seed=0)
    world = TrafficWorld(sc)
    world.reset(0)
    world.ego.pos_m = 50.0  # keep the ego clear of the wrap point
    route = grid_net.routes["loop"]
    add_background(world, "e_w", 99.0, speed=10.0, route=route)
    background_step(world, 50.0)
    (veh,) = world.background
    assert veh.edge_id == "e_s"  # wrapped to the first route edge


def test_scheduled_spawn_appears_and_defers():
    blocker = SpawnSpec(step=0, route="main", pos_m=30.0, speed_mps=0.0, speed_factor=0.0)
    late = SpawnSpec(step=2, route="main", pos_m=30.0, speed_mps=0.0, speed_factor=1.0)
    world = make_world(LIT_ROAD, background_spawns=(blocker, late))
    assert len(world.background) == 0
    world.step(0.0)  # step 0: blocker inserted
    assert len(world.background) == 1
    world.step(0.0)
    world.step(0.0)  # step 2: late blocked by the parked blocker, deferred
    assert len(world.background) == 1
    for _ in range(3):
        world.step(0.0)
    assert len(world.background) == 1  # blocker never moves, spawn stays deferred


def test_spawn_past_its_route_end_is_rejected(road_scenario):
    # single_road.net's route "main" is one 400 m edge; such a spawn used to be clamped to 400 m and drive off
    past = (SpawnSpec(step=0, route="main", pos_m=5000.0),)
    with pytest.raises(ValueError, match=r"spawn at 5000.0 m on route 'main' lies past the route's end \(400.0 m long\)"):
        TrafficWorld(road_scenario(background_spawns=past))
    world = TrafficWorld(road_scenario(background_spawns=(SpawnSpec(step=0, route="main", pos_m=400.0),)))
    world.reset(0)  # the route's end itself is on the road


def test_background_count_is_bounded_by_the_routes_edges():
    # at 7.5 m front to front a 100 m edge holds 14, and 13 a spacing in: ab past the ego's front, bc past the
    # end of ab, which main enters it from; bc, on both routes, counts once
    kwargs = dict(network=load_network(LIT_ROAD + "route tail bc\n"), ego_route="main", destination_node="c")
    TrafficWorld(ScenarioConfig(**kwargs, background_count=26))
    with pytest.raises(BackgroundCountError, match=r"background_count 27 exceeds the 26 vehicles .* at 7\.5 m"):
        TrafficWorld(ScenarioConfig(**kwargs, background_count=27))


# the ego's first edge is bc, and ab runs straight on into it
FEEDER_ROAD = LIT_ROAD.replace("route main ab bc", "route main bc\nroute through ab bc")


@pytest.mark.parametrize(
    "where, bound",
    [
        ("single-road", 53),  # 400 m at 7.5 m holds 54 fronts, the ego takes one place
        ("grid", 103),  # eight 100 m edges, each entered from another: 13 places, and 12 on e_w, into the ego's
        ("corridor-5m", 6),  # main is shorter than a spacing; tail, entered from main, holds 6
        ("corridor-10m", 7),  # one place on main past the ego's front, 6 on tail
        ("corridor-207m", 33),
        ("feeder", 26),  # two 100 m edges of 14 places, less one for the ego on bc and one at ab's end
    ],
)
def test_every_count_up_to_the_bound_places_first_time(grid_net, single_road_net, where, bound):
    network, ego_route, destination = {
        "single-road": (single_road_net, "main", "b"),
        "grid": (grid_net, "loop", "n00"),
        "corridor-5m": (straight_corridor(5.0), "ego", "dest"),
        "corridor-10m": (straight_corridor(10.0), "ego", "dest"),
        "corridor-207m": (straight_corridor(207.0), "ego", "dest"),
        "feeder": (load_network(FEEDER_ROAD), "main", "c"),
    }[where]
    sc = ScenarioConfig(network=network, ego_route=ego_route, destination_node=destination)
    with pytest.raises(BackgroundCountError, match=f"exceeds the {bound} vehicles"):
        TrafficWorld(replace(sc, background_count=bound + 1))
    spacing = sc.vehicle_length_m + sc.min_gap_m
    for count in range(bound + 1):
        world = TrafficWorld(replace(sc, background_count=count))
        for seed in range(100):
            world.reset(seed)
            assert len(world.background) == count
            ego = world.ego
            assert not world._overlaps(ego.edge_id, ego.pos_m, ego.length_m, world.background, sc.min_gap_m)
            fronts = {}
            for v in world.background:
                assert 0.0 <= v.pos_m <= network.edges[v.edge_id].length_m
                assert v.route[v.route_idx] == v.edge_id
                fronts.setdefault(v.edge_id, []).append(v.pos_m)
            for on_edge in fronts.values():
                assert all(b - a >= spacing - 1e-9 for a, b in pairwise(sorted(on_edge)))
            assert_background_apart_and_bounded(world)


@pytest.mark.parametrize("value", [-5.0, float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["step", "pos_m", "speed_mps", "speed_factor"])
def test_spawn_numbers_must_be_non_negative_and_finite(name, value):
    # a negative pos_m would place the vehicle behind its route's start, off the road
    with pytest.raises(ValueError, match=f"{name} must be >= 0 and finite"):
        SpawnSpec(**{"step": 0, "route": "main", name: value})


# ---------------------------------------------------------------- collision


def test_collision_alone_is_false(road_scenario):
    world = TrafficWorld(road_scenario())
    world.reset(0)
    assert world.collision_check() is False


def test_collision_interval_overlap():
    world = make_world(LIT_ROAD)
    world.ego.pos_m = 15.0  # ego body (10, 15]
    add_background(world, "ab", 14.0)  # leader body (9, 14]
    assert world.collision_check() is True


def test_collision_requires_overlap():
    world = make_world(LIT_ROAD)
    world.ego.pos_m = 15.0
    add_background(world, "ab", 21.0)  # leader body (16, 21], gap 1 m
    assert world.collision_check() is False


def test_ego_overlap_across_a_collinear_edge_boundary_collides():
    world = make_world(straight_corridor(107.0), ego_route="ego", destination_node="dest")
    world.ego.pos_m = 104.0  # ego body (99, 104] on main
    leader = add_background(world, "tail", 1.0, route=("main", "tail"))  # body (103, 108] in main's coordinates
    assert world.collision_check() is True  # the same overlap within one edge collides
    world.ego.pos_m = 102.0  # ego body (97, 102], 1 m short of the leader's tail
    assert world.collision_check() is False
    leader.pos_m = 0.0  # body (102, 107]: touching is not overlapping
    assert world.collision_check() is False


def test_ego_tail_overlap_across_a_collinear_edge_boundary_collides():
    world = make_world(LIT_ROAD)
    world.ego.edge_id, world.ego.route_idx, world.ego.pos_m = "bc", 1, 2.0  # body (97, 102] in ab's coordinates
    follower = add_background(world, "ab", 99.0)  # body (94, 99]
    assert world.collision_check() is True
    follower.pos_m = 96.0  # body (91, 96], 1 m behind the ego's tail
    assert world.collision_check() is False


def test_scripted_spawn_keeps_the_gap_across_a_collinear_edge_boundary():
    blocker = SpawnSpec(step=0, route="main", pos_m=98.0, speed_factor=0.0)  # body (93, 98] on ab
    near = SpawnSpec(step=1, route="main", pos_m=104.0, speed_factor=0.0)  # bc at 4: 1 m past the blocker
    far = SpawnSpec(step=1, route="main", pos_m=106.0, speed_factor=0.0)  # bc at 6: 3 m past it
    world = make_world(LIT_ROAD, background_spawns=(blocker, near, far))
    for _ in range(4):
        world.step(0.0)
    # near stays deferred: within min_gap_m (2.5) of the blocker behind it, and overlapping far ahead of it
    assert [(v.edge_id, v.pos_m) for v in world.background] == [("ab", 98.0), ("bc", 6.0)]


def test_collision_at_intersection_crossing(cross_net):
    sc = ScenarioConfig(network=cross_net, ego_route="we", destination_node="e", master_seed=0)
    world = TrafficWorld(sc)
    world.reset(0)
    world.ego.pos_m = 47.0  # at (-3, 0), inside the 5 m box around c
    world.background.append(
        VehicleState(
            vehicle_id="bg0",
            edge_id="sn1",
            pos_m=48.0,  # at (0, -2), inside the box, heading north
            speed_mps=5.0,
            accel_mps2=0.0,
            length_m=5.0,
            route=("sn1", "sn2"),
            route_idx=0,
        )
    )
    assert world.collision_check() is True


def test_oncoming_traffic_not_crossing(grid_net):
    sc = ScenarioConfig(network=grid_net, ego_route="loop", destination_node="n00", master_seed=0)
    world = TrafficWorld(sc)
    world.reset(0)
    world.ego.pos_m = 97.0  # on e_s, near n10
    route = grid_net.routes["loop_cw"]
    add_background(world, "e_s_r", 1.0, route=route)  # the oncoming edge, also near n10
    assert world.collision_check() is False


def test_vehicle_following_the_ego_round_a_corner_is_not_crossing(grid_net):
    # loop runs e_w into e_s at n00: a vehicle behind the ego on that path is compared along it, not by the box
    sc = ScenarioConfig(network=grid_net, ego_route="loop", destination_node="n00", master_seed=0)
    world = TrafficWorld(sc)
    world.reset(0)
    world.ego.pos_m = 4.4  # at (4.4, 0), inside the 5 m box of n00; its tail 0.6 m back on e_w
    follower = add_background(world, "e_w", 96.9, route=grid_net.routes["loop"])  # at (0, 3.1), 2.5 m behind
    assert world.collision_check() is False
    world.ego.pos_m = 0.9  # its tail now 1 m behind the follower's front
    assert world.collision_check() is True
    world.ego.pos_m = 4.4
    world.background.remove(follower)
    add_background(world, "e_w_r", 4.0, route=grid_net.routes["loop_cw"])  # leaving n00 northwards, at (0, 4)
    assert world.collision_check() is True
    # loop_cw is cyclic: its last edge, e_s_r, runs into its first, e_w_r, at n00, so those two do not cross
    assert world._shift["e_s_r"]["e_w_r"] == -100.0 and "e_w_r" not in world._crossers["e_s_r"]


def test_crossers_are_edges_that_share_one_end_and_no_route(cross_net):
    world = TrafficWorld(ScenarioConfig(network=cross_net, ego_route="we", destination_node="e"))
    assert world._crossers == {
        "we1": {"sn1": (0.0, 0.0), "sn2": (0.0, 0.0)},
        "we2": {"sn1": (0.0, 0.0), "sn2": (0.0, 0.0)},
        "sn1": {"we1": (0.0, 0.0), "we2": (0.0, 0.0)},
        "sn2": {"we1": (0.0, 0.0), "we2": (0.0, 0.0)},
    }
    assert world._shift["we1"] == {"we1": 0.0, "we2": -50.0}
    assert world._shift["we2"] == {"we2": 0.0, "we1": 50.0}


def test_single_edge_cyclic_route_links_its_edge_to_itself_only():
    ring = "node a 0 0\nedge ring a a 100 20 1\nroute main ring\n"
    world = make_world(ring, destination_node="a")
    assert (world._shift, world._crossers) == ({"ring": {"ring": 0.0}}, {"ring": {}})
    assert world._places == 13  # fronts from a spacing past the ego's to the end of the edge
    world.ego.pos_m = 12.0  # body (7, 12]
    vehicle = add_background(world, "ring", 10.0, route=("ring",))  # body (5, 10]
    assert world.collision_check() is True
    vehicle.pos_m = 19.5  # body (14.5, 19.5]
    assert world.collision_check() is False


def test_two_edges_joining_the_same_nodes_one_way_never_cross():
    parallel = "node a 0 0\nnode c 100 0\nedge p a c 100 20 1\nedge q a c 100 20 1\nroute main p\nroute side q\n"
    world = make_world(parallel)
    assert (world._shift, world._crossers) == ({"p": {"p": 0.0}, "q": {"q": 0.0}}, {"p": {}, "q": {}})
    world.ego.pos_m = 98.0
    add_background(world, "q", 98.0, route=("q",))  # beside the ego, at the same node's box
    assert world.collision_check() is False


def test_ego_driving_through_a_vehicle_between_two_steps_collides():
    world = make_world(LIT_ROAD)
    world.ego.pos_m, world.ego.speed_mps = 15.0, 20.0  # body (10, 15]; one step takes it to (30, 35]
    add_background(world, "ab", 30.0, factor=0.0)  # body (25, 30]: touching after the step
    assert world.step(0.0).cause == CAUSE_COLLISION
    world = make_world(LIT_ROAD)
    world.ego.pos_m, world.ego.speed_mps = 95.0, 20.0  # body (90, 95] on ab; one step takes it to (10, 15] on bc
    add_background(world, "bc", 5.0, factor=0.0)  # body (0, 5] on bc
    assert world.step(0.0).cause == CAUSE_COLLISION
    world = make_world(LIT_ROAD)
    world.ego.pos_m, world.ego.speed_mps = 95.0, 20.0
    parked = add_background(world, "bc", 20.0, factor=0.0)  # body (15, 20]: the ego stops short of it
    assert world.step(0.0).cause == CAUSE_NONE
    world.ego.pos_m = parked.pos_m + 5.0  # body (20, 25] on bc, ahead of the vehicle, and drives away
    assert world.step(0.0).cause == CAUSE_NONE


def test_collision_terminates_episode():
    spawn = SpawnSpec(step=0, route="main", pos_m=30.0, speed_mps=0.0, speed_factor=0.0)
    world = make_world(LIT_ROAD, background_spawns=(spawn,))
    out = None
    for _ in range(20):
        out = world.step(2.6)
        if out.done:
            break
    assert out.cause == CAUSE_COLLISION
    assert out.reward == -10.0
    assert out.flags.collided and not out.flags.reached_destination


# -------------------------------------------------------------- event flags


def test_waiting_at_light_flag():
    world = make_world(LIT_ROAD)
    world.ego.pos_m = 90.0  # 10 m from the red light at b
    out = world.step(0.0)  # t=0 is red
    assert out.flags.waiting_at_light
    assert not out.flags.braking
    assert out.reward == 0.025  # waiting xor braking


def test_braking_and_waiting_reward():
    world = make_world(LIT_ROAD)
    world.ego.pos_m = 90.0
    world.ego.speed_mps = 1.0
    out = world.step(-4.5)  # decelerates to 0 at the red light
    assert out.flags.braking and out.flags.waiting_at_light
    assert out.reward == -0.05


def test_braking_flag_uses_effective_accel(road_scenario):
    world = TrafficWorld(road_scenario())
    world.reset(0)
    out = world.step(-4.5)  # parked: commanded decel has no effect
    assert not out.flags.braking
    assert out.reward == -0.02


def test_free_movement_reward(road_scenario):
    world = TrafficWorld(road_scenario())
    world.reset(0)
    out = world.step(2.6)
    assert out.flags.speed_nonzero
    assert out.reward == 0.05


# --------------------------------------------------------------- invariants


def test_background_invariants_random_run(grid_net):
    world = grid_loop_world(grid_net, 6, master_seed=17)
    rng = np.random.default_rng(3)
    world.reset(1)
    for _ in range(400):
        if world.done:
            break
        world.step(rng.uniform(-4.5, 2.6))
        assert_background_apart_and_bounded(world)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a vehicle whose route ends at a node seeks its leader only along its own route, not on a linked edge",
)
def test_background_stays_apart_where_a_route_ends_at_another_routes_edge(grid_net):
    # the first failure of the grid sweep: counts 4, 10, 20 and 40, master seeds 0-5, episode seeds 0-19, each
    # driven by random_actions; at step 69 bg16 at 98.56 m on e_s (route to_light, which ends at n10) overlaps
    # bg17 at 2.04 m on e_e
    world = grid_loop_world(grid_net, 20, master_seed=4)
    world.reset(13)
    for action in random_actions(13, 69):
        world.step(action)
        assert_background_apart_and_bounded(world)


def test_step_determinism_with_traffic(grid_net):
    sc = ScenarioConfig(
        network=grid_net,
        ego_route="loop",
        destination_node="n00",
        destination_tolerance_m=1.0,
        background_count=4,
        max_steps=200,
        master_seed=23,
    )
    actions = np.random.default_rng(9).uniform(-4.5, 2.6, size=200)

    def run():
        world = TrafficWorld(sc)
        world.reset(4)
        outs = []
        for a in actions:
            out = world.step(a)
            outs.append((tuple(out.observation.as_vector()), out.reward, out.done, out.cause, out.flags))
            if out.done:
                break
        return outs

    assert run() == run()


def test_obs_scale_is_read_only():
    # an in-place edit would rescale every state the nets see without moving the config hash
    before = OBS_SCALE.copy()
    with pytest.raises(ValueError, match="read-only"):
        OBS_SCALE[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        np.multiply(OBS_SCALE, 2.0, out=OBS_SCALE)
    assert OBS_SCALE.tobytes() == before.tobytes()
