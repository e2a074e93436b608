import numpy as np
import pytest

from feddrive.sim.network import load_network, straight_corridor
from feddrive.sim.world import (
    CAUSE_COLLISION,
    CAUSE_DESTINATION,
    CAUSE_MAX_STEPS,
    OBS_SCALE,
    BackgroundCountError,
    EpisodeDoneError,
    ScenarioConfig,
    SpawnError,
    SpawnSpec,
    TrafficWorld,
    UnreachableDestinationError,
    VehicleState,
    distance_to_destination,
)

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


def make_world(net_text, **overrides):
    kwargs = dict(network=load_network(net_text), ego_route="main", destination_node="c", master_seed=0)
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


def test_step_after_a_failed_reset_rejected(road_scenario):
    world = TrafficWorld(road_scenario(background_count=35))
    world.reset(0)
    world.step(0.0)
    with pytest.raises(ValueError, match="could not place 35 background vehicles"):
        world.reset(10)  # gives up part-way through placing the background
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
    world.background_step(t=50.0)  # green phase, light not a factor
    assert follower.speed_mps == 0.0
    assert leader.tail_m - follower.pos_m == pytest.approx(1.0)


def test_leader_sharing_the_followers_id_still_blocks_it():
    # a vehicle skips only itself: an id is a label that two vehicles can share
    world = make_world(LIT_ROAD, max_steps=900)
    world.ego.pos_m = 90.0
    follower = add_background(world, "ab", 10.0, speed=4.0)
    leader = add_background(world, "ab", 20.0, speed=0.0, factor=0.0)  # tail at 15, gap 5 m
    leader.vehicle_id = follower.vehicle_id
    world.background_step(t=50.0)
    assert follower.speed_mps == 5.0 - world.scenario.min_gap_m
    assert leader.tail_m - follower.pos_m == world.scenario.min_gap_m


def test_background_slows_to_a_lower_limit_on_entering_its_edge():
    slow_exit = LIT_ROAD.replace("edge bc b c 100 20 1", "edge bc b c 100 5 1")
    world = make_world(slow_exit)
    veh = add_background(world, "ab", 95.0, speed=15.0)
    world.background_step(t=12.0)  # green: 17.6 m/s carries it 12.6 m into bc
    assert veh.edge_id == "bc"
    assert veh.pos_m == pytest.approx(12.6)
    assert veh.speed_mps == 5.0


def test_background_red_light_deceleration():
    # 2 m from a red stop line at speed 5: candidate = min(5+2.6, 20, 2/1) = 2
    world = make_world(LIT_ROAD)
    veh = add_background(world, "ab", 98.0, speed=5.0)
    world.background_step(t=0.0)  # red during [0, 10)
    assert veh.speed_mps == 2.0
    world.background_step(t=1.0)
    assert veh.pos_m <= 100.0


def test_background_crosses_on_green():
    world = make_world(LIT_ROAD)
    veh = add_background(world, "ab", 98.0, speed=5.0)
    world.background_step(t=12.0)  # green phase
    assert veh.edge_id == "bc"


def test_background_despawns_at_route_end():
    world = make_world(LIT_ROAD)
    add_background(world, "bc", 99.0, speed=15.0)
    world.background_step(t=50.0)
    assert world.background == []


def test_background_wraps_cyclic_route(grid_net):
    sc = ScenarioConfig(network=grid_net, ego_route="loop", destination_node="n00", master_seed=0)
    world = TrafficWorld(sc)
    world.reset(0)
    world.ego.pos_m = 50.0  # keep the ego clear of the wrap point
    route = grid_net.routes["loop"]
    add_background(world, "e_w", 99.0, speed=10.0, route=route)
    world.background_step(t=50.0)
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
    # at 7.5 m front to front each 100 m edge holds 14; bc, on both routes, counts once; the ego takes one place
    kwargs = dict(network=load_network(LIT_ROAD + "route tail bc\n"), ego_route="main", destination_node="c")
    TrafficWorld(ScenarioConfig(**kwargs, background_count=27))
    with pytest.raises(BackgroundCountError, match=r"background_count 28 exceeds the 27 vehicles .* at 7\.5 m"):
        TrafficWorld(ScenarioConfig(**kwargs, background_count=28))


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


@pytest.mark.xfail(strict=True, reason="collision_check compares positions only on a shared edge (ROADMAP item 9a)")
def test_ego_overlap_across_a_collinear_edge_boundary_collides():
    world = make_world(straight_corridor(107.0), ego_route="ego", destination_node="dest")
    world.ego.pos_m = 104.0  # ego body (99, 104] on main
    add_background(world, "tail", 1.0, route=("main", "tail"))  # leader body (103, 108] in main's coordinates
    assert world.collision_check() is True  # the same overlap within one edge collides


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


def bg_intervals_disjoint(world):
    by_edge = {}
    for v in world.background:
        by_edge.setdefault(v.edge_id, []).append(v)
    for vehicles in by_edge.values():
        vehicles.sort(key=lambda v: v.pos_m)
        for a, b in zip(vehicles, vehicles[1:]):
            if b.tail_m < a.pos_m:
                return False
    return True


def test_background_invariants_random_run(grid_net):
    sc = ScenarioConfig(
        network=grid_net,
        ego_route="loop",
        destination_node="n00",
        destination_tolerance_m=1.0,
        background_count=6,
        max_steps=400,
        master_seed=17,
    )
    world = TrafficWorld(sc)
    rng = np.random.default_rng(3)
    world.reset(1)
    for _ in range(400):
        if world.done:
            break
        world.step(rng.uniform(-4.5, 2.6))
        assert bg_intervals_disjoint(world)
        for v in world.background:
            limit = grid_net.edges[v.edge_id].speed_limit_mps
            assert 0.0 <= v.speed_mps <= limit


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
