import csv
import functools
import math
import operator
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from feddrive import evaluation, nn
from feddrive.evaluation import (
    CSV_COLUMNS,
    EvalProtocol,
    EvalTemplate,
    evaluate,
    export_csv,
    export_json,
    greedy_policy,
    realize_scenario,
    rollout,
    summaries_from_json,
)
from feddrive.ddpg import DdpgAgent, DdpgHyperparams, policy_action, train_episode
from feddrive.metrics import RolloutTrace, average_speed, run_episode, travel_delay
from feddrive.sim.world import CAUSE_MAX_STEPS, SpawnSpec, TrafficWorld, normalize_observation
from tests.conftest import REPO


def trace_of(speeds, cause="destination", dt=1.0):
    """The trace of an episode whose ego moves at ``speeds``, one per step."""
    return RolloutTrace(
        steps=len(speeds),
        total_reward=0.0,
        speed_sum_mps=functools.reduce(operator.add, speeds, 0.0),
        step_length_s=dt,
        cause=cause,
        traveled_freeflow_s=sum(speeds) * dt / 20.0,  # the 20 m/s limit the whole way
    )


# ------------------------------------------------------------------- metrics


def test_average_speed_examples():
    assert average_speed(trace_of([7.0] * 5)) == 7.0
    assert average_speed(trace_of([0.0, 10.0])) == 5.0
    assert average_speed(trace_of([0.0, 0.0, 0.0])) == 0.0
    with pytest.raises(ValueError, match="at least one step"):
        average_speed(trace_of([]))


class TenthsWorld:
    """A stub world whose every step gives reward 0.1 and ego speed 0.1; the tenth ends the episode."""

    scenario = SimpleNamespace(step_length_s=1.0)
    cause = CAUSE_MAX_STEPS
    traveled_freeflow_time_s = 0.0

    def reset(self, episode_seed):
        self.steps = 0
        return SimpleNamespace(speed=0.0)

    def step(self, action):
        self.steps += 1
        return SimpleNamespace(observation=SimpleNamespace(speed=0.1), reward=0.1, done=self.steps == 10)


def test_episode_sums_run_left_to_right():
    # Python 3.12's built-in sum compensates and gives 1.0 here; folding left to right gives the bits of 3.10 and 3.11
    trace = run_episode(TenthsWorld(), lambda obs: 0.0, episode_seed=0)
    assert trace.steps == 10
    assert trace.total_reward == trace.speed_sum_mps == 0.9999999999999999
    assert average_speed(trace) == 0.9999999999999999 / 10


def test_average_speed_sum_identity():
    speeds = [1.5, 2.25, 19.875, 0.0]
    trace = trace_of(speeds)
    assert average_speed(trace) * trace.steps == sum(speeds)


def test_travel_delay_at_speed_limit_is_zero():
    # 100 m at the 20 m/s limit: 5 steps, free-flow 5 s
    assert travel_delay(trace_of([20.0] * 5)) == 0.0


def test_travel_delay_example():
    # 100 m route, limit 20 m/s, arrival in 8 s -> 8 - 5 = 3
    assert travel_delay(trace_of([12.5] * 8)) == 3.0


def test_travel_delay_halved_speed():
    # half the limit the whole way: 2T - T = T
    t = trace_of([10.0] * 10)
    assert travel_delay(t) == t.traveled_freeflow_s == 5.0


def test_travel_delay_never_negative():
    # ego above the limit: clamped to zero rather than negative
    assert travel_delay(trace_of([25.0] * 4)) == 0.0


def test_metrics_outcome_partition():
    assert trace_of([1.0], cause="collision").collided
    assert trace_of([1.0], cause="destination").reached
    assert trace_of([1.0], cause="max-steps").timed_out


@pytest.mark.parametrize(
    "outcome,throttle,spawns,max_steps",
    [
        ("collided", 2.6, (SpawnSpec(step=0, route="main", pos_m=20.0, speed_mps=0.0, speed_factor=0.0),), 50),
        ("reached", 2.6, (), 50),
        ("timed_out", -4.5, (), 20),
    ],
)
def test_trace_holds_the_episode_invariants(road_scenario, outcome, throttle, spawns, max_steps):
    # what every RolloutTrace from run_episode guarantees, for training and evaluation alike
    world = TrafficWorld(road_scenario(background_spawns=spawns, max_steps=max_steps))
    hp = DdpgHyperparams(actor_hidden=(8, 8), critic_hidden=(8, 8), batch_size=8, ou_sigma=0.0)
    agent = DdpgAgent.create(hp, seed=3)
    agent.actor.flat[:] = 0.0
    agent.actor.layers[-1].bias[:] = 10.0 if throttle > 0 else -10.0  # tanh saturates at a bound
    traces = [
        train_episode(agent, world, episode_seed=0, rng=np.random.default_rng(0)),
        rollout(world, lambda obs: throttle, episode_seed=0, a_min=-4.5, a_max=2.6),
    ]
    for trace in traces:
        assert trace.steps >= 1
        assert [trace.collided, trace.reached, trace.timed_out].count(True) == 1
        assert getattr(trace, outcome)


@pytest.mark.parametrize(
    "field,value",
    [
        ("max_steps", 0),
        ("background_count", -1),
        ("step_length_s", float("nan")),
        ("destination_tolerance_m", 0.0),
        ("speed_limit_mps", float("inf")),
        ("overrun_m", -5.0),
        ("accel_min_mps2", float("nan")),
        ("accel_min_mps2", 2.6),
        ("accel_max_mps2", float("inf")),
        ("vehicle_length_m", 0.0),
        ("min_gap_m", -1.0),
        ("intersection_box_m", float("nan")),
        ("bg_accel_mps2", -1.5),
    ],
)
def test_eval_template_rejects_bad_settings(field, value):
    with pytest.raises(ValueError, match=field):
        EvalTemplate(**{field: value})


# ------------------------------------------------------------------ scenario


def test_realize_scenario_exact_distance():
    sc = realize_scenario(EvalTemplate(), 52.0)
    world = TrafficWorld(sc)
    obs = world.reset(0)
    assert obs.dest_distance == 52.0


# ------------------------------------------------------------------ evaluate


def test_zero_weight_actor_times_out_everywhere():
    actor = nn.init_params([6, 8, 1], ["relu", "tanh"], seed=0)
    actor = nn.unflatten_params(actor, np.zeros(actor.param_count))
    proto = EvalProtocol(episodes=3, template=EvalTemplate(max_steps=40))
    summary = evaluate(actor, proto, policy_id="zero")
    for row in summary.rows:
        assert row.collisions == 0
        assert row.timeouts == 3
        assert row.success_rate == 0.0
        assert row.mean_travel_delay_s is None


def test_max_accel_policy_on_10m_task():
    # independent kinematic trace: v += 2.6, pos += v, reached when within 5 m
    v = pos = 0.0
    hand_steps = 0
    while pos < 10.0 - 5.0:
        v += 2.6
        pos += v
        hand_steps += 1
    assert hand_steps == 2

    proto = EvalProtocol(episodes=4, distances_m=(10.0,), template=EvalTemplate(max_steps=40))
    summary = evaluate(lambda obs: 2.6, proto, policy_id="floor")
    (row,) = summary.rows
    assert row.success_rate == 1.0
    assert row.successes == 4

    world = TrafficWorld(realize_scenario(proto.template, 10.0))
    trace = rollout(world, lambda obs: 2.6, episode_seed=0, a_min=-4.5, a_max=2.6)
    assert trace.steps == hand_steps


def test_run_episode_passes_each_step_to_on_step():
    world = TrafficWorld(realize_scenario(EvalTemplate(max_steps=40), 52.0))
    acted, seen = [], []

    def act(obs):
        acted.append(obs)
        return 2.6 if len(acted) % 2 else 1.0

    trace = run_episode(world, act, 0, on_step=lambda *args: seen.append(args))
    assert len(seen) == len(acted) == trace.steps > 1
    for k, (obs, action, out) in enumerate(seen):
        assert obs is acted[k]  # the observation the action was chosen from
        assert action == (2.6 if k % 2 == 0 else 1.0)
        assert out.done == (k == trace.steps - 1)
    assert [o.observation for _, _, o in seen[:-1]] == acted[1:]
    # the trace's sums are the in-order folds of the steps it saw
    assert trace.total_reward == functools.reduce(operator.add, [o.reward for _, _, o in seen], 0.0)
    assert trace.speed_sum_mps == functools.reduce(operator.add, [o.observation.speed for _, _, o in seen], 0.0)


@pytest.mark.parametrize("k", [0, 3])
def test_failing_policy_names_the_step(k):
    world = TrafficWorld(realize_scenario(EvalTemplate(max_steps=40), 207.0))
    calls = 0

    def policy(vec):
        nonlocal calls
        if calls == k:
            raise FloatingPointError("boom")
        calls += 1
        return 1.0

    with pytest.raises(FloatingPointError) as info:
        run_episode(world, lambda obs: policy(obs.as_vector()), episode_seed=0)
    assert info.value.step_idx == k
    calls = 0
    with pytest.raises(FloatingPointError) as info:
        rollout(world, policy, episode_seed=0, a_min=-4.5, a_max=2.6)
    assert info.value.step_idx == k


@pytest.mark.parametrize("k", [0, 3])
def test_nan_action_names_the_step(k):
    world = TrafficWorld(realize_scenario(EvalTemplate(max_steps=40), 207.0))
    actions = iter([1.0] * k + [float("nan")])
    with pytest.raises(ValueError, match="not a number") as info:
        run_episode(world, lambda obs: next(actions), episode_seed=0)
    assert info.value.step_idx == k
    assert world.steps == k


def test_each_distance_aggregates_all_episodes():
    proto = EvalProtocol(episodes=20, template=EvalTemplate(max_steps=30))
    summary = evaluate(lambda obs: 1.0, proto)
    assert [r.distance_m for r in summary.rows] == [10.0, 20.0, 52.0, 107.0, 207.0]
    for row in summary.rows:
        assert row.episodes == 20
        assert row.collisions + row.timeouts + row.successes == 20


def test_evaluate_is_pure_and_repeatable():
    actor = nn.init_params([6, 8, 1], ["relu", "tanh"], seed=3)
    before = nn.flatten_params(actor).copy()
    proto = EvalProtocol(episodes=3, distances_m=(10.0, 20.0), template=EvalTemplate(max_steps=30))
    s1 = evaluate(actor, proto)
    s2 = evaluate(actor, proto)
    assert s1 == s2
    assert np.array_equal(nn.flatten_params(actor), before)


def test_evaluate_with_background_traffic_collisions():
    spawn = SpawnSpec(step=0, route="through", pos_m=25.0, speed_mps=0.0, speed_factor=0.0)
    template = EvalTemplate(max_steps=60, background_spawns=(spawn,))
    proto = EvalProtocol(episodes=2, distances_m=(107.0,), template=template)
    summary = evaluate(lambda obs: 2.6, proto, policy_id="reckless")
    (row,) = summary.rows
    assert row.collisions == 2


# Two random background vehicles that end some episodes in a collision while
# the others arrive: 1 collision and 11 arrivals over 12 episodes.
TRAFFIC = EvalProtocol(
    episodes=6,
    distances_m=(52.0, 107.0),
    template=EvalTemplate(max_steps=60, background_count=2, bg_speed_factor_min=0.4,
                          bg_speed_factor_max=0.7, master_seed=2),
)
A_MIN, A_MAX = TRAFFIC.template.accel_min_mps2, TRAFFIC.template.accel_max_mps2


def cruising_actor(seed, accel_mps2=1.5):
    """A small random actor whose output bias aims its greedy action near ``accel_mps2``."""
    actor = nn.init_params([6, 8, 1], ["relu", "tanh"], seed=seed)
    actor.layers[-1].bias[:] += math.atanh(2.0 * (accel_mps2 - A_MIN) / (A_MAX - A_MIN) - 1.0)
    return actor


def unmemoized(actor):
    return lambda vec: policy_action(actor, normalize_observation(vec), A_MIN, A_MAX)


@pytest.fixture
def step_log(monkeypatch):
    """Every observation acted on in ``evaluate``, as (world index, vector bytes)."""
    worlds, log = [], []
    orig = evaluation.run_episode

    def run_episode(world, act, episode_seed, on_step=None):
        if not worlds or worlds[-1] is not world:
            worlds.append(world)

        def logged(obs):
            log.append((len(worlds), obs.as_vector().tobytes()))
            return act(obs)

        return orig(world, logged, episode_seed, on_step)

    monkeypatch.setattr(evaluation, "run_episode", run_episode)
    return log


def test_actor_memo_matches_unmemoized_evaluation(monkeypatch, step_log):
    actor = cruising_actor(seed=5)
    reference = evaluate(unmemoized(actor), TRAFFIC)
    assert sum(r.collisions for r in reference.rows) >= 1
    assert sum(r.successes for r in reference.rows) >= 1
    steps = list(step_log)

    calls = 0
    orig = evaluation.policy_action

    def counted(*args):
        nonlocal calls
        calls += 1
        return orig(*args)

    monkeypatch.setattr(evaluation, "policy_action", counted)
    assert evaluate(actor, TRAFFIC) == reference  # field for field, exactly
    assert calls == len(set(steps)) < len(steps)


def test_callable_policy_is_called_every_step(step_log):
    calls = 0

    def policy(vec):
        nonlocal calls
        calls += 1
        return 1.5

    evaluate(policy, TRAFFIC)
    assert calls == len(step_log) > 0
    assert greedy_policy(policy, A_MIN, A_MAX) is policy


def test_back_to_back_actors_each_match_their_reference():
    first, second = cruising_actor(seed=5), cruising_actor(seed=6, accel_mps2=2.0)
    got = [evaluate(first, TRAFFIC), evaluate(second, TRAFFIC)]
    assert got[0] != got[1]
    assert got == [evaluate(unmemoized(first), TRAFFIC), evaluate(unmemoized(second), TRAFFIC)]


def test_nan_actor_output_names_the_same_step():
    # both hidden units read pos_x at 1.7e308 per normalized unit: their difference
    # is 0 until pos_x passes about 106 m, where both overflow and inf - inf is NaN
    actor = cruising_actor(seed=0, accel_mps2=2.0)
    w1, w2 = actor.layers[0].weights, actor.layers[1].weights
    w1[:], w2[:] = 0.0, 0.0
    w1[:2, 0] = 1.7e308
    w2[0, :2] = (1.0, -1.0)
    proto = EvalProtocol(episodes=2, distances_m=(207.0,), template=EvalTemplate(max_steps=60))
    step_idx = []
    with np.errstate(over="ignore", invalid="ignore"):
        for policy in (unmemoized(actor), actor):
            with pytest.raises(ValueError, match="non-finite action") as info:
                evaluate(policy, proto)
            step_idx.append(info.value.step_idx)
    assert step_idx[0] == step_idx[1] > 0


def test_evaluate_rejects_wrong_architecture():
    actor = nn.init_params([5, 4, 1], ["relu", "tanh"], seed=0)
    with pytest.raises(ValueError, match="6"):
        evaluate(actor, EvalProtocol(episodes=1))


def test_protocol_validation():
    with pytest.raises(ValueError):
        EvalProtocol(episodes=0)
    with pytest.raises(ValueError):
        EvalProtocol(distances_m=(10.0, -1.0))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            EvalProtocol(distances_m=(10.0, bad))


# -------------------------------------------------------------------- export


def test_export_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    export_csv([], path)
    assert path.read_text().strip() == ",".join(CSV_COLUMNS)


def test_export_csv_row_count(tmp_path):
    proto = EvalProtocol(episodes=2, template=EvalTemplate(max_steps=20))
    summary = evaluate(lambda obs: 1.0, proto, policy_id="p")
    path = tmp_path / "s.csv"
    export_csv([summary], path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 6  # header + five distances


def test_export_csv_roundtrip_full_precision(tmp_path):
    proto = EvalProtocol(episodes=3, distances_m=(10.0, 20.0), template=EvalTemplate(max_steps=30))
    summary = evaluate(lambda obs: 1.7, proto, policy_id="p")
    path = tmp_path / "s.csv"
    export_csv([summary], path)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    for parsed, row in zip(rows, summary.rows, strict=True):
        assert parsed["policy_id"] == "p"
        assert float(parsed["distance_m"]) == row.distance_m
        assert int(parsed["episodes"]) == row.episodes
        assert float(parsed["mean_avg_speed_mps"]) == row.mean_avg_speed_mps
        assert float(parsed["success_rate"]) == row.success_rate
        if row.mean_travel_delay_s is None:
            assert parsed["mean_travel_delay_s"] == ""
        else:
            assert float(parsed["mean_travel_delay_s"]) == row.mean_travel_delay_s


def test_json_mirror_roundtrip(tmp_path):
    proto = EvalProtocol(episodes=2, distances_m=(10.0, 20.0), template=EvalTemplate(max_steps=30))
    s1 = evaluate(lambda obs: 1.0, proto, policy_id="a")
    s2 = evaluate(lambda obs: 2.0, proto, policy_id="b")
    path = tmp_path / "s.json"
    export_json([s1, s2], path)
    back = summaries_from_json(path)
    assert back == [s1, s2]


def test_summaries_from_json_fails_without_importing_config(tmp_path):
    # config imports evaluation, so evaluation raises a plain ValueError rather than import it back
    bad = tmp_path / "bad.json"
    bad.write_text('{"a": 1}')
    script = "\n".join([
        "import sys",
        "from feddrive.evaluation import summaries_from_json",
        "try:",
        f"    summaries_from_json({str(bad)!r})",
        "except ValueError as exc:",
        "    print(type(exc).__name__, exc)",
        "print('feddrive.config' in sys.modules)",
    ])
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": pythonpath},
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines() == [f"ValueError {bad}: expected a list of rows, got a JSON dict", "False"]
