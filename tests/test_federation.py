import dataclasses
import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feddrive import ddpg, federation, nn
from feddrive.ddpg import DdpgAgent, DdpgHyperparams, train_episode
from feddrive.federation import (
    AgentTrainingError,
    AgentUpdate,
    FederationConfig,
    aggregate,
    broadcast,
    init_global_model,
    round_reports_csv,
    run_round,
    run_training,
)
from feddrive.seeding import derive_seed
from feddrive.sim import ScenarioConfig, TrafficWorld

TINY = DdpgHyperparams(actor_hidden=(8, 8), critic_hidden=(8, 8), batch_size=16, buffer_capacity=512)


def tiny_fed(scenario, **overrides):
    kwargs = dict(
        agents=2,
        rounds=2,
        episodes_per_round=2,
        hp=TINY,
        scenarios=(scenario,),
        master_seed=5,
    )
    kwargs.update(overrides)
    return FederationConfig(**kwargs)


def update_of(agent_id, actor, critic, episodes=1):
    return AgentUpdate(
        agent_id=agent_id,
        actor_weights=np.asarray(actor, dtype=float),
        critic_weights=np.asarray(critic, dtype=float),
        episodes=episodes,
    )


# ---------------------------------------------------------------- aggregate


def test_aggregate_single_agent_identity():
    w = np.arange(5.0)
    actor, critic = aggregate([update_of(0, w, 2 * w, episodes=7)])
    assert np.array_equal(actor, w)
    assert np.array_equal(critic, 2 * w)


def test_aggregate_weighted_scalar():
    updates = [update_of(0, [2.0], [2.0], episodes=1), update_of(1, [4.0], [4.0], episodes=3)]
    actor, _ = aggregate(updates)
    assert actor[0] == pytest.approx(3.5)  # (1*2 + 3*4) / 4


def test_aggregate_consensus_exact():
    w = np.array([0.1, -2.5, 3.75])
    updates = [update_of(i, w, w, episodes=n) for i, n in enumerate((1, 13, 50))]
    actor, critic = aggregate(updates)
    assert np.array_equal(actor, w)
    assert np.array_equal(critic, w)


def test_aggregate_permutation_invariant_bitwise():
    rng = np.random.default_rng(0)
    updates = [update_of(i, rng.normal(size=20), rng.normal(size=30), episodes=i + 1) for i in range(5)]
    a1, c1 = aggregate(updates)
    a2, c2 = aggregate(list(reversed(updates)))
    assert np.array_equal(a1, a2) and np.array_equal(c1, c2)


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        aggregate([])


def test_aggregate_length_mismatch_rejected():
    updates = [update_of(0, np.zeros(4), np.zeros(4)), update_of(1, np.zeros(5), np.zeros(4))]
    with pytest.raises(ValueError, match="mismatch"):
        aggregate(updates)


def test_aggregate_against_bruteforce():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n_agents = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 200))
        weights = rng.normal(size=(n_agents, dim))
        counts = rng.integers(1, 51, size=n_agents)
        updates = [update_of(i, weights[i], weights[i], episodes=int(counts[i])) for i in range(n_agents)]
        got, _ = aggregate(updates)
        want = sum(counts[i] * weights[i] for i in range(n_agents)) / counts.sum()
        rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-300)
        assert rel.max() < 1e-12


@given(st.integers(1, 6), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_aggregate_convexity(n_agents, seed):
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=(n_agents, 12))
    updates = [update_of(i, weights[i], weights[i], episodes=int(rng.integers(1, 50))) for i in range(n_agents)]
    actor, _ = aggregate(updates)
    assert np.all(actor >= weights.min(axis=0) - 1e-12)
    assert np.all(actor <= weights.max(axis=0) + 1e-12)


def test_update_payload_is_weights_and_count_only():
    names = [f.name for f in dataclasses.fields(AgentUpdate)]
    assert names == ["agent_id", "actor_weights", "critic_weights", "episodes"]
    with pytest.raises(ValueError):
        update_of(0, [1.0], [1.0], episodes=0)


def test_aggregate_rejects_widened_payload():
    @dataclasses.dataclass(frozen=True)
    class LeakyUpdate(AgentUpdate):
        observations: tuple = ()

    leaky = LeakyUpdate(agent_id=0, actor_weights=np.zeros(3), critic_weights=np.zeros(3), episodes=1)
    with pytest.raises(TypeError, match="fields"):
        aggregate([leaky])


# ---------------------------------------------------------------- broadcast


def test_broadcast_copies_weights_and_keeps_buffers(road_scenario):
    agents = [DdpgAgent.create(TINY, seed=i, agent_id=i) for i in range(3)]
    world = TrafficWorld(road_scenario(max_steps=20))
    train_episode(agents[0], world, episode_seed=0, rng=np.random.default_rng(0))
    buffer_size = len(agents[0].buffer)
    assert buffer_size > 0

    gm = init_global_model(TINY, master_seed=99)
    broadcast(gm, agents)
    for agent in agents:
        assert np.array_equal(nn.flatten_params(agent.actor), nn.flatten_params(gm.actor))
        assert np.array_equal(nn.flatten_params(agent.critic), nn.flatten_params(gm.critic))
        assert np.array_equal(nn.flatten_params(agent.target_actor), nn.flatten_params(agent.actor))
        assert np.array_equal(nn.flatten_params(agent.target_critic), nn.flatten_params(agent.critic))
        assert agent.actor_adam.t == 0  # reset by default
    assert len(agents[0].buffer) == buffer_size


def test_broadcast_keep_local_optimizer(road_scenario):
    agent = DdpgAgent.create(TINY, seed=0, agent_id=0)
    world = TrafficWorld(road_scenario(max_steps=40))
    train_episode(agent, world, episode_seed=0, rng=np.random.default_rng(0))
    t_before = agent.actor_adam.t
    assert t_before > 0
    broadcast(init_global_model(TINY, 3), [agent], optimizer_state="keep-local")
    assert agent.actor_adam.t == t_before


# ------------------------------------------------------------------- rounds


def test_zero_lr_round_returns_initial_weights(road_scenario):
    hp = DdpgHyperparams(actor_hidden=(8, 8), critic_hidden=(8, 8), batch_size=16)
    # config validation requires lr > 0, so force the degenerate case directly
    object.__setattr__(hp, "actor_lr", 0.0)
    object.__setattr__(hp, "critic_lr", 0.0)
    sc = road_scenario(max_steps=20)
    cfg = tiny_fed(sc, agents=3, rounds=1, hp=hp)
    gm = init_global_model(cfg.hp, cfg.master_seed)
    w0 = nn.flatten_params(gm.actor).copy()
    c0 = nn.flatten_params(gm.critic).copy()
    agents = [DdpgAgent.create(cfg.hp, seed=i, agent_id=i) for i in range(3)]
    broadcast(gm, agents)
    run_round(cfg, gm, agents, round_idx=0)
    assert np.array_equal(nn.flatten_params(gm.actor), w0)
    assert np.array_equal(nn.flatten_params(gm.critic), c0)


def test_round_report_counts(road_scenario):
    cfg = tiny_fed(road_scenario(max_steps=15), agents=3, episodes_per_round=4)
    gm, reports = run_training(cfg)
    for report in reports:
        assert len(report.per_agent) == 3
        assert sum(s.episodes for s in report.per_agent) == 3 * 4
        for s in report.per_agent:
            assert len(s.episode_rewards) == 4


def test_agent_failure_identified(single_road_net, road_scenario):
    good = road_scenario(max_steps=15)
    bad = ScenarioConfig(
        network=single_road_net, ego_route="main", destination_node="b",
        background_count=10_000, max_steps=15,  # placement cannot fit
    )
    cfg = tiny_fed(good, agents=2, rounds=1, scenarios=(good, bad))
    gm = init_global_model(cfg.hp, cfg.master_seed)
    agents = [DdpgAgent.create(cfg.hp, seed=i, agent_id=i) for i in range(2)]
    broadcast(gm, agents)
    with pytest.raises(AgentTrainingError, match="agent 1"):
        run_round(cfg, gm, agents, round_idx=0)


def test_single_agent_round_equals_plain_ddpg(road_scenario):
    sc = road_scenario(max_steps=30)
    cfg = tiny_fed(sc, agents=1, rounds=1, episodes_per_round=3)
    gm, _ = run_training(cfg)

    # replay the same schedule by hand: one agent, same seeds, then a no-op average
    manual_gm = init_global_model(cfg.hp, cfg.master_seed)
    agent = DdpgAgent.create(cfg.hp, seed=derive_seed(cfg.master_seed, 0xA0, 0), agent_id=0)
    broadcast(manual_gm, [agent])
    world = TrafficWorld(sc)
    for e in range(3):
        episode_seed = derive_seed(cfg.master_seed, 0, e)
        rng = np.random.Generator(np.random.PCG64(derive_seed(episode_seed, 1)))
        train_episode(agent, world, derive_seed(episode_seed, 0), rng)
    assert np.array_equal(nn.flatten_params(gm.actor), nn.flatten_params(agent.actor))
    assert np.array_equal(nn.flatten_params(gm.critic), nn.flatten_params(agent.critic))


def test_run_training_deterministic_rerun(road_scenario, tmp_path):
    cfg = tiny_fed(road_scenario(max_steps=20), agents=2, rounds=2)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    gm1, _ = run_training(cfg, out_dir=out1, config_hash="h")
    gm2, _ = run_training(cfg, out_dir=out2, config_hash="h")
    assert np.array_equal(nn.flatten_params(gm1.actor), nn.flatten_params(gm2.actor))
    assert (out1 / "round_1.ckpt").read_bytes() == (out2 / "round_1.ckpt").read_bytes()


def test_agents_train_serially_in_ascending_id_order(road_scenario, monkeypatch):
    calls = []

    def recording_episode(agent, world, episode_seed, rng):
        calls.append((threading.get_ident(), agent.agent_id, episode_seed))
        return train_episode(agent, world, episode_seed, rng)

    monkeypatch.setattr(federation, "train_episode", recording_episode)
    cfg = tiny_fed(road_scenario(max_steps=10), agents=3, rounds=2, episodes_per_round=2)
    run_training(cfg)

    assert {thread for thread, _, _ in calls} == {threading.get_ident()}
    # per round: agent 0's episodes, then agent 1's, then agent 2's, each block contiguous
    expected = [
        (a, derive_seed(derive_seed(cfg.master_seed, a, r * 2 + e), 0))
        for r in range(2)
        for a in range(3)
        for e in range(2)
    ]
    assert [(a, seed) for _, a, seed in calls] == expected


def test_agent_failure_names_round_and_episode(road_scenario, monkeypatch):
    cfg = tiny_fed(road_scenario(max_steps=10), agents=2, rounds=2, episodes_per_round=3)
    # agent 1's second episode of round 1 is its episode 1 * 3 + 1 overall
    bad_seed = derive_seed(derive_seed(cfg.master_seed, 1, 1 * 3 + 1), 0)

    def failing_episode(agent, world, episode_seed, rng):
        if agent.agent_id == 1 and episode_seed == bad_seed:
            raise FloatingPointError("boom")
        return train_episode(agent, world, episode_seed, rng)

    monkeypatch.setattr(federation, "train_episode", failing_episode)
    with pytest.raises(AgentTrainingError, match="agent 1 failed in round 1, episode 1") as info:
        run_training(cfg)
    err = info.value
    assert (err.agent_id, err.round_idx, err.episode_idx) == (1, 1, 1)
    assert isinstance(err.__cause__, FloatingPointError)


def test_agent_failure_names_the_step(road_scenario, monkeypatch):
    # batch 16: the first update runs at step 15 of episode 0, with two Adam
    # calls (critic, actor) per step, so the 5th call falls in step 17
    cfg = tiny_fed(road_scenario(max_steps=40), agents=1, rounds=1, episodes_per_round=1)
    calls = 0

    def failing_adam(*args):
        nonlocal calls
        calls += 1
        if calls == 5:
            raise FloatingPointError("boom")
        return nn.adam_step(*args)

    monkeypatch.setattr(ddpg, "adam_step", failing_adam)
    with pytest.raises(AgentTrainingError, match="agent 0 failed in round 0, episode 0, step 17: boom") as info:
        run_training(cfg)
    err = info.value
    assert (err.agent_id, err.round_idx, err.episode_idx, err.step_idx) == (0, 0, 0, 17)
    assert isinstance(err.__cause__, FloatingPointError)


def test_agent_training_error_pickles_with_its_fields():
    err = AgentTrainingError(1, 2, 3, 4, ValueError("boom"))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is AgentTrainingError
    assert (back.agent_id, back.round_idx, back.episode_idx, back.step_idx) == (1, 2, 3, 4)
    assert str(back) == str(err) == "agent 1 failed in round 2, episode 3, step 4: boom"


def test_round_stats_count_each_episodes_steps(road_scenario, monkeypatch):
    counted = []  # (agent, steps) per train_episode call, in the order they ran

    def counting_episode(agent, world, episode_seed, rng):
        trace = train_episode(agent, world, episode_seed, rng)
        counted.append((agent.agent_id, trace.steps))
        return trace

    monkeypatch.setattr(federation, "train_episode", counting_episode)
    cfg = tiny_fed(road_scenario(max_steps=25), agents=2, rounds=2, episodes_per_round=3)
    _, reports = run_training(cfg)
    stats = [s for report in reports for s in report.per_agent]
    assert [(s.agent_id, steps) for s in stats for steps in s.episode_steps] == counted
    for k, s in enumerate(stats):
        assert sum(s.episode_steps) == sum(steps for _, steps in counted[3 * k : 3 * k + 3]) > 0


def test_update_payload_does_not_follow_further_training(road_scenario):
    cfg = tiny_fed(road_scenario(max_steps=40), agents=1, rounds=1, episodes_per_round=1)
    agent = DdpgAgent.create(TINY, seed=0, agent_id=0)
    update, _ = federation._train_agent_round(cfg, agent, 0)
    actor, critic = update.actor_weights.copy(), update.critic_weights.copy()
    train_episode(agent, TrafficWorld(cfg.scenario_for(0)), episode_seed=1, rng=np.random.default_rng(1))
    assert not np.array_equal(agent.actor.flat, actor)  # the agent did train on
    assert np.array_equal(update.actor_weights, actor)
    assert np.array_equal(update.critic_weights, critic)


def test_precision_boundary(road_scenario, tmp_path):
    """Agents train in float32; payloads, the global model and checkpoints are float64."""
    from feddrive.container import load_container

    cfg = tiny_fed(road_scenario(max_steps=40), agents=2, rounds=1, episodes_per_round=1)
    gm = init_global_model(cfg.hp, cfg.master_seed)
    nets = (gm.actor, gm.critic, gm.target_actor, gm.target_critic)
    # the init is float32-exact, so the first broadcast hands every agent the global weights unrounded
    assert all(np.array_equal(net.flat.astype(np.float32).astype(np.float64), net.flat) for net in nets)
    agents = [DdpgAgent.create(cfg.hp, seed=i, agent_id=i) for i in range(2)]
    broadcast(gm, agents)
    assert np.array_equal(agents[0].actor.flat, gm.actor.flat)

    updates = [federation._train_agent_round(cfg, agent, 0)[0] for agent in agents]
    for u in updates:
        assert u.actor_weights.dtype == u.critic_weights.dtype == np.float64
    for agent in agents:
        assert len(agent.buffer) >= cfg.hp.batch_size  # updates ran
        batch = agent.buffer.sample(cfg.hp.batch_size, np.random.default_rng(0))
        assert batch.states.dtype == batch.rewards.dtype == np.float32  # column views of the ring
        grads, _ = ddpg.policy_gradient(agent.actor, agent.critic, batch.states, -1.0, 1.0)
        assert grads.flat.dtype == np.float32
        for net in (agent.actor, agent.critic, agent.target_actor, agent.target_critic):
            assert net.flat.dtype == np.float32
        for adam in (agent.actor_adam, agent.critic_adam):
            assert adam.t > 0 and adam.m.dtype == adam.v.dtype == np.float32

    run_round(cfg, gm, agents, round_idx=0, out_dir=tmp_path)
    assert all(net.flat.dtype == np.float64 for net in nets)
    arrays, _ = load_container(tmp_path / "round_0.ckpt")
    for name, array in arrays.items():
        assert array.dtype == (np.int64 if name == "agent_episodes" else np.float64), name
    # broadcast rounded the aggregate into the agents' float32 nets
    assert agents[0].actor.flat.dtype == np.float32
    assert np.array_equal(agents[0].actor.flat, gm.actor.flat.astype(np.float32))


def test_checkpoints_and_episode_conservation(road_scenario, tmp_path):
    from feddrive.container import load_container

    cfg = tiny_fed(road_scenario(max_steps=15), agents=3, rounds=2, episodes_per_round=5)
    run_training(cfg, out_dir=tmp_path, config_hash="deadbeef")
    ckpts = sorted(tmp_path.glob("round_*.ckpt"))
    assert [p.name for p in ckpts] == ["round_0.ckpt", "round_1.ckpt"]
    for path in ckpts:
        arrays, meta = load_container(path)
        assert meta["config_hash"] == "deadbeef"
        assert meta["agent_ids"] == [0, 1, 2]
        assert arrays["agent_episodes"].tolist() == [5, 5, 5]
        assert int(arrays["agent_episodes"].sum()) == 3 * 5

    import json as _json

    manifest = _json.loads((tmp_path / "round_1.manifest.json").read_text())
    assert manifest["round_idx"] == 1
    assert manifest["config_hash"] == "deadbeef"
    assert manifest["agent_episodes"] == {"0": 5, "1": 5, "2": 5}


def test_round_reports_csv_format(road_scenario):
    cfg = tiny_fed(road_scenario(max_steps=15))
    _, reports = run_training(cfg)
    text = round_reports_csv(reports)
    lines = text.strip().splitlines()
    assert lines[0] == "round,agent_id,mean_reward,collisions,episodes"
    assert len(lines) == 1 + 2 * 2  # rounds x agents


def test_config_validation():
    with pytest.raises(ValueError):
        FederationConfig(agents=0, scenarios=(None,))
    with pytest.raises(ValueError):
        FederationConfig(episodes_per_round=0, scenarios=(None,))
    with pytest.raises(ValueError):
        FederationConfig(optimizer_state="sometimes", scenarios=(None,))
