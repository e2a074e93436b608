import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feddrive import ddpg, evaluation, nn
from feddrive.ddpg import (
    STATE_DIM,
    Batch,
    DdpgAgent,
    DdpgHyperparams,
    OuNoiseState,
    ReplayBuffer,
    actor_update,
    apply_policy_gradient,
    critic_targets,
    critic_update,
    normalize_obs,
    ou_sample,
    ou_stationary_variance,
    policy_action,
    policy_gradient,
    scale_action,
    select_action,
    soft_update,
    train_episode,
    update,
)
from feddrive.metrics import average_speed
from feddrive.sim import EgoObservation, SpawnSpec, TrafficWorld

TINY = DdpgHyperparams(actor_hidden=(8, 8), critic_hidden=(8, 8), batch_size=8, buffer_capacity=256)


def make_transition(k=0.0, done=False):
    """``ReplayBuffer.store`` arguments: state, action, reward, next state, done."""
    return np.full(6, k), 0.1 * k, k, np.full(6, k + 1), done


def random_batch(rng, n=8):
    return Batch(
        states=rng.normal(size=(n, 6)),
        actions=rng.normal(size=(n, 1)),
        rewards=rng.normal(size=(n, 1)),
        next_states=rng.normal(size=(n, 6)),
        dones=(rng.random((n, 1)) < 0.3).astype(float),
    )


# ------------------------------------------------------------- replay buffer


def test_buffer_fifo_eviction():
    buf = ReplayBuffer(capacity=2)
    for k in (1.0, 2.0, 3.0):
        buf.store(*make_transition(k))
    assert len(buf) == 2
    rng = np.random.default_rng(0)
    stored = {r for _ in range(32) for r in buf.sample(2, rng).rewards[:, 0]}
    assert stored == {2.0, 3.0}


def test_buffer_empty_size():
    assert len(ReplayBuffer(capacity=4)) == 0


def test_buffer_capacity_50k():
    buf = ReplayBuffer()  # default 50 000
    t = make_transition()
    for _ in range(50_001):
        buf.store(*t)
    assert len(buf) == 50_000


def test_buffer_underfilled_sample_rejected():
    buf = ReplayBuffer(capacity=128)
    for k in range(63):
        buf.store(*make_transition(float(k)))
    with pytest.raises(ValueError, match="63"):
        buf.sample(64, np.random.default_rng(0))


def test_buffer_sample_deterministic():
    buf = ReplayBuffer(capacity=64)
    for k in range(20):
        buf.store(*make_transition(float(k)))
    a = buf.sample(8, np.random.default_rng(42))
    b = buf.sample(8, np.random.default_rng(42))
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.actions, b.actions)


def test_buffer_single_item_sample():
    buf = ReplayBuffer(capacity=4)
    buf.store(*make_transition(5.0))
    batch = buf.sample(1, np.random.default_rng(0))
    assert batch.rewards[0, 0] == 5.0


def test_buffer_row_round_trip():
    buf = ReplayBuffer(capacity=4)
    buf.store(np.arange(6.0), -0.25, 1.5, np.arange(6.0) + 10.0, True)
    batch = buf.sample(1, np.random.default_rng(0))
    assert np.array_equal(batch.states, [np.arange(6.0)])
    assert np.array_equal(batch.actions, [[-0.25]])
    assert np.array_equal(batch.rewards, [[1.5]])
    assert np.array_equal(batch.next_states, [np.arange(6.0) + 10.0])
    assert np.array_equal(batch.dones, [[1.0]])


def test_buffer_rejects_non_finite():
    buf = ReplayBuffer(capacity=4)
    for field in ("state", "action", "reward", "next_state"):
        for bad in (np.nan, np.inf, -1e39):  # -1e39 is finite in float64 but -inf in the float32 ring
            args = {"state": np.zeros(6), "action": 0.0, "reward": 0.0, "next_state": np.zeros(6), "done": False}
            args[field] = np.full(6, bad) if field.endswith("state") else bad
            with pytest.raises(ValueError, match="non-finite"):
                buf.store(**args)
    assert len(buf) == 0


def test_buffer_sampling_uniformity():
    # 1e5 draws over 10 items: every frequency within 1% of 10%
    buf = ReplayBuffer(capacity=16)
    for k in range(10):
        buf.store(*make_transition(float(k)))
    rng = np.random.default_rng(7)
    counts = np.zeros(10)
    for _ in range(10_000):
        batch = buf.sample(10, rng)
        values, c = np.unique(batch.rewards[:, 0].astype(int), return_counts=True)
        counts[values] += c
    freq = counts / 100_000
    assert np.all(np.abs(freq - 0.1) < 0.01)


# ----------------------------------------------------------------- OU noise


def test_ou_fixed_point():
    state = OuNoiseState(x=0.7, mu=0.7, sigma=0.0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, state = ou_sample(state, rng)
        assert x == 0.7


def test_ou_full_reversion():
    state = OuNoiseState(x=5.0, mu=0.0, theta=1.0, sigma=0.0, dt=1.0)
    x, _ = ou_sample(state, np.random.default_rng(0))
    assert x == 0.0


def test_ou_sample_state_equals_replace():
    state = OuNoiseState(x=0.3, mu=-0.2, theta=0.4, sigma=0.25, dt=0.5)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x, nxt = ou_sample(state, rng)
        want = dataclasses.replace(state, x=x)
        assert type(nxt) is OuNoiseState and nxt.x == x
        for f in dataclasses.fields(OuNoiseState):
            assert getattr(nxt, f.name) == getattr(want, f.name), f.name
        assert nxt == want and hash(nxt) == hash(want)
        with pytest.raises(dataclasses.FrozenInstanceError):
            nxt.x = 0.0
        state = nxt


def test_ou_stationary_statistics():
    state = OuNoiseState(x=0.0, mu=0.0, theta=0.15, sigma=0.2, dt=1.0)
    rng = np.random.default_rng(123)
    xs = np.empty(200_000)
    for i in range(len(xs)):
        xs[i], state = ou_sample(state, rng)
    want = ou_stationary_variance(0.15, 0.2, 1.0)
    assert abs(xs.mean()) < 0.02
    assert abs(xs.var() - want) / want < 0.05


def test_ou_parameter_validation():
    with pytest.raises(ValueError):
        OuNoiseState(theta=0.0)
    with pytest.raises(ValueError):
        OuNoiseState(sigma=-0.1)


@pytest.mark.parametrize(
    "field,value",
    [("theta", float("nan")), ("theta", float("inf")), ("sigma", float("nan")), ("sigma", float("inf")),
     ("dt", float("nan")), ("dt", -1.0), ("mu", float("nan"))],
)
def test_ou_rejects_bad_parameters(field, value):
    with pytest.raises(ValueError, match=field):
        OuNoiseState(**{field: value})


@pytest.mark.parametrize(
    "field,value",
    [
        (field, value)
        for field in ("actor_lr", "critic_lr", "accel_min_mps2", "accel_max_mps2", "ou_mu", "ou_theta", "ou_sigma", "ou_dt")
        for value in (float("nan"), float("inf"))
    ]
    + [("ou_dt", -1.0)],  # sqrt(dt) would fail only at the first exploratory step, after a run's output exists
)
def test_hyperparams_reject_bad_values(field, value):
    with pytest.raises(ValueError):
        DdpgHyperparams(**{field: value})


# ------------------------------------------------------------ action select


def obs_of(speed=0.0, dest=100.0):
    return EgoObservation(pos_x=0.0, pos_y=0.0, speed=speed, heading=0.0, acceleration=0.0, dest_distance=dest)


def test_select_action_deterministic_without_noise():
    agent = DdpgAgent.create(TINY, seed=1)
    rng = np.random.default_rng(0)
    a1 = select_action(agent, obs_of(), explore=False, rng=rng)
    a2 = select_action(agent, obs_of(), explore=False, rng=rng)
    assert a1 == a2


def test_zero_weight_actor_gives_midpoint():
    agent = DdpgAgent.create(TINY, seed=1)
    agent.actor = nn.unflatten_params(agent.actor, np.zeros(agent.actor.param_count))
    a = select_action(agent, obs_of(), explore=False, rng=np.random.default_rng(0))
    assert a == pytest.approx(0.5 * (TINY.accel_min_mps2 + TINY.accel_max_mps2))


def test_degenerate_noise_equals_greedy():
    hp = DdpgHyperparams(actor_hidden=(8, 8), critic_hidden=(8, 8), ou_sigma=0.0)
    agent = DdpgAgent.create(hp, seed=1)
    greedy = select_action(agent, obs_of(), explore=False, rng=np.random.default_rng(0))
    noisy = select_action(agent, obs_of(), explore=True, rng=np.random.default_rng(0))
    assert noisy == greedy


def test_noise_state_advances_only_when_exploring():
    agent = DdpgAgent.create(TINY, seed=1)
    x0 = agent.noise.x
    select_action(agent, obs_of(), explore=False, rng=np.random.default_rng(0))
    assert agent.noise.x == x0
    select_action(agent, obs_of(), explore=True, rng=np.random.default_rng(0))
    assert agent.noise.x != x0


def test_explore_action_clipped():
    hp = DdpgHyperparams(actor_hidden=(8, 8), critic_hidden=(8, 8), ou_sigma=50.0)
    agent = DdpgAgent.create(hp, seed=1)
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = select_action(agent, obs_of(), explore=True, rng=rng)
        assert hp.accel_min_mps2 <= a <= hp.accel_max_mps2


def test_non_finite_actor_output_rejected():
    agent = DdpgAgent.create(TINY, seed=1)
    agent.actor = nn.unflatten_params(agent.actor, np.full(agent.actor.param_count, np.inf))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        select_action(agent, obs_of(), explore=False, rng=np.random.default_rng(0))


def allocating_action(actor, vec, a_min, a_max):
    """``policy_action`` composed from the allocating ``nn.forward``, on buffers of its own."""
    u, _ = nn.forward(actor, normalize_obs(vec).reshape(1, -1))
    return scale_action(float(u[0, 0]), a_min, a_max)


def test_alternating_actors_share_one_batch1_set_and_keep_their_bits():
    hp = DdpgHyperparams(actor_hidden=(32, 32), critic_hidden=(32, 32))
    actors = [DdpgAgent.create(hp, seed=s).actor for s in (1, 2)]
    assert ddpg._shared_buffers(actors[0], 1) is ddpg._shared_buffers(actors[1], 1)
    a_min, a_max = hp.accel_min_mps2, hp.accel_max_mps2
    rng = np.random.default_rng(0)
    for _ in range(3):  # A, B, A, ...: each reads what the other left in the shared set
        for actor in actors:
            vec = rng.normal(scale=50.0, size=6)
            assert policy_action(actor, vec, a_min, a_max) == allocating_action(actor, vec, a_min, a_max)
    assert policy_action(actors[0], vec, a_min, a_max) != policy_action(actors[1], vec, a_min, a_max)


def test_select_action_interleaved_with_evaluate_keeps_both_bits(monkeypatch):
    agent = DdpgAgent.create(TINY, seed=1)
    frozen = DdpgAgent.create(TINY, seed=2).actor  # float32, the agent's architecture: one batch-1 set
    frozen.layers[-1].bias[:] = 3.0  # drives off, so its observations change from step to step
    assert ddpg._shared_buffers(agent.actor, 1) is ddpg._shared_buffers(frozen, 1)
    template = evaluation.EvalTemplate(max_steps=20)
    a_min, a_max = template.accel_min_mps2, template.accel_max_mps2
    rng = np.random.default_rng(3)
    calls = 0

    def interleaved(actor, vec, lo, hi):
        nonlocal calls
        calls += 1
        action = policy_action(actor, vec, lo, hi)
        assert action == allocating_action(actor, vec, lo, hi)
        obs = EgoObservation(*rng.normal(scale=50.0, size=6))  # each action runs between two of evaluate's
        expected = allocating_action(agent.actor, obs.as_vector(), TINY.accel_min_mps2, TINY.accel_max_mps2)
        assert select_action(agent, obs, explore=False, rng=rng) == expected
        return action

    protocol = evaluation.EvalProtocol(episodes=2, distances_m=(52.0,), template=template)
    reference = evaluation.evaluate(lambda vec: allocating_action(frozen, vec, a_min, a_max), protocol)
    monkeypatch.setattr(evaluation, "policy_action", interleaved)
    assert evaluation.evaluate(frozen, protocol) == reference
    assert calls > 5


# -------------------------------------------------------------- critic side


def test_targets_gamma_zero_equal_rewards():
    hp = DdpgHyperparams(actor_hidden=(8, 8), critic_hidden=(8, 8), gamma=0.0)
    agent = DdpgAgent.create(hp, seed=4)
    batch = random_batch(np.random.default_rng(0))
    assert np.array_equal(critic_targets(agent, batch), batch.rewards)


def test_targets_done_cut():
    agent = DdpgAgent.create(TINY, seed=4)
    batch = random_batch(np.random.default_rng(1))
    batch = Batch(batch.states, batch.actions, batch.rewards, batch.next_states, np.ones_like(batch.dones))
    assert np.array_equal(critic_targets(agent, batch), batch.rewards)


def test_critic_regression_to_constant_target():
    hp = DdpgHyperparams(actor_hidden=(8, 8), critic_hidden=(16, 16), batch_size=8, critic_lr=2e-3)
    agent = DdpgAgent.create(hp, seed=1)
    rng = np.random.default_rng(0)
    batch = Batch(
        states=rng.normal(size=(8, 6)),
        actions=rng.normal(size=(8, 1)),
        rewards=np.full((8, 1), 2.5),
        next_states=rng.normal(size=(8, 6)),
        dones=np.ones((8, 1)),
    )
    losses = [critic_update(agent, batch) for _ in range(500)]
    assert all(losses[i + 1] <= losses[i] for i in range(10, len(losses) - 1))
    assert losses[-1] < 1e-3


def test_critic_update_leaves_actor_untouched():
    agent = DdpgAgent.create(TINY, seed=2)
    before = nn.flatten_params(agent.actor).copy()
    critic_update(agent, random_batch(np.random.default_rng(0)))
    assert np.array_equal(nn.flatten_params(agent.actor), before)


# --------------------------------------------------------------- actor side


def test_actor_update_leaves_critic_untouched():
    agent = DdpgAgent.create(TINY, seed=2)
    before = nn.flatten_params(agent.critic).copy()
    actor_update(agent, random_batch(np.random.default_rng(0)))
    assert np.array_equal(nn.flatten_params(agent.critic), before)


def test_zero_critic_freezes_actor():
    agent = DdpgAgent.create(TINY, seed=2)
    agent.critic = nn.unflatten_params(agent.critic, np.zeros(agent.critic.param_count))
    before = nn.flatten_params(agent.actor).copy()
    actor_update(agent, random_batch(np.random.default_rng(0)))
    assert np.array_equal(nn.flatten_params(agent.actor), before)


def test_policy_gradient_matches_finite_difference():
    # smooth (tanh) nets so central differences are clean
    actor = nn.init_params([6, 1], ["tanh"], seed=3)
    critic = nn.init_params([7, 4, 1], ["tanh", "identity"], seed=4)
    states = np.random.default_rng(5).normal(size=(6, 6))
    a_min, a_max = -4.5, 2.6

    grads, _ = policy_gradient(actor, critic, states, a_min, a_max)
    analytic = nn.flatten_params(grads)

    def objective(theta):
        p = nn.unflatten_params(actor, theta)
        u, _ = nn.forward(p, states)
        q, _ = nn.forward(critic, np.hstack([states, scale_action(u, a_min, a_max)]))
        return float(np.mean(q))

    flat = nn.flatten_params(actor)
    h = 1e-5
    fd = np.zeros_like(flat)
    for i in range(len(flat)):
        up, dn = flat.copy(), flat.copy()
        up[i] += h
        dn[i] -= h
        fd[i] = (objective(up) - objective(dn)) / (2 * h)
    rel = np.abs(analytic - fd) / np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-8)
    assert rel.max() < 1e-4


def test_actor_converges_on_quadratic_critic():
    # hand-built critic Q(s, a) = -(a - a*)^2 supplies dQ/da = -2 (a - a*)
    hp = DdpgHyperparams(actor_hidden=(8, 8), actor_lr=1e-2)
    agent = DdpgAgent.create(hp, seed=2)
    a_star = 1.0
    states = np.random.default_rng(1).normal(size=(4, 6))
    for _ in range(1000):
        u, cache = nn.forward(agent.actor, states)
        a = scale_action(u, hp.accel_min_mps2, hp.accel_max_mps2)
        apply_policy_gradient(agent, cache, -2.0 * (a - a_star) / len(states))
    u, _ = nn.forward(agent.actor, states)
    a = scale_action(u, hp.accel_min_mps2, hp.accel_max_mps2)
    assert np.max(np.abs(a - a_star)) < 0.05


# -------------------------------------------------------------- soft update


def test_soft_update_extremes():
    src = nn.init_params([3, 2], ["tanh"], seed=1)
    tgt = nn.init_params([3, 2], ["tanh"], seed=2)
    moved, kept = (nn.unflatten_params(tgt, tgt.flat) for _ in range(2))  # updated in place
    soft_update(moved, src, 1.0)
    soft_update(kept, src, 0.0)
    assert np.array_equal(nn.flatten_params(moved), nn.flatten_params(src))
    assert np.array_equal(nn.flatten_params(kept), nn.flatten_params(tgt))


def test_soft_update_scalar():
    src = nn.MlpParams((nn.LayerParams(np.array([[10.0]]), np.zeros(1)),), ("identity",))
    tgt = nn.MlpParams((nn.LayerParams(np.array([[0.0]]), np.zeros(1)),), ("identity",))
    soft_update(tgt, src, 0.1)
    out = tgt
    assert out.layers[0].weights[0, 0] == pytest.approx(1.0)


def test_soft_update_keeps_target_buffer():
    src = nn.init_params([3, 4, 2], ["relu", "tanh"], seed=1)
    tgt = nn.init_params([3, 4, 2], ["relu", "tanh"], seed=2)
    flat = tgt.flat
    want = 0.25 * src.flat + 0.75 * tgt.flat
    soft_update(tgt, src, 0.25)
    assert tgt.flat is flat
    assert np.array_equal(tgt.flat, want)
    assert all(np.shares_memory(layer.weights, flat) for layer in tgt.layers)


def test_soft_update_shape_mismatch():
    src = nn.init_params([3, 2], ["tanh"], seed=1)
    tgt = nn.init_params([3, 3], ["tanh"], seed=2)
    with pytest.raises(ValueError, match="mismatch"):
        soft_update(tgt, src, 0.5)


@given(st.floats(0.001, 0.999), st.integers(1, 30))
@settings(max_examples=25, deadline=None)
def test_target_stays_in_convex_hull(tau, steps):
    # scalar view: target tracks a sequence of online values, never overshooting
    rng = np.random.default_rng(0)
    online_values = rng.normal(size=steps)
    target = 0.0
    seen = [0.0]
    for w in online_values:
        target = tau * w + (1 - tau) * target
        seen.append(w)
        assert min(seen) - 1e-12 <= target <= max(seen) + 1e-12


# ------------------------------------------------------------ train episode


def test_warmup_freezes_parameters(road_scenario):
    sc = road_scenario(max_steps=30)
    hp = DdpgHyperparams(actor_hidden=(8, 8), critic_hidden=(8, 8), batch_size=64)
    agent = DdpgAgent.create(hp, seed=3)
    actor_before = nn.flatten_params(agent.actor).copy()
    critic_before = nn.flatten_params(agent.critic).copy()
    metrics = train_episode(agent, TrafficWorld(sc), episode_seed=0, rng=np.random.default_rng(0))
    assert metrics.steps == 30  # buffer never reaches 64
    assert np.array_equal(nn.flatten_params(agent.actor), actor_before)
    assert np.array_equal(nn.flatten_params(agent.critic), critic_before)


def test_train_episode_collision_fixture(road_scenario):
    sc = road_scenario(
        background_spawns=(SpawnSpec(step=0, route="main", pos_m=20.0, speed_mps=0.0, speed_factor=0.0),),
        max_steps=50,
    )
    hp = DdpgHyperparams(actor_hidden=(8, 8), critic_hidden=(8, 8), batch_size=256, ou_sigma=0.0)
    agent = DdpgAgent.create(hp, seed=3)
    # bias the actor hard toward full throttle so it rams the parked leader
    agent.actor = nn.unflatten_params(agent.actor, np.zeros(agent.actor.param_count))
    last = agent.actor.layers[-1]
    agent.actor.layers[-1].bias[:] = 10.0  # tanh(10) ~ 1 -> max acceleration
    metrics = train_episode(agent, TrafficWorld(sc), episode_seed=0, rng=np.random.default_rng(0))
    assert metrics.collided
    assert metrics.total_reward < -9.0  # -10 plus a few small moving rewards


def test_train_episode_timeout_on_empty_map(road_scenario):
    sc = road_scenario(max_steps=900)
    hp = DdpgHyperparams(actor_hidden=(8, 8), critic_hidden=(8, 8), batch_size=2048, ou_sigma=0.0)
    agent = DdpgAgent.create(hp, seed=3)
    agent.actor = nn.unflatten_params(agent.actor, np.zeros(agent.actor.param_count))
    agent.actor.layers[-1].bias[:] = -10.0  # hard braking forever
    metrics = train_episode(agent, TrafficWorld(sc), episode_seed=0, rng=np.random.default_rng(0))
    assert metrics.steps == 900
    assert metrics.timed_out and not metrics.collided and not metrics.reached
    assert average_speed(metrics) == 0.0


def test_train_episode_deterministic(road_scenario):
    sc = road_scenario(background_count=2, max_steps=60)
    hp = DdpgHyperparams(actor_hidden=(8, 8), critic_hidden=(8, 8), batch_size=16)

    def run():
        agent = DdpgAgent.create(hp, seed=9)
        m = train_episode(agent, TrafficWorld(sc), episode_seed=5, rng=np.random.default_rng(11))
        return m, nn.flatten_params(agent.actor)

    m1, w1 = run()
    m2, w2 = run()
    assert m1 == m2
    assert np.array_equal(w1, w2)


def test_targets_initialized_to_online():
    agent = DdpgAgent.create(TINY, seed=8)
    assert np.array_equal(nn.flatten_params(agent.actor), nn.flatten_params(agent.target_actor))
    assert np.array_equal(nn.flatten_params(agent.critic), nn.flatten_params(agent.target_critic))


# ------------------------------------------------- buffered update path


def reference_update(agent, batch):
    """One DDPG update composed from the allocating ``nn`` functions; returns the loss and objective."""
    hp = agent.hp
    a_min, a_max, n = hp.accel_min_mps2, hp.accel_max_mps2, batch.states.shape[0]
    next_u, _ = nn.forward(agent.target_actor, batch.next_states)
    next_q, _ = nn.forward(agent.target_critic, np.hstack([batch.next_states, scale_action(next_u, a_min, a_max)]))
    y = batch.rewards + hp.gamma * (1.0 - batch.dones) * next_q
    q, cache = nn.forward(agent.critic, np.hstack([batch.states, batch.actions]))
    err = q - y
    loss = float(np.mean(err**2))
    grads, _ = nn.backward(agent.critic, cache, 2.0 * err / n)
    nn.adam_step(agent.critic, grads, agent.critic_adam, hp.critic_lr)

    u, actor_cache = nn.forward(agent.actor, batch.states)
    q, critic_cache = nn.forward(agent.critic, np.hstack([batch.states, scale_action(u, a_min, a_max)]))
    objective = float(np.mean(q))
    dq_da = nn.input_gradient(agent.critic, critic_cache, np.full_like(q, 1.0 / n))[:, STATE_DIM:]
    grads, _ = nn.backward(agent.actor, actor_cache, dq_da * 0.5 * (a_max - a_min))
    np.negative(grads.flat, out=grads.flat)
    nn.adam_step(agent.actor, grads, agent.actor_adam, hp.actor_lr)

    for target, online in ((agent.target_actor.flat, agent.actor.flat), (agent.target_critic.flat, agent.critic.flat)):
        target *= 1.0 - hp.tau
        target += hp.tau * online
    return loss, objective


def filled_buffer(hp, rng, count=200):
    buffer = ReplayBuffer(hp.buffer_capacity)
    for _ in range(count):
        buffer.store(rng.normal(size=6), float(rng.normal()), float(rng.normal()), rng.normal(size=6), rng.random() < 0.2)
    return buffer


def agent_bytes(agent):
    nets = [getattr(agent, name).flat.tobytes() for name in ("actor", "critic", "target_actor", "target_critic")]
    adams = [(s.m.tobytes(), s.v.tobytes(), s.t) for s in (agent.actor_adam, agent.critic_adam)]
    return nets, adams


@pytest.mark.parametrize("hidden, steps", [((32, 32), 6), ((400, 300), 2)], ids=["32x32", "400x300"])
def test_buffered_update_equals_allocating_composition(hidden, steps):
    # two agents share the update buffers; interleaving them (A, B, A, B)
    # shows any state one leaves there for the other
    hp = DdpgHyperparams(actor_hidden=hidden, critic_hidden=hidden, buffer_capacity=256)
    rng = np.random.default_rng(0)
    buffer = filled_buffer(hp, rng)
    trained = [DdpgAgent.create(hp, seed=s, agent_id=s) for s in (1, 2)]
    reference = [DdpgAgent.create(hp, seed=s, agent_id=s) for s in (1, 2)]
    assert trained[0].actor.flat.dtype == np.float32
    for _ in range(steps):
        for agent, ref in zip(trained, reference):
            batch = buffer.sample(hp.batch_size, rng)
            update(agent, batch)
            reference_update(ref, batch)
    for agent, ref in zip(trained, reference):
        assert agent_bytes(agent) == agent_bytes(ref)
        assert agent.critic_adam.t == agent.actor_adam.t == steps
    # the public steps return the reference's loss and objective, bit for bit
    batch = buffer.sample(hp.batch_size, rng)
    loss, objective = reference_update(reference[0], batch)
    assert critic_update(trained[0], batch) == loss
    assert actor_update(trained[0], batch) == objective


def test_warm_update_allocates_less_than_a_critic_vector():
    hp = DdpgHyperparams(buffer_capacity=256)  # the paper's 400x300 nets
    rng = np.random.default_rng(0)
    buffer = filled_buffer(hp, rng)
    agent = DdpgAgent.create(hp, seed=0)
    batches = [buffer.sample(hp.batch_size, rng) for _ in range(11)]
    update(agent, batches[0])  # warm
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for batch in batches[1:]:
            update(agent, batch)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < agent.critic.flat.nbytes  # about 484 KB
