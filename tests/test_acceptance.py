"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from feddrive import nn
from feddrive.config import load_run_config
from feddrive.container import load_container
from feddrive.ddpg import (
    Batch,
    DdpgAgent,
    DdpgHyperparams,
    OuNoiseState,
    apply_policy_gradient,
    critic_update,
    ou_sample,
    ou_stationary_variance,
    scale_action,
)
from feddrive.evaluation import EvalProtocol, EvalTemplate, evaluate, export_csv
from feddrive.federation import AgentUpdate, FederationConfig, aggregate, run_training
from feddrive.sim import REWARD_CASES, EventFlags, ScenarioConfig, TrafficWorld, compute_reward
from tests.conftest import CONFIGS


def report(criterion: int, text: str) -> None:
    print(f"\n[PASS] criterion {criterion}: {text}")


# --------------------------------------------------------------- criterion 1


def test_criterion_1_reward_table_exactness():
    table = {name: value for name, _pred, value in REWARD_CASES}
    assert table == {
        "collision": -10.0,
        "destination": 10.0,
        "brake_and_wait": -0.05,
        "brake_xor_wait": 0.025,
        "free_movement": 0.05,
        "nonzero_speed": 0.04,
        "default": -0.02,
    }
    assert [name for name, _p, _v in REWARD_CASES] == [
        "collision",
        "destination",
        "brake_and_wait",
        "brake_xor_wait",
        "free_movement",
        "nonzero_speed",
        "default",
    ]

    checked = 0
    for bits in itertools.product([False, True], repeat=5):
        collided, reached, braking, waiting, moving = bits
        if collided and reached:
            continue
        flags = EventFlags(collided, reached, braking, waiting, moving)
        # documented precedence, restated independently
        if collided:
            want = -10.0
        elif reached:
            want = 10.0
        elif braking and waiting:
            want = -0.05
        elif braking != waiting:
            want = 0.025
        elif moving:
            want = 0.05
        else:
            want = -0.02
        assert compute_reward(flags) == want
        checked += 1
    assert checked == 24
    report(1, f"7 reward cases exact, {checked} consistent flag combinations match precedence")


# --------------------------------------------------------------- criterion 2


def test_criterion_2_fedavg_oracle_equivalence():
    rng = np.random.default_rng(2024)
    for instance in range(100):
        n_agents = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 1001))
        weights = rng.normal(scale=rng.uniform(0.1, 10.0), size=(n_agents, dim))
        counts = [int(c) for c in rng.integers(1, 51, size=n_agents)]
        updates = [
            AgentUpdate(agent_id=i, actor_weights=weights[i], critic_weights=weights[i].copy(), episodes=counts[i])
            for i in range(n_agents)
        ]
        got, _ = aggregate(updates)

        total = sum(counts)
        brute = np.array(
            [math.fsum(counts[i] * weights[i, j] for i in range(n_agents)) / total for j in range(dim)]
        )
        # relative to the element's data magnitude: where the true mean cancels
        # to ~0, no 64-bit summation order can agree to a strict relative 1e-12
        scale = np.maximum(np.abs(brute), np.abs(weights).max(axis=0))
        rel = np.abs(got - brute) / np.maximum(scale, 1e-300)
        assert rel.max() < 1e-12, f"instance {instance}: rel err {rel.max():.2e}"

        # convexity on every instance
        assert np.all(got >= weights.min(axis=0) - 1e-12)
        assert np.all(got <= weights.max(axis=0) + 1e-12)

        # consensus on every instance: identical weights return exactly
        consensus = [
            AgentUpdate(agent_id=i, actor_weights=weights[0], critic_weights=weights[0], episodes=counts[i])
            for i in range(n_agents)
        ]
        cons_actor, _ = aggregate(consensus)
        assert np.array_equal(cons_actor, weights[0])
    report(2, "100 random instances match brute-force weighted mean (<1e-12); consensus exact; convex")


# --------------------------------------------------------------- criterion 3


def _clear_of_relu_kinks(params, x, margin=1e-4):
    _, cache = nn.forward(params, x)
    for z, act in zip(cache.preacts, params.activations):
        if act == "relu" and np.any(np.abs(z) < margin):
            return False
    return True


def test_criterion_3_gradient_correctness():
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 50:
        if checked % 3 == 0:
            in_dim = 7  # critic-style concatenated (state, action) input
            acts_last = "identity"
        else:
            in_dim = int(rng.integers(2, 8))
            acts_last = "tanh"  # actor-style bounded head
        hidden = [int(rng.integers(3, 9)) for _ in range(int(rng.integers(1, 3)))]
        sizes = [in_dim, *hidden, int(rng.integers(1, 3))]
        acts = [str(rng.choice(["relu", "tanh"])) for _ in hidden] + [acts_last]

        params = nn.init_params(sizes, acts, seed=int(rng.integers(2**32)))
        x = rng.normal(size=(4, in_dim))
        for _ in range(20):
            if _clear_of_relu_kinks(params, x):
                break
            x = rng.normal(size=(4, in_dim))
        else:
            continue  # pathological draw; take another architecture

        g_out = rng.normal(size=(4, sizes[-1]))
        _, cache = nn.forward(params, x)
        grads, _ = nn.backward(params, cache, g_out)
        analytic = nn.flatten_params(grads)

        h = 1e-5
        flat = nn.flatten_params(params)
        fd = np.zeros_like(flat)
        for i in range(len(flat)):
            up, dn = flat.copy(), flat.copy()
            up[i] += h
            dn[i] -= h
            yu, _ = nn.forward(nn.unflatten_params(params, up), x)
            yd, _ = nn.forward(nn.unflatten_params(params, dn), x)
            fd[i] = float(((yu - yd) * g_out).sum()) / (2 * h)

        rel = np.abs(analytic - fd) / np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-8)
        assert rel.max() < 1e-4, f"net {sizes}/{acts}: rel err {rel.max():.2e}"
        checked += 1
    report(3, "50 random MLPs (tanh heads, concatenated critic input): analytic vs FD < 1e-4")


# --------------------------------------------------------------- criterion 4


def test_criterion_4a_critic_regression():
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
    assert min(losses) < 1e-3
    assert losses[-1] < 1e-3
    report(4, f"(a) critic MSE {losses[-1]:.2e} < 1e-3 within 500 updates")


def test_criterion_4b_actor_reaches_quadratic_optimum():
    hp = DdpgHyperparams(actor_hidden=(8, 8), actor_lr=1e-2)
    agent = DdpgAgent.create(hp, seed=2)
    a_star = 1.0
    states = np.random.default_rng(1).normal(size=(4, 6))
    for _ in range(1000):
        u, cache = nn.forward(agent.actor, states)
        a = scale_action(u, hp.accel_min_mps2, hp.accel_max_mps2)
        apply_policy_gradient(agent, cache, -2.0 * (a - a_star) / len(states))
    u, _ = nn.forward(agent.actor, states)
    gap = float(np.max(np.abs(scale_action(u, hp.accel_min_mps2, hp.accel_max_mps2) - a_star)))
    assert gap < 0.05
    report(4, f"(b) actor within {gap:.3f} of the quadratic critic optimum after 1000 updates")


# --------------------------------------------------------------- criterion 5


def test_criterion_5_ou_statistics():
    theta, sigma, dt = 0.15, 0.2, 1.0
    state = OuNoiseState(x=0.0, mu=0.0, theta=theta, sigma=sigma, dt=dt)
    rng = np.random.default_rng(7)
    n = 1_000_000
    xs = np.empty(n)
    for i in range(n):
        xs[i], state = ou_sample(state, rng)
    mean = float(xs.mean())
    var = float(xs.var())
    want = ou_stationary_variance(theta, sigma, dt)
    assert abs(mean - 0.0) <= 0.01
    assert abs(var - want) / want <= 0.05
    report(5, f"OU over 1e6 samples: mean {mean:+.4f} (|.|<=0.01), var {var:.4f} vs {want:.4f} (<=5%)")


# --------------------------------------------------------------- criterion 6


def _bg_disjoint_and_bounded(world):
    by_edge = {}
    for v in world.background:
        limit = world.net.edges[v.edge_id].speed_limit_mps
        assert 0.0 <= v.speed_mps <= limit
        by_edge.setdefault(v.edge_id, []).append(v)
    for vehicles in by_edge.values():
        vehicles.sort(key=lambda v: v.pos_m)
        for a, b in zip(vehicles, vehicles[1:]):
            assert b.tail_m >= a.pos_m, f"overlap between {a.vehicle_id} and {b.vehicle_id}"


def test_criterion_6_sim_determinism_and_safety(grid_net):
    scenario = ScenarioConfig(
        network=grid_net,
        ego_route="loop",
        destination_node="n00",
        destination_tolerance_m=1.0,
        background_count=4,
        max_steps=900,
        master_seed=61,
    )

    def run(seed, check):
        world = TrafficWorld(scenario)
        world.reset(seed)
        rng = np.random.default_rng(seed)
        outcomes = []
        while not world.done:
            out = world.step(rng.uniform(-4.5, 2.6))
            if check:
                _bg_disjoint_and_bounded(world)
            outcomes.append(
                (tuple(out.observation.as_vector()), out.reward, out.done, out.cause, out.flags)
            )
        return outcomes

    steps_checked = 0
    seed = 0
    replays = 0
    while replays < 100 or steps_checked < 100_000:
        first = run(seed, check=True)
        second = run(seed, check=True)
        assert first == second, f"seed {seed} did not replay bit-identically"
        steps_checked += 2 * len(first)
        replays += 1
        seed += 1
    report(6, f"{replays} action sequences replayed bit-identically; no-overlap held over {steps_checked} steps")


# --------------------------------------------------------------- criterion 7


def test_criterion_7_desk_scale_learning_trend():
    cfg = load_run_config(CONFIGS / "desk_trend.cfg")
    fed = cfg.federation
    assert (fed.agents, fed.rounds, fed.episodes_per_round) == (3, 3, 60)
    assert fed.scenario_for(0).background_count == 2
    _, reports = run_training(fed)
    first20 = [r for s in reports[0].per_agent for r in s.episode_rewards[:20]]
    final = [r for s in reports[-1].per_agent for r in s.episode_rewards]
    baseline = float(np.mean(first20))
    final_mean = float(np.mean(final))
    assert final_mean >= baseline + 1.0, f"final {final_mean:.2f} vs baseline {baseline:.2f}"
    report(
        7,
        f"final-round mean reward {final_mean:+.2f} exceeds first-20-episode baseline "
        f"{baseline:+.2f} by {final_mean - baseline:+.2f} (>= +1.0)",
    )


# --------------------------------------------------------------- criterion 8


def test_criterion_8_protocol_fidelity(tmp_path, single_road_net):
    # the default protocol shape: 10 agents x 5 rounds x 100 episodes = 500 per agent
    defaults = FederationConfig(scenarios=(None,))
    assert defaults.agents == 10
    assert defaults.rounds == 5
    assert defaults.episodes_per_round == 100
    assert defaults.rounds * defaults.episodes_per_round == 500
    default_hp = DdpgHyperparams()
    assert default_hp.buffer_capacity == 50_000
    assert default_hp.batch_size == 64
    assert default_hp.gamma == 0.99
    assert (default_hp.actor_lr, default_hp.critic_lr) == (5e-4, 5e-4)

    # shrunken run preserving the round structure: R=5 stays, N/E shrink
    scenario = ScenarioConfig(
        network=single_road_net, ego_route="main", destination_node="b", max_steps=20, master_seed=3
    )
    hp = DdpgHyperparams(actor_hidden=(8, 8), critic_hidden=(8, 8), batch_size=16, buffer_capacity=512)
    fed = FederationConfig(
        agents=2, rounds=5, episodes_per_round=2, hp=hp, scenarios=(scenario,), master_seed=3
    )
    _, reports = run_training(fed, out_dir=tmp_path, config_hash="acc8")
    ckpts = sorted(tmp_path.glob("round_*.ckpt"))
    assert [p.name for p in ckpts] == [f"round_{k}.ckpt" for k in range(5)]
    per_agent_total = {0: 0, 1: 0}
    for path in ckpts:
        arrays, meta = load_container(path)
        for aid, n in zip(meta["agent_ids"], arrays["agent_episodes"].tolist()):
            assert n == fed.episodes_per_round
            per_agent_total[aid] += n
    assert all(total == fed.rounds * fed.episodes_per_round for total in per_agent_total.values())

    # evaluation protocol: the five distances, 20 episodes each
    actor = nn.init_params([6, 8, 1], ["relu", "tanh"], seed=0)
    protocol = EvalProtocol(episodes=20, template=EvalTemplate(max_steps=40))
    assert protocol.distances_m == (10.0, 20.0, 52.0, 107.0, 207.0)
    summary = evaluate(actor, protocol, policy_id="acc8")
    assert [row.distance_m for row in summary.rows] == [10.0, 20.0, 52.0, 107.0, 207.0]
    assert all(row.episodes == 20 for row in summary.rows)
    export_csv([summary], tmp_path / "eval.csv")
    lines = (tmp_path / "eval.csv").read_text().strip().splitlines()
    assert len(lines) == 6
    report(8, "5 round checkpoints, n_i = R*E per agent (500 at defaults); eval rows {10,20,52,107,207} x 20")


# --------------------------------------------------------------- criterion 9


def test_criterion_9_privacy_boundary(single_road_net):
    # static surface: the update type carries weights and an episode count, nothing else
    fields = {f.name: f.type for f in dataclasses.fields(AgentUpdate)}
    assert set(fields) == {"agent_id", "actor_weights", "critic_weights", "episodes"}
    forbidden = ("state", "obs", "action", "reward", "transition", "trajectory", "buffer")
    assert not any(any(tag in name for tag in forbidden) for name in fields)

    # runtime: updates produced by a real round carry only flat float vectors + int count
    from feddrive.federation import _train_agent_round, broadcast, init_global_model

    scenario = ScenarioConfig(
        network=single_road_net, ego_route="main", destination_node="b", max_steps=15, master_seed=1
    )
    hp = DdpgHyperparams(actor_hidden=(8, 8), critic_hidden=(8, 8), batch_size=8, buffer_capacity=128)
    fed = FederationConfig(agents=1, rounds=1, episodes_per_round=1, hp=hp, scenarios=(scenario,), master_seed=1)
    agent = DdpgAgent.create(hp, seed=0, agent_id=0)
    broadcast(init_global_model(hp, 1), [agent])
    update, _stats = _train_agent_round(fed, agent, 0)
    assert isinstance(update.actor_weights, np.ndarray) and update.actor_weights.ndim == 1
    assert isinstance(update.critic_weights, np.ndarray) and update.critic_weights.ndim == 1
    assert update.actor_weights.dtype == np.float64
    assert isinstance(update.episodes, int)
    # no attributes beyond the four declared fields ride along
    assert set(vars(update)) == set(fields)

    # aggregation rejects widened payloads at runtime
    @dataclasses.dataclass(frozen=True)
    class LeakyUpdate(AgentUpdate):
        rewards: tuple = ()

    leaky = LeakyUpdate(agent_id=0, actor_weights=np.zeros(3), critic_weights=np.zeros(3), episodes=1)
    with pytest.raises(TypeError):
        aggregate([leaky])
    report(9, "aggregation payload is flattened weights + episode count only; widened payloads rejected")
