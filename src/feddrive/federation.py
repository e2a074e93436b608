"""Synchronous federated training: local rounds, episode-weighted averaging, broadcast.

Each round every agent trains a fixed number of episodes in its own
environment, then ships only its flattened actor/critic weights and episode
count to the aggregator.  No observations, actions, rewards, or replay
contents cross that boundary.  Aggregation is the episode-weighted mean
``sum(n_i * w_i) / sum(n_i)``, summed in ascending agent-id order.  Agents
train one after another in the calling thread, in the order given (ascending
id from ``run_training``), as ``nn``'s serial rule for the process's shared
scratch requires.  Agents train in ``ddpg.TRAIN_DTYPE``; updates, the
global model, aggregation and checkpoints are float64, and ``broadcast``
rounds the global weights into the agents' dtype.  This module alone knows the
round checkpoint's format, each net's record of sizes and activations included:
``save_round_checkpoint`` writes it, ``read_round_checkpoint`` checks it once,
every float finite, and ``load_actor`` wraps the actor on the checked vector.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import ContainerError, load_container, save_container
from .ddpg import DdpgAgent, DdpgHyperparams, check_actor_shape, soft_update, train_episode
from .nn import MlpParams, cast_params, check_architecture, count_params
from .seeding import check_master_seed, derive_seed
from .sim.world import ScenarioConfig, TrafficWorld

OPTIMIZER_RESET = "reset"
OPTIMIZER_KEEP_LOCAL = "keep-local"
# the four networks of an agent or a global model; round checkpoints store each as f"{name}_params"
NET_NAMES = ("actor", "critic", "target_actor", "target_critic")


class AgentTrainingError(RuntimeError):
    """A member agent failed in local training; episodes count from 0 within the round, steps within the episode."""

    def __init__(self, agent_id: int, round_idx: int, episode_idx: int, step_idx: int, cause: BaseException):
        self.agent_id = agent_id
        self.round_idx = round_idx
        self.episode_idx = episode_idx
        self.step_idx = step_idx
        super().__init__(
            f"agent {agent_id} failed in round {round_idx}, episode {episode_idx}, step {step_idx}: {cause}"
        )

    def __reduce__(self):
        # rebuilt from its message and fields, not through __init__, so it pickles (to cross a process
        # boundary) whatever its cause; BaseException.__new__ stores the message as args
        return RuntimeError.__new__, (type(self), *self.args), self.__dict__


@dataclass(frozen=True)
class AgentUpdate:
    """The only payload an agent may send to the aggregator."""

    agent_id: int
    actor_weights: np.ndarray
    critic_weights: np.ndarray
    episodes: int  # n_i for this round

    def __post_init__(self):
        if self.episodes < 1:
            raise ValueError("an update must carry at least one episode")


@dataclass
class GlobalModel:
    actor: MlpParams
    critic: MlpParams
    target_actor: MlpParams
    target_critic: MlpParams


@dataclass(frozen=True)
class AgentRoundStats:
    agent_id: int
    collisions: int
    episode_rewards: tuple[float, ...]
    episode_steps: tuple[int, ...]  # per episode, as RolloutTrace.steps

    @property
    def episodes(self) -> int:
        return len(self.episode_rewards)

    @property
    def mean_reward(self) -> float:
        return float(np.mean(self.episode_rewards))


@dataclass(frozen=True)
class RoundReport:
    round_idx: int
    per_agent: tuple[AgentRoundStats, ...]
    checkpoint_path: str | None


@dataclass(frozen=True)
class FederationConfig:
    agents: int = 10
    rounds: int = 5
    episodes_per_round: int = 100
    hp: DdpgHyperparams = dataclasses.field(default_factory=DdpgHyperparams)
    scenarios: tuple[ScenarioConfig, ...] = ()  # one shared, or one per agent
    master_seed: int = 0
    optimizer_state: str = OPTIMIZER_RESET

    def __post_init__(self):
        check_master_seed(self.master_seed)
        if self.agents < 1 or self.rounds < 1 or self.episodes_per_round < 1:
            raise ValueError("agents, rounds, and episodes_per_round must all be >= 1")
        if self.optimizer_state not in (OPTIMIZER_RESET, OPTIMIZER_KEEP_LOCAL):
            raise ValueError(f"optimizer_state must be 'reset' or 'keep-local', got {self.optimizer_state!r}")
        if len(self.scenarios) not in (1, self.agents):
            raise ValueError("provide one shared scenario or one per agent")

    def scenario_for(self, agent_id: int) -> ScenarioConfig:
        return self.scenarios[0] if len(self.scenarios) == 1 else self.scenarios[agent_id]


def _validate_update(update: AgentUpdate) -> None:
    # runtime privacy assertion: exactly these four fields, weights + a count
    names = tuple(f.name for f in dataclasses.fields(update))
    if names != ("agent_id", "actor_weights", "critic_weights", "episodes"):
        raise TypeError(f"unexpected AgentUpdate fields: {names}")
    if not isinstance(update.actor_weights, np.ndarray) or update.actor_weights.ndim != 1:
        raise TypeError("actor_weights must be a flat array")
    if not isinstance(update.critic_weights, np.ndarray) or update.critic_weights.ndim != 1:
        raise TypeError("critic_weights must be a flat array")


def aggregate(updates: list[AgentUpdate]) -> tuple[np.ndarray, np.ndarray]:
    """Episode-weighted mean of actor and critic weight vectors.

    Summation runs in ascending agent-id order, so the result is invariant
    under permutations of the input list, bit for bit.
    """
    if not updates:
        raise ValueError("cannot aggregate an empty update list")
    for u in updates:
        _validate_update(u)
    ordered = sorted(updates, key=lambda u: u.agent_id)
    actor_len = ordered[0].actor_weights.shape[0]
    critic_len = ordered[0].critic_weights.shape[0]
    # summing deviations from the first agent keeps consensus (and the
    # single-agent case) exact: all deviations are 0.0, so the base returns
    # unchanged instead of round-tripping through (n*w)/n
    actor_base = ordered[0].actor_weights
    critic_base = ordered[0].critic_weights
    total = 0
    actor_dev = np.zeros(actor_len)
    critic_dev = np.zeros(critic_len)
    for u in ordered:
        if u.actor_weights.shape[0] != actor_len or u.critic_weights.shape[0] != critic_len:
            raise ValueError(f"agent {u.agent_id}: weight vector length mismatch")
        actor_dev += u.episodes * (u.actor_weights - actor_base)
        critic_dev += u.episodes * (u.critic_weights - critic_base)
        total += u.episodes
    return actor_base + actor_dev / total, critic_base + critic_dev / total


def broadcast(global_model: GlobalModel, agents: list[DdpgAgent], optimizer_state: str = OPTIMIZER_RESET) -> None:
    """Overwrite every agent's online and target nets with the global online weights, in place.

    The weights are rounded to the agents' dtype.  Replay buffers are kept.
    """
    for agent in agents:
        for net in (agent.actor, agent.target_actor):
            net.flat[:] = global_model.actor.flat
        for net in (agent.critic, agent.target_critic):
            net.flat[:] = global_model.critic.flat
        if optimizer_state == OPTIMIZER_RESET:
            agent.reset_optimizers()


def _train_agent_round(
    config: FederationConfig, agent: DdpgAgent, round_idx: int
) -> tuple[AgentUpdate, AgentRoundStats]:
    # a round keeps each episode's return and steps and the collision count, not the traces
    rewards: list[float] = []
    steps: list[int] = []
    collisions = 0
    try:
        world = TrafficWorld(config.scenario_for(agent.agent_id))
        for e in range(config.episodes_per_round):
            episode_idx = round_idx * config.episodes_per_round + e
            episode_seed = derive_seed(config.master_seed, agent.agent_id, episode_idx)
            rng = np.random.Generator(np.random.PCG64(derive_seed(episode_seed, 1)))
            trace = train_episode(agent, world, derive_seed(episode_seed, 0), rng)
            rewards.append(trace.total_reward)
            steps.append(trace.steps)
            collisions += trace.collided
    except Exception as exc:
        # len(rewards) is the episode in progress; a world that cannot be built fails episode 0, step 0
        step_idx = getattr(exc, "step_idx", 0)
        raise AgentTrainingError(agent.agent_id, round_idx, len(rewards), step_idx, exc) from exc
    # float64 copies: the payload must not change when the agent trains on
    update = AgentUpdate(
        agent_id=agent.agent_id,
        actor_weights=agent.actor.flat.astype(np.float64),
        critic_weights=agent.critic.flat.astype(np.float64),
        episodes=config.episodes_per_round,
    )
    stats = AgentRoundStats(
        agent_id=agent.agent_id, collisions=collisions, episode_rewards=tuple(rewards), episode_steps=tuple(steps)
    )
    return update, stats


def run_round(
    config: FederationConfig,
    global_model: GlobalModel,
    agents: list[DdpgAgent],
    round_idx: int,
    out_dir: Path | None = None,
    config_hash: str = "",
) -> RoundReport:
    """One federated round: local training, aggregation, global update, broadcast."""
    updates, stats = zip(*(_train_agent_round(config, agent, round_idx) for agent in agents))
    actor_flat, critic_flat = aggregate(updates)
    global_model.actor.flat[:] = actor_flat
    global_model.critic.flat[:] = critic_flat
    soft_update(global_model.target_actor, global_model.actor, config.hp.tau)
    soft_update(global_model.target_critic, global_model.critic, config.hp.tau)

    broadcast(global_model, agents, config.optimizer_state)

    ckpt_path = None
    if out_dir is not None:
        ckpt_path = str(save_round_checkpoint(Path(out_dir), global_model, updates, round_idx, config_hash))
    return RoundReport(round_idx=round_idx, per_agent=stats, checkpoint_path=ckpt_path)


def save_round_checkpoint(
    out_dir: Path, global_model: GlobalModel, updates: list[AgentUpdate], round_idx: int, config_hash: str
) -> Path:
    """Write ``round_<round_idx>.ckpt`` and its manifest; ``read_round_checkpoint`` reads the checkpoint back."""
    out_dir.mkdir(parents=True, exist_ok=True)
    ordered = sorted(updates, key=lambda u: u.agent_id)
    path = out_dir / f"round_{round_idx}.ckpt"
    arrays = {f"{name}_params": getattr(global_model, name).flat for name in NET_NAMES}
    arrays["agent_episodes"] = np.array([u.episodes for u in ordered], dtype=np.int64)
    meta = {
        "kind": "global_round",
        "round_idx": round_idx,
        "actor_net": _net_record(global_model.actor),
        "critic_net": _net_record(global_model.critic),
        "agent_ids": [u.agent_id for u in ordered],
        "config_hash": config_hash,
    }
    save_container(path, arrays, meta)
    manifest = {
        "round_idx": round_idx,
        "agent_episodes": {str(u.agent_id): u.episodes for u in ordered},
        "config_hash": config_hash,
    }
    (out_dir / f"round_{round_idx}.manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _net_record(params: MlpParams) -> dict:
    return {"layer_sizes": list(params.layer_sizes), "activations": list(params.activations)}


def read_round_checkpoint(path: str | Path) -> tuple[dict, dict]:
    """Arrays and meta of a global-round checkpoint, checked to hold everything ``load_actor`` and ``inspect`` read."""
    if not Path(path).is_file():
        raise ContainerError(f"checkpoint not found: {path}")
    arrays, meta = load_container(path)
    if meta.get("kind") != "global_round":
        raise ContainerError(f"{path}: unknown checkpoint kind {meta.get('kind')!r}")
    missing = [k for k in ("actor_net", "critic_net", "round_idx") if k not in meta]
    missing += [k for k in ("actor_params", "critic_params", "agent_episodes") if k not in arrays]
    if missing:
        raise ContainerError(f"{path}: round checkpoint lacks {', '.join(missing)}")
    for name in ("actor", "critic"):
        net = meta[f"{name}_net"]
        if not (
            isinstance(net, dict)
            and _is_list_of(net.get("layer_sizes"), int)
            and _is_list_of(net.get("activations"), str)
        ):
            raise ContainerError(f"{path}: {name}_net needs a list of int layer_sizes and a list of str activations")
        try:
            check_architecture(net["layer_sizes"], net["activations"])
        except ValueError as exc:
            raise ContainerError(f"{path}: {name}_net: {exc}") from None
        params, count = arrays[f"{name}_params"], count_params(net["layer_sizes"])
        if params.shape != (count,):
            raise ContainerError(f"{path}: {name}_params has shape {params.shape}, but {name}_net needs ({count},)")
        if params.dtype != np.float64:
            raise ContainerError(f"{path}: {name}_params has dtype {params.dtype}, not float64")
    episodes = arrays["agent_episodes"]
    if episodes.ndim != 1 or episodes.dtype.kind not in "iu":
        raise ContainerError(
            f"{path}: agent_episodes must be a 1-D integer array, got {episodes.dtype} of shape {episodes.shape}"
        )
    for name, array in arrays.items():
        if array.dtype.kind == "f" and not np.isfinite(array).all():
            raise ContainerError(f"{path}: {name} holds a non-finite value")
    return arrays, meta


def _is_list_of(value, kind: type) -> bool:
    return isinstance(value, list) and all(type(v) is kind for v in value)


def load_actor(path: str | Path) -> MlpParams:
    """Actor weights from a global-round checkpoint, checked to map a state to an action."""
    arrays, meta = read_round_checkpoint(path)
    net = meta["actor_net"]
    actor = MlpParams.wrap(arrays["actor_params"], net["layer_sizes"], net["activations"])
    try:
        check_actor_shape(actor)
    except ValueError as exc:
        raise ContainerError(f"{path}: {exc}") from None
    return actor


def init_global_model(hp: DdpgHyperparams, master_seed: int) -> GlobalModel:
    """An agent's init widened to float64, so the first broadcast gives the agents that init exactly."""
    template = DdpgAgent.create(hp, seed=derive_seed(master_seed, 0xF0), agent_id=-1)
    return GlobalModel(**{name: cast_params(getattr(template, name), np.float64) for name in NET_NAMES})


def run_training(
    config: FederationConfig, out_dir: Path | None = None, config_hash: str = ""
) -> tuple[GlobalModel, list[RoundReport]]:
    """Run all federated rounds from a fresh global init; returns model and reports."""
    global_model = init_global_model(config.hp, config.master_seed)
    agents = [
        DdpgAgent.create(config.hp, seed=derive_seed(config.master_seed, 0xA0, i), agent_id=i)
        for i in range(config.agents)
    ]
    broadcast(global_model, agents, config.optimizer_state)
    reports = []
    for r in range(config.rounds):
        reports.append(run_round(config, global_model, agents, r, out_dir, config_hash))
    return global_model, reports


def round_reports_csv(reports: list[RoundReport]) -> str:
    lines = ["round,agent_id,mean_reward,collisions,episodes"]
    for report in reports:
        for s in report.per_agent:
            lines.append(f"{report.round_idx},{s.agent_id},{s.mean_reward!r},{s.collisions},{s.episodes}")
    return "\n".join(lines) + "\n"
