"""Single-agent DDPG: replay buffer, OU exploration, actor-critic updates.

The critic regresses onto the target-network bootstrap value
``y = r + gamma * (1 - done) * Q'(s', mu'(s'))`` and the actor ascends the
deterministic policy gradient through the critic.  Episode truncation at the
step budget does not cut the bootstrap: only collision and arrival are
environment terminals.

A state is ``sim.world.normalize_observation``'s vector of an observation;
the nets' input widths and the replay row read its width, ``STATE_DIM``.
``train_episode`` normalises each observation once, and actions
(``policy_action``, ``select_action``) take the state, not the observation.

Every forward and backward pass runs through ``nn.forward_into`` and
``nn.backward_into`` on the set that ``nn.shared_buffers`` keeps for the
net's architecture, dtype and batch size: an agent's online and target nets
share one set, and so do all agents.  Actions (``policy_action``, in exploration
and in evaluation) run on the batch-1 sets, and updates on the batch-size
ones, so a warm update (``update``: ``critic_update``, ``actor_update``,
then both ``soft_update``s) allocates nothing parameter-sized.  That sharing
rests on ``nn``'s serial rule; nothing returned from the sets outlives the
call that made it except ``policy_gradient``'s gradient, which is valid
until the next update of a net of the same architecture.

A replay ``Batch`` follows the same rule: ``ReplayBuffer.sample`` gathers
the drawn rows into the buffer's one batch array, rebuilt only when a call
asks for another batch size, and returns the same ``Batch`` of column views
into it each time, so a batch is valid until that buffer's next ``sample``.
Copy its fields to keep them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .metrics import RolloutTrace, run_episode
from .nn import (
    AdamState,
    LayerBuffers,
    MlpParams,
    adam_step,
    backward,
    backward_into,
    cast_params,
    forward,  # unused here, but bench/tracing.py wraps ``ddpg.forward`` and ``ddpg.backward``
    forward_into,
    init_adam,
    init_params,
    shared_buffers,
    soft_update,
    unflatten_params,
)
from .seeding import derive_seed
from .sim.world import (
    CAUSE_COLLISION,
    CAUSE_DESTINATION,
    STATE_DIM,
    EgoObservation,
    StepOutcome,
    TrafficWorld,
    normalize_observation,
)

ACTION_DIM = 1
# dtype of an agent's nets, Adam states, gradients and replay ring; the global
# model, aggregation and checkpoints stay float64 (see ``federation``)
TRAIN_DTYPE = np.float32


@dataclass(frozen=True)
class Batch:
    states: np.ndarray  # (n, STATE_DIM)
    actions: np.ndarray  # (n, 1)
    rewards: np.ndarray  # (n, 1)
    next_states: np.ndarray  # (n, STATE_DIM)
    dones: np.ndarray  # (n, 1) float 0/1


# Columns of a replay row: state, action, reward, next state, done.
_ACTION = STATE_DIM
_REWARD = _ACTION + 1
_NEXT = _REWARD + 1
_DONE = _NEXT + STATE_DIM
_WIDTH = _DONE + 1
_ROW_MAX = float(np.finfo(TRAIN_DTYPE).max)


class ReplayBuffer:
    """Fixed-capacity ring of transition rows; eviction is strictly oldest-first."""

    def __init__(self, capacity: int = 50_000):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        # np.empty, not np.zeros: a zeroed 6 MB ring measured +5 MB peak RSS; rows at or past _size are never read
        self._rows = np.empty((capacity, _WIDTH), dtype=TRAIN_DTYPE)
        self._write = 0
        self._size = 0
        self._batch: tuple[np.ndarray, Batch] | None = None  # the last sample's rows array and its column views

    def __len__(self) -> int:
        return self._size

    def store(self, state: np.ndarray, action: float, reward: float, next_state: np.ndarray, done: bool) -> None:
        """Write one transition; ``done`` is an environment terminal (collision/arrival), not truncation."""
        # NaN fails every comparison; a magnitude past the ring dtype's max would be stored as inf
        if not (
            np.abs(state).max() <= _ROW_MAX
            and np.abs(next_state).max() <= _ROW_MAX
            and abs(action) <= _ROW_MAX
            and abs(reward) <= _ROW_MAX
        ):
            raise ValueError(f"transition contains non-finite values or values beyond {_ROW_MAX:.3g}")
        row = self._rows[self._write]
        row[:_ACTION] = state
        row[_ACTION] = action
        row[_REWARD] = reward
        row[_NEXT:_DONE] = next_state
        row[_DONE] = 1.0 if done else 0.0
        self._write = (self._write + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch:
        """Uniform with-replacement draw over stored items, valid until this buffer's next ``sample``.

        The rows are copied into the buffer's one batch array, which is
        rebuilt only when ``batch_size`` differs from the last call's; the
        returned ``Batch``, made with that array, holds column views of it.
        """
        if self._size < batch_size:
            raise ValueError(f"buffer holds {self._size} transitions, need {batch_size}")
        drawn = rng.integers(0, self._size, size=batch_size)
        cached = self._batch
        if cached is None or len(cached[0]) != batch_size:
            rows = np.empty((batch_size, _WIDTH), dtype=TRAIN_DTYPE)
            batch = Batch(
                states=rows[:, :_ACTION],
                actions=rows[:, _ACTION:_REWARD],
                rewards=rows[:, _REWARD:_NEXT],
                next_states=rows[:, _NEXT:_DONE],
                dones=rows[:, _DONE:],
            )
            cached = self._batch = (rows, batch)
        # every index is in range, so "clip" never clips; it spares the default mode's buffered copy
        np.take(self._rows, drawn, axis=0, out=cached[0], mode="clip")
        return cached[1]


@dataclass(frozen=True)
class OuNoiseState:
    """Mean-reverting exploration noise: x += theta*(mu - x)*dt + sigma*sqrt(dt)*z."""

    x: float = 0.0
    mu: float = 0.0
    theta: float = 0.15
    sigma: float = 0.2
    dt: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.theta < math.inf:
            raise ValueError("OU theta must be positive and finite")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError("OU sigma must be >= 0 and finite")
        if not 0.0 < self.dt < math.inf:
            raise ValueError("OU dt must be positive and finite")
        if not math.isfinite(self.mu):
            raise ValueError("OU mu must be finite")


def ou_sample(state: OuNoiseState, rng: np.random.Generator) -> tuple[float, OuNoiseState]:
    z = rng.standard_normal()
    x = state.x + state.theta * (state.mu - state.x) * state.dt + state.sigma * math.sqrt(state.dt) * z
    # replace(state, x=x) without rerunning __post_init__: only x changes, and it is not checked
    nxt = object.__new__(OuNoiseState)
    nxt.__dict__.update(state.__dict__, x=x)
    return x, nxt


def ou_stationary_variance(theta: float, sigma: float, dt: float) -> float:
    """Closed-form variance of the discrete recurrence (an AR(1) process)."""
    a = 1.0 - theta * dt
    return sigma**2 * dt / (1.0 - a * a)


@dataclass(frozen=True)
class DdpgHyperparams:
    gamma: float = 0.99
    tau: float = 0.005
    actor_lr: float = 5e-4
    critic_lr: float = 5e-4
    batch_size: int = 64
    buffer_capacity: int = 50_000
    accel_min_mps2: float = -4.5
    accel_max_mps2: float = 2.6
    actor_hidden: tuple[int, ...] = (400, 300)
    critic_hidden: tuple[int, ...] = (400, 300)
    ou_mu: float = 0.0
    ou_theta: float = 0.15
    ou_sigma: float = 0.2
    ou_dt: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must lie in [0, 1]")
        if not (0.0 < self.actor_lr < math.inf and 0.0 < self.critic_lr < math.inf):
            raise ValueError("learning rates must be positive and finite")
        if not 1 <= self.batch_size <= self.buffer_capacity:  # else no update can ever run
            raise ValueError(
                f"need 1 <= batch_size <= buffer_capacity, got {self.batch_size} and {self.buffer_capacity}"
            )
        if not -math.inf < self.accel_min_mps2 < self.accel_max_mps2 < math.inf:
            raise ValueError("accel bounds must be finite and satisfy min < max")
        for name in ("actor_hidden", "critic_hidden"):
            if not all(width >= 1 for width in getattr(self, name)):
                raise ValueError(f"{name} widths must be >= 1, got {list(getattr(self, name))}")
        OuNoiseState(mu=self.ou_mu, theta=self.ou_theta, sigma=self.ou_sigma, dt=self.ou_dt)  # checks the ou_* values


def scale_action(u: float | np.ndarray, a_min: float, a_max: float):
    """Affine map from the tanh range [-1, 1] onto [a_min, a_max]."""
    return a_min + (u + 1.0) * 0.5 * (a_max - a_min)


def check_actor_shape(actor: MlpParams) -> None:
    """Raise ``ValueError`` unless ``actor`` maps a state to an action."""
    if (actor.in_dim, actor.out_dim) != (STATE_DIM, ACTION_DIM):
        raise ValueError(
            f"actor must map {STATE_DIM} state components to {ACTION_DIM} action, "
            f"got {actor.in_dim}->{actor.out_dim}"
        )


def policy_action(actor: MlpParams, state: np.ndarray, a_min: float, a_max: float) -> float:
    """Deterministic (noise-free) action for one state (``normalize_observation``'s vector)."""
    out = forward_into(actor, shared_buffers(actor, 1), state.reshape(1, -1))
    a = scale_action(float(out[0, 0]), a_min, a_max)  # the NumPy scalar's IEEE arithmetic, without its overhead
    if not math.isfinite(a):
        raise ValueError("actor produced a non-finite action")
    return a


@dataclass
class DdpgAgent:
    agent_id: int
    hp: DdpgHyperparams
    actor: MlpParams
    critic: MlpParams
    target_actor: MlpParams
    target_critic: MlpParams
    actor_adam: AdamState
    critic_adam: AdamState
    buffer: ReplayBuffer
    noise: OuNoiseState

    @classmethod
    def create(cls, hp: DdpgHyperparams, seed: int, agent_id: int = 0) -> "DdpgAgent":
        actor = init_params(
            [STATE_DIM, *hp.actor_hidden, ACTION_DIM],
            ["relu"] * len(hp.actor_hidden) + ["tanh"],
            seed=derive_seed(seed, 1),
        )
        critic = init_params(
            [STATE_DIM + ACTION_DIM, *hp.critic_hidden, 1],
            ["relu"] * len(hp.critic_hidden) + ["identity"],
            seed=derive_seed(seed, 2),
        )
        actor, critic = cast_params(actor, TRAIN_DTYPE), cast_params(critic, TRAIN_DTYPE)
        for net in (actor, critic):  # the shared update buffers, made with the agent so that no update allocates them
            shared_buffers(net, hp.batch_size)
        return cls(
            agent_id=agent_id,
            hp=hp,
            actor=actor,
            critic=critic,
            target_actor=unflatten_params(actor, actor.flat),
            target_critic=unflatten_params(critic, critic.flat),
            actor_adam=init_adam(actor),
            critic_adam=init_adam(critic),
            buffer=ReplayBuffer(hp.buffer_capacity),
            noise=OuNoiseState(x=hp.ou_mu, mu=hp.ou_mu, theta=hp.ou_theta, sigma=hp.ou_sigma, dt=hp.ou_dt),
        )

    def reset_optimizers(self) -> None:
        self.actor_adam = init_adam(self.actor)
        self.critic_adam = init_adam(self.critic)


def select_action(agent: DdpgAgent, state: np.ndarray, rng: np.random.Generator) -> float:
    """The exploring action: the actor's scaled output plus OU noise, clipped to the acceleration range.

    The greedy action is ``policy_action(agent.actor, state, a_min, a_max)``.
    """
    hp = agent.hp
    a = policy_action(agent.actor, state, hp.accel_min_mps2, hp.accel_max_mps2)
    noise, agent.noise = ou_sample(agent.noise, rng)
    a += noise * 0.5 * (hp.accel_max_mps2 - hp.accel_min_mps2)
    return min(max(a, hp.accel_min_mps2), hp.accel_max_mps2)


def _critic_input(bufs: LayerBuffers, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """The critic's input [states, actions], assembled in ``bufs.inputs``."""
    x = bufs.inputs
    x[:, :STATE_DIM] = states
    x[:, STATE_DIM:] = actions
    return x


def _mean(a: np.ndarray) -> float:
    """``float(np.mean(a))`` for a float array, without its Python-level wrapper."""
    return float(np.add.reduce(a, axis=None) / a.size)


def critic_targets(agent: DdpgAgent, batch: Batch) -> np.ndarray:
    """Bellman targets y = r + gamma * (1 - done) * Q'(s', mu'(s'))."""
    hp = agent.hp
    n = batch.states.shape[0]
    critic_bufs = shared_buffers(agent.target_critic, n)
    next_u = forward_into(agent.target_actor, shared_buffers(agent.target_actor, n), batch.next_states)
    next_a = scale_action(next_u, hp.accel_min_mps2, hp.accel_max_mps2)
    next_q = forward_into(agent.target_critic, critic_bufs, _critic_input(critic_bufs, batch.next_states, next_a))
    return batch.rewards + hp.gamma * (1.0 - batch.dones) * next_q


def critic_update(agent: DdpgAgent, batch: Batch) -> float:
    """One Adam step on the critic toward the Bellman targets; returns the pre-step MSE."""
    y = critic_targets(agent, batch)
    n = batch.states.shape[0]
    bufs = shared_buffers(agent.critic, n)
    q = forward_into(agent.critic, bufs, _critic_input(bufs, batch.states, batch.actions))
    err = q - y
    loss = _mean(err**2)
    if not math.isfinite(loss):
        raise ValueError("non-finite critic loss")
    backward_into(agent.critic, bufs, 2.0 * err / n)
    adam_step(agent.critic, bufs.grad, agent.critic_adam, agent.hp.critic_lr)
    return loss


def policy_gradient(
    actor: MlpParams, critic: MlpParams, states: np.ndarray, a_min: float, a_max: float
) -> tuple[MlpParams, float]:
    """Gradient of mean Q(s, mu(s)) w.r.t. actor parameters, and the objective value.

    The gradient is a buffer shared by every actor of this architecture and
    batch size; it is valid until the next update of such a net.
    """
    n = states.shape[0]
    actor_bufs, critic_bufs = shared_buffers(actor, n), shared_buffers(critic, n)
    u = forward_into(actor, actor_bufs, states)
    actions = scale_action(u, a_min, a_max)
    q = forward_into(critic, critic_bufs, _critic_input(critic_bufs, states, actions))
    objective = _mean(q)
    mean_grad = critic_bufs.output_gradient
    mean_grad.fill(1.0 / n)
    dq_da = backward_into(critic, critic_bufs, mean_grad, grad=False, input_grad=True)[:, states.shape[1]:]
    du = np.multiply(dq_da, 0.5, out=actor_bufs.output_gradient)
    np.multiply(du, a_max - a_min, out=du)
    backward_into(actor, actor_bufs, du)
    return actor_bufs.grad, objective


def actor_update(agent: DdpgAgent, batch: Batch) -> float:
    """Gradient-ascent step on mean Q(s, mu(s)); returns the pre-step objective."""
    hp = agent.hp
    grads, objective = policy_gradient(
        agent.actor, agent.critic, batch.states, hp.accel_min_mps2, hp.accel_max_mps2
    )
    _ascend_actor(agent, grads)
    return objective


def apply_policy_gradient(agent: DdpgAgent, actor_cache, dq_da: np.ndarray) -> None:
    """Ascend the actor along an externally supplied dQ/da (chained through scaling)."""
    du = dq_da * 0.5 * (agent.hp.accel_max_mps2 - agent.hp.accel_min_mps2)
    grads, _ = backward(agent.actor, actor_cache, du)
    _ascend_actor(agent, grads)


def _ascend_actor(agent: DdpgAgent, grads: MlpParams) -> None:
    """Adam descends, so the ascent step negates ``grads`` in place first."""
    np.negative(grads.flat, out=grads.flat)
    adam_step(agent.actor, grads, agent.actor_adam, agent.hp.actor_lr)


def update(agent: DdpgAgent, batch: Batch) -> None:
    """One DDPG update on a replay batch: critic, actor, then both target nets."""
    critic_update(agent, batch)
    actor_update(agent, batch)
    soft_update(agent.target_actor, agent.actor, agent.hp.tau)
    soft_update(agent.target_critic, agent.critic, agent.hp.tau)


def train_episode(
    agent: DdpgAgent,
    world: TrafficWorld,
    episode_seed: int,
    rng: np.random.Generator,
) -> RolloutTrace:
    """Run one exploratory episode with per-step updates once the buffer is warm; errors carry ``step_idx``.

    Each observation is normalised once: its state serves the action chosen
    from it and both transitions it belongs to.
    """
    hp = agent.hp
    agent.noise = replace(agent.noise, x=hp.ou_mu)
    seen = (None, None)  # the latest observation normalised, and its state

    def state_of(obs: EgoObservation) -> np.ndarray:
        nonlocal seen
        if seen[0] is not obs:
            seen = (obs, normalize_observation(obs))
        return seen[1]

    def learn(obs: EgoObservation, action: float, out: StepOutcome) -> None:
        done = out.cause in (CAUSE_COLLISION, CAUSE_DESTINATION)
        agent.buffer.store(state_of(obs), action, out.reward, state_of(out.observation), done)
        if len(agent.buffer) >= hp.batch_size:
            update(agent, agent.buffer.sample(hp.batch_size, rng))

    return run_episode(world, lambda obs: select_action(agent, state_of(obs), rng), episode_seed, on_step=learn)
