"""The episode loop and its metrics: return, travel delay, average speed."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .sim.world import (
    CAUSE_COLLISION,
    CAUSE_DESTINATION,
    CAUSE_MAX_STEPS,
    EgoObservation,
    StepOutcome,
    TrafficWorld,
)


@dataclass(frozen=True)
class RolloutTrace:
    """Per-episode record sufficient to compute all reported metrics."""

    speeds_mps: tuple[float, ...]  # ego speed after each step
    rewards: tuple[float, ...]
    step_length_s: float
    cause: str
    distance_traveled_m: float
    route_freeflow_s: float  # whole ego route at the speed limits
    traveled_freeflow_s: float  # distance actually covered, at the speed limits

    @property
    def steps(self) -> int:
        return len(self.speeds_mps)

    @property
    def elapsed_s(self) -> float:
        return self.steps * self.step_length_s

    @property
    def completed(self) -> bool:
        return self.cause == CAUSE_DESTINATION


def run_episode(
    world: TrafficWorld,
    act: Callable[[EgoObservation], float],
    episode_seed: int,
    on_step: Callable[[EgoObservation, float, StepOutcome], None] | None = None,
) -> RolloutTrace:
    """Reset ``world``, drive it with ``act`` until the episode ends, and trace it.

    ``on_step(obs, action, out)`` runs after each step with the observation the
    action was chosen from.  Training, evaluation and ``sim-run`` all run their
    episodes here.  An exception let through carries ``step_idx``, the step in
    progress (from 0; a failing reset reports step 0).
    """
    speeds: list[float] = []
    rewards: list[float] = []
    try:
        obs = world.reset(episode_seed)
        while True:
            action = act(obs)
            out = world.step(action)
            if on_step is not None:
                on_step(obs, action, out)
            speeds.append(out.observation.speed)
            rewards.append(out.reward)
            obs = out.observation
            if out.done:
                break
    except Exception as exc:
        exc.step_idx = len(rewards)  # rewards grow as steps complete
        raise
    return RolloutTrace(
        speeds_mps=tuple(speeds),
        rewards=tuple(rewards),
        step_length_s=world.scenario.step_length_s,
        cause=world.cause,
        distance_traveled_m=world.distance_traveled_m,
        route_freeflow_s=world.route_freeflow_time_s,
        traveled_freeflow_s=world.traveled_freeflow_time_s,
    )


@dataclass(frozen=True)
class EpisodeMetrics:
    total_reward: float
    steps: int
    collided: bool
    reached: bool
    timed_out: bool
    travel_delay_s: float
    average_speed_mps: float

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("an episode has at least one step")
        if [self.collided, self.reached, self.timed_out].count(True) != 1:
            raise ValueError("exactly one of collided/reached/timed_out must hold")


def average_speed(trace: RolloutTrace) -> float:
    """Sum of per-step ego speeds divided by the number of steps."""
    if trace.steps < 1:
        raise ValueError("average_speed needs at least one step")
    return sum(trace.speeds_mps) / trace.steps


def travel_delay(trace: RolloutTrace) -> float:
    """Elapsed time minus free-flow time, never negative.

    Completed episodes compare against the free-flow time over the distance
    actually covered, so finishing inside the destination tolerance (slightly
    short of the nominal route length) cannot produce a negative delay.
    Collided and timed-out episodes are charged only for the portion traveled;
    callers should check ``trace.completed`` before pooling delays.
    """
    return max(0.0, trace.elapsed_s - trace.traveled_freeflow_s)


def metrics_from_trace(trace: RolloutTrace) -> EpisodeMetrics:
    return EpisodeMetrics(
        total_reward=sum(trace.rewards),
        steps=trace.steps,
        collided=trace.cause == CAUSE_COLLISION,
        reached=trace.cause == CAUSE_DESTINATION,
        timed_out=trace.cause == CAUSE_MAX_STEPS,
        travel_delay_s=travel_delay(trace),
        average_speed_mps=average_speed(trace),
    )
