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
    """The one per-episode record; from ``run_episode`` it has at least one step and exactly one outcome."""

    steps: int
    # sums run left to right from 0.0, one rounding per step (the built-in sum compensates from Python 3.12)
    total_reward: float  # the return
    speed_sum_mps: float  # the ego's speed after each step
    step_length_s: float
    cause: str
    traveled_freeflow_s: float  # distance actually covered, at the speed limits

    @property
    def elapsed_s(self) -> float:
        return self.steps * self.step_length_s

    @property
    def collided(self) -> bool:
        return self.cause == CAUSE_COLLISION

    @property
    def reached(self) -> bool:
        return self.cause == CAUSE_DESTINATION

    @property
    def timed_out(self) -> bool:
        return self.cause == CAUSE_MAX_STEPS


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
    steps = 0
    total_reward = speed_sum = 0.0
    try:
        obs = world.reset(episode_seed)
        while True:
            action = act(obs)
            out = world.step(action)
            if on_step is not None:
                on_step(obs, action, out)
            steps += 1
            total_reward += out.reward
            speed_sum += out.observation.speed
            obs = out.observation
            if out.done:
                break
    except Exception as exc:
        exc.step_idx = steps  # the completed steps: the index of the one in progress
        raise
    return RolloutTrace(
        steps=steps,
        total_reward=total_reward,
        speed_sum_mps=speed_sum,
        step_length_s=world.scenario.step_length_s,
        cause=world.cause,
        traveled_freeflow_s=world.traveled_freeflow_time_s,
    )


def average_speed(trace: RolloutTrace) -> float:
    """Sum of per-step ego speeds divided by the number of steps."""
    if trace.steps < 1:
        raise ValueError("average_speed needs at least one step")
    return trace.speed_sum_mps / trace.steps


def travel_delay(trace: RolloutTrace) -> float:
    """Elapsed time minus free-flow time, never negative.

    Completed episodes compare against the free-flow time over the distance
    actually covered, so finishing inside the destination tolerance (slightly
    short of the nominal route length) cannot produce a negative delay.
    Collided and timed-out episodes are charged only for the portion traveled;
    callers should check ``trace.reached`` before pooling delays.
    """
    return max(0.0, trace.elapsed_s - trace.traveled_freeflow_s)
