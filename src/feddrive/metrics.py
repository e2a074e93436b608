"""The episode loop and its metrics: return, travel delay, average speed."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from typing import Callable

from .sim.world import (
    CAUSE_COLLISION,
    CAUSE_DESTINATION,
    CAUSE_MAX_STEPS,
    EgoObservation,
    StepOutcome,
    TrafficWorld,
)


def left_to_right_sum(values) -> float:
    """The floats summed in order, one rounding per addition.

    That is what the built-in ``sum`` does up to Python 3.11; from 3.12 it
    compensates, which changes the last bits of episode returns.
    """
    return reduce(operator.add, values, 0.0)


@dataclass(frozen=True)
class RolloutTrace:
    """The one per-episode record; from ``run_episode`` it has at least one step and exactly one outcome."""

    speeds_mps: tuple[float, ...]  # ego speed after each step
    rewards: tuple[float, ...]
    step_length_s: float
    cause: str
    traveled_freeflow_s: float  # distance actually covered, at the speed limits

    @property
    def steps(self) -> int:
        return len(self.speeds_mps)

    @property
    def elapsed_s(self) -> float:
        return self.steps * self.step_length_s

    @property
    def total_reward(self) -> float:
        return left_to_right_sum(self.rewards)

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
        traveled_freeflow_s=world.traveled_freeflow_time_s,
    )


def average_speed(trace: RolloutTrace) -> float:
    """Sum of per-step ego speeds divided by the number of steps."""
    if trace.steps < 1:
        raise ValueError("average_speed needs at least one step")
    return left_to_right_sum(trace.speeds_mps) / trace.steps


def travel_delay(trace: RolloutTrace) -> float:
    """Elapsed time minus free-flow time, never negative.

    Completed episodes compare against the free-flow time over the distance
    actually covered, so finishing inside the destination tolerance (slightly
    short of the nominal route length) cannot produce a negative delay.
    Collided and timed-out episodes are charged only for the portion traveled;
    callers should check ``trace.reached`` before pooling delays.
    """
    return max(0.0, trace.elapsed_s - trace.traveled_freeflow_s)
