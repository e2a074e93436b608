"""Frozen-policy evaluation: collision counts, travel delay, and average speed
per destination distance, with CSV/JSON export.

Each requested distance is realized as a straight corridor whose destination
node sits exactly that far from the start, so the straight-line start-to-goal
distance equals the requested value.  The same episode seeds are reused for
every distance and every policy, which makes comparisons between policies
paired rather than independent.  Every greedy episode, ``sim-run``'s too, runs
through ``rollout``, where a policy acts through ``greedy_policy`` on each
step's ``EgoObservation`` itself; no step builds an array unless an actor meets
an observation it has not seen.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .ddpg import check_actor_shape, policy_action
from .metrics import RolloutTrace, average_speed, run_episode, travel_delay
from .nn import MlpParams
from .seeding import derive_seed
from .sim.network import RoadNetwork, straight_corridor
from .sim.world import STATE_DIM, EgoObservation, ScenarioConfig, StepOutcome, TrafficWorld, normalize_observation

# an actor, or a function of the raw observation (it may keep state: it is called at every step)
Policy = MlpParams | Callable[[EgoObservation], float]

# an observation's components as native float64, the bytes of ``np.array(obs, np.float64)``
_OBS_BYTES = struct.Struct(f"{STATE_DIM}d").pack


@dataclass(frozen=True)
class EvalTemplate(ScenarioConfig):
    """The scenario shared by all evaluation distances; ``realize_scenario`` fills in its corridor."""

    network: RoadNetwork | None = None
    ego_route: str = field(default="ego", init=False)
    destination_node: str = field(default="dest", init=False)
    # the corridor's own shape
    speed_limit_mps: float = 20.0
    overrun_m: float = 50.0

    def __post_init__(self):
        # checked here, not when evaluate builds a world, so a bad setting fails before any output
        super().__post_init__()
        for name in ("speed_limit_mps", "overrun_m"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class EvalProtocol:
    episodes: int = 20
    distances_m: tuple[float, ...] = (10.0, 20.0, 52.0, 107.0, 207.0)
    template: EvalTemplate = field(default_factory=EvalTemplate)

    def __post_init__(self):
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if not self.distances_m or not all(0.0 < d < math.inf for d in self.distances_m):
            raise ValueError("distances must be positive and finite")

    def episode_seeds(self) -> tuple[int, ...]:
        """One seed per episode, derived from the template's master seed."""
        return tuple(derive_seed(self.template.master_seed, 0xE7A1, e) for e in range(self.episodes))


@dataclass(frozen=True)
class DistanceResult:
    distance_m: float
    episodes: int
    collisions: int
    timeouts: int
    successes: int
    mean_travel_delay_s: float | None  # over successful episodes; None if none succeeded
    mean_avg_speed_mps: float
    success_rate: float


@dataclass(frozen=True)
class EvalSummary:
    policy_id: str
    rows: tuple[DistanceResult, ...]


def realize_scenario(template: EvalTemplate, distance_m: float) -> ScenarioConfig:
    """Corridor scenario with the destination at an exact straight-line distance."""
    return replace(template, network=straight_corridor(distance_m, template.overrun_m, template.speed_limit_mps))


def greedy_policy(policy: Policy, a_min: float, a_max: float) -> Callable[[EgoObservation], float]:
    """The policy as a function of the raw ``EgoObservation``; a callable is returned as it is.

    An actor's shape is checked once, and its actions are memoized on the
    observation's packed float64 bytes, the bytes of ``np.array(obs,
    np.float64)``, so ``-0.0`` and NaN cannot alias another entry; only a miss
    normalises it and calls ``policy_action``.
    """
    if not isinstance(policy, MlpParams):
        return policy
    check_actor_shape(policy)
    actions: dict[bytes, float] = {}

    def act(obs: EgoObservation) -> float:
        action = actions.get(key := _OBS_BYTES(*obs))
        if action is None:
            action = actions[key] = policy_action(policy, normalize_observation(obs), a_min, a_max)
        return action

    return act


def rollout(world: TrafficWorld, policy: Policy, episode_seed: int, a_min: float, a_max: float,
            on_step: Callable[[EgoObservation, float, StepOutcome], None] | None = None) -> RolloutTrace:
    """Greedy episode: no exploration noise, bit-reproducible per seed; ``on_step`` as in ``run_episode``.

    The policy acts through ``greedy_policy`` on each step's ``EgoObservation``.
    """
    return run_episode(world, greedy_policy(policy, a_min, a_max), episode_seed, on_step)


def evaluate(policy: Policy, protocol: EvalProtocol, policy_id: str = "policy") -> EvalSummary:
    """Roll out the policy over every (distance, seed) condition and aggregate.

    The observation holds only ego state, so every greedy episode at one
    distance drives the same trajectory until a collision ends it.  Each
    distance therefore shares one ``greedy_policy`` among its episodes; a
    callable policy, which may keep state, is called at every step.
    """
    t = protocol.template
    seeds = protocol.episode_seeds()
    rows = []
    for d_idx, distance in enumerate(protocol.distances_m):
        act = greedy_policy(policy, t.accel_min_mps2, t.accel_max_mps2)
        world = TrafficWorld(realize_scenario(t, distance))
        traces = [
            rollout(world, act, derive_seed(seeds[e], d_idx), t.accel_min_mps2, t.accel_max_mps2)
            for e in range(protocol.episodes)
        ]
        successes = [tr for tr in traces if tr.reached]
        rows.append(
            DistanceResult(
                distance_m=distance,
                episodes=len(traces),
                collisions=sum(tr.collided for tr in traces),
                timeouts=sum(tr.timed_out for tr in traces),
                successes=len(successes),
                mean_travel_delay_s=(
                    float(np.mean([travel_delay(tr) for tr in successes])) if successes else None
                ),
                mean_avg_speed_mps=float(np.mean([average_speed(tr) for tr in traces])),
                success_rate=len(successes) / len(traces),
            )
        )
    return EvalSummary(policy_id=policy_id, rows=tuple(rows))


CSV_COLUMNS = (
    "policy_id",
    "distance_m",
    "episodes",
    "collisions",
    "mean_travel_delay_s",
    "mean_avg_speed_mps",
    "success_rate",
)


def export_csv(summaries: list[EvalSummary], path: str | Path) -> None:
    """One row per (policy, distance); full-precision floats via repr."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for summary in summaries:
            for row in summary.rows:
                writer.writerow(
                    [
                        summary.policy_id,
                        repr(row.distance_m),
                        row.episodes,
                        row.collisions,
                        "" if row.mean_travel_delay_s is None else repr(row.mean_travel_delay_s),
                        repr(row.mean_avg_speed_mps),
                        repr(row.success_rate),
                    ]
                )


def export_json(summaries: list[EvalSummary], path: str | Path) -> None:
    """JSON mirror of the CSV: its fields plus each row's ``timeouts`` and ``successes``."""
    payload = [{"policy_id": s.policy_id, **asdict(r)} for s in summaries for r in s.rows]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


# per annotation, the JSON values a row field takes; ``type``, not ``isinstance``, so a bool is no number
_JSON_KINDS = {
    "str": ((str,), "a string"),
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "float | None": ((int, float, type(None)), "a number or null"),
}


def summaries_from_json(path: str | Path) -> list[EvalSummary]:
    """Rebuild summaries from the JSON mirror (used by the export command).

    A file that is not a list of ``export_json`` rows of finite numbers, or
    whose row breaks what ``evaluate`` guarantees (counts >= 0 that sum to
    ``episodes`` >= 1, ``success_rate`` equal to ``successes / episodes``, and
    a null delay exactly when nothing succeeded), raises ``ValueError`` naming
    the file and, for a row, its index and the field at fault.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: not a JSON file: {exc}") from None
    if not isinstance(payload, list):
        raise ValueError(f"{path}: expected a list of rows, got a JSON {type(payload).__name__}")
    kinds = {"policy_id": "str", **{f.name: f.type for f in fields(DistanceResult)}}
    by_policy: dict[str, list[DistanceResult]] = {}
    for i, item in enumerate(payload):
        if not isinstance(item, dict):
            raise ValueError(f"{path}: row {i} is not an object")
        missing = [name for name in kinds if name not in item]
        if missing:
            raise ValueError(f"{path}: row {i} lacks {', '.join(missing)}")
        row = {}
        for name, kind in kinds.items():
            types, wanted = _JSON_KINDS[kind]
            value = item[name]
            if type(value) not in types:
                raise ValueError(f"{path}: row {i}: {name} must be {wanted}, got {value!r}")
            try:
                value = float(value) if type(value) is int and kind != "int" else value
            except OverflowError:
                raise ValueError(f"{path}: row {i}: {name} is too large for a float") from None
            if type(value) is float and not math.isfinite(value):  # json reads NaN and Infinity
                raise ValueError(f"{path}: row {i}: {name} must be finite, got {value!r}")
            row[name] = value
        episodes, successes = row["episodes"], row["successes"]
        counts = (row["collisions"], row["timeouts"], successes)
        if episodes < 1 or min(counts) < 0 or sum(counts) != episodes:
            raise ValueError(
                f"{path}: row {i}: collisions, timeouts and successes must be >= 0 and sum to episodes >= 1, "
                f"got {counts} of {episodes}"
            )
        if row["success_rate"] != successes / episodes:
            raise ValueError(
                f"{path}: row {i}: success_rate must be successes / episodes = {successes / episodes!r}, "
                f"got {row['success_rate']!r}"
            )
        if (row["mean_travel_delay_s"] is None) != (successes == 0):
            raise ValueError(
                f"{path}: row {i}: mean_travel_delay_s must be null exactly when successes is 0, "
                f"got {row['mean_travel_delay_s']!r} with {successes} successes"
            )
        by_policy.setdefault(row.pop("policy_id"), []).append(DistanceResult(**row))
    return [EvalSummary(policy_id=pid, rows=tuple(rows)) for pid, rows in by_policy.items()]


__all__ = [
    "EvalProtocol",
    "EvalSummary",
    "EvalTemplate",
    "DistanceResult",
    "evaluate",
    "export_csv",
    "export_json",
    "greedy_policy",
    "realize_scenario",
    "rollout",
    "summaries_from_json",
]
