"""Frozen-policy evaluation: collision counts, travel delay, and average speed
per destination distance, with CSV/JSON export.

Each requested distance is realized as a straight corridor whose destination
node sits exactly that far from the start, so the straight-line start-to-goal
distance equals the requested value.  The same episode seeds are reused for
every distance and every policy, which makes comparisons between policies
paired rather than independent.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .ddpg import ACTION_DIM, STATE_DIM, policy_action
from .metrics import RolloutTrace, average_speed, run_episode, travel_delay
from .nn import MlpParams
from .seeding import derive_seed
from .sim.network import RoadNetwork, straight_corridor
from .sim.world import EgoObservation, ScenarioConfig, TrafficWorld

Policy = MlpParams | Callable[[np.ndarray], float]


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


def policy_act(policy: Policy, a_min: float, a_max: float) -> Callable[[EgoObservation], float]:
    """The policy as ``run_episode``'s ``act``: observation in, acceleration out."""
    if isinstance(policy, MlpParams):
        return lambda obs: policy_action(policy, obs.as_vector(), a_min, a_max)
    return lambda obs: float(policy(obs.as_vector()))


def rollout(world: TrafficWorld, policy: Policy, episode_seed: int,
            a_min: float, a_max: float) -> RolloutTrace:
    """Greedy episode: no exploration noise, bit-reproducible per seed."""
    return run_episode(world, policy_act(policy, a_min, a_max), episode_seed)


def _memoized(actor: MlpParams, a_min: float, a_max: float) -> Callable[[np.ndarray], float]:
    """``actor``'s greedy action, computed once per distinct observation.

    Keyed on the vector's bytes, so ``-0.0`` and NaN cannot alias another entry.
    """
    actions: dict[bytes, float] = {}

    def act(vec: np.ndarray) -> float:
        key = vec.tobytes()
        action = actions.get(key)
        if action is None:
            action = actions[key] = policy_action(actor, vec, a_min, a_max)
        return action

    return act


def evaluate(policy: Policy, protocol: EvalProtocol, policy_id: str = "policy") -> EvalSummary:
    """Roll out the policy over every (distance, seed) condition and aggregate.

    The observation holds only ego state, so every greedy episode at one
    distance drives the same trajectory until a collision ends it.  An actor's
    action is therefore computed once per distinct observation at a distance;
    a callable policy, which may keep state, is called at every step.
    """
    if isinstance(policy, MlpParams):
        if policy.in_dim != STATE_DIM or policy.out_dim != ACTION_DIM:
            raise ValueError(
                f"actor must map {STATE_DIM} state components to {ACTION_DIM} action, "
                f"got {policy.in_dim}->{policy.out_dim}"
            )
    t = protocol.template
    seeds = protocol.episode_seeds()
    rows = []
    for d_idx, distance in enumerate(protocol.distances_m):
        world = TrafficWorld(realize_scenario(t, distance))
        act = _memoized(policy, t.accel_min_mps2, t.accel_max_mps2) if isinstance(policy, MlpParams) else policy
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


# a JSON value's cast to each annotation of ``DistanceResult``
_FIELD_CASTS = {"int": int, "float": float, "float | None": lambda v: None if v is None else float(v)}


def summaries_from_json(path: str | Path) -> list[EvalSummary]:
    """Rebuild summaries from the JSON mirror (used by the export command).

    A file that is not a list of ``export_json`` rows raises ``ConfigError``
    naming the file and, for a row, its index and the field at fault.
    """
    from .config import ConfigError  # config imports this module

    try:
        payload = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: not a JSON file: {exc}") from None
    if not isinstance(payload, list):
        raise ConfigError(f"{path}: expected a list of rows, got a JSON {type(payload).__name__}")
    names = ("policy_id", *(f.name for f in fields(DistanceResult)))
    by_policy: dict[str, list[DistanceResult]] = {}
    for i, item in enumerate(payload):
        if not isinstance(item, dict):
            raise ConfigError(f"{path}: row {i} is not an object")
        missing = [name for name in names if name not in item]
        if missing:
            raise ConfigError(f"{path}: row {i} lacks {', '.join(missing)}")
        try:
            row = DistanceResult(**{f.name: _FIELD_CASTS[f.type](item[f.name]) for f in fields(DistanceResult)})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: row {i}: {exc}") from None
        by_policy.setdefault(str(item["policy_id"]), []).append(row)
    return [EvalSummary(policy_id=pid, rows=tuple(rows)) for pid, rows in by_policy.items()]


__all__ = [
    "EvalProtocol",
    "EvalSummary",
    "EvalTemplate",
    "DistanceResult",
    "evaluate",
    "export_csv",
    "export_json",
    "policy_act",
    "realize_scenario",
    "rollout",
    "summaries_from_json",
]
