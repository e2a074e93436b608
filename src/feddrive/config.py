"""Typed key=value run configuration.

Config files are flat ``key = value`` lines with ``#`` comments.  Keys carry
units in their names.  ``spawn`` and ``eval_spawn`` may repeat, one scripted
background vehicle per line: ``spawn = <step> <route> <pos_m> <speed_mps>``.
Unknown keys are rejected so typos fail loudly before any side effect.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from pathlib import Path

from .ddpg import DdpgHyperparams
from .evaluation import EvalProtocol, EvalTemplate
from .federation import OPTIMIZER_RESET, FederationConfig
from .sim.network import load_network_file
from .sim.world import ScenarioConfig, SpawnSpec


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


_SCALAR_KEYS = {
    # scenario
    "network_file": str,
    "ego_route": str,
    "destination_node": str,
    "destination_tolerance_m": float,
    "step_length_s": float,
    "max_steps": int,
    "background_count": int,
    "master_seed": int,
    "accel_min_mps2": float,
    "accel_max_mps2": float,
    "vehicle_length_m": float,
    "min_gap_m": float,
    "intersection_box_m": float,
    "bg_accel_mps2": float,
    "bg_speed_factor_min": float,
    "bg_speed_factor_max": float,
    # federation
    "agents": int,
    "rounds": int,
    "episodes_per_round": int,
    "optimizer_state": str,
    # ddpg
    "gamma": float,
    "tau": float,
    "actor_lr": float,
    "critic_lr": float,
    "batch_size": int,
    "replay_capacity": int,
    "ou_mu": float,
    "ou_theta": float,
    "ou_sigma": float,
    "ou_dt": float,
    # eval
    "eval_episodes": int,
    "eval_max_steps": int,
    "eval_background_count": int,
    "eval_overrun_m": float,
    "eval_speed_limit_mps": float,
    "eval_tolerance_m": float,
}

_LIST_KEYS = {"actor_hidden", "critic_hidden", "eval_distances_m"}
_REPEAT_KEYS = {"spawn", "eval_spawn"}
_REQUIRED_KEYS = {"network_file", "ego_route", "destination_node"}


def parse_config_text(text: str) -> dict[str, object]:
    """Parse to {key: str | list[str]}; repeatable keys accumulate."""
    out: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in _REPEAT_KEYS:
            out.setdefault(key, []).append(value)
        elif key in _SCALAR_KEYS or key in _LIST_KEYS:
            if key in out:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            out[key] = value
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    return out


def _typed(raw: dict, key: str, default):
    if key not in raw:
        return default
    caster = _SCALAR_KEYS[key]
    try:
        return caster(raw[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from None


def _int_list(raw: dict, key: str, default: tuple[int, ...]) -> tuple[int, ...]:
    if key not in raw:
        return default
    try:
        return tuple(int(tok) for tok in str(raw[key]).split())
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from None


def _float_list(raw: dict, key: str, default: tuple[float, ...]) -> tuple[float, ...]:
    if key not in raw:
        return default
    try:
        return tuple(float(tok) for tok in str(raw[key]).split())
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from None


def _spawns(raw: dict, key: str) -> tuple[SpawnSpec, ...]:
    specs = []
    for entry in raw.get(key, []):
        parts = entry.split()
        if len(parts) not in (4, 5):
            raise ConfigError(
                f"key {key!r}: need '<step> <route> <pos_m> <speed_mps> [<speed_factor>]', got {entry!r}"
            )
        try:
            specs.append(
                SpawnSpec(
                    step=int(parts[0]),
                    route=parts[1],
                    pos_m=float(parts[2]),
                    speed_mps=float(parts[3]),
                    speed_factor=float(parts[4]) if len(parts) == 5 else 1.0,
                )
            )
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from None
    return tuple(specs)


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioConfig
    federation: FederationConfig
    eval_protocol: EvalProtocol
    master_seed: int
    resolved: dict[str, str]  # typed field -> repr, defaults applied; hashed for the manifest

    @property
    def config_hash(self) -> str:
        return config_hash(self.resolved)


def config_hash(resolved: dict[str, str]) -> str:
    canonical = "\n".join(f"{k} = {resolved[k]}" for k in sorted(resolved))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _field_reprs(prefix: str, obj) -> dict[str, str]:
    # repr round-trips floats exactly and nests dataclasses, so equal reprs mean equal inputs
    return {f"{prefix}.{f.name}": repr(getattr(obj, f.name)) for f in dataclasses.fields(obj)}


def load_run_config(
    path: str | Path,
    seed: int | None = None,
    rounds: int | None = None,
    agents: int | None = None,
    episodes: int | None = None,
) -> RunConfig:
    """Read, override, validate, and materialize a run configuration.

    CLI overrides are applied before validation.  The config hash covers the
    typed values with defaults applied, the parsed road network included.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw = parse_config_text(path.read_text())
    missing = _REQUIRED_KEYS - raw.keys()
    if missing:
        raise ConfigError(f"missing required keys: {sorted(missing)}")

    if seed is not None:
        raw["master_seed"] = str(seed)
    if rounds is not None:
        raw["rounds"] = str(rounds)
    if agents is not None:
        raw["agents"] = str(agents)
    if episodes is not None:
        raw["episodes_per_round"] = str(episodes)

    network_path = Path(raw["network_file"])
    if not network_path.is_absolute():
        network_path = path.parent / network_path
    if not network_path.is_file():
        raise ConfigError(f"network file not found: {network_path}")
    network = load_network_file(network_path)

    master_seed = _typed(raw, "master_seed", 0)
    try:
        scenario = ScenarioConfig(
            network=network,
            ego_route=str(raw["ego_route"]),
            destination_node=str(raw["destination_node"]),
            destination_tolerance_m=_typed(raw, "destination_tolerance_m", 5.0),
            background_count=_typed(raw, "background_count", 0),
            background_spawns=_spawns(raw, "spawn"),
            step_length_s=_typed(raw, "step_length_s", 1.0),
            max_steps=_typed(raw, "max_steps", 900),
            master_seed=master_seed,
            accel_min_mps2=_typed(raw, "accel_min_mps2", -4.5),
            accel_max_mps2=_typed(raw, "accel_max_mps2", 2.6),
            vehicle_length_m=_typed(raw, "vehicle_length_m", 5.0),
            min_gap_m=_typed(raw, "min_gap_m", 2.5),
            intersection_box_m=_typed(raw, "intersection_box_m", 5.0),
            bg_accel_mps2=_typed(raw, "bg_accel_mps2", 2.6),
            bg_speed_factor_min=_typed(raw, "bg_speed_factor_min", 0.8),
            bg_speed_factor_max=_typed(raw, "bg_speed_factor_max", 1.0),
        )
        hp = DdpgHyperparams(
            gamma=_typed(raw, "gamma", 0.99),
            tau=_typed(raw, "tau", 0.005),
            actor_lr=_typed(raw, "actor_lr", 5e-4),
            critic_lr=_typed(raw, "critic_lr", 5e-4),
            batch_size=_typed(raw, "batch_size", 64),
            buffer_capacity=_typed(raw, "replay_capacity", 50_000),
            accel_min_mps2=scenario.accel_min_mps2,
            accel_max_mps2=scenario.accel_max_mps2,
            actor_hidden=_int_list(raw, "actor_hidden", (400, 300)),
            critic_hidden=_int_list(raw, "critic_hidden", (400, 300)),
            ou_mu=_typed(raw, "ou_mu", 0.0),
            ou_theta=_typed(raw, "ou_theta", 0.15),
            ou_sigma=_typed(raw, "ou_sigma", 0.2),
            ou_dt=_typed(raw, "ou_dt", 1.0),
        )
        federation = FederationConfig(
            agents=_typed(raw, "agents", 10),
            rounds=_typed(raw, "rounds", 5),
            episodes_per_round=_typed(raw, "episodes_per_round", 100),
            hp=hp,
            scenarios=(scenario,),
            master_seed=master_seed,
            optimizer_state=_typed(raw, "optimizer_state", OPTIMIZER_RESET),  # FederationConfig validates it
        )
        template = EvalTemplate(
            step_length_s=scenario.step_length_s,
            max_steps=_typed(raw, "eval_max_steps", 900),
            destination_tolerance_m=_typed(raw, "eval_tolerance_m", scenario.destination_tolerance_m),
            speed_limit_mps=_typed(raw, "eval_speed_limit_mps", 20.0),
            overrun_m=_typed(raw, "eval_overrun_m", 50.0),
            background_count=_typed(raw, "eval_background_count", 0),
            background_spawns=_spawns(raw, "eval_spawn"),
            accel_min_mps2=scenario.accel_min_mps2,
            accel_max_mps2=scenario.accel_max_mps2,
            bg_speed_factor_min=scenario.bg_speed_factor_min,
            bg_speed_factor_max=scenario.bg_speed_factor_max,
            master_seed=master_seed,
        )
        eval_protocol = EvalProtocol(
            episodes=_typed(raw, "eval_episodes", 20),
            distances_m=_float_list(raw, "eval_distances_m", (10.0, 20.0, 52.0, 107.0, 207.0)),
            template=template,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    # federation.scenarios holds the scenario, road network included
    resolved = {**_field_reprs("federation", federation), **_field_reprs("eval", eval_protocol)}
    return RunConfig(
        scenario=scenario,
        federation=federation,
        eval_protocol=eval_protocol,
        master_seed=master_seed,
        resolved=resolved,
    )
