"""Typed key=value run configuration.

Config files are flat ``key = value`` lines with ``#`` comments.  Keys carry
units in their names.  ``spawn`` and ``eval_spawn`` may repeat, one scripted
background vehicle per line: ``spawn = <step> <route> <pos_m> <speed_mps>``.
Unknown keys are rejected so typos fail loudly before any side effect.  Each
other key binds to a field of ``ScenarioConfig``, ``DdpgHyperparams``,
``FederationConfig``, ``EvalTemplate`` or ``EvalProtocol``, which declares its
type and default; every number must be finite.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path

from .ddpg import DdpgHyperparams
from .evaluation import EvalProtocol, EvalTemplate, realize_scenario
from .federation import FederationConfig
from .sim.network import load_network_file
from .sim.world import ScenarioConfig, SpawnError, SpawnSpec, TrafficWorld


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


def _same_names(*keys: str) -> dict[str, str]:
    return {key: key for key in keys}


# Config key -> dataclass field, one table per section.  Each field's type and
# default live in its dataclass; a key that is left out takes that default.
_SCENARIO_KEYS = _same_names(
    "destination_tolerance_m", "step_length_s", "max_steps", "background_count", "master_seed",
    "accel_min_mps2", "accel_max_mps2", "vehicle_length_m", "min_gap_m", "intersection_box_m",
    "bg_accel_mps2", "bg_speed_factor_min", "bg_speed_factor_max",
)
_HP_KEYS = {
    **_same_names(
        "gamma", "tau", "actor_lr", "critic_lr", "batch_size", "actor_hidden", "critic_hidden",
        "ou_mu", "ou_theta", "ou_sigma", "ou_dt",
    ),
    "replay_capacity": "buffer_capacity",
}
_FEDERATION_KEYS = _same_names("agents", "rounds", "episodes_per_round", "optimizer_state")
_TEMPLATE_KEYS = {
    "eval_max_steps": "max_steps",
    "eval_tolerance_m": "destination_tolerance_m",
    "eval_speed_limit_mps": "speed_limit_mps",
    "eval_overrun_m": "overrun_m",
    "eval_background_count": "background_count",
}
_PROTOCOL_KEYS = {"eval_episodes": "episodes", "eval_distances_m": "distances_m"}
# Scenario fields that evaluation owns: the corridor, or an eval_* key.  The
# template inherits every other scenario field, which its eval_* key (if any) overrides.
_EVAL_OWN_FIELDS = {"network", "ego_route", "destination_node", "max_steps", "background_count", "background_spawns"}

_REQUIRED_KEYS = {"network_file", "ego_route", "destination_node"}
_REPEAT_KEYS = {"spawn", "eval_spawn"}
_SINGLE_KEYS = _REQUIRED_KEYS.union(_SCENARIO_KEYS, _HP_KEYS, _FEDERATION_KEYS, _TEMPLATE_KEYS, _PROTOCOL_KEYS)


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
        elif key in _SINGLE_KEYS:
            if key in out:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            out[key] = value
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    return out


def _cast(key: str, text: str, kind: type):
    """``kind(text)``, or a ConfigError naming the key; a float must be finite."""
    try:
        value = kind(text)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"key {key!r}: {text!r} is not a finite number")
    return value


def _build(cls, raw: dict, keys: dict[str, str], **derived):
    """``cls`` from ``derived`` plus the keys present in ``raw``, which take precedence.

    A value is cast to the type of its field's default, element by element for
    a tuple; fields named by neither keep their defaults.  A rejected value's
    error names its config key, not the field the key binds to.
    """
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    for key, name in keys.items():
        if key not in raw:
            continue
        default = defaults[name]
        if isinstance(default, tuple):
            derived[name] = tuple(_cast(key, tok, type(default[0])) for tok in raw[key].split())
        else:
            derived[name] = _cast(key, raw[key], type(default))
    try:
        return cls(**derived)
    except ValueError as exc:
        msg = str(exc)
        for key, name in keys.items():
            if key in raw and key != name:
                msg = re.sub(rf"\b{name}\b", key, msg)
        raise ConfigError(msg) from exc


def _spawns(raw: dict, key: str) -> tuple[SpawnSpec, ...]:
    specs = []
    for entry in raw.get(key, []):
        parts = entry.split()
        if len(parts) not in (4, 5):
            raise ConfigError(
                f"key {key!r}: need '<step> <route> <pos_m> <speed_mps> [<speed_factor>]', got {entry!r}"
            )
        step, route, pos_m, speed_mps, *factor = parts
        fields = {
            "step": _cast(key, step, int),
            "route": route,
            "pos_m": _cast(key, pos_m, float),
            "speed_mps": _cast(key, speed_mps, float),
        }
        if factor:
            fields["speed_factor"] = _cast(key, factor[0], float)
        try:
            specs.append(SpawnSpec(**fields))
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from None
    return tuple(specs)


def _check_world(scenario: ScenarioConfig, key: str, where: str = "") -> None:
    """Build ``scenario``'s world once; a spawn it rejects raises a ConfigError naming ``key``."""
    try:
        TrafficWorld(scenario)
    except SpawnError as exc:
        raise ConfigError(f"key {key!r}{where}: {exc}") from None


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

    CLI overrides are applied before validation, which includes building the
    training world and one evaluation world per distance.  The config hash
    covers the typed values with defaults applied, the parsed road network
    included.
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

    try:
        scenario = _build(
            ScenarioConfig,
            raw,
            _SCENARIO_KEYS,
            network=network,
            ego_route=raw["ego_route"],
            destination_node=raw["destination_node"],
            background_spawns=_spawns(raw, "spawn"),
        )
        hp = _build(
            DdpgHyperparams,
            raw,
            _HP_KEYS,
            accel_min_mps2=scenario.accel_min_mps2,
            accel_max_mps2=scenario.accel_max_mps2,
        )
        federation = _build(
            FederationConfig, raw, _FEDERATION_KEYS, hp=hp, scenarios=(scenario,), master_seed=scenario.master_seed
        )
        template = _build(
            EvalTemplate,
            raw,
            _TEMPLATE_KEYS,
            **{f.name: getattr(scenario, f.name) for f in dataclasses.fields(scenario)
               if f.name not in _EVAL_OWN_FIELDS},
            background_spawns=_spawns(raw, "eval_spawn"),
        )
        eval_protocol = _build(EvalProtocol, raw, _PROTOCOL_KEYS, template=template)
        # the worlds' own checks (routes, nodes, spawn positions), so that no command writes before they pass
        _check_world(scenario, "spawn")
        for distance in eval_protocol.distances_m:
            _check_world(realize_scenario(template, distance), "eval_spawn", f" at eval distance {distance} m")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    # federation.scenarios holds the scenario, road network included
    resolved = {**_field_reprs("federation", federation), **_field_reprs("eval", eval_protocol)}
    return RunConfig(
        scenario=scenario,
        federation=federation,
        eval_protocol=eval_protocol,
        master_seed=scenario.master_seed,
        resolved=resolved,
    )
