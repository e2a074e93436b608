import csv
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from feddrive.cli import build_parser, main
from feddrive import config
from feddrive.config import ConfigError, load_run_config, parse_config_text
from feddrive.ddpg import DdpgHyperparams
from feddrive.evaluation import EvalProtocol, EvalTemplate, realize_scenario
from feddrive.federation import FederationConfig
from feddrive.sim.network import Edge
from feddrive.sim.world import ScenarioConfig, SpawnSpec
from tests.conftest import NETS, REPO


def write_config(tmp_path, name="run.cfg", **overrides):
    values = {
        "network_file": str(NETS / "single_road.net"),
        "ego_route": "main",
        "destination_node": "b",
        "max_steps": "25",
        "background_count": "0",
        "master_seed": "1",
        "agents": "1",
        "rounds": "1",
        "episodes_per_round": "2",
        "actor_hidden": "8 8",
        "critic_hidden": "8 8",
        "batch_size": "8",
        "replay_capacity": "500",
        "eval_episodes": "2",
        "eval_max_steps": "25",
        "eval_distances_m": "10 20",
    }
    values.update(overrides)
    extra_lines = values.pop("_extra", [])
    path = tmp_path / name
    lines = [f"{k} = {v}" for k, v in values.items() if v is not None]
    path.write_text("\n".join(lines + extra_lines) + "\n")
    return path


# -------------------------------------------------------------------- config


def test_parse_config_basics():
    raw = parse_config_text("# hi\nagents = 3\nspawn = 0 main 5 0\nspawn = 1 main 9 2\n")
    assert raw["agents"] == "3"
    assert raw["spawn"] == ["0 main 5 0", "1 main 9 2"]


@pytest.mark.parametrize(
    "text,match",
    [
        ("agents = 1\nagents = 2", "duplicate"),
        ("wibble = 3", "unknown key"),
        ("agents 3", "key = value"),
        ("agents =", "empty"),
    ],
)
def test_parse_config_errors(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config_text(text)


def test_load_run_config_defaults(tmp_path):
    cfg = load_run_config(write_config(tmp_path))
    assert cfg.federation.agents == 1
    assert cfg.federation.hp.gamma == 0.99
    assert cfg.federation.hp.actor_lr == 5e-4
    assert cfg.federation.hp.batch_size == 8
    assert cfg.scenario.max_steps == 25
    assert cfg.eval_protocol.distances_m == (10.0, 20.0)


def test_table_defaults_without_overrides(tmp_path):
    path = write_config(
        tmp_path,
        actor_hidden=None,
        critic_hidden=None,
        batch_size=None,
        replay_capacity=None,
        agents=None,
        rounds=None,
        episodes_per_round=None,
        eval_episodes=None,
        eval_distances_m=None,
    )
    cfg = load_run_config(path)
    hp = cfg.federation.hp
    assert (hp.actor_lr, hp.critic_lr) == (5e-4, 5e-4)
    assert hp.batch_size == 64
    assert hp.gamma == 0.99
    assert hp.buffer_capacity == 50_000
    assert hp.actor_hidden == (400, 300)
    assert (cfg.federation.agents, cfg.federation.rounds, cfg.federation.episodes_per_round) == (10, 5, 100)
    assert cfg.eval_protocol.episodes == 20
    assert cfg.eval_protocol.distances_m == (10.0, 20.0, 52.0, 107.0, 207.0)


def test_missing_network_file(tmp_path):
    path = write_config(tmp_path, network_file="nets/nowhere.net")
    with pytest.raises(ConfigError, match="nowhere.net"):
        load_run_config(path)


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="config file not found: .*nowhere.cfg"):
        load_run_config(tmp_path / "nowhere.cfg")


@pytest.mark.parametrize(
    "key,value,match",
    [
        ("gamma", "abc", "key 'gamma': could not convert string to float: 'abc'"),
        ("batch_size", "8.5", "key 'batch_size': invalid literal for int"),
        ("spawn", "0 main 30", r"key 'spawn': need '<step> <route> <pos_m> <speed_mps> \[<speed_factor>\]', got"),
        ("eval_spawn", "0 through 25 0 1 7", "key 'eval_spawn': need .*, got '0 through 25 0 1 7'"),
    ],
)
def test_malformed_value_names_its_key(tmp_path, key, value, match):
    with pytest.raises(ConfigError, match=match):
        load_run_config(write_config(tmp_path, **{key: value}))


def test_missing_required_key(tmp_path):
    path = write_config(tmp_path, ego_route=None)
    with pytest.raises(ConfigError, match="ego_route"):
        load_run_config(path)


def test_invalid_hyperparameters_rejected(tmp_path):
    with pytest.raises(ConfigError, match="gamma"):
        load_run_config(write_config(tmp_path, gamma="1.5"))
    with pytest.raises(ConfigError, match="rates"):
        load_run_config(write_config(tmp_path, actor_lr="0"))
    with pytest.raises(ConfigError, match="optimizer_state"):
        load_run_config(write_config(tmp_path, optimizer_state="sometimes"))


def test_overrides_change_hash(tmp_path):
    path = write_config(tmp_path)
    base = load_run_config(path)
    again = load_run_config(path)
    assert base.config_hash == again.config_hash
    seeded = load_run_config(path, seed=99)
    assert seeded.config_hash != base.config_hash
    assert seeded.master_seed == 99
    assert seeded.scenario.master_seed == 99
    assert load_run_config(path, rounds=3).federation.rounds == 3


def test_execution_mode_is_not_an_option(tmp_path):
    # agents always train serially, so nothing about execution enters the hash
    cfg = load_run_config(write_config(tmp_path))
    assert not any("serial" in key or "parallel" in key for key in cfg.resolved)
    with pytest.raises(SystemExit):
        build_parser().parse_args(["train", "--config", "c", "--out", "o", "--serial"])


def test_hash_follows_network_content_not_path(tmp_path):
    text = (NETS / "single_road.net").read_text()
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "a" / "road.net").write_text(text)
    (tmp_path / "b" / "other.net").write_text("# same road, another name\n" + text)
    first = load_run_config(write_config(tmp_path, network_file="a/road.net"))
    moved = load_run_config(write_config(tmp_path, network_file="b/other.net"))
    assert moved.config_hash == first.config_hash

    (tmp_path / "a" / "road.net").write_text(text.replace("b 400 0", "b 390 0").replace("ab a b 400", "ab a b 390"))
    edited = load_run_config(write_config(tmp_path, network_file="a/road.net"))
    assert edited.scenario.network.edges["ab"].length_m == 390.0
    assert edited.config_hash != first.config_hash


def test_hash_covers_typed_values_with_defaults(tmp_path):
    omitted = load_run_config(write_config(tmp_path, tau=None)).config_hash
    assert load_run_config(write_config(tmp_path, tau="0.005")).config_hash == omitted
    assert load_run_config(write_config(tmp_path, tau="5e-3")).config_hash == omitted
    assert load_run_config(write_config(tmp_path, tau="0.01")).config_hash != omitted


def test_spawn_lines_parsed(tmp_path):
    path = write_config(tmp_path, _extra=["spawn = 0 main 30 0 0", "spawn = 2 main 60 5"])
    cfg = load_run_config(path)
    spawns = cfg.scenario.background_spawns
    assert len(spawns) == 2
    assert spawns[0].speed_factor == 0.0
    assert spawns[1].pos_m == 60.0


def test_eval_spawn_lines_feed_the_template(tmp_path):
    path = write_config(tmp_path, _extra=["eval_spawn = 0 through 25 0 0"])
    cfg = load_run_config(path)
    (spawn,) = cfg.eval_protocol.template.background_spawns
    assert (spawn.route, spawn.pos_m, spawn.speed_factor) == ("through", 25.0, 0.0)


# A second route and a second destination, so ego_route and destination_node
# have somewhere else to point.
TWO_ROUTE_NET = """
node a 0 0
node b 400 0
node c 400 2
edge ab a b 400 20 1
route main ab
route alt ab
"""

# Every accepted key -> (a value unlike write_config's and the default, where it lands, its typed value)
KEY_CASES = {
    "network_file": (str(NETS / "long_road.net"), lambda c: c.scenario.network.edges["ab"], Edge("ab", "a", "b", 1500.0, 20.0, 1)),
    "ego_route": ("alt", lambda c: c.scenario.ego_route, "alt"),
    "destination_node": ("c", lambda c: c.scenario.destination_node, "c"),
    "destination_tolerance_m": ("4.5", lambda c: c.scenario.destination_tolerance_m, 4.5),
    "step_length_s": ("0.5", lambda c: c.scenario.step_length_s, 0.5),
    "max_steps": ("77", lambda c: c.scenario.max_steps, 77),
    "background_count": ("1", lambda c: c.scenario.background_count, 1),
    "master_seed": ("42", lambda c: c.scenario.master_seed, 42),
    "accel_min_mps2": ("-3.5", lambda c: c.scenario.accel_min_mps2, -3.5),
    "accel_max_mps2": ("2.25", lambda c: c.scenario.accel_max_mps2, 2.25),
    "vehicle_length_m": ("4.25", lambda c: c.scenario.vehicle_length_m, 4.25),
    "min_gap_m": ("1.75", lambda c: c.scenario.min_gap_m, 1.75),
    "intersection_box_m": ("6.5", lambda c: c.scenario.intersection_box_m, 6.5),
    "bg_accel_mps2": ("1.25", lambda c: c.scenario.bg_accel_mps2, 1.25),
    "bg_speed_factor_min": ("0.5", lambda c: c.scenario.bg_speed_factor_min, 0.5),
    "bg_speed_factor_max": ("0.9", lambda c: c.scenario.bg_speed_factor_max, 0.9),
    "spawn": ("0 main 30 1.5 0.5", lambda c: c.scenario.background_spawns, (SpawnSpec(0, "main", 30.0, 1.5, speed_factor=0.5),)),
    "agents": ("3", lambda c: c.federation.agents, 3),
    "rounds": ("2", lambda c: c.federation.rounds, 2),
    "episodes_per_round": ("4", lambda c: c.federation.episodes_per_round, 4),
    "optimizer_state": ("keep-local", lambda c: c.federation.optimizer_state, "keep-local"),
    "gamma": ("0.95", lambda c: c.federation.hp.gamma, 0.95),
    "tau": ("0.0125", lambda c: c.federation.hp.tau, 0.0125),
    "actor_lr": ("1e-3", lambda c: c.federation.hp.actor_lr, 1e-3),
    "critic_lr": ("2e-3", lambda c: c.federation.hp.critic_lr, 2e-3),
    "batch_size": ("16", lambda c: c.federation.hp.batch_size, 16),
    "replay_capacity": ("999", lambda c: c.federation.hp.buffer_capacity, 999),
    "actor_hidden": ("12 7", lambda c: c.federation.hp.actor_hidden, (12, 7)),
    "critic_hidden": ("9 5 3", lambda c: c.federation.hp.critic_hidden, (9, 5, 3)),
    "ou_mu": ("0.125", lambda c: c.federation.hp.ou_mu, 0.125),
    "ou_theta": ("0.25", lambda c: c.federation.hp.ou_theta, 0.25),
    "ou_sigma": ("0.375", lambda c: c.federation.hp.ou_sigma, 0.375),
    "ou_dt": ("0.5", lambda c: c.federation.hp.ou_dt, 0.5),
    "eval_episodes": ("3", lambda c: c.eval_protocol.episodes, 3),
    "eval_distances_m": ("15 33.5", lambda c: c.eval_protocol.distances_m, (15.0, 33.5)),
    "eval_max_steps": ("66", lambda c: c.eval_protocol.template.max_steps, 66),
    "eval_background_count": ("1", lambda c: c.eval_protocol.template.background_count, 1),
    "eval_overrun_m": ("35.5", lambda c: c.eval_protocol.template.overrun_m, 35.5),
    "eval_speed_limit_mps": ("13.5", lambda c: c.eval_protocol.template.speed_limit_mps, 13.5),
    "eval_tolerance_m": ("3.25", lambda c: c.eval_protocol.template.destination_tolerance_m, 3.25),
    "eval_spawn": ("1 through 25 0 0", lambda c: c.eval_protocol.template.background_spawns, (SpawnSpec(1, "through", 25.0, 0.0, speed_factor=0.0),)),
}

FLOAT_KEYS = sorted(key for key, (_, _, typed) in KEY_CASES.items() if isinstance(typed, float))


def test_key_cases_cover_every_accepted_key():
    assert len(KEY_CASES) == 41
    assert set(KEY_CASES) == config._SINGLE_KEYS | config._REPEAT_KEYS
    raw = parse_config_text("\n".join(f"{key} = {text}" for key, (text, _, _) in KEY_CASES.items()))
    assert set(raw) == set(KEY_CASES)


@pytest.mark.parametrize("key", sorted(KEY_CASES))
def test_each_key_lands_in_its_field(tmp_path, key):
    (tmp_path / "two_route.net").write_text(TWO_ROUTE_NET)
    text, field, typed = KEY_CASES[key]
    base = load_run_config(write_config(tmp_path, "base.cfg", network_file="two_route.net"))
    cfg = load_run_config(write_config(tmp_path, **{"network_file": "two_route.net", key: text}))
    assert repr(field(base)) != repr(typed)  # the case really sets something
    assert repr(field(cfg)) == repr(typed)  # repr tells 77 from 77.0
    assert cfg.config_hash != base.config_hash


def test_eval_template_and_hyperparameters_follow_the_scenario(tmp_path):
    values = {"destination_tolerance_m": "4.5", "step_length_s": "0.5", "master_seed": "42"}
    values.update(accel_min_mps2="-3.5", accel_max_mps2="2.25", bg_speed_factor_min="0.5", bg_speed_factor_max="0.75")
    values.update(vehicle_length_m="3", min_gap_m="1", intersection_box_m="2", bg_accel_mps2="1.5")
    cfg = load_run_config(write_config(tmp_path, **values))
    sc, t, hp = cfg.scenario, cfg.eval_protocol.template, cfg.federation.hp
    assert t.destination_tolerance_m == sc.destination_tolerance_m == 4.5  # no eval_tolerance_m given
    assert (t.step_length_s, t.master_seed, cfg.federation.master_seed, cfg.master_seed) == (0.5, 42, 42, 42)
    assert (t.accel_min_mps2, t.accel_max_mps2, hp.accel_min_mps2, hp.accel_max_mps2) == (-3.5, 2.25, -3.5, 2.25)
    assert (t.bg_speed_factor_min, t.bg_speed_factor_max) == (0.5, 0.75)
    # the physics keys reach the scenario evaluation actually drives
    run = realize_scenario(t, 52.0)
    assert (run.vehicle_length_m, run.min_gap_m, run.intersection_box_m, run.bg_accel_mps2) == (3.0, 1.0, 2.0, 1.5)
    assert (run.step_length_s, run.destination_tolerance_m, run.master_seed) == (0.5, 4.5, 42)


# Fields that load_run_config fills from other settings rather than from a key of their own.
DERIVED_FIELDS = {
    ScenarioConfig: {"network", "ego_route", "destination_node", "background_spawns"},
    DdpgHyperparams: {"accel_min_mps2", "accel_max_mps2"},
    # a config file gives one shared scenario; one per agent (heterogeneous agents) comes only from Python
    FederationConfig: {"hp", "scenarios", "master_seed"},
    # copied from the scenario, except the spawns (from eval_spawn) and the corridor (realize_scenario)
    EvalTemplate: {
        "step_length_s", "destination_tolerance_m", "master_seed", "accel_min_mps2", "accel_max_mps2",
        "vehicle_length_m", "min_gap_m", "intersection_box_m", "bg_accel_mps2", "bg_speed_factor_min",
        "bg_speed_factor_max", "background_spawns", "network",
    },
    EvalProtocol: {"template"},
    SpawnSpec: {"step", "route", "pos_m", "speed_mps", "speed_factor"},  # the fields of a spawn line
}
# Hashed fields that only Python callers set, and why each stays.
PYTHON_ONLY_FIELDS: dict[type, set[str]] = {}


def test_every_hashed_field_has_a_source():
    """A hashed setting that no config key binds and load_run_config does not derive should be a constant."""
    bound = {
        ScenarioConfig: config._SCENARIO_KEYS,
        DdpgHyperparams: config._HP_KEYS,
        FederationConfig: config._FEDERATION_KEYS,
        EvalTemplate: config._TEMPLATE_KEYS,
        EvalProtocol: config._PROTOCOL_KEYS,
        SpawnSpec: {},
    }
    for cls, keys in bound.items():
        names = {f.name for f in dataclasses.fields(cls) if f.init}  # init=False fields are not settings
        sources = set(keys.values()) | DERIVED_FIELDS[cls] | PYTHON_ONLY_FIELDS.get(cls, set())
        assert names - sources == set(), f"{cls.__name__} fields with no source"
        assert sources <= names, f"{cls.__name__} lists fields it does not have"


# where the number sits in keys that hold more than one
NUMBER_SLOTS = {"eval_distances_m": "10 {}", "spawn": "0 main {} 0", "eval_spawn": "0 through 25 {}"}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", [*FLOAT_KEYS, *NUMBER_SLOTS])
def test_non_finite_values_rejected_naming_the_key(tmp_path, key, value):
    text = NUMBER_SLOTS.get(key, "{}").format(value)
    with pytest.raises(ConfigError, match=f"'{key}'.*not a finite number"):
        load_run_config(write_config(tmp_path, **{key: text}))


# ----------------------------------------------------------------------- cli


def test_cli_train_smoke(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "round_0.ckpt").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["agents"] == 1
    assert isinstance(manifest["blas_kernel"], str) and manifest["blas_kernel"]
    report_lines = (out / "round_reports.csv").read_text().strip().splitlines()
    assert len(report_lines) == 2  # header + one (round, agent) row


def test_cli_train_rerun_identical(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["train", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out2)]) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["config_hash"] == m2["config_hash"]
    assert (out1 / "round_0.ckpt").read_bytes() == (out2 / "round_0.ckpt").read_bytes()


def test_cli_train_missing_network_fails(tmp_path):
    cfg = write_config(tmp_path, network_file="missing.net")
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) != 0
    assert not out.exists()  # validation failed before any side effect


@pytest.mark.parametrize("key,value", [("destination_tolerance_m", "inf"), ("actor_lr", "nan")])
def test_cli_train_non_finite_setting_fails_before_writing(tmp_path, key, value):
    cfg = write_config(tmp_path, **{key: value})
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("actor_hidden", "0 32"), ("critic_hidden", "16 -4")])
def test_cli_train_hidden_width_below_one_fails_before_writing(tmp_path, caplog, key, value):
    cfg = write_config(tmp_path, **{key: value})
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"{key} widths must be >= 1" in caplog.text


@pytest.mark.parametrize(
    "key,value",
    [("vehicle_length_m", "-5"), ("min_gap_m", "-100"), ("bg_accel_mps2", "-1"), ("intersection_box_m", "-3")],
)
def test_cli_train_bad_physics_setting_fails_before_writing(tmp_path, key, value):
    cfg = write_config(tmp_path, **{key: value})
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "key,line,name",
    [
        ("spawn", "-1 main 30 0", "step"),
        ("spawn", "0 main -5 0", "pos_m"),
        ("eval_spawn", "0 through 25 -1", "speed_mps"),
        ("eval_spawn", "0 through 25 0 -0.5", "speed_factor"),
    ],
)
def test_cli_train_negative_spawn_number_fails_before_writing(tmp_path, key, line, name):
    cfg = write_config(tmp_path, **{key: line})
    with pytest.raises(ConfigError, match=f"key '{key}': {name} must be >= 0 and finite"):
        load_run_config(cfg)
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "sim-run"])
def test_cli_spawn_past_its_route_end_fails_before_writing(tmp_path, caplog, command):
    cfg = write_config(tmp_path, spawn="0 main 5000 0")  # single_road.net's route "main" is 400 m long
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert "key 'spawn': spawn at 5000.0 m on route 'main' lies past the route's end" in caplog.text


def test_cli_eval_spawn_past_its_route_end_fails_before_writing(tmp_path, caplog):
    ckpt = tmp_path / "train" / "round_0.ckpt"
    assert main(["train", "--config", str(write_config(tmp_path)), "--out", str(ckpt.parent)]) == 0
    cfg = write_config(tmp_path, name="bad.cfg", eval_spawn="0 through 5000 0")
    out = tmp_path / "eval"
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt), "--out", str(out)]) == 2
    assert not out.exists()
    # the corridor's "through" route is the distance plus the 50 m overrun
    assert "key 'eval_spawn' at eval distance 10.0 m: spawn at 5000.0 m on route 'through'" in caplog.text
    assert "(60.0 m long)" in caplog.text


def test_unknown_ego_route_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="unknown ego route 'nope'"):
        load_run_config(write_config(tmp_path, ego_route="nope"))


@pytest.mark.parametrize("capacity", ["4", "0"])
def test_cli_train_replay_capacity_must_hold_a_batch(tmp_path, caplog, capacity):
    cfg = write_config(tmp_path, batch_size="8", replay_capacity=capacity)
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert "replay_capacity" in caplog.text


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_cli_train_master_seed_outside_64_bits_fails_before_writing(tmp_path, caplog, seed):
    # seeds are derived mod 2**64, so -1 would train like 2**64 - 1 under another config hash
    out = tmp_path / "out"
    assert main(["train", "--config", str(write_config(tmp_path)), "--out", str(out), "--seed", seed]) == 2
    assert not out.exists()
    assert f"master_seed must lie in [0, 2**64), got {seed}" in caplog.text


@pytest.mark.parametrize(
    "config_of", [lambda sc: sc, lambda sc: FederationConfig(scenarios=(sc,))], ids=["scenario", "federation"]
)
def test_each_config_checks_the_master_seed_range(tmp_path, config_of):
    base = config_of(load_run_config(write_config(tmp_path)).scenario)
    for seed in (0, 2**64 - 1):
        assert dataclasses.replace(base, master_seed=seed).master_seed == seed
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"master_seed must lie in \[0, 2\*\*64\)"):
            dataclasses.replace(base, master_seed=seed)


def test_cli_train_overrides(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = main(
        ["train", "--config", str(cfg), "--out", str(out), "--rounds", "2", "--episodes", "1"]
    )
    assert code == 0
    assert (out / "round_1.ckpt").is_file()


def test_cli_eval(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    main(["train", "--config", str(cfg), "--out", str(out)])
    eval_out = tmp_path / "eval"
    code = main(
        [
            "eval",
            "--config",
            str(cfg),
            "--checkpoint",
            str(out / "round_0.ckpt"),
            "--out",
            str(eval_out),
            "--policy-id",
            "global",
        ]
    )
    assert code == 0
    with open(eval_out / "eval_summary.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [float(r["distance_m"]) for r in rows] == [10.0, 20.0]
    assert all(r["policy_id"] == "global" for r in rows)
    assert all(int(r["episodes"]) == 2 for r in rows)
    # noise-free evaluation is repeatable byte for byte
    first = (eval_out / "eval_summary.csv").read_bytes()
    main(["eval", "--config", str(cfg), "--checkpoint", str(out / "round_0.ckpt"), "--out", str(eval_out), "--policy-id", "global"])
    assert (eval_out / "eval_summary.csv").read_bytes() == first


def test_cli_eval_bad_setting_fails_before_writing(tmp_path):
    cfg = write_config(tmp_path)
    ckpt = tmp_path / "train" / "round_0.ckpt"
    assert main(["train", "--config", str(cfg), "--out", str(ckpt.parent)]) == 0
    for key, value in [("eval_overrun_m", "-5"), ("eval_max_steps", "0")]:
        bad = write_config(tmp_path, name=f"{key}.cfg", **{key: value})
        out = tmp_path / key
        assert main(["eval", "--config", str(bad), "--checkpoint", str(ckpt), "--out", str(out)]) == 2
        assert not out.exists()


def test_cli_background_count_past_the_roads_capacity_fails_before_writing(tmp_path, caplog):
    # at 7.5 m front to front, single_road.net's 400 m edge holds 53 beside the ego, the 10 m eval corridor 8
    ckpt = tmp_path / "train" / "round_0.ckpt"
    assert main(["train", "--config", str(write_config(tmp_path)), "--out", str(ckpt.parent)]) == 0
    for command, key, named in [
        (["train"], "background_count", "key 'background_count': background_count 100 exceeds the 53"),
        (["eval", "--checkpoint", str(ckpt)], "eval_background_count", "key 'eval_background_count' at eval distance 10"),
    ]:
        caplog.clear()
        cfg = write_config(tmp_path, name=f"{key}.cfg", **{key: "100"})
        out = tmp_path / key
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
        assert named in caplog.text
        assert not out.exists()


@pytest.mark.parametrize(
    "key,value",
    [("eval_max_steps", "0"), ("eval_tolerance_m", "0"), ("eval_speed_limit_mps", "-1"), ("eval_overrun_m", "-5")],
)
def test_eval_setting_error_names_the_config_key(tmp_path, key, value):
    with pytest.raises(ConfigError, match=rf"\b{key}\b"):
        load_run_config(write_config(tmp_path, **{key: value}))


def test_cli_eval_missing_checkpoint(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(tmp_path / "no.ckpt"), "--out", str(tmp_path / "e")]) == 2
    assert not (tmp_path / "e").exists()


def test_cli_eval_architecture_mismatch(tmp_path):
    from feddrive import nn
    from feddrive.container import save_container

    cfg = write_config(tmp_path)
    bad = tmp_path / "bad.ckpt"
    actor = nn.init_params([5, 4, 1], ["relu", "tanh"], seed=0)
    arrays = {"actor_params": actor.flat, "critic_params": actor.flat, "agent_episodes": np.zeros(1, dtype=np.int64)}
    net = {"layer_sizes": [5, 4, 1], "activations": ["relu", "tanh"]}  # a well-formed record for both nets
    meta = {"kind": "global_round", "actor_net": net, "critic_net": net, "round_idx": 0}
    save_container(bad, arrays, meta)
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(bad), "--out", str(tmp_path / "e")]) != 0


def test_cli_inspect_default_architecture(tmp_path, capsys):
    from feddrive.ddpg import DdpgHyperparams
    from feddrive.federation import init_global_model, save_round_checkpoint

    path = save_round_checkpoint(tmp_path, init_global_model(DdpgHyperparams(), master_seed=0), [], round_idx=0, config_hash="")
    assert main(["inspect", str(path)]) == 0
    out = capsys.readouterr().out
    assert "[6, 400, 300, 1]" in out
    assert "123401 parameters" in out


def test_cli_inspect_round_checkpoint(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    main(["train", "--config", str(cfg), "--out", str(out), "--rounds", "4"])
    assert main(["inspect", str(out / "round_3.ckpt")]) == 0
    printed = capsys.readouterr().out
    assert "round index: 3" in printed
    assert "config hash:" in printed


def test_cli_inspect_missing_checkpoint_exits_2(tmp_path, caplog):
    assert main(["inspect", str(tmp_path / "no.ckpt")]) == 2
    assert "checkpoint not found" in caplog.text and "no.ckpt" in caplog.text


@pytest.mark.parametrize("name", ["basic_format", "nonsense"])
def test_cli_log_setting_that_names_no_level_means_info(tmp_path, name):
    # a fresh process: under pytest the root logger has handlers, so basicConfig ignores its level there
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "FEDDRIVE_LOG": name, "PYTHONPATH": pythonpath}
    argv = [sys.executable, "-m", "feddrive.cli", "inspect", str(tmp_path / "x.ckpt")]
    result = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr and "checkpoint not found" in result.stderr


def test_cli_inspect_truncated(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    main(["train", "--config", str(cfg), "--out", str(out)])
    ckpt = out / "round_0.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[:60])
    assert main(["inspect", str(ckpt)]) != 0


def test_cli_malformed_round_checkpoint_exits_2(tmp_path, caplog):
    import struct

    from feddrive.container import load_container, save_container

    cfg = write_config(tmp_path)
    main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
    arrays, meta = load_container(tmp_path / "out" / "round_0.ckpt")
    del meta["actor_net"]
    no_actor = tmp_path / "no_actor.ckpt"
    save_container(no_actor, arrays, meta)
    no_arrays = tmp_path / "no_arrays.ckpt"
    header = json.dumps({"format_version": 1, "meta": {"kind": "global_round"}}).encode()
    no_arrays.write_bytes(b"FDCKPT1\n" + struct.pack("<I", len(header)) + header)
    other_kind = tmp_path / "other_kind.ckpt"
    save_container(other_kind, arrays, {**meta, "kind": "local_round"})
    cases = [(no_actor, "actor_net"), (no_arrays, "arrays"), (other_kind, "unknown checkpoint kind 'local_round'")]
    for ckpt, field in cases:
        caplog.clear()
        assert main(["inspect", str(ckpt)]) == 2
        assert field in caplog.text
        out = tmp_path / f"eval_{ckpt.stem}"
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt), "--out", str(out)]) == 2
        assert not out.exists()


def test_cli_actor_of_wrong_shape_fails_before_writing(tmp_path, caplog):
    from feddrive import nn
    from feddrive.container import save_container

    cfg = write_config(tmp_path)
    bad = tmp_path / "bad.ckpt"
    actor = nn.init_params([5, 4, 1], ["relu", "tanh"], seed=0)
    arrays = {"actor_params": actor.flat, "critic_params": actor.flat, "agent_episodes": np.ones(1, dtype=np.int64)}
    net = {"layer_sizes": [5, 4, 1], "activations": ["relu", "tanh"]}  # a well-formed record for both nets
    meta = {"kind": "global_round", "actor_net": net, "critic_net": net, "round_idx": 0}
    save_container(bad, arrays, meta)
    for command in (["eval", "--config", str(cfg)], ["sim-run", "--config", str(cfg)]):
        caplog.clear()
        out = tmp_path / command[0]
        assert main([*command, "--checkpoint", str(bad), "--out", str(out)]) == 2
        assert "actor must map 6 state components to 1 action, got 5->1" in caplog.text
        assert not out.exists()


@pytest.mark.parametrize(
    "net, fault",
    [
        ("actor_net", {"layer_sizes": None}),
        ("actor_net", {"layer_sizes": ["6", "8", "1"]}),
        ("actor_net", {"layer_sizes": 6}),
        ("actor_net", {"activations": "relu"}),
        ("critic_net", {"activations": None}),
        ("critic_net", {"layer_sizes": [7, 8.5, 1]}),
    ],
)
def test_cli_round_checkpoint_net_meta_is_checked(tmp_path, caplog, net, fault):
    from feddrive.container import load_container, save_container

    cfg = write_config(tmp_path)
    main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
    arrays, meta = load_container(tmp_path / "out" / "round_0.ckpt")
    for key, value in fault.items():
        if value is None:
            del meta[net][key]
        else:
            meta[net][key] = value
    ckpt = tmp_path / "bad_meta.ckpt"
    save_container(ckpt, arrays, meta)
    caplog.clear()
    assert main(["inspect", str(ckpt)]) == 2
    assert f"{net} needs a list of int layer_sizes" in caplog.text
    out = tmp_path / "eval"
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "fault, message",
    [
        (lambda arrays, meta: meta["actor_net"].update(layer_sizes=[6]), "actor_net: need at least 2 layer sizes"),
        (lambda arrays, meta: meta["critic_net"].update(layer_sizes=[7, 8, -3, 1]), "critic_net: layer sizes must be >= 1"),
        (lambda arrays, meta: meta["actor_net"].update(activations=["gelu", "relu", "tanh"]), "activation 'gelu'"),
        (lambda arrays, meta: arrays.update(actor_params=arrays["actor_params"][:-1]), "actor_params has shape (136,)"),
        (lambda arrays, meta: arrays["actor_params"].__setitem__(5, np.nan), "actor_params holds a non-finite value"),
        (lambda arrays, meta: arrays["actor_params"].__setitem__(5, np.inf), "actor_params holds a non-finite value"),
        (lambda arrays, meta: arrays["critic_params"].__setitem__(0, np.nan), "critic_params holds a non-finite value"),
        (
            lambda arrays, meta: meta["actor_net"].update(activations=["relu", "tanh"]),
            "actor_net: need 3 activations for 4 sizes, got 2",
        ),
        (
            lambda arrays, meta: arrays.update(actor_params=arrays["actor_params"].astype(np.float32)),
            "actor_params has dtype float32, not float64",
        ),
        (
            lambda arrays, meta: arrays.update(critic_params=arrays["critic_params"][:-3]),
            "critic_params has shape (142,), but critic_net needs (145,)",
        ),
        (
            lambda arrays, meta: arrays.update(critic_params=arrays["critic_params"].astype(np.float32)),
            "critic_params has dtype float32, not float64",
        ),
        (lambda arrays, meta: arrays.pop("critic_params"), "round checkpoint lacks critic_params"),
        (
            lambda arrays, meta: arrays.update(agent_episodes=np.array([2.5])),
            "agent_episodes must be a 1-D integer array, got float64 of shape (1,)",
        ),
        (
            lambda arrays, meta: arrays.update(agent_episodes=arrays["agent_episodes"].reshape(1, 1)),
            "agent_episodes must be a 1-D integer array, got int64 of shape (1, 1)",
        ),
    ],
    ids=[
        "one-layer-size",
        "size-below-1",
        "unknown-activation",
        "actor-vector-short",
        "actor-nan",
        "actor-inf",
        "critic-nan",
        "activation-count",
        "actor-float32",
        "critic-vector-short",
        "critic-float32",
        "critic-missing",
        "episodes-float",
        "episodes-2d",
    ],
)
def test_cli_round_checkpoint_architecture_is_checked(tmp_path, caplog, fault, message):
    from feddrive.container import load_container, save_container

    cfg = write_config(tmp_path)
    main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")])
    arrays, meta = load_container(tmp_path / "out" / "round_0.ckpt")
    fault(arrays, meta)
    ckpt = tmp_path / "bad_architecture.ckpt"
    save_container(ckpt, arrays, meta)
    caplog.clear()
    assert main(["inspect", str(ckpt)]) == 2
    assert message in caplog.text and "bad_architecture.ckpt" in caplog.text
    for command in ("eval", "sim-run"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--checkpoint", str(ckpt), "--out", str(out)]) == 2
        assert not out.exists()


def test_cli_sim_run_timeout_rows(tmp_path):
    cfg = write_config(tmp_path, max_steps="900")
    out = tmp_path / "sim"
    assert main(["sim-run", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "trace.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 900
    assert rows[-1]["cause"] == "max-steps"


def test_cli_sim_run_collision_trace(tmp_path):
    cfg = write_config(tmp_path, max_steps="50", _extra=["spawn = 0 main 30 0 0"])
    out = tmp_path / "sim"
    assert main(["sim-run", "--config", str(cfg), "--out", str(out), "--accel", "2.6"]) == 0
    with open(out / "trace.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert rows[-1]["cause"] == "collision"
    assert float(rows[-1]["reward"]) == -10.0
    assert int(rows[-1]["collided"]) == 1


@pytest.mark.parametrize("accel", ["nan", "inf", "-inf"])
def test_cli_sim_run_rejects_non_finite_accel(tmp_path, accel):
    cfg = write_config(tmp_path)
    out = tmp_path / "sim"
    assert main(["sim-run", "--config", str(cfg), "--out", str(out), f"--accel={accel}"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_cli_sim_run_episode_seed_outside_64_bits_fails_before_writing(tmp_path, caplog, seed):
    # episode seeds are derived mod 2**64, so -1 would run episode 2**64 - 1
    out = tmp_path / "sim"
    assert main(["sim-run", "--config", str(write_config(tmp_path)), "--out", str(out), f"--episode-seed={seed}"]) == 2
    assert not out.exists()
    assert f"--episode-seed must lie in [0, 2**64), got {seed}" in caplog.text


def test_cli_sim_run_rejects_non_finite_network(tmp_path):
    (tmp_path / "nan.net").write_text("node a 0 0\nnode b 400 0\nedge ab a b nan 20 1\nroute main ab\n")
    cfg = write_config(tmp_path, network_file="nan.net")
    out = tmp_path / "sim"
    assert main(["sim-run", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_sim_run_policy_driven(tmp_path):
    cfg = write_config(tmp_path, max_steps="40")
    out = tmp_path / "out"
    main(["train", "--config", str(cfg), "--out", str(out)])
    sim_out = tmp_path / "sim"
    code = main(
        ["sim-run", "--config", str(cfg), "--out", str(sim_out), "--checkpoint", str(out / "round_0.ckpt")]
    )
    assert code == 0
    with open(sim_out / "trace.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert 1 <= len(rows) <= 40
    assert rows[-1]["cause"] in ("max-steps", "destination", "collision")


def test_cli_export_json_to_csv(tmp_path):
    from feddrive.evaluation import EvalProtocol, EvalTemplate, evaluate, export_json

    proto = EvalProtocol(episodes=2, distances_m=(10.0,), template=EvalTemplate(max_steps=20))
    summary = evaluate(lambda obs: 1.0, proto, policy_id="x")
    src = tmp_path / "s.json"
    export_json([summary], src)
    dst = tmp_path / "s.csv"
    assert main(["export", "--summary", str(src), "--out", str(dst)]) == 0
    with open(dst, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 1 and rows[0]["policy_id"] == "x"


SUMMARY_ROW = {
    "policy_id": "p",
    "distance_m": 10.0,
    "episodes": 20,
    "collisions": 0,
    "timeouts": 0,
    "successes": 20,
    "mean_travel_delay_s": None,
    "mean_avg_speed_mps": 5.0,
    "success_rate": 1.0,
}


@pytest.mark.parametrize(
    "payload,field",
    [
        ({"a": 1}, "list"),
        ([{"policy_id": "p"}], "distance_m"),
        (b"not json", "Expecting value"),
        (b"\xff", "JSON"),
        ([{**SUMMARY_ROW, "episodes": 20.7}], "episodes must be an integer"),
        ([{**SUMMARY_ROW, "collisions": "3"}], "collisions must be an integer"),
        ([{**SUMMARY_ROW, "timeouts": True}], "timeouts must be an integer"),
        ([{**SUMMARY_ROW, "mean_avg_speed_mps": "5"}], "mean_avg_speed_mps must be a number"),
        ([{**SUMMARY_ROW, "success_rate": False}], "success_rate must be a number"),
        ([{**SUMMARY_ROW, "mean_travel_delay_s": "1.5"}], "mean_travel_delay_s must be a number or null"),
        ([{**SUMMARY_ROW, "distance_m": 10**400}], "distance_m is too large"),
        ([SUMMARY_ROW, {**SUMMARY_ROW, "policy_id": 3}], "row 1: policy_id must be a string"),
        # json writes and reads these as NaN, Infinity and -Infinity
        ([{**SUMMARY_ROW, "distance_m": float("nan")}], "row 0: distance_m must be finite, got nan"),
        ([SUMMARY_ROW, {**SUMMARY_ROW, "mean_travel_delay_s": float("inf")}],
         "row 1: mean_travel_delay_s must be finite, got inf"),
        ([{**SUMMARY_ROW, "mean_avg_speed_mps": float("-inf")}], "row 0: mean_avg_speed_mps must be finite, got -inf"),
        ([SUMMARY_ROW, "row"], "row 1 is not an object"),
    ],
)
def test_cli_export_malformed_summary_exits_2(tmp_path, caplog, payload, field):
    src = tmp_path / "bad_summary.json"
    if isinstance(payload, bytes):  # not JSON text at all
        src.write_bytes(payload)
    else:
        src.write_text(json.dumps(payload))
    out = tmp_path / "s.csv"
    assert main(["export", "--summary", str(src), "--out", str(out)]) == 2
    assert "bad_summary.json" in caplog.text and field in caplog.text
    assert not out.exists()


def test_cli_export_missing_summary_fails_before_writing(tmp_path, caplog):
    src = tmp_path / "s.json"
    src.write_text(json.dumps([SUMMARY_ROW]))
    dst = tmp_path / "s.csv"
    assert main(["export", "--summary", str(src), str(tmp_path / "gone.json"), "--out", str(dst)]) == 2
    assert "gone.json" in caplog.text and not dst.exists()


def test_cli_export_out_in_a_missing_directory_exits_2(tmp_path, caplog):
    src = tmp_path / "s.json"
    src.write_text(json.dumps([SUMMARY_ROW]))
    dst = tmp_path / "no" / "such" / "s.csv"
    assert main(["export", "--summary", str(src), "--out", str(dst)]) == 2
    assert "--out" in caplog.text and not (tmp_path / "no").exists()
    caplog.clear()  # the --out check comes before any summary is read
    assert main(["export", "--summary", str(tmp_path / "gone.json"), "--out", str(dst)]) == 2
    assert "--out" in caplog.text and "gone.json" not in caplog.text
    # an --out that names an existing directory
    adir = tmp_path / "adir"
    adir.mkdir()
    for summary in (src, tmp_path / "gone.json"):
        caplog.clear()
        assert main(["export", "--summary", str(summary), "--out", str(adir)]) == 2
        assert f"--out {adir}: is a directory" in caplog.text and "gone.json" not in caplog.text
    assert list(adir.iterdir()) == []


def test_cli_export_takes_typed_json_numbers(tmp_path):
    # a JSON integer is a number; null is "no arrival" for the delay
    src = tmp_path / "s.json"
    src.write_text(json.dumps([{**SUMMARY_ROW, "distance_m": 10, "mean_travel_delay_s": 3}, SUMMARY_ROW]))
    dst = tmp_path / "s.csv"
    assert main(["export", "--summary", str(src), "--out", str(dst)]) == 0
    with open(dst, newline="") as f:
        rows = list(csv.DictReader(f))
    assert [(r["distance_m"], r["mean_travel_delay_s"]) for r in rows] == [("10.0", "3.0"), ("10.0", "")]


def test_cli_failing_agent_exits_1_naming_where(tmp_path, caplog, monkeypatch):
    from feddrive import federation

    calls = []

    def train_episode(*args):
        calls.append(args)
        if len(calls) == 1:
            return real(*args)
        exc = RuntimeError("boom")
        exc.step_idx = 7
        raise exc

    real = federation.train_episode
    monkeypatch.setattr(federation, "train_episode", train_episode)
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "failed: agent 0 failed in round 0, episode 1, step 7: boom" in caplog.text


def test_blas_kernel_is_unknown_when_the_library_cannot_load(monkeypatch):
    from feddrive import cli

    def refuse(_name):
        raise OSError("cannot load")

    monkeypatch.setattr(cli.ctypes, "CDLL", refuse)
    assert cli._blas_kernel() == "unknown"
