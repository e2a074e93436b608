import csv
import json

import pytest

from feddrive.cli import build_parser, main
from feddrive.config import ConfigError, load_run_config, parse_config_text
from tests.conftest import NETS


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


# ----------------------------------------------------------------------- cli


def test_cli_train_smoke(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "round_0.ckpt").is_file()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["agents"] == 1
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


def test_cli_eval_missing_checkpoint(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(tmp_path / "no.ckpt"), "--out", str(tmp_path / "e")]) != 0


def test_cli_eval_architecture_mismatch(tmp_path):
    from feddrive import nn
    from feddrive.container import save_container

    cfg = write_config(tmp_path)
    bad = tmp_path / "bad.ckpt"
    actor = nn.init_params([5, 4, 1], ["relu", "tanh"], seed=0)
    save_container(bad, {"actor_params": actor.flat}, {"kind": "agent", "actor_net": nn.mlp_meta(actor)})
    assert main(["eval", "--config", str(cfg), "--checkpoint", str(bad), "--out", str(tmp_path / "e")]) != 0


def test_cli_inspect_default_architecture(tmp_path, capsys):
    from feddrive.ddpg import DdpgAgent, DdpgHyperparams, save_agent_checkpoint

    path = tmp_path / "agent.ckpt"
    save_agent_checkpoint(path, DdpgAgent.create(DdpgHyperparams(), seed=0))
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


def test_cli_inspect_truncated(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    main(["train", "--config", str(cfg), "--out", str(out)])
    ckpt = out / "round_0.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[:60])
    assert main(["inspect", str(ckpt)]) != 0


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


def test_load_actor_from_agent_checkpoint(tmp_path):
    import numpy as np

    from feddrive import nn
    from feddrive.cli import load_actor
    from feddrive.ddpg import DdpgAgent, DdpgHyperparams, save_agent_checkpoint

    agent = DdpgAgent.create(DdpgHyperparams(actor_hidden=(8, 8), critic_hidden=(8, 8)), seed=4)
    path = tmp_path / "agent.ckpt"
    save_agent_checkpoint(path, agent)
    actor = load_actor(path)
    assert np.array_equal(nn.flatten_params(actor), nn.flatten_params(agent.actor))


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
