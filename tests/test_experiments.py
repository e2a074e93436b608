"""The README's experiments: local DDPG against federated FDDPG as a ``feddrive`` command sequence.

The local baseline is one agent trained for the federation's rounds ×
episodes in a single round.  Both policies are evaluated under one config,
so on the same episode seeds, and one ``export`` joins the two summaries.
"""

import csv
import dataclasses
import re
import shlex

import pytest

from feddrive.cli import build_parser, load_actor, main
from feddrive.config import load_run_config
from feddrive.federation import run_training
from tests.conftest import CONFIGS, REPO

SMOKE = str(CONFIGS / "smoke_train.cfg")


def test_local_vs_federated_sequence(tmp_path):
    fed = load_run_config(SMOKE, agents=2, rounds=2).federation
    episodes = fed.rounds * fed.episodes_per_round
    local, glob = tmp_path / "local", tmp_path / "fed"
    local_train = ["--agents", "1", "--rounds", "1", "--episodes", str(episodes)]
    assert main(["train", "--config", SMOKE, "--out", str(local), *local_train]) == 0
    assert main(["train", "--config", SMOKE, "--out", str(glob), "--agents", "2", "--rounds", "2"]) == 0

    # the single-agent run the local baseline stands for
    reference, _ = run_training(dataclasses.replace(fed, agents=1, rounds=1, episodes_per_round=episodes))
    assert load_actor(local / "round_0.ckpt").flat.tobytes() == reference.actor.flat.tobytes()

    for run, ckpt, policy_id in ((local, "round_0.ckpt", "local_ddpg"), (glob, "round_1.ckpt", "global_fddpg")):
        argv = ["eval", "--config", SMOKE, "--checkpoint", str(run / ckpt), "--policy-id", policy_id]
        assert main([*argv, "--out", str(run / "eval")]) == 0
    combined = tmp_path / "local_vs_global.csv"
    summaries = [str(run / "eval" / "eval_summary.json") for run in (local, glob)]
    assert main(["export", "--summary", *summaries, "--out", str(combined)]) == 0

    with open(combined, newline="") as f:
        rows = list(csv.DictReader(f))
    assert [(r["policy_id"], r["distance_m"]) for r in rows] == [
        ("local_ddpg", "10.0"),
        ("local_ddpg", "20.0"),
        ("global_fddpg", "10.0"),
        ("global_fddpg", "20.0"),
    ]
    # the combined file is the two evaluations' own CSVs, header once
    header, *local_rows = (local / "eval" / "eval_summary.csv").read_text().splitlines(keepends=True)
    _, *fed_rows = (glob / "eval" / "eval_summary.csv").read_text().splitlines(keepends=True)
    assert combined.read_text() == "".join([header, *local_rows, *fed_rows])


def readme_experiment_commands() -> list[list[str]]:
    """The ``feddrive`` command lines in the code blocks of the README's Experiments section."""
    section = (REPO / "README.md").read_text().split("\n## Experiments\n", 1)[1].split("\n## ", 1)[0]
    lines = "".join(re.findall(r"```bash\n(.*?)```", section, re.S)).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.startswith("feddrive ")]


def test_readme_experiment_commands_parse():
    commands = readme_experiment_commands()
    assert [argv[1] for argv in commands] == ["train", "train", "eval", "eval", "export"]
    parser = build_parser()
    parsed = []
    for argv in commands:
        try:
            parsed.append(parser.parse_args(argv[1:]))
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")

    # the sequence fits its config: equal episodes for the local agent, the last round's global actor
    local_train, fed_train, local_eval, fed_eval, export = parsed
    assert {args.config for args in parsed[:4]} == {fed_train.config}  # one config: paired episode seeds
    fed = load_run_config(REPO / fed_train.config).federation
    assert (local_train.agents, local_train.rounds) == (1, 1)
    assert local_train.episodes == fed.rounds * fed.episodes_per_round
    assert local_eval.checkpoint == f"{local_train.out}/round_0.ckpt"
    assert fed_eval.checkpoint == f"{fed_train.out}/round_{fed.rounds - 1}.ckpt"
    assert export.summary == [f"{local_eval.out}/eval_summary.json", f"{fed_eval.out}/eval_summary.json"]
