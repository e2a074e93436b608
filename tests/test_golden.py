"""Golden bytes: a fixed two-agent, two-round smoke run writes these exact files.

Two agents and two rounds exercise local DDPG updates, episode-weighted
aggregation, the global target soft update and broadcast.  Any change to the
arithmetic, its order, or the checkpoint layout changes a hash here.  The
top-level ``manifest.json`` is left out because it records the output path.
Evaluating that run's last global model and ``sim-run`` traces (constant
acceleration to a collision and to the destination, and actor-driven) pin the
episode loop that training, evaluation and ``sim-run`` share.
The hashes hold for the numpy/OpenBLAS build named in ``BENCH_*.json``; a
different BLAS kernel may round the matrix products differently.
"""

import hashlib

import pytest

from feddrive.cli import main
from tests.conftest import CONFIGS

GOLDEN_SHA256 = {
    "round_0.ckpt": "6c331c4edfe1685f0aac65cc7c39a2c55057f36113ee9dd568b46d71303185da",
    "round_0.manifest.json": "f4599b0c433a32ccc2922bb0627a6e3b3527d38f14feff1e34f392cbf6e7f200",
    "round_1.ckpt": "6bff028108a2ded7fd1d423127014064bcf5f81e9c3c330ce9db32a5b484cd6d",
    "round_1.manifest.json": "4f32bf08dfad3dab9a6eb1e83fb7de23a187ad911f66905f696de7674ac3ce79",
    "round_reports.csv": "5b013ab87decdf9d5cffe4ca49bb9f65e094bce328a54f1fb79d625df2e86170",
}

EVAL_SHA256 = {
    "eval_summary.csv": "61d6d9f56a04057935aa87bb7942daaeff80f8563b15076eebbfa61e050169ac",
    "eval_summary.json": "53a21530d96c9bdfd06a614b11732cae59ee864826bfc157a287cf6d179d6f2d",
}

SMOKE = CONFIGS / "smoke_train.cfg"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    assert main(["train", "--config", str(SMOKE), "--agents", "2", "--rounds", "2", "--out", str(out)]) == 0
    return out


def test_smoke_run_bytes_are_golden(smoke_run):
    got = {name: sha256(smoke_run / name) for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256


def test_eval_bytes_are_golden(smoke_run, tmp_path):
    ckpt = smoke_run / "round_1.ckpt"
    assert main(["eval", "--config", str(SMOKE), "--checkpoint", str(ckpt), "--out", str(tmp_path)]) == 0
    got = {name: sha256(tmp_path / name) for name in EVAL_SHA256}
    assert got == EVAL_SHA256


@pytest.mark.parametrize(
    "config, drive, digest",
    [
        # parked vehicle ahead: collision after 7 steps
        ("collision_demo.cfg", ["--accel", "1.0"], "f9c8e3df5606e83a1b076f292f33e20c491fbf05984ea4156051754f3d9ae9e0"),
        # full acceleration: destination after 17 steps
        ("smoke_train.cfg", ["--accel", "2.6"], "63b2325f30214e2ff5b75ed281c9f7f07da009418ff91ebac436e298d5d6aff1"),
        # the smoke run's last global actor drives
        ("smoke_train.cfg", ["--checkpoint", "round_1.ckpt"], "bb6f1e9031413b10a16881346eda8bb3025b2d2038d90abcc3ca2a5973f42b4e"),
    ],
    ids=["collision", "destination", "actor"],
)
def test_sim_run_trace_is_golden(smoke_run, tmp_path, config, drive, digest):
    if drive[0] == "--checkpoint":
        drive = ["--checkpoint", str(smoke_run / drive[1])]
    assert main(["sim-run", "--config", str(CONFIGS / config), "--out", str(tmp_path), *drive]) == 0
    assert sha256(tmp_path / "trace.csv") == digest
