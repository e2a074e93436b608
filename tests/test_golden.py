"""Golden bytes: a fixed two-agent, two-round smoke run writes these exact files.

Two agents and two rounds exercise local DDPG updates, episode-weighted
aggregation, the global target soft update and broadcast.  Any change to the
arithmetic, its order, or the checkpoint layout changes a hash here.  The
top-level ``manifest.json`` is left out because it records the output path.
The hashes hold for the numpy/OpenBLAS build named in ``BENCH_*.json``; a
different BLAS kernel may round the matrix products differently.
"""

import hashlib

from feddrive.cli import main
from tests.conftest import CONFIGS

GOLDEN_SHA256 = {
    "round_0.ckpt": "6c331c4edfe1685f0aac65cc7c39a2c55057f36113ee9dd568b46d71303185da",
    "round_0.manifest.json": "f4599b0c433a32ccc2922bb0627a6e3b3527d38f14feff1e34f392cbf6e7f200",
    "round_1.ckpt": "6bff028108a2ded7fd1d423127014064bcf5f81e9c3c330ce9db32a5b484cd6d",
    "round_1.manifest.json": "4f32bf08dfad3dab9a6eb1e83fb7de23a187ad911f66905f696de7674ac3ce79",
    "round_reports.csv": "5b013ab87decdf9d5cffe4ca49bb9f65e094bce328a54f1fb79d625df2e86170",
}


def test_smoke_run_bytes_are_golden(tmp_path):
    cfg = CONFIGS / "smoke_train.cfg"
    args = ["train", "--config", str(cfg), "--agents", "2", "--rounds", "2", "--out", str(tmp_path)]
    assert main(args) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256
