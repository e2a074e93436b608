"""Golden bytes: a fixed two-agent, two-round smoke run writes these exact files.

Two agents and two rounds exercise local DDPG updates, episode-weighted
aggregation, the global target soft update and broadcast.  Any change to the
arithmetic, its order, or the checkpoint layout changes a hash here.  The
top-level ``manifest.json`` is left out because it records the output path.
Evaluating that run's last global model and ``sim-run`` traces (constant
acceleration to a collision and to the destination, and actor-driven) pin the
episode loop that training, evaluation and ``sim-run`` share.  World traces
with every background vehicle's state pin random background spawning,
lights, turns, cyclic and oncoming routes and intersection-box collisions,
which ``sim-run``'s ego-only ``trace.csv`` does not show; two more pin the
evaluation corridor with the benchmark's two slow vehicles.
The hashes hold for the numpy/OpenBLAS build named in ``BENCH_*.json``;
another BLAS kernel may round the float32 matrix products differently, which
moves the two ``round_*.ckpt`` hashes.  So the smoke run is pinned per
kernel, under the SkylakeX kernels and under ``OPENBLAS_CORETYPE=Haswell``
(kernels that any CPU with AVX2 and FMA runs), and checked against the pins
of the kernel its manifest names.
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from feddrive.cli import main
from feddrive.config import load_run_config
from feddrive.evaluation import EvalTemplate, realize_scenario
from feddrive.metrics import run_episode
from feddrive.sim.world import TrafficWorld
from tests.conftest import CONFIGS, NETS, REPO

GOLDEN_SHA256 = {
    "round_0.ckpt": "7003608ff4392e79dc766d49793b5942f4cf9b1f5d87b81465f6aae8ee6e644a",
    "round_0.manifest.json": "ea154d0b2cae9e3b909aac7740f556ab5e9ef6f8fba1d9276b252a81f7756dbd",
    "round_1.ckpt": "95276c65f1e16204ae2a425892cf0dd6da6bb1ed6a2d620d96106db9e7c227fd",
    "round_1.manifest.json": "86c807c04d8abe8321f057b9585be1498f71449d9ee38af2358f1d872be52c05",
    "round_reports.csv": "5b013ab87decdf9d5cffe4ca49bb9f65e094bce328a54f1fb79d625df2e86170",
}

# under the Haswell kernels only the checkpoints' float32 training arithmetic rounds differently
HASWELL_SHA256 = {
    **GOLDEN_SHA256,
    "round_0.ckpt": "bb1426dadf6e825d2f4e80fb6288f370173f17fa36e9c2f9a8804aba34750a73",
    "round_1.ckpt": "4ac9bb7b4014d336e4572b06afa15e2cf96015b72ad52481e66babfc24bbb4f9",
}

GOLDEN_BY_KERNEL = {"SkylakeX": GOLDEN_SHA256, "Haswell": HASWELL_SHA256}

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
    kernel = json.loads((smoke_run / "manifest.json").read_text())["blas_kernel"]
    if kernel not in GOLDEN_BY_KERNEL:
        pytest.fail(f"no golden hashes are pinned for the BLAS kernel {kernel!r}; pinned: {sorted(GOLDEN_BY_KERNEL)}")
    golden = GOLDEN_BY_KERNEL[kernel]
    got = {name: sha256(smoke_run / name) for name in golden}
    assert got == golden


def cpu_flags() -> set[str]:
    """The CPU feature flags Linux lists, or none where ``/proc/cpuinfo`` cannot be read."""
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return set()
    return {flag for line in lines if line.startswith("flags") for flag in line.split(":", 1)[1].split()}


@pytest.mark.skipif(
    not {"avx2", "fma"} <= cpu_flags(),
    reason="OpenBLAS's Haswell kernels need a CPU whose /proc/cpuinfo flags list avx2 and fma",
)
def test_smoke_run_bytes_are_golden_under_haswell_kernels(tmp_path):
    # the kernel is chosen when OpenBLAS loads, so the run needs a fresh process
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": pythonpath}
    argv = ["train", "--config", str(SMOKE), "--agents", "2", "--rounds", "2", "--out", str(tmp_path)]
    result = subprocess.run([sys.executable, "-m", "feddrive.cli", *argv], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert json.loads((tmp_path / "manifest.json").read_text())["blas_kernel"] == "Haswell"
    got = {name: sha256(tmp_path / name) for name in HASWELL_SHA256}
    assert got == HASWELL_SHA256


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


# accelerate, coast, brake, repeat: speeds vary, so vehicles close and open gaps
SCHEDULE = (2.6, 2.6, 1.0, 0.0, -1.5, 0.5)


def eval_corridor(distance_m: float):
    """The benchmark's evaluation scenario: two slow random vehicles on the corridor."""
    template = EvalTemplate(background_count=2, bg_speed_factor_min=0.4, bg_speed_factor_max=0.7, master_seed=0)
    return realize_scenario(template, distance_m)


@pytest.mark.parametrize(
    "config, actions, episode_seeds, digest",
    [
        # random background on the lit grid: turns, cyclic, oncoming and
        # despawning routes, queues at the red light; vehicles that follow
        # the ego round n00 onto e_s, 2.5 m behind its tail, are no crossing;
        # intersection-box collisions at the lit corner after 19 steps in
        # episodes 0 and 2, and an arrival after 19 steps in episode 1
        (
            "network_file = {nets}/grid2x2.net\nego_route = to_light\ndestination_node = n10\n"
            "max_steps = 120\nbackground_count = 5\nmaster_seed = 11\n",
            SCHEDULE,
            (0, 1, 2),
            "0f775a798fdbd28b94be5e034b19186fc17db8c9108cccc91e2b754210eff10b",
        ),
        # a vehicle spawned at step 1 on the crossing road meets the ego in
        # the intersection box: collision after 7 steps
        (
            "network_file = {nets}/cross.net\nego_route = we\ndestination_node = e\n"
            "max_steps = 40\nspawn = 1 sn 0 2 0.5\nmaster_seed = 3\n",
            (1.8,),
            (0,),
            "2303d9cf1b8fcbf392503df4a66dc3ce2e2cecd71ee625469a363ede9521326b",
        ),
        # the desk scenario's two slow random vehicles: in the first two
        # episodes the ego drives through a slower vehicle between two steps,
        # a collision after 31 and 30 steps; the third arrives after 56 steps,
        # once both vehicles have left the road
        (
            "network_file = {nets}/long_road.net\nego_route = main\ndestination_node = b\n"
            "max_steps = 80\nbackground_count = 2\nbg_speed_factor_min = 0.4\n"
            "bg_speed_factor_max = 0.7\nmaster_seed = 7\n",
            SCHEDULE,
            (0, 1, 2),
            "4517c47360b86a0ce33677bbe307f307bcab68535d33281aa0b7d3fc0122d3e6",
        ),
        # the 10 m evaluation corridor, whose ``main`` has one place: every
        # vehicle placed on ``tail``, at least a spacing past its start, one
        # leaving by it in each episode; both episodes arrive after 2 steps
        (
            eval_corridor(10.0),
            SCHEDULE,
            (0, 2),
            "e7777cf7b041a4bc3dacab9ec5ffa68aeb4fb06b226e68629a21c0dfdb002f64",
        ),
        # the 207 m evaluation corridor: two arrivals after 19 steps, the
        # first with no traffic left after step 6, the second once a vehicle
        # has left by ``tail``
        (
            eval_corridor(207.0),
            SCHEDULE,
            (0, 1),
            "1838e65376480ba138003074373a9d28399ce2e5289915986bd05b111797ef05",
        ),
    ],
    ids=["grid-traffic", "cross-collision", "long-road-traffic", "eval-corridor-10m", "eval-corridor-207m"],
)
def test_world_trace_is_golden(tmp_path, config, actions, episode_seeds, digest):
    """``config`` is a run config's text, or a scenario ready to drive."""
    if isinstance(config, str):
        cfg = tmp_path / "world.cfg"
        cfg.write_text(config.format(nets=NETS))
        config = load_run_config(cfg).scenario
    world = TrafficWorld(config)
    lines = []

    def state() -> str:
        e = world.ego
        vehicles = (f"{v.vehicle_id} {v.edge_id} {v.pos_m!r} {v.speed_mps!r}" for v in world.background)
        return " | ".join([f"ego {e.edge_id} {e.pos_m!r} {e.speed_mps!r} {e.accel_mps2!r}", *vehicles])

    def record(_obs, action, out) -> None:
        o = out.observation
        obs = (o.pos_x, o.pos_y, o.speed, o.heading, o.acceleration, o.dest_distance)
        lines.append(f"{world.steps} {action!r} {obs!r} {out.reward!r} {out.cause} {out.flags!r} | {state()}")

    for seed in episode_seeds:
        schedule = itertools.cycle(actions)

        def act(_obs) -> float:
            if world.steps == 0:
                lines.append(f"reset {seed} | {state()}")  # the spawned vehicles
            return next(schedule)

        trace = run_episode(world, act, seed, on_step=record)
        lines.append(f"end {seed} {trace.steps} {trace.cause} {world.distance_traveled_m!r}")
    ends = "\n".join(line for line in lines if line.startswith("end "))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest, f"episode ends:\n{ends}"
