"""Command-line entry point.

Subcommands: train, eval, inspect, sim-run, export.  Every command validates
its full configuration before writing anything; exit status 0 means the
command's outputs were fully produced; ``eval`` and ``sim-run`` roll out through
``evaluation.rollout``.  Log verbosity comes from the FEDDRIVE_LOG environment
variable (debug/info/warning/error; any other name means info).
"""

from __future__ import annotations

import argparse
import ctypes
import csv
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, load_run_config
from .evaluation import evaluate, export_csv, export_json, rollout, summaries_from_json
from .federation import load_actor, read_round_checkpoint, round_reports_csv, run_training
from .nn import count_params
from .seeding import MASK64
from .sim.world import TrafficWorld

log = logging.getLogger("feddrive")


def _setup_logging() -> None:
    level = getattr(logging, os.environ.get("FEDDRIVE_LOG", "info").upper(), None)  # BASIC_FORMAT is no level
    logging.basicConfig(level=level if type(level) is int else logging.INFO, format="%(levelname)s %(message)s")


def _blas_kernel() -> str:
    """The kernel set that numpy's OpenBLAS picked for this CPU, or "unknown" when it cannot be read."""
    try:
        (lib,) = (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so")
        corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        return corename().decode() or "unknown"
    except (OSError, ValueError, AttributeError):
        return "unknown"


def cmd_train(args: argparse.Namespace) -> int:
    cfg = load_run_config(
        args.config,
        seed=args.seed,
        rounds=args.rounds,
        agents=args.agents,
        episodes=args.episodes,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    log.info(
        "training: %d agents x %d rounds x %d episodes (seed %d)",
        cfg.federation.agents,
        cfg.federation.rounds,
        cfg.federation.episodes_per_round,
        cfg.master_seed,
    )
    _, reports = run_training(cfg.federation, out_dir=out_dir, config_hash=cfg.config_hash)
    (out_dir / "round_reports.csv").write_text(round_reports_csv(reports))
    manifest = {
        "command": "train",
        "config_hash": cfg.config_hash,
        "master_seed": cfg.master_seed,
        "seed_derivation": "episode_seed = splitmix64_chain(master_seed, agent_id, episode_idx)",
        "build": f"feddrive {__version__}",
        "blas_kernel": _blas_kernel(),  # float32 products may round differently under another kernel
        "agents": cfg.federation.agents,
        "rounds": cfg.federation.rounds,
        "episodes_per_round": cfg.federation.episodes_per_round,
        "checkpoints": [r.checkpoint_path for r in reports],
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    for r in reports:
        mean = sum(s.mean_reward for s in r.per_agent) / len(r.per_agent)
        rewards = [rew for s in r.per_agent for rew in s.episode_rewards]
        log.info(
            "round %d: mean reward %.3f  min %+.2f  max %+.2f  collisions %d",
            r.round_idx,
            mean,
            min(rewards),
            max(rewards),
            sum(s.collisions for s in r.per_agent),
        )
    log.info("wrote %d checkpoints and round_reports.csv to %s", len(reports), out_dir)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, seed=args.seed)
    actor = load_actor(args.checkpoint)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = evaluate(actor, cfg.eval_protocol, policy_id=args.policy_id)
    export_csv([summary], out_dir / "eval_summary.csv")
    export_json([summary], out_dir / "eval_summary.json")
    for row in summary.rows:
        log.info(
            "distance %6.1f m: %d/%d reached, %d collisions",
            row.distance_m,
            row.successes,
            row.episodes,
            row.collisions,
        )
    log.info("wrote eval_summary.csv and eval_summary.json to %s", out_dir)
    return 0


def _describe_net(label: str, net_meta: dict) -> str:
    sizes = net_meta["layer_sizes"]
    return f"{label}: sizes {sizes}, activations {net_meta['activations']}, {count_params(sizes)} parameters"


def cmd_inspect(args: argparse.Namespace) -> int:
    arrays, meta = read_round_checkpoint(args.checkpoint)
    print(f"checkpoint kind: {meta['kind']}")
    print(_describe_net("actor", meta["actor_net"]))
    print(_describe_net("critic", meta["critic_net"]))
    print(f"round index: {meta['round_idx']}")
    episodes = arrays["agent_episodes"]
    print(f"per-agent episodes: {episodes.tolist()} (total {int(episodes.sum())})")
    print(f"config hash: {meta.get('config_hash') or '(none)'}")
    return 0


TRACE_COLUMNS = (
    "step",
    "time_s",
    "pos_x_m",
    "pos_y_m",
    "speed_mps",
    "accel_mps2",
    "reward",
    "collided",
    "reached",
    "braking",
    "waiting",
    "moving",
    "cause",
)


def cmd_sim_run(args: argparse.Namespace) -> int:
    if not math.isfinite(args.accel):
        raise ConfigError(f"--accel must be a finite acceleration, got {args.accel!r}")
    if not 0 <= args.episode_seed <= MASK64:  # derive_seed reduces it mod 2**64, so -1 would alias 2**64 - 1
        raise ConfigError(f"--episode-seed must lie in [0, 2**64), got {args.episode_seed}")
    cfg = load_run_config(args.config, seed=args.seed)
    policy = load_actor(args.checkpoint) if args.checkpoint is not None else lambda _: args.accel
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / "trace.csv"

    sc = cfg.scenario
    world = TrafficWorld(sc)
    with open(trace_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(TRACE_COLUMNS)

        def write_row(_obs, _action, out) -> None:
            o, fl = out.observation, out.flags
            writer.writerow(
                [
                    world.steps - 1,
                    repr(world.time_s),
                    repr(o.pos_x),
                    repr(o.pos_y),
                    repr(o.speed),
                    repr(o.acceleration),
                    repr(out.reward),
                    int(fl.collided),
                    int(fl.reached_destination),
                    int(fl.braking),
                    int(fl.waiting_at_light),
                    int(fl.speed_nonzero),
                    out.cause,
                ]
            )

        trace = rollout(world, policy, args.episode_seed, sc.accel_min_mps2, sc.accel_max_mps2, on_step=write_row)
    log.info("episode ended after %d steps (%s); trace at %s", trace.steps, trace.cause, trace_path)
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    if not Path(args.out).parent.is_dir():  # export writes one file and creates no directory
        raise ConfigError(f"--out {args.out}: no directory {Path(args.out).parent}")
    summaries = []
    for src in map(Path, args.summary):
        if not src.is_file():
            raise ConfigError(f"summary file not found: {src}")
        summaries += summaries_from_json(src)
    export_csv(summaries, args.out)
    log.info("wrote %s", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="feddrive", description=__doc__)
    parser.add_argument("--version", action="version", version=f"feddrive {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run federated training")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--seed", type=int, default=None, help="override master_seed")
    p_train.add_argument("--rounds", type=int, default=None)
    p_train.add_argument("--agents", type=int, default=None)
    p_train.add_argument("--episodes", type=int, default=None, help="episodes per agent per round")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a frozen policy over the distance protocol")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.add_argument("--policy-id", default="policy")
    p_eval.set_defaults(func=cmd_eval)

    p_inspect = sub.add_parser("inspect", help="print checkpoint architecture and metadata")
    p_inspect.add_argument("checkpoint")
    p_inspect.set_defaults(func=cmd_inspect)

    p_sim = sub.add_parser("sim-run", help="roll out one episode and write a step trace")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--checkpoint", default=None, help="drive with this actor instead of a constant")
    p_sim.add_argument("--accel", type=float, default=0.0, help="constant acceleration when no checkpoint")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--episode-seed", type=int, default=0)
    p_sim.set_defaults(func=cmd_sim_run)

    p_export = sub.add_parser("export", help="convert eval summary JSONs to one CSV, rows in the order given")
    p_export.add_argument("--summary", required=True, nargs="+")
    p_export.add_argument("--out", required=True)
    p_export.set_defaults(func=cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError and ContainerError among them
        log.error("%s", exc)
        return 2
    except Exception as exc:  # noqa: BLE001
        log.error("failed: %s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
