#!/usr/bin/env python3
"""Run the desk-scale federated training experiment and print the reward trend.

Usage:
    python scripts/run_desk_trend.py [--config configs/desk_trend.cfg] [--out runs/desk]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from feddrive.config import load_run_config
from feddrive.federation import round_reports_csv, run_training

REPO = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(REPO / "configs" / "desk_trend.cfg"))
    parser.add_argument("--out", default=None, help="directory for checkpoints and the report CSV")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    cfg = load_run_config(args.config, seed=args.seed)
    out_dir = Path(args.out) if args.out else None
    print(
        f"training {cfg.federation.agents} agents x {cfg.federation.rounds} rounds "
        f"x {cfg.federation.episodes_per_round} episodes (seed {cfg.master_seed})"
    )
    _, reports = run_training(cfg.federation, out_dir=out_dir, config_hash=cfg.config_hash)

    for r in reports:
        rewards = np.concatenate([np.asarray(s.episode_rewards) for s in r.per_agent])
        collisions = sum(s.collisions for s in r.per_agent)
        print(
            f"round {r.round_idx}: mean reward {rewards.mean():+7.2f}  "
            f"min {rewards.min():+7.2f}  max {rewards.max():+7.2f}  collisions {collisions}"
        )

    baseline = np.mean([rew for s in reports[0].per_agent for rew in s.episode_rewards[:20]])
    final = np.mean([rew for s in reports[-1].per_agent for rew in s.episode_rewards])
    print(f"first-20-episode baseline {baseline:+.2f} -> final round {final:+.2f} (margin {final - baseline:+.2f})")

    if out_dir is not None:
        (out_dir / "round_reports.csv").write_text(round_reports_csv(reports))
        print(f"wrote checkpoints and round_reports.csv to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
