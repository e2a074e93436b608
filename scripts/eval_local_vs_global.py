#!/usr/bin/env python3
"""Compare a locally trained policy against the federated global policy.

Trains (a) one standalone agent and (b) the federated ensemble from the same
config, then evaluates both actors over the distance protocol with identical
episode seeds (a paired design) and writes one combined CSV.

Usage:
    python scripts/eval_local_vs_global.py --config configs/desk_trend.cfg --out runs/compare
"""

import argparse
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from feddrive.config import load_run_config
from feddrive.evaluation import evaluate, export_csv, export_json
from feddrive.federation import run_training

REPO = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(REPO / "configs" / "desk_trend.cfg"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    cfg = load_run_config(args.config, seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    fed = cfg.federation
    local_cfg = dataclasses.replace(fed, agents=1, rounds=1,
                                    episodes_per_round=fed.rounds * fed.episodes_per_round)

    print(f"training local baseline: 1 agent x {local_cfg.episodes_per_round} episodes")
    local_model, _ = run_training(local_cfg)
    print(f"training federated: {fed.agents} agents x {fed.rounds} rounds x {fed.episodes_per_round} episodes")
    global_model, _ = run_training(fed)

    summaries = [
        evaluate(local_model.actor, cfg.eval_protocol, policy_id="local_ddpg"),
        evaluate(global_model.actor, cfg.eval_protocol, policy_id="global_fddpg"),
    ]
    export_csv(summaries, out_dir / "local_vs_global.csv")
    export_json(summaries, out_dir / "local_vs_global.json")

    for summary in summaries:
        print(f"\n{summary.policy_id}:")
        for row in summary.rows:
            delay = "-" if row.mean_travel_delay_s is None else f"{row.mean_travel_delay_s:6.1f}s"
            print(
                f"  {row.distance_m:6.1f} m: reached {row.successes:2d}/{row.episodes}  "
                f"collisions {row.collisions:2d}  delay {delay}  "
                f"avg speed {row.mean_avg_speed_mps:5.2f} m/s"
            )
    print(f"\nwrote {out_dir / 'local_vs_global.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
