"""Workload definitions: inputs from the seed, one timed job, and its output checks.

A workload turns the benchmark seed into a sequence of job seeds.  Each job is
one call into the program exactly as ``feddrive train`` or ``feddrive eval``
makes it (default threaded agents, BLAS threading left alone), timed by the
caller, followed by checks of what the call produced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent  # checkout root
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"  # results, spans and temp dirs; git-ignored


class ProgramMissing(RuntimeError):
    """The checkout has no feddrive sources to benchmark."""


def import_program():
    """Import feddrive from this checkout's ``src`` and nowhere else."""
    if not (SRC / "feddrive" / "__init__.py").is_file():
        raise ProgramMissing(f"no feddrive package under {SRC}")
    sys.path.insert(0, str(SRC))
    import feddrive

    if Path(feddrive.__file__).resolve().parent != (SRC / "feddrive").resolve():
        raise ProgramMissing(f"feddrive imported from {feddrive.__file__}, not from {SRC}")
    return feddrive


def job_seeds(seed: int):
    """Endless, reproducible stream of master seeds for the jobs of one run."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


def weights_digest(*flat_arrays) -> str:
    h = hashlib.sha256()
    for a in flat_arrays:
        h.update(a.astype("<f8", copy=False).tobytes())
    return h.hexdigest()


@dataclass
class JobResult:
    seed: int
    wall_s: float
    attempted: int  # agent-rounds (training) or episodes (evaluation)
    failed: int
    episodes: int = 0
    steps: int = 0
    # per timed unit (a training round, an evaluation job): work done, wall
    # seconds, and whether it counts towards throughput (training rounds
    # that start with warm replay buffers)
    units: list = field(default_factory=list)
    speed: float = 1.0  # machine speed around the job, for calibrated workloads
    digest: str = ""
    outcomes: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)  # failed check descriptions
    error: str = ""


def _derived_config(src: Path, drop: set[str], name: str) -> Path:
    """Copy a shipped config without the ``drop`` keys, so they take the defaults."""
    OUT.mkdir(parents=True, exist_ok=True)
    dst = OUT / name
    lines = []
    for raw in src.read_text().splitlines():
        key = raw.split("#", 1)[0].split("=", 1)[0].strip()
        if key in drop:
            continue
        if key == "network_file":
            net = (src.parent / raw.split("=", 1)[1].split("#", 1)[0].strip()).resolve()
            raw = f"network_file = {Path('..', '..', net.relative_to(ROOT.resolve()))}"
        lines.append(raw)
    text = "\n".join(lines) + "\n"
    if not dst.is_file() or dst.read_text() != text:
        dst.write_text(text)
    return dst


class EpisodeCounter:
    """Counts steps per agent and per round at the episode and round boundaries.

    Installed for every run, traced or not: it wraps ``train_episode`` and
    ``run_round`` as ``feddrive.federation`` binds them, one call per episode
    or round, so its cost does not show beside the steps it counts.
    """

    def __init__(self, federation):
        self._fed = federation
        self.rounds: list[tuple[int, float, int, int, bool]] = []  # idx, wall, steps, episodes, warm
        self.agent_steps: dict[int, int] = {}
        self._round_steps: dict[int, list[int]] = {}
        self.batch_size = 1

    def reset(self, batch_size: int) -> None:
        self.rounds.clear()
        self.agent_steps.clear()
        self.batch_size = batch_size

    def __enter__(self):
        # wrap whatever is bound now, so spans of an installed tracer stay inside
        self._orig_episode = orig_episode = self._fed.train_episode
        self._orig_round = orig_round = self._fed.run_round

        def train_episode(agent, world, episode_seed, rng):
            m = orig_episode(agent, world, episode_seed, rng)
            # each agent's key is written only by the thread that trains it
            self.agent_steps[agent.agent_id] = self.agent_steps.get(agent.agent_id, 0) + m.steps
            self._round_steps.setdefault(agent.agent_id, []).append(m.steps)
            return m

        def run_round(config, global_model, agents, round_idx, *args, **kwargs):
            warm = all(self.agent_steps.get(a.agent_id, 0) >= self.batch_size for a in agents)
            self._round_steps = {a.agent_id: [] for a in agents}
            t0 = time.perf_counter()
            report = orig_round(config, global_model, agents, round_idx, *args, **kwargs)
            wall = time.perf_counter() - t0
            steps = [s for v in self._round_steps.values() for s in v]
            self.rounds.append((round_idx, wall, sum(steps), len(steps), warm))
            return report

        self._fed.train_episode = train_episode
        self._fed.run_round = run_round
        return self

    def __exit__(self, *exc):
        self._fed.train_episode = self._orig_episode
        self._fed.run_round = self._orig_round
        return False


# ---------------------------------------------------------------- training


@dataclass
class TrainWorkload:
    name: str
    why: str
    config: str  # shipped config file, relative to the checkout root
    drop_keys: tuple[str, ...] = ()  # keys removed so the config defaults apply
    agents: int = 2
    rounds: int = 3
    episodes: int = 1
    kind: str = "train"
    # Two agent threads plus BLAS: the single-threaded calibration kernel,
    # timed between rounds, tracked round speed worse than no scaling at all
    # (spread 0.29 against 0.18 over five seeds), so rounds are not scaled.
    calibrated: bool = False

    def setup(self, seed: int):
        """Config and network parse plus the first job's inputs; returns job state."""
        from feddrive.config import load_run_config

        path = ROOT / self.config
        if self.drop_keys:
            path = _derived_config(path, set(self.drop_keys), f"{self.name}.cfg")
        cfg = load_run_config(path, seed=seed, agents=self.agents, rounds=self.rounds, episodes=self.episodes)
        return {"path": path, "hp": cfg.federation.hp}

    def first_step_hook(self):
        import feddrive.federation as fed

        return fed, "run_round"

    def flops_per_update(self, state) -> int:
        """Computed floating-point operations of one DDPG update at the configured sizes."""
        hp = state["hp"]
        actor = _mac(6, hp.actor_hidden, 1)
        critic = _mac(7, hp.critic_hidden, 1)
        b = hp.batch_size
        # critic update: 3 critic-side forwards (target actor, target critic,
        # critic) and one backward; actor update: actor+critic forward, critic
        # backward, actor backward.  A backward costs two matmuls per layer.
        matmul = 2 * b * (actor + critic + critic) + 4 * b * critic
        matmul += 2 * b * (actor + critic) + 4 * b * (critic + actor)
        params = _params(6, hp.actor_hidden, 1) + _params(7, hp.critic_hidden, 1)
        elementwise = 12 * params + 2 * 3 * params  # Adam on both nets, two soft updates
        return matmul + elementwise

    def run_job(self, state, job_seed: int, counter: EpisodeCounter, around=None) -> JobResult:
        from feddrive.config import load_run_config
        from feddrive.container import load_container
        from feddrive.federation import run_training
        from feddrive.nn import flatten_params

        cfg = load_run_config(
            state["path"], seed=job_seed, agents=self.agents, rounds=self.rounds, episodes=self.episodes
        )
        fed = cfg.federation
        counter.reset(fed.hp.batch_size)
        res = JobResult(seed=job_seed, wall_s=0.0, attempted=fed.agents * fed.rounds, failed=0)
        OUT.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="job-", dir=OUT))
        try:
            t0 = time.perf_counter()
            try:
                if around is None:
                    gm, reports = run_training(fed, out_dir=tmp, config_hash=cfg.config_hash)
                else:
                    gm, reports = around(lambda: run_training(fed, out_dir=tmp, config_hash=cfg.config_hash))
            except Exception as exc:  # a failed job is counted, the run goes on
                res.wall_s = time.perf_counter() - t0
                res.failed = res.attempted
                res.error = f"{type(exc).__name__}: {exc}"
                return res
            res.wall_s = time.perf_counter() - t0

            res.steps = sum(r[2] for r in counter.rounds)
            res.episodes = sum(r[3] for r in counter.rounds)
            res.units = [(steps, wall, warm) for _, wall, steps, _, warm in counter.rounds]

            bad_rounds = set()
            if len(reports) != fed.rounds or len(counter.rounds) != fed.rounds:
                res.checks.append(f"expected {fed.rounds} rounds, got {len(reports)}")
                bad_rounds.update(range(fed.rounds))
            for rep in reports:
                r = rep.round_idx
                counts = [s.episodes for s in rep.per_agent]
                if counts != [fed.episodes_per_round] * fed.agents:
                    res.checks.append(f"round {r}: report episode counts {counts}")
                    bad_rounds.add(r)
                arrays, meta = load_container(tmp / f"round_{r}.ckpt")
                ckpt_counts = arrays["agent_episodes"].tolist()
                manifest = json.loads((tmp / f"round_{r}.manifest.json").read_text())
                man_counts = [manifest["agent_episodes"].get(str(i)) for i in range(fed.agents)]
                if ckpt_counts != [fed.episodes_per_round] * fed.agents or man_counts != ckpt_counts:
                    res.checks.append(f"round {r}: checkpoint episode counts {ckpt_counts}, manifest {man_counts}")
                    bad_rounds.add(r)
                if meta.get("round_idx") != r:
                    res.checks.append(f"round {r}: checkpoint says round {meta.get('round_idx')}")
                    bad_rounds.add(r)
            last = fed.rounds - 1
            arrays, _ = load_container(tmp / f"round_{last}.ckpt")
            for key, net in (
                ("actor_params", gm.actor),
                ("critic_params", gm.critic),
                ("target_actor_params", gm.target_actor),
                ("target_critic_params", gm.target_critic),
            ):
                flat = flatten_params(net)
                if arrays[key].shape != flat.shape or not (arrays[key] == flat).all():
                    res.checks.append(f"round {last}: reloaded {key} differs from the in-memory global model")
                    bad_rounds.add(last)
            res.failed = len(bad_rounds) * fed.agents
            res.digest = weights_digest(flatten_params(gm.actor), flatten_params(gm.critic))
            return res
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


def _mac(n_in: int, hidden, n_out: int) -> int:
    sizes = [n_in, *hidden, n_out]
    return sum(a * b for a, b in zip(sizes, sizes[1:]))


def _params(n_in: int, hidden, n_out: int) -> int:
    sizes = [n_in, *hidden, n_out]
    return sum(a * b + b for a, b in zip(sizes, sizes[1:]))


# -------------------------------------------------------------- evaluation

# Greedy acceleration the generated actor's output bias aims at.  An untrained
# actor brakes and idles each episode to the step cap, which is not what
# evaluating a trained policy looks like; with this bias most episodes arrive
# and some collide at the two longest distances.
EVAL_TARGET_ACCEL_MPS2 = 1.5


@dataclass
class EvalWorkload:
    name: str
    why: str
    config: str
    drop_keys: tuple[str, ...] = ()
    episodes: int = 20  # per distance and job
    kind: str = "eval"
    # One thread of interpreted Python and small NumPy calls, like the
    # calibration kernel: scaling cut the spread over five seeds from 0.26
    # to 0.045.
    calibrated: bool = True

    def setup(self, seed: int):
        """Config parse and actor generation; returns job state."""
        from feddrive import nn
        from feddrive.config import load_run_config

        path = ROOT / self.config
        if self.drop_keys:
            path = _derived_config(path, set(self.drop_keys), f"{self.name}.cfg")
        cfg = load_run_config(path, seed=seed)
        hp = cfg.federation.hp
        actor = nn.init_params(
            [6, *hp.actor_hidden, 1], ["relu"] * len(hp.actor_hidden) + ["tanh"], seed=seed
        )
        u = 2.0 * (EVAL_TARGET_ACCEL_MPS2 - hp.accel_min_mps2) / (hp.accel_max_mps2 - hp.accel_min_mps2) - 1.0
        head = actor.layers[-1]
        head = nn.LayerParams(weights=head.weights, bias=head.bias + math.atanh(u))
        actor = dataclasses.replace(actor, layers=actor.layers[:-1] + (head,))
        protocol = dataclasses.replace(cfg.eval_protocol, episodes=self.episodes)
        return {"actor": actor, "protocol": protocol, "hp": hp}

    def first_step_hook(self):
        import feddrive.evaluation as ev

        return ev, "rollout"

    def flops_per_update(self, state) -> int:
        return 0  # evaluation runs no updates

    def run_job(self, state, job_seed: int, counter: "RolloutCounter", around=None) -> JobResult:
        from feddrive.evaluation import evaluate
        from feddrive.nn import flatten_params

        proto = state["protocol"]
        proto = dataclasses.replace(proto, template=dataclasses.replace(proto.template, master_seed=job_seed))
        n = proto.episodes
        res = JobResult(seed=job_seed, wall_s=0.0, attempted=n * len(proto.distances_m), failed=0)
        counter.reset()
        t0 = time.perf_counter()
        try:
            if around is None:
                summary = evaluate(state["actor"], proto, policy_id=self.name)
            else:
                summary = around(lambda: evaluate(state["actor"], proto, policy_id=self.name))
        except Exception as exc:  # a failed job is counted, the run goes on
            res.wall_s = time.perf_counter() - t0
            res.failed = res.attempted
            res.error = f"{type(exc).__name__}: {exc}"
            return res
        res.wall_s = time.perf_counter() - t0
        res.steps = counter.steps
        res.episodes = counter.episodes
        res.units = [(res.episodes, res.wall_s, True)]
        outcomes = {"arrivals": 0, "collisions": 0, "timeouts": 0}
        for row in summary.rows:
            outcomes["arrivals"] += row.successes
            outcomes["collisions"] += row.collisions
            outcomes["timeouts"] += row.timeouts
            if row.episodes != n or row.successes + row.collisions + row.timeouts != n:
                res.checks.append(
                    f"{row.distance_m} m: {row.successes} arrivals + {row.collisions} collisions + "
                    f"{row.timeouts} timeouts over {row.episodes} episodes, {n} attempted"
                )
                res.failed += n
        if len(summary.rows) != len(proto.distances_m):
            res.checks.append(f"{len(summary.rows)} rows for {len(proto.distances_m)} distances")
            res.failed = res.attempted
        if counter.episodes != res.attempted:
            res.checks.append(f"{counter.episodes} rollouts for {res.attempted} episodes")
        res.outcomes = outcomes
        rows = [dataclasses.astuple(r) for r in summary.rows]
        res.digest = hashlib.sha256(
            bytes.fromhex(weights_digest(flatten_params(state["actor"]))) + repr(rows).encode()
        ).hexdigest()
        return res


class RolloutCounter:
    """Counts evaluation episodes and steps at the ``rollout`` boundary."""

    def __init__(self, evaluation):
        self._ev = evaluation
        self.steps = 0
        self.episodes = 0

    def reset(self, *_):
        self.steps = 0
        self.episodes = 0

    def __enter__(self):
        self._orig = orig = self._ev.rollout

        def rollout(world, policy, episode_seed, a_min, a_max):
            trace = orig(world, policy, episode_seed, a_min, a_max)
            self.steps += trace.steps
            self.episodes += 1
            return trace

        self._ev.rollout = rollout
        return self

    def __exit__(self, *exc):
        self._ev.rollout = self._orig
        return False


def counter_for(workload):
    if workload.kind == "train":
        import feddrive.federation as fed

        return EpisodeCounter(fed)
    import feddrive.evaluation as ev

    return RolloutCounter(ev)


_DESK_WHY = (
    "desk_trend.cfg as shipped (32x32 nets): per-call Python overhead, nn bookkeeping and agent-thread "
    "contention dominate, so nn-bookkeeping and concurrency changes show here"
)
_PAPER_WHY = (
    "desk scenario with the paper's 400x300 nets: cost is arithmetic and bytes moved (Adam, soft update, "
    "batch-64 forward/backward, 4 MB checkpoints) and sim is under 1%, the bypass case for sim changes"
)
_EVAL_WHY = (
    "paper eval protocol with a frozen 400x300 actor: batch-1 forward and sim step/reset only, no backward, "
    "Adam or federation, so sim and inference changes show here and training-only changes do not"
)

# Drops the net sizes (config defaults are the paper's 400 300) and the desk
# evaluation overrides (defaults are the paper's 20 episodes and 900 steps).
_PAPER_DROP = ("actor_hidden", "critic_hidden", "eval_max_steps", "eval_episodes")

WORKLOADS = {
    "train_desk": TrainWorkload("train_desk", _DESK_WHY, "configs/desk_trend.cfg", rounds=3, episodes=2),
    "train_paper": TrainWorkload(
        "train_paper", _PAPER_WHY, "configs/desk_trend.cfg", drop_keys=_PAPER_DROP, rounds=4, episodes=1
    ),
    "eval_paper": EvalWorkload(
        "eval_paper", _EVAL_WHY, "configs/desk_trend.cfg", drop_keys=_PAPER_DROP, episodes=20
    ),
}

# Toy sizes for the self-test: smoke_train.cfg (8x8 nets, 25-step episodes).
TOY = {
    "train_desk": TrainWorkload("train_desk", _DESK_WHY, "configs/smoke_train.cfg", rounds=2, episodes=2),
    "train_paper": TrainWorkload("train_paper", _PAPER_WHY, "configs/smoke_train.cfg", rounds=2, episodes=1),
    "eval_paper": EvalWorkload("eval_paper", _EVAL_WHY, "configs/smoke_train.cfg", episodes=2),
}
