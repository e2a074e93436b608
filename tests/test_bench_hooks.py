"""The benchmark's hooks still fit the program.

``bench/`` counts work by wrapping program functions by name (``run_round``,
``train_episode``, ``rollout``) and traces it by patching more of them.  A
refactor that renames one would make the benchmark read zero throughput or
fail to start; these tests run one toy-size job per workload in-process, the
way ``bench/run.py`` does, and fail instead.
"""

import importlib
import sys

import pytest

from tests.conftest import REPO

BENCH = REPO / "bench"


@pytest.fixture
def bench(monkeypatch, tmp_path):
    """``bench/workloads.py`` and ``bench/tracing.py``, writing under ``tmp_path``."""
    monkeypatch.setattr(sys, "path", [str(BENCH), *sys.path])  # import_program prepends src; undone on exit
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    monkeypatch.setattr(workloads, "OUT", tmp_path)
    workloads.import_program()
    return workloads, tracing


def run_toy_job(workloads, name, around=None):
    workload = workloads.TOY[name]
    state = workload.setup(0)
    counter = workloads.counter_for(workload)
    with counter:
        return workload.run_job(state, next(workloads.job_seeds(0)), counter, around=around)


def check_job(res, kind):
    assert res.error == "" and res.checks == [] and res.failed == 0
    if kind == "eval":
        assert res.episodes == res.attempted > 0  # every attempted episode was counted
    else:
        assert res.steps > 0 and res.episodes > 0


@pytest.mark.parametrize("name", ["train_desk", "train_paper", "eval_paper"])
def test_toy_job_counts_its_work(bench, name):
    workloads, _ = bench
    check_job(run_toy_job(workloads, name), workloads.TOY[name].kind)


def test_tracer_install_and_restore_round_trip(bench):
    workloads, tracing = bench
    import feddrive.ddpg as ddpg
    import feddrive.evaluation as ev
    import feddrive.federation as fed

    before = (ddpg.forward, ddpg.ReplayBuffer.sample, fed.run_round, fed.train_episode, ev.rollout)
    tracer = tracing.Tracer()
    job = tracer.wrap("bench.job", lambda fn: fn())
    tracer.install()
    try:
        assert ddpg.ReplayBuffer.sample is not before[1] and ev.rollout is not before[4]
        for name in ("train_desk", "eval_paper"):
            check_job(run_toy_job(workloads, name, around=job), workloads.TOY[name].kind)
    finally:
        tracer.restore()
    assert (ddpg.forward, ddpg.ReplayBuffer.sample, fed.run_round, fed.train_episode, ev.rollout) == before
    names = {tracer.names[i] for i in tracer.spans()["name"]}
    assert {"ddpg.replay_sample", "ddpg.replay_store", "evaluation.rollout", "sim.step"} <= names
