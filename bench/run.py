#!/usr/bin/env python3
"""feddrive benchmark: one workload per invocation, closed loop, one process.

    python3 bench/run.py --workload train_desk --seed 0 --seconds 30 --trace 0

Run from the checkout root.  The workload seed generates every input the
program receives (job master seeds, the evaluation actor).  Jobs run back to
back until ``--seconds`` is spent; each job's outputs are checked.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` the same jobs run once untraced and once traced,
and the object carries the per-layer metrics.  A fuller result file, with the
machine fingerprint and per-job digests, goes to ``bench/out/`` (or ``--out``).
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibration  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 9

# throughput is environment steps summed over agents per second for train_*
# and evaluation episodes per second for eval_paper: one figure per workload,
# so every workload reports every metric.
END_TO_END = [
    ("throughput", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
USER_NAMES = {"train": "train_steps_per_s", "eval": "eval_episodes_per_s"}


def fingerprint() -> dict:
    import numpy as np

    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # numpy builds differ in what they report
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "platform": platform.platform(),
    }


def setup_probe(workload, seed: int) -> None:
    """Child side of the set-up measurement: print the clock at the first step."""

    class FirstStep(BaseException):  # not an Exception, so run_job does not count it as a failure
        pass

    wl.import_program()
    state = workload.setup(seed)
    module, attr = workload.first_step_hook()

    def hook(*args, **kwargs):
        raise FirstStep(time.perf_counter())

    setattr(module, attr, hook)
    counter = wl.counter_for(workload)
    try:
        with counter:
            res = workload.run_job(state, next(wl.job_seeds(seed)), counter)
    except FirstStep as done:
        print(repr(done.args[0]))
        return
    raise SystemExit(f"set-up probe never reached the first step: {res.error or res.checks}")


def measure_setup(args) -> list[float]:
    """Process start to first step, in fresh interpreters, as a user pays it.

    ``time.perf_counter`` is the system-wide monotonic clock on Linux, so the
    child's reading at its first step minus the parent's reading just before
    the launch is the child's whole start-up.  Set-up time is not scaled
    by machine speed: it tracks the calibration kernel too loosely for the
    scaling to help (spread 0.37 scaled against 0.22 unscaled over five
    seeds).
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)]
    if args.toy:
        cmd.append("--toy")
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        out.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return out


def run_jobs(workload, state, seeds, budget_s: float, counter, around=None, fixed=None, calibrate=True):
    """Closed loop: one job after another until the budget is spent.

    A new job starts only while the mean job so far still fits the budget,
    so a run ends close to its budget; at least one job always runs.  For a
    calibrated workload each job also records the machine speed around it.
    """
    results = []
    speed = calibration.Bracket(enabled=calibrate and workload.calibrated)
    t0 = time.perf_counter()
    with counter:
        while True:
            if fixed is not None:
                if len(results) == len(fixed):
                    break
                job_seed = fixed[len(results)]
            else:
                elapsed = time.perf_counter() - t0
                if results and elapsed + elapsed / len(results) > budget_s:
                    break
                job_seed = next(seeds)
            speed.begin()
            res = workload.run_job(state, job_seed, counter, around=around)
            res.speed = speed.end()
            results.append(res)
            status = "ok" if not res.failed and not res.checks else "FAILED"
            print(
                f"job {len(results) - 1} seed {job_seed} wall {res.wall_s:.3f}s steps {res.steps} "
                f"episodes {res.episodes} digest {res.digest} {status}",
                flush=True,
            )
            for msg in res.checks + ([res.error] if res.error else []):
                print(f"  check failed: {msg}", flush=True)
    return results


def end_to_end(results, setup_times) -> dict[str, float]:
    # Work over wall seconds of the counted units, each scaled to the nominal
    # machine speed measured around its job (calibration.py; 1 for workloads
    # that are not calibrated).
    units = [(work, wall * r.speed) for r in results for work, wall, counted in r.units if counted]
    if not units:  # no round started with warm replay buffers: count every round
        units = [(work, wall * r.speed) for r in results for work, wall, _ in r.units]
    wall = sum(w for _, w in units)
    return {
        "throughput": sum(work for work, _ in units) / wall if wall > 0 else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def unscaled_figures(results) -> dict[str, float]:
    """Unscaled wall-clock throughput and the machine speed, for the result file."""
    units = [(work, wall) for r in results for work, wall, counted in r.units if counted]
    wall = sum(w for _, w in units)
    return {
        "throughput_unscaled": sum(work for work, _ in units) / wall if wall > 0 else 0.0,
        "machine_speed_median": statistics.median(r.speed for r in results),
    }


def dump_record(record: dict) -> str:
    """Result file text: one key per line, and one line per job."""
    parts = []
    for key in sorted(record):
        value = record[key]
        if key in ("jobs", "untraced_jobs"):
            text = "[\n" + ",\n".join("  " + json.dumps(j, sort_keys=True) for j in value) + "\n ]"
        else:
            text = json.dumps(value, sort_keys=True)
        parts.append(f" {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="result file (default bench/out/<workload>.seed<N>.trace<T>.json)")
    parser.add_argument("--toy", action="store_true", help="smoke_train.cfg sizes, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = (wl.TOY if args.toy else wl.WORKLOADS)[args.workload]

    if args.setup_probe:
        setup_probe(workload, args.seed)
        return 0

    try:
        wl.import_program()
    except wl.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fp = fingerprint()
    print("fingerprint " + json.dumps(fp, sort_keys=True), flush=True)
    print(f"workload {workload.name}: {workload.why}", flush=True)

    out = Path(args.out) if args.out else wl.OUT / f"{workload.name}.seed{args.seed}.trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    setup_times = [] if args.trace else measure_setup(args)
    state = workload.setup(args.seed)
    seeds = wl.job_seeds(args.seed)
    counter = wl.counter_for(workload)

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "toy": args.toy, "fingerprint": fp, "setup_probes_s": setup_times}
    untraced = []
    if not args.trace:
        results = run_jobs(workload, state, seeds, args.seconds, counter)
        metrics = end_to_end(results, setup_times)
        units = dict(END_TO_END)
        record["unscaled"] = unscaled_figures(results)
    else:
        import tracing

        untraced = run_jobs(workload, state, seeds, args.seconds / 2, counter, calibrate=False)
        tracer = tracing.Tracer()
        job = lambda fn: fn()  # noqa: E731
        traced_job = tracer.wrap("bench.job", job)
        tracer.install()
        try:
            results = run_jobs(workload, state, seeds, 0, counter, around=traced_job,
                               fixed=[r.seed for r in untraced], calibrate=False)
        finally:
            tracer.restore()
        spans = tracer.spans()
        overhead = sum(r.wall_s for r in results) / sum(r.wall_s for r in untraced) - 1.0
        outcomes = {k: sum(r.outcomes.get(k, 0) for r in results) for k in ("arrivals", "collisions", "timeouts")}
        metrics, record["self_share_by_span"] = tracing.layer_metrics(
            tracer, spans, workload.flops_per_update(state), outcomes, overhead)
        units = {n: u for n, u, _ in tracing.catalogue()}
        tracer.save(out.with_name(out.stem + ".spans.npz"), spans)
        record["untraced_jobs"] = [r.__dict__ for r in untraced]

    checked = results + untraced
    attempted = sum(r.attempted for r in checked)
    failed = sum(r.failed for r in checked) + sum(1 for r in checked if r.checks and not r.failed)
    correct = failed == 0 and all(not r.checks and not r.error for r in checked)
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    if not args.trace:  # the same figure under the name users of the workload know it by
        print(f"{USER_NAMES[workload.kind]} {metrics['throughput']!r} 1/s")
    print(f"failed_frac {failed / attempted!r} ({failed} of {attempted} attempted)")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    record.update(jobs=[r.__dict__ for r in results], result=result)
    out.write_text(dump_record(record))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
