#!/usr/bin/env python3
"""Fast self-test of the benchmark at toy sizes (smoke_train.cfg scale).

    python3 bench/selftest.py

Runs every workload with ``--toy`` for one second, traced and untraced, and
checks that every metric named in BENCHMARK.json is emitted with its unit,
that the result files validate, that weight digests repeat for a repeated
seed and under tracing, that per-layer self times account for the traced
time, that ``bench/layer_map.json`` names only known metrics, and that the
benchmark refuses to run where the program's sources are missing.  It takes
about a minute and is not part of the test suite.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
FINGERPRINT_KEYS = {"nproc", "cpu_model", "python", "numpy", "blas"}


class SelfTestError(AssertionError):
    pass


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise SelfTestError(msg)


def run(workload: str, seed: int, trace: int, tag: str, cwd: Path = ROOT) -> tuple[dict, dict]:
    out = OUT / f"{workload}.{tag}.json"
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--toy", "--out", str(out)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    check(proc.returncode == 0, f"{workload} {tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return last, json.loads(out.read_text())


def validate(workload: str, trace: int, last: dict, record: dict) -> None:
    where = f"{workload} trace {trace}"
    check(set(last) == RESULT_KEYS, f"{where}: result keys {sorted(last)}")
    check(last["correct"] is True and last["failed"] == 0, f"{where}: correct {last['correct']}, failed {last['failed']}")
    check(isinstance(last["attempted"], int) and last["attempted"] >= 1, f"{where}: attempted {last['attempted']}")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = last["metrics"]
    check(set(got) == set(want), f"{where}: missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, entry in got.items():
        check(set(entry) == {"value", "unit"}, f"{where}: {name} keys {sorted(entry)}")
        check(entry["unit"] == want[name], f"{where}: {name} unit {entry['unit']} != {want[name]}")
        v = entry["value"]
        check(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v), f"{where}: {name} = {v!r}")
    if not trace:
        for m in SPEC["end_to_end"]:
            check(got[m["name"]]["value"] > 0, f"{where}: end-to-end metric {m['name']} is not positive")
    check(record["result"] == last, f"{where}: result file disagrees with stdout")
    check(record["workload"] == workload and record["trace"] == trace, f"{where}: result file header")
    check(FINGERPRINT_KEYS <= set(record["fingerprint"]), f"{where}: fingerprint {sorted(record['fingerprint'])}")
    check(record["jobs"], f"{where}: no jobs recorded")
    for job in record["jobs"]:
        check(re.fullmatch(r"[0-9a-f]{64}", job["digest"]) is not None, f"{where}: digest {job['digest']!r}")
    if trace:
        shares = sum(v["value"] for k, v in got.items() if k.endswith(".self_frac")) + got["trace.untraced_frac"]["value"]
        check(abs(shares - 1.0) < 1e-9, f"{where}: layer self shares plus untraced sum to {shares}")
        check(got["trace.spans"]["value"] > 0, f"{where}: no spans")


def digests(record: dict, key: str = "jobs") -> list[str]:
    return [j["digest"] for j in record[key]]


def check_layer_map() -> None:
    entries = json.loads((BENCH / "layer_map.json").read_text())["pairs"]
    layer = {m["name"].rsplit(".", 1)[0] for m in SPEC["per_layer"]} | {m["name"] for m in SPEC["per_layer"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    names = {w["name"] for w in SPEC["workloads"]}
    for e in entries:
        check(e["layer_metric"] in layer, f"layer_map: unknown layer metric {e['layer_metric']}")
        check(e["end_to_end"] in e2e, f"layer_map: unknown end-to-end metric {e['end_to_end']}")
        check(e["workload"] in names, f"layer_map: unknown workload {e['workload']}")
        check(e["prediction"] in ("moves", "small", "no change"), f"layer_map: prediction {e['prediction']}")


def check_refuses_without_program() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, "bench/run.py", "--workload", SPEC["workloads"][0]["name"], "--seed", "0",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "benchmark ran without the program's sources")
    check('"correct"' not in proc.stdout, "benchmark printed a result without the program's sources")


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    check_layer_map()
    for w in (w["name"] for w in SPEC["workloads"]):
        first, rec1 = run(w, 3, 0, "a")
        validate(w, 0, first, rec1)
        again, rec2 = run(w, 3, 0, "b")
        validate(w, 0, again, rec2)
        n = min(len(rec1["jobs"]), len(rec2["jobs"]))
        check(digests(rec1)[:n] == digests(rec2)[:n], f"{w}: digests differ between runs of seed 3")
        traced, rec3 = run(w, 3, 1, "t")
        validate(w, 1, traced, rec3)
        check(digests(rec3) == digests(rec3, "untraced_jobs"), f"{w}: tracing changed the digests")
        print(f"ok {w}")
    check_refuses_without_program()
    print("ok refuses to run without the program's sources")
    shutil.rmtree(OUT, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SelfTestError as exc:
        print(f"selftest FAILED: {exc}")
        sys.exit(1)
