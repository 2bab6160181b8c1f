"""Benchmark of the inflap solver: time, memory and accuracy of three workloads.

    python3 perfbench/run.py --workload aronsson-adaptive --seed 1 --seconds 25 --trace 0

Each repetition runs in a fresh ``rep.py`` process (closed loop, one run at
a time, BLAS limited to one thread), so peak memory belongs to that run.
Repetitions start until ``--seconds`` have passed; five set-up-only
processes run first so that ``setup_s`` is a median over several set-ups.
With ``--trace 0`` the last line of standard output reports the end-to-end
metrics, medians over the repetitions; with ``--trace 1`` every round runs
one untraced and one traced repetition, in an order drawn from ``--seed``,
and the line reports the per-layer metrics of the traced ones plus the
tracing overhead.  ``--workload all`` runs every workload in rounds of
seed-shuffled order and prefixes each metric with its workload.  The
workloads are deterministic: the seed only orders the work.

A repetition fails when it raises, when a solve stops unconverged, or when
its output check fails; ``failed`` counts them and the exit code is 1.  The
exit code is 2, with nothing on standard output, when the package source is
missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "inflap"
WORKLOADS = ("classical-cli", "aronsson-converged", "aronsson-adaptive")
SETUP_PROBES = 5
BLAS_THREADS = "1"
RUN_LIMIT_S = 170.0     # a stuck repetition is killed so the run ends in time


def _git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted(SOURCE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    return env


def _repetition(args, workload, traced, deadline):
    """Run one ``rep.py`` process; return its record (``problems`` set on failure)."""
    command = [sys.executable, str(HERE / "rep.py"), "--out", str(args.out)]
    if workload is not None:
        command += ["--workload", workload, "--trace", str(int(traced))]
        if args.tiny:
            command.append("--tiny")
        if args.break_check:
            command.append("--break-check")
    timeout = max(10.0, deadline - time.perf_counter())
    try:
        done = subprocess.run(command, env=_child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"problems": [f"timed out after {timeout:.0f} s"]}
    sys.stderr.write(done.stderr)
    try:
        record = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"problems": [f"exited with code {done.returncode} and no record"]}
    if done.returncode != 0:
        record.setdefault("problems", []).append(f"exit code {done.returncode}")
    return record


def _median(records, key):
    values = [r[key] for r in records if r.get(key) is not None]
    return statistics.median(values) if values else None


def _metrics(trace, setup_s, untraced, traced):
    """Metric name -> (value, unit) for one workload."""
    good = [r for r in untraced if not r["problems"]] or untraced
    if not trace:
        return {"wall_s": (_median(good, "wall_s"), "s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (_median(good, "peak_rss_mb"), "MB"),
                "l2_error": (_median(good, "l2_error"), "1")}
    layers = [r["layers"] for r in traced if "layers" in r]
    metrics = {}
    for name, unit in layertrace.layer_metrics().items():
        median = statistics.median if unit == "s" else statistics.median_low  # counts stay whole
        metrics[name] = (median(layer[name] for layer in layers) if layers else None, unit)
    walls = [_median(untraced, "wall_s"), _median(traced, "wall_s")]
    metrics["trace.overhead_s"] = (walls[1] - walls[0] if None not in walls else None, "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for spans and scratch output")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: 2 levels, estimator tolerance 0.5")
    parser.add_argument("--break-check", action="store_true",
                        help="add a check that always fails (tests the failure count)")
    args = parser.parse_args(argv)

    if not (SOURCE / "__init__.py").is_file():
        print(f"error: package source {SOURCE} not found", file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    kinds = [False, True] if args.trace else [False]
    rng = random.Random(args.seed)

    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    setups = [_repetition(args, None, False, deadline) for _ in range(SETUP_PROBES)]
    if any(r.get("problems") for r in setups):
        print(f"error: set-up failed: {setups}", file=sys.stderr)
        return 2
    runs = {name: [] for name in names}
    while True:
        for name in rng.sample(names, len(names)):
            for traced in rng.sample(kinds, len(kinds)):
                record = _repetition(args, name, traced, deadline)
                runs[name].append((traced, record))
        if time.perf_counter() - start >= args.seconds:
            break

    records = setups + [r for done in runs.values() for _, r in done]
    setup_s = statistics.median(r["setup_s"] for r in records if "setup_s" in r)
    metrics, attempted, failed = {}, 0, 0
    for name, done in runs.items():
        records = [r for _, r in done]
        attempted += len(records)
        failed += sum(1 for r in records if r["problems"])
        untraced = [r for traced, r in done if not traced]
        traced = [r for traced, r in done if traced]
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, (value, unit) in _metrics(args.trace, setup_s, untraced,
                                              traced).items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
        for record in records:
            for problem in record["problems"]:
                print(f"{name}: {problem}", file=sys.stderr)

    versions = setups[0]["versions"]
    print(json.dumps({"env": {
        "git_sha": _git_sha(), "source_sha256": _source_sha256(),
        "nproc": len(os.sched_getaffinity(0)), **versions, "blas_threads": BLAS_THREADS,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "repetitions": {name: [{k: r.get(k) for k in ("wall_s", "setup_s", "peak_rss_mb")}
                               | {"traced": traced} for traced, r in done]
                        for name, done in runs.items()},
        "elapsed_s": time.perf_counter() - start}}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
