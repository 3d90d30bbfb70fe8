"""multigrip benchmark: one workload, closed loop, one client, no worker threads.

Usage, from the repository root:

    python3 perfbench/run.py --workload sim-random --seed 1 --seconds 20 --trace 0

Set-up is timed in SETUPS fresh interpreters (the last one then measures)
and reported as their median.  With --trace 0 the last stdout line holds
the end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run.  The line before it reports the run environment, sample count
and failed ratio.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import REFERENCE_S, parse_importtime, reference_time  # noqa: E402

WORKLOADS = ("sim-random", "sim-laps", "classify-mix", "cli-cold")
SETUPS = 3
HARNESS_MODULES = {"common", "classify", "cli_cold", "sims"}
DEADLINE_S = 170.0  # whole run, set-ups included


class RunError(Exception):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def launch(argv: list[str], env: dict, deadline: float):
    """Run one worker; returns (seconds to READY, stdout lines, stderr)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError(f"worker exceeded the {DEADLINE_S:g} s run deadline") from None
    lines = out.splitlines()
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}:\n{err[-3000:]}")
    ready = [float(line.split()[1]) for line in lines if line.startswith("READY ")]
    if not ready:
        raise RunError(f"worker never became ready:\n{err[-3000:]}")
    return ready[0] - start, lines, err


def environment(seed: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": len(os.sched_getaffinity(0)),
            "seed": seed}


def loadavg() -> str:
    with open("/proc/loadavg", encoding="ascii") as fh:
        return fh.read().strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    for needed in ("BENCHMARK.json", "src/multigrip/__init__.py", "fixtures/default.cfg"):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"error: {needed} not found; run from the repository root",
                  file=sys.stderr)
            return 2

    deadline = time.perf_counter() + DEADLINE_S
    env = child_env(root)
    python = [sys.executable] + (["-X", "importtime"] if args.trace else [])
    worker = [*python, os.path.join(HERE, "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", repr(args.seconds),
              "--trace", str(args.trace)]
    report = {"workload": args.workload, "env": environment(args.seed),
              "loadavg_before": loadavg()}
    # One CPU for this client, the worker and its CLI children, so that the
    # reference loop times the core the ops run on (see Noise in README.md).
    report["cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {report["cpu"]})
    setups, raw_setups, imports = [], [], []
    try:
        for i in range(SETUPS):
            last = i == SETUPS - 1
            before = reference_time()
            seconds, lines, err = launch(worker if last else [*worker, "--setup-only"],
                                         env, deadline)
            raw_setups.append(seconds)
            # speed-normalized like op times, from the loop timed around the launch
            setups.append(seconds * 2 * REFERENCE_S / (before + reference_time()))
            if args.trace:
                imports.append(parse_importtime(err, HARNESS_MODULES))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = [line[len("RESULT "):] for line in lines if line.startswith("RESULT ")]
    if not results:
        print(f"error: worker printed no result:\n{err[-3000:]}", file=sys.stderr)
        return 1
    result = json.loads(results[0])
    metrics = result["metrics"]
    if args.trace:
        for key in imports[0]:
            metrics[key] = statistics.median(sample[key] for sample in imports)
    else:
        metrics["setup_s"] = statistics.median(setups)
    report.update(result["report"])
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: worker did not report {missing}", file=sys.stderr)
        return 1
    sys.stderr.writelines(line + "\n" for line in err.splitlines()
                          if not line.startswith("import time:"))
    report.update(loadavg_after=loadavg(), setup_samples_s=setups,
                  raw_setup_samples_s=raw_setups,
                  failed_ratio=result["failed"] / result["attempted"])
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
