"""One workload in a fresh interpreter: set up, then (unless --setup-only) measure.

Launched by run.py from the repository root with `src` on PYTHONPATH.
Prints `READY <perf_counter>` once set-up ends (CLOCK_MONOTONIC, so the
parent can subtract its own launch time) and, after measuring, one line
`RESULT <json>`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc

import common  # stdlib only; loaded before the timed import below

import multigrip  # noqa: E402  (the import is part of set-up)

import classify  # noqa: E402
import cli_cold  # noqa: E402
import sims  # noqa: E402

WORKLOADS = {
    "sim-random": sims.SimRandom,
    "sim-laps": sims.SimLaps,
    "classify-mix": classify.ClassifyMix,
    "cli-cold": cli_cold.CliCold,
}
# Metric that a tracemalloc probe of the heaviest item fills in.
PEAK_METRIC = {"sim-random": "sim.trace.peak_mb", "sim-laps": "sim.trace.peak_mb",
               "classify-mix": "grasp.caging.peak_mb"}


def layer_targets(tracer: common.Tracer):
    """Public functions at each layer boundary, wrapped in spans when tracing."""
    from multigrip import cli, grasp, mechanics, objects, planner, sim

    def caging_name(args):
        disk = isinstance(args[0].shape, objects.Circle)
        return "grasp.caging.disk" if disk else "grasp.caging.polygon"

    def count(name, amount):
        return lambda result, args: tracer.count(name, amount(result, args))

    return [
        (mechanics, "detent_peak", "mechanics.detent_peak", None),
        (sim, "detent_peak", "mechanics.detent_peak", None),
        (sim, "grasp_scenario", "sim.scenario_build", None),
        (sim, "switch_scenario", "sim.scenario_build", None),
        (sim, "run_scenario", "sim.run",
         count("sim.steps", lambda trace, _: len(trace.rows) - 1)),
        (sim, "write_trace_csv", "sim.csv",
         count("sim.csv.bytes", lambda _, args: args[1].tell())),
        (grasp, "closure_separation", "grasp.closure_separation", None),
        (grasp, "compute_contacts", "grasp.compute_contacts", None),
        (grasp, "form_closure_test", "grasp.form_closure", None),
        (grasp, "force_closure_test", "grasp.force_closure", None),
        (grasp, "caging_test", caging_name, None),
        # free-space grid handed to the flood fill: angles * x * y cells
        (grasp, "_reachable_region", "grasp.caging.flood_fill",
         count("grasp.caging.cells", lambda _, args: args[0].size)),
        (planner, "select_mode", "planner.select_mode", None),
        (cli, "load_config", "config.load", None),
        (cli, "load_object_file", "objects.load", None),
        (cli, "dispatch", "cli.dispatch", None),
    ]


def layer_metrics(tracer: common.Tracer, passes: int) -> dict[str, float]:
    summary = tracer.summary()

    def ms(name, key="self_s"):
        s = summary.get(name)
        return 1000.0 * s[key] / s["calls"] if s else 0.0

    def calls(*names):
        return sum(summary[n]["calls"] for n in names if n in summary) / passes

    steps = tracer.counts["sim.steps"]
    run_self = summary.get("sim.run", {}).get("self_s", 0.0)
    metrics = {
        "mechanics.detent_peak.calls": calls("mechanics.detent_peak"),
        "sim.steps": steps / passes,
        "sim.us_per_step": 1e6 * run_self / steps if steps else 0.0,
        "sim.csv.bytes": tracer.counts["sim.csv.bytes"] / passes,
        "grasp.caging.calls": calls("grasp.caging.disk", "grasp.caging.polygon"),
        "grasp.caging.cells": tracer.counts["grasp.caging.cells"] / passes,
    }
    for name in ("mechanics.detent_peak", "sim.scenario_build", "sim.run", "sim.csv",
                 "grasp.closure_separation", "grasp.compute_contacts",
                 "grasp.form_closure", "grasp.force_closure", "grasp.caging.disk",
                 "grasp.caging.polygon", "grasp.caging.flood_fill", "objects.load",
                 "config.load",
                 "planner.select_mode"):
        metrics[f"{name}.ms"] = ms(name)
    # inclusive, the warm counterpart of one cold CLI launch
    metrics["cli.dispatch.ms"] = ms("cli.dispatch", "total_s")
    return metrics


def peak_mb(workload, item) -> float:
    tracemalloc.start()
    try:
        workload.op(item)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def measure_traced(name, workload, seconds: float) -> dict:
    """Untraced half, traced half, then layer metrics and memory probes.

    Layer times are raw wall times; the two rates are speed-normalized like
    the end-to-end metrics, so their difference is the tracing overhead.
    """
    plain = common.run_timed(workload, workload.items, seconds / 2)
    tracer = common.Tracer()
    workload.tracer = tracer  # read by workloads that record their own spans
    with tracer.instrument(layer_targets(tracer)):
        traced = common.run_timed(workload, workload.items, seconds / 2, tracer,
                                  whole_passes=True)
    workload.tracer = None
    layer_tracer, layer_passes = tracer, traced.passes
    if name == "cli-cold":
        # the layers run in the children; trace one warm in-process pass instead
        layer_tracer, layer_passes = common.Tracer(), 1
        with layer_tracer.instrument(layer_targets(layer_tracer)):
            for item in workload.items:
                workload.dispatch(item)
    metrics = layer_metrics(layer_tracer, layer_passes)
    metrics["cli.cold_minus_warm.ms"] = 0.0
    if name == "cli-cold":
        metrics["cli.cold_minus_warm.ms"] = (1000.0 * sum(plain.raw) / len(plain.raw)
                                             - metrics["cli.dispatch.ms"])
    metrics["sim.trace.peak_mb"] = metrics["grasp.caging.peak_mb"] = 0.0
    if name in PEAK_METRIC:
        first_pass = traced.raw[:len(workload.items)]
        heaviest = workload.items[first_pass.index(max(first_pass))]
        metrics[PEAK_METRIC[name]] = peak_mb(workload, heaviest)
    metrics.update({
        "trace.ops_per_s.untraced": plain.rate(),
        "trace.ops_per_s.traced": traced.rate(),
        "trace.overhead.ops_per_s": traced.rate() - plain.rate(),
    })
    os.makedirs(".perfbench_out", exist_ok=True)
    with open(f".perfbench_out/{name}-spans.jsonl", "w", encoding="utf-8") as fh:
        tracer.write_jsonl(fh)
        if layer_tracer is not tracer:
            layer_tracer.write_jsonl(fh)
    return {"attempted": len(plain.raw) + len(traced.raw),
            "failed": plain.failed + traced.failed, "metrics": metrics, "report": {}}


def measure(name, workload, seconds: float) -> dict:
    timed = common.run_timed(workload, workload.items, seconds)

    def latency_metrics(times):
        ms = [1000.0 * t for t in times]
        return {"ops_per_s": len(times) / sum(times),
                "latency_p50_ms": common.percentile(ms, 50),
                "latency_p90_ms": common.percentile(ms, 90)}

    metrics = latency_metrics(timed.latencies)
    metrics["peak_rss_mb"] = (workload.peak_rss_mb if name == "cli-cold" else
                              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return {"attempted": len(timed.raw), "failed": timed.failed, "metrics": metrics,
            "report": {"latency_samples": len(timed.raw),
                       "raw_wall": latency_metrics(timed.raw),
                       "speed_factor_median": statistics.median(timed.speed)}}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.abspath(multigrip.__file__).startswith(os.path.join(root, "src") + os.sep):
        print(f"error: imported {multigrip.__file__}, not the checkout's src/",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, root)
    for item in workload.warmup_items:
        workload.check(item, workload.op(item))
    print(f"READY {time.perf_counter()!r}", flush=True)
    if args.setup_only:
        return 0
    run = measure_traced if args.trace else measure
    print("RESULT " + json.dumps(run(args.workload, workload, args.seconds)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
