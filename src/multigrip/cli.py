"""Command-line interface.

Angles are degrees and torques N*mm at this boundary; conversion to the
library's radians happens here.  Subcommands write CSV to --out when given,
otherwise to stdout.  Exit status is 0 on success and nonzero with a
one-line diagnostic on stderr otherwise; each warning raised while a
command runs is one stderr line, `warning: <message>`.

Each subcommand imports only the layers it runs.  All of them load
`config`, which brings `mechanics`, `modes` and `_keyvalue`; that is all
`validate-gears`, `modes` and `sweep` need.  `simulate` adds `control`
and `sim`, `plan` adds `planner`, `control` and `objects`, and `classify`
adds `objects` and `grasp`.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
import warnings
from typing import TYPE_CHECKING, Sequence

from . import mechanics, modes
from .config import RunConfig, default_config, load_config, set_config_value

if TYPE_CHECKING:
    from . import grasp, objects, sim

__all__ = ["dispatch", "main"]


class CliError(Exception):
    pass


def _load(args) -> RunConfig:
    if args.config:
        return load_config(args.config)
    return default_config()


def load_object_file(path) -> objects.ObjectDescription:
    from . import objects
    return objects.load_object_file(path)


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_validate_gears(args) -> int:
    cfg = _load(args)  # a loaded config already has antipodal gearing
    interval = mechanics.switch_interval(cfg.gears, cfg.counts)
    lines = [
        f"rotation_ratio_3s={cfg.gears.rotation_ratio_3s:.9g}",
        f"rotation_ratio_4s={cfg.gears.rotation_ratio_4s:.9g}",
        f"torque_arm_3s_mm={cfg.gears.torque_arm_3s:.9g}",
        f"torque_arm_4s_mm={cfg.gears.torque_arm_4s:.9g}",
        f"delta_theta_sw_deg={math.degrees(interval):g}",
        f"n_GC={mechanics.gc_mode_count(cfg.counts)}",
    ]
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_modes(args) -> int:
    cfg = _load(args)
    table = modes.build_mode_table(cfg.counts, cfg.order_3s, cfg.order_4s)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["mode", "label", "surface_3s", "surface_4s"])
    for k in range(1, len(table) + 1):
        s3, s4 = table.entry(k)
        writer.writerow([k, table.label(k), str(s3), str(s4)])
    pairs = sorted(modes.distinct_shape_pairs(table),
                   key=lambda p: (str(p[0]), str(p[1])))
    buf.write(f"distinct_pairs={len(pairs)}\n")
    for a, b in pairs:
        buf.write(f"{a} | {b}\n")
    _emit(args, buf.getvalue())
    return 0


def _run_and_write(args, scenario: sim.Scenario) -> sim.SimTrace:
    """Run a scenario and write its trace; a simulator error is a CLI error."""
    from . import sim
    try:
        trace = sim.run_scenario(scenario)
    except sim.SimError as exc:
        raise CliError(str(exc)) from None
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            sim.write_trace_csv(trace, fh)
    else:
        sim.write_trace_csv(trace, sys.stdout)
    if getattr(args, "events", None):
        with open(args.events, "w", encoding="utf-8", newline="") as fh:
            sim.write_events_csv(trace, fh)
    return trace


def _grasp_target(cfg: RunConfig, object_path: str | None, mode: int) -> tuple | None:
    """An object file's spec and the surface pair of one mode of the configured
    table, for an object the stroke can span; None, once the mode is checked,
    without an object file."""
    table = modes.build_mode_table(cfg.counts, cfg.order_3s, cfg.order_4s)
    _check_mode("--mode", mode, len(table))
    if object_path is None:
        return None
    spec, pair = load_object_file(object_path).spec, table.entry(mode)
    spec.check_stroke(cfg.stroke_limit)
    return spec, pair


def _classify(cfg: RunConfig, target: tuple) -> grasp.GraspResult:
    """Classify the grasp of a (spec, surface pair) target."""
    from . import grasp
    return grasp.classify_grasp(*target, face_width=cfg.face_width,
                                thin_threshold=cfg.thin_object, stroke=cfg.stroke_limit)


def _check_flag(flag: str, value: float, positive: bool) -> None:
    """Refuse a non-finite or out-of-domain flag value, naming the flag."""
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        domain = "positive" if positive else "non-negative"
        raise CliError(f"{flag} must be {domain} and finite, got {value:g}")


def _check_mode(flag: str, mode: int, count: int) -> None:
    """Refuse a mode index outside the configured table, naming the flag."""
    if not 1 <= mode <= count:
        raise CliError(f"{flag} must be a mode in 1..{count}, got {mode}")


def _check_gap(gap: float, cfg: RunConfig, positive: bool) -> None:
    _check_flag("--gap", gap, positive)
    if gap > cfg.stroke_limit:
        raise CliError(f"gap {gap:g} mm exceeds the stroke limit "
                       f"{cfg.stroke_limit:g} mm")


def _cmd_simulate_grasp(args) -> int:
    from . import sim
    cfg = _load(args)
    _check_flag("--force", args.force, positive=True)
    radius = cfg.gears.input_sprocket_radius
    if not math.isfinite(args.force * radius):
        raise CliError(f"--force {args.force:g} N overflows the motor torque target "
                       f"at the {radius:g} mm input sprocket radius")
    _check_gap(args.gap, cfg, positive=True)   # the object must be touched
    target = _grasp_target(cfg, args.object, args.mode)
    scenario = sim.grasp_scenario(
        cfg.gears, cfg.magnet, cfg.counts,
        target_force=args.force, gap=args.gap,
        stroke_limit=cfg.stroke_limit, step_deg=cfg.step_deg,
        torque_step=cfg.torque_step, friction_torque=cfg.friction_torque)
    trace = _run_and_write(args, scenario)
    final = trace.rows[-1]
    print(f"final_f_g_N={final.f_g:g} final_tau_m_Nmm={final.tau_m:g} "
          f"steps={final.step}", file=sys.stderr)
    if target:
        result = _classify(cfg, target)
        print(f"classification={result.outcome.value}", file=sys.stderr)
    return 0


def _cmd_simulate_switch(args) -> int:
    from . import sim
    cfg = _load(args)
    _check_gap(args.gap, cfg, positive=False)   # 0 starts at the stopper
    count = mechanics.gc_mode_count(cfg.counts)
    _check_mode("--from", args.from_mode, count)
    _check_mode("--to", args.to_mode, count)
    scenario, _ = sim.switch_scenario(
        cfg.gears, cfg.magnet, cfg.counts,
        from_mode=args.from_mode, to_mode=args.to_mode, gap=args.gap,
        stroke_limit=cfg.stroke_limit, step_deg=cfg.step_deg,
        friction_torque=cfg.friction_torque)
    trace = _run_and_write(args, scenario)
    changes = trace.events_of(sim.EVENT_MODE_CHANGED)
    open_ref = args.gap / cfg.gears.input_sprocket_radius
    switch_travel = math.degrees(trace.rows[-1].theta_m - open_ref)
    print(f"mode_changes={len(changes)} final_mode={trace.final_state.mode_index} "
          f"switch_travel_deg={switch_travel:g}", file=sys.stderr)
    return 0


def _cmd_plan(args) -> int:
    from . import planner
    cfg = _load(args)
    desc = load_object_file(args.object)
    table = modes.build_mode_table(cfg.counts, cfg.order_3s, cfg.order_4s)
    _check_mode("--current-mode", args.current_mode, len(table))
    faces = planner.faces_from_description(desc)
    interval = mechanics.switch_interval(cfg.gears, cfg.counts)
    result = planner.select_mode(
        faces, args.current_mode, table, interval,
        planner.PlannerThresholds(small_object_height=cfg.small_object_height))
    lines = [
        f"k_goal={result.k_goal}",
        f"rotation_deg={math.degrees(result.rotation):g}",
        f"fallback_used={str(result.fallback_used).lower()}",
    ]
    lines += [f"rationale: {r}" for r in result.rationale]
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_classify(args) -> int:
    cfg = _load(args)
    result = _classify(cfg, _grasp_target(cfg, args.object, args.mode))
    report = (f"classification={result.outcome.value} "
              f"contacts={len(result.contacts)} "
              f"posture_uncertain={str(result.posture_uncertain).lower()}")
    if result.reason:
        report += f" reason={result.reason!r}"
    _emit(args, report + "\n")
    if args.contacts_out:
        from . import grasp
        with open(args.contacts_out, "w", encoding="utf-8", newline="") as fh:
            grasp.write_contacts_csv(result.contacts, fh)
    return 0


# Most points one sweep may evaluate.
_MAX_SWEEP_POINTS = 10_000


def _parse_range(spec: str) -> list[float]:
    """Points start + k*step up to stop (inclusive within 1e-12 relative)."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise CliError("--range expects start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise CliError(f"non-numeric range component in {spec!r}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise CliError(f"range {spec!r} has a non-finite component")
    if step <= 0:
        raise CliError("range step must be positive")
    limit = stop + 1e-12 * max(abs(stop), 1.0)
    span = (limit - start) / step
    if span >= _MAX_SWEEP_POINTS:
        raise CliError(f"range {spec!r} holds more than {_MAX_SWEEP_POINTS} "
                       "points")
    count = max(math.floor(span) + 2, 0)  # one spare against rounding in span
    values = [v for v in (start + k * step for k in range(count)) if v <= limit]
    if not values:
        raise CliError(f"range {spec!r} contains no points")
    return values


_METRIC_COLUMNS = {
    "peak-detent": ["detent_peak_theta_deg", "detent_peak_torque_nmm"],
    "breakaway": ["breakaway_torque_nmm"],
    "switch-interval": ["switch_interval_deg"],
}


def _metric_values(metric: str, cfg: RunConfig) -> list[float]:
    if metric == "peak-detent":
        angle, torque = mechanics.detent_peak(cfg.magnet)
        return [math.degrees(angle), torque]
    if metric == "breakaway":
        return [mechanics.breakaway_motor_torque(cfg.gears, cfg.magnet)]
    return [math.degrees(mechanics.switch_interval(cfg.gears, cfg.counts))]


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    values = _parse_range(args.range)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", args.param, *_METRIC_COLUMNS[args.metric]])
    for i, value in enumerate(values):
        point = set_config_value(cfg, args.param, value)
        writer.writerow([i, repr(value),
                         *[repr(m) for m in _metric_values(args.metric, point)]])
    _emit(args, buf.getvalue())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multigrip",
        description="Simulate, control and plan grasps for a single-motor "
                    "multi-surface gripper.")
    parser.add_argument("--config", help="configuration file (defaults built in)")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate-gears", help="check gear ratios and print "
                                              "the derived switching numbers")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_validate_gears)

    p = sub.add_parser("modes", help="print the mode table and the collapsed "
                                     "unordered surface pairs")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_modes)

    p = sub.add_parser("simulate", help="run a scenario and emit its trace CSV")
    sim_sub = p.add_subparsers(dest="scenario", required=True)

    g = sim_sub.add_parser("grasp", help="close on an object and ramp to a force")
    g.add_argument("--force", type=float, required=True, help="target grasp force [N]")
    g.add_argument("--gap", type=float, required=True,
                   help="finger travel to object contact [mm]")
    g.add_argument("--object", help="object file to classify after grasping")
    g.add_argument("--mode", type=int, default=1, help="mode for classification")
    g.add_argument("--out")
    g.add_argument("--events", help="sidecar CSV for events")
    g.set_defaults(func=_cmd_simulate_grasp)

    s = sim_sub.add_parser("switch", help="open fully and rotate to another mode")
    s.add_argument("--from", dest="from_mode", type=int, required=True)
    s.add_argument("--to", dest="to_mode", type=int, required=True)
    s.add_argument("--gap", type=float, default=3.0,
                   help="initial distance from the stopper [mm]")
    s.add_argument("--out")
    s.add_argument("--events")
    s.set_defaults(func=_cmd_simulate_switch)

    p = sub.add_parser("plan", help="select the mode for an object")
    p.add_argument("--object", required=True)
    p.add_argument("--current-mode", dest="current_mode", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("classify", help="classify the grasp of an object in a mode")
    p.add_argument("--object", required=True)
    p.add_argument("--mode", type=int, required=True)
    p.add_argument("--contacts-out", dest="contacts_out")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("sweep", help="evaluate a metric over a parameter grid")
    p.add_argument("--param", required=True,
                   help="configuration key as section.key")
    p.add_argument("--range", required=True, help="start:stop:step")
    p.add_argument("--metric", required=True, choices=sorted(_METRIC_COLUMNS))
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    return parser


def dispatch(argv: Sequence[str]) -> int:
    """Run one CLI invocation; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    with warnings.catch_warnings():
        warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
        try:
            return args.func(args)
        except (CliError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
