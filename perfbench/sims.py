"""Simulator workloads: `sim-random` (random designs) and `sim-laps` (long runs).

Inputs are plain numbers drawn from the seed; each op builds the library's
value types from them, so scenario construction is part of the op.
"""

from __future__ import annotations

import io
import random

from common import NULL_SPAN, OpFailed

from multigrip import config, control, mechanics, sim

_TOL = 1e-9


class _SimWorkload:
    def _run(self, scenario):
        trace = sim.run_scenario(scenario)
        rows, events = io.StringIO(), io.StringIO()
        sim.write_trace_csv(trace, rows)
        sim.write_events_csv(trace, events)
        return trace, rows.getvalue(), events.getvalue()

    @staticmethod
    def _check_csv(trace, rows_csv: str, events_csv: str) -> None:
        if rows_csv.count("\n") != len(trace.rows) + 1:
            raise OpFailed("trace CSV row count differs from the trace")
        if events_csv.count("\n") != len(trace.events) + 1:
            raise OpFailed("events CSV row count differs from the events")

    @staticmethod
    def _check_switch(trace, from_mode: int, to_mode: int, n_gc: int,
                      interval: float, open_ref: float) -> None:
        if trace.final_state.mode_index != to_mode:
            raise OpFailed(f"switch ended in mode {trace.final_state.mode_index}, "
                           f"expected {to_mode}")
        travel = trace.rows[-1].theta_m - open_ref
        expected = control.switch_rotation(from_mode, to_mode, n_gc, interval)
        if abs(travel - expected) > _TOL:
            raise OpFailed(f"switch travel {travel!r} rad, expected {expected!r}")

    @staticmethod
    def _check_grasp(trace, force: float) -> None:
        final = trace.rows[-1]
        if final.phase is not sim.Phase.GRASPING or abs(final.f_g - force) > _TOL * force:
            raise OpFailed(f"grasp ended at f_g={final.f_g!r} in {final.phase}, "
                           f"expected {force!r}")


# ---------------------------------------------------------------------------
# sim-random: the randomized-scenario population of acceptance criterion 6

# The cost skeleton (which bins, command kinds and switch lengths each item
# gets) is drawn from this fixed seed, so every seed gets the same cost mix;
# the run's seed draws the designs within it.
_SKELETON_SEED = 20240326
_BINS = 20
_BINNED = ("input", "sprocket", "base", "contact", "initial", "torque_step")


def _lerp(lo: float, hi: float, u: float) -> float:
    return lo + (hi - lo) * u


def _random_items(seed: int, n: int) -> list[dict]:
    """n valid random designs, each with a 1-3 command sequence.

    Item i's step size, command count and object presence cycle through 18
    strata.  The draws that set trace length (the switch interval is
    20*pi*sprocket / (base*input)) fall in one of 20 equal bins per
    variable; bins are balanced and paired the same way for every seed.
    """
    skel, rng = random.Random(_SKELETON_SEED), random.Random(seed)
    bins = {}
    for name in _BINNED:
        bins[name] = [k % _BINS for k in range(n)]
        skel.shuffle(bins[name])
    return [_random_item(skel, rng, i % 18,
                         {name: (bins[name][i] + rng.random()) / _BINS for name in _BINNED})
            for i in range(n)]


def _random_item(skel: random.Random, rng: random.Random, stratum: int,
                 u: dict[str, float]) -> dict:
    n_3s = rng.randint(2, 5)
    n_4s = rng.randint(n_3s, 6)
    body = rng.uniform(8.0, 16.0)
    base = _lerp(15.0, 40.0, u["base"])
    gears = (_lerp(10.0, 30.0, u["input"]), _lerp(10.0, 20.0, u["sprocket"]),
             base * body / n_3s / 10.0, base * body / n_4s / 10.0, body, body)
    magnet = (10.0 ** rng.uniform(-5, -2), rng.uniform(8.0, 20.0),
              rng.uniform(0.5, 2.0))
    has_object = stratum < 9
    item = {
        "gears": gears, "magnet": magnet, "counts": (n_3s, n_4s),
        "contact": _lerp(4.0, 15.0, u["contact"]) if has_object else None,
        "initial": 0.0 if u["initial"] < 0.5 else _lerp(0.5, 4.0, 2 * u["initial"] - 1),
        "friction": 0.0 if rng.random() < 0.7 else rng.uniform(0.0, 2.0),
        "step_deg": (0.2, 0.5, 1.0)[stratum % 3],
        "torque_step": _lerp(5.0, 50.0, u["torque_step"]),
    }
    n_gc = mechanics.gc_mode_count(mechanics.SurfaceCounts(n_3s, n_4s))
    item["initial_mode"] = rng.randint(1, n_gc)
    commands = []
    for _ in range(1 + (stratum // 3) % 3):
        last = commands[-1][0] if commands else None
        if last == "partial":
            commands.append(("switch", 1))  # only finishing the switch is legal
            continue
        choice = skel.random()
        if last == "grasp":
            choice = skel.uniform(0.35, 0.85)  # as a controller does: open first
        if has_object and choice < 0.35:
            commands.append(("grasp", rng.uniform(2.5, 40.0)))
        elif choice < 0.55:
            commands.append(("switch", skel.randint(1, 3)))
        elif choice < 0.7:
            commands.append(("partial", rng.uniform(0.1, 0.9)))
        elif choice < 0.85:
            commands.append(("release", 0.0))
        else:
            commands.append(("open_torque", rng.uniform(0.1, 0.9)))
    item["commands"] = tuple(commands)
    return item


class SimRandom(_SimWorkload):
    """Every op is a new design, so the detent peak is computed afresh."""

    ITEMS = 600
    tracer = None  # set by the worker during the traced half

    def __init__(self, seed: int, root: str):
        self.items = _random_items(seed, self.ITEMS)
        self.warmup_items = _random_items(seed + 1, 1)

    def op(self, item):
        span = self.tracer.span if self.tracer is not None else lambda _: NULL_SPAN
        with span("sim.scenario_build"):
            gears = mechanics.GearGeometry(*item["gears"])
            magnet = mechanics.MagnetDetent(*item["magnet"])
            counts = mechanics.SurfaceCounts(*item["counts"])
            interval = mechanics.switch_interval(gears, counts)
            breakaway = mechanics.breakaway_motor_torque(gears, magnet)
            open_ref = item["initial"] / gears.input_sprocket_radius
            commands = []
            for kind, value in item["commands"]:
                if kind == "grasp":
                    commands.append(control.grasp_command(value, gears))
                elif kind == "switch":
                    open_ref += value * interval
                    commands.append(control.PositionMove(open_ref))
                elif kind == "partial":
                    commands.append(control.PositionMove(open_ref + value * interval))
                elif kind == "release":
                    commands.append(control.PositionMove(open_ref))
                else:
                    commands.append(control.TorqueRamp(
                        value * (breakaway + item["friction"]),
                        control.Direction.OPEN))
            scenario = sim.Scenario(
                gears=gears, magnet=magnet, counts=counts,
                commands=tuple(commands), initial_position=item["initial"],
                object_contact=item["contact"],
                friction_torque=item["friction"], step_deg=item["step_deg"],
                torque_step=item["torque_step"],
                initial_mode=item["initial_mode"])
        return scenario, self._run(scenario)

    def check(self, item, out) -> None:
        scenario, (trace, rows_csv, events_csv) = out
        self._check_csv(trace, rows_csv, events_csv)
        n_gc = mechanics.gc_mode_count(scenario.counts)
        switches = sum(v for k, v in item["commands"] if k == "switch")
        expected_mode = (item["initial_mode"] - 1 + switches) % n_gc + 1
        if trace.final_state.mode_index != expected_mode:
            raise OpFailed(f"final mode {trace.final_state.mode_index}, "
                           f"expected {expected_mode}")
        if len(trace.events_of(sim.EVENT_MODE_CHANGED)) != switches:
            raise OpFailed("mode-change events differ from the switches commanded")
        last = scenario.commands[-1]
        final = trace.rows[-1]
        if isinstance(last, control.PositionMove):
            if abs(final.theta_m - last.target_angle) > _TOL:
                raise OpFailed(f"motor ended at {final.theta_m!r} rad, "
                               f"commanded {last.target_angle!r}")
        elif last.direction is control.Direction.CLOSE:
            self._check_grasp(trace, item["commands"][-1][1])
        elif not sim.at_detent(final.phase) or final.tau_m < last.target_torque - _TOL:
            raise OpFailed("torque-open command broke the detent or fell short")


# ---------------------------------------------------------------------------
# sim-laps: the reference design at CLI defaults, long switches and grasps

class SimLaps(_SimWorkload):
    """Fixed mix per pass: grasps, 5-interval switches and 11-interval laps.

    The detent peak is computed once, so per-step cost and trace size
    dominate.  Class shares put p50 inside the 5-interval plateau and p90
    inside the lap plateau, each well away from a class boundary.
    """

    GRASPS, SHORT_SWITCHES, LAPS = 6, 12, 12
    SHORT, LAP = 5, 11

    def __init__(self, seed: int, root: str):
        self.cfg = config.load_config(f"{root}/fixtures/default.cfg")
        self.n_gc = mechanics.gc_mode_count(self.cfg.counts)
        self.interval = mechanics.switch_interval(self.cfg.gears, self.cfg.counts)
        rng = random.Random(seed)
        grasps = [("grasp", rng.uniform(5.0, 60.0), rng.uniform(5.0, 30.0))
                  for _ in range(self.GRASPS)]
        switches = [("switch", rng.randint(1, self.n_gc), n, rng.uniform(0.5, 4.0))
                    for n in [self.SHORT] * self.SHORT_SWITCHES + [self.LAP] * self.LAPS]
        rng.shuffle(switches)
        # a grasp after every fourth switch keeps any prefix representative
        self.items = []
        for i, s in enumerate(switches):
            self.items.append(s)
            if i % 4 == 3:
                self.items.append(grasps[i // 4])
        self.warmup_items = [("grasp", 20.0, 10.0),
                             ("switch", 1, self.SHORT, 3.0)]

    def op(self, item):
        cfg = self.cfg
        if item[0] == "grasp":
            scenario = sim.grasp_scenario(
                cfg.gears, cfg.magnet, cfg.counts, target_force=item[1],
                gap=item[2], stroke_limit=cfg.stroke_limit,
                step_deg=cfg.step_deg, torque_step=cfg.torque_step,
                friction_torque=cfg.friction_torque)
        else:
            _, k, n, gap = item
            scenario, _ = sim.switch_scenario(
                cfg.gears, cfg.magnet, cfg.counts, from_mode=k,
                to_mode=(k - 1 + n) % self.n_gc + 1, gap=gap,
                stroke_limit=cfg.stroke_limit, step_deg=cfg.step_deg,
                friction_torque=cfg.friction_torque)
        return self._run(scenario)

    def check(self, item, out) -> None:
        trace, rows_csv, events_csv = out
        self._check_csv(trace, rows_csv, events_csv)
        if item[0] == "grasp":
            self._check_grasp(trace, item[1])
            return
        _, k, n, gap = item
        self._check_switch(trace, k, (k - 1 + n) % self.n_gc + 1, self.n_gc,
                           self.interval, gap / self.cfg.gears.input_sprocket_radius)
        if len(trace.events_of(sim.EVENT_MODE_CHANGED)) != n:
            raise OpFailed("mode-change events differ from the switches commanded")
