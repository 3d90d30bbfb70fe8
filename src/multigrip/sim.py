"""Deterministic quasi-static state machine for the gripper drivetrain.

Motor rotation in the opening direction is positive.  Finger travel d_f is
measured from the stopper (0 = fully open) and grows toward closing; both
finger units ride the same chain and always share one travel value.  The
evolution is quasi-static: position commands advance the motor by fixed
angle increments, torque commands ramp the torque by fixed increments, and
contact with the object or the stopper is rigid.

Within one step the state changes by at most one motion kind (translation
or body rotation, never both), and steps land exactly on contact, stopper
and detent boundaries so events line up with trace rows.

One dispatch, `_motion`, decides which motion a step makes, for `step` and
for the runs alike; `run_scenario` makes it once per step.  A `Scenario`
derives the constants of the step rules once, when it is built.

`run_scenario` advances each run of plain full-increment steps in one
pass.  A run is a stretch with no landing, no event and no completed
command: a translation toward the stopper, the object contact or the stroke
limit, or a body rotation between detents.  Its positions are running sums
(`itertools.accumulate` adds in order, so it rounds exactly as the step loop
does).  The step rules alone decide which steps are plain: a probe builds
the run's state at a step index and asks `_command_complete`, `_motion` and
`_advance` about that step.  Their answers are monotone in the step index,
because float rounding is monotone, so a bisection only locates where the
run ends.  The step at each boundary goes through the body of `step`, so
the trace is bit-identical to calling `step` one increment at a time.  A
trace is stored as columns, a run's floats in `array('d')` at 8 B a value
(so an int given to a `Scenario` reads back as a float), and
`SimTrace.rows` builds each `TraceRow` only when it is read.
"""

from __future__ import annotations

import csv
import math
from array import array
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate, repeat
from operator import attrgetter
from typing import NamedTuple

from .config import RunConfig
from .control import (ControllerState, Direction, MotorCommand, PositionMove,
                      _check_int, grasp_command, switch_command)
from .mechanics import (GearGeometry, MagnetDetent, SurfaceCounts,
                        detent_coefficients, detent_peak, gc_mode_count,
                        switch_interval)

__all__ = [
    "Phase",
    "GripperState",
    "Scenario",
    "TraceRow",
    "SimEvent",
    "SimTrace",
    "TraceRows",
    "SimError",
    "StrokeLimitExceeded",
    "UnreachableTarget",
    "ReversalDuringRotation",
    "ScenarioError",
    "EVENT_OBJECT_CONTACT",
    "EVENT_STOPPER_CONTACT",
    "EVENT_BREAKAWAY",
    "EVENT_DETENT_REENGAGE",
    "EVENT_MODE_CHANGED",
    "at_detent",
    "initial_state",
    "step",
    "run_scenario",
    "body_torque_trace",
    "grasp_scenario",
    "switch_scenario",
    "write_trace_csv",
    "write_events_csv",
    "TRACE_HEADER",
    "EVENTS_HEADER",
]

EVENT_OBJECT_CONTACT = "ObjectContact"
EVENT_STOPPER_CONTACT = "StopperContact"
EVENT_BREAKAWAY = "Breakaway"
EVENT_DETENT_REENGAGE = "DetentReengage"
EVENT_MODE_CHANGED = "ModeChanged"

_EPS_ANGLE = 1e-12
_EPS_TRAVEL = 1e-9
# Boundary landings tolerate this much motor angle (rad) of float drift, so
# accumulated rounding cannot leave a step stranded an ulp short of a
# stopper, contact or detent.
_EPS_LANDING = 1e-9


class Phase(Enum):
    TRANSLATING_CLOSE = "translating_close"
    GRASPING = "grasping"
    TRANSLATING_OPEN = "translating_open"
    AT_STOPPER = "at_stopper"
    ROTATING = "rotating"
    DETENT_ENGAGED = "detent_engaged"


# Phases in which the finger bodies rest at a detent.
_AT_DETENT = frozenset({Phase.TRANSLATING_CLOSE, Phase.GRASPING,
                        Phase.TRANSLATING_OPEN, Phase.AT_STOPPER,
                        Phase.DETENT_ENGAGED})


def at_detent(phase: Phase) -> bool:
    """Whether the finger bodies rest at an engaged detent in this phase."""
    return phase in _AT_DETENT


class SimError(Exception):
    """Base class for simulation-rule violations."""


class StrokeLimitExceeded(SimError):
    pass


class UnreachableTarget(SimError):
    """A position command ran into a rigid contact before its target."""


class ReversalDuringRotation(SimError):
    """A command reversed the drive direction while a switch was in flight.

    The ratchet forbids reverse body rotation, so the in-flight rotation
    resolves to the nearest stable detent: forward to the next detent when
    the body is past the detent-torque peak, back to the previous one
    otherwise.  The resolved rest state is attached for recovery.
    """

    def __init__(self, message: str, resolved_state: "GripperState",
                 events: tuple[tuple[str, str], ...]):
        super().__init__(message)
        self.resolved_state = resolved_state
        self.events = events


class ScenarioError(SimError):
    """A step failed while replaying a scenario; records where."""

    def __init__(self, step_index: int, command_index: int, cause: Exception):
        super().__init__(f"step {step_index} (command {command_index}): {cause}")
        self.step_index = step_index
        self.command_index = command_index
        self.cause = cause


@dataclass(frozen=True)
class GripperState:
    """Snapshot of the gripper between steps.

    theta_m: motor angle (rad), opening positive.
    tau_m: drive torque magnitude (N*mm).
    d_f_3s: finger travel from the stopper (mm); d_f_4s is always equal.
    theta_fb_3s, theta_fb_4s: cumulative finger-body rotations (rad).
    mode_index: current mode, 1..n_gc.
    """

    theta_m: float
    tau_m: float
    d_f_3s: float
    theta_fb_3s: float
    theta_fb_4s: float
    mode_index: int
    phase: Phase

    @property
    def d_f_4s(self) -> float:
        return self.d_f_3s


class _Kinematics(NamedTuple):
    """Per-scenario constants of the step rules."""

    d_inc: float            # motor-angle increment (rad)
    radius: float           # input sprocket radius (mm)
    interval: float         # switch interval (rad of motor)
    ratio_3s: float
    ratio_4s: float
    pitch_3s: float
    pitch_4s: float
    n_gc: int               # modes in one rotation cycle
    bind_3s: bool           # the 3S detent sets the breakaway threshold
    ratio_bind: float
    pitch_bind: float
    arm: float              # smaller torque arm (mm)
    detent: tuple[float, float, float]  # (A, B, C) of detent_coefficients
    peak_angle: float       # body angle of the detent-torque peak (rad)
    breakaway: float        # breakaway motor torque, friction excluded (N*mm)


@dataclass(frozen=True)
class Scenario:
    """Everything needed to replay one deterministic command sequence."""

    gears: GearGeometry
    magnet: MagnetDetent
    counts: SurfaceCounts
    commands: tuple[MotorCommand, ...] = ()
    stroke_limit: float = RunConfig.stroke_limit
    initial_position: float = 0.0
    object_contact: float | None = None
    friction_torque: float = RunConfig.friction_torque
    step_deg: float = RunConfig.step_deg
    torque_step: float = RunConfig.torque_step
    initial_mode: int = 1
    max_steps: int = 2_000_000

    def __post_init__(self) -> None:
        for name in ("step_deg", "torque_step", "stroke_limit"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 <= self.initial_position <= self.stroke_limit:
            raise ValueError("initial_position outside [0, stroke_limit]")
        if self.object_contact is not None and not (
                0 < self.object_contact <= self.stroke_limit):
            raise ValueError("object_contact outside (0, stroke_limit]")
        if not 0 <= self.friction_torque < math.inf:
            raise ValueError("friction_torque must be finite and >= 0")
        for name in ("initial_mode", "max_steps"):
            _check_int(name, getattr(self, name))
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {self.max_steps}")
        for i, command in enumerate(self.commands):
            if not isinstance(command, MotorCommand):
                raise ValueError(f"commands[{i}] must be a TorqueRamp or PositionMove, "
                                 f"got {command!r}")
        # Touching _kin derives the step constants here, once; its
        # switch_interval call refuses inconsistent gearing.
        n = self._kin.n_gc
        if not 1 <= self.initial_mode <= n:
            raise ValueError(f"initial_mode outside 1..{n}")

    @cached_property
    def _kin(self) -> _Kinematics:
        """The step rules' constants, derived once per scenario."""
        g, c = self.gears, self.counts
        # The finger with the smaller torque arm binds: its detent sets the
        # breakaway threshold (see breakaway_motor_torque).
        bind_3s = g.torque_arm_3s <= g.torque_arm_4s
        arm = min(g.torque_arm_3s, g.torque_arm_4s)
        peak_angle, peak_torque = detent_peak(self.magnet)
        return _Kinematics(
            d_inc=math.radians(self.step_deg), radius=g.input_sprocket_radius,
            interval=switch_interval(g, c),
            ratio_3s=g.rotation_ratio_3s, ratio_4s=g.rotation_ratio_4s,
            pitch_3s=c.pitch_3s, pitch_4s=c.pitch_4s, n_gc=gc_mode_count(c),
            bind_3s=bind_3s,
            ratio_bind=g.rotation_ratio_3s if bind_3s else g.rotation_ratio_4s,
            pitch_bind=c.pitch_3s if bind_3s else c.pitch_4s,
            arm=arm, detent=detent_coefficients(self.magnet),
            peak_angle=peak_angle,
            breakaway=g.input_sprocket_radius * peak_torque / arm)


class TraceRow(NamedTuple):
    step: int
    theta_m: float
    tau_m: float
    d_f_3s: float
    d_f_4s: float
    theta_fb_3s: float
    theta_fb_4s: float
    f_g: float
    phase: Phase


class SimEvent(NamedTuple):
    step: int
    kind: str
    detail: str


def _make_rows(columns):
    """TraceRows from columns; tuple.__new__ builds each without a Python frame."""
    return map(tuple.__new__, repeat(TraceRow), zip(*columns))


class TraceRows(Sequence):
    """Read-only view of a trace's columns as a sequence of TraceRows.

    `columns` holds one sequence per TraceRow field: a list, an `array('d')`,
    or a range for consecutive steps.  A row is built only when it is read;
    a slice is a tuple of rows, and a view equals the tuple of the same rows.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: tuple[Sequence, ...]):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(_make_rows(col[index] for col in self.columns))
        return tuple.__new__(TraceRow, [col[index] for col in self.columns])

    def __iter__(self):
        return _make_rows(self.columns)

    def __eq__(self, other):
        if isinstance(other, TraceRows):
            # a range or an array equals no list, so a failed match compares as lists
            return all(a == b or list(a) == list(b)
                       for a, b in zip(self.columns, other.columns))
        if isinstance(other, tuple):
            return len(self) == len(other) and tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))


@dataclass(frozen=True)
class SimTrace:
    """A scenario's rows, events and final state.

    Rows given one by one (a tuple of TraceRows, say) are stored as
    columns, and every value keeps its own object.
    """

    rows: TraceRows
    events: tuple[SimEvent, ...]
    final_state: GripperState

    def __post_init__(self) -> None:
        if not isinstance(self.rows, TraceRows):
            columns = (tuple(map(list, zip(*self.rows)))
                       or tuple([] for _ in TraceRow._fields))
            object.__setattr__(self, "rows", TraceRows(columns))

    def events_of(self, kind: str) -> tuple[SimEvent, ...]:
        return tuple(e for e in self.events if e.kind == kind)


def _append_row(columns: tuple, s: GripperState, sc: Scenario) -> None:
    """Append the state to the trace columns (all but step and d_f_4s)."""
    f_g = s.tau_m / sc.gears.input_sprocket_radius if s.phase is Phase.GRASPING else 0.0
    for col, value in zip(columns, (s.theta_m, s.tau_m, s.d_f_3s, s.theta_fb_3s,
                                    s.theta_fb_4s, f_g, s.phase)):
        col.append(value)


def initial_state(scenario: Scenario) -> GripperState:
    phase = Phase.AT_STOPPER if scenario.initial_position == 0 else Phase.DETENT_ENGAGED
    return GripperState(
        theta_m=0.0, tau_m=0.0,
        d_f_3s=scenario.initial_position, theta_fb_3s=0.0, theta_fb_4s=0.0,
        mode_index=scenario.initial_mode, phase=phase)


def _switch_count(theta_fb_3s: float, kin: _Kinematics) -> int:
    """Completed switches since scenario start, from the 3S body angle."""
    return math.floor(theta_fb_3s / kin.pitch_3s + 1e-9)


def _rotation_offset_motor(state: GripperState, kin: _Kinematics) -> float:
    """Motor angle consumed since the last engaged detent (0 when engaged)."""
    k = _switch_count(state.theta_fb_3s, kin)
    fb_bind = state.theta_fb_3s if kin.bind_3s else state.theta_fb_4s
    return max(fb_bind - k * kin.pitch_bind, 0.0) / kin.ratio_bind


def _rotation_torques(motor_offsets: Sequence[float], sc: Scenario) -> list[float]:
    """Drive torques required at rotation offsets past the engaged detent."""
    kin = sc._kin
    (a, b, c), ratio, sin, cos = kin.detent, kin.ratio_bind, math.sin, math.cos
    radius, arm, friction = kin.radius, kin.arm, sc.friction_torque
    return [radius * (c * sin(angle) / (a - b * cos(angle)) ** 1.5) / arm + friction
            for angle in [ratio * x for x in motor_offsets]]   # detent_torque


def _translate_open(state: GripperState, budget: float,
                    sc: Scenario) -> tuple[GripperState, tuple[tuple[str, str], ...]]:
    r = sc._kin.radius
    to_stopper = state.d_f_3s / r
    use = min(budget, to_stopper)
    if use >= to_stopper - _EPS_LANDING:
        new_d = 0.0
        phase = Phase.AT_STOPPER
        events: tuple[tuple[str, str], ...] = ((EVENT_STOPPER_CONTACT, ""),)
    else:
        new_d = state.d_f_3s - r * use
        phase = Phase.TRANSLATING_OPEN
        events = ()
    new = GripperState(state.theta_m + use, 0.0, new_d, state.theta_fb_3s,
                       state.theta_fb_4s, state.mode_index, phase)
    return new, events


def _translate_close(state: GripperState, budget: float, sc: Scenario,
                     position_mode: bool) -> tuple[GripperState, tuple[tuple[str, str], ...]]:
    r = sc._kin.radius
    use, lands = budget, False
    if sc.object_contact is not None:
        to_contact = (sc.object_contact - state.d_f_3s) / r
        if to_contact <= _EPS_ANGLE:
            if position_mode:
                raise UnreachableTarget(
                    "position target lies beyond the object contact; "
                    "the contact is rigid")
            # Torque mode in contact presses instead (see _motion).
            raise AssertionError("closing translation requested while in contact")
        use = min(budget, to_contact)
        lands = use >= to_contact - _EPS_LANDING
    if lands:
        new_d, phase, events = sc.object_contact, Phase.GRASPING, ((EVENT_OBJECT_CONTACT, ""),)
    else:
        new_d, phase, events = state.d_f_3s + r * use, Phase.TRANSLATING_CLOSE, ()
    if new_d > sc.stroke_limit + _EPS_TRAVEL:
        raise StrokeLimitExceeded(
            f"finger travel {new_d:.6g} mm exceeds the stroke limit "
            f"{sc.stroke_limit:.6g} mm")
    new = GripperState(state.theta_m - use, 0.0, new_d, state.theta_fb_3s,
                       state.theta_fb_4s, state.mode_index, phase)
    return new, events


def _begin_rotation(state: GripperState, tau_at_onset: float) -> tuple[GripperState, tuple[tuple[str, str], ...]]:
    """Event-only step: the detent breaks and rotation becomes active."""
    detail = f"theta_m_deg={math.degrees(state.theta_m):.6f}"
    new = GripperState(state.theta_m, tau_at_onset, state.d_f_3s, state.theta_fb_3s,
                       state.theta_fb_4s, state.mode_index, Phase.ROTATING)
    return new, ((EVENT_BREAKAWAY, detail),)


def _rotate(state: GripperState, budget: float, sc: Scenario,
            held_torque: float | None) -> tuple[GripperState, tuple[tuple[str, str], ...]]:
    """Advance an active rotation; land exactly on the next detent."""
    kin = sc._kin
    offset = _rotation_offset_motor(state, kin)
    to_next = kin.interval - offset
    use = min(budget, to_next)
    theta = state.theta_m + use
    if use >= to_next - _EPS_LANDING:
        k = _switch_count(state.theta_fb_3s, kin) + 1
        mode = (state.mode_index % kin.n_gc) + 1
        new = GripperState(theta, 0.0, state.d_f_3s, k * kin.pitch_3s,
                           k * kin.pitch_4s, mode, Phase.DETENT_ENGAGED)
        events = ((EVENT_DETENT_REENGAGE, ""),
                  (EVENT_MODE_CHANGED, f"mode={mode}"))
        return new, events
    tau = held_torque if held_torque is not None else _rotation_torques((offset + use,), sc)[0]
    new = GripperState(theta, tau, state.d_f_3s,
                       state.theta_fb_3s + kin.ratio_3s * use,
                       state.theta_fb_4s + kin.ratio_4s * use,
                       state.mode_index, Phase.ROTATING)
    return new, ()


def _resolve_reversal(state: GripperState, sc: Scenario) -> ReversalDuringRotation:
    """Snap an in-flight rotation to the nearest stable detent and build the error."""
    kin = sc._kin
    offset = _rotation_offset_motor(state, kin)
    snap_forward = (offset > _EPS_ANGLE
                    and offset * kin.ratio_bind > kin.peak_angle)
    k = _switch_count(state.theta_fb_3s, kin)
    events: tuple[tuple[str, str], ...] = ()
    mode = state.mode_index
    if snap_forward:
        k += 1
        mode = (state.mode_index % kin.n_gc) + 1
        events = ((EVENT_DETENT_REENGAGE, "snap_forward"),
                  (EVENT_MODE_CHANGED, f"mode={mode}"))
    elif offset > _EPS_ANGLE:
        events = ((EVENT_DETENT_REENGAGE, "snap_back"),)
    resolved = GripperState(state.theta_m, 0.0, state.d_f_3s, k * kin.pitch_3s,
                            k * kin.pitch_4s, mode, Phase.DETENT_ENGAGED)
    where = ("forward to the next detent" if snap_forward
             else "back to the engaged detent")
    return ReversalDuringRotation(
        "drive direction reversed while a switch was in flight; the ratchet "
        f"forbids reverse rotation (body snapped {where})",
        resolved, events)


def _motion(state: GripperState, cmd: MotorCommand,
            sc: Scenario) -> tuple[str, float]:
    """The motion kind of a step under `cmd`, and its motor-angle budget.

    Kinds: "open"/"close" (translation), "rotate" (body rotation), "break"
    (the detent breaks), "press" (torque ramp against a rigid contact),
    "reverse" (closing drive mid-switch), "done" (move already on target).
    The budget is one increment, or less where a position move ends sooner.
    At the fully opened state the drive direction alone decides whether the
    fingers close or the bodies rotate: the self-motion switching rule.
    """
    d_inc = sc._kin.d_inc
    position = isinstance(cmd, PositionMove)
    if position:
        delta = cmd.target_angle - state.theta_m
        if abs(delta) <= _EPS_LANDING:
            return "done", 0.0
        opening, budget = delta > 0, min(abs(delta), d_inc)
    else:
        opening, budget = cmd.direction is Direction.OPEN, d_inc
    if state.phase is Phase.ROTATING:
        return ("rotate" if opening else "reverse"), budget
    if not opening:
        if (not position and sc.object_contact is not None
                and state.d_f_3s >= sc.object_contact - _EPS_TRAVEL):
            return "press", budget
        return "close", budget
    if state.d_f_3s > _EPS_TRAVEL:
        return "open", budget
    # At the stopper: position-mode opening always commits past the detent
    # peak, so the detent breaks now (event-only step), then rotation runs;
    # a torque ramp builds torque until it passes the breakaway threshold.
    return ("break" if position else "press"), budget


def step(state: GripperState, cmd: MotorCommand,
         scenario: Scenario) -> tuple[GripperState, tuple[tuple[str, str], ...]]:
    """Advance the state by one quasi-static increment under a command.

    Returns the new state and any (event kind, detail) pairs raised during
    the step.  Position commands consume up to one motor-angle increment of
    motion; torque commands against a rigid contact consume one torque
    increment instead.  Pure function: identical inputs give identical
    outputs.
    """
    return _advance(state, cmd, scenario, *_motion(state, cmd, scenario))


def _advance(state: GripperState, cmd: MotorCommand, scenario: Scenario,
             kind: str, budget: float) -> tuple[GripperState, tuple[tuple[str, str], ...]]:
    """`step` for the motion `_motion` chose."""
    if kind == "open":
        return _translate_open(state, budget, scenario)
    if kind == "close":
        return _translate_close(state, budget, scenario,
                                position_mode=isinstance(cmd, PositionMove))
    if kind == "rotate":
        # a torque ramp holds its torque through the rotation
        held = None if isinstance(cmd, PositionMove) else state.tau_m
        return _rotate(state, budget, scenario, held)
    if kind == "break":
        return _begin_rotation(state, tau_at_onset=scenario.friction_torque)
    if kind == "reverse":
        raise _resolve_reversal(state, scenario)
    if kind == "done":
        return state, ()
    # "press": the torque ramps against the object or the stopper
    tau = min(state.tau_m + scenario.torque_step, cmd.target_torque)
    if cmd.direction is Direction.CLOSE:
        phase = Phase.GRASPING
    elif tau > scenario._kin.breakaway + scenario.friction_torque:
        return _begin_rotation(state, tau_at_onset=tau)
    else:
        phase = state.phase
    return GripperState(state.theta_m, tau, state.d_f_3s, state.theta_fb_3s,
                        state.theta_fb_4s, state.mode_index, phase), ()


def _command_complete(state: GripperState, cmd: MotorCommand,
                      reengaged: bool) -> bool:
    if isinstance(cmd, PositionMove):
        # The landing tolerance absorbs summation rounding over long moves.
        return abs(state.theta_m - cmd.target_angle) <= _EPS_LANDING
    if cmd.direction is Direction.CLOSE:
        return (state.phase is Phase.GRASPING
                and state.tau_m >= cmd.target_torque - _EPS_TRAVEL)
    if reengaged:
        return True
    return (state.phase is not Phase.ROTATING
            and state.tau_m >= cmd.target_torque - _EPS_TRAVEL)


# Runs estimated shorter than this go through `step` one increment at a
# time.  A pass probes three steps, and costs about as much as three and a
# half single steps of the `run_scenario` loop; an estimate of n steps
# yields a run of n - 3 or n - 2 steps, so a pass pays from an estimate of 6.
_MIN_RUN = 6
# Longest run computed in one pass; bounds the lists of one pass.
_MAX_RUN = 1 << 15


def _ramp(start: float, inc: float, n: int) -> list[float]:
    """start, start + inc, ... (n + 1 values), summed in order like the loop."""
    return list(accumulate(repeat(inc, n), initial=start))


def _plain_run(state: GripperState, cmd: MotorCommand, sc: Scenario, motion: tuple[str, float],
               max_len: int) -> tuple[int, tuple, GripperState] | None:
    """The longest run of plain full-increment `motion` steps from this state.

    Returns (step count, the new rows' theta_m, tau_m, d_f_3s, theta_fb_3s
    and theta_fb_4s lists, state after the run), or None when the run is
    estimated shorter than _MIN_RUN steps or has none, so the next step
    goes through `step`.  The step rules decide which steps are plain: from
    the run's pre-step state the command is incomplete, `_motion` still
    chooses `motion`, and `_advance` raises no event and no SimError.  The
    run adds one rule of its own: the 3S switch count keeps its first
    value, which keeps a rotation's detent offset monotone.  Every check is
    then monotone in the step index, as float rounding is, so the plain
    steps form a prefix and a bisection only locates its end; the bound on
    the run's length only sizes the ramps.
    """
    kin = sc._kin
    d_inc, r = kin.d_inc, kin.radius
    kind, budget = motion
    if kind not in ("open", "close", "rotate") or budget < d_inc:
        return None
    position = isinstance(cmd, PositionMove)
    bound = abs(cmd.target_angle - state.theta_m) if position else math.inf
    if kind == "open":
        bound = min(bound, state.d_f_3s / r)
    elif kind == "close":
        room = sc.stroke_limit - state.d_f_3s
        if sc.object_contact is not None:
            room = min(room, sc.object_contact - state.d_f_3s)
        bound = min(bound, room / r)
    else:
        bound = min(bound, kin.interval - _rotation_offset_motor(state, kin))
    n = min(max_len, _MAX_RUN, int(bound / d_inc) + 2)
    if n < _MIN_RUN:
        return None

    size = n + 1
    theta = _ramp(state.theta_m, -d_inc if kind == "close" else d_inc, n)
    if kind == "rotate":
        # a position move's torque enters no step rule: its probes keep the
        # first state's, and its rows get theirs once the run is found
        tau, d, phase = [state.tau_m] * size, [state.d_f_3s] * size, state.phase
        fb3 = _ramp(state.theta_fb_3s, kin.ratio_3s * d_inc, n)
        fb4 = _ramp(state.theta_fb_4s, kin.ratio_4s * d_inc, n)
    else:
        tau = [0.0] * size
        d = _ramp(state.d_f_3s, r * d_inc if kind == "close" else -(r * d_inc), n)
        fb3, fb4 = [state.theta_fb_3s] * size, [state.theta_fb_4s] * size
        phase = Phase.TRANSLATING_OPEN if kind == "open" else Phase.TRANSLATING_CLOSE
    k = _switch_count(state.theta_fb_3s, kin)
    after = {}  # the state after each plain step probed

    def plain(i: int) -> bool:
        s = state if i == 0 else GripperState(theta[i], tau[i], d[i], fb3[i], fb4[i],
                                              state.mode_index, phase)
        if (_switch_count(s.theta_fb_3s, kin) != k or _command_complete(s, cmd, False)
                or _motion(s, cmd, sc) != motion):
            return False
        try:
            after[i], events = _advance(s, cmd, sc, kind, d_inc)
        except SimError:
            return False
        return not events

    # the bound overshoots a run by two or three steps: probe below it first
    first = n - 4
    lo, hi = (first + 1, n) if plain(first) else (0, first)
    m = bisect_left(range(n), True, lo, hi, key=lambda i: not plain(i))
    if m == 0:
        return None
    if kind == "rotate" and position:
        base, ratio = k * kin.pitch_bind, kin.ratio_bind
        # _rotation_offset_motor before each step, plus the step, as _rotate
        # has it; the conditional is max(x - base, 0.0) without the call
        tau[1:m + 1] = _rotation_torques([(x - base if x >= base else 0.0) / ratio + d_inc
                                          for x in (fb3 if kin.bind_3s else fb4)[:m]], sc)
    # a bisection probes the last plain step, so `after` holds the state it leaves
    return m, tuple(col[1:m + 1] for col in (theta, tau, d, fb3, fb4)), after[m - 1]


def run_scenario(scenario: Scenario) -> SimTrace:
    """Replay the scenario's command sequence and record every step.

    Deterministic: the trace is a pure function of the scenario, and equals
    replaying it through `step` one increment at a time.  Errors raised by
    a step are re-raised as ScenarioError with the offending step and
    command indices.
    """
    state = initial_state(scenario)
    # an array('d') per float TraceRow field, at 8 B a value, and a list of
    # phases; step counts rows, and d_f_4s equals d_f_3s
    columns = theta, tau, d_f, fb3, fb4, f_g, phase = (*(array("d") for _ in range(6)), [])
    _append_row(columns, state, scenario)
    events: list[SimEvent] = []
    step_no = 0
    for ci, cmd in enumerate(scenario.commands):
        reengaged = False
        while not _command_complete(state, cmd, reengaged):
            motion = _motion(state, cmd, scenario)
            run = _plain_run(state, cmd, scenario, motion, scenario.max_steps - step_no)
            if run is not None:
                m, run_columns, state = run
                for col, values in zip(columns, (*run_columns, [0.0] * m)):  # all but phase
                    col.fromlist(values)  # extend would convert a value at a time
                phase += [state.phase] * m
                step_no += m
                continue
            try:
                state, evts = _advance(state, cmd, scenario, *motion)
            except SimError as exc:
                raise ScenarioError(step_no + 1, ci, exc) from exc
            step_no += 1
            if step_no > scenario.max_steps:
                raise ScenarioError(step_no, ci,
                                    SimError("max step count exceeded"))
            _append_row(columns, state, scenario)
            for kind, detail in evts:
                events.append(SimEvent(step_no, kind, detail))
                if kind == EVENT_DETENT_REENGAGE:
                    reengaged = True
    rows = TraceRows((range(step_no + 1), theta, tau, d_f, d_f, fb3, fb4, f_g, phase))
    return SimTrace(rows=rows, events=tuple(events), final_state=state)


def body_torque_trace(trace: SimTrace, gears: GearGeometry) -> list[tuple[float, float]]:
    """(motor angle, 3S body torque) pairs derived from the recorded torque."""
    scale = gears.torque_arm_3s / gears.input_sprocket_radius
    _, theta, tau, *_ = trace.rows.columns
    return [(t, scale * torque) for t, torque in zip(theta, tau)]


def grasp_scenario(gears: GearGeometry, magnet: MagnetDetent, counts: SurfaceCounts, *,
                   target_force: float, gap: float,
                   stroke_limit: float = Scenario.stroke_limit,
                   step_deg: float = Scenario.step_deg,
                   torque_step: float = Scenario.torque_step,
                   friction_torque: float = Scenario.friction_torque) -> Scenario:
    """Close on an object a given travel away and ramp to a grasp force."""
    return Scenario(gears=gears, magnet=magnet, counts=counts,
                    commands=(grasp_command(target_force, gears),),
                    stroke_limit=stroke_limit, initial_position=0.0,
                    object_contact=gap, friction_torque=friction_torque,
                    step_deg=step_deg, torque_step=torque_step)


def switch_scenario(gears: GearGeometry, magnet: MagnetDetent, counts: SurfaceCounts, *,
                    from_mode: int, to_mode: int, gap: float = 3.0,
                    stroke_limit: float = Scenario.stroke_limit,
                    step_deg: float = Scenario.step_deg,
                    friction_torque: float = Scenario.friction_torque
                    ) -> tuple[Scenario, ControllerState]:
    """Open from a small gap and switch modes; also returns the controller state.

    The fully-open motor reference is the angle at which the initial gap has
    been traversed.
    """
    open_ref = gap / gears.input_sprocket_radius
    cs = ControllerState(open_reference_angle=open_ref, k_now=from_mode,
                         n_gc=gc_mode_count(counts),
                         switch_interval=switch_interval(gears, counts))
    move, cs_after = switch_command(cs, to_mode)
    scenario = Scenario(gears=gears, magnet=magnet, counts=counts,
                        commands=(move,), stroke_limit=stroke_limit,
                        initial_position=gap, friction_torque=friction_torque,
                        step_deg=step_deg, initial_mode=from_mode)
    return scenario, cs_after


TRACE_HEADER = ["step", "theta_m_deg", "tau_m_Nmm", "d_f3S_mm", "d_f4S_mm",
                "theta_FB3S_deg", "theta_FB4S_deg", "f_g_N", "phase"]
EVENTS_HEADER = ["step", "event", "detail"]


# Rows formatted per write: bounds the text held at once for long traces.
_CSV_CHUNK = 256
_phase_text = attrgetter("_value_")  # Phase.value without the property call


def write_trace_csv(trace: SimTrace, stream) -> None:
    """Write the trace rows as CSV (angles in degrees, torques in N*mm).

    Rows are formatted by repr() a chunk at a time as they are joined; every
    field is unquoted, as csv.writer leaves numbers and phase names.
    """
    stream.write(",".join(TRACE_HEADER) + "\n")
    step, theta, tau, d3, d4, fb3, fb4, f_g, phase = trace.rows.columns
    for i in range(0, len(step), _CSV_CHUNK):
        part = slice(i, i + _CSV_CHUNK)
        d3_text = list(map(repr, d3[part]))
        d4_text = d3_text if d4 is d3 else map(repr, d4[part])  # run_scenario shares them
        fields = (map(str, step[part]), map(repr, map(math.degrees, theta[part])),
                  map(repr, tau[part]), d3_text, d4_text,
                  map(repr, map(math.degrees, fb3[part])),
                  map(repr, map(math.degrees, fb4[part])), map(repr, f_g[part]),
                  map(_phase_text, phase[part]))
        stream.write("\n".join(map(",".join, zip(*fields))) + "\n")


def write_events_csv(trace: SimTrace, stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(EVENTS_HEADER)
    for e in trace.events:
        writer.writerow([e.step, e.kind, e.detail])
