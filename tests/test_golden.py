"""Golden traces: the simulator's exact output, pinned by SHA-256 digest.

Each digest covers the trace CSV and the events CSV of one scenario, byte
for byte, so any change in a float's last bit, a step count or an event
fails here.  Error cases pin the failing step and command indices and a
digest of the message and, for a reversal, the resolved state and events.

To re-pin after a deliberate output change, print `_trace_digest(...)` or
`_error_digest(...)` for the scenario and name the change in CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import math

import pytest

from multigrip.config import default_config
from multigrip.control import (ControllerState, Direction, PositionMove,
                               TorqueRamp, release_then_switch)
from multigrip.mechanics import (MagnetDetent, breakaway_motor_torque,
                                 switch_interval)
from multigrip.sim import (ReversalDuringRotation, Scenario, ScenarioError,
                           grasp_scenario, run_scenario, switch_scenario,
                           write_events_csv, write_trace_csv)

CFG = default_config()
G, M, C = CFG.gears, CFG.magnet, CFG.counts
# Calibrated magnet of fixtures/default.cfg: breakaway near 100 N*mm, so a
# torque ramp in 10 N*mm steps takes several steps to reach it.
STRONG = MagnetDetent(magnet_coefficient=16.0,
                      circle_radius=M.circle_radius, nominal_gap=M.nominal_gap)


def _trace_digest(scenario: Scenario) -> str:
    trace = run_scenario(scenario)
    rows, events = io.StringIO(), io.StringIO()
    write_trace_csv(trace, rows)
    write_events_csv(trace, events)
    text = (rows.getvalue() + "\x00" + events.getvalue()
            + "\x00" + repr(trace.final_state))
    return hashlib.sha256(text.encode()).hexdigest()


def _error_digest(scenario: Scenario) -> tuple[int, int, str, str]:
    with pytest.raises(ScenarioError) as info:
        run_scenario(scenario)
    err = info.value
    text = f"{err}\x00{type(err.cause).__name__}"
    if isinstance(err.cause, ReversalDuringRotation):
        text += f"\x00{err.cause.resolved_state!r}\x00{err.cause.events!r}"
    return (err.step_index, err.command_index, type(err.cause).__name__,
            hashlib.sha256(text.encode()).hexdigest())


def _grasp_cli_defaults() -> Scenario:
    return grasp_scenario(G, M, C, target_force=40.0, gap=10.0,
                          stroke_limit=CFG.stroke_limit, step_deg=CFG.step_deg,
                          torque_step=CFG.torque_step,
                          friction_torque=CFG.friction_torque)


def _switch(from_mode: int, to_mode: int, **kw) -> Scenario:
    scenario, _ = switch_scenario(G, M, C, from_mode=from_mode, to_mode=to_mode,
                                  stroke_limit=CFG.stroke_limit,
                                  step_deg=CFG.step_deg, **kw)
    return scenario


def _torque_open(fraction: float) -> Scenario:
    threshold = breakaway_motor_torque(G, STRONG)
    return Scenario(gears=G, magnet=STRONG, counts=C, initial_position=3.0,
                    commands=(TorqueRamp(fraction * threshold, Direction.OPEN),))


def _grasp_release_switch() -> Scenario:
    cs = ControllerState(open_reference_angle=0.0, k_now=1, n_gc=12,
                         switch_interval=switch_interval(G, C))
    commands, _ = release_then_switch(cs, 3)
    return Scenario(gears=G, magnet=M, counts=C, object_contact=8.0,
                    commands=(TorqueRamp(400.0, Direction.CLOSE), *commands))


def _reversal(stop_deg: float) -> Scenario:
    return Scenario(gears=G, magnet=M, counts=C,
                    commands=(PositionMove(math.radians(stop_deg)),
                              PositionMove(-1.0)))


TRACE_GOLDENS = {
    "grasp_cli_defaults": (
        _grasp_cli_defaults,
        "9348c71303c212a33befb44830d1f65ca1e2c8b466637b6fc12ae0a7775014cf"),
    "lap_1_to_12_cli_defaults": (
        lambda: _switch(1, 12),
        "e5903f5f84994182ca30f912d7c15ce066afba64e52aa19aefb0c9ce615ea6d9"),
    "switch_with_friction": (
        lambda: _switch(1, 2, friction_torque=5.0),
        "25f99d96f908e4311e5ceb7d74abf44bf365362ca6111322c8aee2d320c955db"),
    "torque_open_below_breakaway": (
        lambda: _torque_open(0.6),
        "95fa00375f126faaa86205505c77ead87a3ec806181469bafbc3d115aa928bad"),
    "torque_open_past_breakaway": (
        lambda: _torque_open(1.2),
        "c8dec4b781a2057192fda94d66bd98a2881d1a2bf5193acaad01068010e5f163"),
    "grasp_release_switch": (
        _grasp_release_switch,
        "f12800b9e1d91ffd6e41605dfe2bc4fe5f27cdc66cf86b530b2731c02e700517"),
}


@pytest.mark.parametrize("name", sorted(TRACE_GOLDENS))
def test_trace_matches_golden(name):
    build, digest = TRACE_GOLDENS[name]
    assert _trace_digest(build()) == digest


ERROR_GOLDENS = {
    "reversal_snap_back": (
        lambda: _reversal(1.0),
        (12, 1, "ReversalDuringRotation",
         "531700f51413d7f5570363b6e18d6f36309e9c33998be3bc70aa750a453efdfb")),
    "reversal_snap_forward": (
        lambda: _reversal(30.0),
        (302, 1, "ReversalDuringRotation",
         "9bda8e70c805c435595fcb713bb1ff07c6efce413a6089daa4f9a41fcfc3e122")),
    "max_steps_inside_rotation": (
        lambda: dataclasses.replace(_switch(1, 12), max_steps=5000),
        (5001, 0, "SimError",
         "1b6a9f0deb5acc158a6b8b9b713c47a85f4ef876366d60b1414c17655a9d0f80")),
    "stroke_limit_in_free_closing": (
        lambda: Scenario(gears=G, magnet=M, counts=C, stroke_limit=10.0,
                         commands=(TorqueRamp(400.0, Direction.CLOSE),)),
        (287, 0, "StrokeLimitExceeded",
         "6e5d1f837848453c41a99542f92c677a779beb301666e239d1741c347e29961a")),
}


@pytest.mark.parametrize("name", sorted(ERROR_GOLDENS))
def test_error_matches_golden(name):
    build, expected = ERROR_GOLDENS[name]
    assert _error_digest(build()) == expected
