"""Golden outputs: the simulator's and the grasp classifier's exact output,
pinned by SHA-256 digest.

Each trace digest covers the trace CSV and the events CSV of one scenario,
byte for byte, so any change in a float's last bit, a step count or an event
fails here.  Error cases pin the failing step and command indices and a
digest of the message and, for a reversal, the resolved state and events.
Each grasp digest covers one fixture object classified in all 12 modes at
the CLI defaults of fixtures/default.cfg: the outcome, the reason, the
posture flag, `repr` of the separation and the contacts CSV.  Each CLI
digest covers the stdout of one subcommand run with fixtures/default.cfg.

To re-pin after a deliberate output change, print `_trace_digest(...)`,
`_error_digest(...)`, `_grasp_digest(name)` or `_cli_digest(capsys, argv)`
for the case and name the change in CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import warnings
from pathlib import Path

import pytest

from multigrip import grasp
from multigrip.cli import dispatch
from multigrip.config import default_config, load_config
from multigrip.control import (ControllerState, Direction, PositionMove,
                               TorqueRamp, release_then_switch)
from multigrip.grasp import classify_grasp, write_contacts_csv
from multigrip.mechanics import (MagnetDetent, breakaway_motor_torque,
                                 switch_interval)
from multigrip.modes import build_mode_table
from multigrip.objects import load_object_file, parse_object_file
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
        "6dba6c1e5ebc461c46c72ac475d6c5c5232616b4ce1a22f9a1ae6b33e5e83996"),
    "lap_1_to_12_cli_defaults": (
        lambda: _switch(1, 12),
        "aac80e48e2d343c5d80a71efd7cdb5d8b66394cf7c3dcff82621f4f3e3772571"),
    "switch_with_friction": (
        lambda: _switch(1, 2, friction_torque=5.0),
        "89439d75eda2d6189a4cf692816a8a9d43bfc66a3b280d1e009ce73dc17c0e1f"),
    "torque_open_below_breakaway": (
        lambda: _torque_open(0.6),
        "ab9610c08b40e2490ceb45b75e54905b0d01b0a6539456687e041ef98a1e2efb"),
    "torque_open_past_breakaway": (
        lambda: _torque_open(1.2),
        "4be321c64a3b976910c625120cd8d24a6d4928267a50216707450fdaa1347f85"),
    "grasp_release_switch": (
        _grasp_release_switch,
        "44903d80abbace9fb390ceb34e51935c8431a8846dadbecec63b0c11e68a2474"),
}


@pytest.mark.parametrize("name", sorted(TRACE_GOLDENS))
def test_trace_matches_golden(name):
    build, digest = TRACE_GOLDENS[name]
    assert _trace_digest(build()) == digest


ERROR_GOLDENS = {
    "reversal_snap_back": (
        lambda: _reversal(1.0),
        (12, 1, "ReversalDuringRotation",
         "69bb8e1ca497487c483059e6fb77101ee9e8ffad6b5356e92b2b2d54663a83cc")),
    "reversal_snap_forward": (
        lambda: _reversal(30.0),
        (302, 1, "ReversalDuringRotation",
         "78ab9d96d870cf5f2e9261932e2c9d17c0a111f3ce6d412cac63a0a8dc7b6616")),
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


FIXTURES = Path(__file__).parent.parent / "fixtures"


def _grasp_digest(name: str) -> str:
    cfg = load_config(FIXTURES / "default.cfg")
    table = build_mode_table(cfg.counts, cfg.order_3s, cfg.order_4s)
    spec = load_object_file(FIXTURES / "objects" / f"{name}.object").spec
    parts = []
    for mode in range(1, len(table) + 1):
        result = classify_grasp(spec, table.entry(mode), face_width=cfg.face_width,
                                thin_threshold=cfg.thin_object, stroke=cfg.stroke_limit)
        contacts = io.StringIO()
        write_contacts_csv(result.contacts, contacts)
        parts.append(f"{mode}\x00{result.outcome.value}\x00{result.reason}"
                     f"\x00{result.posture_uncertain}\x00{result.separation!r}"
                     f"\x00{contacts.getvalue()}")
    return hashlib.sha256("\x00".join(parts).encode()).hexdigest()


GRASP_GOLDENS = {
    "box":
        "664890b4d6eec09522f3876b27493cac77be69b4d2a41f9110b03079399c2e67",
    "complex_bracket":
        "1504a3b4a89c933e0218458511e33452f40dc5db8d0132df757e7e65c3dc4943",
    "large_cylinder":
        "27f5f48e6d4e08c2da1dc5d280836eb2e69e61bf1e026defd187a144a46c27ec",
    "small_cylinder":
        "bda00c7ef59c7ecd8b52d5fef72cf40358b58f886b261cf5a909fff35fa939a6",
    "thin_plate":
        "5f55e3b496291bba1151091541e48c60089d80e2803eecc681f48f802f119eab",
}


@pytest.mark.parametrize("name", sorted(GRASP_GOLDENS))
def test_grasp_matches_golden(name):
    assert _grasp_digest(name) == GRASP_GOLDENS[name]


@pytest.mark.parametrize("name", sorted(GRASP_GOLDENS))
def test_grasp_separation_has_no_negative_sign_bit(name):
    # a zero separation is +0.0, so pose arithmetic and repr never see -0.0
    cfg = load_config(FIXTURES / "default.cfg")
    table = build_mode_table(cfg.counts, cfg.order_3s, cfg.order_4s)
    spec = load_object_file(FIXTURES / "objects" / f"{name}.object").spec
    for mode in range(1, len(table) + 1):
        separation = classify_grasp(spec, table.entry(mode), face_width=cfg.face_width,
                                    thin_threshold=cfg.thin_object,
                                    stroke=cfg.stroke_limit).separation
        assert math.copysign(1.0, separation) == 1.0, (mode, separation)


def test_perfbench_verdicts_reproduce(monkeypatch):
    """Every item perfbench's classify-mix can draw classifies as
    perfbench/verdicts.json records it: outcome, contact count and path
    (whether the caging search ran).  A mismatch fails the benchmark's ops.
    The file is read, never written."""
    monkeypatch.syspath_prepend(str(FIXTURES.parent / "perfbench"))
    from classify import OBJECTS, classify, item_key, scaled_object_text

    verdicts = json.loads((FIXTURES.parent / "perfbench" / "verdicts.json").read_text())
    cfg = load_config(FIXTURES / "default.cfg")
    table = build_mode_table(cfg.counts, cfg.order_3s, cfg.order_4s)
    caged = []
    monkeypatch.setattr(grasp, "caging_test",
                        lambda *a, _f=grasp.caging_test, **k: caged.append(1) or _f(*a, **k))
    got = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", grasp.CagingResolutionWarning)
        for key in verdicts:
            name, rest = key.split("@")
            scale, mode = rest.split("#")
            text = (FIXTURES / "objects" / f"{name}.object").read_text()
            desc = parse_object_file(scaled_object_text(text, float(scale)))
            caged.clear()
            result = classify(desc, cfg, table, int(mode))
            closed = result.outcome in (grasp.GraspOutcome.FORM_CLOSURE,
                                        grasp.GraspOutcome.FORCE_CLOSURE)
            got[key] = {
                "outcome": result.outcome.value, "contacts": len(result.contacts),
                "path": "caging" if caged else "closure" if closed else "rule"}
    assert {item_key(name, 1.0, mode) for name in OBJECTS
            for mode in range(1, len(table) + 1)} <= verdicts.keys()
    assert {key: got[key] for key in verdicts if got[key] != verdicts[key]} == {}


def _cli_digest(capsys, argv: list[str]) -> str:
    capsys.readouterr()
    rc = dispatch(["--config", str(FIXTURES / "default.cfg"), *argv])
    out = capsys.readouterr().out
    assert rc == 0
    return hashlib.sha256(out.encode()).hexdigest()


def _plan(name: str, mode: int) -> list[str]:
    return ["plan", "--object", str(FIXTURES / "objects" / f"{name}.object"),
            "--current-mode", str(mode)]


def _sweep(metric: str) -> list[str]:
    return ["sweep", "--param", "detent.magnet_gap_mm", "--range", "0.5:1:0.25",
            "--metric", metric]


# Both flat-faced fixtures plan alike, and so do both cylinders.
_FLAT_1 = "e6a859bd24eb9dfb060ae6f192b51ad6f40e5f9c3916a80c6783b8be115cb3c0"
_FLAT_7 = "3db2ae7c61ef9242a66dbdc7d7fbb82375cf612589225687d60c58410c47795f"
_ROUND_1 = "14c70da086001fb9c5b5d71a2a06c3ba8caf8b5e5dcc04889973a77f2e001624"
_ROUND_7 = "d933068f7bd92ec9499a8ddeaf2b2de5860a65d7b30ad3dbf9ac3e34f1f721da"

CLI_GOLDENS = {
    "modes": (["modes"],
              "62a0fcbdf5c57664cbcd3e9b80a0a77ae377ebaab325dd8fe1f750dbf9aef10a"),
    "validate-gears": (
        ["validate-gears"],
        "55b61e8a7699c877ded1fcec310098b0c37742fa2910cf99155d0a39d231fff4"),
    "sweep-breakaway": (
        _sweep("breakaway"),
        "b56d5445122ae72251180fbb4fccb220472ee9ee115ad9f3a887df9088d6b8fb"),
    "sweep-peak-detent": (
        _sweep("peak-detent"),
        "2e84193d53e5b516eb3dc8ce46a78761b834b55e9b8128d1ed87036f50d39c75"),
    "sweep-switch-interval": (
        _sweep("switch-interval"),
        "75785d6650b383111c9553d5a2a67eae7704bf1b8b1aaef635d336e8e9348920"),
    "plan-box-1": (_plan("box", 1), _FLAT_1),
    "plan-box-7": (_plan("box", 7), _FLAT_7),
    "plan-complex_bracket-1": (
        _plan("complex_bracket", 1),
        "c303b60d93748ef2e78e8639a81bcac76b92aa23a15525d32d06ecfd46eb4cc4"),
    "plan-complex_bracket-7": (
        _plan("complex_bracket", 7),
        "6e12ae3f45d5ed2d37af736add395fe1b5179cbd38931b2251778b3608f7afde"),
    "plan-large_cylinder-1": (_plan("large_cylinder", 1), _ROUND_1),
    "plan-large_cylinder-7": (_plan("large_cylinder", 7), _ROUND_7),
    "plan-small_cylinder-1": (_plan("small_cylinder", 1), _ROUND_1),
    "plan-small_cylinder-7": (_plan("small_cylinder", 7), _ROUND_7),
    "plan-thin_plate-1": (_plan("thin_plate", 1), _FLAT_1),
    "plan-thin_plate-7": (_plan("thin_plate", 7), _FLAT_7),
    "simulate-switch": (
        ["simulate", "switch", "--from", "1", "--to", "2"],
        "88752fb80412e9697fea9eb17bf9b5b94f0af2e6bf963939a85e811035579d60"),
    "simulate-grasp": (
        ["simulate", "grasp", "--force", "40", "--gap", "10"],
        "87a930ad08913d17d969a0c30bfa4f20a2f28af90f4816612443f7f7a1a12cbf"),
}


@pytest.mark.parametrize("name", sorted(CLI_GOLDENS))
def test_cli_stdout_matches_golden(capsys, name):
    argv, digest = CLI_GOLDENS[name]
    assert _cli_digest(capsys, argv) == digest
