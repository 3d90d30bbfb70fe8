import csv
import dataclasses
import io
import math
import random
import re
import tracemalloc
from array import array

import numpy as np
import pytest

from multigrip import mechanics, sim
from multigrip.control import Direction, PositionMove, TorqueRamp
from multigrip.mechanics import (GearGeometry, MagnetDetent, SurfaceCounts,
                                 breakaway_motor_torque, chain_tension,
                                 detent_peak, gc_mode_count, switch_interval)
from multigrip.sim import (EVENT_BREAKAWAY, EVENT_MODE_CHANGED,
                           EVENT_OBJECT_CONTACT,
                           EVENT_STOPPER_CONTACT, EVENTS_HEADER, Phase,
                           ReversalDuringRotation, Scenario, ScenarioError,
                           StrokeLimitExceeded, TRACE_HEADER,
                           UnreachableTarget, at_detent, body_torque_trace,
                           grasp_scenario, initial_state, run_scenario, step,
                           switch_scenario, write_events_csv, write_trace_csv)

from oracles import plain_run_scan, replay_by_steps
from test_golden import TRACE_GOLDENS


class TestStep:
    def test_closing_translation_rate(self, gears, magnet, counts):
        sc = Scenario(gears=gears, magnet=magnet, counts=counts,
                      object_contact=20.0, step_deg=math.degrees(0.1))
        state = initial_state(sc)
        cmd = TorqueRamp(400.0, Direction.CLOSE)
        new, events = step(state, cmd, sc)
        assert new.d_f_3s == pytest.approx(2.0, rel=1e-12)
        assert new.d_f_4s == new.d_f_3s
        assert new.theta_m == pytest.approx(-0.1)
        assert new.theta_fb_3s == 0.0 and new.theta_fb_4s == 0.0
        assert events == ()

    def test_opening_torque_below_breakaway_no_rotation(self, gears, magnet, counts):
        threshold = breakaway_motor_torque(gears, magnet)
        sc = Scenario(gears=gears, magnet=magnet, counts=counts,
                      torque_step=0.1 * threshold)
        state = initial_state(sc)
        cmd = TorqueRamp(0.5 * threshold, Direction.OPEN)
        new, events = step(state, cmd, sc)
        assert new.tau_m == pytest.approx(0.1 * threshold)
        assert new.theta_fb_3s == 0.0
        assert new.phase is Phase.AT_STOPPER
        assert events == ()

    def test_opening_position_breaks_detent(self, gears, magnet, counts):
        sc = Scenario(gears=gears, magnet=magnet, counts=counts)
        state = initial_state(sc)
        cmd = PositionMove(switch_interval(gears, counts))
        new, events = step(state, cmd, sc)
        assert new.phase is Phase.ROTATING
        assert events[0][0] == EVENT_BREAKAWAY
        assert new.theta_m == state.theta_m  # event-only step

    def test_reversal_mid_rotation_below_peak_snaps_back(self, gears, magnet, counts):
        sc = Scenario(gears=gears, magnet=magnet, counts=counts, step_deg=0.5)
        # stop mid-rotation before the detent-torque peak
        stop = math.radians(1.0)  # motor angle; body angle ~1.1 deg < peak
        tr = run_scenario(Scenario(gears=gears, magnet=magnet, counts=counts,
                                   step_deg=0.5, commands=(PositionMove(stop),)))
        state = tr.final_state
        assert state.phase is Phase.ROTATING
        with pytest.raises(ReversalDuringRotation) as err:
            step(state, PositionMove(-1.0), sc)
        resolved = err.value.resolved_state
        assert resolved.theta_fb_3s == 0.0
        assert resolved.mode_index == 1
        assert resolved.phase is Phase.DETENT_ENGAGED

    def test_reversal_mid_rotation_past_peak_snaps_forward(self, gears, magnet, counts):
        stop = math.radians(30.0)
        tr = run_scenario(Scenario(gears=gears, magnet=magnet, counts=counts,
                                   step_deg=0.5, commands=(PositionMove(stop),)))
        state = tr.final_state
        peak_angle, _ = detent_peak(magnet)
        assert state.theta_fb_3s > peak_angle
        sc = Scenario(gears=gears, magnet=magnet, counts=counts, step_deg=0.5)
        with pytest.raises(ReversalDuringRotation) as err:
            step(state, PositionMove(-1.0), sc)
        resolved = err.value.resolved_state
        assert math.degrees(resolved.theta_fb_3s) == pytest.approx(120.0)
        assert resolved.mode_index == 2
        assert any(kind == EVENT_MODE_CHANGED for kind, _ in err.value.events)

    def test_finished_position_move_is_a_no_op(self, gears, magnet, counts):
        move = PositionMove(math.radians(30.0))
        sc = Scenario(gears=gears, magnet=magnet, counts=counts, commands=(move,))
        state = run_scenario(sc).final_state
        assert step(state, move, sc) == (state, ())

    def test_position_close_into_contact_is_unreachable(self, gears, magnet, counts):
        sc = Scenario(gears=gears, magnet=magnet, counts=counts,
                      object_contact=5.0,
                      commands=(PositionMove(-10.0 / 20.0),))
        with pytest.raises(ScenarioError) as err:
            run_scenario(sc)
        assert isinstance(err.value.cause, UnreachableTarget)

    def test_stroke_limit_violation(self, gears, magnet, counts):
        sc = Scenario(gears=gears, magnet=magnet, counts=counts,
                      stroke_limit=10.0,
                      commands=(TorqueRamp(400.0, Direction.CLOSE),))
        with pytest.raises(ScenarioError) as err:
            run_scenario(sc)
        assert isinstance(err.value.cause, StrokeLimitExceeded)
        assert err.value.step_index > 0


class TestScenarioConstants:
    def test_derived_once_per_scenario(self, monkeypatch, gears, magnet, counts):
        built = [TRACE_GOLDENS["torque_open_below_breakaway"][0](),
                 switch_scenario(gears, magnet, counts, from_mode=1, to_mode=3)[0]]
        calls = {}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in ("detent_peak", "switch_interval"):
            wrapped = counted(name, getattr(mechanics, name))
            for module in (mechanics, sim):
                monkeypatch.setattr(module, name, wrapped)
        for scenario in built:
            calls.update(detent_peak=0, switch_interval=0)
            # a fresh Scenario, so its construction is counted too
            trace = replay_by_steps(dataclasses.replace(scenario))
            assert len(trace.rows) > 10
            assert calls["detent_peak"] <= 1, calls
            assert calls["switch_interval"] <= 1, calls

    def test_inconsistent_gearing_refused_at_construction(self, magnet, counts):
        bad = GearGeometry(20.0, 15.0, 10.0, 10.0, 12.0, 12.0)
        with pytest.raises(ValueError, match="inconsistent gearing"):
            Scenario(gears=bad, magnet=magnet, counts=counts)

    @pytest.mark.parametrize("field", ["stroke_limit", "step_deg", "torque_step",
                                       "friction_torque", "initial_position",
                                       "object_contact"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_input_refused(self, gears, magnet, counts, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            Scenario(gears=gears, magnet=magnet, counts=counts, **{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("initial_mode", 1.5, "must be an int, got 1.5"),
        ("initial_mode", 2.0, "must be an int, got 2.0"),
        ("initial_mode", True, "must be an int, got True"),
        ("initial_mode", "1", "must be an int, got '1'"),
        ("max_steps", math.nan, "must be an int, got nan"),
        ("max_steps", 10.0, "must be an int, got 10.0"),
        ("max_steps", "10", "must be an int, got '10'"),
        ("max_steps", False, "must be an int, got False"),
        ("max_steps", -1, "must be >= 0, got -1")])
    def test_non_integer_count_refused(self, gears, magnet, counts, field, value, message):
        with pytest.raises(ValueError, match=f"^{field} {re.escape(message)}$"):
            Scenario(gears=gears, magnet=magnet, counts=counts, **{field: value})

    # a float command once passed here and failed in run_scenario with an
    # AttributeError
    @pytest.mark.parametrize("commands, message", [
        ((1.0,), "commands[0] must be a TorqueRamp or PositionMove, got 1.0"),
        ((TorqueRamp(10.0), Direction.OPEN),
         "commands[1] must be a TorqueRamp or PositionMove, got <Direction.OPEN: 'open'>"),
        ((PositionMove(0.5), None),
         "commands[1] must be a TorqueRamp or PositionMove, got None")])
    def test_non_command_refused(self, gears, magnet, counts, commands, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Scenario(gears=gears, magnet=magnet, counts=counts, commands=commands)


class TestGraspScenario:
    def test_force_profile(self, gears, magnet, counts):
        sc = grasp_scenario(gears, magnet, counts, target_force=40.0, gap=10.0)
        tr = run_scenario(sc)
        contact_step = tr.events_of(EVENT_OBJECT_CONTACT)[0].step
        # translation first, zero force throughout
        for row in tr.rows[:contact_step]:
            assert row.f_g == 0.0
            assert row.tau_m == 0.0
        # then force rises to the target with the fingers parked
        assert tr.rows[-1].f_g == pytest.approx(40.0, abs=1e-9)
        assert tr.rows[-1].d_f_3s == 10.0
        for row in tr.rows[contact_step:]:
            assert row.d_f_3s == 10.0
        # bodies never rotate while grasping
        assert all(r.theta_fb_3s == 0.0 for r in tr.rows)

    def test_overlay_equality_frictionless(self, gears, magnet, counts):
        sc = grasp_scenario(gears, magnet, counts, target_force=40.0, gap=10.0)
        tr = run_scenario(sc)
        for row in tr.rows:
            if row.phase is Phase.GRASPING:
                assert row.f_g == chain_tension(row.tau_m, gears)

    def test_empty_command_sequence(self, gears, magnet, counts):
        tr = run_scenario(Scenario(gears=gears, magnet=magnet, counts=counts))
        assert len(tr.rows) == 1
        assert tr.events == ()

    def test_grasp_then_release_returns_to_stopper(self, gears, magnet, counts):
        for gap in (2.0, 10.0, 25.0):
            sc = Scenario(gears=gears, magnet=magnet, counts=counts,
                          object_contact=gap,
                          commands=(TorqueRamp(400.0, Direction.CLOSE),
                                    PositionMove(0.0)))
            tr = run_scenario(sc)
            assert tr.final_state.d_f_3s == 0.0
            assert tr.final_state.phase is Phase.AT_STOPPER
            assert tr.final_state.tau_m == 0.0

    def test_release_then_switch_from_a_grip(self, gears, magnet, counts):
        from multigrip.control import ControllerState, release_then_switch
        from multigrip.mechanics import switch_interval

        cs = ControllerState(open_reference_angle=0.0, k_now=1, n_gc=12,
                             switch_interval=switch_interval(gears, counts))
        commands, cs2 = release_then_switch(cs, 3)
        sc = Scenario(gears=gears, magnet=magnet, counts=counts,
                      object_contact=8.0, step_deg=0.5,
                      commands=(TorqueRamp(400.0, Direction.CLOSE), *commands))
        tr = run_scenario(sc)
        assert cs2.k_now == 3
        assert tr.final_state.mode_index == 3
        assert len(tr.events_of(EVENT_MODE_CHANGED)) == 2
        # the release leg visibly passed through the stopper
        assert len(tr.events_of(EVENT_STOPPER_CONTACT)) == 1

    def test_translation_energy_bookkeeping(self, gears, magnet, counts):
        # quasi-static and frictionless: free translation exchanges no work,
        # so motor work and finger work integrate to the same (zero) total
        sc = grasp_scenario(gears, magnet, counts, target_force=40.0, gap=10.0)
        tr = run_scenario(sc)
        motor_work = 0.0
        finger_work = 0.0
        for prev, cur in zip(tr.rows, tr.rows[1:]):
            if cur.d_f_3s != prev.d_f_3s:  # translation segment
                motor_work += cur.tau_m * abs(cur.theta_m - prev.theta_m)
                finger_work += cur.f_g * (cur.d_f_3s - prev.d_f_3s) * 2
        assert motor_work == pytest.approx(finger_work, abs=1e-6)


class TestSwitchScenario:
    def test_single_switch_geometry(self, gears, magnet, counts):
        sc, cs = switch_scenario(gears, magnet, counts, from_mode=1, to_mode=2)
        tr = run_scenario(sc)
        assert len(tr.events_of(EVENT_MODE_CHANGED)) == 1
        assert len(tr.events_of(EVENT_STOPPER_CONTACT)) == 1
        breakaway = tr.events_of(EVENT_BREAKAWAY)[0]
        changed = tr.events_of(EVENT_MODE_CHANGED)[0]
        travel = tr.rows[changed.step].theta_m - tr.rows[breakaway.step].theta_m
        assert math.degrees(travel) == pytest.approx(108.0, abs=1e-6)
        final = tr.final_state
        assert math.degrees(final.theta_fb_3s) == pytest.approx(120.0, abs=1e-9)
        assert math.degrees(final.theta_fb_4s) == pytest.approx(90.0, abs=1e-9)
        assert final.mode_index == 2
        assert cs.k_now == 2

    def test_torque_peak_at_rotation_onset(self, gears, magnet, counts):
        sc, _ = switch_scenario(gears, magnet, counts, from_mode=1, to_mode=2)
        tr = run_scenario(sc)
        rotating = [r for r in tr.rows if r.phase is Phase.ROTATING]
        peak_row = max(rotating, key=lambda r: r.tau_m)
        assert math.radians(2.5) <= peak_row.theta_fb_3s <= math.radians(3.0)
        assert peak_row.tau_m == pytest.approx(
            breakaway_motor_torque(gears, magnet), rel=1e-3)

    def test_body_torque_trace_matches_detent_curve(self, gears, magnet, counts):
        sc, _ = switch_scenario(gears, magnet, counts, from_mode=1, to_mode=2)
        tr = run_scenario(sc)
        pairs = body_torque_trace(tr, gears)
        assert len(pairs) == len(tr.rows)
        peak_tau3 = max(t for _, t in pairs)
        _, tau_peak = detent_peak(magnet)
        assert peak_tau3 == pytest.approx(tau_peak, rel=1e-3)
        # spot-check the transform
        row = tr.rows[-1]
        assert pairs[-1][1] == pytest.approx(
            gears.torque_arm_3s / gears.input_sprocket_radius * row.tau_m)
        # friction shifts the whole curve up without moving the peak
        sc_f, _ = switch_scenario(gears, magnet, counts, from_mode=1,
                                  to_mode=2, friction_torque=5.0)
        tr_f = run_scenario(sc_f)
        rot = [r for r in tr_f.rows if r.phase is Phase.ROTATING and r.tau_m > 0]
        scale = gears.torque_arm_3s / gears.input_sprocket_radius
        assert min(r.tau_m for r in rot) >= 5.0 - 1e-9
        assert max(r.tau_m for r in rot) == pytest.approx(
            breakaway_motor_torque(gears, magnet) + 5.0, rel=1e-3)
        assert scale  # transform factor used above

    def test_multi_switch_counts(self, gears, magnet, counts):
        sc, _ = switch_scenario(gears, magnet, counts, from_mode=1, to_mode=4,
                                step_deg=0.5)
        tr = run_scenario(sc)
        changes = tr.events_of(EVENT_MODE_CHANGED)
        assert [e.detail for e in changes] == ["mode=2", "mode=3", "mode=4"]
        assert len(tr.events_of(EVENT_BREAKAWAY)) == 3
        assert tr.final_state.mode_index == 4

    def test_wrap_switch(self, gears, magnet, counts):
        sc, _ = switch_scenario(gears, magnet, counts, from_mode=4, to_mode=1,
                                step_deg=0.5)
        tr = run_scenario(sc)
        assert len(tr.events_of(EVENT_MODE_CHANGED)) == 9
        assert tr.final_state.mode_index == 1


def _csv(trace) -> str:
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    return buf.getvalue()


def _csv_reference(trace) -> str:
    """The trace CSV written one row at a time through the csv module."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    for r in trace.rows:
        writer.writerow([r.step, repr(math.degrees(r.theta_m)), repr(r.tau_m),
                         repr(r.d_f_3s), repr(r.d_f_4s),
                         repr(math.degrees(r.theta_fb_3s)),
                         repr(math.degrees(r.theta_fb_4s)),
                         repr(r.f_g), r.phase.value])
    return buf.getvalue()


class TestCsv:
    def test_trace_csv_matches_row_by_row_writer(self, gears, magnet, counts):
        sc, _ = switch_scenario(gears, magnet, counts, from_mode=1, to_mode=4,
                                step_deg=0.1)
        tr = run_scenario(sc)
        assert len(tr.rows) > 2000  # spans several formatting chunks
        # hand-built rows: int, signed-zero and nan values and unequal
        # finger travels keep their own text
        odd = tr.rows[:3] + (
            tr.rows[3]._replace(d_f_3s=0.0, d_f_4s=-0.0, tau_m=400),
            tr.rows[4]._replace(d_f_3s=3, d_f_4s=3.0, f_g=float("nan")),
            tr.rows[5]._replace(d_f_4s=tr.rows[5].d_f_3s + 1e-9))
        for trace in (tr, dataclasses.replace(tr, rows=odd)):
            assert _csv(trace) == _csv_reference(trace)
        # a hand-built twin of a run holds lists, and writes the same text
        assert _csv(dataclasses.replace(tr, rows=tuple(tr.rows))) == _csv(tr)

    def test_int_inputs_write_as_floats(self, gears, magnet, counts):
        # a run records floats, whatever number type built the scenario
        ints, _ = switch_scenario(gears, magnet, counts, from_mode=1, to_mode=2, gap=3)
        floats, _ = switch_scenario(gears, magnet, counts, from_mode=1, to_mode=2,
                                    gap=3.0)
        assert _csv(run_scenario(ints)) == _csv(run_scenario(floats))
        grasps = [Scenario(gears=gears, magnet=magnet, counts=counts,
                           commands=(TorqueRamp(force, Direction.CLOSE),),
                           object_contact=gap)
                  for force, gap in ((400, 5), (400.0, 5.0))]
        assert grasps[0] == grasps[1]
        assert _csv(run_scenario(grasps[0])) == _csv(run_scenario(grasps[1]))

    def test_trace_round_trip_schema(self, gears, magnet, counts):
        sc, _ = switch_scenario(gears, magnet, counts, from_mode=1, to_mode=2,
                                step_deg=1.0)
        tr = run_scenario(sc)
        buf = io.StringIO()
        write_trace_csv(tr, buf)
        buf.seek(0)
        rows = list(csv.reader(buf))
        assert rows[0] == TRACE_HEADER
        assert len(rows) == len(tr.rows) + 1
        assert all(len(r) == len(TRACE_HEADER) for r in rows[1:])
        # values survive the round trip
        assert float(rows[-1][1]) == pytest.approx(math.degrees(tr.rows[-1].theta_m))

    def test_events_round_trip_schema(self, gears, magnet, counts):
        sc, _ = switch_scenario(gears, magnet, counts, from_mode=1, to_mode=2,
                                step_deg=1.0)
        tr = run_scenario(sc)
        buf = io.StringIO()
        write_events_csv(tr, buf)
        buf.seek(0)
        rows = list(csv.reader(buf))
        assert rows[0] == EVENTS_HEADER
        assert len(rows) == len(tr.events) + 1


class TestTraceRows:
    def test_view_reads_like_the_tuple_of_rows(self, gears, magnet, counts):
        sc, _ = switch_scenario(gears, magnet, counts, from_mode=1, to_mode=2,
                                step_deg=1.0)
        tr = run_scenario(sc)
        rows = tuple(tr.rows)
        assert all(type(r) is sim.TraceRow for r in rows)
        assert [r.step for r in rows] == list(range(len(rows)))
        assert len(tr.rows) == len(rows) > 100
        assert (tr.rows[0], tr.rows[-1], tr.rows[7]) == (rows[0], rows[-1], rows[7])
        assert tr.rows[3:40:3] == rows[3:40:3] and type(tr.rows[3:5]) is tuple
        assert tr.rows == rows and rows == tr.rows and tr.rows != rows[:-1]
        assert list(reversed(tr.rows)) == list(reversed(rows))
        # a run holds a range of steps, float arrays (d_f_4s shares d_f_3s)
        # and a list of phases; a hand-built trace holds list columns
        step_col, *float_cols, phase_col = tr.rows.columns
        assert type(step_col) is range and type(phase_col) is list
        assert all(type(col) is array and col.typecode == "d" for col in float_cols)
        assert float_cols[2] is float_cols[3]
        assert all(type(v) is float for r in rows for v in r[1:-1])
        again = dataclasses.replace(tr, rows=rows)
        assert all(type(col) is list for col in again.rows.columns)
        assert again == tr and again.rows == tr.rows
        assert hash(again) == hash(tr) == hash(dataclasses.replace(tr, rows=list(rows)))
        changed = rows[:-1] + (rows[-1]._replace(tau_m=1.0),)
        assert dataclasses.replace(tr, rows=changed).rows != tr.rows
        with pytest.raises(IndexError):
            tr.rows[len(rows)]
        empty = dataclasses.replace(tr, rows=())
        assert len(empty.rows) == 0 and empty.rows == ()

    def test_long_trace_holds_under_64_bytes_a_row(self, gears, magnet, counts):
        # the 1 -> 12 lap at 0.01 deg; lists of float objects would hold 153 B
        sc, _ = switch_scenario(gears, magnet, counts, from_mode=1, to_mode=12,
                                step_deg=0.01)
        run_scenario(sc)  # fills the detent-peak cache outside the count
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tr = run_scenario(sc)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(tr.rows) == 119_672
        assert held / len(tr.rows) <= 64


def random_valid_design(rng: random.Random):
    """A gear/magnet/counts triple that satisfies the antipodal identity."""
    n_3s = rng.randint(2, 5)
    n_4s = rng.randint(n_3s, 6)
    counts = SurfaceCounts(n_3s, n_4s)
    body = rng.uniform(8.0, 16.0)
    base = rng.uniform(15.0, 40.0)
    gears = GearGeometry(
        input_sprocket_radius=rng.uniform(10.0, 30.0),
        shaft_sprocket_radius=rng.uniform(10.0, 20.0),
        shaft_gear_radius_3s=base * body / n_3s / 10.0,
        shaft_gear_radius_4s=base * body / n_4s / 10.0,
        body_gear_radius_3s=body,
        body_gear_radius_4s=body,
    )
    magnet = MagnetDetent(
        magnet_coefficient=10.0 ** rng.uniform(-5, -2),
        circle_radius=rng.uniform(8.0, 20.0),
        nominal_gap=rng.uniform(0.5, 2.0),
    )
    return gears, magnet, counts


def random_scenario(rng: random.Random) -> Scenario:
    gears, magnet, counts = random_valid_design(rng)
    interval = switch_interval(gears, counts)
    has_object = rng.random() < 0.5
    contact = rng.uniform(4.0, 15.0) if has_object else None
    initial = 0.0 if rng.random() < 0.5 else rng.uniform(0.5, 4.0)
    friction = 0.0 if rng.random() < 0.7 else rng.uniform(0.0, 2.0)
    r = gears.input_sprocket_radius

    open_ref = initial / r
    commands = []
    in_contact = False
    mid_rotation = False
    for _ in range(rng.randint(1, 3)):
        if mid_rotation:
            # only continuing to the next detent is legal
            commands.append(PositionMove(open_ref + interval))
            open_ref += interval
            mid_rotation = False
            continue
        choice = rng.random()
        if has_object and choice < 0.35:
            commands.append(TorqueRamp(rng.uniform(50.0, 800.0), Direction.CLOSE))
            in_contact = True
        elif choice < 0.55:
            k = rng.randint(1, 3)
            commands.append(PositionMove(open_ref + k * interval))
            open_ref += k * interval
            in_contact = False
        elif choice < 0.7:
            commands.append(PositionMove(open_ref + rng.uniform(0.1, 0.9) * interval))
            mid_rotation = True
            in_contact = False
        elif choice < 0.85:
            commands.append(PositionMove(open_ref))
            in_contact = False
        else:
            threshold = breakaway_motor_torque(gears, magnet) + friction
            commands.append(TorqueRamp(rng.uniform(0.1, 0.9) * threshold,
                                       Direction.OPEN))
            in_contact = False
    assert in_contact or True  # tracked only to mirror controller usage
    return Scenario(gears=gears, magnet=magnet, counts=counts,
                    commands=tuple(commands), stroke_limit=40.0,
                    initial_position=initial, object_contact=contact,
                    friction_torque=friction,
                    step_deg=rng.choice([0.2, 0.5, 1.0]),
                    torque_step=rng.uniform(5.0, 50.0))


_DETENT_PHASES = [p for p in Phase if at_detent(p)]
_FREE_TRANSLATION = (Phase.TRANSLATING_CLOSE, Phase.TRANSLATING_OPEN,
                     Phase.AT_STOPPER)


def _phase_in(phase: np.ndarray, members) -> np.ndarray:
    return np.logical_or.reduce([phase == p for p in members])


def _near_whole(x: np.ndarray) -> bool:
    """Every x == approx(round(x), abs=1e-9): an absolute bound only."""
    return bool(np.all(np.abs(x - np.round(x)) <= 1e-9))


def check_invariants(sc: Scenario, tr) -> None:
    """Step-to-step properties of a trace, checked on its columns at once."""
    ratio = ((sc.gears.shaft_gear_radius_3s * sc.gears.body_gear_radius_4s)
             / (sc.gears.shaft_gear_radius_4s * sc.gears.body_gear_radius_3s))
    n_gc = gc_mode_count(sc.counts)
    _, _, tau, d3, d4, fb3, fb4, f_g, phase = zip(*tr.rows)
    tau, d3, d4, fb3, fb4, f_g = map(np.array, (tau, d3, d4, fb3, fb4, f_g))
    phase = np.array(phase, dtype=object)[1:]
    # ratchet monotonicity
    assert np.all(fb3[1:] >= fb3[:-1])
    assert np.all(fb4[1:] >= fb4[:-1])
    # travel bounds (every row after the first)
    assert np.all((-1e-12 <= d3[1:]) & (d3[1:] <= sc.stroke_limit + 1e-9))
    assert np.all(d3[1:] == d4[1:])
    # motion exclusivity
    d_moved = d3[1:] != d3[:-1]
    fb_moved = (fb3[1:] != fb3[:-1]) | (fb4[1:] != fb4[:-1])
    assert not np.any(d_moved & fb_moved)
    # coupled rotation rates
    step3 = (fb3[1:] - fb3[:-1])[fb_moved]
    step4 = (fb4[1:] - fb4[:-1])[fb_moved]
    assert np.all(step4 > 0)
    big = step4 > 1e-6  # above float quantization of the stored angles
    # d3 / d4 == approx(ratio, rel=1e-6), whose absolute floor is 1e-12
    assert np.all(np.abs(step3[big] / step4[big] - ratio)
                  <= max(1e-6 * abs(ratio), 1e-12))
    # quasi-static bookkeeping: free translation is force-free
    if sc.friction_torque == 0.0:
        free = d_moved & _phase_in(phase, _FREE_TRANSLATION)
        assert np.all(tau[1:][free] == 0.0) and np.all(f_g[1:][free] == 0.0)
    # at-detent phases imply body angles at exact surface multiples
    engaged = _phase_in(phase, _DETENT_PHASES)
    assert _near_whole(fb3[1:][engaged] / sc.counts.pitch_3s)
    assert _near_whole(fb4[1:][engaged] / sc.counts.pitch_4s)
    changes = 0
    for event in tr.events:
        if event.kind != EVENT_MODE_CHANGED:
            continue
        changes += 1
        row = tr.rows[event.step]
        p3 = sc.counts.pitch_3s
        p4 = sc.counts.pitch_4s
        assert row.theta_fb_3s / p3 == pytest.approx(
            round(row.theta_fb_3s / p3), abs=1e-9)
        assert row.theta_fb_4s / p4 == pytest.approx(
            round(row.theta_fb_4s / p4), abs=1e-9)
        expected_mode = (sc.initial_mode - 1 + changes) % n_gc + 1
        assert event.detail == f"mode={expected_mode}"
    assert tr.final_state.mode_index == (sc.initial_mode - 1 + changes) % n_gc + 1


class TestRandomizedProperties:
    N = 300

    def test_invariants_and_determinism(self):
        rng = random.Random(20240901)
        for i in range(self.N):
            sc = random_scenario(rng)
            tr = run_scenario(sc)
            check_invariants(sc, tr)
            again = run_scenario(sc)
            assert again.rows == tr.rows
            assert again.events == tr.events


def _outcome(run, scenario):
    """The trace, or the error's type, message, indices and attached state."""
    try:
        trace = run(scenario)
    except ScenarioError as err:
        cause = err.cause
        attached = ((cause.resolved_state, cause.events)
                    if isinstance(cause, ReversalDuringRotation) else None)
        return (str(err), err.step_index, err.command_index, type(cause),
                str(cause), attached)
    return trace.rows, trace.events, trace.final_state


def _edge_scenarios(gears, counts):
    """Runs the random population lacks: held-torque rotation, free closing
    into the stroke limit, reversal after a long rotation, and stopper or
    contact distances that are whole multiples of the increment, where
    only the landing tolerance decides the last step."""
    strong = MagnetDetent(magnet_coefficient=16.0, circle_radius=14.0,
                          nominal_gap=1.0)
    threshold = breakaway_motor_torque(gears, strong)
    scenarios = []
    for step_deg in (0.05, 0.1, 0.7, 5.0):
        common = dict(gears=gears, magnet=strong, counts=counts,
                      step_deg=step_deg)
        whole = 9 * gears.input_sprocket_radius * math.radians(step_deg)
        scenarios += [
            Scenario(**common, initial_position=whole,
                     commands=(PositionMove(2.0),)),
            Scenario(**common, object_contact=whole,
                     commands=(TorqueRamp(50.0, Direction.CLOSE),)),
            Scenario(**common, initial_position=3.0,
                     commands=(TorqueRamp(1.2 * threshold, Direction.OPEN),
                               TorqueRamp(3.0 * threshold, Direction.OPEN))),
            Scenario(**common, stroke_limit=10.0,
                     commands=(TorqueRamp(400.0, Direction.CLOSE),)),
            Scenario(**common, initial_position=2.0,
                     commands=(PositionMove(math.radians(30.0)),
                               PositionMove(-1.0))),
        ]
    return scenarios


def _fragile_scenarios(gears, counts, seed: int, n: int):
    """Seeded runs that end by a hair, at random increments (0.01-10 deg)
    and magnet strengths: held-torque rotations, and stopper, contact,
    stroke or detent distances that are whole multiples of the increment.
    Where a switch interval is a whole number of increments, the search
    probes states past the detent, and the 3S switch count alone keeps a
    run from passing it."""
    rng = random.Random(seed)
    r, interval = gears.input_sprocket_radius, switch_interval(gears, counts)
    scenarios = []
    for i in range(n):
        if rng.random() < 0.5:
            step_deg = 10.0 ** rng.uniform(-2.0, 1.0)
        else:
            step_deg = math.degrees(interval) / rng.randint(11, 2000)
        magnet = MagnetDetent(magnet_coefficient=10.0 ** rng.uniform(-5.0, 1.3),
                              circle_radius=rng.uniform(8.0, 20.0),
                              nominal_gap=rng.uniform(0.5, 2.0))
        friction = rng.choice([0.0, rng.uniform(0.0, 2.0)])
        threshold = breakaway_motor_torque(gears, magnet) + friction
        # a whole number of increments, at most 30 mm of travel
        inc = r * math.radians(step_deg)
        whole = rng.randint(1, max(1, min(40, int(30.0 / inc)))) * inc
        common = dict(gears=gears, magnet=magnet, counts=counts, step_deg=step_deg,
                      friction_torque=friction)
        if i % 4 == 0:
            ramps = [TorqueRamp(rng.uniform(1.05, 3.0) * threshold, Direction.OPEN)
                     for _ in range(rng.randint(1, 2))]
            scenarios.append(Scenario(**common, initial_position=whole,
                                      commands=tuple(ramps)))
        elif i % 4 == 1:
            scenarios.append(Scenario(**common, object_contact=whole, commands=(
                TorqueRamp(rng.uniform(50.0, 800.0), Direction.CLOSE),
                PositionMove(0.0), PositionMove(rng.randint(1, 2) * interval))))
        elif i % 4 == 2:
            scenarios.append(Scenario(**common, initial_position=whole, commands=(
                PositionMove(whole / r + rng.uniform(0.2, 2.0) * interval),)))
        else:
            scenarios.append(Scenario(**common, stroke_limit=whole, commands=(
                TorqueRamp(rng.uniform(50.0, 800.0), Direction.CLOSE),)))
    return scenarios


class TestSegmentRunsMatchStep:
    """run_scenario equals the one-increment `step` replay, bit for bit."""

    @staticmethod
    def _check(scenario, cut: bool) -> None:
        expected = _outcome(replay_by_steps, scenario)
        assert _outcome(run_scenario, scenario) == expected
        if not cut or len(expected) != 3:  # an error outcome has six fields
            return
        steps = len(expected[0]) - 1
        for max_steps in sorted({0, 1, 7, steps // 3, steps // 2, steps - 1}):
            if 0 <= max_steps < steps:
                short = dataclasses.replace(scenario, max_steps=max_steps)
                assert (_outcome(run_scenario, short)
                        == _outcome(replay_by_steps, short))

    @pytest.mark.parametrize("seed, n", [(20240901, 300), (987654321, 1000)])
    def test_random_population(self, seed, n):
        rng = random.Random(seed)
        for i in range(n):
            self._check(random_scenario(rng), cut=i % 10 == 0)

    def test_edge_scenarios(self, gears, counts):
        for scenario in _edge_scenarios(gears, counts):
            self._check(scenario, cut=True)

    def test_fragile_scenarios(self, gears, counts):
        for i, scenario in enumerate(_fragile_scenarios(gears, counts, 20261021, 48)):
            self._check(scenario, cut=i % 8 == 0)


class TestRunLengthMatchesScan:
    """Each run the bisection finds ends where the vectorized scan of the
    plain-step conditions ends, or sooner where the 3S switch count
    changes."""

    def test_random_population(self, monkeypatch, gears, counts):
        runs = []
        plain_run = sim._plain_run

        def recording(state, cmd, sc, motion, max_len):
            run = plain_run(state, cmd, sc, motion, max_len)
            if run is not None:
                runs.append((state, cmd, sc, max_len, run[0]))
            return run

        monkeypatch.setattr(sim, "_plain_run", recording)
        rng = random.Random(20240901)
        scenarios = [random_scenario(rng) for _ in range(300)]
        for scenario in scenarios + _edge_scenarios(gears, counts):
            try:
                run_scenario(scenario)
            except ScenarioError:
                pass
        assert len(runs) > 500
        for state, cmd, sc, max_len, m in runs:
            # one state past the run shows whether the scan goes on
            n = min(max_len, sim._MAX_RUN, m + 1)
            length, first_switch = plain_run_scan(state, cmd, sc, n)
            assert m <= length
            assert m == length or first_switch == m


class TestRunProbeCount:
    """A run costs about three probes of the step rules: the bound's
    estimate overshoots a run by two or three steps, so the search probes
    just below it first and bisects the few steps above."""

    def test_random_population(self, monkeypatch):
        advance, plain_run = sim._advance, sim._plain_run
        inside, counts = [False], {"advance": 0, "runs": 0}

        def counted_advance(*args):
            counts["advance"] += inside[0]
            return advance(*args)

        def counted_plain_run(*args):
            inside[0] = True
            try:
                run = plain_run(*args)
            finally:
                inside[0] = False
            counts["runs"] += run is not None
            return run

        monkeypatch.setattr(sim, "_advance", counted_advance)
        monkeypatch.setattr(sim, "_plain_run", counted_plain_run)
        rng = random.Random(20240901)
        for _ in range(300):
            try:
                run_scenario(random_scenario(rng))
            except ScenarioError:
                pass
        # a bisection over each run's whole ramp calls _advance 4010 times
        assert counts == {"advance": 1754, "runs": 696}
