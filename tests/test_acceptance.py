"""End-to-end acceptance checks.

Each test covers one numbered criterion, asserts it at its stated
tolerance, and prints a PASS line (run with -s to see them).  Stated
runtime budgets are enforced with wall-clock guards.
"""

import csv
import math
import random
import time

import pytest

from multigrip.cli import dispatch
from multigrip.control import switch_rotation
from multigrip.grasp import (GraspOutcome, caging_test, classify_grasp,
                             closure_separation, compute_contacts,
                             force_closure_test, form_closure_test,
                             surface_profile)
from multigrip.mechanics import (DEFAULT_COUNTS, DEFAULT_GEARS, DEFAULT_MAGNET,
                                 MagnetDetent, SurfaceCounts,
                                 breakaway_motor_torque, chain_tension,
                                 detent_peak, finger_body_angles,
                                 gc_mode_count, switch_interval)
from multigrip.modes import (build_mode_table, concave, deformable_flat,
                             distinct_shape_pairs, flat)
from multigrip.objects import Box, Circle, ObjectSpec, ThinPlate
from multigrip.planner import ObjectFace, ObjectFaces, select_mode
from multigrip.sim import (EVENT_BREAKAWAY, EVENT_MODE_CHANGED, Phase,
                           Scenario, grasp_scenario, run_scenario,
                           switch_scenario)
from oracles import (oracle_positive_span, oracle_wrenches,
                     pair_sequence_period, sweep_peak)
from test_sim import check_invariants, random_scenario

G, M, C = DEFAULT_GEARS, DEFAULT_MAGNET, DEFAULT_COUNTS
INTERVAL = switch_interval(G, C)


def report(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n:02d} PASS - {text}")


def test_criterion_01_switch_interval():
    start = time.perf_counter()
    assert math.degrees(INTERVAL) == pytest.approx(108.0, abs=1e-6)

    scenario, _ = switch_scenario(G, M, C, from_mode=1, to_mode=2, gap=3.0)
    trace = run_scenario(scenario)
    breakaway = trace.events_of(EVENT_BREAKAWAY)[0]
    changed = trace.events_of(EVENT_MODE_CHANGED)[0]
    travel = (trace.rows[changed.step].theta_m
              - trace.rows[breakaway.step].theta_m)
    assert math.degrees(travel) == pytest.approx(108.0, abs=1e-6)
    assert trace.final_state.mode_index == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"switch interval 108 deg analytically and in simulation "
              f"(travel {math.degrees(travel):.9f} deg, {elapsed:.2f} s)")


def test_criterion_02_detent_peak():
    start = time.perf_counter()
    angle, torque = detent_peak(MagnetDetent(1.07e-5, 14.0, 1.0))
    assert math.radians(2.5) <= angle <= math.radians(3.0)
    oracle_angle, _ = sweep_peak(MagnetDetent(1.07e-5, 14.0, 1.0))
    assert abs(math.degrees(angle - oracle_angle)) < 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"detent peak at {math.degrees(angle):.3f} deg, brute-force "
              f"oracle agrees within 0.01 deg ({elapsed:.2f} s)")


def test_criterion_03_coupled_angles():
    a3, a4 = finger_body_angles(math.radians(108.0), G)
    assert math.degrees(a3) == pytest.approx(120.0, rel=1e-9)
    assert math.degrees(a4) == pytest.approx(90.0, rel=1e-9)
    report(3, "finger bodies rotate 120/90 deg for 108 deg of motor rotation")


def test_criterion_04_mode_count_and_table():
    start = time.perf_counter()
    assert gc_mode_count(C) == 12
    table = build_mode_table(C)
    assert len(distinct_shape_pairs(table)) == 9
    for n_3s in range(1, 13):
        for n_4s in range(n_3s, 13):
            counts = SurfaceCounts(n_3s, n_4s)
            assert gc_mode_count(counts) == pair_sequence_period(n_4s, n_3s)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(4, f"12 detent states, 9 unordered pairs, period oracle agrees "
              f"for all counts <= 12 ({elapsed:.2f} s)")


def test_criterion_05_statics_linearity():
    scenario = grasp_scenario(G, M, C, target_force=40.0, gap=10.0)
    trace = run_scenario(scenario)
    assert trace.rows[-1].tau_m == pytest.approx(800.0, abs=1e-9)
    assert trace.rows[-1].f_g == pytest.approx(40.0, abs=1e-9)
    for row in trace.rows:
        if row.phase is Phase.GRASPING:
            assert row.f_g == chain_tension(row.tau_m, G)
        else:
            assert row.f_g == 0.0
    report(5, "grasp ramp to 800 N*mm gives 40 N exactly; trace force "
              "equals the analytical chain tension row for row")


def test_criterion_06_state_machine_properties():
    start = time.perf_counter()
    rng = random.Random(987654321)
    n = 1000
    for _ in range(n):
        scenario = random_scenario(rng)
        trace = run_scenario(scenario)
        check_invariants(scenario, trace)
        replay = run_scenario(scenario)
        assert replay.rows == trace.rows
        assert replay.events == trace.events
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(6, f"{n} randomized scenarios: ratchet monotonicity, motion "
              f"exclusivity, mode consistency, bit-identical replay "
              f"({elapsed:.1f} s)")


def test_criterion_07_controller_laps():
    rng = random.Random(24680)
    for _ in range(200):
        k_now = rng.randint(1, 12)
        k_goal = rng.randint(1, 12)
        scenario, cs = switch_scenario(G, M, C, from_mode=k_now,
                                       to_mode=k_goal, step_deg=0.5)
        trace = run_scenario(scenario)
        assert trace.final_state.mode_index == k_goal
        assert cs.k_now == k_goal
        expected = switch_rotation(k_now, k_goal, 12, INTERVAL)
        open_ref = scenario.initial_position / G.input_sprocket_radius
        travel = trace.rows[-1].theta_m - open_ref
        assert travel == pytest.approx(expected, abs=1e-9)
        assert len(trace.events_of(EVENT_MODE_CHANGED)) == (k_goal - k_now) % 12

    # one full lap through all twelve modes
    from multigrip.control import ControllerState, switch_command
    cs = ControllerState(open_reference_angle=0.0, k_now=1, n_gc=12,
                         switch_interval=INTERVAL)
    commands = []
    for k_goal in list(range(2, 13)) + [1]:
        move, cs = switch_command(cs, k_goal)
        commands.append(move)
    scenario = Scenario(gears=G, magnet=M, counts=C, commands=tuple(commands),
                        step_deg=0.5)
    trace = run_scenario(scenario)
    assert math.degrees(trace.rows[-1].theta_m) == pytest.approx(
        12 * 108.0, abs=1e-6)
    assert len(trace.events_of(EVENT_MODE_CHANGED)) == 12
    assert trace.final_state.mode_index == 1
    report(7, "200 random switches land on the target mode with the exact "
              "commanded travel; a full lap totals 1296 deg")


def test_criterion_08_grasp_classification():
    start = time.perf_counter()
    big = ObjectSpec(Circle(15.0), mu=0.5)
    small = ObjectSpec(Circle(5.0), mu=0.5)
    box = ObjectSpec(Box(20.0, 25.0), mu=0.5)
    plate = ObjectSpec(ThinPlate(30.0, 1.0), mu=0.5)
    ff = (flat(), flat())
    cc = (concave(10.0), concave(10.0))

    for obj in (big, small, box, plate):
        assert classify_grasp(obj, ff).outcome is GraspOutcome.FORCE_CLOSURE

    result = classify_grasp(big, cc)
    assert result.outcome is GraspOutcome.FORM_CLOSURE
    assert len(result.contacts) == 4

    assert classify_grasp(small, cc).outcome is GraspOutcome.CAGING
    lp = rp = surface_profile(concave(10.0), 20.0)
    positions, _ = closure_separation(small, lp, rp)
    assert caging_test(small, lp, rp, positions, cell=0.5, angle_cell_deg=5.0)

    fail = classify_grasp(plate, (flat(), deformable_flat()))
    assert fail.outcome is GraspOutcome.FAIL

    # positive-span oracle cross-check on every fixture contact set
    checked = 0
    for obj, pair in [(big, cc), (small, cc), (big, ff), (small, ff),
                      (box, ff), (plate, ff)]:
        left = surface_profile(pair[0], 20.0)
        right = surface_profile(pair[1], 20.0)
        positions, touched = closure_separation(obj, left, right)
        contacts = compute_contacts(obj, left, right, positions)
        if len(contacts) == 0:
            continue
        form = form_closure_test(contacts)
        assert form == oracle_positive_span(oracle_wrenches(contacts, 0.0))
        force = force_closure_test(contacts, 0.5)
        assert force == oracle_positive_span(oracle_wrenches(contacts, 0.5))
        checked += 1
    assert checked >= 5
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(8, f"fixture outcomes reproduced (force/form/caging/fail); "
              f"{checked} contact sets cross-checked against the LP oracle "
              f"({elapsed:.1f} s)")


def test_criterion_09_planner():
    start = time.perf_counter()
    table = build_mode_table(C)
    thin = ObjectFaces(ObjectFace.FLAT, ObjectFace.FLAT, 30.0)
    assert select_mode(thin, 1, table, INTERVAL).k_goal == 1

    cyl = ObjectFaces(ObjectFace.CONVEX, ObjectFace.CONVEX, 30.0)
    chosen = select_mode(cyl, 1, table, INTERVAL)
    assert all(s.kind.value == "concave" for s in table.entry(chosen.k_goal))

    cplx = ObjectFaces(ObjectFace.COMPLEX, ObjectFace.COMPLEX, 20.0)
    fb = select_mode(cplx, 1, table, INTERVAL)
    assert fb.fallback_used

    # minimal rotation over every start mode, for every fixture
    from multigrip.modes import SurfaceKind
    for faces in (thin, cyl, cplx):
        for k_now in range(1, 13):
            result = select_mode(faces, k_now, table, INTERVAL)
            if result.fallback_used:
                pool = table.modes_containing(SurfaceKind.DEFORMABLE_FLAT)
            else:
                pool = [k for k in range(1, 13)
                        if select_mode(faces, k, table, INTERVAL).k_goal == k]
            for k in pool:
                assert result.rotation <= switch_rotation(
                    k_now, k, 12, INTERVAL) + 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(9, f"planner picks mode 1 for the thin plate, a pocket pair for "
              f"the cylinder, deformable fallback for complex faces; minimal "
              f"rotation verified from all 12 start modes ({elapsed:.2f} s)")


def test_criterion_10_breakaway_scaling(tmp_path):
    doubled = MagnetDetent(2 * M.magnet_coefficient, M.circle_radius,
                           M.nominal_gap)
    assert breakaway_motor_torque(G, doubled) == pytest.approx(
        2 * breakaway_motor_torque(G, M), rel=1e-9)
    assert detent_peak(doubled)[0] == pytest.approx(detent_peak(M)[0], abs=1e-9)
    assert switch_interval(G, C) == INTERVAL  # no magnet dependence

    out = tmp_path / "sweep.csv"
    rc = dispatch(["sweep", "--param", "detent.magnet_coefficient_nmm2",
                   "--range", "1e-5:1e-4:1e-5", "--metric", "breakaway",
                   "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 10
    k = [float(r[1]) for r in rows]
    b = [float(r[2]) for r in rows]
    for i in range(10):
        assert b[i] / b[0] == pytest.approx(k[i] / k[0], rel=1e-9)

    out2 = tmp_path / "peaks.csv"
    rc = dispatch(["sweep", "--param", "detent.magnet_coefficient_nmm2",
                   "--range", "1e-5:1e-4:1e-5", "--metric", "peak-detent",
                   "--out", str(out2)])
    assert rc == 0
    with open(out2) as fh:
        peak_rows = list(csv.reader(fh))[1:]
    thetas = [float(r[2]) for r in peak_rows]
    assert max(thetas) - min(thetas) < 1e-5  # deg; refinement float noise only
    report(10, "doubling the magnet coefficient doubles the breakaway torque "
               "and moves neither the peak angle nor the switch interval; "
               "10-point sweep CSV confirms")
