import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigrip.mechanics import (GearGeometry, MagnetDetent, SurfaceCounts,
                                 body_torques, breakaway_motor_torque,
                                 chain_tension, detent_peak, detent_torque,
                                 drivetrain_forces, finger_body_angles,
                                 gc_mode_count, grasp_forces, switch_interval,
                                 validate_antipodal_gearing)
from oracles import pair_sequence_period, sweep_peak


class TestChainAndForces:
    def test_chain_tension_examples(self, gears):
        assert chain_tension(800.0, gears) == pytest.approx(40.0, abs=1e-12)
        assert chain_tension(0.0, gears) == 0.0
        assert chain_tension(400.0, gears) == pytest.approx(20.0, abs=1e-12)

    def test_sign_follows_torque(self, gears):
        assert chain_tension(-800.0, gears) == pytest.approx(-40.0)

    def test_grasp_forces_equal_chain_tension(self, gears):
        f3, f4 = grasp_forces(800.0, gears)
        assert f3 == f4 == chain_tension(800.0, gears)
        assert grasp_forces(0.0, gears) == (0.0, 0.0)
        assert grasp_forces(400.0, gears) == (20.0, 20.0)

    def test_linearity(self, gears):
        for tau in (1.0, 13.7, 250.0):
            assert chain_tension(3 * tau, gears) == pytest.approx(
                3 * chain_tension(tau, gears), rel=1e-12)
            a = grasp_forces(tau, gears)
            b = grasp_forces(2 * tau, gears)
            assert b[0] == pytest.approx(2 * a[0], rel=1e-12)

    def test_body_torques_reference_gears(self, gears):
        assert gears.torque_arm_3s == pytest.approx(18.0, rel=1e-12)
        assert gears.torque_arm_4s == pytest.approx(24.0, rel=1e-12)
        assert body_torques(40.0, gears) == pytest.approx((720.0, 960.0))
        assert body_torques(0.0, gears) == (0.0, 0.0)
        assert body_torques(1.0, gears) == pytest.approx((18.0, 24.0))

    def test_drivetrain_forces_bundle(self, gears):
        f = drivetrain_forces(800.0, gears)
        assert f.chain_tension == 40.0
        assert f.grasp_force_3s == f.grasp_force_4s == 40.0
        assert f.stopper_force_3s == f.stopper_force_4s == 40.0
        assert f.shaft_torque_3s == f.shaft_torque_4s == pytest.approx(600.0)
        assert (f.body_torque_3s, f.body_torque_4s) == pytest.approx((720.0, 960.0))

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            GearGeometry(0.0, 15.0, 10.0, 7.5, 12.0, 12.0)
        with pytest.raises(ValueError):
            GearGeometry(20.0, 15.0, 10.0, 7.5, 12.0, -1.0)


class TestDetent:
    def test_zero_at_rest_and_half_turn(self, magnet):
        assert detent_torque(0.0, magnet) == 0.0
        assert detent_torque(math.pi, magnet) == pytest.approx(0.0, abs=1e-20)

    def test_odd_symmetry(self, magnet):
        for deg in (0.5, 2.7, 10.0, 45.0, 120.0):
            a = math.radians(deg)
            assert detent_torque(-a, magnet) == pytest.approx(
                -detent_torque(a, magnet), rel=1e-12)

    def test_periodicity(self, magnet):
        for deg in (1.0, 33.3, 170.0):
            a = math.radians(deg)
            assert detent_torque(a + 2 * math.pi, magnet) == pytest.approx(
                detent_torque(a, magnet), rel=1e-9)

    def test_linear_in_coefficient(self, magnet):
        a = math.radians(2.0)
        doubled = MagnetDetent(2 * magnet.magnet_coefficient,
                               magnet.circle_radius, magnet.nominal_gap)
        assert detent_torque(a, doubled) == pytest.approx(
            2 * detent_torque(a, magnet), rel=1e-12)

    def test_peak_location_reference_design(self, magnet):
        angle, torque = detent_peak(magnet)
        assert math.radians(2.5) <= angle <= math.radians(3.0)
        assert torque > 0
        # rises sharply to the peak, then falls
        assert detent_torque(angle * 0.25, magnet) < torque
        assert detent_torque(angle * 3.0, magnet) < torque

    def test_peak_against_sweep_oracle(self, magnet):
        angle, torque = detent_peak(magnet)
        oracle_angle, oracle_torque = sweep_peak(magnet)
        assert abs(math.degrees(angle - oracle_angle)) < 0.01
        assert torque == pytest.approx(oracle_torque, rel=1e-6)

    def test_peak_angle_invariant_in_coefficient(self, magnet):
        doubled = MagnetDetent(2 * magnet.magnet_coefficient,
                               magnet.circle_radius, magnet.nominal_gap)
        a1, t1 = detent_peak(magnet)
        a2, t2 = detent_peak(doubled)
        assert a2 == pytest.approx(a1, abs=1e-7)
        assert t2 == pytest.approx(2 * t1, rel=1e-9)

    def test_far_field_peak_approaches_quarter_turn(self, magnet):
        far = MagnetDetent(magnet.magnet_coefficient, magnet.circle_radius,
                           100.0 * magnet.circle_radius)
        angle, _ = detent_peak(far)
        assert math.degrees(angle) > 80.0
        _assert_stationary(far)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(radius=st.floats(8.0, 20.0), gap=st.floats(0.5, 2.0),
           coefficient=st.floats(1e-5, 1e-2))
    def test_closed_form_peak_matches_sweep_oracle(self, radius, gap, coefficient):
        magnet = MagnetDetent(coefficient, radius, gap)
        angle, torque = detent_peak(magnet)
        oracle_angle, oracle_torque = sweep_peak(magnet)
        assert abs(math.degrees(angle - oracle_angle)) < 0.01
        assert torque >= oracle_torque * (1.0 - 1e-12)
        _assert_stationary(magnet)


def _assert_stationary(magnet: MagnetDetent) -> None:
    """The torque just either side of the peak angle is no higher than the peak."""
    angle, torque = detent_peak(magnet)
    assert 0.0 < angle < math.pi / 2
    assert detent_torque(angle * (1.0 - 1e-4), magnet) <= torque
    assert detent_torque(angle * (1.0 + 1e-4), magnet) <= torque


class TestBreakaway:
    def test_threshold_formula(self, gears, magnet):
        _, tau_peak = detent_peak(magnet)
        expected = gears.input_sprocket_radius * tau_peak / 18.0
        assert breakaway_motor_torque(gears, magnet) == pytest.approx(
            expected, rel=1e-12)

    def test_symmetric_gearing_single_condition(self, magnet):
        g = GearGeometry(20.0, 15.0, 12.0, 12.0, 12.0, 12.0)
        assert g.torque_arm_3s == g.torque_arm_4s
        _, tau_peak = detent_peak(magnet)
        assert breakaway_motor_torque(g, magnet) == pytest.approx(
            20.0 * tau_peak / g.torque_arm_3s, rel=1e-12)

    def test_scales_with_coefficient(self, gears, magnet):
        for c in (2.0, 5.0, 0.5):
            scaled = MagnetDetent(c * magnet.magnet_coefficient,
                                  magnet.circle_radius, magnet.nominal_gap)
            assert breakaway_motor_torque(gears, scaled) == pytest.approx(
                c * breakaway_motor_torque(gears, magnet), rel=1e-9)


class TestKinematics:
    def test_coupled_angles_reference(self, gears):
        a3, a4 = finger_body_angles(math.radians(108.0), gears)
        assert math.degrees(a3) == pytest.approx(120.0, rel=1e-9)
        assert math.degrees(a4) == pytest.approx(90.0, rel=1e-9)
        assert finger_body_angles(0.0, gears) == (0.0, 0.0)
        a3, a4 = finger_body_angles(math.radians(216.0), gears)
        assert math.degrees(a3) == pytest.approx(240.0, rel=1e-9)
        assert math.degrees(a4) == pytest.approx(180.0, rel=1e-9)

    def test_antipodal_gearing_reference_passes(self, gears, counts):
        assert validate_antipodal_gearing(gears, counts) is None

    def test_antipodal_gearing_violation(self, counts):
        bad = GearGeometry(20.0, 15.0, 10.0, 10.0, 12.0, 12.0)
        violation = validate_antipodal_gearing(bad, counts)
        assert violation is not None
        assert violation.expected_ratio == pytest.approx(4.0 / 3.0)
        assert violation.actual_ratio == pytest.approx(1.0)
        assert "antipodal" in str(violation)

    def test_equal_gears_equal_counts_pass(self):
        g = GearGeometry(20.0, 15.0, 10.0, 10.0, 12.0, 12.0)
        assert validate_antipodal_gearing(g, SurfaceCounts(3, 3)) is None

    def test_switch_interval_reference(self, gears, counts):
        assert math.degrees(switch_interval(gears, counts)) == pytest.approx(
            108.0, abs=1e-9)

    def test_switch_interval_unit_ratios(self):
        g = GearGeometry(10.0, 10.0, 10.0, 10.0, 10.0, 10.0)
        assert math.degrees(switch_interval(g, SurfaceCounts(3, 3))) == pytest.approx(120.0)

    def test_switch_interval_both_relations_agree(self, gears, counts):
        # 4S relation alone: pitch / ratio
        via_4s = counts.pitch_4s / gears.rotation_ratio_4s
        assert math.degrees(via_4s) == pytest.approx(108.0, abs=1e-9)

    def test_switch_interval_inconsistent_gearing_raises(self, counts):
        bad = GearGeometry(20.0, 15.0, 10.0, 10.0, 12.0, 12.0)
        with pytest.raises(ValueError, match="inconsistent gearing"):
            switch_interval(bad, counts)

    def test_full_cycle_closure(self, gears, counts):
        n = gc_mode_count(counts)
        total = n * switch_interval(gears, counts)
        a3, a4 = finger_body_angles(total, gears)
        assert a3 / (2 * math.pi) == pytest.approx(round(a3 / (2 * math.pi)), abs=1e-9)
        assert a4 / (2 * math.pi) == pytest.approx(round(a4 / (2 * math.pi)), abs=1e-9)


class TestModeCount:
    def test_reference_design(self, counts):
        assert gc_mode_count(counts) == 12

    def test_divisible_branch(self):
        assert gc_mode_count(SurfaceCounts(2, 4)) == 4

    def test_lcm_branch(self):
        assert gc_mode_count(SurfaceCounts(4, 6)) == 12

    def test_matches_sequence_period_oracle(self):
        for n_b in range(1, 13):
            for n_a in range(n_b, 13):
                counts = SurfaceCounts(n_b, n_a)
                assert gc_mode_count(counts) == pair_sequence_period(n_a, n_b)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            SurfaceCounts(4, 3)
        with pytest.raises(ValueError):
            SurfaceCounts(0, 3)
        # SurfaceCounts(True, 4) once read as n_3s = 1
        for bad in ((True, 4), (3, True), (3.0, 4)):
            with pytest.raises(ValueError, match="^surface counts must be integers$"):
                SurfaceCounts(*bad)
