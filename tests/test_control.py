import math
import re

import pytest

from multigrip.control import (ControllerState, Direction, PositionMove,
                               TorqueRamp, grasp_command,
                               release_command, release_then_switch,
                               switch_command, switch_rotation)

INTERVAL = math.radians(108.0)


def make_state(k_now=1, ref=0.0):
    return ControllerState(open_reference_angle=ref, k_now=k_now, n_gc=12,
                           switch_interval=INTERVAL)


class TestGraspCommand:
    def test_reference_force(self, gears):
        cmd = grasp_command(20.0, gears)
        assert isinstance(cmd, TorqueRamp)
        assert cmd.target_torque == pytest.approx(400.0)
        assert cmd.direction is Direction.CLOSE

    def test_experiment_ramp_endpoint(self, gears):
        assert grasp_command(40.0, gears).target_torque == pytest.approx(800.0)

    def test_linearity_near_zero(self, gears):
        assert grasp_command(1e-9, gears).target_torque == pytest.approx(2e-8)

    def test_nonpositive_rejected(self, gears):
        with pytest.raises(ValueError):
            grasp_command(0.0, gears)
        with pytest.raises(ValueError):
            grasp_command(-5.0, gears)


class TestReleaseCommand:
    def test_targets_open_reference(self):
        assert release_command(make_state()).target_angle == 0.0

    def test_after_one_switch(self):
        _, cs = switch_command(make_state(), 2)
        assert release_command(cs).target_angle == pytest.approx(INTERVAL)

    def test_idempotent(self):
        cs = make_state(k_now=3, ref=1.23)
        assert release_command(cs) == release_command(cs)


class TestSwitchCommand:
    def test_forward_three_modes(self):
        move, cs = switch_command(make_state(), 4)
        assert math.degrees(move.target_angle) == pytest.approx(324.0)
        assert cs.k_now == 4
        assert cs.open_reference_angle == move.target_angle

    def test_same_mode_zero_move(self):
        move, cs = switch_command(make_state(k_now=5), 5)
        assert move.target_angle == 0.0
        assert cs.k_now == 5

    def test_wrap_around(self):
        move, _ = switch_command(make_state(k_now=4), 1)
        assert math.degrees(move.target_angle) == pytest.approx(972.0)

    def test_out_of_range_goal(self):
        with pytest.raises(ValueError):
            switch_command(make_state(), 0)
        with pytest.raises(ValueError):
            switch_command(make_state(), 13)

    def test_rotation_range_property(self):
        for k_now in range(1, 13):
            for k_goal in range(1, 13):
                rot = switch_rotation(k_now, k_goal, 12, INTERVAL)
                assert 0.0 <= rot <= 11 * INTERVAL + 1e-12

    def test_full_lap_totals(self):
        cs = make_state()
        total = 0.0
        for k_goal in list(range(2, 13)) + [1]:
            move, cs_next = switch_command(cs, k_goal)
            total += move.target_angle - cs.open_reference_angle
            cs = cs_next
        assert total == pytest.approx(12 * INTERVAL, rel=1e-12)

    def test_random_cycles_are_interval_multiples(self):
        import random
        rng = random.Random(7)
        for _ in range(50):
            cs = make_state(k_now=rng.randint(1, 12))
            start = cs.k_now
            total = 0.0
            for k_goal in [rng.randint(1, 12) for _ in range(rng.randint(1, 6))] + [start]:
                move, cs_next = switch_command(cs, k_goal)
                total += move.target_angle - cs.open_reference_angle
                cs = cs_next
            laps = total / (12 * INTERVAL)
            assert laps == pytest.approx(round(laps), abs=1e-9)


def test_release_then_switch_prepends_release():
    cs = make_state(k_now=1, ref=0.5)
    commands, cs2 = release_then_switch(cs, 3)
    assert len(commands) == 2
    assert isinstance(commands[0], PositionMove)
    assert commands[0].target_angle == 0.5
    assert commands[1].target_angle == pytest.approx(0.5 + 2 * INTERVAL)
    assert cs2.k_now == 3


class TestBadInputsRefused:
    @pytest.mark.parametrize("field, value, message", [
        # switch_command once took k_now 1.5 to a half switch
        ("k_now", 1.5, "k_now must be an int, got 1.5"),
        ("k_now", 2.0, "k_now must be an int, got 2.0"),
        ("k_now", True, "k_now must be an int, got True"),
        ("n_gc", 12.5, "n_gc must be an int, got 12.5"),
        ("n_gc", False, "n_gc must be an int, got False"),
        ("open_reference_angle", math.nan, "open_reference_angle must be finite, got nan"),
        ("open_reference_angle", -math.inf, "open_reference_angle must be finite, got -inf"),
        ("switch_interval", math.inf, "switch_interval must be positive and finite, got inf"),
        ("switch_interval", math.nan, "switch_interval must be positive and finite, got nan"),
        ("switch_interval", 0.0, "switch_interval must be positive and finite, got 0.0")])
    def test_controller_state(self, field, value, message):
        fields = dict(open_reference_angle=0.0, k_now=1, n_gc=12, switch_interval=INTERVAL)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ControllerState(**{**fields, field: value})

    @pytest.mark.parametrize("args, message", [
        ((1, 3, 12, math.nan), "interval must be positive and finite, got nan"),
        ((1, 3, 12, math.inf), "interval must be positive and finite, got inf"),
        ((1, 3, 12, -INTERVAL), "interval must be positive and finite"),
        ((1.0, 3, 12, INTERVAL), "k_now must be an int, got 1.0"),
        ((1, 3.5, 12, INTERVAL), "k_goal must be an int, got 3.5"),
        ((1, True, 12, INTERVAL), "k_goal must be an int, got True"),
        ((1, 3, 12.0, INTERVAL), "n_gc must be an int, got 12.0")])
    def test_switch_rotation(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            switch_rotation(*args)
