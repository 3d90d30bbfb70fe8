"""Motor command generation: torque-mode grasping, position-mode release and switching.

The motor angle convention is shared with the simulator: rotation in the
opening direction is positive.  Grasping closes the fingers under torque
control; releasing and mode switching use position control, and switching
always advances the motor in the opening direction because the ratchet
forbids reverse body rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .mechanics import GearGeometry

__all__ = [
    "Direction",
    "TorqueRamp",
    "PositionMove",
    "MotorCommand",
    "ControllerState",
    "grasp_command",
    "release_command",
    "switch_command",
    "switch_rotation",
    "release_then_switch",
]


class Direction(Enum):
    CLOSE = "close"
    OPEN = "open"


@dataclass(frozen=True)
class TorqueRamp:
    """Drive until the motor torque magnitude reaches the target (N*mm)."""

    target_torque: float
    direction: Direction = Direction.CLOSE

    def __post_init__(self) -> None:
        if not math.isfinite(self.target_torque) or self.target_torque < 0:
            raise ValueError(f"torque target must be finite and >= 0, got {self.target_torque}")
        if not isinstance(self.direction, Direction):
            raise ValueError(f"direction must be a Direction, got {self.direction!r}")


@dataclass(frozen=True)
class PositionMove:
    """Drive the motor to an absolute angle (rad)."""

    target_angle: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.target_angle):
            raise ValueError("position target must be finite")


MotorCommand = TorqueRamp | PositionMove


@dataclass(frozen=True)
class ControllerState:
    """Controller-side bookkeeping for one gripper.

    open_reference_angle: motor angle (rad) at which the fingers are fully
        open (bases on the stopper); updated after every switch.
    k_now: current mode index, 1..n_gc.
    """

    open_reference_angle: float
    k_now: int
    n_gc: int
    switch_interval: float

    def __post_init__(self) -> None:
        _check_int("n_gc", self.n_gc)
        _check_int("k_now", self.k_now)
        if not math.isfinite(self.open_reference_angle):
            raise ValueError(f"open_reference_angle must be finite, "
                             f"got {self.open_reference_angle!r}")
        if self.n_gc < 1:
            raise ValueError("n_gc must be >= 1")
        if not 1 <= self.k_now <= self.n_gc:
            raise ValueError(f"k_now {self.k_now} outside 1..{self.n_gc}")
        _check_interval("switch_interval", self.switch_interval)


def _check_int(name: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")


def _check_interval(name: str, value: float) -> None:
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def grasp_command(target_force: float, gears: GearGeometry) -> TorqueRamp:
    """Torque command that closes the fingers until the grasp force is reached.

    The chain maps motor torque to grasp force through the input sprocket
    radius, so the torque target is force * radius.
    """
    if not target_force > 0:
        raise ValueError(f"target grasp force must be positive, got {target_force}")
    return TorqueRamp(target_torque=gears.input_sprocket_radius * target_force,
                      direction=Direction.CLOSE)


def release_command(state: ControllerState) -> PositionMove:
    """Position command that returns the fingers to the fully-open reference."""
    return PositionMove(target_angle=state.open_reference_angle)


def switch_rotation(k_now: int, k_goal: int, n_gc: int, interval: float) -> float:
    """Opening-direction motor rotation (rad) from mode k_now to mode k_goal.

    The cycle is one-way, so reaching an earlier index wraps through the
    remaining modes.  Always in [0, (n_gc - 1) * interval].
    """
    for name, value in (("k_now", k_now), ("k_goal", k_goal), ("n_gc", n_gc)):
        _check_int(name, value)
    _check_interval("interval", interval)
    if not 1 <= k_goal <= n_gc:
        raise ValueError(f"k_goal {k_goal} outside 1..{n_gc}")
    if not 1 <= k_now <= n_gc:
        raise ValueError(f"k_now {k_now} outside 1..{n_gc}")
    steps = k_goal - k_now if k_goal >= k_now else n_gc + k_goal - k_now
    return steps * interval


def switch_command(state: ControllerState,
                   k_goal: int) -> tuple[PositionMove, ControllerState]:
    """Position command realizing a mode switch, plus the updated state.

    The move target is the current fully-open reference advanced by the
    switch rotation; the returned state has the reference advanced to the
    new fully-open angle and k_now set to the goal.  Must be issued from
    the fully-open state (see release_then_switch).
    """
    rotation = switch_rotation(state.k_now, k_goal, state.n_gc, state.switch_interval)
    target = state.open_reference_angle + rotation
    new_state = replace(state, open_reference_angle=target, k_now=k_goal)
    return PositionMove(target_angle=target), new_state


def release_then_switch(state: ControllerState,
                        k_goal: int) -> tuple[tuple[MotorCommand, ...], ControllerState]:
    """Command sequence for switching regardless of the current grip.

    Switching is inactive while the fingers are closed, so a release to the
    fully-open reference is issued first.
    """
    move, new_state = switch_command(state, k_goal)
    return (release_command(state), move), new_state
