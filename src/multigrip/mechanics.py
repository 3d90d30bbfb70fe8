"""Closed-form drivetrain statics and magnetic-detent relations.

Everything in this module is a pure function of immutable value types.
Angles are in radians, lengths in mm, forces in N, torques in N*mm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

__all__ = [
    "GearGeometry",
    "MagnetDetent",
    "SurfaceCounts",
    "DrivetrainForces",
    "GearingViolation",
    "DEFAULT_GEARS",
    "DEFAULT_MAGNET",
    "DEFAULT_COUNTS",
    "chain_tension",
    "grasp_forces",
    "body_torques",
    "drivetrain_forces",
    "detent_coefficients",
    "detent_torque",
    "detent_peak",
    "breakaway_motor_torque",
    "finger_body_angles",
    "validate_antipodal_gearing",
    "switch_interval",
    "gc_mode_count",
]

# Relative tolerance for exact-ratio identities (pure arithmetic, no noise).
RATIO_RTOL = 1e-9


@dataclass(frozen=True)
class GearGeometry:
    """Pitch radii (mm) of the chain/sprocket/gear drivetrain.

    The motor turns an input sprocket that drives a roller chain.  The chain
    turns a sprocket on each of the two driving shafts, and each driving
    shaft carries a gear that meshes with the gear cut into its finger body.
    The two finger units are named 3S and 4S after the number of surfaces
    their bodies carry in the reference design.
    """

    input_sprocket_radius: float
    shaft_sprocket_radius: float
    shaft_gear_radius_3s: float
    shaft_gear_radius_4s: float
    body_gear_radius_3s: float
    body_gear_radius_4s: float

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{f.name} must be a positive finite radius, got {value!r}")

    @property
    def torque_arm_3s(self) -> float:
        """Lever arm (mm) mapping chain tension to 3S finger-body torque."""
        return self.body_gear_radius_3s * self.shaft_sprocket_radius / self.shaft_gear_radius_3s

    @property
    def torque_arm_4s(self) -> float:
        """Lever arm (mm) mapping chain tension to 4S finger-body torque."""
        return self.body_gear_radius_4s * self.shaft_sprocket_radius / self.shaft_gear_radius_4s

    @property
    def rotation_ratio_3s(self) -> float:
        """3S finger-body rotation per unit motor rotation (dimensionless)."""
        return (self.shaft_gear_radius_3s * self.input_sprocket_radius
                / (self.body_gear_radius_3s * self.shaft_sprocket_radius))

    @property
    def rotation_ratio_4s(self) -> float:
        """4S finger-body rotation per unit motor rotation (dimensionless)."""
        return (self.shaft_gear_radius_4s * self.input_sprocket_radius
                / (self.body_gear_radius_4s * self.shaft_sprocket_radius))


@dataclass(frozen=True)
class MagnetDetent:
    """Parameters of the magnet pair that holds a finger body at a detent.

    magnet_coefficient: attraction constant (N*mm^2); force between the
        paired magnets is magnet_coefficient / distance^2.
    circle_radius: radius (mm) of the circle on the finger body along which
        its magnets sit.
    nominal_gap: magnet-to-magnet gap (mm) when the body rests at a detent.
    """

    magnet_coefficient: float
    circle_radius: float
    nominal_gap: float

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{f.name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class SurfaceCounts:
    """Numbers of surfaces on the two finger bodies.

    Named after the reference design's three- and four-surface fingers; the
    4S slot always holds the finger with the larger count.
    """

    n_3s: int
    n_4s: int

    def __post_init__(self) -> None:
        if not (isinstance(self.n_3s, int) and isinstance(self.n_4s, int)):
            raise ValueError("surface counts must be integers")
        if not self.n_4s >= self.n_3s >= 1:
            raise ValueError(f"need n_4s >= n_3s >= 1, got ({self.n_3s}, {self.n_4s})")

    @property
    def pitch_3s(self) -> float:
        """Angle (rad) between adjacent surfaces on the 3S body."""
        return 2.0 * math.pi / self.n_3s

    @property
    def pitch_4s(self) -> float:
        """Angle (rad) between adjacent surfaces on the 4S body."""
        return 2.0 * math.pi / self.n_4s


@dataclass(frozen=True)
class DrivetrainForces:
    """Forces and torques through the drivetrain for one motor torque."""

    chain_tension: float
    grasp_force_3s: float
    grasp_force_4s: float
    stopper_force_3s: float
    stopper_force_4s: float
    shaft_torque_3s: float
    shaft_torque_4s: float
    body_torque_3s: float
    body_torque_4s: float


@dataclass(frozen=True)
class GearingViolation:
    """Report of a failed antipodal-gearing identity check."""

    expected_ratio: float
    actual_ratio: float

    def __str__(self) -> str:
        return (f"gear ratios do not keep the finger surfaces antipodal: "
                f"(shaft/body ratio 3S):(shaft/body ratio 4S) should be "
                f"{self.expected_ratio:.9g}, got {self.actual_ratio:.9g}")


# Reference design parameters.
DEFAULT_GEARS = GearGeometry(
    input_sprocket_radius=20.0,
    shaft_sprocket_radius=15.0,
    shaft_gear_radius_3s=10.0,
    shaft_gear_radius_4s=7.5,
    body_gear_radius_3s=12.0,
    body_gear_radius_4s=12.0,
)
# Magnet coefficient from the prototype magnet datasheet model.
DEFAULT_MAGNET = MagnetDetent(
    magnet_coefficient=1.07e-5,
    circle_radius=14.0,
    nominal_gap=1.0,
)
DEFAULT_COUNTS = SurfaceCounts(n_3s=3, n_4s=4)


def chain_tension(motor_torque: float, gears: GearGeometry) -> float:
    """Roller-chain tension (N) produced by a motor torque (N*mm)."""
    return motor_torque / gears.input_sprocket_radius


def grasp_forces(motor_torque: float, gears: GearGeometry) -> tuple[float, float]:
    """Grasp forces (N) at the 3S and 4S fingers while pressing an object.

    Both fingers see the full chain tension, so the two forces are equal.
    """
    f = chain_tension(motor_torque, gears)
    return f, f


def body_torques(tension: float, gears: GearGeometry) -> tuple[float, float]:
    """Torques (N*mm) on the 3S and 4S finger bodies from a chain tension."""
    return gears.torque_arm_3s * tension, gears.torque_arm_4s * tension


def drivetrain_forces(motor_torque: float, gears: GearGeometry) -> DrivetrainForces:
    """Evaluate the whole static force chain for one motor torque.

    Grasp and stopper force fields hold the values those regimes would see;
    which regime applies is the caller's context.
    """
    f_rc = chain_tension(motor_torque, gears)
    tau_shaft = gears.shaft_sprocket_radius * f_rc
    tau_3s, tau_4s = body_torques(f_rc, gears)
    return DrivetrainForces(
        chain_tension=f_rc,
        grasp_force_3s=f_rc,
        grasp_force_4s=f_rc,
        stopper_force_3s=f_rc,
        stopper_force_4s=f_rc,
        shaft_torque_3s=tau_shaft,
        shaft_torque_4s=tau_shaft,
        body_torque_3s=tau_3s,
        body_torque_4s=tau_4s,
    )


def detent_coefficients(magnet: MagnetDetent) -> tuple[float, float, float]:
    """(A, B, C) of the detent curve C sin(theta) / (A - B cos(theta))^1.5.

    With circle radius r, nominal gap d and magnet coefficient k:
    A = d^2 + 2r^2 + 2dr, B = 2r(r + d), C = k r (r + d).  A - B = d^2 > 0,
    so the denominator never vanishes.
    """
    r = magnet.circle_radius
    d = magnet.nominal_gap
    return (d * d + 2.0 * r * r + 2.0 * d * r, 2.0 * r * (r + d),
            magnet.magnet_coefficient * r * (r + d))


def detent_torque(body_angle: float, magnet: MagnetDetent) -> float:
    """Restoring torque (N*mm) on a finger body rotated off its detent.

    Point-charge model of one magnet pair: the base magnet sits at the
    nominal gap from the body magnet's rest position, and the body magnet
    rides a circle of the configured radius.  Odd and 2*pi-periodic in the
    body angle.
    """
    a, b, c = detent_coefficients(magnet)
    return c * math.sin(body_angle) / (a - b * math.cos(body_angle)) ** 1.5


def detent_peak(magnet: MagnetDetent) -> tuple[float, float]:
    """Locate the holding-torque maximum of the detent curve.

    With c = cos(theta), A = d^2 + 2r^2 + 2dr and B = 2r(r + d), the detent
    torque is proportional to sin(theta) / (A - B c)^1.5.  Its derivative
    is proportional to c (A - B c) - 3/2 B (1 - c^2), which vanishes when
    1/2 B c^2 + A c - 3/2 B = 0.  The positive root, rationalized so that
    nothing cancels, is c* = 3B / (A + sqrt(A^2 + 3B^2)); it lies in (0, 1)
    because A - B = d^2 > 0, so the peak angle lies in (0, pi/2).  Returns
    (angle at peak [rad], peak torque [N*mm]).  The peak angle does not
    depend on the magnet coefficient, only on the detent geometry.
    """
    a, b, _ = detent_coefficients(magnet)
    angle = math.acos(3.0 * b / (a + math.sqrt(a * a + 3.0 * b * b)))
    return angle, detent_torque(angle, magnet)


def breakaway_motor_torque(gears: GearGeometry, magnet: MagnetDetent) -> float:
    """Smallest motor torque (N*mm) that rotates the finger bodies.

    The chain couples both driving shafts rigidly, so neither body can turn
    alone: the motor torque must push both bodies past their detents'
    holding-torque maximum.  The finger with the smaller torque arm needs
    the larger motor torque and therefore sets the threshold.
    """
    _, tau_peak = detent_peak(magnet)
    arm = min(gears.torque_arm_3s, gears.torque_arm_4s)
    return gears.input_sprocket_radius * tau_peak / arm


def finger_body_angles(motor_angle: float, gears: GearGeometry) -> tuple[float, float]:
    """Finger-body rotations (rad) for a motor rotation in the switching regime."""
    return (gears.rotation_ratio_3s * motor_angle,
            gears.rotation_ratio_4s * motor_angle)


def validate_antipodal_gearing(gears: GearGeometry,
                               counts: SurfaceCounts) -> GearingViolation | None:
    """Check that the gearing keeps both fingers' surfaces antipodal.

    The shaft/body gear ratios must be in inverse proportion to the surface
    counts, so that each switch interval advances the 3S body by one third
    of a turn exactly when it advances the 4S body by one quarter (in the
    reference design).  Returns None when the identity holds within
    relative tolerance 1e-9, else a violation report.
    """
    lhs = gears.shaft_gear_radius_3s / gears.body_gear_radius_3s * counts.n_3s
    rhs = gears.shaft_gear_radius_4s / gears.body_gear_radius_4s * counts.n_4s
    if math.isclose(lhs, rhs, rel_tol=RATIO_RTOL, abs_tol=0.0):
        return None
    expected = counts.n_4s / counts.n_3s
    actual = ((gears.shaft_gear_radius_3s / gears.body_gear_radius_3s)
              / (gears.shaft_gear_radius_4s / gears.body_gear_radius_4s))
    return GearingViolation(expected_ratio=expected, actual_ratio=actual)


def switch_interval(gears: GearGeometry, counts: SurfaceCounts) -> float:
    """Motor rotation (rad) that advances both fingers to their next surface.

    Computed from both fingers' gear relations; raises if the two disagree,
    which means the gearing cannot keep the surfaces antipodal.
    """
    via_3s = counts.pitch_3s / gears.rotation_ratio_3s
    via_4s = counts.pitch_4s / gears.rotation_ratio_4s
    if not math.isclose(via_3s, via_4s, rel_tol=RATIO_RTOL, abs_tol=0.0):
        raise ValueError(
            "inconsistent gearing: switch interval differs between fingers "
            f"({math.degrees(via_3s):.9g} deg via 3S, {math.degrees(via_4s):.9g} deg via 4S)")
    return via_3s


def gc_mode_count(counts: SurfaceCounts) -> int:
    """Number of distinct detent states the coupled rotation cycles through."""
    if counts.n_4s % counts.n_3s == 0:
        return counts.n_4s
    return math.lcm(counts.n_4s, counts.n_3s)
