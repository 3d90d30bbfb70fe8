"""multigrip: quasi-static model of a single-motor multi-surface gripper.

One motor both opens/closes the fingers and, past the fully-open stop,
rotates the finger bodies to switch which surfaces face the object.  The
package covers the drivetrain statics and magnetic-detent mechanics, a
deterministic scenario simulator, the torque/position controller, planar
grasp classification (form closure, force closure, caging) and rule-based
mode selection, plus a CLI over all of it.

`import multigrip` loads no submodule: each name below, and each
submodule, is imported on first use (PEP 562), through the import
statement's own machinery, so `-X importtime` lists each submodule.
"""

__version__ = "0.1.0"

# Public names re-exported here, by the submodule that defines them.
_EXPORTS = {
    "mechanics": ("DEFAULT_COUNTS", "DEFAULT_GEARS", "DEFAULT_MAGNET",
                  "DrivetrainForces", "GearGeometry", "GearingViolation",
                  "MagnetDetent", "SurfaceCounts", "body_torques",
                  "breakaway_motor_torque", "chain_tension", "detent_peak",
                  "detent_torque", "drivetrain_forces", "finger_body_angles",
                  "gc_mode_count", "grasp_forces", "switch_interval",
                  "validate_antipodal_gearing"),
    "modes": ("GcModeTable", "SurfaceKind", "SurfaceShape", "build_mode_table",
              "concave", "convex", "deformable_flat", "distinct_shape_pairs",
              "flat"),
    "control": ("ControllerState", "Direction", "MotorCommand", "PositionMove",
                "TorqueRamp", "grasp_command", "release_command",
                "release_then_switch", "switch_command", "switch_rotation"),
    "sim": ("GripperState", "Phase", "Scenario", "SimTrace", "body_torque_trace",
            "grasp_scenario", "run_scenario", "step", "switch_scenario"),
    "objects": ("Box", "Circle", "CompositeFaces", "FaceArc",
                "ObjectDescription", "ObjectSpec", "ThinPlate",
                "parse_object_file"),
    "grasp": ("Contact", "ContactSet", "GraspOutcome", "GraspResult",
              "caging_test", "classify_grasp", "closure_separation",
              "compute_contacts", "force_closure_test", "form_closure_test",
              "surface_profile"),
    "planner": ("ObjectFace", "ObjectFaces", "PlannerThresholds", "PlanResult",
                "candidate_surfaces", "select_mode"),
    "config": ("RunConfig", "default_config", "load_config", "parse_config"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_MODULE_OF]


def __getattr__(name: str):
    if name in _EXPORTS:
        __import__(f"{__name__}.{name}")   # binds the submodule in globals()
        return globals()[name]
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__getattr__(_MODULE_OF[name]), name)
    globals()[name] = value   # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
